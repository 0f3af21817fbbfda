"""Planner-throughput bench: the hot-path overhaul vs the seed planner.

Times end-to-end hierarchical planning (tree build + every level search) on
the paper's heterogeneous 128+128 TPU-v2/v3 array and emits
``results/BENCH_planner.json``.  Three guarantees are enforced here rather
than just reported:

* the optimized planner (closed-form Eq. 10 + family memoization) emits the
  *same plan* as the legacy mode (bisection, uncached) — types identical,
  ratios within 1e-9;
* the optimized planner clears the overhaul's speedup floor against the
  recorded seed-planner timings;
* fresh timings may not regress more than ``REGRESSION_FACTOR``× against the
  committed ``BENCH_planner.json`` (the CI gate; the committed file is read
  *before* it is rewritten with this run's numbers);
* the ``dp-vectorized`` backend emits a bit-identical plan to ``dp`` and
  clears ``VECTORIZED_SPEEDUP_FLOOR``× over it on resnet18 (the deepest
  network here, where the batched recurrence has the most to amortize).

The optimized and legacy columns pin ``backend="dp"``: they measure the
scalar reference kernel, which is what the speedup ratios divide by, while
the scheme default (and the telemetry-overhead gate) is ``dp-vectorized``.

``dp_vectorized_ms`` reuses the module-wide pack caches of
``repro.core.dp_vectorized`` that earlier repeats filled;
``dp_vectorized_cold_ms`` empties them before every plan, which is what a
request for a new fingerprint pays.  The cold columns are reported, not
gated.
"""

import gc
import json
import pathlib
import statistics
import time

from repro.core.dp_vectorized import clear_pack_caches
from repro.core.hierarchy import collect_level_plans
from repro.core.planner import AccParScheme, Planner
from repro.hardware.presets import heterogeneous_array
from repro.ioutil import atomic_write_text
from repro.models import build_model
from repro.obs import telemetry as telemetry_store

from conftest import RESULTS_DIR

ARTIFACT = "BENCH_planner.json"

NETWORKS = ("alexnet", "vgg16", "resnet18")
BATCH = 512
REPEATS = 7

#: end-to-end planning time of the pre-overhaul planner (bisection ratio
#: solver, no step memoization, no workload/tree caching) on this benchmark's
#: exact configuration, recorded at the seed commit.  These are the "before"
#: numbers the overhaul is measured against; the in-process legacy mode
#: (``closed_form=False, memoize=False``) is faster than this because the
#: structural work (eager workload quantities, pairing-tree cache, linear
#: backtracking) speeds both modes up.
SEED_BASELINE_MS = {
    "alexnet": 44.8,
    "vgg16": 92.9,
    "resnet18": 224.5,
}

#: acceptance floor for the overhaul: optimized wall-clock vs seed baseline
SPEEDUP_FLOOR = 5.0

#: in-process legacy-mode timings recorded on the *same machine* as
#: ``SEED_BASELINE_MS``.  The legacy mode re-runs on every machine, so the
#: ratio ``legacy_now / LEGACY_REFERENCE_MS`` measures how much slower (or
#: faster) the current machine is than the one that recorded the seed
#: numbers — and scaling the seed baseline by it makes the speedup floor
#: machine-independent instead of silently assuming baseline-commit hardware.
LEGACY_REFERENCE_MS = {
    "alexnet": 17.47,
    "vgg16": 36.80,
    "resnet18": 101.48,
}

#: CI gate: fresh optimized timings may be at most this factor slower than
#: the committed artifact (absorbs machine-speed differences between the
#: machine that committed the baseline and the CI runner)
REGRESSION_FACTOR = 3.0

#: CI gate: the vectorized backend must beat the scalar DP by at least this
#: factor on resnet18.  Both backends run in the same process on the same
#: machine, so no calibration is needed; resnet18 only, because on shallow
#: chains (alexnet) fixed per-plan overhead dominates both and the ratio
#: mostly measures noise.
VECTORIZED_SPEEDUP_FLOOR = 3.0
VECTORIZED_GATE_NETWORK = "resnet18"

#: CI gate: planning with durable telemetry *enabled* (a live writer
#: recording one search event per plan) may cost at most this fraction
#: over planning with telemetry off.  Measured on the fastest network —
#: the per-plan recording cost is fixed, so the shallowest plan is where
#: it is proportionally largest.
TELEMETRY_OVERHEAD_CEILING = 0.05
TELEMETRY_GATE_NETWORK = "alexnet"
TELEMETRY_REPEATS = 15


def _plan(net, scheme):
    """One cold end-to-end plan: fresh array, fresh planner, fresh scheme."""
    array = heterogeneous_array()
    return Planner(array, scheme).plan(net, BATCH)


def _cold_vectorized_scheme():
    """dp-vectorized with empty pack caches; runs before the timer starts."""
    clear_pack_caches()
    return AccParScheme(backend="dp-vectorized")


def _interleaved_ms(net, scheme_factories):
    """Time several schemes interleaved; returns (median_ms, min_ms) per scheme.

    Each repeat runs every scheme once, back to back, so a machine-noise
    burst (shared CI runner, single-core box) lands on all schemes instead
    of biasing whichever one happened to own that block of wall-clock.
    The speedup gates compare the *minima*: scheduler noise is strictly
    additive, so min-of-N estimates true cost stably where a ratio of
    block medians flaps; the medians are reported in the artifact.
    """
    times = [[] for _ in scheme_factories]
    for _ in range(REPEATS):
        for slot, factory in enumerate(scheme_factories):
            scheme = factory()
            t0 = time.perf_counter()
            _plan(net, scheme)
            times[slot].append(time.perf_counter() - t0)
    return [(statistics.median(ts) * 1e3, min(ts) * 1e3) for ts in times]


def _assert_same_plan(name, optimized, legacy):
    """The overhaul must not change a single decision: types identical,
    ratios within 1e-9, per-level costs within float noise."""
    opt_levels = collect_level_plans(optimized.plan)
    leg_levels = collect_level_plans(legacy.plan)
    assert len(opt_levels) == len(leg_levels), name
    for opt, leg in zip(opt_levels, leg_levels):
        assert set(opt.assignments) == set(leg.assignments), name
        for key in opt.assignments:
            o, l = opt.assignments[key], leg.assignments[key]
            assert o.ptype == l.ptype, (name, key, o.ptype, l.ptype)
            assert abs(o.ratio - l.ratio) <= 1e-9, (name, key, o.ratio, l.ratio)
        if opt.cost and leg.cost:
            rel = abs(opt.cost - leg.cost) / max(abs(leg.cost), 1e-30)
            assert rel <= 1e-9, (name, opt.cost, leg.cost)


def _assert_identical_plan(name, a, b):
    """Bit-identical plans: same ordered typed entries, same float costs.

    Stricter than :func:`_assert_same_plan` — the vectorized backend is a
    different execution strategy for the *same* arithmetic, so it owes
    equality, not tolerance."""
    a_levels = collect_level_plans(a.plan)
    b_levels = collect_level_plans(b.plan)
    assert len(a_levels) == len(b_levels), name
    for la, lb in zip(a_levels, b_levels):
        assert la.entries == lb.entries, name
        assert la.cost == lb.cost, name


def test_planner_throughput_and_regression_gate(results_dir):
    artifact_path = pathlib.Path(results_dir) / ARTIFACT
    committed = None
    if artifact_path.exists():
        committed = json.loads(artifact_path.read_text())

    networks = {}
    for name in NETWORKS:
        net = build_model(name)

        # identity first (also warms imports and caches for the timings);
        # the optimized and legacy columns time the scalar dp kernel, pinned
        # explicitly because the scheme default is dp-vectorized
        optimized = _plan(net, AccParScheme(backend="dp"))
        legacy = _plan(net, AccParScheme(backend="dp", closed_form=False,
                                         memoize=False))
        vectorized = _plan(net, AccParScheme(backend="dp-vectorized"))
        _assert_same_plan(name, optimized, legacy)
        _assert_identical_plan(name, optimized, vectorized)

        (
            (optimized_ms, optimized_min),
            (legacy_ms, legacy_min),
            (dp_vectorized_ms, dp_vectorized_min),
            (dp_vectorized_cold_ms, dp_vectorized_cold_min),
        ) = _interleaved_ms(net, (
            lambda: AccParScheme(backend="dp"),
            lambda: AccParScheme(backend="dp", closed_form=False,
                                 memoize=False),
            lambda: AccParScheme(backend="dp-vectorized"),
            _cold_vectorized_scheme,
        ))
        # calibrate the seed baseline to this machine: the legacy mode runs
        # the seed's solver configuration in-process, so its slowdown vs the
        # reference recording is pure machine speed.  The gate uses the
        # minima end to end, so the factor does too.
        machine_factor = legacy_min / LEGACY_REFERENCE_MS[name]
        seed_ms = SEED_BASELINE_MS[name] * machine_factor
        networks[name] = {
            "seed_baseline_ms": SEED_BASELINE_MS[name],
            "machine_factor": round(machine_factor, 3),
            "optimized_ms": round(optimized_ms, 2),
            "legacy_mode_ms": round(legacy_ms, 2),
            "dp_vectorized_ms": round(dp_vectorized_ms, 2),
            "dp_vectorized_cold_ms": round(dp_vectorized_cold_ms, 2),
            "speedup_vs_seed": round(seed_ms / optimized_min, 2),
            "speedup_vs_legacy_mode": round(legacy_min / optimized_min, 2),
            "speedup_dp_vectorized_vs_dp": round(
                optimized_min / dp_vectorized_min, 2
            ),
            "speedup_dp_vectorized_cold_vs_dp": round(
                optimized_min / dp_vectorized_cold_min, 2
            ),
        }

        if name == VECTORIZED_GATE_NETWORK:
            assert optimized_min / dp_vectorized_min >= VECTORIZED_SPEEDUP_FLOOR, (
                f"{name}: dp-vectorized at {dp_vectorized_min:.1f}ms is only "
                f"{optimized_min / dp_vectorized_min:.1f}x over the scalar dp "
                f"backend ({optimized_min:.1f}ms); the vectorized recurrence "
                f"requires >= {VECTORIZED_SPEEDUP_FLOOR}x here"
            )

        assert seed_ms / optimized_min >= SPEEDUP_FLOOR, (
            f"{name}: optimized planner at {optimized_min:.1f}ms is only "
            f"{seed_ms / optimized_min:.1f}x over the machine-calibrated seed "
            f"baseline ({seed_ms:.1f}ms = {SEED_BASELINE_MS[name]:.1f}ms x "
            f"{machine_factor:.2f}); the overhaul requires >= {SPEEDUP_FLOOR}x"
        )

        if committed is not None:
            baseline = committed["networks"][name]["optimized_ms"]
            assert optimized_ms <= REGRESSION_FACTOR * baseline, (
                f"{name}: optimized planner regressed to {optimized_ms:.1f}ms, "
                f"more than {REGRESSION_FACTOR}x the committed baseline "
                f"({baseline:.1f}ms)"
            )

    payload = {
        "description": (
            "End-to-end hierarchical planning time (median of "
            f"{REPEATS} interleaved cold runs; speedup ratios compare the "
            "per-scheme minima, which are stable under shared-runner noise), "
            "heterogeneous 128+128 TPU-v2/v3 array, "
            f"batch {BATCH}.  seed_baseline_ms is the pre-overhaul planner "
            "recorded at the seed commit; legacy_mode_ms is the same solver "
            "configuration (bisection, uncached) running in-process today; "
            "machine_factor (legacy_mode_ms / the legacy timing recorded "
            "alongside the seed numbers) rescales the seed baseline to this "
            "machine before the speedup floor is checked.  dp_vectorized_ms "
            "is the dp-vectorized backend (batched numpy Eq. 9) on the same "
            "workload; it must emit a bit-identical plan and beat dp by "
            f"{VECTORIZED_SPEEDUP_FLOOR}x on {VECTORIZED_GATE_NETWORK}.  "
            "dp_vectorized_ms reuses the module-wide pack caches earlier "
            "repeats filled; dp_vectorized_cold_ms empties them before each "
            "plan (a new fingerprint's cost) and is reported, not gated."
        ),
        "vectorized_speedup_floor": VECTORIZED_SPEEDUP_FLOOR,
        "vectorized_gate_network": VECTORIZED_GATE_NETWORK,
        "batch": BATCH,
        "repeats": REPEATS,
        "regression_factor": REGRESSION_FACTOR,
        "networks": networks,
    }
    text = json.dumps(payload, indent=2)
    # atomic: a crashed run must not leave a truncated regression baseline
    atomic_write_text(artifact_path, text + "\n")
    print(f"\n[artifact: {artifact_path}]\n{text}")


def test_telemetry_overhead_gate(results_dir, tmp_path):
    """Durable telemetry must stay out of the planner's way.

    Two interleaved timing series on the same workload: telemetry off
    (no process-wide writer — the disabled-path contract, one attribute
    read per plan) and telemetry on (a live writer appending one search
    event per plan).  The enabled overhead, measured on the per-mode
    *medians*, must stay under ``TELEMETRY_OVERHEAD_CEILING``.  Medians
    rather than the minima the speedup gates use: the true recording
    cost is microseconds against a multi-millisecond plan, so at this
    resolution the minimum of either series is itself a noise draw,
    while the interleaved medians cancel machine noise that lands on
    both modes alike.
    """
    net = build_model(TELEMETRY_GATE_NETWORK)
    _plan(net, AccParScheme())  # warm imports/caches outside the timings

    telemetry_store.uninstall()
    writer = telemetry_store.TelemetryWriter(tmp_path / "telemetry")
    off_times, on_times = [], []
    try:
        for _ in range(TELEMETRY_REPEATS):
            telemetry_store.uninstall()
            # every timed plan starts from an empty young generation: a
            # warm plan allocates about one collection threshold's worth
            # of objects, so without this the cyclic GC phase-locks to the
            # two-plan interleave and charges its collection to one mode
            gc.collect()
            t0 = time.perf_counter()
            _plan(net, AccParScheme())
            off_times.append(time.perf_counter() - t0)

            telemetry_store.install(writer)
            # uninstall() above closed the writer's segment; reopen it
            # outside the timed region — a production writer stays open,
            # so the on-path timing should not pay a per-plan open()
            writer.record({"type": "bench_warm"})
            gc.collect()
            t0 = time.perf_counter()
            _plan(net, AccParScheme())
            on_times.append(time.perf_counter() - t0)
    finally:
        telemetry_store.uninstall()

    # one warm event + one search event per enabled plan
    assert writer.events_written == 2 * TELEMETRY_REPEATS
    off_ms = statistics.median(off_times) * 1e3
    on_ms = statistics.median(on_times) * 1e3
    overhead = on_ms / off_ms - 1.0
    assert overhead <= TELEMETRY_OVERHEAD_CEILING, (
        f"telemetry-enabled planning at {on_ms:.2f}ms is "
        f"{overhead * 100:.1f}% over the disabled path "
        f"({off_ms:.2f}ms); the ceiling is "
        f"{TELEMETRY_OVERHEAD_CEILING * 100:.0f}%"
    )

    # fold the measurement into the committed artifact (the main gate has
    # already rewritten it this run when the full file is executed)
    artifact_path = pathlib.Path(results_dir) / ARTIFACT
    payload = json.loads(artifact_path.read_text()) \
        if artifact_path.exists() else {}
    payload["telemetry_overhead"] = {
        "network": TELEMETRY_GATE_NETWORK,
        "repeats": TELEMETRY_REPEATS,
        "ceiling": TELEMETRY_OVERHEAD_CEILING,
        "disabled_ms": round(off_ms, 3),
        "enabled_ms": round(on_ms, 3),
        "overhead_pct": round(overhead * 100, 2),
    }
    text = json.dumps(payload, indent=2)
    atomic_write_text(artifact_path, text + "\n")
    print(f"\n[artifact: {artifact_path} telemetry_overhead]\n"
          f"{json.dumps(payload['telemetry_overhead'], indent=2)}")
