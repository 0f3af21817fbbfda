"""Workload drivers, the correctness oracle and metric assembly.

Each workload is a closed loop driven from one client thread: the next
request goes out only after the previous reply came back.  In-process
workloads call :meth:`repro.service.PlanService.plan`; the fleet workload
talks to a 2-shard thread-mode fleet (``ShardSupervisor`` +
``FleetFrontend``) through one :class:`repro.fleet.FleetClient`
connection.  Default backend and default cache capacity throughout.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import trace, workloads
from .stats import mean, min_samples, percentile, ratio
from .workloads import PAPER_ARRAY, Spec

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: relative tolerance for fleet ``root_cost`` against the oracle
ROOT_COST_REL_TOL = 1e-9

#: worker processes that compute oracle plans after the timed windows
ORACLE_WORKERS = 2

#: batch sizes for warm-up requests: outside workloads.BATCH_RANGE, so a
#: warm-up can never pre-plan a request the timed loop will send
WARMUP_BATCHES = (8, 16)

#: requests per hit-warm block
HIT_BLOCK = 200


@dataclass
class Window:
    """What one timed loop measured."""

    #: seconds per operation (a request in-process, a round in the fleet)
    op_s: List[float] = field(default_factory=list)
    attempted: int = 0          # items sent (requests in-process)
    failed: int = 0
    elapsed_s: float = 0.0      # time spent in this window's blocks
    #: fleet only: seconds per cold and per warm batch
    cold_batch_s: List[float] = field(default_factory=list)
    warm_batch_s: List[float] = field(default_factory=list)
    #: fleet only: per batch, the busiest shard's items over the mean
    shard_max_over_mean: List[float] = field(default_factory=list)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


def import_seconds(root: str) -> float:
    """Time to import the public entry points in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); "
            "import repro.service, repro.fleet; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def oracle_check(root: str, jobs: List[Tuple[Spec, Optional[bytes]]]
                 ) -> List[Tuple[float, List[str]]]:
    """Run ``(spec, pickled served plan or None)`` jobs through
    :data:`ORACLE_WORKERS` oracle processes (see :mod:`perfbench.oracle`);
    returns ``(oracle root cost, plan_diff lines)`` per job, in order."""
    shares = [jobs[i::ORACLE_WORKERS] for i in range(ORACLE_WORKERS)]
    shares = [share for share in shares if share]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    workers = [subprocess.Popen(
        [sys.executable, "-m", "perfbench.oracle", root], cwd=root, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE) for _ in shares]
    try:
        for worker, share in zip(workers, shares):
            with worker.stdin:
                pickle.dump(share, worker.stdin,
                            protocol=pickle.HIGHEST_PROTOCOL)
        results = [pickle.load(worker.stdout) for worker in workers]
    except BaseException:
        for worker in workers:
            worker.kill()
        raise
    finally:
        for worker in workers:
            worker.stdout.close()
            worker.wait()
    if any(worker.returncode for worker in workers):
        raise RuntimeError("an oracle worker failed")
    ordered: List = [None] * len(jobs)
    for index, result in enumerate(results):
        ordered[index::ORACLE_WORKERS] = result
    return ordered


def rel_close(a: float, b: float, tol: float = ROOT_COST_REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class Workload:
    """Common shape: construct, prepare, timed windows, check."""

    name = ""
    #: the tail percentile reported as ``op_ms_tail``
    tail_q = 90.0
    fleet = False

    def __init__(self, seed: int, root: str, scratch: str):
        self.seed = seed
        self.root = root
        self.scratch = scratch
        #: operations a window needs for its tail percentile
        self.min_ops = min_samples(self.tail_q)
        #: one record per item sent, for the oracle check
        self.served: List = []

    def construct(self) -> None:
        """Set the system up; timed as ``setup_s``."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed preload after construction (warm-up, working sets)."""

    def block(self, win: Window, recorder: Optional[trace.Recorder]) -> None:
        """Run one fixed unit of the closed loop."""
        raise NotImplementedError

    def timed_block(self, win: Window,
                    recorder: Optional[trace.Recorder] = None) -> None:
        """One block, added to the window's time."""
        start = time.perf_counter()
        self.block(win, recorder)
        win.elapsed_s += time.perf_counter() - start

    def window(self, seconds: float) -> Window:
        """Whole blocks until ``seconds`` passed and the tail percentile
        has enough samples."""
        win = Window()
        while win.elapsed_s < seconds or len(win.op_s) < self.min_ops:
            self.timed_block(win)
        return win

    def check(self) -> List[str]:
        raise NotImplementedError

    def properties(self) -> Dict[str, float]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------

class InProcess(Workload):
    """A memory-only :class:`PlanService`, called directly."""

    #: the response source every timed request must report
    want_source = ""

    def construct(self) -> None:
        from repro.cli import parse_array
        from repro.hardware.profile import load_profile
        from repro.service import PlanCache, PlanService

        self.arrays = {a: parse_array(a)
                       for a in (workloads.PAPER_ARRAY, workloads.V3_ARRAY)}
        self.profile = load_profile(
            os.path.join(self.root, workloads.PROFILE_PATH))
        self.service = PlanService(cache=PlanCache())

    def teardown(self) -> None:
        self.service.close()

    def request(self, spec: Spec):
        from repro.service import PlanRequest

        return PlanRequest(model=spec.model, array=self.arrays[spec.array],
                           batch=spec.batch,
                           profile=self.profile if spec.profiled else None)

    def serve(self, spec: Spec, win: Window) -> None:
        """One timed closed-loop request."""
        win.attempted += 1
        start = time.perf_counter()
        try:
            response = self.service.plan(self.request(spec))
        except Exception as exc:  # a failed request is counted, not fatal
            win.op_s.append(time.perf_counter() - start)
            win.failed += 1
            self.served.append((spec, "error", None))
            print(f"request failed: {spec}: {exc!r}", file=sys.stderr)
            return
        win.op_s.append(time.perf_counter() - start)
        if response.source != self.want_source:
            win.failed += 1
        self.served.append((spec, response.source, self.keep(response)))

    def keep(self, response):
        """What the check needs of a served plan, held until the check."""
        return response.planned.plan

    def check(self) -> List[str]:
        """Every distinct request's plan against a fresh scalar-dp plan."""
        jobs = []
        seen: Dict[Spec, object] = {}
        for spec, _, kept in self.served:
            # a failed request (kept is None) is counted in ``failed``
            if kept is not None and seen.get(spec) is not kept:
                seen[spec] = kept
                jobs.append((spec, kept if isinstance(kept, bytes) else
                             pickle.dumps(kept, pickle.HIGHEST_PROTOCOL)))
        return [f"{spec}: {d}"
                for (spec, _), (_, diffs) in zip(
                    jobs, oracle_check(self.root, jobs))
                for d in diffs[:3]]

    def properties(self) -> Dict[str, float]:
        specs = [spec for spec, _, _ in self.served]
        sources = [source for _, source, _ in self.served]
        n = len(specs)
        return {
            "cold_share": ratio(sum(s == "planned" for s in sources), n),
            "cache_hit_share": ratio(
                sum(s in ("memory", "disk") for s in sources), n),
            "profiled_share": ratio(sum(s.profiled for s in specs), n),
            "board256_share": ratio(
                sum(s.array == PAPER_ARRAY for s in specs), n),
        }


class PlanCold(InProcess):
    """Every request has a fingerprint not seen before in the run."""

    name = "plan-cold"
    tail_q = 90.0
    want_source = "planned"

    def keep(self, response):
        # every plan is new: hold it as bytes, so hundreds of retained plan
        # trees do not slow the program's garbage collection down
        return pickle.dumps(response.planned.plan, pickle.HIGHEST_PROTOCOL)

    def prepare(self) -> None:
        # lazy imports and first-call set-up inside the planner, on
        # requests the timed stream can never repeat
        for batch in WARMUP_BATCHES:
            self.service.plan(self.request(
                Spec("alexnet", PAPER_ARRAY, batch, True)))
        self.cycles = workloads.cold_cycles(self.seed)

    def block(self, win, recorder) -> None:
        # one whole cycle: every block has exactly the same request mix
        for spec in next(self.cycles):
            self.serve(spec, win)


class HitWarm(InProcess):
    """A pre-planned working set read back with a skewed draw."""

    name = "hit-warm"
    tail_q = 99.0
    want_source = "memory"

    def prepare(self) -> None:
        self.working = workloads.hit_working_set(self.seed)
        for spec in self.working:
            if self.service.plan(self.request(spec)).source != "planned":
                raise RuntimeError(f"working-set request not cold: {spec}")
        self.ranks = workloads.zipf_ranks(self.seed, len(self.working))

    def block(self, win, recorder) -> None:
        for _ in range(HIT_BLOCK):
            self.serve(self.working[next(self.ranks)], win)


# ----------------------------------------------------------------------
# the fleet workload
# ----------------------------------------------------------------------

class FleetBatch(Workload):
    """Two thread-mode shards with per-shard disk caches, one client.

    One operation is a round: a cold batch of 8 fresh items (two models
    at four new batch sizes each), then a warm batch of 16 items drawn
    from a working set planned during preparation.
    """

    name = "fleet-batch"
    #: p75 needs 40 rounds, so a window is at least 14 whole rotations
    #: (about 50 s): enough rounds to average over the host's slower
    #: stretches (see README.md)
    tail_q = 75.0
    fleet = True

    def construct(self) -> None:
        from repro.fleet import FleetClient, FleetFrontend, ShardSupervisor

        self.cache_dir = tempfile.mkdtemp(prefix="fleet-cache-",
                                          dir=self.scratch)
        self.supervisor = ShardSupervisor(2, cache_dir=self.cache_dir,
                                          mode="thread")
        self.supervisor.start()
        self.frontend = FleetFrontend(self.supervisor.handles).start()
        self.client = FleetClient(self.frontend.host, self.frontend.port)

    def teardown(self) -> None:
        self.client.close()
        self.frontend.stop()
        self.supervisor.stop()
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def prepare(self) -> None:
        win = Window()
        self.send([Spec(m, PAPER_ARRAY, b)
                   for m in ("alexnet", "vgg16") for b in WARMUP_BATCHES],
                  "planned", win, None)
        self.cold = workloads.fleet_cold_batches(self.seed)
        self.working = []
        while len(self.working) < workloads.FLEET_WORKING_SET:
            batch = next(self.cold)
            self.send(batch, "planned", win, None)
            self.working.extend(batch)
        if win.failed:
            raise RuntimeError("fleet warm-up failed")
        self.served.clear()
        self.draws = workloads.fleet_warm_draws(self.seed, len(self.working))

    def send(self, specs: List[Spec], want_source: str, win: Window,
             recorder: Optional[trace.Recorder]) -> float:
        """One ``plan_batch``; records every item, returns its seconds."""
        docs = [spec.doc() for spec in specs]
        win.attempted += len(specs)
        start_ns = time.perf_counter_ns()
        reply = self.client.plan_batch(docs)
        end_ns = time.perf_counter_ns()
        if recorder is not None:
            recorder.record("bench.batch", start_ns, end_ns,
                            items=len(specs), kind=want_source)
        items = reply.get("items") or []
        if not reply.get("ok") or len(items) != len(specs):
            items = [None] * len(specs)
        per_shard = {name: 0 for name in ("0", "1")}
        for spec, item in zip(specs, items):
            if not (item and item.get("ok")
                    and item.get("source") == want_source):
                win.failed += 1
            if item is not None and item.get("shard") in per_shard:
                per_shard[item["shard"]] += 1
            self.served.append((spec, item))
        win.shard_max_over_mean.append(
            max(per_shard.values()) / mean(list(per_shard.values())))
        return (end_ns - start_ns) / 1e9

    def block(self, win, recorder) -> None:
        # one round per model pair: every block has the same model mix
        for _ in workloads.FLEET_PAIRS:
            cold = self.send(next(self.cold), "planned", win, recorder)
            warm = self.send([self.working[i] for i in next(self.draws)],
                             "memory", win, recorder)
            win.cold_batch_s.append(cold)
            win.warm_batch_s.append(warm)
            win.op_s.append(cold + warm)

    def admission_counts(self) -> Dict[str, int]:
        counters = self.client.stats()["frontend"]["metrics"]["counters"]
        shed = sum(v for k, v in counters.items() if k.startswith("shed_"))
        return {"items": counters.get("items", 0), "shed": shed}

    def check(self) -> List[str]:
        """Every item's ``root_cost`` against a fresh scalar-dp plan."""
        # a failed item has no plan to check; it is counted in ``failed``
        served = [(spec, item) for spec, item in self.served
                  if item is not None and item.get("ok")]
        specs = list(dict.fromkeys(spec for spec, _ in served))
        results = oracle_check(self.root, [(spec, None) for spec in specs])
        expected = {spec: cost for spec, (cost, _) in zip(specs, results)}
        return [f"{spec}: root_cost {item['root_cost']!r} != oracle "
                f"{expected[spec]!r}" for spec, item in served
                if not rel_close(item["root_cost"], expected[spec])]

    def properties(self) -> Dict[str, float]:
        items = [item or {} for _, item in self.served]
        n = len(items)
        return {
            "cold_share": ratio(
                sum(i.get("source") == "planned" for i in items), n),
            "cache_hit_share": ratio(sum(bool(i.get("cache_hit"))
                                         for i in items), n),
            "profiled_share": 0.0,
            "board256_share": ratio(sum(s.array == PAPER_ARRAY
                                        for s, _ in self.served), n),
        }


WORKLOADS = {cls.name: cls for cls in (PlanCold, HitWarm, FleetBatch)}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def end_to_end(win: Window, workload: Workload, setup_s: float,
               peak_rss_mb: float) -> Dict[str, Dict]:
    ms = [s * 1e3 for s in win.op_s]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "ok_share": {"value": ratio(win.succeeded, win.attempted),
                     "unit": "share"},
        "items_per_s": {"value": win.succeeded / sum(win.op_s),
                        "unit": "1/s"},
        "op_ms_p50": {"value": percentile(ms, 50), "unit": "ms"},
        "op_ms_tail": {"value": percentile(ms, workload.tail_q),
                       "unit": "ms"},
    }


def _mean_dur(spans, scale: float) -> float:
    return mean([span.duration_ns / scale for span in spans])


def per_layer(recorder: trace.Recorder, win: Window, counters: Dict,
              admission: Dict[str, int], overhead_pct: float
              ) -> Dict[str, Dict]:
    """Every per-layer metric, from the traced blocks' spans and counts.

    A layer the workload never reaches reports 0 (its denominator is 0).
    """
    by: Dict[str, List[trace.Span]] = {}
    for span in recorder.spans:
        by.setdefault(span.name, []).append(span)
    counts = recorder.counts()
    items = win.attempted
    US, MS = 1e3, 1e6

    lookups = by.get("service.cache.lookup", [])
    puts = by.get("service.cache.put", [])
    plans = by.get("core.planner.plan", [])
    n_plans = len(plans)
    handles = [s for s in by.get("fleet.shard.handle", [])
               if (s.attrs or {}).get("op") == "plan"]

    # service wait: request time not spent in fingerprint, lookup, plan, put
    busy: Dict[str, int] = {}
    for name in ("service.fingerprint", "service.cache.lookup",
                 "core.planner.plan", "service.cache.put"):
        for s in by.get(name, []):
            if s.request_id is not None:
                busy[s.request_id] = busy.get(s.request_id, 0) + \
                    s.duration_ns
    waits = [(s.duration_ns - busy.get(s.request_id, 0)) / MS
             for s in by.get("service.request", [])]

    # frontend overhead: warm-batch time during which no shard was
    # handling an item of it, per item
    handle_iv = [(s.start_ns, s.end_ns) for s in handles]
    overheads = [
        (s.duration_ns - trace.covered_ns(handle_iv, s.start_ns, s.end_ns))
        / MS / s.attrs["items"]
        for s in by.get("bench.batch", []) if s.attrs["kind"] == "memory"]

    glue_ns = sum(s.duration_ns for s in by.get("core.hierarchy.glue", []))
    searches = by.get("core.search", [])
    frames = counts.get("fleet.wire.encode", 0)

    def c(name: str) -> int:
        return counters.get(name, 0)

    values = {
        "service.fingerprint.calls_per_request":
            (ratio(len(by.get("service.fingerprint", [])), items), "count"),
        "service.fingerprint.us":
            (_mean_dur(by.get("service.fingerprint", []), US), "us"),
        "models.build_model.us":
            (_mean_dur(by.get("models.build_model", []), US), "us"),
        "graph.network_fingerprint.us":
            (_mean_dur(by.get("graph.network_fingerprint", []), US), "us"),
        "hardware.group_fingerprint.us":
            (_mean_dur(by.get("hardware.group_fingerprint", []), US), "us"),
        "digest.stable_digest.calls_per_request":
            (ratio(counts.get("digest.stable_digest", 0), items), "count"),
        "service.cache.lookup_us": (_mean_dur(lookups, US), "us"),
        "service.cache.hit_ratio":
            (ratio(sum(s.attrs["hit"] for s in lookups), len(lookups)),
             "ratio"),
        "service.cache.put_ms": (_mean_dur(puts, MS), "ms"),
        "service.cache.entry_kb":
            (mean([s.attrs["bytes"] / 1024 for s in puts if s.attrs]),
             "kb"),
        "core.serialize.encode_ms":
            (_mean_dur(by.get("core.serialize.encode", []), MS), "ms"),
        "service.wait_ms": (mean(waits), "ms"),
        "core.planner.plan_ms": (_mean_dur(plans, MS), "ms"),
        "core.planner.plan_ms.analytic":
            (_mean_dur([s for s in plans if not s.attrs["profiled"]], MS),
             "ms"),
        "core.planner.plan_ms.profiled":
            (_mean_dur([s for s in plans if s.attrs["profiled"]], MS),
             "ms"),
        "hardware.bisection_tree_ms":
            (_mean_dur(by.get("hardware.bisection_tree", []), MS), "ms"),
        "core.hierarchy.glue_ms": (ratio(glue_ns / MS, n_plans), "ms"),
        "core.hierarchy.memo_hit_ratio":
            (ratio(c("hierarchy_memo_hits"),
                   c("hierarchy_memo_hits") + c("hierarchy_memo_misses")),
             "ratio"),
        "core.search.ms": (_mean_dur(searches, MS), "ms"),
        "core.search.calls_per_plan": (ratio(len(searches), n_plans),
                                       "count"),
        "core.cost_model.pack_ms":
            (ratio(c("vec_pack_ns") / MS, n_plans), "ms"),
        "core.cost_model.pack_cache_hit_ratio":
            (ratio(c("vec_pack_cache_hits"),
                   c("vec_pack_cache_hits") + c("vec_pack_cache_misses")),
             "ratio"),
        "core.cost_model.step_cache_hit_ratio":
            (ratio(c("step_cache_hits"), c("step_calls")), "ratio"),
        "core.dp_vectorized.recurrence_ms":
            (ratio(c("vec_recurrence_ns") / MS, n_plans), "ms"),
        "core.tiebreak.calls_per_plan":
            (ratio(counts.get("core.tiebreak", 0), n_plans), "count"),
        "core.ratio.solves_per_plan":
            (ratio(c("ratio_solves"), n_plans), "count"),
        "core.ratio.bisection_fallback_share":
            (ratio(c("ratio_bisection_fallback"), c("ratio_solves")),
             "ratio"),
        "fleet.wire.bytes_per_frame":
            (ratio(counts.get("fleet.wire.encode.bytes", 0), frames),
             "bytes"),
        "fleet.wire.us_per_frame":
            (ratio((counts.get("fleet.wire.encode.ns", 0)
                    + counts.get("fleet.wire.decode.ns", 0)) / US, frames),
             "us"),
        "fleet.shard.handle_ms": (_mean_dur(handles, MS), "ms"),
        "fleet.frontend.overhead_ms_per_item": (mean(overheads), "ms"),
        "fleet.ring.max_over_mean_items":
            (mean(win.shard_max_over_mean), "ratio"),
        "fleet.admission.shed_share":
            (ratio(admission.get("shed", 0), admission.get("items", 0)),
             "ratio"),
        "obs.tracing_overhead_pct": (overhead_pct, "pct"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def measure_setup(cls, seed: int, root: str, scratch: str) -> float:
    """Median over :data:`SETUP_REPEATS` of fresh-interpreter import time
    plus in-process construction."""
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(root)
        probe = cls(seed, root, scratch)
        start = time.perf_counter()
        probe.construct()
        setups.append(imported + time.perf_counter() - start)
        probe.teardown()
    return statistics.median(setups)


def _add_delta(total: Dict[str, int], before: Dict, after: Dict) -> None:
    for name, value in after.items():
        total[name] = total.get(name, 0) + value - before.get(name, 0)


def traced_windows(workload: Workload, seconds: float):
    """Alternate untraced and traced blocks; returns both windows, the
    recorder and the per-layer metrics.

    Alternating makes both windows run at the same machine speed, so the
    traced-over-untraced ratio is the tracing overhead and not a drift.
    """
    from repro.core.counters import planner_counters

    recorder = trace.Recorder()
    plain, traced = Window(), Window()
    counters: Dict[str, int] = {}
    admission: Dict[str, int] = {}
    while plain.elapsed_s + traced.elapsed_s < seconds:
        workload.timed_block(plain)
        counters_before = planner_counters.snapshot()
        admission_before = (workload.admission_counts() if workload.fleet
                            else {})
        patches = trace.install(recorder)
        try:
            workload.timed_block(traced, recorder)
        finally:
            trace.remove(patches)
        _add_delta(counters, counters_before, planner_counters.snapshot())
        if workload.fleet:
            _add_delta(admission, admission_before,
                       workload.admission_counts())
    overhead = (mean(traced.op_s) / mean(plain.op_s) - 1) * 100
    return [plain, traced], recorder, per_layer(
        recorder, traced, counters, admission, overhead)


def run(name: str, seed: int, seconds: float, traced: bool,
        root: str) -> int:
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    cls = WORKLOADS[name]
    try:
        setup_s = measure_setup(cls, seed, root, scratch)
        workload = cls(seed, root, scratch)
        workload.construct()
        try:
            workload.prepare()
            if traced:
                windows, recorder, metrics = traced_windows(workload, seconds)
            else:
                win = workload.window(seconds)
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
                windows = [win]
                metrics = end_to_end(win, workload, setup_s, peak_rss_mb)
            properties = workload.properties()
        finally:
            workload.teardown()
        if traced:
            recorder.dump(os.path.join(
                out_dir, f"trace-{name}-seed{seed}.json"))
            report_self_times(recorder)
        problems = workload.check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    report(name, seed, windows, workload, properties, metrics, problems)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def report(name, seed, windows, workload, properties, metrics,
           problems) -> None:
    """Human-readable lines before the result line."""
    win = windows[0]
    print(f"workload {name} seed {seed}: {len(win.op_s)} ops, "
          f"{win.attempted} items in {win.elapsed_s:.3f} s "
          f"(op_ms_tail = p{workload.tail_q:g})")
    for kind in ("cold", "warm"):
        batches = [s * 1e3 for s in getattr(win, f"{kind}_batch_s")]
        if len(batches) >= min_samples(50):
            print(f"{kind} batch ms p50 = {percentile(batches, 50):.3f} "
                  f"(n={len(batches)})")
    shard = [v for w in windows for v in w.shard_max_over_mean]
    properties = dict(properties,
                      shard_items_max_over_mean=mean(shard) if shard else 0.0)
    for key, value in properties.items():
        print(f"property {key} = {value:.4f}")
    for key, entry in metrics.items():
        print(f"metric {key} = {entry['value']:.6g} {entry['unit']}")
    for problem in problems[:20]:
        print(f"MISMATCH {problem}")
    print(f"check: {len(problems)} mismatch(es) against the scalar-dp oracle")


def report_self_times(recorder: trace.Recorder) -> None:
    totals = trace.self_times_ns(recorder.spans)
    for name, ns in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"self {name} = {ns / 1e6:.3f} ms")
