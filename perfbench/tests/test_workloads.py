import collections
import itertools

import pytest

from perfbench import workloads
from perfbench.workloads import KINDS, PAPER_ARRAY, V3_ARRAY


def take(iterator, n):
    return list(itertools.islice(iterator, n))


@pytest.mark.parametrize("make", [
    lambda seed: take(workloads.cold_cycles(seed), 4),
    lambda seed: workloads.hit_working_set(seed),
    lambda seed: take(workloads.zipf_ranks(seed, 32), 500),
    lambda seed: take(workloads.fleet_cold_batches(seed), 6),
    lambda seed: take(workloads.fleet_warm_draws(seed), 20),
])
def test_generators_are_deterministic_per_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_kinds_give_every_model_every_variant():
    counts = collections.Counter(KINDS)
    for model in workloads.MODELS:
        assert counts[(model, PAPER_ARRAY, False)] == 2
        assert counts[(model, PAPER_ARRAY, True)] == 1
        assert counts[(model, V3_ARRAY, False)] == 1
    assert sum(counts.values()) == 20


def test_every_cycle_has_the_same_mix():
    for cycle in take(workloads.cold_cycles(3), 5):
        assert sorted((s.model, s.array, s.profiled) for s in cycle) == \
            sorted(KINDS)


def _fingerprint(spec, arrays, profile):
    from repro.service import PlanRequest

    return PlanRequest(model=spec.model, array=arrays[spec.array],
                       batch=spec.batch,
                       profile=profile if spec.profiled else None
                       ).fingerprint()


@pytest.fixture(scope="module")
def fingerprint():
    import os

    from repro.cli import parse_array
    from repro.hardware.profile import load_profile

    from perfbench.tests.conftest import ROOT

    arrays = {a: parse_array(a) for a in (PAPER_ARRAY, V3_ARRAY)}
    profile = load_profile(os.path.join(ROOT, workloads.PROFILE_PATH))
    return lambda spec: _fingerprint(spec, arrays, profile)


def test_cold_stream_never_repeats_a_fingerprint(fingerprint):
    specs = [s for cycle in take(workloads.cold_cycles(11), 8)
             for s in cycle]
    fingerprints = [fingerprint(s) for s in specs]
    assert len(set(fingerprints)) == len(specs) == 160


def test_fleet_cold_stream_never_repeats_a_fingerprint(fingerprint):
    specs = [s for batch in take(workloads.fleet_cold_batches(11), 15)
             for s in batch]
    fingerprints = [fingerprint(s) for s in specs]
    assert len(set(fingerprints)) == len(specs) == 120


def test_hit_working_set_is_distinct_requests(fingerprint):
    specs = workloads.hit_working_set(5)
    assert len({fingerprint(s) for s in specs}) == len(specs) == 32


def test_fleet_batches_share_networks():
    for batch in take(workloads.fleet_cold_batches(2), 6):
        assert len(batch) == 8
        assert len({s.model for s in batch}) == 2


def test_warm_draws_are_distinct_indices():
    for draw in take(workloads.fleet_warm_draws(4), 50):
        assert len(set(draw)) == len(draw) == workloads.FLEET_WARM_BATCH
        assert all(0 <= i < workloads.FLEET_WORKING_SET for i in draw)


def test_zipf_draw_is_skewed_towards_low_ranks():
    ranks = take(workloads.zipf_ranks(1, 32), 20000)
    head = 1 / sum(1 / (rank + 1) for rank in range(32))
    assert ranks.count(0) / len(ranks) == pytest.approx(head, abs=0.02)
    assert ranks.count(0) > 5 * ranks.count(31)
