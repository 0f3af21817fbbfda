import pytest

from perfbench import trace


def _all_targets():
    owners = []
    for module, path, *_ in trace.SPAN_TARGETS:
        owners.append(trace._resolve(module, path))
    owners.extend(trace._search_targets())
    for module, path, *_ in trace.COUNT_TARGETS + trace.CODEC_TARGETS:
        owners.append(trace._resolve(module, path))
    return owners


def _snapshot():
    return {(id(owner), attr): (attr in vars(owner), vars(owner).get(attr))
            for owner, attr in _all_targets()}


def test_install_then_remove_restores_every_attribute():
    before = _snapshot()
    patches = trace.install(trace.Recorder())
    assert len(patches) == len(before)
    assert _snapshot() != before
    trace.remove(patches)
    after = _snapshot()
    assert after.keys() == before.keys()
    for key, (owned, value) in before.items():
        assert after[key][0] == owned
        assert after[key][1] is value


def test_spans_nest_and_carry_the_request_id():
    from repro.cli import parse_array
    from repro.service import PlanRequest, PlanService

    recorder = trace.Recorder()
    service = PlanService()
    patches = trace.install(recorder)
    try:
        response = service.plan(PlanRequest(
            model="lenet", array=parse_array("tpu-v2:2,tpu-v3:2"), batch=8))
    finally:
        trace.remove(patches)
        service.close()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    (request,) = by_name["service.request"]
    assert request.request_id == response.trace_id
    (fingerprint,) = by_name["service.fingerprint"]
    assert fingerprint.parent == request.id
    assert fingerprint.request_id == response.trace_id
    (plan,) = by_name["core.planner.plan"]       # on a worker thread
    assert plan.request_id == response.trace_id
    assert plan.thread != request.thread
    assert by_name["core.search"]
    assert recorder.counts()["digest.stable_digest"] > 0
    self_ns = trace.self_times_ns(recorder.spans)
    assert 0 <= self_ns["service.request"] < request.duration_ns


def test_covered_ns_merges_overlaps_and_clips():
    assert trace.covered_ns([(0, 10), (5, 15), (20, 30)], 2, 25) == 18
    assert trace.covered_ns([], 0, 10) == 0


def test_failed_install_leaves_nothing_patched(monkeypatch):
    monkeypatch.setattr(trace, "CODEC_TARGETS", trace.CODEC_TARGETS + (
        ("repro.fleet.wire", "no_such_function", "x", None),))
    before = _snapshot()
    with pytest.raises(AttributeError):
        trace.install(trace.Recorder())
    assert _snapshot() == before
