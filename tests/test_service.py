"""Tests for the plan service: cache tiers, single-flight, deadlines, metrics."""

import json
import threading

import pytest

from repro.core.planner import AccParPlanner
from repro.hardware import heterogeneous_array
from repro.models import build_model
from repro.service import (
    MetricsRegistry,
    PlanCache,
    PlanRequest,
    PlanService,
    SingleFlight,
    build_scheme,
    serve_loop,
)
from repro.service.server import handle_line, warm_cache
from repro.sim.executor import evaluate


@pytest.fixture
def array():
    return heterogeneous_array(2, 2)


@pytest.fixture
def request_alexnet(array):
    return PlanRequest(model="alexnet", array=array, batch=64)


@pytest.fixture
def service():
    with PlanService(workers=4) as svc:
        yield svc


def assert_same_plan(a, b):
    """Two PlannedExecutions carry identical decisions and simulated cost."""
    assert a.network_name == b.network_name
    assert a.hierarchy_levels() == b.hierarchy_levels()
    left = a.root_level_plan.assignments
    right = b.root_level_plan.assignments
    assert set(left) == set(right)
    for name in left:
        assert left[name].ptype is right[name].ptype
        assert left[name].ratio == pytest.approx(right[name].ratio)
    assert evaluate(a).total_time == pytest.approx(evaluate(b).total_time)


class TestCacheHits:
    def test_hit_returns_plan_identical_to_cold(self, service, request_alexnet, array):
        cold = service.plan(request_alexnet)
        warm = service.plan(request_alexnet)
        assert cold.source == "planned" and not cold.cache_hit
        assert warm.source == "memory" and warm.cache_hit
        reference = AccParPlanner(array).plan(build_model("alexnet"), batch=64)
        assert_same_plan(warm.planned, cold.planned)
        assert_same_plan(warm.planned, reference)

    def test_hit_counters(self, service, request_alexnet):
        service.plan(request_alexnet)
        service.plan(request_alexnet)
        service.plan(request_alexnet)
        assert service.metrics.value("requests") == 3
        assert service.metrics.value("planner_runs") == 1
        assert service.metrics.value("hits_memory") == 2
        assert service.cache.stats.hits_memory == 2

    def test_distinct_requests_plan_separately(self, service, array):
        service.plan(PlanRequest(model="lenet", array=array, batch=32))
        service.plan(PlanRequest(model="lenet", array=array, batch=64))
        assert service.metrics.value("planner_runs") == 2


class TestDiskTier:
    def test_disk_roundtrip_across_instances(self, tmp_path, request_alexnet):
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as first:
            cold = first.plan(request_alexnet)
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as second:
            warm = second.plan(request_alexnet)
            assert warm.source == "disk" and warm.cache_hit
            assert_same_plan(warm.planned, cold.planned)
            assert second.metrics.value("planner_runs") == 0
            # the disk hit was promoted: the next lookup is a memory hit
            assert second.plan(request_alexnet).source == "memory"

    def test_disk_roundtrip_of_a_network_named_apart_from_its_model(
            self, tmp_path, array):
        # the trident model's network is named "trident2"
        request = PlanRequest(model="trident", array=array, batch=32)
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as first:
            assert first.plan(request).source == "planned"
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as second:
            assert second.plan(request).source == "disk"
            assert second.cache.stats.disk_errors == 0

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, request_alexnet):
        key = request_alexnet.fingerprint()
        (tmp_path / f"{key}.json").write_text("{not json")
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as svc:
            response = svc.plan(request_alexnet)
        assert response.source == "planned"
        assert svc.cache.stats.disk_errors == 1

    def test_future_schema_disk_entry_is_a_miss(self, tmp_path, request_alexnet):
        from repro.service.cache import entry_checksum

        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as first:
            first.plan(request_alexnet)
        key = request_alexnet.fingerprint()
        path = tmp_path / f"{key}.json"
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        doc["checksum"] = entry_checksum(doc)  # a valid future-build write
        path.write_text(json.dumps(doc))
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as second:
            response = second.plan(request_alexnet)
        assert response.source == "planned"
        assert second.cache.stats.disk_errors == 1
        # forward-compat, not corruption: the entry stays where it is for
        # a newer build to read
        assert second.cache.stats.corrupt_total == 0
        assert path.exists()

    def test_corrupt_entry_is_quarantined_not_deleted(self, tmp_path,
                                                      request_alexnet):
        key = request_alexnet.fingerprint()
        path = tmp_path / f"{key}.json"
        path.write_text("{not json")
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as svc:
            response = svc.plan(request_alexnet)
        assert response.source == "planned"
        assert svc.cache.stats.corrupt_total == 1
        # the broken bytes are evidence: renamed aside, never deleted
        quarantined = tmp_path / f"{key}.json.corrupt"
        assert quarantined.exists()
        assert quarantined.read_text() == "{not json"
        # the quarantined entry never poisons the next lookup: the planned
        # response re-persisted a good entry under the original name
        assert json.loads(path.read_text())["fingerprint"] == key
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as again:
            assert again.plan(request_alexnet).source == "disk"

    def test_checksum_mismatch_is_quarantined(self, tmp_path,
                                              request_alexnet):
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as first:
            first.plan(request_alexnet)
        key = request_alexnet.fingerprint()
        path = tmp_path / f"{key}.json"
        doc = json.loads(path.read_text())
        assert "checksum" in doc
        # flip one recorded value without refreshing the checksum: the
        # kind of silent mutation a torn write or bit rot produces
        doc["fingerprint"] = "tampered"
        path.write_text(json.dumps(doc))
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as second:
            response = second.plan(request_alexnet)
        assert response.source == "planned"
        assert second.cache.stats.corrupt_total == 1
        assert (tmp_path / f"{key}.json.corrupt").exists()

    def test_legacy_entry_without_checksum_still_loads(self, tmp_path,
                                                       request_alexnet):
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as first:
            first.plan(request_alexnet)
        key = request_alexnet.fingerprint()
        path = tmp_path / f"{key}.json"
        doc = json.loads(path.read_text())
        del doc["checksum"]  # an entry written before checksums existed
        path.write_text(json.dumps(doc))
        with PlanService(cache=PlanCache(disk_dir=tmp_path)) as second:
            response = second.plan(request_alexnet)
        assert response.source == "disk" and response.cache_hit
        assert second.cache.stats.corrupt_total == 0


class TestLRUEviction:
    def test_capacity_respected(self, array):
        cache = PlanCache(capacity=2)
        with PlanService(cache=cache) as svc:
            requests = [
                PlanRequest(model=m, array=array, batch=32)
                for m in ("lenet", "alexnet", "vgg11")
            ]
            keys = [r.fingerprint() for r in requests]
            for r in requests:
                svc.plan(r)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert keys[0] not in cache            # oldest evicted
        assert keys[1] in cache and keys[2] in cache

    def test_lru_order_follows_access(self, array):
        cache = PlanCache(capacity=2)
        with PlanService(cache=cache) as svc:
            lenet = PlanRequest(model="lenet", array=array, batch=32)
            alexnet = PlanRequest(model="alexnet", array=array, batch=32)
            svc.plan(lenet)
            svc.plan(alexnet)
            svc.plan(lenet)  # refresh lenet: alexnet is now the LRU entry
            svc.plan(PlanRequest(model="vgg11", array=array, batch=32))
            assert lenet.fingerprint() in cache
            assert alexnet.fingerprint() not in cache


class TestSingleFlight:
    def test_n_threads_one_planner_invocation(self, array):
        n = 8
        request = PlanRequest(model="vgg11", array=array, batch=64)
        responses = [None] * n
        barrier = threading.Barrier(n)

        with PlanService(workers=4) as svc:
            # hold the exact job open long enough that every thread joins
            # the flight before it lands (otherwise late threads can find
            # the cache already filled and skew the coalesced counts)
            delay_exact_planning(svc, seconds=0.1)

            def worker(i):
                barrier.wait()
                responses[i] = svc.plan(request)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            assert svc.metrics.value("planner_runs") == 1
            assert svc.metrics.value("coalesced") == n - 1
            leaders = [r for r in responses if r.source == "planned"]
            followers = [r for r in responses if r.source == "coalesced"]
            assert len(leaders) == 1 and len(followers) == n - 1
            for r in responses:
                assert r.planned is responses[0].planned

    def test_flight_primitive(self):
        flight = SingleFlight()
        f1, leader1 = flight.begin("k")
        f2, leader2 = flight.begin("k")
        assert leader1 and not leader2
        assert f1 is f2
        f1.set_result(42)
        flight.finish("k")
        assert flight.in_flight() == 0
        _, leader3 = flight.begin("k")
        assert leader3


def delay_exact_planning(service, seconds=0.25):
    """Slow the exact planning job so a 0-deadline reliably expires first.

    The planner is fast enough that a pool worker can finish an exact plan
    before the requesting thread gets scheduled to check its deadline; the
    deadline tests need the slow-exact-plan regime, so create it explicitly.
    """
    import time as _time

    original = service._plan_exact

    def slowed(request):
        _time.sleep(seconds)
        return original(request)

    service._plan_exact = slowed


class TestDeadline:
    def test_expired_deadline_returns_greedy_fallback(self, service, array):
        delay_exact_planning(service)
        request = PlanRequest(model="vgg19", array=array, batch=512)
        response = service.plan(request, deadline_s=0.0)
        assert response.degraded
        assert response.source == "degraded"
        # same scheme, searched with the fallback backend
        assert response.planned.scheme == "accpar"
        assert service.fallback_backend == "greedy"
        assert service.metrics.value("degraded") == 1
        # the fallback still covers every weighted layer
        network = build_model("vgg19")
        expected = {w.name for w in network.workloads(512)}
        assigned = set(response.planned.root_level_plan.layer_assignments())
        assert expected <= assigned

    def test_background_refinement_upgrades_cache(self, service, array):
        delay_exact_planning(service)
        request = PlanRequest(model="vgg16", array=array, batch=512)
        degraded = service.plan(request, deadline_s=0.0)
        assert degraded.degraded and degraded.source == "degraded"
        service.drain()
        refined = service.plan(request)
        assert refined.cache_hit
        assert refined.planned.scheme == "accpar"
        assert service.metrics.value("planner_runs") == 1

    def test_generous_deadline_serves_exact_plan(self, service, request_alexnet):
        response = service.plan(request_alexnet, deadline_s=300.0)
        assert not response.degraded
        assert response.planned.scheme == "accpar"


class TestSchemeResolution:
    def test_ablation_knobs_reach_accpar(self, array):
        scheme = build_scheme(
            PlanRequest(model="alexnet", array=array, space=("I", "II"),
                        ratio_mode="equal")
        )
        assert [t.value for t in scheme.space] == ["I", "II"]
        assert scheme.ratio_mode == "equal"

    def test_baselines_reject_knobs(self, array):
        with pytest.raises(ValueError, match="knobs"):
            build_scheme(
                PlanRequest(model="alexnet", array=array, scheme="hypar",
                            space=("I",))
            )

    def test_greedy_scheme_served_directly(self, service, array):
        response = service.plan(
            PlanRequest(model="lenet", array=array, batch=32, scheme="greedy")
        )
        assert response.planned.scheme == "greedy"


def calibrated_profile(rate=90e12):
    from repro.hardware.profile import CalibratedProfile, SpecProfile

    return CalibratedProfile(name="svc-test", specs=(
        SpecProfile(spec="tpu-v2", compute_rates=(("default", rate),)),
        SpecProfile(spec="tpu-v3", compute_rates=(("default", 2 * rate),)),
    ))


class TestDefaultProfile:
    """A service-wide default profile re-prices requests that don't pin one."""

    def test_default_profile_changes_fingerprint(self, array):
        plain_request = PlanRequest(model="lenet", array=array, batch=32)
        with PlanService(default_profile=calibrated_profile()) as svc:
            profiled = svc.plan(plain_request)
        with PlanService() as svc:
            analytic = svc.plan(plain_request)
        assert profiled.fingerprint != analytic.fingerprint

    def test_explicit_profile_wins_over_default(self, array):
        request = PlanRequest(model="lenet", array=array, batch=32,
                              profile=calibrated_profile(80e12))
        with PlanService(default_profile=calibrated_profile(90e12)) as svc:
            pinned = svc.plan(request)
        with PlanService() as svc:
            direct = svc.plan(request)
        assert pinned.fingerprint == direct.fingerprint

    def test_analytic_default_normalizes_to_none(self):
        from repro.hardware.profile import ANALYTIC

        with PlanService(default_profile=ANALYTIC) as svc:
            assert svc.default_profile is None

    def test_inline_profile_document_over_the_wire(self, array):
        from repro.hardware.profile import profile_to_doc

        doc = json.dumps({
            "model": "lenet", "array": "tpu-v2:2,tpu-v3:2", "batch": 32,
            "profile": profile_to_doc(calibrated_profile()),
        })
        plain = json.dumps({"model": "lenet", "array": "tpu-v2:2,tpu-v3:2",
                            "batch": 32})
        with PlanService() as svc:
            profiled = handle_line(svc, doc)
            analytic = handle_line(svc, plain)
        assert profiled["ok"] and analytic["ok"]
        assert profiled["fingerprint"] != analytic["fingerprint"]

    def test_malformed_wire_profile_is_a_request_error(self):
        doc = json.dumps({"model": "lenet", "array": "tpu-v3:2",
                          "profile": "some-file.json"})
        with PlanService() as svc:
            result = handle_line(svc, doc)
        assert not result["ok"]
        assert "profile" in result["error"]

    def test_mismatched_profile_is_a_request_error(self, array):
        from repro.hardware.profile import CalibratedProfile, SpecProfile

        v3only = CalibratedProfile(name="v3", specs=(
            SpecProfile(spec="tpu-v3", compute_rates=(("default", 2e14),)),
        ))
        with PlanService() as svc:
            with pytest.raises(ValueError, match="no calibration"):
                svc.plan(PlanRequest(model="lenet", array=array, batch=32,
                                     profile=v3only))


class TestErrors:
    def test_unknown_model_raises_before_flight(self, service, array):
        with pytest.raises(KeyError):
            service.plan(PlanRequest(model="nonexistent", array=array))
        assert service.metrics.value("planner_runs") == 0

    def test_closed_service_rejects_requests(self, request_alexnet):
        svc = PlanService()
        svc.close()
        with pytest.raises(RuntimeError):
            svc.plan(request_alexnet)


class TestWarmAndServeLoop:
    def test_warm_populates_both_tiers(self, tmp_path, array):
        cache = PlanCache(disk_dir=tmp_path)
        with PlanService(cache=cache) as svc:
            requests = [
                PlanRequest(model=m, array=array, batch=64)
                for m in ("lenet", "alexnet")
            ]
            responses = warm_cache(svc, requests)
        assert [r.source for r in responses] == ["planned", "planned"]
        assert len(cache) == 2
        assert len(cache.disk_keys()) == 2

    def test_serve_loop_end_to_end(self, service):
        import io

        lines = [
            json.dumps({"model": "lenet", "array": "tpu-v2:2,tpu-v3:2",
                        "batch": 32, "id": "a"}),
            json.dumps({"model": "lenet", "array": "tpu-v2:2,tpu-v3:2",
                        "batch": 32, "id": "b"}),
            json.dumps({"op": "stats"}),
            "this is not json",
            json.dumps({"op": "shutdown"}),
            json.dumps({"model": "lenet"}),  # never reached
        ]
        out = io.StringIO()
        served = serve_loop(service, lines, out)
        results = [json.loads(line) for line in out.getvalue().splitlines()]
        # the shutdown ack is itself written (5 lines), then the loop stops
        assert served == 5
        assert results[0]["ok"] and results[0]["id"] == "a"
        assert not results[0]["cache_hit"]
        assert results[1]["cache_hit"] and results[1]["source"] == "memory"
        assert results[2]["stats"]["cache"]["hits_memory"] == 1
        assert not results[3]["ok"] and "JSON" in results[3]["error"]
        assert results[4]["ok"] and results[4]["op"] == "shutdown"
        assert results[4]["drained_jobs"] == 0

    def test_shutdown_drains_inflight_jobs_to_disk(self, tmp_path, array):
        """A shutdown racing an active plan still lands the plan on disk.

        The degraded response leaves the exact refinement running in the
        background; the shutdown ack must not be produced until that job
        has finished and reached the disk cache tier.
        """
        import io

        cache = PlanCache(disk_dir=tmp_path)
        with PlanService(cache=cache, workers=2) as svc:
            delay_exact_planning(svc, seconds=0.6)
            request = PlanRequest(model="vgg16", array=array, batch=512)
            degraded = svc.plan(request, deadline_s=0.0)
            assert degraded.degraded  # exact refinement still in flight
            out = io.StringIO()
            served = serve_loop(svc, [json.dumps({"op": "shutdown"})], out)
            assert served == 1
            ack = json.loads(out.getvalue())
            assert ack["ok"] and ack["op"] == "shutdown"
            assert ack["drained_jobs"] >= 1
            # the exact plan is durable before the ack was written
            assert request.fingerprint() in cache.disk_keys()

    def test_oversized_line_rejected_before_parsing(self, service):
        from repro.service.server import MAX_REQUEST_BYTES

        line = '{"model": "' + "x" * MAX_REQUEST_BYTES + '"}'
        result = handle_line(service, line)
        assert not result["ok"] and result["error"] == "request too large"
        assert result["limit_bytes"] == MAX_REQUEST_BYTES
        assert result["got_bytes"] == len(line)
        # the loop keeps serving after the rejection
        assert service.metrics.value("errors") == 0

    def test_request_from_doc_rejects_non_plan_ops(self):
        from repro.service.server import request_from_doc

        with pytest.raises(ValueError, match="unknown op 'stats'"):
            request_from_doc({"op": "stats", "model": "lenet"})
        with pytest.raises(ValueError, match="known ops"):
            request_from_doc({"op": "shutdwon", "model": "lenet"})  # typo
        assert request_from_doc({"op": "plan", "model": "lenet"}).model == "lenet"

    def test_handle_line_bad_request_is_reported(self, service):
        result = handle_line(service, json.dumps({"op": "plan"}))
        assert not result["ok"] and "model" in result["error"]
        result = handle_line(service, json.dumps({"model": "nope", "id": 7}))
        assert not result["ok"] and result["id"] == 7
        result = handle_line(service, json.dumps({"op": "???"}))
        assert not result["ok"] and "unknown op" in result["error"]

    def test_deadline_ms_in_request_doc(self, service):
        doc = {"model": "vgg13", "array": "hetero", "batch": 512,
               "deadline_ms": 0}
        result = handle_line(service, json.dumps(doc))
        assert result["ok"] and result["degraded"]
        assert result["source"] == "degraded"


class TestMetricsRegistry:
    def test_percentiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for ms in range(1, 101):
            hist.observe(ms / 1e3)
        assert hist.percentile(50) == pytest.approx(0.050)
        assert hist.percentile(95) == pytest.approx(0.095)
        assert hist.percentile(99) == pytest.approx(0.099)
        assert hist.count == 100

    def test_render_contains_counters_and_histograms(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.histogram("lat").observe(0.010)
        text = registry.render()
        assert "requests" in text and "3" in text
        assert "p95" in text

    def test_empty_registry_renders(self):
        assert "no metrics" in MetricsRegistry().render()

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)


class TestPerRequestBackend:
    def test_request_backend_reaches_planner(self, service, array):
        from repro.plan import plan_diff

        exact = service.plan(
            PlanRequest(model="alexnet", array=array, batch=64)
        )
        greedy = service.plan(
            PlanRequest(model="alexnet", array=array, batch=64,
                        backend="greedy")
        )
        # distinct cache entries, and (on this heterogeneous array) the
        # greedy backend makes genuinely different decisions
        assert exact.fingerprint != greedy.fingerprint
        assert plan_diff(exact.planned.plan, greedy.planned.plan)

    def test_backend_is_part_of_the_cache_key(self, service, array):
        first = service.plan(
            PlanRequest(model="lenet", array=array, batch=32, backend="dp")
        )
        second = service.plan(
            PlanRequest(model="lenet", array=array, batch=32,
                        backend="greedy")
        )
        assert first.fingerprint != second.fingerprint
        assert not second.cache_hit

    def test_unknown_backend_fails_fast(self, service, array):
        with pytest.raises(KeyError, match="unknown search backend"):
            service.plan(
                PlanRequest(model="lenet", array=array, batch=32,
                            backend="quantum")
            )

    def test_unknown_fallback_backend_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown search backend"):
            PlanService(fallback_backend="quantum")

    def test_backend_alias_accepted(self, service, array):
        response = service.plan(
            PlanRequest(model="lenet", array=array, batch=32,
                        backend="exact")
        )
        assert response.planned.scheme == "accpar"

    def test_baseline_scheme_with_backend(self, service, array):
        response = service.plan(
            PlanRequest(model="lenet", array=array, batch=32, scheme="hypar",
                        backend="greedy")
        )
        assert response.planned.scheme == "hypar"

    def test_server_doc_carries_backend(self, array):
        from repro.service.server import request_from_doc

        request = request_from_doc(
            {"model": "lenet", "batch": 32, "backend": "greedy"}
        )
        assert request.backend == "greedy"
