"""End-to-end fleet tests: routing, batching, shedding, replication, traces.

Thread-mode shards keep these fast and deterministic; one test runs the
process topology (spawned shard processes) to cover the production mode
and genuinely cross-process trace aggregation.
"""

import json
import socket
import struct

import pytest

from repro.core.serialize import plan_from_dict
from repro.fleet import (
    AdmissionController,
    FleetClient,
    FleetFrontend,
    HashRing,
    ShardSupervisor,
)
from repro.fleet.admission import DEGRADE, Decision
from repro.fleet.frontend import FRONTEND_OPS
from repro.fleet.wire import recv_frame, send_frame
from repro.obs import chrome_trace_from_dicts, tracer
from repro.plan.diff import plan_diff
from repro.service.server import MAX_REQUEST_BYTES, request_from_doc
from repro.service.service import PlanService

#: a small array keeps cold planning fast enough for tight test loops
ARRAY = "tpu-v2:2,tpu-v3:2"


def spec(model="lenet", batch=32, **extra):
    return {"model": model, "array": ARRAY, "batch": batch, **extra}


@pytest.fixture
def fleet(tmp_path):
    """A fresh 2-shard thread-mode fleet with its frontend and a client."""
    with ShardSupervisor(2, cache_dir=tmp_path) as sup:
        with FleetFrontend(sup.handles) as frontend:
            with FleetClient(port=frontend.port) as client:
                yield sup, frontend, client


class TestBatchedRouting:
    def test_16_spec_batch_routes_by_consistent_hash(self, fleet):
        sup, frontend, client = fleet
        items = [spec(batch=8 * (i + 1)) for i in range(16)]
        reply = client.plan_batch(items)
        assert reply["ok"] and reply["count"] == 16
        assert reply["succeeded"] == 16

        # every item went to the shard the ring says owns its fingerprint
        ring = HashRing([h.name for h in sup.handles])
        routed = {h.name: 0 for h in sup.handles}
        for item in reply["items"]:
            assert item["ok"]
            assert item["shard"] == ring.owner(item["fingerprint"])
            routed[item["shard"]] += 1
        assert sum(routed.values()) == 16
        assert all(count > 0 for count in routed.values()), routed

        # and the shard-labelled metrics agree with the routing counts
        stats = client.stats()
        for name, count in routed.items():
            shard_requests = stats["shards"][name]["metrics"]["counters"][
                "requests"]
            assert shard_requests == count

    def test_batch_item_statuses_are_independent(self, fleet):
        _, _, client = fleet
        reply = client.plan_batch([
            spec(),
            {"model": "no-such-model", "array": ARRAY},
            spec(batch=64),
        ])
        assert reply["ok"]  # the batch served; items carry their own status
        ok_flags = [item["ok"] for item in reply["items"]]
        assert ok_flags == [True, False, True]
        assert reply["succeeded"] == 2
        assert "no-such-model" in reply["items"][1]["error"]

    def test_batch_level_deadline_applies_to_every_item(self, fleet):
        _, _, client = fleet
        reply = client.plan_batch([spec(), spec(batch=64)],
                                  deadline_ms=0.0001)
        assert [item["error"] for item in reply["items"]] == ["shed", "shed"]

    def test_repeat_batch_hits_warm_shards(self, fleet):
        _, _, client = fleet
        items = [spec(batch=b) for b in (16, 32, 48)]
        client.plan_batch(items)
        again = client.plan_batch(items)
        assert all(item["cache_hit"] for item in again["items"])


class TestShedding:
    def test_unmeetable_deadline_shed_fast(self, fleet):
        _, _, client = fleet
        reply = client.plan(spec(), deadline_ms=0.0001)
        assert not reply["ok"] and reply["error"] == "shed"
        assert "cache-hit" in reply["reason"]
        # the acceptance bound: shed in well under 5 ms, measured
        # server-side (no fingerprinting, no planning, no routing)
        assert reply["latency_ms"] < 5.0

    def test_shed_is_pre_fingerprint(self, fleet):
        _, frontend, client = fleet
        client.plan(spec(), deadline_ms=0.0001)
        snap = frontend.snapshot()
        assert snap["metrics"]["counters"]["shed_deadline"] == 1
        # the item never reached admission's full decide with a fingerprint
        assert snap["admission"]["decisions"]["admit"] == 0

    def test_generous_deadline_is_served(self, fleet):
        _, _, client = fleet
        reply = client.plan(spec(), deadline_ms=60_000)
        assert reply["ok"] and not reply["degraded"]


class TestDegradeUnderPressure:
    def test_degrade_forwards_zero_deadline(self, tmp_path):
        class ForceDegrade(AdmissionController):
            def quick_shed(self, deadline_s):
                return None

            def decide(self, fingerprint, deadline_s, queue_depth):
                return Decision(DEGRADE, "forced for test", 0.1)

        with ShardSupervisor(2, cache_dir=tmp_path) as sup:
            frontend = FleetFrontend(sup.handles, admission=ForceDegrade())
            with frontend, FleetClient(port=frontend.port) as client:
                reply = client.plan(spec(model="alexnet", batch=512))
                assert reply["ok"]
                # the owning shard served its deadline fallback
                assert reply["degraded"] and reply["source"] == "degraded"
                counters = frontend.snapshot()["metrics"]["counters"]
                assert counters["degraded_pressure"] == 1


class TestPlanFidelity:
    def test_fleet_plans_bit_identical_to_single_process(self, fleet):
        _, _, client = fleet
        doc = spec(model="alexnet", batch=64)
        reply = client.plan(dict(doc), include_plan=True)
        assert reply["ok"]
        fleet_planned = plan_from_dict(reply["plan"])

        with PlanService(workers=2) as local:
            local_response = local.plan(request_from_doc(dict(doc)))
        assert reply["fingerprint"] == local_response.fingerprint
        assert plan_diff(local_response.planned.plan, fleet_planned.plan,
                         rel_tol=1e-9) == []


class TestWarmReplication:
    def test_warm_replicates_to_every_shard(self, fleet):
        sup, _, client = fleet
        reply = client.warm([spec(), spec(model="alexnet", batch=64)])
        assert reply["ok"]
        for item in reply["items"]:
            assert item["ok"] and item["replicated"] == 1  # one peer shard

        # every shard now holds every fingerprint, owner or not: ask each
        # shard directly (cache sizes include both warmed entries)
        for handle in sup.handles:
            with FleetClient(host=handle.host, port=handle.port) as shard:
                stats = shard.request({"op": "stats"})["stats"]
                assert stats["cache"]["memory_entries"] == 2

    def test_warm_primes_the_admission_floor(self, fleet):
        _, frontend, client = fleet
        client.warm([spec()])
        fingerprint = client.plan(spec())["fingerprint"]
        assert frontend.admission.estimate(fingerprint) == \
            frontend.admission.floor_s


class TestProtocol:
    def test_oversized_frame_rejected_with_structured_error(self, fleet):
        _, frontend, _ = fleet
        sock = socket.create_connection(("127.0.0.1", frontend.port), 5.0)
        sock.settimeout(5.0)
        # declare a frame bigger than the request cap; send no body
        sock.sendall(struct.pack(">I", MAX_REQUEST_BYTES + 1))
        reply = recv_frame(sock)
        assert reply == {"ok": False, "error": "request too large",
                         "limit_bytes": MAX_REQUEST_BYTES,
                         "got_bytes": MAX_REQUEST_BYTES + 1}
        sock.close()

    def test_future_protocol_version_refused(self, fleet):
        _, frontend, _ = fleet
        sock = socket.create_connection(("127.0.0.1", frontend.port), 5.0)
        sock.settimeout(5.0)
        send_frame(sock, {"op": "hello", "proto": 3})
        reply = recv_frame(sock)
        assert not reply["ok"] and reply["error"] == "unsupported protocol"
        assert reply["proto"] == 2
        sock.close()

    def test_unknown_op_names_the_known_ones(self, fleet):
        _, _, client = fleet
        reply = client.request({"op": "explode"})
        assert not reply["ok"]
        assert "plan_batch" in reply["known_ops"]
        assert "warm" in reply["known_ops"]
        assert reply["known_ops"] == sorted(FRONTEND_OPS)

    def test_request_id_echoed(self, fleet):
        _, _, client = fleet
        assert client.request({"op": "ping", "id": 41})["id"] == 41

    def test_v1_json_lines_over_tcp(self, fleet):
        """A v1 client (raw JSON lines) works against the fleet port."""
        _, frontend, _ = fleet
        sock = socket.create_connection(("127.0.0.1", frontend.port), 30.0)
        sock.settimeout(30.0)
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        stream.write(json.dumps(spec(id="v1-a")) + "\n")
        stream.flush()
        first = json.loads(stream.readline())
        assert first["ok"] and first["id"] == "v1-a"
        assert "shard" in first  # served by the fleet, not a local loop
        stream.write(json.dumps({"op": "stats"}) + "\n")
        stream.flush()
        stats = json.loads(stream.readline())
        assert stats["ok"] and set(stats["shards"]) == {"0", "1"}
        sock.close()

    def test_stdin_loop_compat(self, fleet):
        """The stdin/stdout v1 loop drives the fleet (CLI without --port)."""
        import io

        _, frontend, _ = fleet
        lines = [
            json.dumps(spec(id=1)),
            "not json at all",
            json.dumps({"op": "shutdown"}),
        ]
        out = io.StringIO()
        served = frontend.serve_stdin(lines, out)
        results = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 3
        assert results[0]["ok"] and results[0]["id"] == 1
        assert not results[1]["ok"]
        assert results[2]["ok"] and results[2]["op"] == "shutdown"
        assert set(results[2]["shards"]) == {"0", "1"}


class TestTraceAggregation:
    def test_trace_op_merges_spans_with_trace_ids(self, tmp_path):
        with ShardSupervisor(2, cache_dir=tmp_path, trace=True) as sup:
            frontend = FleetFrontend(sup.handles)
            with frontend, FleetClient(port=frontend.port) as client:
                try:
                    tracer.enable()
                    client.plan_batch([spec(), spec(batch=64)])
                    reply = client.trace()
                finally:
                    tracer.disable()
                    tracer.clear()
        assert reply["ok"] and reply["count"] > 0
        doc = chrome_trace_from_dicts(reply["spans"])
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert events
        trace_ids = {e["args"]["trace_id"] for e in events
                     if "trace_id" in e["args"]}
        # one distinct id per batch item, stamped by the frontend and
        # adopted by the owning shard's service spans
        assert len(trace_ids) >= 2
        item_events = [e for e in events if e["name"] == "fleet.item"]
        assert len(item_events) == 2
        request_events = [e for e in events if e["name"] == "service.request"]
        assert {e["args"]["trace_id"] for e in item_events} <= \
            {e["args"]["trace_id"] for e in request_events}


class TestShutdown:
    def test_shutdown_drains_every_shard(self, tmp_path):
        with ShardSupervisor(2, cache_dir=tmp_path) as sup:
            frontend = FleetFrontend(sup.handles)
            with frontend, FleetClient(port=frontend.port) as client:
                client.plan(spec())
                ack = client.shutdown()
                assert ack["ok"] and ack["op"] == "shutdown"
                assert set(ack["shards"]) == {"0", "1"}
                for drained in ack["shards"].values():
                    assert isinstance(drained, int)
            frontend.wait()  # the ack also stops the frontend


@pytest.mark.slow
class TestProcessMode:
    def test_process_shards_serve_and_trace_across_processes(self, tmp_path):
        """The production topology: spawned shard processes, one timeline."""
        with ShardSupervisor(2, mode="process", cache_dir=tmp_path,
                             trace=True) as sup:
            assert all(h.process.is_alive() for h in sup.handles)
            frontend = FleetFrontend(sup.handles)
            with frontend, FleetClient(port=frontend.port) as client:
                reply = client.plan_batch(
                    [spec(batch=8 * (i + 1)) for i in range(4)])
                assert reply["succeeded"] == 4
                ring = HashRing([h.name for h in sup.handles])
                for item in reply["items"]:
                    assert item["shard"] == ring.owner(item["fingerprint"])
                trace = client.trace()
            doc = chrome_trace_from_dicts(trace["spans"])
            processes = {e["args"]["name"] for e in doc["traceEvents"]
                         if e["ph"] == "M"}
            # spans from both shard processes merged onto one timeline
            assert {"shard-0", "shard-1"} <= processes
        assert all(not h.process.is_alive() for h in sup.handles)
