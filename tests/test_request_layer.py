"""The request layer the three servers share (``repro.service.server``).

``repro serve`` (``handle_line``/``serve_loop``), the fleet frontend (v2
frames, v1 lines over TCP and stdin) and the shards (``handle_doc``) decode
lines, dispatch ops and read ``deadline_ms`` through the same functions;
these tests send the same hostile input to each entry point and expect the
same structured answer.
"""

import io
import json
import pathlib

import pytest

from repro.fleet import FleetClient, FleetFrontend, ShardServer, ShardSupervisor
from repro.fleet.shard import SHARD_OPS
from repro.service import PlanService
from repro.service.server import (
    KNOWN_OPS,
    MAX_REQUEST_BYTES,
    SERVE_OPS,
    deadline_from_doc,
    handle_line,
    serve_loop,
)

ARRAY = "tpu-v2:2,tpu-v3:2"
PROFILE = pathlib.Path(__file__).resolve().parents[1] / "examples" / \
    "profiles" / "effective-tpu.json"

#: ``deadline_ms`` values no server may plan with, as JSON text (the
#: Python json module reads NaN and Infinity literals)
HOSTILE_DEADLINES = ["NaN", "Infinity", "-Infinity", '"50"', "-5", "true"]


def spec(model="lenet", batch=32, **extra):
    return {"model": model, "array": ARRAY, "batch": batch, **extra}


def hostile_doc(raw, **fields):
    """A plan document carrying ``deadline_ms`` parsed from JSON ``raw``."""
    doc = spec(**fields)
    doc["deadline_ms"] = json.loads(raw)
    return doc


def assert_names_deadline(reply):
    assert reply["ok"] is False
    assert "deadline_ms" in reply["error"], reply


@pytest.fixture
def service():
    with PlanService(workers=2) as svc:
        yield svc


@pytest.fixture
def shard():
    server = ShardServer("d")
    server.start_background()
    yield server
    server.stop()


@pytest.fixture
def fleet(tmp_path):
    with ShardSupervisor(2, cache_dir=tmp_path) as sup:
        with FleetFrontend(sup.handles) as frontend:
            with FleetClient(port=frontend.port) as client:
                yield sup, frontend, client


def shard_planner_runs(sup):
    return sum(handle.server.service.metrics.value("planner_runs")
               for handle in sup.handles)


class TestDeadlineRule:
    @pytest.mark.parametrize("raw", HOSTILE_DEADLINES)
    def test_rejected_values_name_the_field(self, raw):
        with pytest.raises(ValueError, match="deadline_ms"):
            deadline_from_doc({"deadline_ms": json.loads(raw)})

    @pytest.mark.parametrize("value, seconds", [
        (None, None), (0, 0.0), (0.0, 0.0), (250, 0.25), (1.5, 0.0015)])
    def test_legal_values_convert_to_seconds(self, value, seconds):
        assert deadline_from_doc({"deadline_ms": value}) == seconds
        assert deadline_from_doc({}) is None

    @pytest.mark.parametrize("raw", HOSTILE_DEADLINES)
    def test_handle_line_refuses_before_planning(self, service, raw):
        line = json.dumps(hostile_doc(raw, id="x"))
        reply = handle_line(service, line)
        assert_names_deadline(reply)
        assert reply["id"] == "x"
        assert service.metrics.value("planner_runs") == 0
        assert service.pending_jobs() == 0

    @pytest.mark.parametrize("raw", HOSTILE_DEADLINES)
    def test_shard_handle_doc_refuses_before_planning(self, shard, raw):
        reply, stop = shard.handle_doc(hostile_doc(raw))
        assert_names_deadline(reply)
        assert reply["shard"] == "d" and stop is False
        assert shard.service.metrics.value("planner_runs") == 0
        assert shard.service.pending_jobs() == 0

    @pytest.mark.parametrize("raw", HOSTILE_DEADLINES)
    def test_frontend_plan_frame_refused_before_queueing(self, fleet, raw):
        sup, frontend, client = fleet
        doc = hostile_doc(raw, op="plan")
        reply = client.request(doc)
        assert_names_deadline(reply)
        counters = frontend.metrics.snapshot()["counters"]
        assert counters.get("admitted", 0) == 0
        assert counters.get("routed", 0) == 0
        assert shard_planner_runs(sup) == 0

    @pytest.mark.parametrize("raw", HOSTILE_DEADLINES)
    def test_frontend_batch_deadline_refused_before_fan_out(self, fleet, raw):
        sup, frontend, client = fleet
        reply = client.request({"op": "plan_batch",
                                "items": [spec(), spec(batch=64)],
                                "deadline_ms": json.loads(raw)})
        assert_names_deadline(reply)
        counters = frontend.metrics.snapshot()["counters"]
        assert counters.get("items", 0) == 0
        assert counters.get("admitted", 0) == 0
        assert shard_planner_runs(sup) == 0

    def test_zero_deadline_serves_a_cached_plan_now(self, service, shard):
        line = json.dumps(spec())
        assert handle_line(service, line)["source"] == "planned"
        cached = handle_line(service, json.dumps(spec(deadline_ms=0)))
        assert cached["ok"] and cached["source"] == "memory"
        assert not cached["degraded"]

        first, _ = shard.handle_doc(spec())
        again, _ = shard.handle_doc(spec(deadline_ms=0))
        assert again["ok"] and again["source"] == "memory"
        assert again["fingerprint"] == first["fingerprint"]

    def test_zero_deadline_on_the_frontend_is_a_quick_shed(self, fleet):
        _, _, client = fleet
        reply = client.plan(spec(), deadline_ms=0)
        assert reply["ok"] is False and reply["error"] == "shed"
        assert reply["reason"] == "deadline below cache-hit service time"


class TestLineDecoder:
    def test_blank_line_same_reply_from_both_stdin_loops(self, service,
                                                         fleet):
        _, frontend, _ = fleet
        single, fleet_out = io.StringIO(), io.StringIO()
        assert serve_loop(service, ["   \n"], single) == 1
        assert frontend.serve_stdin(["   \n"], fleet_out) == 1
        expected = {"ok": False, "error": "empty request line"}
        assert json.loads(single.getvalue()) == expected
        assert json.loads(fleet_out.getvalue()) == expected

    def test_cap_counts_utf8_bytes_not_characters(self, service, fleet):
        _, frontend, _ = fleet
        # two bytes per character: under the cap in characters, over it
        # in bytes
        line = json.dumps(spec(model="é" * (MAX_REQUEST_BYTES // 2 + 64)),
                          ensure_ascii=False)
        assert len(line) < MAX_REQUEST_BYTES < len(line.encode("utf-8"))
        expected = {"ok": False, "error": "request too large",
                    "limit_bytes": MAX_REQUEST_BYTES,
                    "got_bytes": len(line.encode("utf-8"))}
        assert handle_line(service, line) == expected
        out = io.StringIO()
        frontend.serve_stdin([line], out)
        assert json.loads(out.getvalue()) == expected

    @pytest.mark.parametrize("line, error", [
        ("not json", "bad JSON"),
        ("[1, 2]", "request must be a JSON object"),
        ('"plan"', "request must be a JSON object"),
    ])
    def test_malformed_lines_same_reply_from_both_stdin_loops(
            self, service, fleet, line, error):
        _, frontend, _ = fleet
        out = io.StringIO()
        frontend.serve_stdin([line], out)
        fleet_reply = json.loads(out.getvalue())
        assert fleet_reply == handle_line(service, line)
        assert fleet_reply["ok"] is False and error in fleet_reply["error"]


class TestOpTables:
    """Each server answers the ops its table lists, and names them."""

    def test_serve_known_ops_are_its_table(self, service):
        assert set(KNOWN_OPS) == {"plan", "stats", "shutdown"}
        reply = handle_line(service, json.dumps({"op": "nope", "id": 3}))
        assert reply == {"ok": False, "error": "unknown op 'nope'",
                         "known_ops": sorted(SERVE_OPS), "id": 3}

    def test_shard_unknown_op_lists_its_table(self, shard):
        reply, stop = shard.handle_doc({"op": "nope", "id": 4})
        assert reply["error"] == "unknown op 'nope'" and stop is False
        assert reply["known_ops"] == sorted(SHARD_OPS)
        assert reply["shard"] == "d" and reply["id"] == 4

    @pytest.mark.parametrize("op", [["plan"], {"op": "plan"}, 5, None])
    def test_non_string_op_is_an_unknown_op_everywhere(self, service, shard,
                                                       fleet, op):
        _, _, client = fleet
        doc = {"op": op, "id": 8}  # an explicit null is not the default op
        replies = [handle_line(service, json.dumps(doc)),
                   shard.handle_doc(doc)[0], client.request(doc)]
        for reply in replies:
            assert reply["ok"] is False and reply["id"] == 8
            assert reply["error"] == f"unknown op {op!r}"

    def test_handler_exception_is_a_structured_error(self, shard):
        reply, _ = shard.handle_doc({"op": "cache_put", "id": 6})
        assert reply == {"ok": False, "shard": "d", "id": 6,
                         "error": "cache_put needs 'fingerprint' and 'plan'"}

    def test_shutdown_ack_stops_the_shard_loop(self, shard):
        reply, stop = shard.handle_doc({"op": "shutdown"})
        assert reply["ok"] and reply["op"] == "shutdown" and stop is True


class TestWarmUnderProfile:
    """Shards with a default profile key plans under the profiled
    fingerprint; warm replication must store the peer copy under it too."""

    def test_peer_holds_the_owners_key(self, tmp_path):
        doc = {"model": "alexnet", "array": ARRAY, "batch": 96}
        with ShardSupervisor(2, cache_dir=tmp_path,
                             profile_path=str(PROFILE)) as sup:
            with FleetFrontend(sup.handles) as frontend, \
                    FleetClient(port=frontend.port) as client:
                warm = client.warm([doc])["items"][0]
                assert warm["ok"] and warm["replicated"] == 1
                plan = client.plan(doc)
                assert warm["fingerprint"] == plan["fingerprint"]
                assert plan["cache_hit"]
                for handle in sup.handles:
                    cache = handle.server.service.cache
                    assert cache.peek(plan["fingerprint"]) is not None, \
                        handle.name
