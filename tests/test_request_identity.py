"""One request identity: the key a request is routed by is the key it is
cached and logged under, and computing it builds the network once.

Under a fleet default profile the frontend applies the profile before it
fingerprints (the rule ``repro serve --profile`` uses) and forwards it
inline, so the ring owner of an item's returned fingerprint is the shard
that served it, and frontend and shard telemetry agree on the key.
"""

import json
import pathlib

import pytest

import repro.service.fingerprint as fingerprint_module
from repro.fleet import FleetClient, FleetFrontend, HashRing, ShardSupervisor
from repro.hardware.profile import load_profile, profile_from_doc, profile_to_doc
from repro.obs.telemetry import TelemetryWriter, iter_events
from repro.service import PlanService
from repro.service.server import request_from_doc
from tests.test_service import delay_exact_planning

ARRAY = "tpu-v2:2,tpu-v3:2"
PROFILE = pathlib.Path(__file__).resolve().parents[1] / "examples" / \
    "profiles" / "effective-tpu.json"

#: 16 distinct requests: two models at eight batch sizes
ITEMS = [{"model": model, "array": ARRAY, "batch": batch}
         for model in ("lenet", "alexnet")
         for batch in (8, 16, 24, 32, 40, 48, 56, 64)]


def request_events(directory):
    return [event for event in iter_events(directory)
            if event.get("type") == "request"]


class TestRoutingKeyIsCacheKey:
    def test_profiled_batch_is_served_by_each_keys_owner(self, tmp_path):
        store = tmp_path / "telemetry"
        profile = load_profile(PROFILE)
        with ShardSupervisor(2, telemetry_dir=store) as sup:
            writer = TelemetryWriter(store / "frontend")
            with FleetFrontend(sup.handles, telemetry=writer,
                               default_profile=profile) as frontend, \
                    FleetClient(port=frontend.port) as client:
                batch = client.plan_batch(ITEMS)
            writer.close()
        assert batch["ok"] and batch["succeeded"] == len(ITEMS), batch
        ring = HashRing(["0", "1"])
        for item in batch["items"]:
            assert item["shard"] == ring.owner(item["fingerprint"]), item
        assert len({item["fingerprint"] for item in batch["items"]}) == 16

        frontend_keys = {event["trace_id"]: event["fingerprint"]
                         for event in request_events(store / "frontend")}
        shard_keys = {}
        for name in ("0", "1"):
            for event in request_events(store / f"shard-{name}"):
                shard_keys[event["trace_id"]] = (event["fingerprint"],
                                                 event["shard"])
        assert len(frontend_keys) == len(ITEMS)
        for item in batch["items"]:
            trace_id = item["trace_id"]
            assert frontend_keys[trace_id] == item["fingerprint"]
            assert shard_keys[trace_id] == (item["fingerprint"], item["shard"])

    def test_fleet_key_equals_repro_serve_key(self):
        """The frontend's default profile gives the key ``repro serve
        --profile`` gives the same document."""
        profile = load_profile(PROFILE)
        doc = ITEMS[9]
        with PlanService(workers=1, default_profile=profile) as service:
            served = service.plan(request_from_doc(doc)).fingerprint
        with ShardSupervisor(1) as sup, \
                FleetFrontend(sup.handles,
                              default_profile=profile) as frontend, \
                FleetClient(port=frontend.port) as client:
            routed = client.plan(doc)
        assert routed["ok"] and routed["fingerprint"] == served
        assert served != request_from_doc(doc).fingerprint()

    def test_inline_profile_keeps_its_fingerprint(self):
        """What the frontend forwards: the profile's v1 document names the
        same rates, so the shard's key is the frontend's."""
        profile = load_profile(PROFILE)
        forwarded = profile_from_doc(json.loads(json.dumps(
            profile_to_doc(profile))))
        assert forwarded.fingerprint() == profile.fingerprint()

    def test_pinned_profile_wins_over_the_default(self):
        profile = load_profile(PROFILE)
        request = request_from_doc(dict(ITEMS[0], profile="analytic"))
        assert request.with_default_profile(profile).profile is profile
        pinned = request_from_doc(dict(ITEMS[0],
                                       profile=profile_to_doc(profile)))
        assert pinned.with_default_profile(None) is pinned
        assert pinned.with_default_profile(profile) is pinned


@pytest.fixture
def count_builds(monkeypatch):
    calls = []
    original = fingerprint_module.build_model

    def counted(name):
        calls.append(name)
        return original(name)

    monkeypatch.setattr(fingerprint_module, "build_model", counted)
    return calls


class TestOneNetworkBuild:
    def test_cold_request_builds_its_network_once(self, count_builds):
        with PlanService(workers=1) as service:
            response = service.plan(request_from_doc(
                {"model": "alexnet", "array": ARRAY, "batch": 32}))
            service.drain()
        assert response.source == "planned"
        assert count_builds == ["alexnet"]

    def test_degraded_request_builds_its_network_once(self, count_builds):
        with PlanService(workers=1) as service:
            delay_exact_planning(service)
            response = service.plan(request_from_doc(
                {"model": "vgg16", "array": ARRAY, "batch": 32}),
                deadline_s=0.0)
            service.drain()
            assert response.degraded and response.source == "degraded"
            assert service.metrics.value("planner_runs") == 1
        assert count_builds == ["vgg16"]
