"""Unit tests for plan serialization and verification."""

import json

import pytest

from repro.core.planner import AccParPlanner, Planner
from repro.core.serialize import (
    FORMAT_VERSION,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from repro.core.types import PartitionType
from repro.core.verify import PlanVerificationError, verify_planned
from repro.plan.ir import LayerAssignment, LevelPlan
from repro.baselines import get_scheme
from repro.hardware import heterogeneous_array, homogeneous_array
from repro.models import build_model
from repro.sim.executor import evaluate
from repro.training.optimizers import ADAM


@pytest.fixture
def planned():
    return AccParPlanner(heterogeneous_array(2, 2)).plan(
        build_model("alexnet"), batch=64
    )


def _without_layer(level, name):
    """A copy of ``level`` with one layer's assignment entry dropped."""
    kept = tuple(
        e for e in level.entries
        if not (isinstance(e, LayerAssignment) and e.name == name)
    )
    assert len(kept) < len(level.entries), f"{name} not present"
    return LevelPlan(entries=kept, cost=level.cost, scheme=level.scheme)


class TestRoundTrip:
    def test_dict_roundtrip_preserves_simulation(self, planned):
        data = plan_to_dict(planned)
        reloaded = plan_from_dict(data)
        assert reloaded.network_name == planned.network_name
        assert reloaded.batch == planned.batch
        assert reloaded.scheme == planned.scheme
        assert evaluate(reloaded).total_time == pytest.approx(
            evaluate(planned).total_time
        )

    def test_file_roundtrip(self, planned, tmp_path):
        path = tmp_path / "plan.json"
        save_plan(planned, path)
        reloaded = load_plan(path)
        assert reloaded.hierarchy_levels() == planned.hierarchy_levels()
        # the document is genuine JSON
        document = json.loads(path.read_text())
        assert document["format_version"] == FORMAT_VERSION

    def test_assignments_preserved(self, planned):
        reloaded = plan_from_dict(plan_to_dict(planned))
        original = planned.root_level_plan.assignments
        restored = reloaded.root_level_plan.assignments
        assert set(original) == set(restored)
        for name in original:
            assert original[name].ptype is restored[name].ptype
            assert original[name].ratio == pytest.approx(restored[name].ratio)

    def test_multipath_model_roundtrip(self):
        planned = Planner(homogeneous_array(4), get_scheme("accpar")).plan(
            build_model("resnet18"), batch=32
        )
        reloaded = plan_from_dict(plan_to_dict(planned))
        assert evaluate(reloaded).total_time == pytest.approx(
            evaluate(planned).total_time
        )

    def test_unknown_version_raises(self, planned):
        data = plan_to_dict(planned)
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            plan_from_dict(data)

    def test_depth_mismatch_raises(self, planned):
        data = plan_to_dict(planned)
        data["levels"] = 1  # tree will be shallower than the stored plan
        with pytest.raises(ValueError, match="depth"):
            plan_from_dict(data)

    def test_custom_network_builder(self, planned):
        data = plan_to_dict(planned)
        calls = []

        def builder(name):
            calls.append(name)
            return build_model(name)

        plan_from_dict(data, network_builder=builder)
        assert calls == ["alexnet"]

    def test_network_named_apart_from_its_registry_key(self, tmp_path):
        # trident() names its network "trident2": the stored name must
        # still resolve through the registry
        planned = AccParPlanner(heterogeneous_array(2, 2)).plan(
            build_model("trident"), batch=32)
        assert planned.network_name == "trident2"
        path = tmp_path / "trident.json"
        save_plan(planned, path)
        reloaded = load_plan(path)
        assert plan_to_dict(reloaded) == plan_to_dict(planned)


class TestVerifyPlanned:
    def test_fresh_plan_verifies_clean(self, planned):
        assert verify_planned(planned) == []

    def test_all_schemes_verify(self):
        for scheme in ("dp", "owt", "hypar", "accpar"):
            planned = Planner(heterogeneous_array(2, 2), get_scheme(scheme)).plan(
                build_model("resnet18"), batch=32
            )
            assert verify_planned(planned) == []

    def test_missing_assignment_detected(self, planned):
        planned.plan.level_plan = _without_layer(planned.root_level_plan, "cv1")
        issues = verify_planned(planned)
        assert any("cv1" in issue for issue in issues)

    def test_unknown_layer_detected(self, planned):
        level = planned.root_level_plan
        planned.plan.level_plan = LevelPlan(
            entries=level.entries + (
                LayerAssignment("ghost", PartitionType.TYPE_I, 0.5),
            ),
            cost=level.cost,
            scheme=level.scheme,
        )
        issues = verify_planned(planned)
        assert any("ghost" in issue for issue in issues)

    def test_strict_mode_raises(self, planned):
        planned.plan.level_plan = _without_layer(planned.root_level_plan, "cv1")
        with pytest.raises(PlanVerificationError):
            verify_planned(planned, strict=True)

    def test_memory_overflow_detected(self):
        from repro.hardware import AcceleratorSpec, make_group

        tiny = AcceleratorSpec("tiny", flops=1e12, memory_bytes=1e6,
                               memory_bandwidth=1e9, network_bandwidth=1e9)
        planned = AccParPlanner(make_group(tiny, 2)).plan(
            build_model("alexnet"), batch=64
        )
        issues = verify_planned(planned)
        assert any("GiB" in issue for issue in issues)

    def test_optimizer_state_counts_against_memory(self, planned):
        # Adam triples the weight-adjacent footprint; still fits TPU HBM here
        assert verify_planned(planned, optimizer=ADAM) == []
