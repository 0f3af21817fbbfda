"""Byte-level plan snapshots: SHA-256 digests of serialized paper-zoo plans.

``tests/fixtures/plan_digests_v1.json`` pins the exact bytes of
``json.dumps(plan_to_dict(...), sort_keys=True)`` for five models on a
4-board and the paper's 256-board heterogeneous array, under the analytic
profile and the example calibrated profile.  Every exact search backend
must reproduce every digest: a refactor of the cost model or the search
kernels that changes a single bit of any decision, ratio or cost fails
here.

Regenerate (only when a plan change is intended and explained)::

    PYTHONPATH=src python tests/test_plan_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import AccParScheme
from repro.core.planner import Planner
from repro.core.serialize import plan_to_dict
from repro.hardware import heterogeneous_array
from repro.hardware.profile import load_profile
from repro.models import build_model

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "plan_digests_v1.json"
PROFILE_PATH = ROOT / "examples" / "profiles" / "effective-tpu.json"

MODELS = ("alexnet", "vgg16", "resnet18", "resnet50", "trident")
ARRAYS = {"tpu-v2:2,tpu-v3:2": 2, "tpu-v2:128,tpu-v3:128": 128}
PROFILES = ("analytic", "effective-tpu")
BATCH = 512
EXACT_BACKENDS = ("dp", "dp-vectorized")


def case_ids():
    return [f"{model}|{array}|{profile}" for model in MODELS
            for array in ARRAYS for profile in PROFILES]


def plan_digest(case_id, backend):
    model, array, profile_name = case_id.split("|")
    profile = None if profile_name == "analytic" else load_profile(PROFILE_PATH)
    per_spec = ARRAYS[array]
    scheme = AccParScheme(backend=backend, profile=profile)
    planned = Planner(heterogeneous_array(per_spec, per_spec), scheme).plan(
        build_model(model), BATCH)
    document = json.dumps(plan_to_dict(planned), sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def load_digests():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    doc = load_digests()
    assert doc["batch"] == BATCH
    assert sorted(doc["digests"]) == sorted(case_ids())


@pytest.mark.parametrize("backend", EXACT_BACKENDS)
@pytest.mark.parametrize("case_id", case_ids())
def test_plan_bytes_match_snapshot(case_id, backend):
    assert plan_digest(case_id, backend) == load_digests()["digests"][case_id]


if __name__ == "__main__":
    digests = {case_id: plan_digest(case_id, "dp") for case_id in case_ids()}
    FIXTURE.write_text(json.dumps(
        {"batch": BATCH, "digests": digests}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}")
