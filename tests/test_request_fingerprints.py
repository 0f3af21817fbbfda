"""Pinned request fingerprints: the cache keys of the paper-zoo requests.

``tests/fixtures/request_fingerprints_v3.json`` holds the
:meth:`PlanRequest.fingerprint` of the 20 requests behind
``tests/test_plan_digests.py`` (five models, a 4-board and the paper's
256-board array, analytic and calibrated), plus one wire request that
carries its profile inline.  A fingerprint names a file in every disk
cache, so a refactor of how requests are built, profiled or hashed that
changes one key fails here; only a ``REQUEST_SCHEMA_VERSION`` bump may.

Regenerate (only together with a schema bump)::

    PYTHONPATH=src python tests/test_request_fingerprints.py
"""

import json
from pathlib import Path

import pytest

from repro.hardware import heterogeneous_array
from repro.hardware.profile import load_profile
from repro.service import PlanRequest
from repro.service.fingerprint import REQUEST_SCHEMA_VERSION
from repro.service.server import request_from_doc

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).resolve().parent / "fixtures" / \
    "request_fingerprints_v3.json"
PROFILE_PATH = ROOT / "examples" / "profiles" / "effective-tpu.json"

MODELS = ("alexnet", "vgg16", "resnet18", "resnet50", "trident")
ARRAYS = {"tpu-v2:2,tpu-v3:2": 2, "tpu-v2:128,tpu-v3:128": 128}
PROFILES = ("analytic", "effective-tpu")
BATCH = 512
INLINE_CASE = "inline|vgg16|tpu-v2:2,tpu-v3:2|effective-tpu"


def case_ids():
    return [f"{model}|{array}|{profile}" for model in MODELS
            for array in ARRAYS for profile in PROFILES] + [INLINE_CASE]


def request_for(case_id):
    if case_id == INLINE_CASE:
        _, model, array, _ = case_id.split("|")
        return request_from_doc({
            "model": model, "array": array, "batch": 64,
            "profile": json.loads(PROFILE_PATH.read_text())})
    model, array, profile_name = case_id.split("|")
    per_spec = ARRAYS[array]
    profile = None if profile_name == "analytic" else load_profile(PROFILE_PATH)
    return PlanRequest(model=model, array=heterogeneous_array(per_spec, per_spec),
                       batch=BATCH, profile=profile)


def load_fingerprints():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    doc = load_fingerprints()
    assert doc["schema"] == REQUEST_SCHEMA_VERSION == 3
    assert sorted(doc["fingerprints"]) == sorted(case_ids())


@pytest.mark.parametrize("case_id", case_ids())
def test_fingerprint_matches_snapshot(case_id):
    assert request_for(case_id).fingerprint() == \
        load_fingerprints()["fingerprints"][case_id]


if __name__ == "__main__":
    fingerprints = {case_id: request_for(case_id).fingerprint()
                    for case_id in case_ids()}
    FIXTURE.write_text(json.dumps(
        {"schema": REQUEST_SCHEMA_VERSION, "fingerprints": fingerprints},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(fingerprints)} fingerprints to {FIXTURE}")
