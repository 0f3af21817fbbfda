"""Seeded inputs for the benchmark's workloads.

Everything here is a pure function of the seed: the same seed yields the
same request specs in the same order.  The program under test only ever
sees the generated requests.

Request kinds follow the paper's Section 6 setup.  Five models run on the
Section 6.2 array (128 x TPU-v2 + 128 x TPU-v3) and on the Section 6.3
array (128 x TPU-v3).  A quarter of the in-process requests carry the
calibrated example profile.  One *cycle* holds each of the 20 kinds once,
so every whole number of cycles has exactly the same mix; the seed varies
the order inside a cycle and the batch sizes.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

MODELS = ("alexnet", "vgg16", "resnet18", "resnet50", "trident")

#: Section 6.2 heterogeneous array and Section 6.3 homogeneous array
PAPER_ARRAY = "tpu-v2:128,tpu-v3:128"
V3_ARRAY = "tpu-v3:128"

#: calibrated example profile, relative to the repository root
PROFILE_PATH = "examples/profiles/effective-tpu.json"

#: (array, profiled) variants of one model: half analytic on the paper
#: array, a quarter profiled on it, a quarter analytic on the v3 array
VARIANTS = (
    (PAPER_ARRAY, False),
    (PAPER_ARRAY, False),
    (PAPER_ARRAY, True),
    (V3_ARRAY, False),
)

#: the 20 in-process request kinds.  Rank r pairs model r % 5 with variant
#: r % 4; since 4 and 5 are coprime this covers every pair once, and
#: neighbouring ranks differ in both model and variant, so a skewed draw
#: over ranks still sees every model and variant near the head.
KINDS: Tuple[Tuple[str, str, bool], ...] = tuple(
    (MODELS[r % len(MODELS)],) + VARIANTS[r % len(VARIANTS)]
    for r in range(len(MODELS) * len(VARIANTS))
)

#: model pairs of the fleet's cold batches, used in rotation; each batch
#: plans two models at four fresh batch sizes each (networks are shared
#: within a batch).  Every model appears in two of the three pairs, so a
#: whole rotation plans each model equally often.
FLEET_PAIRS = (("alexnet", "vgg16"), ("vgg16", "trident"),
               ("trident", "alexnet"))
FLEET_SIZES_PER_MODEL = 4

#: hit-warm working set: a few dozen requests, well under the 128-entry
#: default cache capacity
HIT_WORKING_SET = 32
#: exponent of the Zipf-like draw over working-set ranks
ZIPF_EXPONENT = 1.0

#: fleet warm working set (the first rotation of cold batches, planned
#: during preparation) and the size of a warm batch
FLEET_WORKING_SET = 24
FLEET_WARM_BATCH = 16

#: batch sizes are drawn from this range, never repeating per kind
BATCH_RANGE = (256, 1024)


@dataclass(frozen=True)
class Spec:
    """One plan request, as plain data."""

    model: str
    array: str
    batch: int
    profiled: bool = False

    def doc(self) -> Dict:
        """The wire/JSON request document (fleet items are analytic)."""
        if self.profiled:
            raise ValueError("fleet specs carry no profile")
        return {"model": self.model, "array": self.array, "batch": self.batch}


class FreshBatches:
    """Batch sizes that never repeat for one (model, array, profile) kind,
    so every spec drawn from one instance is a distinct request."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used: Dict[Tuple, set] = {}

    def draw(self, model: str, array: str, profiled: bool) -> int:
        used = self._used.setdefault((model, array, profiled), set())
        low, high = BATCH_RANGE
        if len(used) >= high - low:
            raise RuntimeError(f"batch sizes exhausted for {model}/{array}")
        while True:
            batch = self._rng.randrange(low, high)
            if batch not in used:
                used.add(batch)
                return batch


def cold_cycles(seed: int) -> Iterator[List[Spec]]:
    """Endless cycles of 20 never-repeating in-process requests (plan-cold)."""
    rng = random.Random(f"plan-cold/{seed}")
    batches = FreshBatches(rng)
    while True:
        kinds = list(KINDS)
        rng.shuffle(kinds)
        yield [Spec(m, a, batches.draw(m, a, p), p) for m, a, p in kinds]


def hit_working_set(seed: int, size: int = HIT_WORKING_SET) -> List[Spec]:
    """The hit-warm working set, hottest rank first."""
    rng = random.Random(f"hit-warm/{seed}")
    batches = FreshBatches(rng)
    specs = []
    for rank in range(size):
        model, array, profiled = KINDS[rank % len(KINDS)]
        specs.append(Spec(model, array, batches.draw(model, array, profiled),
                          profiled))
    return specs


def zipf_ranks(seed: int, size: int,
               exponent: float = ZIPF_EXPONENT) -> Iterator[int]:
    """Endless seeded draw of ranks in ``[0, size)`` with P(r) ~ 1/(r+1)^s."""
    rng = random.Random(f"zipf/{seed}")
    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** exponent for rank in range(size)))
    total = cumulative[-1]
    while True:
        yield bisect.bisect_right(cumulative, rng.random() * total)


def fleet_cold_batches(seed: int) -> Iterator[List[Spec]]:
    """Endless cold fleet batches: 2 models x 4 fresh batch sizes each.

    The fleet workload takes its warm working set from the first batches,
    so warm and cold items can never share a request.
    """
    rng = random.Random(f"fleet-batch/{seed}")
    batches = FreshBatches(rng)
    for pair in itertools.cycle(FLEET_PAIRS):
        specs = [Spec(model, PAPER_ARRAY,
                      batches.draw(model, PAPER_ARRAY, False))
                 for model in pair for _ in range(FLEET_SIZES_PER_MODEL)]
        rng.shuffle(specs)
        yield specs


def fleet_warm_draws(seed: int, size: int = FLEET_WORKING_SET,
                     batch: int = FLEET_WARM_BATCH) -> Iterator[List[int]]:
    """Endless warm batches: ``batch`` distinct working-set indices each."""
    rng = random.Random(f"fleet-warm-draw/{seed}")
    while True:
        yield rng.sample(range(size), batch)
