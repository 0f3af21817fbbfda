"""Hardware presets: the TPU-v2 / TPU-v3 boards of Table 7.

Values follow Section 6.1 exactly:

* TPU-v2: 180 TFLOPS, 64 GB HBM, 2400 GB/s memory bandwidth;
* TPU-v3: 420 TFLOPS, 128 GB HBM, 4800 GB/s memory bandwidth (assumed);
* network data rate 8 Gb/s for TPU-v2 and 16 Gb/s for TPU-v3
  (the paper scales the 2 Gb/s-per-core VPC quota by core count).

Gb/s are converted to bytes/s here so the rest of the library never touches
bit units.
"""

from __future__ import annotations

from typing import List, Tuple

from .accelerator import AcceleratorSpec, AcceleratorGroup, make_group, merge_groups

GB = 1e9
GIB = 2**30

TPU_V2 = AcceleratorSpec(
    name="tpu-v2",
    flops=180e12,
    memory_bytes=64 * GIB,
    memory_bandwidth=2400 * GB,
    network_bandwidth=8e9 / 8,   # 8 Gb/s -> 1 GB/s
)

TPU_V3 = AcceleratorSpec(
    name="tpu-v3",
    flops=420e12,
    memory_bytes=128 * GIB,
    memory_bandwidth=4800 * GB,
    network_bandwidth=16e9 / 8,  # 16 Gb/s -> 2 GB/s
)

#: spec registry by name: how CLI array strings and calibration exports
#: (whose per-hardware keys are spec names) resolve to concrete specs
KNOWN_SPECS = {
    TPU_V2.name: TPU_V2,
    TPU_V3.name: TPU_V3,
}

#: the most boards an array string may name: 16x the paper's 256-board
#: array.  Building and fingerprinting an array is linear in its size, so
#: one short request string must not be able to ask for millions of boards
MAX_ARRAY_SIZE = 4096

#: bfloat16, "Google's 16-bit floating point data format for training"
BFLOAT16_BYTES = 2

#: mini-batch size used throughout Section 6 (except Figure 7, which uses 128)
PAPER_BATCH = 512


def heterogeneous_array(n_v2: int = 128, n_v3: int = 128) -> AcceleratorGroup:
    """The Section 6.2 array: 128 TPU-v2 + 128 TPU-v3 boards."""
    return merge_groups(make_group(TPU_V2, n_v2), make_group(TPU_V3, n_v3))


def homogeneous_array(n: int = 128) -> AcceleratorGroup:
    """The Section 6.3 array: 128 TPU-v3 boards."""
    return make_group(TPU_V3, n)


def parse_array(text: str) -> AcceleratorGroup:
    """Parse an array spec: 'hetero', 'homo', or 'name:count,name:count'.

    Names resolve through :data:`KNOWN_SPECS`.  A malformed spec, or one
    naming more than :data:`MAX_ARRAY_SIZE` boards, raises ``ValueError``
    before any board is built.
    """
    key = text.strip().lower()
    if key in ("hetero", "heterogeneous"):
        return heterogeneous_array()
    if key in ("homo", "homogeneous"):
        return homogeneous_array()
    parts: List[Tuple[AcceleratorSpec, int]] = []
    for part in key.split(","):
        if ":" not in part:
            raise ValueError(
                f"bad array component {part!r}; expected name:count")
        name, count_text = part.split(":", 1)
        if name not in KNOWN_SPECS:
            raise ValueError(
                f"unknown accelerator {name!r}; known: {sorted(KNOWN_SPECS)}")
        try:
            count = int(count_text)
        except ValueError as exc:
            raise ValueError(f"bad count in {part!r}") from exc
        if count <= 0:
            raise ValueError(f"count must be positive in {part!r}")
        parts.append((KNOWN_SPECS[name], count))
    total = sum(count for _, count in parts)
    if total > MAX_ARRAY_SIZE:
        raise ValueError(
            f"array {text!r} names {total} boards; at most "
            f"{MAX_ARRAY_SIZE} are allowed")
    return merge_groups(*(make_group(spec, count) for spec, count in parts))
