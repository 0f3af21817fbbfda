""""One Weird Trick" (Krizhevsky, 2014) — the empirical baseline.

OWT configures CONV layers with data parallelism and FC layers with model
parallelism.  In the partition algebra of Section 3 these are Type-I and
Type-II respectively; ratios are equal.  The paper stresses that OWT is a
*static* configuration: it never adapts to the model or the hardware
(Table 8).
"""

from __future__ import annotations

from typing import Optional

from ..core.types import PartitionType
from ..hardware.profile import HardwareProfile
from ..plan.backends import EXACT_BACKEND
from .data_parallel import FixedTypeScheme


class OwtScheme(FixedTypeScheme):
    """CONV → Type-I (data parallel); FC → Type-II (model parallel)."""

    def __init__(self, backend: str = EXACT_BACKEND,
                 profile: Optional[HardwareProfile] = None) -> None:
        super().__init__(
            "owt",
            lambda w: PartitionType.TYPE_I if w.base.is_conv else PartitionType.TYPE_II,
            backend=backend,
            profile=profile,
        )
