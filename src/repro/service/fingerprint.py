"""Canonical plan requests and their content-addressed fingerprints.

A :class:`PlanRequest` is the unit of work the plan service accepts: every
knob that can change the resulting plan is a field here, and
:meth:`PlanRequest.fingerprint` folds them all — including the *structure*
of the named model, not just its name — into one stable hex key.  Two
requests with equal fingerprints are guaranteed to produce byte-identical
plans, which is what makes single-flight coalescing and the content-addressed
cache sound.

Stability contract (documented in docs/serving.md): fingerprints only change
when ``REQUEST_SCHEMA_VERSION`` is bumped, which invalidates every persisted
cache entry at once rather than silently serving stale plans.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from ..digest import stable_digest
from ..graph.network import Network
from ..hardware.accelerator import AcceleratorGroup
from ..hardware.profile import CalibratedProfile
from ..models.registry import build_model

#: bump when the fingerprint payload layout (or plan semantics) changes;
#: folded into every key so old disk-cache entries simply stop matching
#: (v2: per-request search backend + typed plan-entry serialization;
#: v3: hardware profile in the payload — calibrated and analytic plans
#: must never share a cache entry)
REQUEST_SCHEMA_VERSION = 3


def canonical_profile(profile):
    """``profile``, or None for the analytic profile: it IS the default,
    so both spellings share one fingerprint (and one cache entry)."""
    if profile is not None and getattr(profile, "is_analytic", False):
        return None
    return profile


@dataclass(frozen=True)
class PlanRequest:
    """Everything that determines a plan, in canonical form.

    ``space`` and ``ratio_mode`` are the AccPar ablation knobs
    (:class:`repro.core.planner.AccParScheme`); leaving them ``None`` means
    "the scheme's defaults" and hashes distinctly from pinning the defaults
    explicitly — by design, since a scheme's defaults may evolve.  The same
    convention covers ``backend``: ``None`` keeps the scheme's default search
    backend, a name from :func:`repro.plan.available_backends` overrides it.
    ``profile`` re-prices the cost model with calibrated effective rates;
    ``None`` is the peak analytic model, and the profile's content digest
    is part of the fingerprint.
    """

    model: str
    array: AcceleratorGroup
    batch: int = 512
    scheme: str = "accpar"
    dtype_bytes: int = 2
    levels: Optional[int] = None
    space: Optional[Tuple[str, ...]] = None      # PartitionType values, e.g. ("I", "II")
    ratio_mode: Optional[str] = None             # "balanced" | "equal" | "proportional"
    backend: Optional[str] = None                # search backend name, e.g. "greedy"
    profile: Optional[CalibratedProfile] = None  # calibrated rates; None = analytic

    def __post_init__(self) -> None:
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        if self.dtype_bytes <= 0:
            raise ValueError("dtype_bytes must be positive")
        if self.space is not None:
            object.__setattr__(self, "space", tuple(self.space))
        object.__setattr__(self, "profile", canonical_profile(self.profile))

    def with_default_profile(
        self, profile: Optional[CalibratedProfile]
    ) -> "PlanRequest":
        """This request, priced under ``profile`` unless it pins its own:
        the one default-profile rule of ``repro serve --profile`` and the
        fleet frontend, applied before fingerprinting."""
        if profile is None or self.profile is not None:
            return self
        return dataclasses.replace(self, profile=profile)

    def build_network(self) -> Network:
        return build_model(self.model)

    def fingerprint(self, network: Optional[Network] = None) -> str:
        """The cache key: a stable hash over the full request content.

        The model's structural fingerprint is hashed, not just its name, so
        re-registering a model name with a different architecture can never
        hit a stale entry.  ``network`` is the request's already-built
        model (:meth:`build_network`), for callers that plan with it too.
        """
        if network is None:
            network = self.build_network()
        return stable_digest(
            {
                "schema": REQUEST_SCHEMA_VERSION,
                "model": self.model.lower(),
                "network": network.fingerprint(),
                "array": self.array.fingerprint(),
                "batch": self.batch,
                "scheme": self.scheme.lower(),
                "dtype_bytes": self.dtype_bytes,
                "levels": self.levels,
                "space": list(self.space) if self.space is not None else None,
                "ratio_mode": self.ratio_mode,
                "backend": self.backend.lower() if self.backend else None,
                "profile": (self.profile.fingerprint()
                            if self.profile is not None else None),
            }
        )
