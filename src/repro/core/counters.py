"""Planner performance counters: how much work did a search actually do?

Two layers, matched to where the cost is paid:

* :class:`StepStats` — a plain-``__slots__`` bag of integers owned by one
  :class:`~repro.core.cost_model.PairCostModel`.  The DP inner loop bumps
  attributes directly (no locks, no dict lookups), so counting adds nothing
  measurable to the hot path.
* :class:`~repro.obs.registry.PerfCounters` — a thread-safe named-counter
  registry in the unified observability registry
  (:mod:`repro.obs.registry`).  The process-wide :data:`planner_counters`
  instance (re-exported here) aggregates every search: schemes merge
  their model's :class:`StepStats` into it after each level plan, and the
  coarser events (hierarchy memo hits, multipath path DPs) increment it
  directly.  The plan service folds a snapshot into its
  ``stats``/``service-stats`` output, and ``repro service-stats --format
  prometheus`` renders the same names as ``repro_planner_<name>_total``
  series.

Counter names (all monotonic; the canonical list is
:data:`repro.obs.registry.PLANNER_COUNTER_NAMES`):

``step_calls`` / ``step_cache_hits``
    Eq. 9 step costings requested vs. answered from the per-model
    transition-family cache.
``boundary_calls`` / ``boundary_cache_hits``
    Table 5 boundary re-alignment costings (multi-path joins, skip paths).
``ratio_solves`` and the solver-path split ``ratio_closed_linear`` /
``ratio_closed_quadratic`` / ``ratio_bisection_fallback`` / ``ratio_minimax``
    How each balanced ratio (Eq. 10) was obtained: affine closed form,
    quadratic closed form (the α·β cross transitions), the checked bisection
    fallback, or the minimax fallback when one party dominates everywhere.
``hierarchy_memo_hits`` / ``hierarchy_memo_misses``
    Pairing-tree nodes answered from the symmetric-subtree memo vs. planned.
``multipath_path_dp_runs``
    Per-entry-state path DPs run inside fork/join regions (the vectorized
    backend counts the entry states each batched path run covers, so the
    number stays comparable across backends).
``vec_searches``
    Level searches served by the vectorized (``dp-vectorized``) kernel.
``vec_pack_cache_hits`` / ``vec_pack_cache_misses``
    Packed step-cost tensors answered from the module-wide cache vs built.
``vec_pack_ns`` / ``vec_recurrence_ns``
    Nanoseconds the vectorized kernel spent building cost tensors (phase 1)
    vs running the batched recurrence + backtracking (phase 2).
``vec_multipath_batches``
    Batched fork/join path runs (one per path per macro-stage evaluation,
    replacing ``|entry states|`` scalar DPs each).
"""

from __future__ import annotations

from typing import Dict

from ..obs.registry import planner_counters

__all__ = ["StepStats", "planner_counters"]


class StepStats:
    """Lock-free per-model counters for the DP inner loop."""

    __slots__ = (
        "step_calls",
        "step_cache_hits",
        "boundary_calls",
        "boundary_cache_hits",
        "ratio_solves",
        "ratio_closed_linear",
        "ratio_closed_quadratic",
        "ratio_bisection_fallback",
        "ratio_minimax",
        "multipath_path_dp_runs",
        "vec_searches",
        "vec_pack_cache_hits",
        "vec_pack_cache_misses",
        "vec_pack_ns",
        "vec_recurrence_ns",
        "vec_multipath_batches",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def step_cache_hit_rate(self) -> float:
        return self.step_cache_hits / self.step_calls if self.step_calls else 0.0
