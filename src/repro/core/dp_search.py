"""Layer-wise dynamic-programming search (Section 5.1, Eq. 9).

The DP runs over the sharded series-parallel stage list of
:mod:`repro.core.stages`.  The DP state is the partition type governing the
boundary tensor after a stage; Eq. 9's step cost is delegated to
:class:`~repro.core.cost_model.PairCostModel`, so the same search skeleton
serves AccPar (balanced ratios, full space), HyPar (communication volume,
{Type-I, Type-II}) and restricted ablations.

Multi-path stages (Figure 4) are folded into single macro-transitions by
:mod:`repro.core.multipath`; the chain DP composes them transparently, which
also makes back-to-back residual blocks (ResNet) work without special cases.

Complexity is O(N · |T|²) for N weighted layers — the paper's reduction from
the O(3^N) brute force (validated against :mod:`repro.core.brute_force`).

This scalar kernel is the readable reference (the ``dp`` backend) and the
oracle of the equivalence suites; production exact searches run on
:mod:`repro.core.dp_vectorized`, which must match it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from ..obs.tracing import tracer
from ..plan.ir import LayerAssignment, PlanEntry, SearchResult
from .cost_model import PairCostModel, transition_family
from .stages import ShardedLayerStage, ShardedParallelStage, ShardedStage
from .tiebreak import COST_REL_TOL, improves
from .types import ALL_TYPES, PartitionType, ShardedWorkload

__all__ = [
    "COST_REL_TOL",
    "improves",
    "TransitionInfo",
    "layer_stage_transitions",
    "dp_over_stages",
    "search_stages",
]

#: optional per-layer restriction of the searchable types (used by the fixed
#: baselines: data parallelism pins Type-I everywhere, OWT pins by layer kind)
SpaceFn = Callable[[ShardedWorkload], Sequence[PartitionType]]

#: DP states: a partition type, or None for the free entry boundary
State = Optional[PartitionType]


class TransitionInfo(NamedTuple):
    """Cost and typed plan entries of crossing one stage between two states.

    A NamedTuple: the search constructs thousands per plan and tuple
    construction is several times cheaper than a frozen dataclass.
    """

    cost: float
    entries: Tuple[PlanEntry, ...] = ()


@dataclass(frozen=True)
class _BackNode:
    """Parent-pointer backtracking node: one stage's decisions on a DP path.

    The frontier used to accumulate full entry tuples per state, which
    re-copies every prefix at every stage — O(N²) tuple concatenation over a
    chain.  Instead each frontier entry now points at its predecessor's node
    and the optimal paths are reconstructed once at the end, in O(N) per
    surviving exit state.
    """

    entries: Tuple[PlanEntry, ...]
    parent: Optional["_BackNode"]

    def backtrack(self) -> Tuple[PlanEntry, ...]:
        """Concatenate the per-stage decisions from entry to this node."""
        groups = []
        node: Optional[_BackNode] = self
        while node is not None:
            if node.entries:
                groups.append(node.entries)
            node = node.parent
        groups.reverse()
        out: list = []
        for group in groups:
            out.extend(group)
        return tuple(out)


def layer_stage_transitions(
    stage: ShardedLayerStage,
    model: PairCostModel,
    space: Sequence[PartitionType],
    in_states: Sequence[State],
    space_fn: Optional[SpaceFn] = None,
) -> Dict[Tuple[State, PartitionType], TransitionInfo]:
    """Eq. 9 step costs for one weighted layer, all (tt, t) combinations."""
    layer_space = space_fn(stage.workload) if space_fn is not None else space
    transitions: Dict[Tuple[State, PartitionType], TransitionInfo] = {}
    sw = stage.workload
    name = stage.name
    if model.memoize:
        # a step decision depends on the predecessor only through its
        # Table 5 family (the model's own cache relies on the same fact);
        # cost each (family, t) combination once and fan the shared
        # TransitionInfo out to every (tt, t) in the family
        by_family: Dict[Tuple[str, PartitionType], TransitionInfo] = {}
        for tt in in_states:
            for t in layer_space:
                fam = transition_family(tt, t)
                fam_key = (fam, t)
                info = by_family.get(fam_key)
                if info is None:
                    decision = model.step(sw, tt, t, fam)
                    info = TransitionInfo(
                        cost=decision.cost,
                        entries=(LayerAssignment(name, t, decision.alpha),),
                    )
                    by_family[fam_key] = info
                transitions[(tt, t)] = info
        return transitions
    for tt in in_states:
        for t in layer_space:
            decision = model.step(sw, tt, t)
            transitions[(tt, t)] = TransitionInfo(
                cost=decision.cost,
                entries=(LayerAssignment(name, t, decision.alpha),),
            )
    return transitions


def _advance_frontier(
    stage: ShardedStage,
    frontier: Dict[State, Tuple[float, Optional[_BackNode]]],
    model: PairCostModel,
    space: Sequence[PartitionType],
    space_fn: Optional[SpaceFn],
    parallel_transitions,
) -> Dict[State, Tuple[float, Optional[_BackNode]]]:
    """One DP step: cross ``frontier`` over ``stage``'s transition table."""
    in_states = list(frontier)
    if isinstance(stage, ShardedLayerStage):
        transitions = layer_stage_transitions(stage, model, space, in_states, space_fn)
    elif isinstance(stage, ShardedParallelStage):
        transitions = parallel_transitions(stage, model, space, in_states, space_fn)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown stage kind {type(stage).__name__}")

    new_frontier: Dict[State, Tuple[float, Optional[_BackNode]]] = {}
    for (tt, t), info in transitions.items():
        base_cost, base_node = frontier[tt]
        total = base_cost + info.cost
        incumbent = new_frontier.get(t)
        # one shared tie-break rule (core.tiebreak) across every search
        # variant, so the scalar, greedy and vectorized kernels can't drift
        if incumbent is None or improves(total, incumbent[0]):
            new_frontier[t] = (total, _BackNode(info.entries, base_node))
    return new_frontier


def dp_over_stages(
    stages: Sequence[ShardedStage],
    model: PairCostModel,
    space: Sequence[PartitionType],
    entry: Dict[State, float],
    space_fn: Optional[SpaceFn] = None,
) -> Dict[State, Tuple[float, TransitionInfo]]:
    """Min-plus DP across a stage list.

    ``entry`` maps boundary states before the first stage to their initial
    costs (``None`` = free boundary, used for the network input).  Returns,
    per reachable exit state, the minimal total cost and the accumulated
    layer assignments along the optimal path.

    The frontier carries parent-pointer :class:`_BackNode` chains instead of
    materialized assignment tuples; the optimal path per exit state is
    backtracked exactly once after the last stage, keeping the whole search
    linear in the number of stages.
    """
    from .multipath import parallel_stage_transitions  # local import: cycle-free

    if not entry:
        raise ValueError("entry state set must be non-empty")

    frontier: Dict[State, Tuple[float, Optional[_BackNode]]] = {
        s: (c, None) for s, c in entry.items()
    }

    # hoisted out of the loop: the guard on the raw attribute keeps the
    # disabled path allocation-free (asserted by the tracer tests), and one
    # search never straddles an enable/disable toggle
    traced = tracer.enabled
    for stage in stages:
        if traced:
            with tracer.span("dp.stage", category="dp", stage=stage.name,
                             states=len(frontier)):
                frontier = _advance_frontier(stage, frontier, model, space,
                                             space_fn,
                                             parallel_stage_transitions)
        else:
            frontier = _advance_frontier(stage, frontier, model, space,
                                         space_fn, parallel_stage_transitions)

    return {
        s: (
            cost,
            TransitionInfo(
                cost=cost,
                entries=node.backtrack() if node is not None else (),
            ),
        )
        for s, (cost, node) in frontier.items()
    }


def search_stages(
    stages: Sequence[ShardedStage],
    model: PairCostModel,
    space: Sequence[PartitionType] = ALL_TYPES,
    entry: Optional[Dict[State, float]] = None,
    space_fn: Optional[SpaceFn] = None,
) -> SearchResult:
    """Find the minimum-cost per-layer assignment for one hierarchy level.

    The entry boundary defaults to free (``c(L_0, t) = 0``, Section 5.1: the
    input tensor may start in whichever partitioning the first layer
    prefers).
    """
    if not space:
        raise ValueError("partition-type space must be non-empty")
    if entry is None:
        entry = {None: 0.0}
    if not stages:
        return SearchResult(entries=(), cost=0.0, exit_state=None)

    with tracer.span("dp.search", category="dp", stages=len(stages),
                     space=len(space)) as span:
        exits = dp_over_stages(stages, model, space, entry, space_fn)
        best_state = None
        best_cost = None
        for state, (cost, _) in exits.items():
            if best_cost is None or improves(cost, best_cost):
                best_state, best_cost = state, cost
        best_cost, info = exits[best_state]
        span.set("cost", best_cost)
    return SearchResult(
        entries=info.entries,
        cost=best_cost,
        exit_state=best_state,
    )
