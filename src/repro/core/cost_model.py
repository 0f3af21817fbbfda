"""The AccPar cost model (Section 4): computation + communication, per party.

All costs are *seconds*.  Communication converts tensor elements to bytes
(bfloat16 by default) and divides by the accessing party's network bandwidth
``b_i`` (Eq. 7); computation divides effective FLOPs by the party's compute
density ``c_i`` (Eq. 8).

Three cost families are implemented exactly as the paper's tables:

* **intra-layer communication** (Table 4) — the partial-sum tensor of the
  one phase that cannot complete locally; independent of the ratio α because
  partial results are accumulated locally before the exchange;
* **inter-layer communication** (Table 5) — the re-alignment of the boundary
  tensors F_{l+1} / E_{l+1} between two adjacent layers' partition types,
  for all nine type transitions;
* **computation** (Table 6, CONV-extended per Section 4.3) — the three
  training mat-muls, scaled by the party's share α, plus the element-wise
  additions that combine the received partial sums.

The model is written for one *pair* of parties because the hierarchical
scheme (Section 5.1) always splits two ways; a party may itself be an
aggregated accelerator group.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple

from ..hardware.accelerator import AcceleratorGroup
from ..hardware.profile import ANALYTIC, HardwareProfile
from .counters import StepStats
from .ratio import (
    PATH_BISECTION,
    PATH_LINEAR,
    PATH_MINIMAX,
    PATH_QUADRATIC,
    PairCostPoly,
    solve_balanced_ratio,
    solve_balanced_ratio_poly,
    solve_balanced_ratio_poly_batch,
)
from .types import ALL_TYPES, PartitionType, ShardedWorkload

#: transitions with zero inter-layer cost: the boundary tensors already agree
ZERO_TRANSITIONS = frozenset(
    {
        (PartitionType.TYPE_I, PartitionType.TYPE_I),
        (PartitionType.TYPE_II, PartitionType.TYPE_III),
        (PartitionType.TYPE_III, PartitionType.TYPE_II),
    }
)

#: transitions whose cost is α·β·(A(F)+A(E)) for *both* parties
CROSS_TRANSITIONS = frozenset(
    {
        (PartitionType.TYPE_I, PartitionType.TYPE_II),
        (PartitionType.TYPE_III, PartitionType.TYPE_I),
    }
)

#: transitions moving the feature-map tensor: party i fetches β·A(F_{l+1})
F_TRANSITIONS = frozenset(
    {
        (PartitionType.TYPE_I, PartitionType.TYPE_III),
        (PartitionType.TYPE_III, PartitionType.TYPE_III),
    }
)

#: transitions moving the error tensor: party i fetches β·A(E_{l+1})
E_TRANSITIONS = frozenset(
    {
        (PartitionType.TYPE_II, PartitionType.TYPE_I),
        (PartitionType.TYPE_II, PartitionType.TYPE_II),
    }
)

#: the four Table 5 cost families; a step's per-party costs depend on the
#: predecessor type only through its family, which is what collapses the
#: nine (prev, cur) transitions to at most four distinct costings per layer
FAMILY_ZERO = "zero"
FAMILY_CROSS = "cross"
FAMILY_F = "f-move"
FAMILY_E = "e-move"

_TRANSITION_FAMILY = {
    **{key: FAMILY_ZERO for key in ZERO_TRANSITIONS},
    **{key: FAMILY_CROSS for key in CROSS_TRANSITIONS},
    **{key: FAMILY_F for key in F_TRANSITIONS},
    **{key: FAMILY_E for key in E_TRANSITIONS},
}

#: family → row on the packed cost tensors' family axis.  The four Table 5
#: families collapse to *three* distinct cost columns: the F-move and E-move
#: transitions produce identical per-party coefficients (party i fetches
#: β·A(F_{l+1}), party j fetches α·A(E_{l+1}), and A(F) = A(E) for the
#: boundary tensor), which :meth:`PairCostModel._poly_parts` already
#: exploits by sharing one branch for both.
PACKED_FAMILY_INDEX = {FAMILY_ZERO: 0, FAMILY_CROSS: 1, FAMILY_F: 2, FAMILY_E: 2}

#: number of rows on the packed family axis
PACKED_FAMILY_COUNT = 3

#: representative (packed family row, type column, predecessor type) per
#: *reachable* cell of the packed grid, for the scalar packing route.  The
#: cross family cannot reach Type-III (no Table 5 transition maps there),
#: so that cell stays at the unreachable sentinel.
_PACK_REPRESENTATIVES = (
    (0, 0, None),
    (0, 1, None),
    (0, 2, None),
    (1, 0, PartitionType.TYPE_III),
    (1, 1, PartitionType.TYPE_I),
    (2, 0, PartitionType.TYPE_II),
    (2, 1, PartitionType.TYPE_II),
    (2, 2, PartitionType.TYPE_I),
)


def transition_family(
    prev_type: Optional[PartitionType], cur_type: PartitionType
) -> str:
    """The Table 5 cost family of one (prev, cur) transition.

    A free entry boundary (``prev_type is None``) incurs no inter-layer
    cost, exactly like the zero transitions, so it shares their family.
    """
    if prev_type is None:
        return FAMILY_ZERO
    return _TRANSITION_FAMILY[(prev_type, cur_type)]


def inter_layer_elements(
    boundary_fm_elements: float,
    prev_type: PartitionType,
    cur_type: PartitionType,
    alpha: float,
) -> Tuple[float, float]:
    """Remotely-accessed element counts (party i, party j) for one transition.

    ``boundary_fm_elements`` is A(F_{l+1}) (= A(E_{l+1})) of the boundary
    between the two layers, already sharded by enclosing hierarchy levels.
    Party i holds share α, party j holds β = 1 - α.  This is Table 5 with
    the division by ``b_i`` deferred to the caller.
    """
    key = (prev_type, cur_type)
    beta = 1.0 - alpha
    if key in ZERO_TRANSITIONS:
        return 0.0, 0.0
    if key in CROSS_TRANSITIONS:
        amount = alpha * beta * 2.0 * boundary_fm_elements  # A(F)+A(E)
        return amount, amount
    if key in F_TRANSITIONS or key in E_TRANSITIONS:
        return beta * boundary_fm_elements, alpha * boundary_fm_elements
    raise ValueError(f"unknown transition {key!r}")


class StepDecision(NamedTuple):
    """Outcome of costing one layer under one (prev_type, type) transition.

    A NamedTuple rather than a frozen dataclass: the planner constructs one
    per uncached step and tuple construction is several times cheaper.
    """

    ptype: PartitionType
    alpha: float
    cost: float        # the pair-combined cost the DP accumulates
    cost_i: float
    cost_j: float
    compute_i: float = 0.0
    compute_j: float = 0.0
    comm_i: float = 0.0
    comm_j: float = 0.0


class PairCostModel:
    """Cost model for one pairing-tree split: party *i* (left) vs *j* (right).

    ``ratio_mode`` selects how the pair of per-party costs becomes the single
    number the DP accumulates:

    * ``"balanced"`` — AccPar: solve Eq. 10 for α per layer and transition,
      cost = the (equal) value;
    * ``"proportional"`` — the global-ratio ablation: one fixed
      α = c_i/(c_i+c_j) for every layer (compute-proportional), cost = the
      slower party.  Isolates how much of the balanced mode's win comes
      from *per-layer* adaptation vs a single heterogeneity-aware ratio;
    * ``"equal"``    — baselines: α = 1/2, cost = the slower party
      (heterogeneous idle time shows up here, Section 6.2);
    * ``"comm-volume"`` — HyPar's objective: α = 1/2 and the cost is the raw
      communication *amount* in bytes (no computation, no bandwidth), since
      HyPar uses communication as the proxy for performance.

    Two hot-path optimizations are on by default and individually
    switchable (the throughput benchmark and the equivalence property tests
    run both configurations):

    * ``closed_form`` — solve Eq. 10 analytically from the
      :class:`~repro.core.ratio.PairCostPoly` coefficients instead of the
      ~80-iteration bisection (bisection remains the checked fallback);
    * ``memoize`` — cache one :class:`StepDecision` per
      ``(workload key, transition family, cur_type)``: compute and
      intra-layer costs are independent of the predecessor type, and the
      inter-layer cost depends on it only through the Table 5 family, so
      the nine transitions collapse to at most four costings per layer and
      repeated costings (multi-path entry states, greedy re-steps) become
      dictionary hits.

    Work performed is tallied in ``self.stats``
    (:class:`~repro.core.counters.StepStats`).
    """

    def __init__(
        self,
        party_i: AcceleratorGroup,
        party_j: AcceleratorGroup,
        dtype_bytes: int = 2,
        ratio_mode: str = "balanced",
        closed_form: bool = True,
        memoize: bool = True,
        profile: Optional[HardwareProfile] = None,
    ):
        if ratio_mode not in ("balanced", "proportional", "equal", "comm-volume"):
            raise ValueError(f"unknown ratio_mode {ratio_mode!r}")
        if dtype_bytes <= 0:
            raise ValueError("dtype_bytes must be positive")
        self.party_i = party_i
        self.party_j = party_j
        # the analytic profile is just the calibrated arithmetic at peak
        # rates, size-independent bandwidth and zero latency
        self.profile = ANALYTIC if profile is None else profile
        self.c_i = self.profile.compute_rate(party_i)
        self.c_j = self.profile.compute_rate(party_j)
        self.b_i = party_i.network_bandwidth
        self.b_j = party_j.network_bandwidth
        self.dtype_bytes = dtype_bytes
        self.ratio_mode = ratio_mode
        self.closed_form = closed_form
        self.memoize = memoize
        self.stats = StepStats()
        self._step_cache: dict = {}
        self._boundary_cache: dict = {}
        self._lat_i = self.profile.transfer_latency_s(party_i)
        self._lat_j = self.profile.transfer_latency_s(party_j)
        # per-kind effective compute rates and per-size effective bandwidths
        # are profile lookups; one dict per party keeps them O(1) on the
        # step hot path
        self._rate_cache_i: dict = {"default": self.c_i}
        self._rate_cache_j: dict = {"default": self.c_j}
        self._bw_cache_i: dict = {}
        self._bw_cache_j: dict = {}

        if ratio_mode in ("balanced", "proportional"):
            self._nominal_alpha = self.c_i / (self.c_i + self.c_j)
        else:
            self._nominal_alpha = 0.5

        # built once: the vectorized backend keys three module-level caches
        # on this per alignment matrix / packed tensor, so it is hot
        self._pack_key = (
            self.c_i,
            self.c_j,
            self.b_i,
            self.b_j,
            self.dtype_bytes,
            self.ratio_mode,
            self.closed_form,
            self.profile.fingerprint(),
        )

    def nominal_alpha(self) -> float:
        """Default share for boundary-only transfers (no computation to balance)."""
        return self._nominal_alpha

    def pack_key(self) -> Tuple:
        """Everything the packed step tensors depend on besides the workloads.

        Two models with equal ``pack_key()`` produce bit-identical packed
        tensors for the same workload sequence, which is what lets the
        vectorized backend share one module-level tensor cache across the
        fresh per-level :class:`PairCostModel` instances the planner builds.
        """
        return self._pack_key

    # ------------------------------------------------------------------
    # profile lookups (memoized per model instance)
    # ------------------------------------------------------------------
    @staticmethod
    def _kind(sw: ShardedWorkload) -> str:
        """The calibration op kind of a workload (profile rate selector)."""
        return "conv" if sw.base.is_conv else "fc"

    def _rate_i(self, kind: str) -> float:
        rate = self._rate_cache_i.get(kind)
        if rate is None:
            rate = self.profile.compute_rate(self.party_i, kind)
            self._rate_cache_i[kind] = rate
        return rate

    def _rate_j(self, kind: str) -> float:
        rate = self._rate_cache_j.get(kind)
        if rate is None:
            rate = self.profile.compute_rate(self.party_j, kind)
            self._rate_cache_j[kind] = rate
        return rate

    def _bw_i(self, nbytes: float) -> float:
        """Effective bandwidth of party i for one transfer of ``nbytes``.

        Evaluated at the α-independent *base* tensor size of the transfer so
        each party's step cost stays polynomial in α (the Eq. 10 closed
        forms require it); the latency constant is accounted separately.
        """
        bw = self._bw_cache_i.get(nbytes)
        if bw is None:
            bw = self.profile.network_bandwidth(self.party_i, nbytes)
            self._bw_cache_i[nbytes] = bw
        return bw

    def _bw_j(self, nbytes: float) -> float:
        bw = self._bw_cache_j.get(nbytes)
        if bw is None:
            bw = self.profile.network_bandwidth(self.party_j, nbytes)
            self._bw_cache_j[nbytes] = bw
        return bw

    # ------------------------------------------------------------------
    # dense step-cost packing (the vectorized backend's phase 1)
    # ------------------------------------------------------------------
    def pack_step_tensors(self, workloads: Sequence[ShardedWorkload]) -> Tuple:
        """Every Eq. 9 step costing of a level as two dense tensors.

        Returns ``(cost, alpha)``, each of shape
        ``(n_layers, PACKED_FAMILY_COUNT, |T|)``: Eq. 9's step cost and its
        Eq. 10 ratio for layer ``l`` entered through packed Table 5 family
        ``f`` under partition type ``t`` (type columns in ``ALL_TYPES``
        order).  Values are bit-identical to :meth:`step` on the same
        combination — the balanced closed-form route batches the polynomial
        build and the Eq. 10 solve through
        :func:`~repro.core.ratio.solve_balanced_ratio_poly_batch` with the
        scalar arithmetic's exact operation order; every other mode routes
        through the memoized :meth:`step` itself.  The one unreachable grid
        cell (cross family → Type-III) holds ``inf``.
        """
        if self.ratio_mode == "balanced" and self.closed_form:
            return self._pack_closed_form(workloads)
        import numpy as np

        n = len(workloads)
        cost = np.full((n, PACKED_FAMILY_COUNT, len(ALL_TYPES)), np.inf)
        alpha = np.full(cost.shape, self.nominal_alpha())
        for row, sw in enumerate(workloads):
            for fam_idx, t_idx, prev in _PACK_REPRESENTATIVES:
                decision = self.step(sw, prev, ALL_TYPES[t_idx])
                cost[row, fam_idx, t_idx] = decision.cost
                alpha[row, fam_idx, t_idx] = decision.alpha
        return cost, alpha

    def _pack_closed_form(self, workloads: Sequence[ShardedWorkload]) -> Tuple:
        """Balanced-mode packing: batched :meth:`_poly_parts` + batched Eq. 10.

        Mirrors :meth:`_poly_parts` elementwise with the exact scalar
        operation order — the base polynomial per (layer, type), the α·β
        cross term on the cross row, the boundary-move shift on the move
        row — using per-kind compute rates, per-size effective bandwidths
        (looked up through the same memoized ``_bw_i``/``_bw_j`` scalars
        the step path uses), and latency constants masked to nonzero
        transfers (adding ``+0.0`` elsewhere, which is bitwise identity on
        the non-negative costs).
        """
        import numpy as np

        n = len(workloads)
        n_types = len(ALL_TYPES)
        total = np.empty(n)
        a_in = np.empty(n)
        rate_i = np.empty(n)
        rate_j = np.empty(n)
        psum = np.empty((n, n_types))
        for row, sw in enumerate(workloads):
            total[row] = sw.flops_total()
            a_in[row] = sw.a_input_fm()
            kind = self._kind(sw)
            rate_i[row] = self._rate_i(kind)
            rate_j[row] = self._rate_j(kind)
            for col, t in enumerate(ALL_TYPES):
                psum[row, col] = sw.a_psum(t)

        dtype_bytes = float(self.dtype_bytes)
        intra = psum * dtype_bytes
        shape = (n, n_types)
        # effective bandwidth per intra transfer (1.0 where the transfer is
        # empty: 0/1 keeps the term at exactly 0.0, matching the scalar's
        # skipped addition)
        bw_intra_i = np.ones(shape)
        bw_intra_j = np.ones(shape)
        for row in range(n):
            for col in range(n_types):
                nbytes = intra[row, col]
                if nbytes > 0:
                    bw_intra_i[row, col] = self._bw_i(nbytes)
                    bw_intra_j[row, col] = self._bw_j(nbytes)

        base_ci = psum / rate_i[:, None] + intra / bw_intra_i
        base_li = np.broadcast_to((total / rate_i)[:, None], shape)
        base_cj = (total[:, None] + psum) / rate_j[:, None] + intra / bw_intra_j
        base_lj = np.broadcast_to((-total / rate_j)[:, None], shape)
        zero = np.zeros(shape)

        # intra-transfer latency lands on every family's constant term
        base_ci = base_ci + np.where(psum > 0, self._lat_i, 0.0)
        base_cj = base_cj + np.where(psum > 0, self._lat_j, 0.0)

        # inter-transfer terms at the α-independent base sizes, rows where
        # the boundary tensor is nonzero
        cross_qi = np.zeros(n)
        cross_qj = np.zeros(n)
        move_bi = np.zeros(n)
        move_bj = np.zeros(n)
        for row in range(n):
            if a_in[row] > 0:
                cross = 2.0 * a_in[row] * dtype_bytes
                cross_qi[row] = cross / self._bw_i(cross)
                cross_qj[row] = cross / self._bw_j(cross)
                move = a_in[row] * dtype_bytes
                move_bi[row] = move / self._bw_i(move)
                move_bj[row] = move / self._bw_j(move)
        lat_edge_i = np.where(a_in > 0, self._lat_i, 0.0)[:, None]
        lat_edge_j = np.where(a_in > 0, self._lat_j, 0.0)[:, None]

        cross_ci = base_ci + lat_edge_i
        cross_cj = base_cj + lat_edge_j
        move_ci = base_ci + move_bi[:, None] + lat_edge_i
        move_li = base_li - move_bi[:, None]
        move_lj = base_lj + move_bj[:, None]
        move_cj = base_cj + lat_edge_j

        # family axis rows: 0 = zero, 1 = cross, 2 = move (PACKED_FAMILY_INDEX)
        const_i = np.stack([base_ci, cross_ci, move_ci], axis=1)
        lin_i = np.stack([base_li, base_li, move_li], axis=1)
        quad_i = np.stack(
            [zero, np.broadcast_to(cross_qi[:, None], shape), zero], axis=1)
        const_j = np.stack([base_cj, cross_cj, move_cj], axis=1)
        lin_j = np.stack([base_lj, base_lj, move_lj], axis=1)
        quad_j = np.stack(
            [zero, np.broadcast_to(cross_qj[:, None], shape), zero], axis=1)

        alpha, counts = solve_balanced_ratio_poly_batch(
            const_i, lin_i, quad_i, const_j, lin_j, quad_j
        )
        stats = self.stats
        stats.ratio_solves += alpha.size
        stats.ratio_closed_linear += counts[PATH_LINEAR]
        stats.ratio_closed_quadratic += counts[PATH_QUADRATIC]
        stats.ratio_bisection_fallback += counts[PATH_BISECTION]
        stats.ratio_minimax += counts[PATH_MINIMAX]

        ab = alpha * (1.0 - alpha)
        cost_i = const_i + lin_i * alpha + quad_i * ab
        cost_j = const_j + lin_j * alpha + quad_j * ab
        return np.where(cost_i >= cost_j, cost_i, cost_j), alpha

    # ------------------------------------------------------------------
    # component costs
    # ------------------------------------------------------------------
    def compute_costs(self, sw: ShardedWorkload, ptype: PartitionType,
                      alpha: float) -> Tuple[float, float]:
        """Eq. 8 per party: α-share of the three mat-muls plus psum adds.

        Under a calibrated profile the divisor is the party's *effective*
        rate for this workload's op kind; the analytic profile answers the
        peak rate for every kind, so the arithmetic is unchanged there.
        """
        total = sw.flops_total()
        psum_adds = sw.a_psum(ptype)  # each party adds the full partial-sum tensor
        kind = self._kind(sw)
        cost_i = (alpha * total + psum_adds) / self._rate_i(kind)
        cost_j = ((1.0 - alpha) * total + psum_adds) / self._rate_j(kind)
        return cost_i, cost_j

    def intra_costs(self, sw: ShardedWorkload, ptype: PartitionType) -> Tuple[float, float]:
        """Table 4 per party; independent of α by construction.

        The profile derates the bandwidth at the transfer's size and charges
        its per-transfer latency constant when the exchange happens.
        """
        amount = sw.a_psum(ptype) * self.dtype_bytes
        if amount <= 0:
            return 0.0, 0.0
        return (
            amount / self._bw_i(amount) + self._lat_i,
            amount / self._bw_j(amount) + self._lat_j,
        )

    def inter_costs(
        self,
        boundary_fm_elements: float,
        prev_type: Optional[PartitionType],
        cur_type: PartitionType,
        alpha: float,
    ) -> Tuple[float, float]:
        """Table 5 per party; zero for the first layer (no predecessor).

        The profile's bandwidth-efficiency curve is evaluated at the
        transition's α-independent base tensor size (the full boundary
        tensor for moves, both boundary tensors for cross re-alignments) so
        this stays consistent with :meth:`step_poly` at every α, and add
        the latency constant per nonzero transfer.
        """
        if prev_type is None:
            return 0.0, 0.0
        amount_i, amount_j = inter_layer_elements(
            boundary_fm_elements, prev_type, cur_type, alpha
        )
        family = transition_family(prev_type, cur_type)
        if family == FAMILY_ZERO or boundary_fm_elements <= 0:
            return 0.0, 0.0
        if family == FAMILY_CROSS:
            base = 2.0 * boundary_fm_elements * self.dtype_bytes
        else:
            base = boundary_fm_elements * self.dtype_bytes
        return (
            amount_i * self.dtype_bytes / self._bw_i(base) + self._lat_i,
            amount_j * self.dtype_bytes / self._bw_j(base) + self._lat_j,
        )

    def step_pair_costs(
        self,
        sw: ShardedWorkload,
        prev_type: Optional[PartitionType],
        cur_type: PartitionType,
        alpha: float,
    ) -> Tuple[float, float, Tuple[float, float], Tuple[float, float]]:
        """Full per-party costs of one DP step (Eq. 9's E_cp + E_cm)."""
        cp_i, cp_j = self.compute_costs(sw, cur_type, alpha)
        intra_i, intra_j = self.intra_costs(sw, cur_type)
        inter_i, inter_j = self.inter_costs(
            sw.a_input_fm(), prev_type, cur_type, alpha
        )
        cm_i = intra_i + inter_i
        cm_j = intra_j + inter_j
        return cp_i + cm_i, cp_j + cm_j, (cp_i, cp_j), (cm_i, cm_j)

    def _poly_parts(
        self,
        sw: ShardedWorkload,
        prev_type: Optional[PartitionType],
        cur_type: PartitionType,
        family: Optional[str] = None,
    ) -> Tuple[PairCostPoly, float, float]:
        """:meth:`step_poly` plus the ``(total FLOPs, psum)`` it consumed.

        The closed-form step needs the same two workload quantities again to
        split the balanced cost into compute and communication shares;
        returning them avoids a second pair of lookups on the hot path.

        The compute density is the profile's per-op-kind rate, each
        transfer's bandwidth is the efficiency-derated one at the transfer's
        α-independent base size, and every nonzero transfer adds the
        profile's per-transfer latency constant to both parties' *constant* terms —
        affine in α, so the Eq. 10 closed forms (and their bisection
        fallback, which evaluates this same polynomial) apply unchanged.
        """
        total = sw.flops_total()
        psum = sw.a_psum(cur_type)
        intra = psum * self.dtype_bytes
        kind = self._kind(sw)
        c_i = self._rate_i(kind)
        c_j = self._rate_j(kind)
        const_i = psum / c_i + (intra / self._bw_i(intra) if intra > 0 else 0.0)
        lin_i = total / c_i
        quad_i = 0.0
        const_j = (total + psum) / c_j + (
            intra / self._bw_j(intra) if intra > 0 else 0.0)
        lin_j = -total / c_j
        quad_j = 0.0
        if psum > 0:
            const_i += self._lat_i
            const_j += self._lat_j
        if prev_type is not None:
            if family is None:
                family = transition_family(prev_type, cur_type)
            a_in = sw.a_input_fm()
            if family == FAMILY_CROSS and a_in > 0:
                cross = 2.0 * a_in * self.dtype_bytes
                quad_i = cross / self._bw_i(cross)
                quad_j = cross / self._bw_j(cross)
                const_i += self._lat_i
                const_j += self._lat_j
            elif family in (FAMILY_F, FAMILY_E) and a_in > 0:
                move = a_in * self.dtype_bytes
                move_i = move / self._bw_i(move)
                const_i += move_i
                lin_i -= move_i
                lin_j += move / self._bw_j(move)
                const_i += self._lat_i
                const_j += self._lat_j
        return (
            PairCostPoly(const_i, lin_i, quad_i, const_j, lin_j, quad_j),
            total,
            psum,
        )

    def step_poly(
        self,
        sw: ShardedWorkload,
        prev_type: Optional[PartitionType],
        cur_type: PartitionType,
        family: Optional[str] = None,
    ) -> PairCostPoly:
        """Eq. 9 step costs as α-polynomial coefficients (Tables 4-6).

        ``cost_i(α) = const_i + lin_i·α + quad_i·α(1-α)`` and likewise for
        party j; matches :meth:`step_pair_costs` at every α by construction
        (asserted by the property tests).  Callers that already know the
        transition's Table 5 ``family`` may pass it to skip the lookup.
        """
        return self._poly_parts(sw, prev_type, cur_type, family)[0]

    def _solve_balanced_alpha(
        self,
        sw: ShardedWorkload,
        prev_type: Optional[PartitionType],
        cur_type: PartitionType,
    ) -> float:
        """Eq. 10 for one step: closed form when enabled, else bisection."""
        self.stats.ratio_solves += 1
        if not self.closed_form:
            return solve_balanced_ratio(
                lambda a: self.step_pair_costs(sw, prev_type, cur_type, a)[:2]
            )
        alpha, path = solve_balanced_ratio_poly(
            self.step_poly(sw, prev_type, cur_type)
        )
        if path == PATH_LINEAR:
            self.stats.ratio_closed_linear += 1
        elif path == PATH_QUADRATIC:
            self.stats.ratio_closed_quadratic += 1
        elif path == PATH_BISECTION:
            self.stats.ratio_bisection_fallback += 1
        else:
            self.stats.ratio_minimax += 1
        return alpha

    # ------------------------------------------------------------------
    # DP step costing under the configured ratio policy
    # ------------------------------------------------------------------
    def step(
        self,
        sw: ShardedWorkload,
        prev_type: Optional[PartitionType],
        cur_type: PartitionType,
        family: Optional[str] = None,
    ) -> StepDecision:
        """One memoized Eq. 9 step costing.

        The cache key is ``(workload key, transition family, cur_type)``:
        everything a :class:`StepDecision` contains is invariant across
        predecessor types within one Table 5 family.  Callers that already
        computed the family (the DP's family-collapse loop) may pass it in.
        """
        self.stats.step_calls += 1
        if family is None:
            family = transition_family(prev_type, cur_type)
        key = None
        if self.memoize:
            key = (sw.key(), family, cur_type)
            cached = self._step_cache.get(key)
            if cached is not None:
                self.stats.step_cache_hits += 1
                return cached
        decision = self._step_uncached(sw, prev_type, cur_type, family)
        if key is not None:
            self._step_cache[key] = decision
        return decision

    def _step_uncached(
        self,
        sw: ShardedWorkload,
        prev_type: Optional[PartitionType],
        cur_type: PartitionType,
        family: Optional[str] = None,
    ) -> StepDecision:
        if self.ratio_mode == "balanced":
            if self.closed_form:
                return self._step_closed_form(sw, prev_type, cur_type, family)
            alpha = self._solve_balanced_alpha(sw, prev_type, cur_type)
            combine = max  # equal at the solution up to solver tolerance
        elif self.ratio_mode == "proportional":
            alpha = self.c_i / (self.c_i + self.c_j)
            combine = max
        elif self.ratio_mode == "equal":
            alpha = 0.5
            combine = max
        else:  # comm-volume: HyPar's communication-amount proxy
            alpha = 0.5
            volume = self._comm_volume(sw, prev_type, cur_type, alpha)
            return StepDecision(
                ptype=cur_type, alpha=alpha, cost=volume,
                cost_i=volume, cost_j=volume,
            )

        ci, cj, (cp_i, cp_j), (cm_i, cm_j) = self.step_pair_costs(
            sw, prev_type, cur_type, alpha
        )
        return StepDecision(
            ptype=cur_type,
            alpha=alpha,
            cost=combine(ci, cj),
            cost_i=ci,
            cost_j=cj,
            compute_i=cp_i,
            compute_j=cp_j,
            comm_i=cm_i,
            comm_j=cm_j,
        )

    def _step_closed_form(
        self,
        sw: ShardedWorkload,
        prev_type: Optional[PartitionType],
        cur_type: PartitionType,
        family: Optional[str] = None,
    ) -> StepDecision:
        """Balanced-mode step via one :class:`PairCostPoly` build.

        The polynomial serves both the Eq. 10 solve and the final cost
        evaluation, so the per-party cost formulas are computed exactly
        once per (family, type) combination.
        """
        poly, total, psum = self._poly_parts(sw, prev_type, cur_type, family)
        self.stats.ratio_solves += 1
        alpha, path = solve_balanced_ratio_poly(poly)
        if path == PATH_LINEAR:
            self.stats.ratio_closed_linear += 1
        elif path == PATH_QUADRATIC:
            self.stats.ratio_closed_quadratic += 1
        elif path == PATH_BISECTION:
            self.stats.ratio_bisection_fallback += 1
        else:
            self.stats.ratio_minimax += 1
        ci, cj = poly.costs(alpha)
        # compute shares, same arithmetic as compute_costs() with the
        # already-fetched workload quantities (per-kind rates equal the
        # peak ones under the analytic profile)
        kind = self._kind(sw)
        cp_i = (alpha * total + psum) / self._rate_i(kind)
        cp_j = ((1.0 - alpha) * total + psum) / self._rate_j(kind)
        return StepDecision(
            ptype=cur_type,
            alpha=alpha,
            cost=ci if ci >= cj else cj,
            cost_i=ci,
            cost_j=cj,
            compute_i=cp_i,
            compute_j=cp_j,
            comm_i=ci - cp_i,
            comm_j=cj - cp_j,
        )

    def boundary_step(
        self,
        boundary_fm_elements: float,
        prev_type: PartitionType,
        cur_type: PartitionType,
        alpha: Optional[float] = None,
    ) -> StepDecision:
        """Cost of re-aligning a boundary tensor with no layer attached.

        Used for identity skip paths in multi-path regions (Section 5.2):
        the skip tensor produced under ``prev_type`` must be consumed under
        ``cur_type``.  With no computation to balance, the nominal ratio is
        the compute-proportional one (or 1/2 for equal-ratio schemes).
        Memoized on ``(elements, prev, cur, α)`` — multi-path joins re-cost
        the same alignments once per entry state and exit alignment.
        """
        if alpha is None:
            alpha = self.nominal_alpha()
        self.stats.boundary_calls += 1
        key = None
        if self.memoize:
            key = (boundary_fm_elements, prev_type, cur_type, alpha)
            cached = self._boundary_cache.get(key)
            if cached is not None:
                self.stats.boundary_cache_hits += 1
                return cached
        decision = self._boundary_uncached(
            boundary_fm_elements, prev_type, cur_type, alpha
        )
        if key is not None:
            self._boundary_cache[key] = decision
        return decision

    def _boundary_uncached(
        self,
        boundary_fm_elements: float,
        prev_type: PartitionType,
        cur_type: PartitionType,
        alpha: float,
    ) -> StepDecision:
        if self.ratio_mode == "comm-volume":
            amount_i, amount_j = inter_layer_elements(
                boundary_fm_elements, prev_type, cur_type, alpha
            )
            volume = (amount_i + amount_j) * self.dtype_bytes
            return StepDecision(ptype=cur_type, alpha=alpha, cost=volume,
                                cost_i=volume, cost_j=volume)
        ci, cj = self.inter_costs(boundary_fm_elements, prev_type, cur_type, alpha)
        return StepDecision(
            ptype=cur_type, alpha=alpha, cost=max(ci, cj),
            cost_i=ci, cost_j=cj, comm_i=ci, comm_j=cj,
        )

    # ------------------------------------------------------------------
    def _comm_volume(
        self,
        sw: ShardedWorkload,
        prev_type: Optional[PartitionType],
        cur_type: PartitionType,
        alpha: float,
    ) -> float:
        """Total bytes moved (both parties): HyPar's optimization objective."""
        intra = 2.0 * sw.a_psum(cur_type) * self.dtype_bytes
        if prev_type is None:
            return intra
        amount_i, amount_j = inter_layer_elements(
            sw.a_input_fm(), prev_type, cur_type, alpha
        )
        return intra + (amount_i + amount_j) * self.dtype_bytes
