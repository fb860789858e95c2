"""Gap bounds between the imperfect, ideal and side-lobe-noise models.

The analysis rests on two structural assumptions about an instance:

* main-lobe dominance: an aligned link into a receiver is never weaker
  than any side-lobe link into the same receiver, and
* diagonal dominance: every cut block's Gram matrix I + P M M^H is
  (weakly) diagonally dominant across all (pattern, cut) pairs.

Under both, the imperfect and ideal capacities differ by at most
``N * max(log2 N, penalty)`` where the penalty is the worst-case
``|log2(1 - rho)|`` over the dominance sweep.  A sufficiently large
alpha/beta ratio collapses that to the universal ``N log2 N``.  The
side-lobes-as-noise rate trails the ideal capacity by at most
``N log2(Delta) + N * max leakage`` with no assumptions at all.

``verify_instance`` evaluates everything on one instance and treats any
violated bound as an implementation bug: it raises instead of recording
the failure quietly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import MODELS, CapacityResult, LinkRates, _capacities, link_rates
from .enumeration import StateSpace, build_state_space
from .matrices import CutBlockTables, cut_block_tables
from .model import AlignmentPattern, Cut, NetworkInstance, max_degree
from .optimize import DUALITY_RTOL, SolverError

__all__ = [
    "AssumptionReport",
    "RatioCondition",
    "GapReport",
    "TheoremViolationError",
    "check_assumptions",
    "constant_gap_condition",
    "tsn_gap_bound",
    "verify_instance",
]

GAP_TOL = 1e-6
RHO_TIE_RTOL = 1e-12


class TheoremViolationError(AssertionError):
    """A computed gap exceeded its proven bound (implementation bug)."""

    def __init__(self, name: str, detail: str, report: "GapReport"):
        super().__init__(f"{name}: {detail}")
        self.name = name
        self.report = report


@dataclass(frozen=True, slots=True)
class AssumptionReport:
    """Outcome of the two structural assumption checks."""

    main_lobe_stronger: bool
    main_lobe_violations: tuple[tuple[int, int, int], ...]
    diagonally_dominant: bool
    max_rho: float
    worst: tuple[AlignmentPattern, Cut, float]

    @property
    def both_hold(self) -> bool:
        return self.main_lobe_stronger and self.diagonally_dominant


@dataclass(frozen=True, slots=True)
class RatioCondition:
    """Sufficient alpha/beta ratio for the universal N log2 N gap.

    ``threshold`` is the minimum ratio the condition demands; it is NaN
    (and ``applicable`` False) for N <= 1 or linkless instances, where
    the machinery behind the bound has nothing to say.  ``ratio`` is
    +inf at beta = 0, where the condition holds vacuously.
    """

    ratio: float
    threshold: float
    satisfied: bool
    applicable: bool


@dataclass(frozen=True, slots=True)
class GapReport:
    """All gaps, bounds and assumption findings for one instance.

    ``enforced`` names the theorems that applied to the instance and
    were checked, in check order; the others were reported only.
    """

    num_relays: int
    max_degree: int
    c_imperfect: float
    c_ideal: float
    r_tsn: float
    ideal_gap: float
    ideal_gap_bound: float
    dominance_penalty: float
    ratio_condition: RatioCondition
    tsn_gap: float
    tsn_gap_bound: float
    assumptions: AssumptionReport
    schedule_supports: dict[str, int]
    enforced: tuple[str, ...]


def check_assumptions(
    inst: NetworkInstance,
    space: StateSpace | None = None,
    blocks: CutBlockTables | None = None,
) -> AssumptionReport:
    """Evaluate both structural assumptions on one instance.

    Main-lobe violations are reported as (i, j, k) triples: the aligned
    link i -> j would be weaker than the side lobe from k into j.
    ``max_rho`` is the largest dominance ratio over all (pattern, cut)
    Gram matrices.  Its witness ``worst`` is the first maximum with
    patterns outer and cuts inner, with its own ratio; ratios within
    RHO_TIE_RTOL of the maximum tie with it, so that the rounding of
    equal blocks built in a different node order cannot move the
    witness.  ``blocks`` are this instance's and space's cut-block
    tables when the caller already has them.
    """
    space = space or build_state_space(inst)
    violations = []
    for j, row in enumerate(inst.link_mask()):
        mags = {i: abs(inst.channel[j, i]) for i in np.flatnonzero(row).tolist()}
        violations += [
            (i, j, k)
            for i in mags
            for k in mags
            if k != i and inst.alpha * mags[i] < inst.beta * mags[k]
        ]
    rho = (blocks or cut_block_tables(inst, space)).rho.T
    max_rho = float(rho.max())
    tied = rho >= max_rho - RHO_TIE_RTOL * max(1.0, max_rho)
    pk, ck = divmod(int(np.argmax(tied)), rho.shape[1])
    return AssumptionReport(
        main_lobe_stronger=not violations,
        main_lobe_violations=tuple(violations),
        diagonally_dominant=max_rho <= 1.0,
        max_rho=max_rho,
        worst=(space.patterns[pk], space.cuts[ck], float(rho[pk, ck])),
    )


def _ideal_gap_terms(n: int, max_rho: float) -> tuple[float, float]:
    """(penalty |log2(1 - max_rho)|, bound N * max(log2 N, penalty)).

    Past strict dominance the penalty is inf at max_rho = 1 and NaN
    above, and so is the bound.  For N = 0 the two models coincide
    exactly (a lone cross-cut link is either aligned or not, and the
    best schedule aligns it), so the bound is 0.
    """
    if max_rho < 1.0:
        penalty = abs(math.log2(1.0 - max_rho))
    elif max_rho == 1.0:
        penalty = math.inf
    else:
        return math.nan, (0.0 if n == 0 else math.nan)
    return penalty, (n * max(math.log2(n), penalty) if n else 0.0)


def _gain_ratio(inst: NetworkInstance) -> float:
    """Worst squared-magnitude ratio between two nonzero links.

    Compares every ordered pair of links, a conservative superset of the
    index constraints the analysis needs; NaN for a linkless instance.
    """
    mags = [abs(inst.channel[j, i]) ** 2 for i, j in inst.links()]
    return max(mags) / min(mags) if mags else math.nan


def constant_gap_condition(inst: NetworkInstance) -> RatioCondition:
    """Check alpha/beta against the threshold for the N log2 N gap.

    The threshold is Delta^2 * N/(N-1) * (worst link-gain ratio).  Not
    applicable for N <= 1 (the factor N/(N-1) is undefined and the
    bound would be vacuous) or when the instance has no links.
    """
    return _ratio_condition(inst, max_degree(inst))


def _ratio_condition(inst: NetworkInstance, delta: int) -> RatioCondition:
    """``constant_gap_condition`` given the instance's maximum degree."""
    n = inst.num_relays
    ratio = math.inf if inst.beta == 0 else inst.alpha / inst.beta
    if n <= 1 or not inst.links():
        return RatioCondition(
            ratio=ratio, threshold=math.nan, satisfied=False, applicable=False
        )
    threshold = delta**2 * (n / (n - 1)) * _gain_ratio(inst)
    return RatioCondition(
        ratio=ratio,
        threshold=float(threshold),
        satisfied=bool(ratio >= threshold),
        applicable=True,
    )


def tsn_gap_bound(inst: NetworkInstance) -> float:
    """Bound N log2(Delta) + N * max leakage on the ideal-vs-TSN gap.

    A linkless instance (Delta = 0) has nothing to lose, so its bound is 0.
    """
    return _tsn_gap_bound(inst, max_degree(inst), link_rates(inst))


def _tsn_gap_bound(inst: NetworkInstance, delta: int, rates: LinkRates) -> float:
    """``tsn_gap_bound`` given the maximum degree and the link rates."""
    if delta == 0:
        return 0.0
    worst_leak = max(rates.leakage.values())
    return inst.num_relays * math.log2(delta) + inst.num_relays * worst_leak


def _check_cross_model(
    space: StateSpace,
    blocks: CutBlockTables,
    rates: LinkRates,
    results: list[CapacityResult],
) -> None:
    """Raise SolverError unless every model's schedule is worth at least
    as much on that model's table as each other model's schedule is.

    Each table values a schedule's ``weights`` over every pattern: the
    imperfect model through the cut-block values ``blocks``, the linear
    models through the link rates that cross each cut.  An optimal
    schedule cannot lose to another, so a loss beyond DUALITY_RTOL *
    max(1, |own value|) means a wrong optimum.
    """
    link_values = {
        tag: space.crossing * np.array([r[e] for e in space.links], dtype=float)
        for tag, r in (("ideal", rates.ideal), ("tsn", rates.tsn))
    }

    def value(tag: str, weights: np.ndarray) -> float:
        if tag == "imperfect":
            return float(np.min(blocks.values @ weights))
        return float(np.min(link_values[tag] @ (space.incidence.T @ weights)))

    for own in results:
        mine = value(own.model_tag, own.weights)
        for other in results:
            theirs = value(own.model_tag, other.weights)
            if theirs - mine > DUALITY_RTOL * max(1.0, abs(mine)):
                raise SolverError(
                    f"{own.model_tag} table: the {other.model_tag} schedule is worth "
                    f"{theirs:.9g}, more than the {own.model_tag} optimum {mine:.9g}"
                )


def verify_instance(inst: NetworkInstance) -> GapReport:
    """Compute all capacities, gaps and bounds and enforce the bounds.

    Each of the five theorems is one row of a table: its name, whether
    it applies to this instance, the gap it limits and its bound.  The
    report's ``enforced`` names the rows that apply, in check order, and
    TheoremViolationError is raised for the first of them whose gap
    exceeds its bound by more than GAP_TOL -- such a violation means a
    bug, not an interesting data point.  Every gap and bound is reported
    whether or not its theorem applies.  SolverError is raised first when
    a model's schedule is worth less on its own table than another
    model's schedule.
    """
    space = build_state_space(inst)
    n = inst.num_relays
    delta = max_degree(inst)
    rates = link_rates(inst)

    results = _capacities(inst, space, MODELS, rates)
    imperfect, ideal, tsn = results
    _check_cross_model(space, imperfect.blocks, rates, results)
    assumptions = check_assumptions(inst, space, imperfect.blocks)

    penalty, bound = _ideal_gap_terms(n, assumptions.max_rho)
    condition = _ratio_condition(inst, delta)
    ideal_gap = abs(imperfect.value - ideal.value)
    tsn_gap = ideal.value - tsn.value
    tsn_bound = _tsn_gap_bound(inst, delta, rates)
    both = assumptions.both_hold
    # The relay-count budget N*log2(N) absorbs the cut-size accounting
    # only for N >= 2 (and trivially at N = 0).  With exactly one relay
    # a cut containing both source and relay contributes log2(2) = 1 bit
    # of side-lobe slack against a zero budget, so the ideal-gap bound
    # can genuinely be exceeded there: full topology, N=1, unit gains,
    # alpha=1, beta=0.1, P=1 has gap log2(2.01) - 1 > 0 with every
    # dominance ratio equal to zero.  The bound is still reported at
    # N = 1 but not enforced.
    theorems = (
        ("ideal-gap-bound", n != 1 and both and math.isfinite(bound), ideal_gap, bound),
        ("constant-gap-bound", both and condition.applicable and condition.satisfied,
         ideal_gap, n * math.log2(n) if n else 0.0),
        ("tsn-dominated-by-ideal", True, -tsn_gap, 0.0),
        ("tsn-gap-bound", True, tsn_gap, tsn_bound),
        ("ideal-degeneration", inst.beta == 0, ideal_gap, 0.0),
    )

    report = GapReport(
        num_relays=n,
        max_degree=delta,
        c_imperfect=imperfect.value,
        c_ideal=ideal.value,
        r_tsn=tsn.value,
        ideal_gap=ideal_gap,
        ideal_gap_bound=bound,
        dominance_penalty=penalty,
        ratio_condition=condition,
        tsn_gap=tsn_gap,
        tsn_gap_bound=tsn_bound,
        assumptions=assumptions,
        schedule_supports={
            "imperfect": imperfect.schedule.support_size,
            "ideal": ideal.schedule.support_size,
            "tsn": tsn.schedule.support_size,
        },
        enforced=tuple(name for name, applies, _, _ in theorems if applies),
    )
    _enforce(report, theorems)
    return report


def _enforce(report: GapReport, theorems: tuple[tuple[str, bool, float, float], ...]) -> None:
    """Raise for the first applicable (name, applies, gap, bound) row broken."""
    for name, applies, gap, limit in theorems:
        if applies and gap > limit + GAP_TOL:
            raise TheoremViolationError(
                name, f"gap {gap:.9g} exceeds bound {limit:.9g}", report
            )
