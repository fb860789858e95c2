"""Approximate capacities of the three channel models.

Three max-min objectives share one LP core and differ only in how a
(pattern, cut) pair is valued:

* ``capacity_imperfect`` -- log-det of the cut block under the
  pattern, side lobes included.  This is the general model.
* ``capacity_ideal`` -- sum of ideal point-to-point link rates over the
  aligned cross-cut links (the beta = 0 degeneration).
* ``rate_tsn`` -- same LP as the ideal model but with every link rate
  discounted by the worst-case side-lobe leakage treated as noise
  (treat-side-lobes-as-noise).

The two linear models value a pattern on a cut as a sum of nonnegative
link rates, so a pattern is never worth more than a maximal matching
that contains it.  Their LPs therefore have one column per maximal
matching (``StateSpace.maximal``) and the same optimum as over every
pattern; their tables are one product over the state space's cut x link
crossing and the maximal rows of its pattern x link incidence.  The
imperfect model has no such order (an aligned link can lower a cut's
log-det), so its table keeps one column per pattern: the LP starts from
the maximal matchings' columns and ``solve_maxmin`` certifies the
result against the whole table, pricing in any column it is missing.

The models' tables come from one state space and one set of link rates,
and ``solve_maxmin`` solves the tables of every model asked for
together, in one HiGHS call per pricing round: ``verify_instance`` and
``otocap capacity --model all`` ask for all three models, and each
public function below asks for its own model alone.  A result's
schedule is its weight vector over ``space.patterns``; only the CLI
names patterns, when it prints them.

All rates are bits per channel use, logs base 2.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .enumeration import StateSpace, build_state_space
from .matrices import CutBlockTables, cut_block_tables
from .model import NetworkInstance
from .optimize import MaxMinProblem, solve_maxmin

__all__ = [
    "LinkRates",
    "CapacityResult",
    "link_rates",
    "imperfect_value_table",
    "linear_value_table",
    "capacity_imperfect",
    "capacity_ideal",
    "rate_tsn",
]


@dataclass(frozen=True)
class LinkRates:
    """Per-link rates of the ideal and side-lobe-aware models.

    ``leakage[(i, j)]`` is the rate a single worst side-lobe interferer
    could sustain into receiver j; it upper-bounds what treating side
    lobes as noise costs on that link and vanishes at beta = 0.
    """

    ideal: dict[tuple[int, int], float]
    tsn: dict[tuple[int, int], float]
    leakage: dict[tuple[int, int], float]


def link_rates(inst: NetworkInstance) -> LinkRates:
    """All three per-link rate maps over the nonzero links.

    Link i -> j has aligned signal P a^2 |h_ji|^2.  Its side-lobe
    interferers are every transmitter other than i and j, each at gain
    P b^2 |h_jm|^2.  ``ideal`` is log2(1 + signal), ``tsn`` treats the
    interferers' summed gain as noise, and ``leakage`` is the rate of
    the strongest interferer alone.
    """
    h, n = inst.channel, inst.num_relays
    ideal, tsn, leakage = {}, {}, {}
    for i, j in inst.links():
        interferers = [float(abs(h[j, m]) ** 2) for m in range(n + 1) if m != i and m != j]
        signal = inst.power * inst.alpha**2 * abs(h[j, i]) ** 2
        noise = 1.0 + inst.power * inst.beta**2 * sum(interferers)
        worst = inst.power * inst.beta**2 * max(interferers, default=0.0)
        ideal[(i, j)] = float(np.log2(1.0 + signal))
        tsn[(i, j)] = float(np.log2(1.0 + signal / noise))
        leakage[(i, j)] = float(np.log2(1.0 + worst))
    return LinkRates(ideal=ideal, tsn=tsn, leakage=leakage)


def imperfect_value_table(inst: NetworkInstance, space: StateSpace) -> CutBlockTables:
    """V[cut, pattern] = log-det capacity of the cut block under the pattern.

    The tables also hold every block's dominance ratio; see
    ``cut_block_tables``.
    """
    return cut_block_tables(inst, space)


def linear_value_table(
    space: StateSpace, rates: dict[tuple[int, int], float]
) -> MaxMinProblem:
    """V[cut, k] = sum of per-link rates over aligned cross-cut links.

    Column k is the k-th maximal matching, the pattern
    ``space.patterns[np.flatnonzero(space.maximal)[k]]``; the other
    patterns have no column.  ``rates`` must hold a rate for every link
    in ``space.links``.
    """
    rate_vec = np.array([rates[e] for e in space.links])
    return MaxMinProblem(values=(space.crossing * rate_vec) @ space.incidence[space.maximal].T)


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value with the schedule that achieves it.

    ``value`` is the least value the schedule achieves across any cut of
    the state space.  ``weights`` is the schedule: the time share of
    every ``space.patterns`` row, summing to one, zero off its support.
    ``blocks`` holds the imperfect model's cut-block tables, whose
    dominance ratios the assumption check can reuse; it is None for the
    other models.
    """

    value: float
    model_tag: str
    weights: np.ndarray = field(repr=False, compare=False)
    blocks: CutBlockTables | None = field(default=None, repr=False, compare=False)


# the models _capacities can solve, in the order verify_instance uses
MODELS = ("imperfect", "ideal", "tsn")


def _capacities(
    inst: NetworkInstance,
    space: StateSpace,
    models: Sequence[str],
    rates: LinkRates | None = None,
) -> list[CapacityResult]:
    """The capacity of each named model, from one ``solve_maxmin`` call.

    ``models`` names models of MODELS; their tables are built from
    ``space`` and ``rates`` (this instance's link rates, computed here
    when None and a linear model is named) and solved together, one
    block per table.  Results come in the order of ``models``.
    """
    blocks = imperfect_value_table(inst, space) if "imperfect" in models else None
    if rates is None and set(models) != {"imperfect"}:
        rates = link_rates(inst)
    tables = [MaxMinProblem(values=blocks.values) if tag == "imperfect"
              else linear_value_table(space, getattr(rates, tag)) for tag in models]
    # the imperfect LP starts from the maximal columns of its full table;
    # a linear table has only those columns
    maximal = np.flatnonzero(space.maximal)
    solved = solve_maxmin(*tables, starts=[maximal if tag == "imperfect" else None
                                           for tag in models])
    results = []
    for tag, table, lam in zip(models, tables, solved):
        weights = lam
        if tag != "imperfect":
            weights = np.zeros(len(space.incidence))
            weights[maximal] = lam
        results.append(CapacityResult(
            value=float(np.min(table.values @ lam)),
            model_tag=tag,
            weights=weights,
            blocks=blocks if tag == "imperfect" else None,
        ))
    return results


def capacity_imperfect(
    inst: NetworkInstance, space: StateSpace | None = None
) -> CapacityResult:
    """Approximate capacity of the side-lobe (imperfect beamforming) model.

    The table has a column per pattern.  The LP starts from the maximal
    matchings' columns and is certified against every column, so the
    value is the full table's optimum; the schedule is supported on the
    columns the LP used, usually maximal matchings only.
    """
    (result,) = _capacities(inst, space or build_state_space(inst), ("imperfect",))
    return result


def capacity_ideal(inst: NetworkInstance, space: StateSpace | None = None) -> CapacityResult:
    """Approximate capacity of the ideal (zero side-lobe) model.

    This is the pattern LP over ideal link rates, with one column per
    maximal matching, so the schedule uses maximal matchings only; the
    test suite checks it against an independent LP over per-link
    activation fractions.
    """
    (result,) = _capacities(inst, space or build_state_space(inst), ("ideal",))
    return result


def rate_tsn(inst: NetworkInstance, space: StateSpace | None = None) -> CapacityResult:
    """Achievable rate when side-lobe leakage is treated as noise.

    Like ``capacity_ideal``, its LP has one column per maximal matching.
    """
    (result,) = _capacities(inst, space or build_state_space(inst), ("tsn",))
    return result
