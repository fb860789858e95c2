"""Max-min scheduling LP and edge-fraction decomposition.

The pattern LP optimises a distribution over alignment patterns
directly: one variable per pattern, one constraint per cut.  It is the
epigraph LP ``max t  s.t.  (cut value) >= t`` handed to HiGHS via
scipy, solved over a master set of columns that pricing grows until a
weak-duality certificate over the whole table closes: weights lambda
give ``lower = min_c (V lambda)_c``, the master's cut duals y (clipped
to >= 0 and normalised to sum to one) give ``upper = max_p (V^T y)_p``,
and lower <= optimum <= upper holds for any such pair.  The solver is
deterministic for a fixed input, and both bounds are re-derived from
the returned variables (never read off solver internals).  The LP knows
columns, not patterns: it returns the weight vector over the table's
columns, and the caller that built the table names the patterns.

``decompose_edge_fractions`` peels per-link activation fractions under
unit transmit/receive budgets into a schedule over partial matchings.
Schedules are keyed by ``AlignmentPattern``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .model import EMPTY_PATTERN, AlignmentPattern

__all__ = [
    "MaxMinProblem",
    "Schedule",
    "SolverError",
    "solve_maxmin",
    "decompose_edge_fractions",
]

# weights / fractions below this are snapped to exactly zero
WEIGHT_FLOOR = 1e-12
# a fraction or node load may exceed its unit budget by this much
BUDGET_SLACK = 1e-9
# a node is tight when its load is within this of the maximum load
TIGHT_LOAD_TOL = 1e-12
DUALITY_RTOL = 1e-7
# a master LP not certified after this many rounds raises
MAX_ROUNDS = 50
# columns priced into the master per round, at most
COLUMNS_PER_ROUND = 8
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}


class SolverError(RuntimeError):
    """LP solver failed or returned a certificate outside tolerance."""


@dataclass(frozen=True)
class MaxMinProblem:
    """Value table V[cut, pattern] for the schedule LP."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"value table must be a non-empty 2-D array, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("value table contains non-finite entries")
        if np.min(v) < -WEIGHT_FLOOR:
            raise ValueError("value table contains negative entries")
        object.__setattr__(self, "values", np.maximum(v, 0.0))


@dataclass(frozen=True)
class Schedule:
    """Activation-time distribution over alignment patterns.

    ``weights`` keeps only strictly positive entries, in canonical
    pattern order (ascending ``pairs``, empty pattern first).
    """

    weights: dict[AlignmentPattern, float]

    @property
    def support_size(self) -> int:
        return len(self.weights)

    def total(self) -> float:
        return float(sum(self.weights.values()))


def _solve_master(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weights, cut duals y) of the epigraph LP over the columns of v.

    The weights are renormalised to sum to one with entries below
    WEIGHT_FLOOR snapped to zero; y is clipped to >= 0 and normalised to
    sum to one.
    """
    n_cuts, n_cols = v.shape

    # variables z = (t, lambda_1 .. lambda_S); maximise t
    c = np.zeros(n_cols + 1)
    c[0] = -1.0
    a_ub = np.hstack([np.ones((n_cuts, 1)), -v])
    a_eq = np.zeros((1, n_cols + 1))
    a_eq[0, 1:] = 1.0
    bounds = [(None, None)] + [(0, None)] * n_cols

    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n_cuts),
        A_eq=a_eq,
        b_eq=np.ones(1),
        bounds=bounds,
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise SolverError(f"max-min LP failed: status {res.status} ({res.message})")
    ineq = getattr(res, "ineqlin", None)
    if ineq is None or ineq.marginals is None:
        raise SolverError("HiGHS returned no inequality marginals to check the optimum with")

    lam = np.maximum(res.x[1:], 0.0)
    lam[lam < WEIGHT_FLOOR] = 0.0
    total = lam.sum()
    if total <= 0:
        raise SolverError("max-min LP returned an all-zero schedule")
    # a <= row's marginal is the (nonpositive) change of min -t per unit of b_ub
    y = np.maximum(-np.asarray(ineq.marginals, dtype=float), 0.0)
    if y.sum() <= 0:
        raise SolverError("max-min LP returned all-zero cut duals")
    return lam / total, y / y.sum()


def _entering_columns(prices: np.ndarray, lower: float, master: np.ndarray) -> np.ndarray:
    """The <= COLUMNS_PER_ROUND columns outside ``master`` priced above
    ``lower``, highest price first."""
    candidates = np.setdiff1d(np.flatnonzero(prices > lower), master)
    order = np.argsort(-prices[candidates], kind="stable")
    return candidates[order[:COLUMNS_PER_ROUND]]


def solve_maxmin(problem: MaxMinProblem, start: np.ndarray | None = None) -> np.ndarray:
    """Maximise the minimum cut value over pattern distributions.

    Solves a master LP over the ``start`` columns (every column when
    None) and certifies it over the whole table: it stops when
    ``upper - lower`` is within DUALITY_RTOL * max(1, |lower|), and
    otherwise prices the best columns into the master and solves again.
    Returns the weight of every column of the table, supported on the
    master's columns, summing to one with weights below WEIGHT_FLOOR
    snapped to zero.  Raises SolverError when HiGHS fails or returns no
    dual values, when the gap is open and pricing adds no column, or
    after MAX_ROUNDS rounds without a certificate.
    """
    v = problem.values
    master = np.arange(v.shape[1]) if start is None else np.asarray(start, dtype=np.intp)
    for _ in range(MAX_ROUNDS):
        weights, y = _solve_master(v[:, master])
        lam = np.zeros(v.shape[1])
        lam[master] = weights
        lower = float(np.min(v @ lam))
        prices = y @ v
        gap = float(prices.max()) - lower
        if gap <= DUALITY_RTOL * max(1.0, abs(lower)):
            return lam
        entering = _entering_columns(prices, lower, master)
        if not entering.size:
            raise SolverError(
                f"duality gap {gap:.3e} open at value {lower:.6g} and pricing adds no column"
            )
        master = np.concatenate([master, entering])
    raise SolverError(f"max-min LP not certified after {MAX_ROUNDS} rounds (gap {gap:.3e})")


def decompose_edge_fractions(x: Mapping[tuple[int, int], float]) -> Schedule:
    """Peel edge fractions x[(i, j)] into a schedule over partial matchings.

    Repeatedly extracts a matching that covers every node whose residual
    tx/rx load attains the current maximum and peels off as much weight
    as the matching supports.  That choice keeps the total extracted
    weight equal to the initial maximum load (hence <= 1) and terminates
    within #edges + #nodes rounds: every round either zeroes an edge or
    promotes a new node to the maximum-load set.  Leftover time goes to
    the empty pattern.  Reproduces every x[e] exactly (to 1e-9).
    """
    for e, v in x.items():
        i, j = e
        if i == j or not (i >= 0 and j >= 1):
            raise ValueError(f"invalid edge {e} in fractions")
        if not v >= 0.0:
            raise ValueError(f"fraction for edge {e} must be nonnegative, got {v}")
        if v > 1.0 + BUDGET_SLACK:
            raise ValueError(f"fraction for edge {e} exceeds 1: {v}")
    residual = {e: v for e, v in x.items() if v > WEIGHT_FLOOR}

    weights: dict[AlignmentPattern, float] = {}
    tx_nodes = sorted({i for i, _ in residual})
    rx_nodes = sorted({j for _, j in residual})
    max_rounds = len(residual) + 2 * (len(tx_nodes) + len(rx_nodes)) + 8

    for _ in range(max_rounds):
        if not residual:
            break
        tx_load = {i: 0.0 for i in tx_nodes}
        rx_load = {j: 0.0 for j in rx_nodes}
        for (i, j), v in residual.items():
            tx_load[i] += v
            rx_load[j] += v
        l_max = max(max(tx_load.values(), default=0.0), max(rx_load.values(), default=0.0))
        if l_max > 1.0 + BUDGET_SLACK:
            raise ValueError(f"node budget exceeded: maximum load {l_max}")
        if l_max <= WEIGHT_FLOOR:
            break

        tight_tx = {i for i, v in tx_load.items() if v >= l_max - TIGHT_LOAD_TOL}
        tight_rx = {j for j, v in rx_load.items() if v >= l_max - TIGHT_LOAD_TOL}
        matching = _cover_matching(residual, tx_nodes, rx_nodes, tight_tx, tight_rx)

        covered_tx = {i for i, _ in matching}
        covered_rx = {j for _, j in matching}
        uncov = [v for i, v in tx_load.items() if i not in covered_tx]
        uncov += [v for j, v in rx_load.items() if j not in covered_rx]
        headroom = l_max - max(uncov, default=0.0)
        lam = min(min(residual[e] for e in matching), headroom)
        if lam <= 0:
            raise RuntimeError("decomposition stalled (internal error)")

        pattern = AlignmentPattern(tuple(matching))
        weights[pattern] = weights.get(pattern, 0.0) + lam
        for e in matching:
            residual[e] -= lam
            if residual[e] < WEIGHT_FLOOR:
                del residual[e]
    if residual:
        raise RuntimeError("decomposition did not terminate (internal error)")

    out = {pattern: w for pattern, w in weights.items() if w > WEIGHT_FLOOR}
    remainder = 1.0 - sum(out.values())
    if remainder > WEIGHT_FLOOR:
        out[EMPTY_PATTERN] = remainder
    return Schedule(weights=dict(sorted(out.items(), key=lambda kv: kv[0].pairs)))


def _cover_matching(residual, tx_nodes, rx_nodes, tight_tx, tight_rx):
    """Matching within the residual support covering all tight nodes.

    Found via a max-weight assignment where an edge scores one point per
    tight endpoint; a matching covering every tight node exists whenever
    the loads are substochastic, so the optimum attains full coverage.
    """
    tx_pos = {i: k for k, i in enumerate(tx_nodes)}
    rx_pos = {j: k for k, j in enumerate(rx_nodes)}
    weight = np.zeros((len(tx_nodes), len(rx_nodes)))
    for i, j in residual:
        weight[tx_pos[i], rx_pos[j]] = (i in tight_tx) + (j in tight_rx)
    rows, cols = linear_sum_assignment(weight, maximize=True)
    matching = [
        (tx_nodes[r], rx_nodes[c])
        for r, c in zip(rows, cols)
        if (tx_nodes[r], rx_nodes[c]) in residual
    ]
    covered_tx = {i for i, _ in matching}
    covered_rx = {j for _, j in matching}
    if not (tight_tx <= covered_tx and tight_rx <= covered_rx):
        raise RuntimeError("no matching covers the maximum-load nodes (internal error)")
    return matching
