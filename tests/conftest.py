"""Shared builders and independent oracles for the test suite.

The oracle helpers deliberately avoid the library's own computation
paths (the pattern x link incidence enumeration, batched cut-block
kernel, value-table assembly, priced master LP) so that agreement
between the two routes is evidence, not tautology.  ``maxmin_oracle``
solves a table's max-min LP over every column with HiGHS called
directly.  The raw-state oracle enumerates every
joint beam configuration and is used by tests only.  The edge-fraction
LP reaches the ideal capacity over per-link fractions, from cuts listed
by relay bitmask and HiGHS called directly.  The Ostrowski and
Hadamard-Fischer bounds sandwich the determinant of a diagonally
dominant Gram matrix, the fact the gap analysis runs on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog

import otocap as oc

# -- instance builders ----------------------------------------------------


def line_instance(n, power=1.0, alpha=1.0, beta=0.0, gain=1.0):
    links = {(i, i + 1): gain for i in range(n + 1)}
    return oc.NetworkInstance.from_links(n, links, power, alpha, beta)


def diamond_instance(power=1.0, alpha=1.0, beta=0.0, gains=(1.0, 1.0, 1.0, 1.0)):
    g01, g02, g13, g23 = gains
    links = {(0, 1): g01, (0, 2): g02, (1, 3): g13, (2, 3): g23}
    return oc.NetworkInstance.from_links(2, links, power, alpha, beta)


def random_instance(seed, relays, topology="full", channel="rayleigh",
                    power=1.0, alpha=1.0, beta=0.0, edge_probability=1.0):
    spec = oc.GenSpec(
        topology=topology,
        relays=relays,
        channel=channel,
        power=power,
        alpha=alpha,
        beta=beta,
        seed=seed,
        edge_probability=edge_probability,
    )
    return oc.generate(spec)


def permute_relays(inst, perm):
    """Relabel relay r as perm[r-1] (perm is a permutation of [1:N])."""
    n = inst.num_relays
    mapping = {0: 0, n + 1: n + 1}
    for r in range(1, n + 1):
        mapping[r] = perm[r - 1]
    links = {
        (mapping[i], mapping[j]): inst.channel[j, i]
        for i, j in inst.links()
    }
    return oc.NetworkInstance.from_links(n, links, inst.power, inst.alpha, inst.beta)


# -- independent oracles --------------------------------------------------


def brute_force_patterns(links):
    """All partial matchings over the given (tx, rx) pairs, by filtering
    every subset of the link set."""
    links = sorted(links)
    found = set()
    for r in range(len(links) + 1):
        for combo in itertools.combinations(links, r):
            txs = [i for i, _ in combo]
            rxs = [j for _, j in combo]
            if len(set(txs)) == len(txs) and len(set(rxs)) == len(rxs):
                found.add(frozenset(combo))
    return found


RAW_STATE_MAX_RELAYS = 2


@dataclass(frozen=True)
class NodeState:
    """One joint beam configuration for every node.

    ``tx_target[i]`` is the node that i points its transmit beam at
    (None for no target), ``rx_source[i]`` the node that i listens to.
    The destination never transmits and the source never receives.
    Targets are unrestricted otherwise -- a node may point at a zero
    link, which simply never aligns anything useful.
    """

    tx_target: tuple[int | None, ...]
    rx_source: tuple[int | None, ...]

    def __post_init__(self):
        n_nodes = len(self.tx_target)
        if len(self.rx_source) != n_nodes:
            raise ValueError("tx_target and rx_source length mismatch")
        if self.tx_target[n_nodes - 1] is not None:
            raise ValueError("destination cannot transmit")
        if self.rx_source[0] is not None:
            raise ValueError("source cannot receive")


def enumerate_raw_states(inst, cap=RAW_STATE_MAX_RELAYS):
    """Cartesian product of per-node beam choices (oracle scale only).

    Beam targets are unrestricted to nonzero links: a node may point at
    anything it is allowed to point at, useful or not.  This blows up as
    roughly 12^N and is capped accordingly.
    """
    n = inst.num_relays
    if n > cap:
        raise oc.EnumerationCapError(
            f"raw-state enumeration is an oracle for <= {cap} relays, got {n}"
        )
    dest = inst.destination
    tx_choices = []
    rx_choices = []
    for v in range(dest + 1):
        if v == dest:
            tx_choices.append([None])
        else:
            tx_choices.append([None] + [j for j in range(1, dest + 1) if j != v])
        if v == 0:
            rx_choices.append([None])
        else:
            rx_choices.append([None] + [i for i in range(n + 1) if i != v])
    states = []
    for txs in itertools.product(*tx_choices):
        for rxs in itertools.product(*rx_choices):
            states.append(NodeState(tuple(txs), tuple(rxs)))
    return states


def pattern_of_state(state, inst):
    """Collapse a raw state to the alignment pattern it realises.

    A link i -> j makes it into the pattern only when both ends agree
    (i transmits toward j, j listens to i) and the link is nonzero.
    """
    pairs = []
    for i, target in enumerate(state.tx_target):
        if target is None:
            continue
        j = target
        if state.rx_source[j] == i and inst.channel[j, i] != 0:
            pairs.append((i, j))
    return oc.AlignmentPattern(tuple(pairs))


def state_effective_channel(inst, state):
    """Effective channel computed directly from beam orientations:
    every entry leaks at beta, then mutually pointing pairs get alpha."""
    eff = inst.beta * np.array(inst.channel)
    for i, target in enumerate(state.tx_target):
        if target is not None and state.rx_source[target] == i:
            eff[target, i] = inst.alpha * inst.channel[target, i]
    return eff


def logdet_oracle(m, power):
    """log2 det(I + P M M^H) via slogdet, independent of the library."""
    a = np.eye(m.shape[0]) + power * (m @ m.conj().T)
    sign, logabs = np.linalg.slogdet(a)
    assert sign.real > 0
    return float(logabs / np.log(2.0))


def raw_state_capacities(inst):
    """(imperfect, ideal, tsn) values computed over raw node states.

    Columns are raw states (duplicates across states sharing a pattern
    are allowed); the LP is indifferent to duplicated columns.  Cut
    matrices are taken without any diagonal arrangement and the log-det
    goes through slogdet, so this path shares no matrix code with the
    library.
    """
    states = enumerate_raw_states(inst)
    n = inst.num_relays
    sides = source_sides(n)

    rate_ideal = {}
    rate_tsn = {}
    for i, j in inst.links():
        g = abs(inst.channel[j, i]) ** 2
        interf = sum(
            abs(inst.channel[j, m]) ** 2
            for m in range(n + 1)
            if m != i and m != j
        )
        rate_ideal[(i, j)] = np.log2(1 + inst.power * inst.alpha**2 * g)
        rate_tsn[(i, j)] = np.log2(
            1 + inst.power * inst.alpha**2 * g / (1 + inst.power * inst.beta**2 * interf)
        )

    def active_pairs(state):
        pairs = []
        for i, target in enumerate(state.tx_target):
            if (
                target is not None
                and state.rx_source[target] == i
                and inst.channel[target, i] != 0
            ):
                pairs.append((i, target))
        return pairs

    v_imp = np.zeros((len(sides), len(states)))
    v_ideal = np.zeros_like(v_imp)
    v_tsn = np.zeros_like(v_imp)
    for si, state in enumerate(states):
        eff = state_effective_channel(inst, state)
        pairs = active_pairs(state)
        for ci, side in enumerate(sides):
            rows = [v for v in range(n + 2) if v not in side]
            cols = sorted(side)
            v_imp[ci, si] = logdet_oracle(eff[np.ix_(rows, cols)], inst.power)
            crossing = [(i, j) for i, j in pairs if i in side and j not in side]
            v_ideal[ci, si] = sum(rate_ideal[e] for e in crossing)
            v_tsn[ci, si] = sum(rate_tsn[e] for e in crossing)

    return tuple(maxmin_oracle(v) for v in (v_imp, v_ideal, v_tsn))


def state_space_instances():
    """Line, diamond, full and random instances with N = 0..4."""
    specs = [oc.GenSpec(topology="diamond", relays=2, channel="rayleigh", beta=0.3)]
    for n in range(5):
        for k, topology in enumerate(("line", "full", "random")):
            specs.append(oc.GenSpec(topology=topology, relays=n, channel="rayleigh",
                                    beta=0.3, seed=10 * n + k, edge_probability=0.6))
    return [oc.generate(spec) for spec in specs]


def linear_table_oracle(space, rates):
    """V[cut, pattern] summed pair by pair: the rates of a pattern's
    aligned links that leave the cut's source side, by set membership."""
    patterns = list(space.patterns)
    v = np.zeros((len(space.cuts), len(patterns)))
    for ck, cut in enumerate(space.cuts):
        omega = set(cut.omega)
        for pk, pattern in enumerate(patterns):
            v[ck, pk] = sum(rates[(i, j)] for i, j in pattern.pairs
                            if i in omega and j not in omega)
    return v


def maximal_oracle(space):
    """Per pattern, by set membership: True when no link of the state
    space has both its transmitter and its receiver unused."""
    maximal = []
    for pattern in space.patterns:
        txs = {i for i, _ in pattern.pairs}
        rxs = {j for _, j in pattern.pairs}
        maximal.append(all(i in txs or j in rxs for i, j in space.links))
    return np.array(maximal, dtype=bool)


def maxmin_oracle(v):
    """Max-min value of table v over distributions on all its columns:
    the epigraph LP handed to HiGHS directly, valued at its weights."""
    v = np.asarray(v, dtype=float)
    n_cuts, n_cols = v.shape
    res = linprog(np.r_[-1.0, np.zeros(n_cols)],
                  A_ub=np.hstack([np.ones((n_cuts, 1)), -v]), b_ub=np.zeros(n_cuts),
                  A_eq=np.r_[0.0, np.ones(n_cols)][None, :], b_eq=[1.0],
                  bounds=[(None, None)] + [(0, None)] * n_cols, method="highs",
                  options={"primal_feasibility_tolerance": 1e-9,
                           "dual_feasibility_tolerance": 1e-9})
    assert res.status == 0, res.message
    x = np.maximum(res.x[1:], 0.0)
    return float(np.min(v @ (x / x.sum())))


def full_table_value(space, rates):
    """Max-min value of a linear model's LP with a column for every
    pattern, maximal or not."""
    return maxmin_oracle(linear_table_oracle(space, rates))


def source_sides(num_relays):
    """Every cut's source side as a set: node 0, plus relay r when bit
    r-1 of the cut's mask is set."""
    return [{0} | {r for r in range(1, num_relays + 1) if mask >> (r - 1) & 1}
            for mask in range(1 << num_relays)]


def edge_lp(inst, rates):
    """(max-min value, {link: fraction}) over per-link activation
    fractions x with unit node budgets.

    Each node may transmit for at most a unit fraction of the time and
    receive for at most a unit fraction, separately (full duplex); x <= 1
    follows.  A cut's value sums rate * x over the links that leave its
    source side.  Only ``rates`` comes from the library.
    """
    edges = sorted(rates)
    sides = source_sides(inst.num_relays)
    rate_vec = np.array([rates[e] for e in edges])
    crossing = np.array([[i in side and j not in side for i, j in edges]
                         for side in sides], dtype=float)
    nodes = range(inst.num_relays + 2)
    budgets = np.array([[i == v for i, _ in edges] for v in nodes]
                       + [[j == v for _, j in edges] for v in nodes], dtype=float)

    # variables (t, x); maximise t below every cut's value
    c = np.zeros(len(edges) + 1)
    c[0] = -1.0
    a_ub = np.block([[np.ones((len(sides), 1)), -crossing * rate_vec],
                     [np.zeros((len(budgets), 1)), budgets]])
    b_ub = np.concatenate([np.zeros(len(sides)), np.ones(len(budgets))])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] + [(0, None)] * len(edges), method="highs",
                  options={"primal_feasibility_tolerance": 1e-9,
                           "dual_feasibility_tolerance": 1e-9})
    assert res.status == 0, res.message

    x = np.maximum(res.x[1:], 0.0)
    # keep budgets exactly feasible in the face of solver slack
    x /= max(1.0, float(np.max(budgets @ x, initial=0.0)))
    value = float(np.min(crossing @ (rate_vec * x)))
    return value, {e: float(v) for e, v in zip(edges, x) if v > 0.0}


def edge_route(inst):
    """The ideal model through the edge LP: (LP value, per-cut values of
    the schedule decomposed from its fractions, that schedule).

    Each cut's value sums, over the schedule's patterns, the weight times
    the rates of the aligned links that leave the cut's source side.
    """
    rates = oc.link_rates(inst).ideal
    value, fractions = edge_lp(inst, rates)
    schedule = oc.decompose_edge_fractions(fractions)
    per_cut = np.array([
        sum(w * rates[(i, j)] for pattern, w in schedule.weights.items()
            for i, j in pattern.pairs if i in side and j not in side)
        for side in source_sides(inst.num_relays)
    ])
    return value, per_cut, schedule


def per_pair_tables(inst, space):
    """(V, rho)[cut, pattern] built one block at a time.

    This is the per-pair route through ``cut_state_matrix`` that the
    batched kernel replaces: every (pattern, cut) block is sliced from the
    full effective channel, with no deduplication.
    """
    v = np.zeros((len(space.cuts), len(space.patterns)))
    rho = np.zeros_like(v)
    for pk, pattern in enumerate(space.patterns):
        for ck, cut in enumerate(space.cuts):
            m = oc.cut_state_matrix(inst, pattern, cut)
            v[ck, pk] = oc.log_det_capacity(m, inst.power)
            rho[ck, pk] = oc.cut_dominance_ratio(m, inst.power)
    return v, rho


class OstrowskiBound(NamedTuple):
    value: float
    dominance_ok: bool


def ostrowski_lower_bound(a: np.ndarray) -> OstrowskiBound:
    """Ostrowski-style determinant lower bound (1 - rho)^n * prod(diag).

    For a Hermitian matrix with positive diagonal and dominance ratio
    rho < 1 this lower-bounds det(A).  When rho >= 1 the formula value
    (zero or negative) is still returned, flagged as not dominant.
    """
    a = np.asarray(a)
    rho = float(oc.dominance_ratio(a))
    value = float((1.0 - rho) ** a.shape[0] * np.prod(np.real(np.diag(a))))
    return OstrowskiBound(value=value, dominance_ok=rho < 1.0)


def hadamard_upper_bound(a: np.ndarray) -> float:
    """Hadamard-Fischer determinant upper bound: the diagonal product."""
    a = np.asarray(a)
    return float(np.prod(np.real(np.diag(a))))


def mp_cut_log_det(inst, aligned, cut, digits=60):
    """log2 det(I + P M M^H) of one cut block, at ``digits`` digits.

    M has rows Omega^c and columns Omega, side lobes at beta and the
    ``aligned`` (tx, rx) pairs at alpha.  Every product is taken in
    mpmath, so only the float inputs are shared with the library.
    """
    import mpmath

    with mpmath.workdps(digits):
        def entry(j, i):
            gain = inst.alpha if (i, j) in aligned else inst.beta
            h = inst.channel[j, i]
            return mpmath.mpf(gain) * mpmath.mpc(h.real, h.imag)

        m = mpmath.matrix([[entry(j, i) for i in cut.omega] for j in cut.complement])
        gram = mpmath.eye(m.rows) + mpmath.mpf(inst.power) * m * m.H
        return float(mpmath.log(mpmath.re(mpmath.det(gram)), 2))
