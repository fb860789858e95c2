"""Max-min LP, the edge-fraction LP oracle, and schedule decomposition."""

import math

import numpy as np
import pytest

import otocap as oc
from conftest import (
    count_linprog,
    diamond_instance,
    edge_lp,
    line_instance,
    maxmin_oracle,
    random_instance,
)


def solve(v):
    """(weight vector, max-min value) of the pattern LP over table v."""
    v = np.asarray(v, dtype=float)
    (lam,) = oc.solve_maxmin(oc.MaxMinProblem(v))
    return lam, float(np.min(v @ lam))


def test_maxmin_single_cell():
    lam, value = solve([[1.0]])
    assert math.isclose(value, 1.0, abs_tol=1e-9)
    assert lam.tolist() == [1.0]


def test_maxmin_symmetric_split():
    lam, value = solve([[1.0, 0.0], [0.0, 1.0]])
    assert math.isclose(value, 0.5, abs_tol=1e-9)
    assert math.isclose(lam[0], 0.5, abs_tol=1e-9)
    assert math.isclose(lam[1], 0.5, abs_tol=1e-9)


def test_maxmin_picks_dominant_column():
    lam, value = solve([[1.0, 3.0]])
    assert math.isclose(value, 3.0, abs_tol=1e-9)
    assert lam.tolist() == [0.0, 1.0]


def test_maxmin_weight_cleanup():
    lam, _ = solve([[1.0, 1.0 - 1e-15]])
    assert math.isclose(lam.sum(), 1.0, abs_tol=1e-9)
    assert np.all((lam == 0.0) | (lam >= oc.optimize.WEIGHT_FLOOR))


def test_maxmin_rejects_bad_tables():
    with pytest.raises(ValueError):
        oc.MaxMinProblem(np.array([[1.0, float("nan")]]))
    with pytest.raises(ValueError):
        oc.MaxMinProblem(np.array([[1.0, -0.5]]))
    with pytest.raises(ValueError):
        oc.MaxMinProblem(np.zeros((0, 3)))
    # a tiny negative from upstream floating error is clamped, not fatal
    prob = oc.MaxMinProblem(np.array([[1.0, -1e-14]]))
    assert prob.values.min() == 0.0


def test_maxmin_scale_equivariance():
    rng = np.random.Generator(np.random.Philox(77))
    for _ in range(10):
        v = rng.uniform(0.0, 5.0, size=(rng.integers(1, 6), rng.integers(1, 7)))
        _, base = solve(v)
        c = float(rng.uniform(0.2, 9.0))
        _, scaled = solve(c * v)
        assert math.isclose(scaled, c * base, rel_tol=1e-7, abs_tol=1e-9)


def test_maxmin_schedule_self_consistency():
    rng = np.random.Generator(np.random.Philox(78))
    v = rng.uniform(0.0, 3.0, size=(6, 12))
    lam, value = solve(v)
    assert lam.shape == (12,)
    assert np.all(lam >= 0)
    assert math.isclose(lam.sum(), 1.0, abs_tol=1e-9)
    # no worse than any single column or the uniform mixture
    assert value >= v.min(axis=0).max() - 1e-9
    assert value >= float(np.min(v.mean(axis=1))) - 1e-9


def weak_start_table():
    """(table, start): a random table whose start columns are scaled down,
    so that the master over them alone is suboptimal."""
    rng = np.random.Generator(np.random.Philox(81))
    v = rng.uniform(0.0, 1.0, size=(6, 40))
    v[:, :3] *= 0.2
    return v, np.arange(3)


def random_tables():
    """Three random tables of different shapes, none with a weak start."""
    rng = np.random.Generator(np.random.Philox(82))
    return [rng.uniform(0.0, 4.0, size=shape) for shape in ((5, 9), (3, 4), (8, 17))]


def record_rounds(monkeypatch):
    """Per round, the column count of each master solved in it."""
    rounds = []
    master = oc.optimize._solve_master

    def counted_master(tables):
        rounds.append([t.shape[1] for t in tables])
        return master(tables)

    monkeypatch.setattr(oc.optimize, "_solve_master", counted_master)
    return rounds


def test_pricing_certifies_a_suboptimal_start(monkeypatch):
    v, start = weak_start_table()
    entered = []
    price = oc.optimize._entering_columns

    def recorded_price(*args):
        columns = price(*args)
        entered.extend(columns.tolist())
        return columns

    rounds = record_rounds(monkeypatch)
    monkeypatch.setattr(oc.optimize, "_entering_columns", recorded_price)
    (lam,) = oc.solve_maxmin(oc.MaxMinProblem(v), starts=[start])

    sizes = [size for (size,) in rounds]
    assert len(sizes) >= 2
    # each round adds at most COLUMNS_PER_ROUND new columns
    assert all(0 < b - a <= oc.optimize.COLUMNS_PER_ROUND for a, b in zip(sizes, sizes[1:]))
    assert len(set(entered)) == len(entered) and not set(entered) & set(start.tolist())
    assert set(np.flatnonzero(lam).tolist()) <= set(start.tolist()) | set(entered)
    assert math.isclose(lam.sum(), 1.0, abs_tol=1e-9)
    want = maxmin_oracle(v)
    assert want > float(np.min(v[:, start] @ np.ones(3) / 3)) + 0.1
    assert math.isclose(float(np.min(v @ lam)), want, rel_tol=1e-9)


def test_stacked_blocks_each_reach_their_own_optimum(monkeypatch):
    tables = random_tables()
    calls = count_linprog(monkeypatch)
    solved = oc.solve_maxmin(*map(oc.MaxMinProblem, tables))
    assert len(calls) == 1
    assert [lam.shape for lam in solved] == [(v.shape[1],) for v in tables]
    for v, lam in zip(tables, solved):
        assert np.all(lam >= 0) and math.isclose(lam.sum(), 1.0, abs_tol=1e-9)
        assert math.isclose(float(np.min(v @ lam)), maxmin_oracle(v), rel_tol=1e-9)


def test_a_mixed_round_solves_only_the_open_block(monkeypatch):
    weak, _ = weak_start_table()
    tables = [weak, *random_tables()[:2]]
    rounds = record_rounds(monkeypatch)
    # the weak table starts from one poor column; the others from all of theirs
    solved = oc.solve_maxmin(*map(oc.MaxMinProblem, tables), starts=[np.array([0]), None, None])

    assert rounds[0] == [1, tables[1].shape[1], tables[2].shape[1]]
    assert len(rounds) >= 2
    # the two full tables certify in round 1; later rounds solve the weak
    # one alone, over a master that grows every round
    assert all(len(r) == 1 for r in rounds[1:])
    assert all(a[0] < b[0] for a, b in zip(rounds, rounds[1:]))
    for v, lam in zip(tables, solved):
        assert math.isclose(float(np.min(v @ lam)), maxmin_oracle(v), rel_tol=1e-9)


def test_entering_columns_are_the_best_priced_outside_the_master():
    prices = np.array([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 6.0, 4.0, 10.0, 0.5, 9.5])
    # column 9 is in the master, columns 1 and 10 are priced below 1.5,
    # and of the nine left the cheapest (column 5) misses the cut of eight
    got = oc.optimize._entering_columns(prices, 1.5, np.array([9]))
    assert got.tolist() == [11, 2, 6, 4, 7, 0, 8, 3]


def weak_last(others):
    """The weak table after ``others`` tables that certify in round 1, and
    the start columns of all of them."""
    v, start = weak_start_table()
    return [*random_tables()[:others], v], [None] * others + [start]


def test_open_gap_without_entering_columns_raises(monkeypatch):
    monkeypatch.setattr(oc.optimize, "_entering_columns",
                        lambda *args: np.array([], dtype=np.intp))
    for others in (0, 2):
        tables, starts = weak_last(others)
        with pytest.raises(oc.SolverError, match="pricing adds no column"):
            oc.solve_maxmin(*map(oc.MaxMinProblem, tables), starts=starts)


def test_round_cap_raises(monkeypatch):
    monkeypatch.setattr(oc.optimize, "MAX_ROUNDS", 1)
    for others in (0, 2):
        tables, starts = weak_last(others)
        with pytest.raises(oc.SolverError, match="not certified after 1 rounds"):
            oc.solve_maxmin(*map(oc.MaxMinProblem, tables), starts=starts)
        # the full tables certify in their first round
        for table, lam in zip(tables, oc.solve_maxmin(*map(oc.MaxMinProblem, tables))):
            assert math.isclose(float(np.min(table @ lam)), maxmin_oracle(table), rel_tol=1e-9)


@pytest.mark.parametrize("solve_lp", [
    lambda: solve([[1.0, 0.0], [0.0, 1.0]]),
    lambda: oc.solve_maxmin(oc.MaxMinProblem(np.eye(3)), starts=[np.array([0])]),
    lambda: oc.solve_maxmin(*map(oc.MaxMinProblem, random_tables())),
], ids=["pattern_lp", "priced_master", "stacked_blocks"])
def test_missing_marginals_raise_solver_error(monkeypatch, solve_lp):
    real = oc.optimize.linprog

    def without_marginals(*args, **kwargs):
        res = real(*args, **kwargs)
        assert res.status == 0
        del res["ineqlin"]
        return res

    monkeypatch.setattr(oc.optimize, "linprog", without_marginals)
    with pytest.raises(oc.SolverError, match="marginals"):
        solve_lp()


def test_edge_lp_single_link():
    inst = oc.NetworkInstance.from_links(0, {(0, 1): 1.0}, 1.0, 2.0, 0.0)
    rates = {(0, 1): math.log2(5)}
    value, fractions = edge_lp(inst, rates)
    assert math.isclose(value, math.log2(5), abs_tol=1e-9)
    assert math.isclose(fractions[(0, 1)], 1.0, abs_tol=1e-9)


def test_edge_lp_line_full_duplex():
    inst = line_instance(1)
    value, fractions = edge_lp(inst, {(0, 1): 1.0, (1, 2): 1.0})
    assert math.isclose(value, 1.0, abs_tol=1e-9)
    assert math.isclose(fractions[(0, 1)], 1.0, abs_tol=1e-9)
    assert math.isclose(fractions[(1, 2)], 1.0, abs_tol=1e-9)


def test_edge_lp_diamond_value_and_budgets():
    inst = diamond_instance()
    rates = {e: 1.0 for e in inst.links()}
    value, x = edge_lp(inst, rates)
    assert math.isclose(value, 1.0, abs_tol=1e-9)
    for node in range(4):
        assert sum(w for (i, _), w in x.items() if i == node) <= 1 + 1e-9
        assert sum(w for (_, j), w in x.items() if j == node) <= 1 + 1e-9
    # the half-on-every-edge point is one optimum; any optimum must put
    # a total of 1 across the source's two outgoing edges
    assert math.isclose(x.get((0, 1), 0.0) + x.get((0, 2), 0.0), 1.0, abs_tol=1e-9)


def test_decompose_trivial_cases():
    sched = oc.decompose_edge_fractions({(0, 1): 1.0})
    assert sched.keys() == {oc.AlignmentPattern(((0, 1),))}
    assert math.isclose(sched[oc.AlignmentPattern(((0, 1),))], 1.0, abs_tol=1e-9)

    sched = oc.decompose_edge_fractions({})
    assert sched == {oc.EMPTY_PATTERN: 1.0}


def test_decompose_diamond_half_fractions():
    # Half on every edge peels into two complementary two-edge matchings
    # at weight 1/2 (which pair is returned is an implementation choice;
    # both the perfect-matching and the path-matching splits are valid).
    inst = diamond_instance()
    sched = oc.decompose_edge_fractions({e: 0.5 for e in inst.links()})
    assert len(sched) == 2
    per_edge = {e: 0.0 for e in inst.links()}
    for pattern, w in sched.items():
        assert math.isclose(w, 0.5, abs_tol=1e-9)
        assert len(pattern.pairs) == 2
        for pair in pattern.pairs:
            per_edge[pair] += w
    assert all(math.isclose(v, 0.5, abs_tol=1e-9) for v in per_edge.values())


def test_decompose_rejects_budget_violation():
    with pytest.raises(ValueError):
        oc.decompose_edge_fractions({(0, 1): 0.8, (0, 2): 0.8})


@pytest.mark.parametrize("edge", [(1, 1), (-1, 2), (2, 0)])
def test_decompose_rejects_invalid_edges(edge):
    with pytest.raises(ValueError, match="invalid edge"):
        oc.decompose_edge_fractions({(0, 1): 0.5, edge: 0.5})
    # checked whatever the fraction, not only above the weight floor
    with pytest.raises(ValueError, match="invalid edge"):
        oc.decompose_edge_fractions({(0, 1): 0.5, edge: 0.0})


def test_decompose_rejects_fraction_above_one():
    slack = oc.optimize.BUDGET_SLACK
    with pytest.raises(ValueError, match="exceeds 1"):
        oc.decompose_edge_fractions({(0, 1): 1.0 + 2 * slack})
    # within the slack a fraction still counts as the full unit budget
    sched = oc.decompose_edge_fractions({(0, 1): 1.0 + slack / 2})
    assert list(sched) == [oc.AlignmentPattern(((0, 1),))]
    # NaN and negative fractions are malformed input, not idle time
    with pytest.raises(ValueError, match="must be nonnegative, got nan"):
        oc.decompose_edge_fractions({(0, 1): float("nan")})
    with pytest.raises(ValueError, match="must be nonnegative, got -0.5"):
        oc.decompose_edge_fractions({(0, 1): -0.5, (1, 2): 0.5})


def _edge_loads(x):
    tx, rx = {}, {}
    for (i, j), w in x.items():
        tx[i] = tx.get(i, 0.0) + w
        rx[j] = rx.get(j, 0.0) + w
    return tx, rx


@pytest.mark.parametrize("seed", range(8))
def test_decompose_reproduces_random_fractions(seed):
    rng = np.random.Generator(np.random.Philox(900 + seed))
    inst = random_instance(seed=seed, relays=int(rng.integers(1, 4)),
                           topology="random", edge_probability=0.8)
    links = inst.links()
    if not links:
        pytest.skip("drew a linkless instance")
    raw = {e: float(rng.uniform(0.0, 1.0)) for e in links}
    tx, rx = _edge_loads(raw)
    worst = max(list(tx.values()) + list(rx.values()))
    x = {e: w / max(worst, 1.0) for e, w in raw.items()}

    sched = oc.decompose_edge_fractions(x)

    assert sum(sched.values()) <= 1 + 1e-9
    assert all(w > 0 for w in sched.values())
    assert len(sched) <= len(links) + inst.num_relays + 2 + 1
    # pattern keys over the instance's links, in canonical pattern order
    assert all(isinstance(p, oc.AlignmentPattern) for p in sched)
    assert {pair for p in sched for pair in p.pairs} <= set(links)
    canonical = oc.build_state_space(inst).patterns
    assert list(sched) == [p for p in canonical if p in sched]

    per_edge = {e: 0.0 for e in links}
    for pattern, w in sched.items():
        for pair in pattern.pairs:
            per_edge[pair] += w
    for e in links:
        assert math.isclose(per_edge[e], x[e], abs_tol=1e-9)


def test_decompose_saturated_budgets():
    # every node budget exactly tight: the line with x = 1 everywhere
    inst = line_instance(3)
    x = {e: 1.0 for e in inst.links()}
    sched = oc.decompose_edge_fractions(x)
    assert sched == {oc.AlignmentPattern(tuple(inst.links())): 1.0}
