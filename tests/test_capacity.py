"""Link rates and the three scheduling capacities."""

import dataclasses
import math

import numpy as np
import pytest

import otocap as oc
from conftest import (
    diamond_instance,
    edge_route,
    full_table_value,
    line_instance,
    linear_table_oracle,
    maxmin_oracle,
    per_pair_tables,
    permute_relays,
    random_instance,
    raw_state_capacities,
    state_space_instances,
)


def two_receiver_instance(g_main=1.0, g_interf=1.0, power=1.0, alpha=1.0, beta=1.0):
    """Node 1 hears both node 0 (intended) and node 2 (interferer)."""
    links = {(0, 1): g_main, (2, 1): g_interf, (1, 3): 1.0, (0, 2): 1.0, (2, 3): 1.0}
    return oc.NetworkInstance.from_links(2, links, power, alpha, beta)


def test_link_rate_ideal_hand_values():
    inst = oc.NetworkInstance.from_links(0, {(0, 1): 1.0}, 1.0, 2.0, 0.0)
    assert math.isclose(oc.link_rates(inst).ideal[(0, 1)], math.log2(5), rel_tol=1e-12)
    inst = oc.NetworkInstance.from_links(0, {(0, 1): 1.0}, 1.0, 1.0, 0.0)
    assert math.isclose(oc.link_rates(inst).ideal[(0, 1)], 1.0, rel_tol=1e-12)
    tiny = dataclasses.replace(inst, alpha=1e-12)
    assert oc.link_rates(tiny).ideal[(0, 1)] < 1e-20


def test_link_rate_tsn_hand_values():
    quiet = oc.link_rates(two_receiver_instance(beta=0.0))
    assert quiet.tsn[(0, 1)] == quiet.ideal[(0, 1)]

    noisy = oc.link_rates(two_receiver_instance())
    assert math.isclose(noisy.tsn[(0, 1)], math.log2(1.5), rel_tol=1e-12)

    # no third party transmits into node 3's other neighbors here
    lone = oc.link_rates(line_instance(1, beta=0.9))
    assert lone.tsn[(0, 1)] == lone.ideal[(0, 1)]


def test_link_rate_leakage_hand_values():
    assert oc.link_rates(two_receiver_instance(beta=0.0)).leakage[(0, 1)] == 0.0
    assert math.isclose(oc.link_rates(two_receiver_instance()).leakage[(0, 1)], 1.0)

    two = oc.NetworkInstance.from_links(
        3,
        {(0, 1): 1.0, (2, 1): 1.0, (3, 1): 2.0, (1, 4): 1.0},
        1.0, 1.0, 1.0,
    )
    assert math.isclose(oc.link_rates(two).leakage[(0, 1)], math.log2(5), rel_tol=1e-12)


def test_interferer_set_excludes_sender_and_receiver():
    rates = oc.link_rates(two_receiver_instance(g_interf=3.0))
    # For 0 -> 1 the only interferer is node 2 (m ranges over senders
    # other than 0; node 1 cannot transmit to itself, node 3 is the
    # destination and never transmits).
    expect = math.log2(1 + 1.0 / (1 + 9.0))
    assert math.isclose(rates.tsn[(0, 1)], expect, rel_tol=1e-12)
    # For 2 -> 1 the interferer is node 0.
    expect = math.log2(1 + 9.0 / (1 + 1.0))
    assert math.isclose(rates.tsn[(2, 1)], expect, rel_tol=1e-12)


def test_link_rates_table_invariants():
    for seed in range(6):
        inst = random_instance(seed=seed, relays=3, beta=0.5, alpha=1.5)
        rates = oc.link_rates(inst)
        assert set(rates.ideal) == set(inst.links())
        for e in inst.links():
            assert 0.0 <= rates.tsn[e] <= rates.ideal[e] + 1e-12
            assert rates.leakage[e] >= 0.0


def test_capacity_single_hop():
    inst = oc.NetworkInstance.from_links(0, {(0, 1): 1.0}, 1.0, 2.0, 0.0)
    for result in (
        oc.capacity_imperfect(inst),
        oc.capacity_ideal(inst),
        oc.rate_tsn(inst),
    ):
        assert math.isclose(result.value, math.log2(5), abs_tol=1e-9)
    value, per_cut, _ = edge_route(inst)
    assert math.isclose(value, math.log2(5), abs_tol=1e-9)
    assert math.isclose(per_cut.min(), math.log2(5), abs_tol=1e-9)
    # a hop that stops short of the destination is valid and carries nothing
    stub = oc.NetworkInstance.from_links(1, {(0, 1): 1.0}, 1.0, 2.0, 0.3)
    for solve in (oc.capacity_imperfect, oc.capacity_ideal, oc.rate_tsn):
        assert solve(stub).value == 0.0


def test_capacity_line_one_bit():
    inst = line_instance(1)
    assert math.isclose(oc.capacity_imperfect(inst).value, 1.0, abs_tol=1e-9)
    assert math.isclose(oc.capacity_ideal(inst).value, 1.0, abs_tol=1e-9)
    assert math.isclose(oc.rate_tsn(inst).value, 1.0, abs_tol=1e-9)


def test_capacity_line_with_leakage_at_least_one_bit():
    inst = line_instance(1, beta=0.5)
    assert oc.capacity_imperfect(inst).value >= 1.0 - 1e-9


def test_capacity_diamond_hand_values():
    ideal = oc.capacity_ideal(diamond_instance())
    assert math.isclose(ideal.value, 1.0, abs_tol=1e-9)
    tsn = oc.rate_tsn(diamond_instance(beta=1.0))
    assert math.isclose(tsn.value, math.log2(1.5), abs_tol=1e-6)


def test_beta_zero_collapses_all_three():
    for seed in range(5):
        inst = random_instance(seed=seed, relays=2, beta=0.0, alpha=1.3)
        space = oc.build_state_space(inst)
        imp = oc.capacity_imperfect(inst, space).value
        ideal = oc.capacity_ideal(inst, space=space).value
        tsn = oc.rate_tsn(inst, space).value
        assert math.isclose(imp, ideal, abs_tol=1e-6)
        assert math.isclose(tsn, ideal, abs_tol=1e-6)


def test_capacities_monotone_in_power_and_alpha():
    base = random_instance(seed=40, relays=2, beta=0.3)
    for field, values in (("power", (0.5, 1.0, 4.0)), ("alpha", (0.5, 1.0, 3.0))):
        prev = None
        for v in values:
            inst = dataclasses.replace(base, **{field: v})
            triple = (
                oc.capacity_imperfect(inst).value,
                oc.capacity_ideal(inst).value,
                oc.rate_tsn(inst).value,
            )
            if prev is not None:
                assert all(b >= a - 1e-9 for a, b in zip(prev, triple))
            prev = triple


def test_relabeling_invariance():
    inst = random_instance(seed=50, relays=3, beta=0.4, alpha=2.0)
    relabeled = permute_relays(inst, (2, 3, 1))
    for fn in (oc.capacity_imperfect, oc.capacity_ideal, oc.rate_tsn):
        assert math.isclose(fn(inst).value, fn(relabeled).value, abs_tol=1e-9)


def test_tsn_never_exceeds_ideal():
    for seed in range(8):
        inst = random_instance(seed=seed, relays=2, beta=float(seed % 3) / 2,
                               alpha=1.0 + seed % 2)
        assert oc.rate_tsn(inst).value <= oc.capacity_ideal(inst).value + 1e-9


def test_tsn_never_exceeds_imperfect_cell_by_cell():
    # A cell's imperfect value is I(x_Omega; y_Omega^c) for Gaussian
    # inputs.  By the chain rule it is at least the sum, over the
    # pattern's aligned crossing links (i, j), of I(x_i; y_j) with the
    # other Omega transmitters' side lobes as noise; link_rates counts
    # every transmitter but i and j as noise, a superset.  So each cell
    # bounds TSN from above, with no LP and no oracle needed.
    instances = [
        oc.generate(oc.GenSpec(topology=topology, relays=n, channel=channel, beta=beta,
                               power=power, seed=n, edge_probability=0.6))
        for topology in ("line", "full", "random") for n in range(5)
        for channel in ("unit", "rayleigh", "los") for beta in (0.05, 0.3, 1.0)
        for power in (0.1, 100.0)
    ]
    rng = np.random.Generator(np.random.Philox(2020))
    for _ in range(100):
        n = int(rng.integers(1, 4))
        links = np.argwhere(oc.admissible_links(n)).tolist()
        gains = {(i, j): complex(*rng.normal(size=2)) for j, i in links}
        instances.append(oc.NetworkInstance.from_links(
            n, gains, power=float(10 ** rng.uniform(-1.0, 3.0)),
            alpha=float(rng.uniform(0.3, 3.0)), beta=float(rng.uniform(0.0, 1.5))))
    for inst in instances:
        space = oc.build_state_space(inst)
        v_imp = oc.cut_block_tables(inst, space).values
        rates = oc.link_rates(inst).tsn
        if inst.num_relays < 4:
            v_tsn = linear_table_oracle(space, rates)
        else:
            # the pair-by-pair oracle would add about a second over N = 4
            v_tsn = (space.crossing * [rates[e] for e in space.links]) @ space.incidence.T
        excess = (v_tsn - v_imp) / np.maximum(1.0, np.abs(v_imp))
        worst = np.unravel_index(np.argmax(excess), excess.shape)
        assert excess[worst] <= 1e-12, (inst.metadata, inst.power, inst.alpha, inst.beta,
                                        space.cuts[worst[0]], space.patterns[worst[1]])


def test_imperfect_beats_any_fixed_pattern():
    inst = random_instance(seed=60, relays=2, beta=0.6)
    space = oc.build_state_space(inst)
    table = oc.imperfect_value_table(inst, space)
    best = oc.capacity_imperfect(inst, space).value
    for col in range(table.values.shape[1]):
        assert best >= float(table.values[:, col].min()) - 1e-9


def test_result_self_consistency():
    inst = random_instance(seed=70, relays=2, beta=0.5, alpha=2.0)
    space = oc.build_state_space(inst)
    rates = oc.link_rates(inst)
    for result, table in (
        (oc.capacity_imperfect(inst), per_pair_tables(inst, space)[0]),
        (oc.capacity_ideal(inst), linear_table_oracle(space, rates.ideal)),
        (oc.rate_tsn(inst), linear_table_oracle(space, rates.tsn)),
    ):
        # weight k is the time share of pattern k, the table's column k
        assert result.weights.shape == (len(space.patterns),)
        assert result.weights.min() >= 0.0
        assert math.isclose(result.value, float(np.min(table @ result.weights)), abs_tol=1e-6)
        assert math.isclose(result.weights.sum(), 1.0, abs_tol=1e-9)
        assert result.model_tag in {"imperfect", "ideal", "tsn"}
    value, per_cut, schedule = edge_route(inst)
    assert math.isclose(value, per_cut.min(), abs_tol=1e-6)
    assert math.isclose(sum(schedule.values()), 1.0, abs_tol=1e-9)


def test_edge_route_matches_pattern_route():
    for seed in range(5):
        inst = random_instance(seed=seed + 100, relays=3, topology="random",
                               edge_probability=0.7)
        space = oc.build_state_space(inst)
        a = oc.capacity_ideal(inst, space).value
        b, per_cut, _ = edge_route(inst)
        assert math.isclose(a, b, abs_tol=1e-6)
        assert math.isclose(a, per_cut.min(), abs_tol=1e-6)


def test_linear_value_table_matches_set_based_oracle():
    for inst in state_space_instances():
        space = oc.build_state_space(inst)
        rates = oc.link_rates(inst)
        for model_rates in (rates.ideal, rates.tsn):
            got = oc.linear_value_table(space, model_rates).values
            want = linear_table_oracle(space, model_rates)[:, space.maximal]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_linear_models_match_the_full_table_lp():
    # the maximal-matching LP has the full-pattern LP's optimum, and its
    # schedule is a distribution over maximal matchings
    for beta in (0.0, 0.3, 1.0):
        specs = [oc.GenSpec(topology="diamond", relays=2, channel="rayleigh", beta=beta)]
        specs += [oc.GenSpec(topology=topology, relays=relays, channel="rayleigh", beta=beta,
                             seed=seed, edge_probability=0.6)
                  for topology, relays, seed in (("line", 5, 0), ("full", 3, 1), ("full", 4, 2),
                                                 ("random", 4, 3), ("random", 5, 4))]
        for inst in map(oc.generate, specs):
            space = oc.build_state_space(inst)
            rates = oc.link_rates(inst)
            for solve, model_rates in ((oc.capacity_ideal, rates.ideal),
                                       (oc.rate_tsn, rates.tsn)):
                result = solve(inst, space)
                want = full_table_value(space, model_rates)
                assert math.isclose(result.value, want, rel_tol=1e-9), (inst.metadata, beta)
                assert not result.weights[~space.maximal].any()
                assert math.isclose(result.weights.sum(), 1.0, rel_tol=1e-12)


def test_imperfect_model_matches_the_full_table_lp(monkeypatch):
    # the LP starts from the maximal matchings and prices in what it
    # lacks, so its value is the full table's optimum and its schedule
    # lies on the master's columns
    entered = []
    price = oc.optimize._entering_columns

    def recorded_price(*args):
        columns = price(*args)
        entered.extend(columns.tolist())
        return columns

    monkeypatch.setattr(oc.optimize, "_entering_columns", recorded_price)
    instances = state_space_instances() + [
        oc.generate(oc.GenSpec(topology="full", relays=4, channel="rayleigh", beta=beta,
                               power=power, seed=seed))
        for seed, (beta, power) in enumerate(
            (b, p) for b in (0.1, 0.5, 1.0) for p in (0.1, 1.0, 100.0))
    ]
    for inst in instances:
        space = oc.build_state_space(inst)
        entered.clear()
        result = oc.capacity_imperfect(inst, space)
        want = maxmin_oracle(result.blocks.values)
        assert math.isclose(result.value, want, rel_tol=1e-9), inst.metadata
        support = np.flatnonzero(result.weights)
        assert set(support.tolist()) <= set(np.flatnonzero(space.maximal).tolist()) | set(entered)
        assert result.weights.min() >= 0.0
        assert math.isclose(result.weights.sum(), 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("seed,relays,beta", [
    (0, 0, 0.7), (1, 1, 0.0), (2, 1, 1.0), (3, 2, 0.3), (4, 2, 1.0),
])
def test_raw_state_oracle_agreement(seed, relays, beta):
    inst = random_instance(seed=seed, relays=relays, beta=beta, alpha=1.5)
    imp, ideal, tsn = raw_state_capacities(inst)
    assert math.isclose(oc.capacity_imperfect(inst).value, imp, abs_tol=1e-9)
    assert math.isclose(oc.capacity_ideal(inst).value, ideal, abs_tol=1e-9)
    assert math.isclose(oc.rate_tsn(inst).value, tsn, abs_tol=1e-9)
