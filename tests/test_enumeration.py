"""Cut, pattern, and raw-state enumeration; caps; canonical ordering."""

import numpy as np
import pytest

import otocap as oc
from conftest import (
    NodeState,
    brute_force_patterns,
    diamond_instance,
    enumerate_raw_states,
    line_instance,
    maximal_oracle,
    pattern_of_state,
    random_instance,
    source_sides,
    state_space_instances,
)


def omegas(cuts):
    return [set(c.omega) for c in cuts]


def patterns_of(inst):
    return list(oc.build_state_space(inst).patterns)


def cuts_of(inst):
    return oc.build_state_space(inst).cuts


def test_cut_counts_and_order():
    assert omegas(cuts_of(line_instance(0))) == [{0}]
    assert omegas(cuts_of(line_instance(1))) == [{0}, {0, 1}]
    n2 = omegas(cuts_of(diamond_instance()))
    assert n2 == [{0}, {0, 1}, {0, 2}, {0, 1, 2}]
    assert len(cuts_of(line_instance(3))) == 8


def test_pattern_list_single_link():
    inst = oc.NetworkInstance.from_links(0, {(0, 1): 1.0}, 1.0, 1.0, 0.0)
    patterns = patterns_of(inst)
    assert [p.pairs for p in patterns] == [(), ((0, 1),)]


def test_pattern_list_line_canonical_order():
    patterns = patterns_of(line_instance(1))
    assert [p.pairs for p in patterns] == [
        (),
        ((0, 1),),
        ((0, 1), (1, 2)),
        ((1, 2),),
    ]


def test_diamond_pattern_count_matches_brute_force():
    inst = diamond_instance()
    patterns = patterns_of(inst)
    oracle = brute_force_patterns(inst.links())
    assert {frozenset(p.pairs) for p in patterns} == oracle
    # 1 empty + 4 singletons + 4 conflict-free pairs; the two-link sets
    # sharing a transmitter (0) or a receiver (3) are not matchings.
    assert len(patterns) == 9


@pytest.mark.parametrize("seed,relays", [(3, 1), (4, 2), (9, 2)])
def test_pattern_enumeration_matches_brute_force_random(seed, relays):
    inst = random_instance(seed=seed, relays=relays, topology="random",
                           edge_probability=0.7)
    patterns = patterns_of(inst)
    assert {frozenset(p.pairs) for p in patterns} == brute_force_patterns(inst.links())
    assert len({p.pairs for p in patterns}) == len(patterns)


def test_pattern_pairs_only_on_nonzero_links():
    inst = line_instance(2)
    for p in patterns_of(inst):
        for i, j in p.pairs:
            assert inst.channel[j, i] != 0


def test_raw_state_count_single_link():
    inst = oc.NetworkInstance.from_links(0, {(0, 1): 1.0}, 1.0, 1.0, 0.0)
    states = enumerate_raw_states(inst)
    assert len(states) == 4


def test_raw_state_count_is_link_independent():
    # Raw states range over all targets allowed by the node-state rules,
    # not just existing links: N=1 gives 3 * (2*2) * 3 assignments.
    assert len(enumerate_raw_states(line_instance(1))) == 36


def test_pattern_of_state_examples():
    inst = oc.NetworkInstance.from_links(0, {(0, 1): 1.0}, 1.0, 1.0, 0.0)
    aligned = NodeState(tx_target=(1, None), rx_source=(None, 0))
    assert pattern_of_state(aligned, inst).pairs == ((0, 1),)
    half = NodeState(tx_target=(1, None), rx_source=(None, None))
    assert pattern_of_state(half, inst) == oc.EMPTY_PATTERN

    line = line_instance(1)
    idle = NodeState(tx_target=(None,) * 3, rx_source=(None,) * 3)
    assert pattern_of_state(idle, line) == oc.EMPTY_PATTERN
    full = NodeState(tx_target=(1, 2, None), rx_source=(None, 0, 1))
    assert pattern_of_state(full, line).pairs == ((0, 1), (1, 2))
    # both ends agree on the source->destination pair, but that link is zero
    over_zero = NodeState(tx_target=(2, None, None), rx_source=(None, None, 0))
    assert pattern_of_state(over_zero, line) == oc.EMPTY_PATTERN


@pytest.mark.parametrize("build", [
    lambda: line_instance(1),
    lambda: diamond_instance(),
    lambda: random_instance(seed=11, relays=2, topology="random", edge_probability=0.6),
])
def test_state_pattern_map_is_into_and_onto(build):
    inst = build()
    patterns = set(patterns_of(inst))
    images = {pattern_of_state(s, inst) for s in enumerate_raw_states(inst)}
    assert images == patterns


def test_raw_state_cap():
    with pytest.raises(oc.EnumerationCapError):
        enumerate_raw_states(line_instance(3))


def test_enumeration_caps_and_env_override(monkeypatch):
    big = line_instance(6)
    with pytest.raises(oc.EnumerationCapError) as err:
        oc.build_state_space(big)
    assert "5" in str(err.value)

    monkeypatch.setenv(oc.CAP_ENV_VAR, "9")
    assert len(patterns_of(big)) > 0

    monkeypatch.setenv(oc.CAP_ENV_VAR, "not-a-number")
    with pytest.raises(oc.EnumerationCapError) as err:
        oc.build_state_space(line_instance(1))
    assert "must be an integer" in str(err.value)


def linked_at(space, row):
    return {space.links[k] for k in np.flatnonzero(row)}


def test_state_space_links_and_incidences_match_set_definitions():
    for inst in state_space_instances():
        n = inst.num_relays
        space = oc.build_state_space(inst)
        nonzero = {(i, j) for i in range(n + 1) for j in range(1, n + 2)
                   if i != j and inst.channel[j, i] != 0}
        assert space.links == tuple(inst.links())
        assert set(space.links) == nonzero and len(space.links) == len(nonzero)

        assert space.incidence.shape == (len(space.patterns), len(space.links))
        assert space.crossing.shape == (len(space.cuts), len(space.links))
        assert space.incidence.dtype == space.crossing.dtype == bool
        for pattern, row in zip(space.patterns, space.incidence):
            assert linked_at(space, row) == set(pattern.pairs)
        for cut, row in zip(space.cuts, space.crossing):
            omega = set(cut.omega)
            assert linked_at(space, row) == {
                (i, j) for i, j in nonzero if i in omega and j not in omega
            }

        sides = source_sides(n)
        assert space.source_side.shape == (len(sides), n + 2) == (len(space.cuts), n + 2)
        assert space.source_side.dtype == bool
        for c, side in enumerate(sides):
            assert set(np.flatnonzero(space.source_side[c]).tolist()) == side
            assert space.cuts[c].omega == tuple(sorted(side))
        assert not space.incidence.flags.writeable
        assert not space.source_side.flags.writeable
        assert not space.crossing.flags.writeable


def test_only_the_rho_witness_builds_a_cut(monkeypatch):
    built = []
    post_init = oc.model.Cut.__post_init__

    def counted(cut):
        built.append(cut)
        post_init(cut)

    monkeypatch.setattr(oc.model.Cut, "__post_init__", counted)
    inst = random_instance(seed=0, relays=3, beta=0.3)
    space = oc.build_state_space(inst)
    assert space.crossing.any()
    oc.cut_block_tables(inst, space)
    for solve in (oc.capacity_imperfect, oc.capacity_ideal, oc.rate_tsn):
        solve(inst)
        solve(inst, space)
    assert built == []

    report = oc.verify_instance(inst)
    assert len(built) == 1 and built[0] is report.assumptions.worst[1]


def test_crossing_of_a_linkless_state_space():
    inst = oc.NetworkInstance.from_links(2, {}, 1.0, 1.0, 0.0)
    crossing = oc.build_state_space(inst).crossing
    assert crossing.shape == (4, 0) and crossing.dtype == bool


def test_maximal_mask_matches_set_based_oracle():
    linkless = oc.NetworkInstance.from_links(2, {}, 1.0, 1.0, 0.0)
    for inst in [*state_space_instances(), linkless]:
        space = oc.build_state_space(inst)
        assert space.maximal.shape == (len(space.patterns),) and space.maximal.dtype == bool
        np.testing.assert_array_equal(space.maximal, maximal_oracle(space))
        assert not space.maximal.flags.writeable
    # with no link at all, the empty pattern is the one maximal matching
    assert oc.build_state_space(linkless).maximal.tolist() == [True]


@pytest.mark.parametrize("topology,relays,maximal,patterns", [
    ("full", 4, 97, 888), ("full", 5, 574, 7380), ("line", 5, 1, 64),
])
def test_maximal_matching_counts(topology, relays, maximal, patterns):
    space = oc.build_state_space(oc.generate(oc.GenSpec(topology=topology, relays=relays)))
    assert (int(space.maximal.sum()), len(space.patterns)) == (maximal, patterns)


def test_enumeration_is_deterministic():
    a = oc.build_state_space(diamond_instance())
    b = oc.build_state_space(diamond_instance())
    assert list(a.patterns) == list(b.patterns)
    assert np.array_equal(a.incidence, b.incidence)


def test_pattern_order_matches_sorted_brute_force():
    checked = 0
    for inst in state_space_instances():
        if len(inst.links()) > 16:
            continue
        space = oc.build_state_space(inst)
        want = sorted(tuple(sorted(m)) for m in brute_force_patterns(inst.links()))
        assert [p.pairs for p in space.patterns] == want
        checked += 1
    assert checked >= 12


@pytest.mark.parametrize("relays,count", [(4, 888), (5, 7380)])
def test_full_mesh_patterns_are_ascending_matchings(relays, count):
    inst = random_instance(seed=0, relays=relays)
    space = oc.build_state_space(inst)
    pairs = [p.pairs for p in space.patterns]
    assert len(pairs) == space.incidence.shape[0] == count
    assert all(a < b for a, b in zip(pairs, pairs[1:]))
    for row in space.incidence:
        linked = [space.links[k] for k in np.flatnonzero(row)]
        assert len({i for i, _ in linked}) == len({j for _, j in linked}) == len(linked)


def test_pattern_view_takes_integer_indices_only():
    space = oc.build_state_space(line_instance(1))
    assert space.patterns[-1] == space.patterns[np.int64(3)] == oc.AlignmentPattern(((1, 2),))
    with pytest.raises(TypeError):
        space.patterns[0:2]
    with pytest.raises(IndexError):
        space.patterns[4]
