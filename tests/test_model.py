"""Instance construction, validation, degrees, and effective channels."""

import dataclasses

import numpy as np
import pytest

import otocap as oc
from conftest import (
    NodeState,
    diamond_instance,
    enumerate_raw_states,
    line_instance,
    pattern_of_state,
    permute_relays,
    random_instance,
    state_space_instances,
)


def test_from_links_places_entries_receiver_row_transmitter_col():
    inst = line_instance(1, gain=3.0)
    assert inst.channel.shape == (3, 3)
    assert inst.channel[1, 0] == 3.0
    assert inst.channel[2, 1] == 3.0
    assert inst.channel[2, 0] == 0.0
    assert inst.links() == [(0, 1), (1, 2)]


def test_channel_is_read_only():
    inst = line_instance(1)
    with pytest.raises(ValueError):
        inst.channel[1, 0] = 5.0


def test_from_links_rejects_bad_indices():
    with pytest.raises(ValueError):
        oc.NetworkInstance.from_links(1, {(2, 1): 1.0}, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        oc.NetworkInstance.from_links(1, {(0, 0): 1.0}, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        oc.NetworkInstance.from_links(1, {(1, 1): 1.0}, 1.0, 1.0, 0.0)


def test_validate_flags_self_channel():
    channel = np.zeros((3, 3), dtype=np.complex128)
    channel[1, 0] = 1.0
    channel[2, 1] = 1.0
    channel[1, 1] = 0.5
    with pytest.raises(ValueError) as exc:
        oc.NetworkInstance(1, channel, 1.0, 1.0, 0.0)
    assert str(exc.value) == "self-channel at node 1"
    # the source and the destination have no self-channel either
    channel[0, 0] = channel[2, 2] = 0.5
    with pytest.raises(ValueError) as exc:
        oc.NetworkInstance(1, channel, 1.0, 1.0, 0.0)
    assert str(exc.value) == "; ".join(f"self-channel at node {v}" for v in range(3))


def test_validate_flags_out_of_range_coefficients():
    channel = np.zeros((3, 3), dtype=np.complex128)
    channel[1, 0] = 1.0
    channel[2, 1] = 1.0
    channel[0, 1] = 0.7  # node 0 is not a receiver
    channel[1, 2] = 0.7  # node 2 is not a transmitter
    with pytest.raises(ValueError) as exc:
        oc.NetworkInstance(1, channel, 1.0, 1.0, 0.0)
    assert str(exc.value) == (
        "coefficient outside receiver/transmitter range at (0, 1); "
        "coefficient outside receiver/transmitter range at (1, 2)"
    )


def test_validate_flags_bad_parameters():
    channel = np.zeros((2, 2), dtype=np.complex128)
    channel[1, 0] = 1.0
    with pytest.raises(ValueError) as exc:
        oc.NetworkInstance(0, channel, -1.0, 0.0, -0.5)
    assert str(exc.value) == (
        "power must be positive, got -1.0; alpha must be positive, got 0.0; "
        "beta must be nonnegative, got -0.5"
    )
    # every way of building an instance runs the same checks
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(line_instance(1), power=0.0)
    assert str(exc.value) == "power must be positive, got 0.0"
    with pytest.raises(ValueError) as exc:
        oc.platooning_instance(2, beta=-1.0)
    assert str(exc.value) == "beta must be nonnegative, got -1.0"
    # alpha**2 would raise a bare OverflowError later, in link_rates
    with pytest.raises(ValueError) as exc:
        oc.NetworkInstance.from_links(1, {(0, 1): 1.0, (1, 2): 1.0}, 1.0, 1e200, 0.0)
    assert str(exc.value) == (
        "power * max(alpha, beta)^2 * sum |h|^2 overflows: power=1.0, alpha=1e+200, "
        "beta=0.0, strongest link (0, 1) has |h|=1.0"
    )
    # the relay count must be an integer within the limit from_links applies
    with pytest.raises(ValueError) as exc:
        oc.NetworkInstance(1.5, np.zeros((3, 3)), 1, 1, 0)
    assert str(exc.value) == "num_relays must be in [0, 1000], got 1.5"
    with pytest.raises(ValueError) as exc:
        oc.NetworkInstance(1001, np.zeros((1003, 1003)), 1, 1, 0)
    assert str(exc.value) == "num_relays must be in [0, 1000], got 1001"
    inst = oc.NetworkInstance(np.int64(0), channel, 1.0, 1.0, 0.0)
    assert inst.num_relays == 0 and type(inst.num_relays) is int


def test_max_degree_hand_values():
    assert oc.max_degree(line_instance(1)) == 2
    assert oc.max_degree(diamond_instance()) == 2
    empty = oc.NetworkInstance(1, np.zeros((3, 3), dtype=np.complex128), 1.0, 1.0, 0.0)
    assert oc.max_degree(empty) == 0
    # full N=2: every node neighbours the other three
    assert oc.max_degree(random_instance(seed=1, relays=2, channel="unit")) == 3


def test_link_rule_readers_match_set_definitions():
    """links(), max_degree and the constructor against the 1-2-1 link
    rule written out as sets: transmitters [0 : N], receivers [1 : N+1],
    no self-links."""
    for inst in state_space_instances():
        n = inst.num_relays
        nodes = range(n + 2)
        admissible = {(i, j) for i in range(n + 1) for j in range(1, n + 2) if i != j}
        nonzero = {(i, j) for i, j in admissible if inst.channel[j, i] != 0}
        assert inst.links() == sorted(nonzero, key=lambda e: (e[1], e[0]))

        degrees = [len({u for u in nodes if (u, v) in nonzero or (v, u) in nonzero})
                   for v in nodes]
        assert oc.max_degree(inst) == max(degrees)

        expected = [f"self-channel at node {v}" for v in nodes] + [
            f"coefficient outside receiver/transmitter range at ({j}, {i})"
            for j in nodes for i in nodes if i != j and (i, j) not in admissible
        ]
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(inst, channel=np.ones((n + 2, n + 2)))
        assert sorted(str(exc.value).split("; ")) == sorted(expected)


def test_effective_channel_line_example():
    inst = line_instance(1, alpha=2.0, beta=0.1)
    pattern = oc.AlignmentPattern(((0, 1), (1, 2)))
    eff = oc.effective_channel(inst, pattern)
    assert eff[1, 0] == 2.0
    assert eff[2, 1] == 2.0
    assert eff[2, 0] == 0.0


def test_effective_channel_empty_pattern_extremes():
    ideal = line_instance(1, beta=0.0)
    assert np.all(oc.effective_channel(ideal, oc.EMPTY_PATTERN) == 0)
    leaky = line_instance(1, beta=1.0)
    assert np.array_equal(oc.effective_channel(leaky, oc.EMPTY_PATTERN), leaky.channel)


def test_effective_channel_preserves_structural_zeros():
    inst = diamond_instance(beta=0.5)
    for pattern in oc.build_state_space(inst).patterns:
        eff = oc.effective_channel(inst, pattern)
        assert np.all((inst.channel == 0) <= (eff == 0))


def test_beta_zero_support_is_exactly_the_pattern():
    inst = diamond_instance(beta=0.0)
    pattern = oc.AlignmentPattern(((0, 1), (2, 3)))
    eff = oc.effective_channel(inst, pattern)
    nonzero = {(i, j) for i in range(4) for j in range(4) if eff[j, i] != 0}
    assert nonzero == {(0, 1), (2, 3)}


def test_pattern_rejects_conflicts():
    with pytest.raises(oc.InvalidPatternError):
        oc.AlignmentPattern(((0, 1), (0, 2)))
    with pytest.raises(oc.InvalidPatternError):
        oc.AlignmentPattern(((1, 3), (2, 3)))
    with pytest.raises(oc.InvalidPatternError):
        oc.AlignmentPattern(((1, 1),))


def test_pattern_pairs_are_normalized():
    pattern = oc.AlignmentPattern(((2, 3), (0, 1)))
    assert pattern.pairs == ((0, 1), (2, 3))


def test_validate_pattern_rejects_zero_link():
    inst = line_instance(1)
    with pytest.raises(oc.InvalidPatternError):
        oc.validate_pattern(inst, oc.AlignmentPattern(((0, 2),)))
    oc.validate_pattern(inst, oc.AlignmentPattern(((0, 1),)))  # no raise


def test_node_state_endpoint_rules():
    with pytest.raises(ValueError):
        NodeState(tx_target=(1, None, 0), rx_source=(None, 0, 1))  # dest transmits
    with pytest.raises(ValueError):
        NodeState(tx_target=(1, None, None), rx_source=(1, 0, 1))  # source receives
    state = NodeState(tx_target=(1, 2, None), rx_source=(None, 0, 1))
    assert state.tx_target[0] == 1


def test_cut_basics():
    cut = oc.Cut((0, 2), num_relays=2)
    assert cut.complement == (1, 3)
    with pytest.raises(ValueError):
        oc.Cut((1, 2), num_relays=2)
    with pytest.raises(ValueError):
        oc.Cut((0, 0, 1), num_relays=2)


def test_relabeling_commutes_with_effective_channel():
    inst = random_instance(seed=5, relays=3, beta=0.3)
    perm = (3, 1, 2)
    relabeled = permute_relays(inst, perm)
    mapping = {0: 0, 4: 4, 1: 3, 2: 1, 3: 2}
    pattern = oc.AlignmentPattern(((0, 1), (2, 3)))
    mapped = oc.AlignmentPattern(
        tuple((mapping[i], mapping[j]) for i, j in pattern.pairs)
    )
    eff = oc.effective_channel(inst, pattern)
    eff_rel = oc.effective_channel(relabeled, mapped)
    for i, j in inst.links():
        assert eff_rel[mapping[j], mapping[i]] == eff[j, i]


def test_same_pattern_same_effective_channel_across_raw_states():
    inst = line_instance(1, beta=0.4)
    from conftest import state_effective_channel

    by_pattern = {}
    for state in enumerate_raw_states(inst):
        key = pattern_of_state(state, inst)
        eff = state_effective_channel(inst, state)
        if key in by_pattern:
            assert np.array_equal(by_pattern[key], eff)
        else:
            by_pattern[key] = eff
    # and the per-class representative matches the pattern-level function
    for pattern, eff in by_pattern.items():
        assert np.array_equal(oc.effective_channel(inst, pattern), eff)
