"""Per-pair cut blocks, log-det values, dominance ratios, the determinant
sandwich, and the batched cut-block kernel."""

import math

import numpy as np
import pytest

import otocap as oc
from otocap.matrices import MAX_CROSSING_LINKS, _group_rows
from conftest import (
    diamond_instance,
    hadamard_upper_bound,
    line_instance,
    logdet_oracle,
    mp_cut_log_det,
    ostrowski_lower_bound,
    per_pair_tables,
    random_instance,
    source_sides,
)


def test_cut_state_matrix_wide_orientation_single_aligned():
    inst = line_instance(1, alpha=2.0, beta=0.5)
    pattern = oc.AlignmentPattern(((0, 1),))
    m = oc.cut_state_matrix(inst, pattern, oc.Cut((0,), 1))
    # rows {1, 2} x column {0} is tall, so the block comes conjugate-transposed
    assert m.shape == (1, 2)
    np.testing.assert_allclose(m, [[2.0, 0.0]])
    np.testing.assert_array_equal(m, oc.effective_channel(inst, pattern)[1:, :1].conj().T)


def test_cut_state_matrix_full_line_pattern():
    inst = line_instance(1, alpha=1.0, beta=0.0)
    pattern = oc.AlignmentPattern(((0, 1), (1, 2)))
    m = oc.cut_state_matrix(inst, pattern, oc.Cut((0, 1), 1))
    # Only (1 -> 2) crosses the cut; 0 -> 1 stays inside Omega.  Row {2},
    # columns {0, 1} in ascending order.
    assert m.shape == (1, 2)
    np.testing.assert_allclose(m, [[0.0, 1.0]])
    np.testing.assert_array_equal(m, oc.effective_channel(inst, pattern)[2:, :2])


def test_cut_state_matrix_diamond_two_aligned_on_diagonal():
    inst = diamond_instance(alpha=3.0, beta=0.5)
    pattern = oc.AlignmentPattern(((0, 1), (2, 3)))
    m = oc.cut_state_matrix(inst, pattern, oc.Cut((0, 2), 2))
    # rows {1, 3} x columns {0, 2}: 0 -> 1 and 2 -> 3 both cross the cut
    np.testing.assert_allclose(m, [[3.0, 0.0], [0.0, 3.0]])
    h = oc.effective_channel(inst, pattern)
    np.testing.assert_array_equal(m, h[np.ix_([1, 3], [0, 2])])


def test_cut_state_matrix_empty_pattern_beta_zero():
    inst = diamond_instance(beta=0.0)
    for side in source_sides(inst.num_relays):
        cut = oc.Cut(tuple(side), inst.num_relays)
        assert np.all(oc.cut_state_matrix(inst, oc.EMPTY_PATTERN, cut) == 0)


def test_log_det_hand_values():
    inst = diamond_instance()
    zero = oc.cut_state_matrix(inst, oc.EMPTY_PATTERN, oc.Cut((0,), 2))
    assert oc.log_det_capacity(zero, 1.0) == 0.0

    ident = np.eye(2, dtype=np.complex128)
    assert math.isclose(oc.log_det_capacity(ident, 3.0), 4.0, rel_tol=1e-12)

    row = np.array([[2.0, 0.0]], dtype=np.complex128)
    assert math.isclose(oc.log_det_capacity(row, 1.0), math.log2(5), rel_tol=1e-12)


def test_dominance_ratio_hand_values():
    assert oc.dominance_ratio(np.diag([2.0, 5.0])) == 0.0
    assert math.isclose(oc.dominance_ratio(np.array([[2.0, 1.0], [1.0, 2.0]])), 0.5)
    assert math.isclose(oc.dominance_ratio(np.array([[2.0, 3.0], [3.0, 2.0]])), 1.5)
    assert oc.dominance_ratio(np.array([[4.2]])) == 0.0

    # a stack of matrices, batched over the leading axes, gives each
    # matrix's own ratio; likewise for the Gram matrices of a block stack
    rng = np.random.Generator(np.random.Philox(7))
    blocks = rng.normal(size=(2, 3, 2, 4)) + 1j * rng.normal(size=(2, 3, 2, 4))
    grams = oc.gram_matrix(blocks, 0.7)
    assert grams.shape == (2, 3, 2, 2)
    ratios = oc.dominance_ratio(grams)
    assert ratios.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        gram = oc.gram_matrix(blocks[idx], 0.7)
        np.testing.assert_array_equal(grams[idx], gram)
        assert ratios[idx] == oc.dominance_ratio(gram)
        assert ratios[idx] == oc.cut_dominance_ratio(blocks[idx], 0.7)
        assert gram.shape == (2, 2)
        np.testing.assert_allclose(gram, np.eye(2) + 0.7 * blocks[idx] @ blocks[idx].conj().T,
                                   rtol=1e-14)


def test_ostrowski_hand_values():
    res = ostrowski_lower_bound(np.eye(3))
    assert res.dominance_ok and math.isclose(res.value, 1.0)

    res = ostrowski_lower_bound(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert res.dominance_ok
    assert math.isclose(res.value, 1.0)  # (1/2)^2 * 4, below det = 3

    res = ostrowski_lower_bound(np.array([[4.0, 1.0], [1.0, 4.0]]))
    assert math.isclose(res.value, 9.0)  # (3/4)^2 * 16, below det = 15

    # Past the dominance boundary only the flag is meaningful: for even n
    # the (1-rho)^n factor is positive even though the bound is invalid
    # (det here is -5, below the formula value of 1).
    res = ostrowski_lower_bound(np.array([[2.0, 3.0], [3.0, 2.0]]))
    assert not res.dominance_ok
    assert math.isclose(res.value, 1.0)

    odd = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    res = ostrowski_lower_bound(odd)
    assert not res.dominance_ok
    assert res.value < 0.0


def test_hadamard_hand_values():
    assert math.isclose(hadamard_upper_bound(np.eye(4)), 1.0)
    assert math.isclose(hadamard_upper_bound(np.array([[2.0, 1.0], [1.0, 2.0]])), 4.0)
    assert math.isclose(hadamard_upper_bound(np.array([[4.0, 1.0], [1.0, 4.0]])), 16.0)


def test_log_det_matches_slogdet_oracle_and_permutations():
    rng = np.random.Generator(np.random.Philox(42))
    for _ in range(25):
        rows, cols = rng.integers(1, 5), rng.integers(1, 5)
        if rows > cols:
            rows, cols = cols, rows
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        power = float(rng.uniform(0.1, 4.0))
        want = logdet_oracle(m, power)
        assert math.isclose(oc.log_det_capacity(m, power), want, rel_tol=1e-9)

        perm_r = rng.permutation(rows)
        perm_c = rng.permutation(cols)
        permuted = m[np.ix_(perm_r, perm_c)]
        assert math.isclose(oc.log_det_capacity(permuted, power), want, rel_tol=1e-9)

        # Sylvester: M M^H and M^H M give the same nonzero spectrum.
        assert math.isclose(logdet_oracle(m.conj().T, power), want, rel_tol=1e-9)


def test_cut_value_monotone_in_power_and_alpha():
    inst0 = random_instance(seed=8, relays=2, beta=0.4)
    space = oc.build_state_space(inst0)
    for pattern in space.patterns:
        for cut in space.cuts:
            vals_p = [
                oc.log_det_capacity(oc.cut_state_matrix(inst0, pattern, cut), p)
                for p in (0.5, 1.0, 2.0, 8.0)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(vals_p, vals_p[1:]))
    import dataclasses

    for alpha in (1.0, 2.0, 5.0):
        inst = dataclasses.replace(inst0, alpha=alpha)
        val = oc.log_det_capacity(
            oc.cut_state_matrix(inst, space.patterns[1], space.cuts[0]), 1.0
        )
        if alpha > 1.0:
            assert val >= prev - 1e-12
        prev = val


def test_beta_zero_closed_form():
    inst = random_instance(seed=13, relays=3, beta=0.0, alpha=1.7)
    space = oc.build_state_space(inst)
    for pattern in space.patterns:
        for cut in space.cuts:
            m = oc.cut_state_matrix(inst, pattern, cut)
            crossing = [
                (i, j) for i, j in pattern.pairs
                if i in cut.omega and j in cut.complement
            ]
            want = sum(
                math.log2(1 + inst.power * inst.alpha**2 * abs(inst.channel[j, i]) ** 2)
                for i, j in crossing
            )
            got = oc.log_det_capacity(m, inst.power)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def test_gram_sandwich_on_assumption_passing_instance():
    inst = random_instance(seed=21, relays=3, beta=0.05)
    assumptions = oc.check_assumptions(inst)
    assert assumptions.both_hold
    space = oc.build_state_space(inst)
    for pattern in space.patterns:
        for cut in space.cuts:
            m = oc.cut_state_matrix(inst, pattern, cut)
            a = oc.gram_matrix(m, inst.power)
            lo = ostrowski_lower_bound(a)
            hi = hadamard_upper_bound(a)
            val = oc.log_det_capacity(m, inst.power)
            assert lo.dominance_ok
            assert math.log2(lo.value) <= val + 1e-9
            assert val <= math.log2(hi) + 1e-9


def test_cut_state_matrix_entries_match_effective_channel():
    inst = random_instance(seed=30, relays=3, beta=0.3, alpha=2.0)
    space = oc.build_state_space(inst)
    for pattern in space.patterns:
        h = oc.effective_channel(inst, pattern)
        for cut in space.cuts:
            m = oc.cut_state_matrix(inst, pattern, cut)
            rows, cols = cut.complement, cut.omega
            if len(rows) > len(cols):
                m = m.conj().T
            assert m.shape == (len(rows), len(cols))
            for r, j in enumerate(rows):
                for c, i in enumerate(cols):
                    gain = inst.alpha if (i, j) in pattern else inst.beta
                    assert m[r, c] == h[j, i] == gain * inst.channel[j, i]


# -- batched cut-block kernel ---------------------------------------------

KERNEL_RTOL = 1e-12


def assert_tables_close(got, want):
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert float(err.max()) <= KERNEL_RTOL


def first_max(rho):
    """(pattern, cut) indices of the first maximum, patterns outer, with
    ratios within KERNEL_RTOL of the maximum counted as ties."""
    by_pattern = rho.T
    top = by_pattern.max()
    flat = int(np.argmax(by_pattern >= top - KERNEL_RTOL * max(1.0, top)))
    return divmod(flat, by_pattern.shape[1])


def check_kernel_against_per_pair(inst):
    space = oc.build_state_space(inst)
    tables = oc.cut_block_tables(inst, space)
    v, rho = per_pair_tables(inst, space)
    assert tables.values.shape == tables.rho.shape == v.shape
    assert_tables_close(tables.values, v)
    assert_tables_close(tables.rho, rho)
    pk, ck = first_max(rho)
    pattern, cut, worst = oc.check_assumptions(inst, space).worst
    assert (pattern, cut) == (space.patterns[pk], space.cuts[ck])
    assert math.isclose(worst, rho.max(), rel_tol=KERNEL_RTOL)
    assert worst == tables.rho[ck, pk]


@pytest.mark.parametrize("topology,relays", [
    ("line", 0), ("line", 1), ("line", 4), ("diamond", 2), ("full", 1),
    ("full", 2), ("full", 3), ("random", 3), ("random", 4),
])
def test_kernel_matches_per_pair_route(topology, relays):
    for k, (channel, beta) in enumerate(
        (c, b) for c in ("unit", "rayleigh") for b in (0.0, 0.1, 0.3, 1.0)
    ):
        inst = oc.generate(oc.GenSpec(topology=topology, relays=relays, channel=channel,
                                      beta=beta, seed=40 + k, edge_probability=0.6))
        check_kernel_against_per_pair(inst)


@pytest.mark.parametrize("channel,beta", [("unit", 0.1), ("rayleigh", 0.3)])
def test_kernel_matches_per_pair_route_full_n4(channel, beta):
    # unit channels make many distinct blocks tie on rho, which the
    # witness must resolve to the first pair in pattern-major order
    check_kernel_against_per_pair(oc.generate(oc.GenSpec(
        topology="full", relays=4, channel=channel, beta=beta, seed=3)))


def test_kernel_dedups_to_distinct_cut_restrictions():
    inst = oc.generate(oc.GenSpec(topology="full", relays=4, channel="rayleigh",
                                  beta=0.3, seed=0))
    space = oc.build_state_space(inst)
    keys = {
        (cut, tuple(p for p in pattern if p[0] in cut.omega and p[1] in cut.complement))
        for cut in space.cuts for pattern in space.patterns
    }
    assert len(space.patterns) * len(space.cuts) == 888 * 16
    assert oc.cut_block_tables(inst, space).distinct_blocks == len(keys) == 384


def test_group_rows_groups_exactly_up_to_the_key_width():
    rng = np.random.Generator(np.random.Philox(5))
    for width in (0, 3, MAX_CROSSING_LINKS):
        base = rng.random((12, width)) < 0.4
        bits = base[rng.integers(0, len(base), size=60)]
        keys, inverse = _group_rows(bits)
        assert np.array_equal(keys[inverse], bits)
        assert len({row.tobytes() for row in keys}) == len(keys)
        assert len(keys) == len({row.tobytes() for row in bits})
    with pytest.raises(oc.EnumerationCapError, match="crossed by 63"):
        _group_rows(np.zeros((4, MAX_CROSSING_LINKS + 1), dtype=bool))


def test_kernel_rejects_a_cut_crossed_by_too_many_links():
    # N=14, forward links only: Omega = {0..7} is crossed by 8 x 8 = 64.
    forward = {(i, j): 1.0 for i in range(16) for j in range(i + 1, 16)}
    inst = oc.NetworkInstance.from_links(14, forward, 1.0, 1.0, 0.1)
    links = tuple(inst.links())
    space = oc.StateSpace(incidence=np.zeros((1, len(links)), dtype=bool),
                          source_side=[[v < 8 for v in range(16)]], links=links)
    with pytest.raises(oc.EnumerationCapError, match="crossed by 64"):
        oc.cut_block_tables(inst, space)


def test_kernel_matches_60_digit_oracle_at_high_power():
    # Unit channels give rank-deficient blocks, where a Cholesky factor of
    # I + P M M^H loses digits as P grows; the singular-value form must not.
    for power in (1e2, 1e6, 1e10, 1e14):
        inst = oc.generate(oc.GenSpec(topology="full", relays=3, channel="unit",
                                      beta=0.3, power=power))
        space = oc.build_state_space(inst)
        values = oc.cut_block_tables(inst, space).values
        first = {}
        for ck, cut in enumerate(space.cuts):
            for pk, pattern in enumerate(space.patterns):
                aligned = frozenset(
                    (i, j) for i, j in pattern if i in cut.omega and j in cut.complement
                )
                first.setdefault((ck, aligned), pk)
        for (ck, aligned), pk in first.items():
            cut = space.cuts[ck]
            want = mp_cut_log_det(inst, aligned, cut)
            single = oc.log_det_capacity(
                oc.cut_state_matrix(inst, space.patterns[pk], cut), power)
            for got in (values[ck, pk], single):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (power, cut, aligned)
