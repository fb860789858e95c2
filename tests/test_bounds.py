"""Assumption checks, gap bounds, sufficient conditions, verification."""

import dataclasses
import math

import numpy as np
import pytest

import otocap as oc
import otocap.bounds
import otocap.capacity
from conftest import diamond_instance, line_instance, random_instance, raw_state_capacities


def fan_instance(gains=(1.0, 1.0), beta=1.0, alpha=1.0, power=1.0):
    """Two parallel source links (0->2, 0->3) whose cut rows overlap.

    With unit gains, the only non-diagonal Gram matrix in the whole
    sweep is [[2,1],[1,2]] (cut {0,1}), so the worst dominance ratio is
    exactly 1/2 and the penalty exactly 1 bit.
    """
    g2, g3 = gains
    return oc.NetworkInstance.from_links(
        2, {(0, 2): g2, (0, 3): g3}, power, alpha, beta
    )


def test_main_lobe_check_flags_weak_alignment():
    links = {(0, 1): 1.0, (2, 1): 1.0, (1, 3): 1.0, (0, 2): 1.0, (2, 3): 1.0}
    inst = oc.NetworkInstance.from_links(2, links, 1.0, 1.0, 2.0)
    report = oc.check_assumptions(inst)
    assert not report.main_lobe_stronger
    assert (0, 1, 2) in report.main_lobe_violations
    assert (2, 1, 0) in report.main_lobe_violations
    assert not report.both_hold

    strong = dataclasses.replace(inst, alpha=2.0, beta=1.0)
    assert oc.check_assumptions(strong).main_lobe_stronger


def test_main_lobe_vacuous_for_single_link():
    inst = oc.NetworkInstance.from_links(0, {(0, 1): 1.0}, 1.0, 1.0, 5.0)
    report = oc.check_assumptions(inst)
    assert report.main_lobe_stronger
    assert report.main_lobe_violations == ()


def test_beta_zero_assumptions_hold_with_zero_rho():
    inst = random_instance(seed=3, relays=3, beta=0.0)
    report = oc.check_assumptions(inst)
    assert report.both_hold
    assert report.max_rho == 0.0


def test_dominance_penalty_exact_half_rho():
    inst = fan_instance()
    report = oc.check_assumptions(inst)
    assert math.isclose(report.max_rho, 0.5, rel_tol=1e-12)
    pattern, cut, rho = report.worst
    assert set(cut.omega) == {0, 1}
    assert math.isclose(rho, 0.5, rel_tol=1e-12)
    assert math.isclose(oc.verify_instance(inst).dominance_penalty, 1.0, rel_tol=1e-12)


def test_penalty_matches_independent_sweep():
    inst = random_instance(seed=17, relays=2, beta=0.4, alpha=1.5)
    space = oc.build_state_space(inst)
    worst = 0.0
    for pattern in space.patterns:
        for cut in space.cuts:
            m = oc.cut_state_matrix(inst, pattern, cut)
            a = np.eye(m.shape[0]) + inst.power * (m @ m.conj().T)
            absa = np.abs(a)
            off = absa.sum(axis=1) - np.diag(absa)
            if a.shape[0] > 1:
                worst = max(worst, float(np.max(off / np.diag(absa))))
    assert math.isclose(oc.verify_instance(inst).dominance_penalty,
                        abs(math.log2(1 - worst)), rel_tol=1e-9)


def test_dominance_violation_reported_with_witness():
    inst = oc.NetworkInstance.from_links(
        4, {(0, 3): 2.0, (0, 4): 2.0, (0, 5): 2.0}, 1.0, 1.0, 1.0
    )
    report = oc.check_assumptions(inst)
    pattern, cut, rho = report.worst
    assert rho >= 1.0 and rho == report.max_rho
    assert math.isnan(oc.verify_instance(inst).ideal_gap_bound)


def test_ideal_gap_bound_levels():
    def bound(inst):
        return oc.verify_instance(inst).ideal_gap_bound

    assert math.isclose(bound(fan_instance()), 2.0, rel_tol=1e-12)

    flat = random_instance(seed=2, relays=4, topology="line", beta=0.0)
    assert math.isclose(bound(flat), 8.0, rel_tol=1e-12)

    single = random_instance(seed=2, relays=1, topology="line", beta=0.0)
    assert bound(single) == 0.0

    direct = oc.NetworkInstance.from_links(0, {(0, 1): 1.0}, 1.0, 1.0, 0.0)
    assert bound(direct) == 0.0


def test_penalty_crosses_log_n_exactly_with_rho_boundary():
    # f <= log2 N iff max rho <= (N-1)/N; scan both sides of the boundary.
    for seed in range(12):
        inst = random_instance(seed=seed + 300, relays=2, beta=0.3,
                               alpha=1.0 + (seed % 3))
        report = oc.verify_instance(inst)
        max_rho = report.assumptions.max_rho
        if not report.assumptions.diagonally_dominant or max_rho >= 1.0:
            continue
        n = inst.num_relays
        f = report.dominance_penalty
        boundary = (n - 1) / n
        if abs(max_rho - boundary) < 1e-9:
            continue
        assert (f <= math.log2(n) + 1e-12) == (max_rho <= boundary)


def test_constant_gap_condition_diamond():
    inst = diamond_instance(alpha=10.0, beta=1.0)
    cond = oc.constant_gap_condition(inst)
    assert cond.applicable
    assert cond.threshold == 8.0
    assert cond.satisfied and isinstance(cond.satisfied, bool)

    weak = diamond_instance(alpha=4.0, beta=1.0)
    assert not oc.constant_gap_condition(weak).satisfied

    exact = diamond_instance(alpha=8.0, beta=1.0)
    assert oc.constant_gap_condition(exact).satisfied


def test_constant_gap_condition_edge_cases():
    ideal = diamond_instance(beta=0.0)
    cond = oc.constant_gap_condition(ideal)
    assert cond.satisfied and cond.applicable
    assert cond.ratio == math.inf

    single = line_instance(1, beta=0.5)
    cond = oc.constant_gap_condition(single)
    assert not cond.applicable and not cond.satisfied
    assert math.isnan(cond.threshold)

    empty = oc.NetworkInstance(2, np.zeros((4, 4), dtype=np.complex128), 1.0, 1.0, 0.5)
    assert not oc.constant_gap_condition(empty).applicable


def test_constant_gap_threshold_hand_value():
    inst = diamond_instance(alpha=8.0, beta=1.0, gains=(2.0, 1.0, 1.0, 1.0))
    # Delta^2 * N/(N-1) * (max gain^2 / min gain^2) = 4 * 2 * 4
    cond = oc.constant_gap_condition(inst)
    assert math.isclose(cond.threshold, 4.0 * 2.0 * 4.0, rel_tol=1e-12)


def test_tsn_gap_bound_hand_values():
    assert math.isclose(oc.tsn_gap_bound(diamond_instance(beta=0.0)), 2.0)
    assert math.isclose(oc.tsn_gap_bound(diamond_instance(beta=1.0)), 4.0)
    empty = oc.NetworkInstance(2, np.zeros((4, 4), dtype=np.complex128), 1.0, 1.0, 0.0)
    assert oc.tsn_gap_bound(empty) == 0.0


def test_verify_beta_zero_degeneration():
    report = oc.verify_instance(random_instance(seed=8, relays=3, beta=0.0))
    assert abs(report.ideal_gap) <= 1e-6
    assert report.tsn_gap <= report.tsn_gap_bound + 1e-6


def test_verify_diamond_constant_gap_example():
    inst = diamond_instance(alpha=8.0, beta=1.0)
    report = oc.verify_instance(inst)
    assert report.ratio_condition.satisfied
    assert report.assumptions.both_hold
    assert abs(report.ideal_gap) <= 2.0 * math.log2(2.0) + 1e-6
    # cross-check the three capacities against raw-state enumeration
    imp, ideal, tsn = raw_state_capacities(inst)
    assert math.isclose(report.c_imperfect, imp, abs_tol=1e-9)
    assert math.isclose(report.c_ideal, ideal, abs_tol=1e-9)
    assert math.isclose(report.r_tsn, tsn, abs_tol=1e-9)


def test_verify_report_fields_coherent():
    inst = diamond_instance(alpha=8.0, beta=1.0)
    report = oc.verify_instance(inst)
    assert report.num_relays == 2
    assert report.max_degree == 2
    assert set(report.schedule_supports) == {"imperfect", "ideal", "tsn"}
    assert all(v >= 1 for v in report.schedule_supports.values())
    assert math.isclose(report.ideal_gap, report.c_imperfect - report.c_ideal,
                        abs_tol=1e-12)
    assert math.isclose(report.tsn_gap, report.c_ideal - report.r_tsn,
                        abs_tol=1e-12)


def test_verify_handles_dominance_violation_gracefully():
    inst = oc.NetworkInstance.from_links(
        4, {(0, 3): 2.0, (0, 4): 2.0, (0, 5): 2.0}, 1.0, 1.0, 1.0
    )
    report = oc.verify_instance(inst)
    assert not report.assumptions.diagonally_dominant
    assert math.isnan(report.ideal_gap_bound)
    assert math.isnan(report.dominance_penalty)
    assert report.tsn_gap <= report.tsn_gap_bound + 1e-6


def test_verify_rho_exactly_one_gives_infinite_penalty_and_bound():
    # cut {0, 1} gives M = [1; 2] and Gram [[2, 2], [2, 5]]: row ratio 2/2
    inst = fan_instance(gains=(1.0, 2.0))
    report = oc.verify_instance(inst)
    assert report.assumptions.max_rho == 1.0
    assert report.assumptions.diagonally_dominant
    assert report.dominance_penalty == report.ideal_gap_bound == math.inf


def test_verify_linkless_instance():
    empty = oc.NetworkInstance(1, np.zeros((3, 3), dtype=np.complex128), 1.0, 1.0, 0.5)
    report = oc.verify_instance(empty)
    assert report.c_imperfect == 0.0
    assert report.c_ideal == 0.0
    assert report.r_tsn == 0.0
    assert report.tsn_gap_bound == 0.0


def test_verify_raises_on_injected_bug(monkeypatch):
    inst = diamond_instance(beta=0.0)
    real = oc.capacity_imperfect

    def inflated(instance, space=None):
        result = real(instance, space)
        return dataclasses.replace(result, value=result.value + 5.0)

    monkeypatch.setattr(otocap.bounds, "capacity_imperfect", inflated)
    with pytest.raises(oc.TheoremViolationError):
        oc.verify_instance(inst)


def test_single_relay_gap_reported_but_not_enforced():
    # Full topology with one relay: every wide-oriented Gram is 1x1, so
    # the dominance penalty is zero and the reported bound is zero, yet
    # the side-lobe model genuinely beats the ideal one across the
    # {source, relay} cut.  verify_instance must surface the numbers
    # without treating them as an implementation bug.
    inst = oc.NetworkInstance.from_links(
        1, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}, 1.0, 1.0, 0.1
    )
    report = oc.verify_instance(inst)
    assert report.assumptions.both_hold
    assert report.assumptions.max_rho == 0.0
    assert report.ideal_gap_bound == 0.0
    assert math.isclose(report.ideal_gap, math.log2(2.01) - 1.0, abs_tol=1e-9)
    assert report.ideal_gap > report.ideal_gap_bound
    assert report.tsn_gap <= report.tsn_gap_bound + 1e-6


def test_two_relay_enforcement_still_active(monkeypatch):
    inst = diamond_instance(beta=0.0)

    def shifted(instance, space=None):
        result = oc.capacity_ideal(instance, space=space)
        return dataclasses.replace(result, value=result.value + 7.0, model_tag="imperfect")

    monkeypatch.setattr(otocap.bounds, "capacity_imperfect", shifted)
    with pytest.raises(oc.TheoremViolationError):
        oc.verify_instance(inst)


@pytest.mark.parametrize("model", ["imperfect", "ideal", "tsn"])
def test_a_schedule_beaten_on_its_own_table_raises(monkeypatch, model):
    # the LPs run in the order imperfect, ideal, tsn; the one for
    # ``model`` returns the uniform schedule over its table's columns
    inst = random_instance(seed=1, relays=3, beta=0.3)
    calls = []

    def uniform_for_one(problem, start=None):
        calls.append(problem)
        if len(calls) - 1 == ["imperfect", "ideal", "tsn"].index(model):
            return np.full(problem.values.shape[1], 1.0 / problem.values.shape[1])
        return oc.solve_maxmin(problem, start)

    monkeypatch.setattr(otocap.capacity, "solve_maxmin", uniform_for_one)
    with pytest.raises(oc.SolverError, match=f"^{model} table: the \\w+ schedule is worth"):
        oc.verify_instance(inst)


def test_tsn_bound_holds_across_beta_range():
    for beta in (0.0, 0.1, 0.5, 1.0, 2.0):
        inst = diamond_instance(beta=beta, alpha=1.0)
        report = oc.verify_instance(inst)
        assert report.tsn_gap <= report.tsn_gap_bound + 1e-6
        assert report.r_tsn <= report.c_ideal + 1e-9


# (theorem, instance, model whose value is shifted, shift): each shift
# breaks exactly the named theorem first.  The constant-gap case needs
# an instance whose dominance penalty exceeds log2 N while the ratio
# condition holds (max rho ~0.99 here), so that a gap of 5 bits sits
# between N log2 N = 2 and the ideal-gap bound of ~13.3.
THEOREM_CASES = [
    ("ideal-gap-bound", lambda: diamond_instance(beta=0.0), "capacity_imperfect", 5.0),
    ("constant-gap-bound",
     lambda: oc.generate(oc.GenSpec(topology="full", relays=2, alpha=10.0, beta=0.1)),
     "capacity_imperfect", 5.0),
    ("tsn-dominated-by-ideal", lambda: diamond_instance(beta=0.0), "rate_tsn", 5.0),
    ("tsn-gap-bound", lambda: diamond_instance(beta=0.0), "rate_tsn", -5.0),
    ("ideal-degeneration", lambda: diamond_instance(beta=0.0), "capacity_imperfect", 0.5),
]


@pytest.mark.parametrize("name, make, model, shift", THEOREM_CASES,
                         ids=[case[0] for case in THEOREM_CASES])
def test_each_theorem_fires_under_its_own_name(monkeypatch, name, make, model, shift):
    inst = make()
    assert name in oc.verify_instance(inst).enforced
    real = getattr(otocap.bounds, model)

    def shifted(instance, space=None):
        result = real(instance, space)
        return dataclasses.replace(result, value=result.value + shift)

    monkeypatch.setattr(otocap.bounds, model, shifted)
    with pytest.raises(oc.TheoremViolationError) as exc:
        oc.verify_instance(inst)
    assert exc.value.name == name
    assert name in exc.value.report.enforced


@pytest.mark.parametrize("inst, enforced", [
    (diamond_instance(beta=0.0),
     ("ideal-gap-bound", "constant-gap-bound", "tsn-dominated-by-ideal",
      "tsn-gap-bound", "ideal-degeneration")),
    # N = 1: the ideal-gap bound is reported but not a theorem
    (oc.NetworkInstance.from_links(1, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}, 1.0, 1.0, 0.1),
     ("tsn-dominated-by-ideal", "tsn-gap-bound")),
    # rho > 1: neither ideal-side theorem applies
    (oc.NetworkInstance.from_links(4, {(0, 3): 2.0, (0, 4): 2.0, (0, 5): 2.0}, 1.0, 1.0, 1.0),
     ("tsn-dominated-by-ideal", "tsn-gap-bound")),
], ids=["diamond-beta0", "single-relay", "rho-above-one"])
def test_report_names_the_enforced_theorems(inst, enforced):
    assert oc.verify_instance(inst).enforced == enforced
