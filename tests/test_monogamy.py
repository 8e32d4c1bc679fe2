"""CKW and strong-monogamy reports, subsets, fixtures, serialization."""

import json
from dataclasses import replace

import numpy as np
import pytest

from scren import (
    ANTISYMMETRIC_333,
    CKW_COUNTEREXAMPLE_322,
    Bipartition,
    CostGuardError,
    PureState,
    RoofConfig,
    bell_state,
    ckw_report,
    ghz_state,
    haar_random_state,
    n_scren_pure,
    n_tangle_pure,
    negativity_pure,
    reduced_density,
    roof_minimize,
    roof_sqrt_functional,
    scren2,
    sm_report,
    three_tangle_rows,
    w_state,
    wootters_tangle,
)
from scren.monogamy import NESTED_CONFIG
from scren.roof import SQRT_ROOF_FLOOR
from scren.wclass import build_state, random_spec

from util import random_local_unitaries

FAST = RoofConfig(starts=8, iters=600, seed=7)


# ---------------------------------------------------------------------------
# index subsets
# ---------------------------------------------------------------------------

def test_enumerate_three_parties():
    assert [t.subset for t in sm_report(ghz_state(3)).terms] == [(2,), (3,)]


def test_enumerate_four_parties_level_three():
    terms = sm_report(ghz_state(4)).terms
    assert [t.subset for t in terms if t.order == 3] == [(2, 3), (2, 4), (3, 4)]


def test_enumerate_five_party_count():
    assert len(sm_report(ghz_state(5)).terms) == 14  # C(4,1) + C(4,2) + C(4,3)


def test_enumerate_lexicographic_and_unique():
    report = sm_report(ghz_state(5))
    expected = [
        (2,), (3,), (4,), (5,),
        (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5),
    ]
    assert [t.subset for t in report.terms] == expected
    terms = report.to_dict()["terms"]
    assert [t["subset"] for t in terms] == [list(labels) for labels in expected]
    assert [t["m"] for t in terms] == [2] * 4 + [3] * 6 + [4] * 4


# ---------------------------------------------------------------------------
# fixtures reproduce the published values
# ---------------------------------------------------------------------------

def test_fixture_322_tangle_violation():
    rep = ckw_report(CKW_COUNTEREXAMPLE_322, 0, "tangle", FAST)
    assert abs(rep.one_value - 4 / 3) <= 1e-9
    for term in rep.terms:
        assert abs(term.value - 8 / 9) <= 1e-3
    assert abs(rep.residual + 4 / 9) <= 2e-3
    assert not rep.satisfied


def test_fixture_322_scren_satisfied():
    rep = ckw_report(CKW_COUNTEREXAMPLE_322, 0, "scren", FAST)
    assert abs(rep.one_value - 4.0) <= 1e-9
    for term in rep.terms:
        assert abs(term.value - 8 / 9) <= 1e-3
    assert rep.satisfied


def test_fixture_333_scren_values():
    rep = ckw_report(ANTISYMMETRIC_333, 0, "scren", FAST)
    assert abs(rep.one_value - 4.0) <= 1e-9
    for term in rep.terms:
        assert abs(term.value - 1.0) <= 1e-3
    assert rep.satisfied


# ---------------------------------------------------------------------------
# n_scren_pure
# ---------------------------------------------------------------------------

def test_n_scren_ghz3():
    assert abs(n_scren_pure(ghz_state(3), 0, FAST) - 1.0) <= 1e-6


def _hyperdeterminant(psi) -> complex:
    """Cayley's hyperdeterminant of a 2 x 2 x 2 amplitude tensor."""
    a000, a001, a010, a011, a100, a101, a110, a111 = psi.amplitudes
    return (
        a000**2 * a111**2 + a001**2 * a110**2 + a010**2 * a101**2 + a100**2 * a011**2
        - 2 * (
            a000 * a111 * a011 * a100 + a000 * a111 * a101 * a010
            + a000 * a111 * a110 * a001 + a011 * a100 * a101 * a010
            + a011 * a100 * a110 * a001 + a101 * a010 * a110 * a001
        )
        + 4 * (a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100)
    )


def test_n_scren_three_qubits_is_three_tangle():
    # the residual is the CKW three-tangle 4|Det psi|, checked against Cayley's formula
    rng = np.random.default_rng(13)
    states = [haar_random_state((2, 2, 2), rng) for _ in range(20)]
    for psi in states + [ghz_state(3), w_state(3)]:
        assert abs(n_scren_pure(psi, 0, FAST) - 4 * abs(_hyperdeterminant(psi))) <= 1e-12
    assert abs(n_scren_pure(ghz_state(3), 0, FAST) - 1.0) <= 1e-12
    assert abs(n_scren_pure(w_state(3), 0, FAST)) <= 1e-12


def test_n_scren_three_qubits_is_the_report_residual_for_every_focus():
    # the closed form stands in for the report, whose pairs are exact Wootters values
    rng = np.random.default_rng(17)
    for _ in range(6):
        psi = haar_random_state((2, 2, 2), rng)
        for focus in range(3):
            report = sm_report(psi, focus, "scren", FAST)
            assert abs(n_scren_pure(psi, focus, FAST) - report.residual) <= 1e-13


def test_n_scren_three_qubits_ignores_the_config():
    rng = np.random.default_rng(18)
    for psi in [haar_random_state((2, 2, 2), rng) for _ in range(4)] + [ghz_state(3)]:
        cheap = n_scren_pure(psi, 0, RoofConfig(starts=1, iters=1, seed=3))
        assert cheap == n_scren_pure(psi, 0, FAST)
        assert cheap == n_scren_pure(psi, 0)


def _batched(psi) -> float:
    return float(three_tangle_rows(psi.amplitudes[None])[0])


def test_n_scren_three_qubits_agrees_with_the_stack_carrier():
    # one hyperdeterminant on two carriers: Python complex numbers here, numpy
    # columns in three_tangle_rows.  Their products and moduli round apart, so
    # the two agree to roundoff, not bit for bit.
    rng = np.random.default_rng(20)
    for _ in range(1000):
        psi = haar_random_state((2, 2, 2), rng)
        value = n_scren_pure(psi, 0)
        assert type(value) is float
        assert abs(value - _batched(psi)) <= 1e-15


def test_n_scren_three_qubit_fixtures_on_the_single_state_carrier():
    ghz = ghz_state(3)
    assert abs(n_scren_pure(ghz, 0) - _batched(ghz)) <= 1e-15
    assert abs(n_scren_pure(ghz, 0) - 1.0) <= 1e-15
    assert n_scren_pure(w_state(3), 0) == 0.0
    product = PureState((2, 2, 2), np.kron(np.kron([0.6, 0.8j], [1.0, 0.0]), [0.8, -0.6]))
    assert n_scren_pure(product, 0) == 0.0


def test_n_scren_three_qubits_near_a_vanishing_hyperdeterminant():
    # GHZ/W superpositions with a small GHZ weight have Det close to 0
    rng = np.random.default_rng(23)
    ghz, w = ghz_state(3).amplitudes, w_state(3).amplitudes
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-12, 1e-16, 1e-24):
        phase = np.exp(2j * np.pi * rng.random())
        amps = np.sqrt(1.0 - eps) * w + np.sqrt(eps) * phase * ghz
        psi = PureState((2, 2, 2), amps / np.linalg.norm(amps))
        assert abs(n_scren_pure(psi, 0) - _batched(psi)) <= 1e-15


def test_n_scren_three_qubits_agrees_across_foci():
    rng = np.random.default_rng(24)
    for _ in range(200):
        psi = haar_random_state((2, 2, 2), rng)
        values = [n_scren_pure(psi, focus) for focus in range(3)]
        assert max(values) - min(values) <= 1e-15


def test_n_scren_three_qubits_rejects_focus_out_of_range():
    psi = haar_random_state((2, 2, 2), np.random.default_rng(19))
    for focus in (3, -1):
        with pytest.raises(ValueError, match="focus"):
            n_scren_pure(psi, focus, FAST)


def test_n_scren_wclass_three_qudit_saturates():
    rng = np.random.default_rng(0)
    spec = random_spec(rng, 3, 3)
    assert abs(n_scren_pure(build_state(spec), 0, FAST)) <= 1e-3


def test_n_scren_two_parties_is_pure_scren2():
    rng = np.random.default_rng(1)
    psi = haar_random_state((3, 2), rng)
    expected = negativity_pure(psi, Bipartition((0,), 2)) ** 2
    assert abs(n_scren_pure(psi, 0, FAST) - expected) <= 1e-12


# ---------------------------------------------------------------------------
# sm_report structure and invariants
# ---------------------------------------------------------------------------

def test_sm_three_parties_reduces_to_ckw():
    cfg = RoofConfig(starts=6, iters=400, seed=3)
    rng = np.random.default_rng(2)
    psi = haar_random_state((2, 2, 2), rng)
    sm = sm_report(psi, 0, "scren", cfg)
    ckw = ckw_report(psi, 0, "scren", cfg)
    assert [t.subset for t in sm.terms] == [(2,), (3,)]
    for sm_term, ckw_term in zip(sm.terms, ckw.terms):
        assert abs(sm_term.value - ckw_term.value) <= 1e-12
        assert abs(sm_term.contribution - sm_term.value) <= 1e-15  # exponent 1
    assert abs(sm.residual - ckw.residual) <= 1e-12


def test_sm_ghz4_residual_nonnegative():
    rep = sm_report(ghz_state(4), 0, "scren", FAST)
    assert rep.residual >= 0.0
    assert abs(rep.one_value - 1.0) <= 1e-9
    assert rep.rhs_total <= 1e-6


def test_sm_wclass_four_qudit_saturates():
    rng = np.random.default_rng(3)
    spec = random_spec(rng, 4, 3)
    rep = sm_report(build_state(spec), 0, "scren", FAST)
    assert abs(rep.residual) <= 1e-3
    for term in rep.terms:
        if term.order >= 3:
            assert term.value <= 1e-3


def test_sm_residual_identity_and_contributions():
    rng = np.random.default_rng(4)
    psi = haar_random_state((3, 2, 2), rng)
    rep = sm_report(psi, 0, "scren", FAST)
    assert abs(rep.residual - (rep.one_value - rep.rhs_total)) <= 1e-12
    for term in rep.terms:
        assert abs(term.contribution - term.value ** (term.order / 2)) <= 1e-12
    assert abs(sum(rep.level_totals().values()) - rep.rhs_total) <= 1e-12


def _left_to_right(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 2, 2)])
def test_sm_rhs_total_adds_contributions_left_to_right(dims):
    # pins the summation order: a compensated sum could move the last bit
    psi = haar_random_state(dims, np.random.default_rng(12))
    rep = sm_report(psi, 0, "scren", RoofConfig(starts=3, iters=200, seed=7))
    assert rep.rhs_total == _left_to_right(t.contribution for t in rep.terms)
    assert rep.residual == rep.one_value - rep.rhs_total


def test_replaced_terms_move_every_derived_value():
    # a report holds only its one value and terms; nothing read off them goes stale
    psi = haar_random_state((2,) * 4, np.random.default_rng(9))
    rep = sm_report(psi, 0, "scren", RoofConfig(starts=3, iters=200, seed=7))
    assert rep.satisfied
    pair = replace(rep.terms[0], value=rep.one_value + 1.0)
    assert pair.contribution == pair.value  # m = 2: exponent 1
    (k,) = [i for i, t in enumerate(rep.terms) if t.subset == (2, 3)]
    triple = replace(rep.terms[k], value=0.25)
    assert triple.contribution == 0.25**1.5
    terms = list(rep.terms)
    terms[0], terms[k] = pair, triple
    moved = replace(rep, terms=tuple(terms))
    assert moved.rhs_total == _left_to_right(t.contribution for t in terms)
    assert moved.rhs_total > rep.rhs_total + 1.0
    assert moved.residual == moved.one_value - moved.rhs_total
    assert not moved.satisfied
    assert moved.to_dict()["rhs"] == moved.rhs_total
    empty = replace(rep, terms=())
    assert (empty.rhs_total, empty.residual, empty.satisfied) == (0.0, rep.one_value, True)


def test_sm_dominates_ckw():
    cfg = RoofConfig(starts=6, iters=400, seed=5)
    rng = np.random.default_rng(5)
    for psi in (ghz_state(4), haar_random_state((2, 2, 2), rng)):
        sm = sm_report(psi, 0, "scren", cfg)
        ckw = ckw_report(psi, 0, "scren", cfg)
        assert sm.rhs_total >= ckw.rhs_total - 1e-6


def test_sm_permutation_covariance():
    cfg = RoofConfig(starts=6, iters=500, seed=6)
    rng = np.random.default_rng(6)
    psi = haar_random_state((2, 2, 2), rng)
    base = sm_report(psi, 0, "scren", cfg)
    swapped = sm_report(psi.permute([0, 2, 1]), 0, "scren", cfg)
    assert abs(base.one_value - swapped.one_value) <= 1e-6
    assert abs(base.rhs_total - swapped.rhs_total) <= 1e-6
    assert abs(base.residual - swapped.residual) <= 1e-6
    # pairwise terms swap with the relabeling
    base_pairs = {t.subset: t.value for t in base.terms if t.order == 2}
    swapped_pairs = {t.subset: t.value for t in swapped.terms if t.order == 2}
    assert abs(base_pairs[(2,)] - swapped_pairs[(3,)]) <= 1e-6
    assert abs(base_pairs[(3,)] - swapped_pairs[(2,)]) <= 1e-6


@pytest.mark.parametrize(
    "dims", [(3, 2, 2), (2, 2, 3), (2, 3, 2), (2, 2, 2)], ids=["322", "223", "232", "222"]
)
def test_three_party_residual_is_free_of_labels_and_local_unitaries(dims):
    # every pair term of a 3-party report is exact: the chord exit of a
    # rank-2 qubit-qudit pair or the Wootters closed form of a qubit pair
    rng = np.random.default_rng(80 + sum(dims))
    psi = haar_random_state(dims, rng)
    base = sm_report(psi)
    swapped = sm_report(psi.permute([0, 2, 1]))
    assert [t.subset for t in swapped.terms] == [(2,), (3,)]
    assert abs(base.terms[0].value - swapped.terms[1].value) <= 1e-12
    assert abs(base.terms[1].value - swapped.terms[0].value) <= 1e-12
    residuals = [base.residual, swapped.residual]
    residuals += [sm_report(random_local_unitaries(psi, rng)).residual for _ in range(3)]
    assert max(residuals) - min(residuals) <= 1e-12


def test_sm_focus_relabeling():
    cfg = RoofConfig(starts=6, iters=500, seed=7)
    rng = np.random.default_rng(7)
    psi = haar_random_state((2, 2, 2), rng)
    via_focus = sm_report(psi, 1, "scren", cfg)
    via_permute = sm_report(psi.permute([1, 0, 2]), 0, "scren", cfg)
    assert abs(via_focus.residual - via_permute.residual) <= 1e-9


def test_sm_matches_n_tangle_for_qubits():
    cfg = RoofConfig(starts=8, iters=600, seed=8)
    rng = np.random.default_rng(8)
    for psi in (ghz_state(3), w_state(3), haar_random_state((2, 2, 2), rng), ghz_state(4)):
        scren_residual = sm_report(psi, 0, "scren", cfg).residual
        tangle_residual = n_tangle_pure(psi, 0, cfg)
        assert abs(scren_residual - tangle_residual) <= 1e-12


def test_sm_tangle_and_scren_share_terms_on_qubits():
    # below the top cut both measures run the same pair roofs and residuals
    cfg = RoofConfig(starts=4, iters=300, seed=9)
    rng = np.random.default_rng(9)
    for psi in (haar_random_state((2, 2, 2), rng), w_state(4)):
        tangle = sm_report(psi, 0, "tangle", cfg)
        scren = sm_report(psi, 0, "scren", cfg)
        assert [t.value for t in tangle.terms] == [t.value for t in scren.terms]
        assert abs(tangle.one_value - scren.one_value) <= 1e-12


def test_qubit_pairs_are_wootters_and_qudit_pairs_scren2(monkeypatch):
    cfg = RoofConfig(starts=4, iters=300, seed=14)
    rng = np.random.default_rng(14)
    qubits = haar_random_state((2, 2, 2), rng)
    wootters = [wootters_tangle(reduced_density(qubits, (0, j))) for j in (1, 2)]
    terms = sm_report(qubits, 0, "scren", cfg).terms
    assert [t.subset for t in terms] == [(2,), (3,)]
    assert [t.value for t in terms] == wootters
    assert all(t.converged for t in terms)
    psi = haar_random_state((2, 3, 2), rng)
    pairs = {t.subset: t for t in sm_report(psi, 0, "scren", cfg).terms}
    qutrit = reduced_density(psi, (0, 1))
    assert qutrit.dims == (2, 3)
    assert pairs[(2,)].value == scren2(qutrit, Bipartition((0,), 2), cfg)
    assert pairs[(3,)].value == wootters_tangle(reduced_density(psi, (0, 2)))

    # a qubit pair runs no roof at all
    def no_roof(*args, **kwargs):
        raise AssertionError("a qubit pair ran a roof")

    monkeypatch.setattr("scren.monogamy.scren2", no_roof)
    monkeypatch.setattr("scren.roof.roof_minimize", no_roof)
    terms = ckw_report(qubits, 0, "scren", cfg).terms
    assert [t.value for t in terms] == wootters
    assert all(t.converged for t in terms)


def _three_tangle_roof(rho, config):
    """Squared roof whose row objective is sqrt(4|Det row|) of each member row."""
    result = roof_minimize(
        rho,
        lambda rows: np.sqrt(three_tangle_rows(rows)),
        config,
        stop_below=SQRT_ROOF_FLOOR,
    )
    return max(0.0, result.value) ** 2, result


def test_nested_term_is_the_members_own_report_residual():
    # an m = 3 term is the squared roof of sqrt(n_scren_pure) of its members;
    # on qubit members that residual is the three-tangle, at the report's budget
    nested = replace(NESTED_CONFIG, seed=FAST.seed)
    for psi in (ghz_state(4), w_state(4)):
        rep = sm_report(psi, 0, "scren", FAST)
        (term,) = [t for t in rep.terms if t.subset == (2, 3)]
        direct, _ = _three_tangle_roof(reduced_density(psi, (0, 1, 2)), FAST)
        assert term.value == direct
    rng = np.random.default_rng(3)
    for psi in [build_state(random_spec(rng, 4, 3)) for _ in range(4)]:
        rep = sm_report(psi, 0, "scren", FAST)
        (term,) = [t for t in rep.terms if t.subset == (2, 3)]
        direct = roof_sqrt_functional(
            reduced_density(psi, (0, 1, 2)), lambda s: n_scren_pure(s, 0, nested), nested
        )
        assert term.value == direct


def test_all_qubit_m3_terms_run_at_the_report_budget():
    # the three-tangle roof nests no roof, so --starts/--iters reach every m = 3 term
    psi = haar_random_state((2,) * 4, np.random.default_rng(16))
    for cfg in (RoofConfig(starts=2, iters=150, seed=5), RoofConfig(starts=4, iters=250, seed=5)):
        triples = [t for t in sm_report(psi, 0, "scren", cfg).terms if t.order == 3]
        assert len(triples) == 3
        for term in triples:
            subset = tuple(j - 1 for j in term.subset)
            direct, result = _three_tangle_roof(reduced_density(psi, (0,) + subset), cfg)
            assert term.value == direct
            assert term.converged == result.converged
            assert result.starts == cfg.starts


def test_reports_never_take_the_single_state_carrier(monkeypatch):
    # reports score their m = 3 stacks with three_tangle_rows, never n_scren_pure
    def refuse(*args, **kwargs):
        raise AssertionError("a report reached the single-state three-tangle")

    psi = haar_random_state((2,) * 4, np.random.default_rng(25))
    cfg = RoofConfig(starts=3, iters=200, seed=5)
    monkeypatch.setattr("scren.monogamy.n_scren_pure", refuse)
    monkeypatch.setattr("scren.monogamy._hyperdeterminant", refuse)
    triples = [t for t in sm_report(psi, 0, "scren", cfg).terms if t.order == 3]
    assert len(triples) == 3
    for term in triples:
        subset = tuple(j - 1 for j in term.subset)
        direct, _ = _three_tangle_roof(reduced_density(psi, (0,) + subset), cfg)
        assert term.value == direct


@pytest.mark.parametrize("report", [sm_report, ckw_report], ids=lambda f: f.__name__)
def test_sm_report_serialization_schema(report):
    data = report(ghz_state(3), 0, "scren", FAST).to_dict()
    assert set(data) == {"one", "terms", "rhs", "residual", "satisfied", "diagnostics"}
    for term in data["terms"]:
        assert set(term) == {"subset", "m", "value", "contribution", "converged"}
    assert set(data["diagnostics"]) == {"measure", "focus", "levels", "all_converged"}
    json.dumps(data)  # JSON-safe


def test_ckw_report_is_the_pair_level_of_sm_report():
    rng = np.random.default_rng(15)
    for psi in (w_state(4), build_state(random_spec(rng, 4, 3))):
        ckw = ckw_report(psi, 0, "scren", FAST)
        sm = sm_report(psi, 0, "scren", FAST)
        pairs = [t for t in sm.terms if t.order == 2]
        assert ckw.terms == tuple(pairs)
        assert ckw.one_value == sm.one_value
        assert ckw.residual == ckw.one_value - sum(t.value for t in pairs)
    # two parties: one pair term against none in the SM report
    rep = ckw_report(bell_state(), 0, "scren", FAST)
    assert [t.subset for t in rep.terms] == [(2,)]
    assert abs(rep.residual) <= 1e-12
    assert sm_report(bell_state(), 0, "scren", FAST).terms == ()


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_cost_guard_party_count():
    with pytest.raises(CostGuardError, match="parties"):
        sm_report(ghz_state(6), 0, "scren", FAST)


def test_cost_guard_total_dimension():
    rng = np.random.default_rng(9)
    psi = haar_random_state((9, 9, 9, 9), rng)
    with pytest.raises(CostGuardError, match="dimension"):
        sm_report(psi, 0, "scren", FAST)


def test_tangle_measure_guard_beyond_three_parties():
    rng = np.random.default_rng(10)
    psi = haar_random_state((3, 2, 2, 2), rng)
    with pytest.raises(ValueError, match="all-qubit"):
        sm_report(psi, 0, "tangle", FAST)


def test_tangle_measure_guard_qutrit_pair():
    # a qutrit-qutrit pair with the focus has no valid mixed two-tangle
    rng = np.random.default_rng(10)
    psi = haar_random_state((3, 3, 2), rng)
    with pytest.raises(ValueError, match="qubit in every pair"):
        sm_report(psi, 0, "tangle", FAST)
    # the same state is fine when the focus is the qubit
    rep = sm_report(psi, 2, "tangle", FAST)
    assert np.isfinite(rep.residual)
    # a two-party report has one pair, so it needs a qubit too
    qutrits = haar_random_state((3, 3), rng)
    for report in (sm_report, ckw_report):
        with pytest.raises(ValueError, match="qubit in every pair"):
            report(qutrits, 0, "tangle", FAST)


def test_unknown_measure_rejected():
    with pytest.raises(ValueError, match="measure"):
        sm_report(ghz_state(3), 0, "entropy", FAST)


def test_focus_out_of_range():
    with pytest.raises(ValueError, match="focus"):
        sm_report(ghz_state(3), 5, "scren", FAST)


def test_scren2_consistency_between_report_and_direct():
    cfg = RoofConfig(starts=6, iters=400, seed=11)
    rng = np.random.default_rng(11)
    psi = haar_random_state((2, 2, 2), rng)
    rep = sm_report(psi, 0, "scren", cfg)
    from scren import reduced_density

    direct = scren2(reduced_density(psi, (0, 1)), Bipartition((0,), 2), cfg)
    pair = {t.subset: t.value for t in rep.terms}[(2,)]
    assert abs(direct - pair) <= 1e-12
