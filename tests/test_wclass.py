"""Generalized W-class plus vacuum family: closed forms and theorem checks."""

import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from scren import (
    Bipartition,
    DensityMatrix,
    PureState,
    RoofConfig,
    WClassSpec,
    build_state,
    ckw_report,
    haar_random_state,
    haar_unitary,
    negativity_pure,
    one_scren_closed,
    random_spec,
    reduced_density,
    reduced_xy,
    sm_report,
    two_scren_closed,
    verify_lemma1,
    verify_theorem1,
    verify_theorem2,
    w_state,
    wootters_tangle,
)
from scren.suites import _wclass_trial
from scren.wclass import HAMMING_SUPPORT_ATOL, outside_amplitude

from util import (
    basis_state,
    hjw_rows,
    marginal_focus_matrix,
    reference_outside_amplitude,
    reference_reduced_xy,
)

FAST = RoofConfig(starts=8, iters=600, seed=7)


def equal_w3() -> WClassSpec:
    return WClassSpec(3, 2, np.full((3, 1), 1 / np.sqrt(3), dtype=complex), 1.0)


def theorem1(spec: WClassSpec, config: RoofConfig = FAST):
    """Theorem 1 on the SCREN CKW report of the spec's state, party 1 in focus."""
    return verify_theorem1(spec, ckw_report(build_state(spec), 0, "scren", config))


# ---------------------------------------------------------------------------
# spec validation and construction
# ---------------------------------------------------------------------------

def test_spec_rejects_bad_normalization():
    with pytest.raises(ValueError, match="sum"):
        WClassSpec(3, 2, np.full((3, 1), 1.0, dtype=complex), 0.5)


def test_spec_rejects_nan():
    a = np.full((3, 1), 1 / np.sqrt(3), dtype=complex)
    a[0, 0] = np.nan
    with pytest.raises(ValueError, match="sum"):
        WClassSpec(3, 2, a, 0.5)
    with pytest.raises(ValueError, match="weight"):
        WClassSpec(3, 2, equal_w3().a, np.nan)


def test_spec_rejects_bad_p():
    a = np.full((3, 1), 1 / np.sqrt(3), dtype=complex)
    with pytest.raises(ValueError, match="weight"):
        WClassSpec(3, 2, a, 1.5)


def test_spec_rejects_bad_shape():
    with pytest.raises(ValueError, match="shape"):
        WClassSpec(3, 3, np.full((3, 1), 1 / np.sqrt(3), dtype=complex), 0.5)


def test_spec_rejects_a_single_party():
    with pytest.raises(ValueError, match="at least two parties"):
        WClassSpec(1, 2, np.ones((1, 1), dtype=complex), 0.5)


def test_party_weight_rejects_an_index_out_of_range():
    with pytest.raises(ValueError, match=r"party index 0 out of range 1\.\.3"):
        equal_w3().party_weight(0)


def test_omega_complements_focus_row():
    rng = np.random.default_rng(0)
    for _ in range(20):
        spec = random_spec(rng, 4, 3)
        assert abs(spec.omega - (1.0 - spec.party_weight(1))) <= 1e-12


def test_build_state_qubit_w():
    np.testing.assert_allclose(build_state(equal_w3()).amplitudes, w_state(3).amplitudes)


def test_build_state_vacuum_at_p_zero():
    rng = np.random.default_rng(1)
    spec = random_spec(rng, 3, 3)
    vac = WClassSpec(spec.n, spec.d, spec.a, 0.0)
    np.testing.assert_allclose(
        build_state(vac).amplitudes, basis_state((3, 3, 3), (0, 0, 0)).amplitudes
    )


def test_build_state_support_is_hamming_weight_le_one():
    rng = np.random.default_rng(2)
    spec = random_spec(rng, 4, 3)
    psi = build_state(spec)
    tens = np.abs(psi.as_tensor())
    for idx in np.argwhere(tens > 1e-14):
        assert np.count_nonzero(idx) <= 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_index_map_matches_the_digit_loop_bit_for_bit(n, d):
    # every keep that holds party 0; the Haar reductions put weight on the
    # kets outside_amplitude must skip, where a W-class state has none
    rng = np.random.default_rng(10 * n + d)
    spec = random_spec(rng, n, d)
    psi = build_state(spec)
    haar = haar_random_state((d,) * n, rng)
    loop = PureState(psi.dims, reference_reduced_xy(spec, range(n))[0])
    assert psi.amplitudes.tobytes() == loop.amplitudes.tobytes()
    for size in range(n):
        for rest in combinations(range(1, n), size):
            keep = (0,) + rest
            got, want = reduced_xy(spec, keep), reference_reduced_xy(spec, keep)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
            for state in (psi, haar):
                rho = reduced_density(state, keep)
                assert outside_amplitude(rho) == reference_outside_amplitude(rho)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_one_scren_closed_vacuum_is_zero():
    rng = np.random.default_rng(3)
    spec = random_spec(rng, 3, 3)
    assert one_scren_closed(WClassSpec(spec.n, spec.d, spec.a, 0.0)) == 0.0


def test_one_scren_closed_qubit_w():
    assert abs(one_scren_closed(equal_w3()) - 8 / 9) <= 1e-12


def test_two_scren_closed_qubit_w():
    for s in (2, 3):
        assert abs(two_scren_closed(equal_w3(), s) - 4 / 9) <= 1e-12


def test_two_scren_closed_out_of_range():
    with pytest.raises(ValueError):
        two_scren_closed(equal_w3(), 1)
    with pytest.raises(ValueError):
        two_scren_closed(equal_w3(), 4)


def test_two_scren_closed_zero_row():
    a = np.zeros((3, 2), dtype=complex)
    a[0, 0] = np.sqrt(0.5)
    a[1, 1] = np.sqrt(0.5)
    spec = WClassSpec(3, 3, a, 0.8)
    assert two_scren_closed(spec, 3) == 0.0


def test_pair_sum_equals_one_scren_exactly():
    rng = np.random.default_rng(4)
    for _ in range(50):
        spec = random_spec(rng, int(rng.integers(3, 6)), int(rng.integers(2, 4)))
        total = sum(two_scren_closed(spec, s) for s in range(2, spec.n + 1))
        assert abs(total - one_scren_closed(spec)) <= 1e-12


def test_one_scren_closed_matches_pure_negativity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        spec = random_spec(rng, 4, 3)
        numeric = negativity_pure(build_state(spec), Bipartition((0,), 4)) ** 2
        assert abs(numeric - one_scren_closed(spec)) <= 1e-9


def test_one_scren_closed_matches_explicit_marginal():
    # route through the explicit d x d focus marginal: ((tr sqrt(rho))^2 - 1)^2,
    # with eigenvalues below the 1e-12 rank threshold treated as exact zeros
    # (sqrt would otherwise amplify pure roundoff above the tolerance)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        spec = random_spec(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        ev = np.linalg.eigvalsh(marginal_focus_matrix(spec))
        ev = np.where(ev > 1e-12, ev, 0.0)
        via_marginal = (np.sqrt(ev).sum() ** 2 - 1.0) ** 2
        assert abs(via_marginal - one_scren_closed(spec)) <= 1e-9


# ---------------------------------------------------------------------------
# reduced_xy
# ---------------------------------------------------------------------------

def test_reduced_xy_keep_all():
    rng = np.random.default_rng(7)
    spec = random_spec(rng, 3, 3)
    x, y = reduced_xy(spec, range(3))
    assert np.linalg.norm(y) == 0.0
    np.testing.assert_allclose(x, build_state(spec).amplitudes, atol=1e-12)


def test_reduced_xy_w3_pair_weight():
    x, y = reduced_xy(equal_w3(), (0, 1))
    assert abs(np.linalg.norm(y) ** 2 - 1 / 3) <= 1e-12


def test_reduced_xy_reconstructs_reduction():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        spec = random_spec(rng, n, int(rng.integers(2, 4)))
        size = int(rng.integers(1, n))
        keep = (0,) + tuple(sorted(rng.choice(np.arange(1, n), size=size, replace=False).tolist()))
        x, y = reduced_xy(spec, keep)
        rebuilt = np.outer(x, x.conj()) + np.outer(y, y.conj())
        rho = reduced_density(build_state(spec), keep)
        assert np.abs(rebuilt - rho.matrix).max() <= 1e-10


def test_reduced_xy_requires_focus():
    rng = np.random.default_rng(9)
    spec = random_spec(rng, 3, 3)
    with pytest.raises(ValueError, match="focus"):
        reduced_xy(spec, (1, 2))


# ---------------------------------------------------------------------------
# lemma and theorem reports
# ---------------------------------------------------------------------------

def test_lemma1_rank_one_reduction():
    rng = np.random.default_rng(10)
    spec = random_spec(rng, 3, 3)
    pure = WClassSpec(spec.n, spec.d, spec.a, 1.0)
    rep = verify_lemma1(build_state(pure), range(3))
    assert rep.passed


def test_lemma1_two_party_reduction():
    rng = np.random.default_rng(11)
    spec = random_spec(rng, 4, 3)
    rep = verify_lemma1(build_state(spec), (0, 2))
    assert rep.passed and rep.max_violation <= 1e-10


def test_lemma1_all_subsets_of_random_specs():
    rng = np.random.default_rng(12)
    from itertools import combinations

    for _ in range(5):
        psi = build_state(random_spec(rng, 4, 3))
        for size in (2, 3):
            for rest in combinations(range(1, 4), size - 1):
                rep = verify_lemma1(psi, (0,) + rest)
                assert rep.passed


def _w_plus_weight_two(eps: float) -> np.ndarray:
    """Unit 3-qubit W-plus-vacuum vector with amplitude eps on |110>."""
    w = build_state(random_spec(np.random.default_rng(20), 3, 2)).amplitudes
    assert w[6] == 0.0
    out = np.sqrt(1.0 - eps**2) * w
    out[6] = eps
    return out


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 0.25])
def test_outside_amplitude_detects_weight_two_admixture(eps):
    psi = _w_plus_weight_two(eps)
    rho = DensityMatrix((2, 2, 2), np.outer(psi, psi.conj()))
    violation = outside_amplitude(rho)
    assert abs(violation - eps) <= 1e-12
    assert violation > HAMMING_SUPPORT_ATOL


def test_outside_amplitude_bounds_every_hjw_member():
    # range span{psi, |000>}: the best unit vector drops the vacuum part of psi
    eps = 1e-3
    psi = _w_plus_weight_two(eps)
    vac = np.zeros(8, dtype=complex)
    vac[0] = 1.0
    rho = DensityMatrix((2, 2, 2), 0.6 * np.outer(psi, psi.conj()) + 0.4 * np.outer(vac, vac))
    bound = outside_amplitude(rho)
    assert abs(bound - eps / np.sqrt(1.0 - abs(psi[0]) ** 2)) <= 1e-12
    rng = np.random.default_rng(21)
    for size in (2, 4, 6):
        rows = hjw_rows(rho, haar_unitary(size, rng))
        members = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        assert np.abs(members[:, 6]).max() <= bound + 1e-12


def test_theorem1_qubit_w():
    rep = theorem1(equal_w3())
    assert rep.passed
    assert abs(rep.one_numeric - 8 / 9) <= 1e-9
    np.testing.assert_allclose(rep.pair_closed, [4 / 9, 4 / 9], atol=1e-12)


def test_theorem1_vacuum():
    rng = np.random.default_rng(13)
    spec = random_spec(rng, 3, 3)
    rep = theorem1(WClassSpec(spec.n, spec.d, spec.a, 0.0))
    assert rep.passed
    assert rep.one_numeric <= 1e-12
    assert max(rep.pair_numeric) <= 1e-12


def test_theorem1_random_qudit_spec():
    rng = np.random.default_rng(14)
    rep = theorem1(random_spec(rng, 4, 3))
    assert rep.passed
    assert max(rep.pair_errors) <= 1e-3 and rep.sum_error <= 1e-3


def test_theorem1_qubit_pairs_are_wootters():
    rng = np.random.default_rng(19)
    for _ in range(4):
        spec = random_spec(rng, 4, 2)
        psi = build_state(spec)
        expected = tuple(wootters_tangle(reduced_density(psi, (0, s))) for s in (1, 2, 3))
        assert theorem1(spec).pair_numeric == expected


def test_theorem1_reads_a_ckw_and_an_sm_report_alike(monkeypatch):
    # the verdict is read off the one value and the pair terms, which a CKW
    # report shares with the pair level of the SM report; no roof runs
    spec = random_spec(np.random.default_rng(18), 4, 3)
    psi = build_state(spec)
    ckw = ckw_report(psi, 0, "scren", FAST)
    sm = sm_report(psi, 0, "scren", FAST)

    def no_roof(*args, **kwargs):
        raise AssertionError("verify_theorem1 ran a roof")

    monkeypatch.setattr("scren.roof.roof_minimize", no_roof)
    from_ckw = verify_theorem1(spec, ckw)
    from_sm = verify_theorem1(spec, sm)
    assert repr(from_ckw) == repr(from_sm)  # float reprs round-trip, so bitwise
    assert from_ckw.passed


def test_theorem1_rejects_a_tangle_report():
    # on qubits the tangle values equal the SCREN ones, so this would pass silently
    spec = equal_w3()
    rep = ckw_report(build_state(spec), 0, "tangle", FAST)
    with pytest.raises(ValueError, match="measure 'tangle'"):
        verify_theorem1(spec, rep)


def test_theorem1_rejects_another_focus():
    # the equal-weight W state is symmetric, so this would pass silently too
    spec = equal_w3()
    rep = ckw_report(build_state(spec), 1, "scren", FAST)
    with pytest.raises(ValueError, match="focus 1"):
        verify_theorem1(spec, rep)


def test_theorem1_rejects_a_report_of_another_party_count():
    # zipping 2 pair terms with 3 closed forms would silently drop one
    spec = random_spec(np.random.default_rng(3), 4, 2)
    rep = ckw_report(build_state(random_spec(np.random.default_rng(3), 3, 2)), 0, "scren", FAST)
    assert len([t for t in rep.terms if t.order == 2]) == 2
    with pytest.raises(ValueError, match="needs 3 pair terms, got a report with 2"):
        verify_theorem1(spec, rep)


def test_theorem2_three_parties():
    rng = np.random.default_rng(15)
    rep = verify_theorem2(build_state(random_spec(rng, 3, 3)), FAST)
    assert rep.passed and abs(rep.report.residual) <= 1e-3


def test_theorem2_four_parties():
    rng = np.random.default_rng(16)
    rep = verify_theorem2(build_state(random_spec(rng, 4, 3)), FAST)
    assert rep.passed
    assert rep.max_higher_term <= 1e-3


def test_theorem2_vacuum_all_zero():
    rng = np.random.default_rng(17)
    spec = random_spec(rng, 4, 3)
    rep = verify_theorem2(build_state(WClassSpec(spec.n, spec.d, spec.a, 0.0)), FAST)
    assert rep.passed
    assert abs(rep.report.residual) <= 1e-12 and rep.max_higher_term <= 1e-12


def test_theorem2_verdict_is_read_off_its_report():
    rng = np.random.default_rng(16)
    thm2 = verify_theorem2(build_state(random_spec(rng, 4, 3)), FAST)
    assert thm2.passed
    assert thm2.max_higher_term == max(t.value for t in thm2.report.terms if t.order >= 3)
    terms = list(thm2.report.terms)
    (k,) = [i for i, t in enumerate(terms) if t.subset == (2, 3)]
    terms[k] = replace(terms[k], value=0.25)
    higher = replace(thm2, report=replace(thm2.report, terms=tuple(terms)))
    assert higher.max_higher_term == 0.25
    assert not higher.passed
    shifted = replace(thm2, report=replace(thm2.report, one_value=thm2.report.one_value + 0.01))
    assert shifted.max_higher_term == thm2.max_higher_term
    assert not shifted.passed
    pairs = replace(thm2, report=replace(thm2.report, terms=thm2.report.terms[:3]))
    assert pairs.max_higher_term == 0.0


def test_wclass_trial_runs_lemma1_on_its_report_states(monkeypatch):
    # Lemma 1 covers exactly the reduced states the SM report measured
    keeps = []

    def recording(psi, keep):
        keeps.append(keep)
        return verify_lemma1(psi, keep)

    monkeypatch.setattr("scren.suites.verify_lemma1", recording)
    spec = random_spec(np.random.default_rng(3), 5, 3)
    result = _wclass_trial((0, spec), RoofConfig(seed=7))
    expected = [(0,) + rest for size in (1, 2, 3) for rest in combinations(range(1, 5), size)]
    assert len(expected) == 14
    assert keeps == expected
    assert result["lemma1_passed"]


def test_wclass_trial_reads_theorem1_off_its_sm_report(monkeypatch):
    # one SM report per trial: no second CKW report, and the same Theorem 1
    spec = random_spec(np.random.default_rng(4), 5, 3)
    config = RoofConfig(seed=7)
    alone = theorem1(spec, config)
    reports = []

    def recording(psi, focus, measure, config):
        reports.append(psi.dims)
        return sm_report(psi, focus, measure, config)

    monkeypatch.setattr("scren.wclass.sm_report", recording)
    monkeypatch.setattr("scren.suites.ckw_report", None)
    result = _wclass_trial((0, spec), config)
    assert reports == [(3,) * 5]
    assert result["theorem1_passed"] == alone.passed
    assert result["theorem1_max_error"] == max(max(alone.pair_errors), alone.sum_error)


def test_wclass_trial_builds_its_state_once(monkeypatch):
    # the SM report and all 14 Lemma 1 checks share one built state, and the
    # record equals the one the public checks give
    spec = random_spec(np.random.default_rng(5), 5, 3)
    config = RoofConfig(seed=7)
    psi = build_state(spec)
    thm2 = verify_theorem2(psi, config)
    thm1 = verify_theorem1(spec, thm2.report)
    lemma = [verify_lemma1(psi, (0,) + tuple(j - 1 for j in t.subset)) for t in thm2.report.terms]
    expected = {
        "trial": 0,
        "p": spec.p,
        "theorem1_passed": thm1.passed,
        "theorem1_max_error": max(max(thm1.pair_errors), thm1.sum_error),
        "theorem2_passed": thm2.passed,
        "theorem2_residual": thm2.report.residual,
        "theorem2_max_higher_term": thm2.max_higher_term,
        "lemma1_max_violation": max(rep.max_violation for rep in lemma),
        "lemma1_passed": all(rep.passed for rep in lemma),
    }
    builds = []

    def counting(spec):
        builds.append(spec)
        return build_state(spec)

    monkeypatch.setattr("scren.suites.build_state", counting)
    monkeypatch.setattr("scren.wclass.build_state", counting)
    result = _wclass_trial((0, spec), config)
    assert len(builds) == 1
    assert json.dumps(result) == json.dumps(expected)


def test_wclass_trial_takes_no_eigh(monkeypatch):
    # every reduced state of the trial is factored, so its support is a thin SVD
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    DensityMatrix((2,), np.eye(2) / 2).support  # the counter sees an unfactored support
    assert calls == [(2, 2)]
    result = _wclass_trial((0, random_spec(np.random.default_rng(6), 5, 3)), RoofConfig(seed=7))
    assert calls == [(2, 2)]
    assert result["theorem2_passed"] and result["lemma1_passed"]
