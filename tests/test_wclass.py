"""Generalized W-class plus vacuum family: closed forms and theorem checks."""

import numpy as np
import pytest

from scren import (
    Bipartition,
    RoofConfig,
    WClassSpec,
    basis_state,
    build_state,
    negativity_pure,
    one_scren_closed,
    random_spec,
    reduced_density,
    reduced_xy,
    two_scren_closed,
    verify_lemma1,
    verify_theorem1,
    verify_theorem2,
    w_state,
    wootters_tangle,
)
from scren.wclass import marginal_focus_matrix, spec_from_dict, spec_to_dict

FAST = RoofConfig(starts=8, iters=600, seed=7)


def equal_w3() -> WClassSpec:
    return WClassSpec(3, 2, np.full((3, 1), 1 / np.sqrt(3), dtype=complex), 1.0)


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
    rep = verify_lemma1(pure, range(3), trials=5, seed=1)
    assert rep.passed


def test_lemma1_two_party_reduction():
    rng = np.random.default_rng(11)
    spec = random_spec(rng, 4, 3)
    rep = verify_lemma1(spec, (0, 2), trials=50, seed=2)
    assert rep.passed and rep.max_violation <= 1e-10


def test_lemma1_all_subsets_of_random_specs():
    rng = np.random.default_rng(12)
    from itertools import combinations

    for _ in range(5):
        spec = random_spec(rng, 4, 3)
        for size in (2, 3):
            for rest in combinations(range(1, 4), size - 1):
                rep = verify_lemma1(spec, (0,) + rest, trials=10, seed=3)
                assert rep.passed


def test_theorem1_qubit_w():
    rep = verify_theorem1(equal_w3(), FAST)
    assert rep.passed
    assert abs(rep.one_numeric - 8 / 9) <= 1e-9
    np.testing.assert_allclose(rep.pair_closed, [4 / 9, 4 / 9], atol=1e-12)


def test_theorem1_vacuum():
    rng = np.random.default_rng(13)
    spec = random_spec(rng, 3, 3)
    rep = verify_theorem1(WClassSpec(spec.n, spec.d, spec.a, 0.0), FAST)
    assert rep.passed
    assert rep.one_numeric <= 1e-12
    assert max(rep.pair_numeric) <= 1e-12


def test_theorem1_random_qudit_spec():
    rng = np.random.default_rng(14)
    rep = verify_theorem1(random_spec(rng, 4, 3), FAST)
    assert rep.passed
    assert max(rep.pair_errors) <= 1e-3 and rep.sum_error <= 1e-3


def test_theorem1_qubit_pairs_are_wootters():
    rng = np.random.default_rng(19)
    for _ in range(4):
        spec = random_spec(rng, 4, 2)
        psi = build_state(spec)
        expected = tuple(wootters_tangle(reduced_density(psi, (0, s))) for s in (1, 2, 3))
        assert verify_theorem1(spec, FAST).pair_numeric == expected


def test_theorem2_three_parties():
    rng = np.random.default_rng(15)
    rep = verify_theorem2(random_spec(rng, 3, 3), FAST)
    assert rep.passed and abs(rep.residual) <= 1e-3


def test_theorem2_four_parties():
    rng = np.random.default_rng(16)
    rep = verify_theorem2(random_spec(rng, 4, 3), FAST)
    assert rep.passed
    assert rep.max_higher_term <= 1e-3


def test_theorem2_vacuum_all_zero():
    rng = np.random.default_rng(17)
    spec = random_spec(rng, 4, 3)
    rep = verify_theorem2(WClassSpec(spec.n, spec.d, spec.a, 0.0), FAST)
    assert rep.passed
    assert abs(rep.residual) <= 1e-12 and rep.max_higher_term <= 1e-12


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def test_spec_json_roundtrip():
    rng = np.random.default_rng(18)
    spec = random_spec(rng, 4, 3)
    again = spec_from_dict(spec_to_dict(spec))
    assert again.n == spec.n and again.d == spec.d
    assert abs(again.p - spec.p) <= 1e-15
    np.testing.assert_allclose(again.a, spec.a, atol=1e-15)


def test_spec_from_dict_validates_shape():
    with pytest.raises(ValueError, match="pairs"):
        spec_from_dict({"n": 3, "d": 2, "p": 0.5, "a": [[0.5], [0.5], [0.5]]})
