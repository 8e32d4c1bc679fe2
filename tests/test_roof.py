"""Convex-roof engine: ensemble mixing, minimization, and its invariants."""

import numpy as np
import pytest

from scren import (
    Bipartition,
    ConjectureViolation,
    DensityMatrix,
    PureState,
    RoofConfig,
    bell_state,
    cren,
    haar_random_state,
    haar_unitary,
    hjw_ensemble,
    member_average,
    n_scren_pure,
    negativity_pure,
    reduced_density,
    roof_minimize,
    roof_sqrt_functional,
    scren2,
    to_density,
    wootters_tangle,
)
from scren.roof import _support
from scren.wclass import build_state, random_spec

from util import random_mixed_state, random_rank2_two_qubit

PART2 = Bipartition((0,), 2)
FAST = RoofConfig(starts=8, iters=600, seed=7)


# ---------------------------------------------------------------------------
# mixing unitaries and ensembles
# ---------------------------------------------------------------------------

def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        u = haar_unitary(n, rng)
        assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-12


def test_mixing_unitary_rejects_non_unitary():
    rho = random_mixed_state(np.random.default_rng(0), (2, 2), rank=2)
    with pytest.raises(ValueError, match="unitary"):
        hjw_ensemble(rho, np.ones((2, 2)))
    with pytest.raises(ValueError, match="square"):
        hjw_ensemble(rho, np.eye(3)[:, :2])


def test_ensemble_weight_validation():
    from scren import Ensemble

    psi = bell_state()
    with pytest.raises(ValueError, match="sum"):
        Ensemble(((0.5, psi), (0.4, psi)))
    with pytest.raises(ValueError, match="nonnegative"):
        Ensemble(((1.5, psi), (-0.5, psi)))
    with pytest.raises(ValueError, match="sum"):
        Ensemble(((float("nan"), psi), (0.5, psi)))
    with pytest.raises(ValueError, match="at least one"):
        Ensemble(())


def test_config_child_shrinks_budget():
    child = RoofConfig(starts=16, iters=2000, seed=3).child()
    assert child.starts < 16 and child.iters < 2000
    assert child.seed == 3
    grandchild = child.child()
    assert grandchild.starts >= 3 and grandchild.iters >= 200


def test_hjw_identity_returns_eigendecomposition():
    rng = np.random.default_rng(1)
    rho = random_mixed_state(rng, (2, 2), rank=2)
    lam, base = _support(rho)
    ens = hjw_ensemble(rho, np.eye(2))
    weights = sorted(ens.weights, reverse=True)
    np.testing.assert_allclose(weights, sorted(lam, reverse=True), atol=1e-12)


def test_hjw_rank_one_gives_single_member():
    psi = bell_state()
    ens = hjw_ensemble(to_density(psi), np.eye(1))
    assert len(ens.members) == 1
    overlap = abs(np.vdot(ens.states[0].amplitudes, psi.amplitudes))
    assert abs(overlap - 1.0) <= 1e-12


def test_hjw_padded_ensemble_reconstructs():
    rng = np.random.default_rng(2)
    rho = random_mixed_state(rng, (2, 2), rank=2)
    u = haar_unitary(3, rng)
    ens = hjw_ensemble(rho, u)
    assert len(ens.members) == 3
    assert np.abs(ens.reconstruct() - rho.matrix).max() <= 1e-10


def test_hjw_rejects_undersized_matrix():
    rng = np.random.default_rng(3)
    rho = random_mixed_state(rng, (2, 2), rank=3)
    with pytest.raises(ValueError, match="below the rank"):
        hjw_ensemble(rho, np.eye(2))


def test_hjw_reconstruction_random_pairs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rank = int(rng.integers(1, 4))
        rho = random_mixed_state(rng, (2, 2), rank=rank)
        size = rho.rank() + int(rng.integers(0, 3))
        ens = hjw_ensemble(rho, haar_unitary(size, rng))
        assert np.abs(ens.reconstruct() - rho.matrix).max() <= 1e-10


# ---------------------------------------------------------------------------
# roof_minimize basics
# ---------------------------------------------------------------------------

def test_pure_input_evaluates_objective_directly():
    psi = bell_state()
    res = roof_minimize(
        to_density(psi), member_average(psi.dims, lambda s: negativity_pure(s, PART2)), FAST
    )
    assert res.starts == 0 and res.converged
    assert abs(res.value - 1.0) <= 1e-12


def test_constant_objective_returns_constant():
    rng = np.random.default_rng(6)
    rho = random_mixed_state(rng, (2, 2), rank=3)
    res = roof_minimize(rho, member_average(rho.dims, lambda s: 0.7), FAST)
    assert abs(res.value - 0.7) <= 1e-12
    assert res.starts == 0  # detected as decomposition independent


def test_ensemble_size_bounds_enforced():
    rng = np.random.default_rng(7)
    rho = random_mixed_state(rng, (2, 2), rank=2)
    with pytest.raises(ValueError, match="outside"):
        roof_minimize(rho, member_average(rho.dims, lambda s: 1.0), RoofConfig(ensemble_size=1, seed=0))
    with pytest.raises(ValueError, match="outside"):
        roof_minimize(rho, member_average(rho.dims, lambda s: 1.0), RoofConfig(ensemble_size=7, seed=0))


def test_value_matches_ensemble_average():
    rng = np.random.default_rng(8)
    rho = random_rank2_two_qubit(rng)
    objective = lambda s: negativity_pure(s, PART2)
    res = roof_minimize(rho, member_average(rho.dims, objective), FAST)
    assert abs(res.value - res.ensemble.average(objective)) <= 1e-9


def test_value_upper_bounded_by_eigendecomposition_average():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = random_mixed_state(rng, (2, 2), rank=int(rng.integers(2, 4)))
        eigen_avg = hjw_ensemble(rho, np.eye(rho.rank())).average(
            lambda s: negativity_pure(s, PART2)
        )
        assert cren(rho, PART2, FAST) <= eigen_avg + 1e-9


def test_history_has_one_entry_per_start_and_bounds_value():
    rng = np.random.default_rng(10)
    rho = random_rank2_two_qubit(rng)
    res = roof_minimize(rho, member_average(rho.dims, lambda s: negativity_pure(s, PART2)), FAST)
    if res.starts:  # not short-circuited
        assert len(res.history) == res.starts
        assert res.value <= min(res.history) + 1e-9


def test_seed_determinism():
    rng = np.random.default_rng(11)
    rho = random_rank2_two_qubit(rng)
    a = cren(rho, PART2, RoofConfig(starts=6, iters=400, seed=123))
    b = cren(rho, PART2, RoofConfig(starts=6, iters=400, seed=123))
    assert abs(a - b) <= 1e-15


def test_seed_changes_explore_differently_but_agree():
    rng = np.random.default_rng(12)
    rho = random_rank2_two_qubit(rng)
    a = cren(rho, PART2, RoofConfig(seed=1))
    b = cren(rho, PART2, RoofConfig(seed=2))
    assert abs(a - b) <= 1e-5


def test_enlarging_ensemble_never_raises_value():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = random_rank2_two_qubit(rng)
        r = rho.rank()
        small = cren(rho, PART2, RoofConfig(starts=8, iters=800, ensemble_size=r, seed=5))
        large = cren(rho, PART2, RoofConfig(starts=8, iters=800, ensemble_size=r + 2, seed=5))
        assert large <= small + 1e-6


# ---------------------------------------------------------------------------
# cren / scren2
# ---------------------------------------------------------------------------

def test_cren_vector_path_matches_generic_objective():
    # the batched negativity objective must agree with the per-member one,
    # including on a cut whose side A is not the first subsystem
    rng = np.random.default_rng(23)
    for side_a in [(0,), (1,)]:
        rho = random_mixed_state(rng, (2, 3), rank=2)
        part = Bipartition(side_a, 2)
        cfg = RoofConfig(starts=5, iters=400, seed=13)
        fast = cren(rho, part, cfg)
        generic = roof_minimize(rho, member_average(rho.dims, lambda s: negativity_pure(s, part)), cfg)
        assert abs(fast - generic.value) <= 1e-7


def test_cren_separable_mixture_is_zero():
    zero = np.zeros(4, dtype=complex)
    a = zero.copy(); a[0] = 1.0          # |00>
    plus = np.full(2, 1 / np.sqrt(2))
    b = np.kron(plus, plus).astype(complex)  # |++>
    mat = 0.4 * np.outer(a, a.conj()) + 0.6 * np.outer(b, b.conj())
    rho = DensityMatrix((2, 2), mat)
    assert cren(rho, PART2, FAST) <= 1e-6


def test_cren_pure_bell_is_one():
    assert abs(cren(to_density(bell_state()), PART2, FAST) - 1.0) <= 1e-9


def test_cren_matches_wootters_root():
    rng = np.random.default_rng(14)
    for _ in range(5):
        rho = random_rank2_two_qubit(rng)
        assert abs(cren(rho, PART2) - np.sqrt(wootters_tangle(rho))) <= 1e-4


def test_scren2_is_cren_squared():
    rng = np.random.default_rng(15)
    rho = random_rank2_two_qubit(rng)
    assert abs(scren2(rho, PART2, FAST) - cren(rho, PART2, FAST) ** 2) <= 1e-12


def test_scren2_full_output_diagnostics():
    rng = np.random.default_rng(16)
    rho = random_rank2_two_qubit(rng)
    value, result = scren2(rho, PART2, FAST, full_output=True)
    assert result.converged
    assert abs(value - max(0.0, result.value) ** 2) <= 1e-12


def test_scren2_separable_mixture_stops_at_floor():
    # a separable pair reaches the squared-roof floor and skips the other starts
    rng = np.random.default_rng(24)
    for dims in [(2, 2), (3, 2)]:
        mat = np.zeros((dims[0] * dims[1],) * 2, dtype=complex)
        for w in (0.3, 0.7):
            psi = np.kron(*(haar_random_state((d,), rng).amplitudes for d in dims))
            mat += w * np.outer(psi, psi.conj())
        value, result = scren2(DensityMatrix(dims, mat), PART2, full_output=True)
        assert value <= 1e-10
        assert result.starts < RoofConfig().starts


# ---------------------------------------------------------------------------
# roof_sqrt_functional
# ---------------------------------------------------------------------------

def test_sqrt_roof_pure_input():
    psi = bell_state()
    val = roof_sqrt_functional(to_density(psi), lambda s: negativity_pure(s, PART2) ** 2, FAST)
    assert abs(val - 1.0) <= 1e-9


def test_sqrt_roof_of_squared_negativity_equals_scren2():
    rng = np.random.default_rng(17)
    rho = random_rank2_two_qubit(rng)
    via_sqrt = roof_sqrt_functional(rho, lambda s: negativity_pure(s, PART2) ** 2)
    assert abs(via_sqrt - scren2(rho, PART2)) <= 1e-6


def test_sqrt_roof_clamps_roundoff_negatives():
    rng = np.random.default_rng(18)
    rho = random_mixed_state(rng, (2, 2), rank=2)
    assert roof_sqrt_functional(rho, lambda s: -5e-8, FAST) == 0.0


def test_sqrt_roof_raises_conjecture_violation():
    rng = np.random.default_rng(19)
    rho = random_mixed_state(rng, (2, 2), rank=2)
    with pytest.raises(ConjectureViolation) as err:
        roof_sqrt_functional(rho, lambda s: -1.0, FAST)
    assert err.value.value == -1.0
    assert isinstance(err.value.state, PureState)


def test_sqrt_roof_three_party_wclass_term_vanishes():
    # three-qudit reductions of a W-plus-vacuum state have zero residual
    rng = np.random.default_rng(20)
    spec = random_spec(rng, 4, 3)
    psi = build_state(spec)
    rho = reduced_density(psi, (0, 1, 2))
    val = roof_sqrt_functional(rho, lambda s: n_scren_pure(s, 0, FAST.child()), FAST)
    assert val <= 1e-3


def test_decomposition_independence_of_wclass_pair_reduction():
    # the ensemble-average root-negativity is the same for any mixing unitary
    rng = np.random.default_rng(21)
    spec = random_spec(rng, 4, 3)
    rho = reduced_density(build_state(spec), (0, 1))
    rank = rho.rank()
    averages = []
    for _ in range(50):
        ens = hjw_ensemble(rho, haar_unitary(rank, rng))
        averages.append(ens.average(lambda s: negativity_pure(s, PART2)))
    assert max(averages) - min(averages) <= 1e-8


def test_support_rows_rebuild_the_matrix():
    # subnormalized eigenvector rows satisfy sum_i |b_i><b_i| = rho
    rng = np.random.default_rng(22)
    rho = random_mixed_state(rng, (2, 2), rank=3)
    _, base = _support(rho)
    rebuilt = base.T @ base.conj()
    assert np.abs(rebuilt - rho.matrix).max() <= 1e-10
