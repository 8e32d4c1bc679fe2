"""Tangle hierarchy and the Wootters closed-form oracle."""

import numpy as np
import pytest

from scren import (
    Bipartition,
    CostGuardError,
    DensityMatrix,
    RoofConfig,
    bell_state,
    ghz_state,
    haar_random_state,
    n_tangle_pure,
    negativity_pure,
    one_tangle,
    reduced_density,
    scren2,
    three_tangle_rows,
    to_density,
    two_tangle,
    w_state,
    wootters_tangle,
)
from scren.monogamy import CKW_COUNTEREXAMPLE_322

from util import (
    random_local_unitaries,
    random_local_unitaries_mixed,
    random_mixed_state,
    random_rank2_two_qubit,
    reference_three_tangle_rows,
    tensor,
)

PART2 = Bipartition((0,), 2)
FAST = RoofConfig(starts=8, iters=600, seed=7)


def werner(p: float) -> DensityMatrix:
    phi = bell_state()
    mat = p * np.outer(phi.amplitudes, phi.amplitudes.conj()) + (1 - p) * np.eye(4) / 4
    return DensityMatrix((2, 2), mat)


# ---------------------------------------------------------------------------
# one_tangle
# ---------------------------------------------------------------------------

def test_one_tangle_product_state():
    rng = np.random.default_rng(0)
    psi = tensor([haar_random_state((2,), rng), haar_random_state((2,), rng)])
    assert one_tangle(psi, PART2) <= 1e-12


def test_one_tangle_bell():
    assert abs(one_tangle(bell_state(), PART2) - 1.0) <= 1e-12


def test_one_tangle_counterexample_is_four_thirds():
    value = one_tangle(CKW_COUNTEREXAMPLE_322, Bipartition((0,), 3))
    assert abs(value - 4.0 / 3.0) <= 1e-12


def test_one_tangle_equals_squared_negativity_for_rank_two():
    # for Schmidt rank 2 both equal 4 lam1 lam2
    rng = np.random.default_rng(1)
    for k in (2, 3, 4):
        for _ in range(20):
            psi = haar_random_state((2, k), rng)
            diff = one_tangle(psi, PART2) - negativity_pure(psi, PART2) ** 2
            assert abs(diff) <= 1e-9


def test_one_tangle_local_unitary_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        psi = haar_random_state((2, 3), rng)
        rotated = random_local_unitaries(psi, rng)
        assert abs(one_tangle(psi, PART2) - one_tangle(rotated, PART2)) <= 1e-9


def test_one_tangle_qudit_focus_uses_linear_entropy():
    # spectrum (1/3, 1/3, 1/3) gives 2 (1 - 1/3) = 4/3
    rho_a = reduced_density(CKW_COUNTEREXAMPLE_322, [0])
    expected = 2.0 * (1.0 - np.trace(rho_a.matrix @ rho_a.matrix).real)
    assert abs(one_tangle(CKW_COUNTEREXAMPLE_322, Bipartition((0,), 3)) - expected) <= 1e-12


# ---------------------------------------------------------------------------
# wootters_tangle
# ---------------------------------------------------------------------------

def test_wootters_bell():
    assert abs(wootters_tangle(to_density(bell_state())) - 1.0) <= 1e-12


def test_wootters_maximally_mixed():
    assert wootters_tangle(DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4)) == 0.0


def test_wootters_werner_closed_form():
    # C = max(0, (3p-1)/2) for the Werner family
    for p in (0.9, 0.5, 1 / 3, 0.1):
        expected = max(0.0, (3 * p - 1) / 2) ** 2
        assert abs(wootters_tangle(werner(p)) - expected) <= 1e-12
    assert abs(wootters_tangle(werner(0.9)) - 0.7225) <= 1e-12


def test_wootters_pure_states_equal_one_tangle():
    # a rank-one input leaves no roundoff roots: C^2 is the pure-state tangle
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(200):
        psi = haar_random_state((2, 2), rng)
        worst = max(worst, abs(wootters_tangle(to_density(psi)) - one_tangle(psi, PART2)))
    assert worst <= 1e-13


@pytest.mark.parametrize("rank", [2, 3])
def test_wootters_is_local_unitary_invariant(rank):
    rng = np.random.default_rng(70 + rank)
    for _ in range(5):
        rho = random_mixed_state(rng, (2, 2), rank)
        values = [wootters_tangle(rho)]
        values += [wootters_tangle(random_local_unitaries_mixed(rho, rng)) for _ in range(3)]
        assert max(values) - min(values) <= 1e-12


def test_wootters_rejects_wrong_dims():
    rng = np.random.default_rng(3)
    rho = to_density(haar_random_state((3, 2), rng))
    with pytest.raises(ValueError, match="qubit"):
        wootters_tangle(rho)


# ---------------------------------------------------------------------------
# three_tangle_rows
# ---------------------------------------------------------------------------

def test_three_tangle_fixture_values():
    biseparable = tensor([bell_state(), ghz_state(1)])
    rows = np.stack([psi.amplitudes for psi in (ghz_state(3), w_state(3), biseparable)])
    values = three_tangle_rows(rows)
    assert values.shape == (3,)
    assert abs(values[0] - 1.0) <= 1e-15
    assert values[1] <= 1e-15 and values[2] <= 1e-15


def test_three_tangle_scaled_row_is_w_squared_times_normalized():
    # Det is homogeneous of degree 4: a row sqrt(w)|psi> gives w^2 tau_3(psi)
    rng = np.random.default_rng(21)
    for w in (0.05, 0.4, 1.0, 2.5):
        psi = haar_random_state((2, 2, 2), rng)
        (normalized,) = three_tangle_rows(psi.amplitudes[None])
        (scaled,) = three_tangle_rows(np.sqrt(w) * psi.amplitudes[None])
        assert abs(scaled - w**2 * normalized) <= 1e-14 * max(1.0, w**2)


def test_three_tangle_local_unitary_invariance_and_batching():
    rng = np.random.default_rng(22)
    states = [haar_random_state((2, 2, 2), rng) for _ in range(5)]
    batch = three_tangle_rows(np.stack([psi.amplitudes for psi in states]))
    for psi, value in zip(states, batch):
        moved = random_local_unitaries(psi, rng)
        assert abs(three_tangle_rows(moved.amplitudes[None])[0] - value) <= 1e-13
        assert abs(three_tangle_rows(psi.amplitudes[None])[0] - value) <= 1e-15


@pytest.mark.parametrize("length", [1, 2, 16, 1000])
def test_three_tangle_rows_keeps_the_column_code_bits(length):
    # the stack carrier of the one hyperdeterminant returns the column code's bits
    rng = np.random.default_rng(400 + length)
    rows = rng.normal(size=(length, 8)) + 1j * rng.normal(size=(length, 8))
    for stack in (rows, rows / np.linalg.norm(rows, axis=1)[:, None]):
        assert three_tangle_rows(stack).tobytes() == reference_three_tangle_rows(stack).tobytes()


def test_three_tangle_rejects_wrong_shape():
    with pytest.raises(ValueError, match="8"):
        three_tangle_rows(np.zeros((2, 4), dtype=complex))


# ---------------------------------------------------------------------------
# two_tangle
# ---------------------------------------------------------------------------

def test_two_tangle_separable():
    rho = DensityMatrix((2, 2), np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex))
    assert two_tangle(rho, FAST) <= 1e-6


def test_two_tangle_counterexample_pair_values():
    rho_ab = reduced_density(CKW_COUNTEREXAMPLE_322, [0, 1])
    rho_ac = reduced_density(CKW_COUNTEREXAMPLE_322, [0, 2])
    assert abs(two_tangle(rho_ab, FAST) - 8.0 / 9.0) <= 1e-3
    assert abs(two_tangle(rho_ac, FAST) - 8.0 / 9.0) <= 1e-3


def test_two_tangle_matches_wootters_oracle():
    # the core optimizer-validation test: closed form versus convex roof
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        rho = random_rank2_two_qubit(rng)
        worst = max(worst, abs(two_tangle(rho) - wootters_tangle(rho)))
    assert worst <= 1e-4


def test_two_tangle_is_scren2():
    # on 2 x k pairs the two-tangle is the SCREN roof, run along the same path
    rng = np.random.default_rng(10)
    cfg = RoofConfig(starts=3, iters=300, seed=11)
    for dims in [(2, 2), (2, 3), (3, 2)]:
        for rank in (2, 3):
            rho = random_mixed_state(rng, dims, rank)
            tangle, t_result = two_tangle(rho, cfg, full_output=True)
            scren, s_result = scren2(rho, PART2, cfg, full_output=True)
            assert tangle == scren
            assert t_result.value == s_result.value
            assert t_result.starts == s_result.starts
            assert t_result.converged == s_result.converged
            assert t_result.evals == s_result.evals
            assert np.array_equal(t_result.rows, s_result.rows)


def test_two_tangle_dimension_guard():
    rng = np.random.default_rng(5)
    rho = to_density(haar_random_state((3, 3), rng))
    with pytest.raises(ValueError, match="Schmidt rank"):
        two_tangle(rho)
    with pytest.raises(ValueError, match="bipartite"):
        two_tangle(to_density(haar_random_state((2, 2, 2), rng)))


# ---------------------------------------------------------------------------
# n_tangle_pure
# ---------------------------------------------------------------------------

def test_n_tangle_ghz3_is_one():
    assert abs(n_tangle_pure(ghz_state(3), 0, FAST) - 1.0) <= 1e-6


def test_n_tangle_w3_is_zero():
    # one-tangle 8/9 against two two-tangles of 4/9 each
    assert abs(n_tangle_pure(w_state(3), 0, FAST)) <= 1e-6


def test_n_tangle_two_qubits_reduces_to_pure_tangle():
    rng = np.random.default_rng(6)
    psi = haar_random_state((2, 2), rng)
    assert abs(n_tangle_pure(psi, 0, FAST) - one_tangle(psi, PART2)) <= 1e-12


def test_n_tangle_requires_qubits():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="qubit"):
        n_tangle_pure(haar_random_state((3, 3), rng), 0, FAST)


def test_n_tangle_cost_guard():
    with pytest.raises(CostGuardError):
        n_tangle_pure(ghz_state(6), 0, FAST)
