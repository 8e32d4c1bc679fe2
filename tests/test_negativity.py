"""Negativity of pure and mixed states."""

import numpy as np
import pytest

from scren import (
    Bipartition,
    DensityMatrix,
    bell_state,
    haar_random_state,
    haar_unitary,
    negativity_mixed,
    negativity_pure,
    reduced_density,
    to_density,
)
from scren.monogamy import CKW_COUNTEREXAMPLE_322
from scren.negativity import negativity_rows

from util import random_mixed_state, tensor

PART2 = Bipartition((0,), 2)


def werner(p: float) -> DensityMatrix:
    phi = bell_state()
    mat = p * np.outer(phi.amplitudes, phi.amplitudes.conj()) + (1 - p) * np.eye(4) / 4
    return DensityMatrix((2, 2), mat)


def test_product_state_has_zero_negativity():
    rng = np.random.default_rng(0)
    psi = tensor([haar_random_state((2,), rng), haar_random_state((3,), rng)])
    assert negativity_pure(psi, PART2) <= 1e-12


def test_bell_negativity_is_one():
    assert abs(negativity_pure(bell_state(), PART2) - 1.0) <= 1e-12


def test_counterexample_negativity_is_two():
    # lambda = (1/3, 1/3, 1/3) across A|BC, so 2 * 3 * (1/3) = 2
    value = negativity_pure(CKW_COUNTEREXAMPLE_322, Bipartition((0,), 3))
    assert abs(value - 2.0) <= 1e-12


def test_separable_diagonal_mixture_zero():
    rho = DensityMatrix((2, 2), np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex))
    assert negativity_mixed(rho, PART2) == 0.0


def test_mixed_matches_pure_on_projectors():
    rng = np.random.default_rng(1)
    for _ in range(20):
        psi = haar_random_state((2, 3), rng)
        diff = negativity_mixed(to_density(psi), PART2) - negativity_pure(psi, PART2)
        assert abs(diff) <= 1e-9


def test_werner_negativity_closed_form():
    # partial transpose spectrum {(1+p)/4 x3, (1-3p)/4}
    for p in (1.0, 0.9, 0.5, 1 / 3, 0.2):
        expected = max(0.0, (3 * p - 1) / 2)
        assert abs(negativity_mixed(werner(p), PART2) - expected) <= 1e-12


def test_two_route_agreement():
    # Schmidt-sum route equals (tr sqrt(rho_A))^2 - 1 on random states
    rng = np.random.default_rng(2)
    for _ in range(1000):
        dims = [(2, 2), (2, 3), (3, 3), (3, 4)][int(rng.integers(4))]
        psi = haar_random_state(dims, rng)
        ev = np.linalg.eigvalsh(reduced_density(psi, [0]).matrix)
        via_marginal = np.sqrt(np.clip(ev, 0, None)).sum() ** 2 - 1.0
        assert abs(negativity_pure(psi, PART2) - via_marginal) <= 1e-9


def test_negativity_is_convex():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho1 = random_mixed_state(rng, (2, 2), rank=2)
        rho2 = random_mixed_state(rng, (2, 2), rank=3)
        w = float(rng.uniform())
        mix = DensityMatrix((2, 2), w * rho1.matrix + (1 - w) * rho2.matrix)
        bound = w * negativity_mixed(rho1, PART2) + (1 - w) * negativity_mixed(rho2, PART2)
        assert negativity_mixed(mix, PART2) <= bound + 1e-8


def test_ppt_trivial_cases():
    assert negativity_mixed(DensityMatrix((2, 2), np.eye(4, dtype=complex) / 4), PART2) == 0.0
    assert negativity_mixed(to_density(bell_state()), PART2) > 0
    rng = np.random.default_rng(5)
    product = tensor([haar_random_state((2,), rng), haar_random_state((2,), rng)])
    assert negativity_mixed(to_density(product), PART2) == 0.0


def test_multiparty_cut():
    # negativity across a two-against-one cut of a GHZ-like state
    from scren import ghz_state

    value = negativity_pure(ghz_state(3), Bipartition((0, 1), 3))
    assert abs(value - 1.0) <= 1e-12


def test_arbitrary_cut_matches_marginal_route():
    # non-contiguous side A on a four-party state against (tr sqrt(rho_A))^2 - 1
    rng = np.random.default_rng(6)
    for side_a in [(1,), (0, 2), (1, 3), (0, 1, 3)]:
        psi = haar_random_state((2, 3, 2, 2), rng)
        part = Bipartition(side_a, 4)
        rho_a = reduced_density(psi, side_a).matrix
        d_a = rho_a.shape[0]
        d_b = psi.amplitudes.size // d_a
        # Schmidt rank <= min(d_A, d_B): when side A is the larger side, rho_A
        # has max(d_A, d_B) - min(d_A, d_B) exact-zero eigenvalues that come
        # back as ~1e-17 roundoff, and their square roots (~1e-8) would swamp
        # the 1e-9 bound. Keep only the min(d_A, d_B) largest eigenvalues.
        ev = np.linalg.eigvalsh(rho_a)[-min(d_a, d_b):]
        via_marginal = np.sqrt(np.clip(ev, 0, None)).sum() ** 2 - 1.0
        n = negativity_pure(psi, part)
        assert abs(n - via_marginal) <= 1e-9, f"side_a={side_a}: {n} vs {via_marginal}"


def test_bipartition_mismatch_rejected():
    with pytest.raises(ValueError, match="party count"):
        negativity_mixed(to_density(bell_state()), Bipartition((0,), 3))


def test_pure_bipartition_mismatch_rejected():
    # the row kernel checks the cut against the state's party count
    with pytest.raises(ValueError, match="party count"):
        negativity_pure(bell_state(), Bipartition((0,), 3))


def _split_singular_values(row: np.ndarray, dims, side_a) -> np.ndarray:
    """Schmidt singular values of one unnormalized row across side A | rest."""
    order = list(side_a) + [i for i in range(len(dims)) if i not in side_a]
    d_a = int(np.prod([dims[i] for i in side_a]))
    return np.linalg.svd(row.reshape(dims).transpose(order).reshape(d_a, -1), compute_uv=False)


@pytest.mark.parametrize("dims, side_a", [
    ((2, 2), (0,)), ((2, 3), (0,)), ((3, 2), (0,)), ((2, 5), (0,)), ((2, 3), (1,)),
    ((2, 2, 2), (1,)), ((2, 2, 2), (0, 1)), ((2, 3, 2), (0,)), ((2, 8), (0,)),
    ((3, 3), (1,)), ((2, 3, 2), (1,)), ((2, 9), (0,)), ((3, 3, 2), (2,)),
])
def test_kernel_matches_schmidt_svd(dims, side_a):
    # 2 x k cuts up to k = 8 take the 2 x 2 minors, the last four cuts the
    # SVD; both must equal (sum s)^2 - sum s^2 of the row's own spectrum
    rng = np.random.default_rng(sum(dims) + 10 * len(side_a))
    d = int(np.prod(dims))
    rows = rng.standard_normal((40, d)) + 1j * rng.standard_normal((40, d))
    values = negativity_rows(dims, Bipartition(side_a, len(dims)))(rows)
    assert values.shape == (40,)
    for row, value in zip(rows, values):
        s = _split_singular_values(row, dims, side_a)
        expected = s.sum() ** 2 - (s**2).sum()
        assert abs(value - expected) <= 1e-14 * expected


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (2, 8), (2, 9)])
def test_kernel_is_accurate_on_near_product_rows(shape):
    # s_2 ~ 1e-9: the minors (the SVD at 2 x 9) keep 2 s_1 s_2 to roundoff, where
    # 2 sqrt(det(M M^dagger)) cancels two O(1) products and is off by ~1e-8
    rng = np.random.default_rng(60 + shape[0])
    part = Bipartition((0,), 2)
    kernel = negativity_rows(shape, part)
    for _ in range(200):
        u = haar_unitary(shape[0], rng)[:, :2]
        v = haar_unitary(shape[1], rng)[:, :2]
        mat = u @ np.diag([rng.uniform(0.5, 1.0), 1e-9 * rng.uniform(0.5, 2.0)]) @ v.T
        s = _split_singular_values(mat.reshape(-1), shape, (0,))
        value = kernel(mat.reshape(1, -1))[0]
        assert abs(value - 2.0 * s[0] * s[1]) <= 1e-14


@pytest.mark.parametrize("dims, side_a, svd_calls", [
    ((2, 8), (0,), 0), ((8, 2), (0,), 0), ((2, 9), (0,), 1), ((9, 2), (0,), 1),
    ((2, 1024), (0,), 1), ((2, 1024), (1,), 1),
], ids=["2x8", "8x2", "2x9", "9x2", "2x1024-qubit-A", "2x1024-qubit-B"])
def test_large_qubit_side_cuts_take_the_svd(dims, side_a, svd_calls, monkeypatch):
    # the minors grow as k^2, so a 2 x k cut past MINORS_MAX_K = 8 is scored
    # by one SVD of its split matrix, which grows as k
    psi = haar_random_state(dims, np.random.default_rng(70 + dims[0]))
    s = _split_singular_values(psi.amplitudes, dims, side_a)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    value = negativity_pure(psi, Bipartition(side_a, 2))
    assert len(calls) == svd_calls
    assert abs(value - 2.0 * s[0] * s[1]) <= 1e-14 * value
