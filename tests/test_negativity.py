"""Negativity of pure and mixed states."""

import numpy as np
import pytest

from scren import (
    Bipartition,
    DensityMatrix,
    bell_state,
    haar_random_state,
    negativity_mixed,
    negativity_pure,
    reduced_density,
    to_density,
)
from scren.monogamy import CKW_COUNTEREXAMPLE_322

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
