"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from scren import DensityMatrix, PureState, haar_random_state, haar_unitary
from scren.suites import random_rank2_two_qubit  # noqa: F401  (re-exported for the tests)


def random_mixed_state(rng: np.random.Generator, dims, rank: int) -> DensityMatrix:
    """Random mixture of ``rank`` Haar states with Dirichlet weights."""
    weights = rng.dirichlet(np.ones(rank))
    d = int(np.prod(dims))
    mat = np.zeros((d, d), dtype=np.complex128)
    for w in weights:
        psi = haar_random_state(dims, rng)
        mat += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(tuple(dims), mat)


def apply_local_unitaries(psi: PureState, unitaries: dict[int, np.ndarray]) -> PureState:
    """Act with one unitary per listed subsystem."""
    full = np.array([[1.0 + 0.0j]])
    for k, d in enumerate(psi.dims):
        u = unitaries.get(k, np.eye(d, dtype=np.complex128))
        full = np.kron(full, u)
    return PureState(psi.dims, full @ psi.amplitudes)


def random_local_unitaries(psi: PureState, rng: np.random.Generator) -> PureState:
    return apply_local_unitaries(
        psi, {k: haar_unitary(d, rng) for k, d in enumerate(psi.dims)}
    )
