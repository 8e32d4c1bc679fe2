"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from math import prod
from typing import Sequence

import numpy as np

from scren import DensityMatrix, PureState, WClassSpec, haar_random_state, haar_unitary
from scren.roof import _checked_rows, _triu
from scren.suites import random_rank2_two_qubit  # noqa: F401  (re-exported for the tests)


def hjw_rows(rho: DensityMatrix, u: np.ndarray) -> np.ndarray:
    """Member rows sqrt(p_h)|psi_h> = sum_i u_hi sqrt(lam_i)|e_i> of the L x L
    unitary ``u`` (L >= rank; columns beyond the rank mix in zero vectors),
    read-only and checked to rebuild ``rho`` to 1e-8."""
    return _checked_rows(rho, u[:, : len(rho.support[0])] @ rho.support[1])


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


def tensor(states: Sequence[PureState]) -> PureState:
    """Kronecker product of pure states; dims are concatenated."""
    if not states:
        raise ValueError("tensor() needs at least one factor")
    amps = states[0].amplitudes
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
    return PureState(tuple(d for s in states for d in s.dims), amps)


def basis_state(dims: Sequence[int], digits: Sequence[int]) -> PureState:
    """Computational basis ket |digits> for the given local dimensions."""
    dims = tuple(int(d) for d in dims)
    if len(digits) != len(dims):
        raise ValueError("digits and dims must have the same length")
    idx = 0
    for d, k in zip(dims, digits):
        if not 0 <= k < d:
            raise ValueError(f"digit {k} out of range for dimension {d}")
        idx = idx * d + k
    amps = np.zeros(prod(dims), dtype=np.complex128)
    amps[idx] = 1.0
    return PureState(dims, amps)


def marginal_focus_matrix(spec: WClassSpec) -> np.ndarray:
    """Explicit d x d marginal of party 1, assembled from the closed form."""
    d, p = spec.d, spec.p
    omega = spec.omega
    a1 = spec.a[0]
    out = np.zeros((d, d), dtype=np.complex128)
    out[1:, 1:] = p * np.outer(a1, a1.conj())
    out[0, 0] = p * omega + (1.0 - p)
    cross = np.sqrt(p * (1.0 - p))
    out[1:, 0] = cross * a1
    out[0, 1:] = cross * a1.conj()
    return out


def reference_chord_unitaries(q: tuple[float, float], u: np.ndarray) -> np.ndarray:
    """The chord kernel written plainly, one ``np.stack`` per (K, 2) array.

    ``roof._chord_unitaries`` must return exactly these values: it makes
    fewer numpy calls, through the same IEEE operations on every element.
    """
    q1, q2 = q
    ux, uy, uz = u.T
    b = (q1 - q2) * uz
    big = np.abs(b) + np.sqrt(b * b + 4.0 * q1 * q2)
    small = 4.0 * q1 * q2 / big
    # column h = 0 is the end point n+, h = 1 the end point n-
    t = np.where((b >= 0)[:, None], np.stack([small, -big], 1), np.stack([big, -small], 1))
    p = np.stack([-t[:, 1], t[:, 0]], 1) / (big + small)[:, None]
    north = 2.0 * q1 + t * uz[:, None]
    south = 2.0 * q2 - t * uz[:, None]
    up = north >= south
    scale = np.sqrt(p / (2.0 * np.where(up, north, south)))
    txy = t * (ux + 1j * uy)[:, None]
    unitary = np.empty((len(u), 2, 2), dtype=np.complex128)
    unitary[:, :, 0] = scale * np.where(up, north, txy.conj()) / math.sqrt(q1)
    unitary[:, :, 1] = scale * np.where(up, txy, south) / math.sqrt(q2)
    return unitary


def reference_mixed_rows(theta: np.ndarray, u0: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The search's mixing map at every rank through ``eigh`` of O.

    ``roof._mixed_rows`` must return exactly these values at rank 3 and
    above; at rank 2 it takes the closed form of exp(iO) instead.
    """
    r = len(u0)
    o = np.zeros((r, r), dtype=np.complex128)
    o[_triu(r)] = theta[0::2] + 1j * theta[1::2]
    w, v = np.linalg.eigh(o + o.conj().T)
    return ((v * np.exp(1j * w)) @ v.conj().T @ u0) @ base


def reference_excitation_index(dims: Sequence[int], slot: int, level: int) -> int:
    """Flat index of the ket with ``level`` at kept party ``slot`` and 0
    elsewhere, by the digit loop; ``wclass._excitations`` must give exactly
    these indices."""
    digits = [0] * len(dims)
    digits[slot] = level
    idx = 0
    for dim, k in zip(dims, digits):
        idx = idx * dim + k
    return idx


def reference_reduced_xy(spec: WClassSpec, keep: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """``wclass.reduced_xy`` filled one excitation at a time by the digit loop."""
    kept = sorted(set(keep))
    dims = (spec.d,) * len(kept)
    x = np.zeros(prod(dims), dtype=np.complex128)
    x[0] = np.sqrt(1.0 - spec.p)
    root_p = np.sqrt(spec.p)
    for slot, s in enumerate(kept):
        for i in range(1, spec.d):
            x[reference_excitation_index(dims, slot, i)] = root_p * spec.a[s, i - 1]
    traced_weight = sum(spec.party_weight(s + 1) for s in range(spec.n) if s not in kept)
    y = np.zeros(prod(dims), dtype=np.complex128)
    y[0] = np.sqrt(spec.p * traced_weight)
    return x, y


def reference_outside_amplitude(rho: DensityMatrix) -> float:
    """``wclass.outside_amplitude`` with the weight-<=1 indices from the digit loop."""
    n_kept, d = len(rho.dims), rho.dims[0]
    dims = (d,) * n_kept
    idx = [0]
    for slot in range(n_kept):
        for i in range(1, d):
            idx.append(reference_excitation_index(dims, slot, i))
    lam, rows = rho.support
    weight = np.sum(np.abs(rows) ** 2 / lam[:, None], axis=0)
    weight[np.array(sorted(idx))] = 0.0
    return float(np.sqrt(weight.max()))
