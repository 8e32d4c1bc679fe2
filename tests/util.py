"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from math import prod
from typing import Callable, Sequence

import numpy as np

from scren import DensityMatrix, PureState, WClassSpec, haar_random_state, haar_unitary
from scren.roof import (
    NEWTON_SHRINK,
    STENCIL_FLOOR,
    STENCIL_GROW,
    STENCIL_SHRINK,
    STENCIL_STEP,
    STENCIL_TRUST,
    _CHORD_DIRECTIONS,
    _STENCIL,
    RoofConfig,
    _Roof,
    _chart_directions,
    _checked_rows,
    _chord_chart,
    _chord_rows,
    _triu,
)
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


def _local_operator(dims: Sequence[int], unitaries: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product of one unitary per listed subsystem, identity elsewhere."""
    full = np.array([[1.0 + 0.0j]])
    for k, d in enumerate(dims):
        full = np.kron(full, unitaries.get(k, np.eye(d, dtype=np.complex128)))
    return full


def apply_local_unitaries(psi: PureState, unitaries: dict[int, np.ndarray]) -> PureState:
    """Act with one unitary per listed subsystem."""
    return PureState(psi.dims, _local_operator(psi.dims, unitaries) @ psi.amplitudes)


def apply_local_unitaries_mixed(
    rho: DensityMatrix, unitaries: dict[int, np.ndarray]
) -> DensityMatrix:
    """:func:`apply_local_unitaries` on a density matrix: U rho U^dagger."""
    full = _local_operator(rho.dims, unitaries)
    return DensityMatrix(rho.dims, full @ rho.matrix @ full.conj().T)


def random_local_unitaries_mixed(rho: DensityMatrix, rng: np.random.Generator) -> DensityMatrix:
    return apply_local_unitaries_mixed(
        rho, {k: haar_unitary(d, rng) for k, d in enumerate(rho.dims)}
    )


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

    ``roof._chord_unitaries`` must return exactly these values from both of
    its kernels, whose shared IEEE operations it lists.
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


def reference_newton_step(centre: float, values: Sequence[float]) -> tuple[float, float] | None:
    """Newton step, in units of the stencil step, of the stencil's quadratic model:
    the first of ``roof._newton_step``'s two steps, which must equal it.

    ``values`` are the objective at the 8 neighbours of ``_STENCIL`` around a
    centre of value ``centre``.  The model takes central differences for the
    gradient and the Hessian; None when that Hessian is not positive definite.
    """
    gx = (values[6] - values[1]) / 2.0
    gy = (values[4] - values[3]) / 2.0
    hxx = values[6] - 2.0 * centre + values[1]
    hyy = values[4] - 2.0 * centre + values[3]
    hxy = (values[7] - values[5] - values[2] + values[0]) / 4.0
    det = hxx * hyy - hxy * hxy
    if not (hxx > 0.0 and det > 0.0):
        return None
    return ((hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det)


def reference_stencil_search(
    scores: Callable[[np.ndarray], Sequence[float]], value0: float, budget: int
) -> bool:
    """The chord search with no valley step: ``roof._chord_search`` must take
    exactly its steps until a stencil stalls where the Newton step is rejected.

    Minimize ``scores`` over the chord chart from x = 0, where it is ``value0``.

    ``scores`` maps a (K, 2) stack of chart points to their K values in one
    objective call, and each step is one such call: the 8 neighbours of
    ``_STENCIL`` around a centre at step h, after the centre itself when it is
    not yet scored.  If the stencil's quadratic model (:func:`reference_newton_step`)
    has a positive definite Hessian and its Newton point lies within
    ``STENCIL_TRUST`` steps of the centre, the next stencil is centred there
    at h / ``NEWTON_SHRINK``.  Otherwise the next stencil is centred on the
    best point scored so far, at h * ``STENCIL_GROW`` if a stencil point just
    became that best, else at h / ``STENCIL_SHRINK``.  A Newton centre that
    improved on nothing fits no model: the search goes back to the best
    point.  It stops when h falls below ``STENCIL_FLOOR`` or ``budget``
    evaluations are spent, and returns whether h reached the floor.
    """
    best, best_value = np.zeros(2), value0
    centre, centre_value = best, value0
    step, spent = STENCIL_STEP, 0
    while step >= STENCIL_FLOOR and spent < budget:
        jumped = centre_value is None
        points = centre + step * (_STENCIL if jumped else _STENCIL[1:])
        values = scores(points)
        spent += len(points)
        if jumped:
            centre_value, values = values[0], values[1:]
        low = min(values)
        k = values.index(low)
        moved = low < min(centre_value, best_value)
        improved = moved or centre_value < best_value
        if moved:
            # the 8 neighbours are the last 8 points
            best, best_value = points[k - 8], low
        elif improved:
            best, best_value = centre, centre_value
        newton = reference_newton_step(centre_value, values) if improved or not jumped else None
        if newton is not None and math.hypot(*newton) <= STENCIL_TRUST:
            centre, centre_value = centre + step * np.array(newton), None
            step /= NEWTON_SHRINK
            continue
        step = step * STENCIL_GROW if moved else step / STENCIL_SHRINK
        centre, centre_value = best, best_value
    return step < STENCIL_FLOOR


def reference_chord_roof(
    roof: _Roof, lam: np.ndarray, base: np.ndarray, config: RoofConfig
) -> None:
    """The chord path driven by :func:`reference_stencil_search`, a search with
    no valley step that keeps its own budget; monkeypatched in for
    ``roof._chord_roof``, it gives the roofs the valley step is measured against.

    A stencil search runs over the two parameters of a chart of chord
    directions (see ``roof._chord_chart``) centred on the best chord of a
    deterministic grid that includes the eigendecomposition, so ``starts``
    and ``seed`` do not change its result.  The grid and each search step are
    scored in one objective call each.  The search is ``converged`` when its
    step fell below ``STENCIL_FLOOR`` within
    ``config.iters + max(300, config.iters // 2)`` evaluations.
    """
    roof.starts, roof.exit = 1, "chord"
    # a chord scan finds the basin; the eigendecomposition is the chord along z
    q = tuple(float(v) for v in lam / lam.sum())
    eigen_average = roof.value
    scan = roof(_chord_rows(q, base, _CHORD_DIRECTIONS))
    if roof.value < eigen_average:
        u0 = _CHORD_DIRECTIONS[scan.index(roof.value)]
    else:
        u0 = (0.0, 0.0, 1.0)
    frame = _chord_chart(u0)
    origin, axes = frame[0][:, None], frame[1:].T
    # Powell's start and polish budget, iters + max(100, iters // 2), from
    # iters = 600 on and up to 200 more below that: at Powell's budget alone, a
    # low ``iters`` left some stencil searches short of Powell's value
    budget = config.iters + max(300, config.iters // 2)
    roof.converged = reference_stencil_search(
        lambda x: roof(_chord_rows(q, base, _chart_directions(origin, axes, x))), roof.value, budget
    )


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


def reference_three_tangle_rows(rows: np.ndarray) -> np.ndarray:
    """Cayley's formula written out on the numpy columns of ``rows``:
    ``tangle.three_tangle_rows`` must return exactly these bits."""
    r = rows.T
    a = r[0] * r[3] - r[1] * r[2]
    c = r[4] * r[7] - r[5] * r[6]
    b = r[0] * r[7] + r[4] * r[3] - r[1] * r[6] - r[5] * r[2]
    return 4.0 * np.abs(b * b - 4.0 * a * c)


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
