"""Convex-roof optimization over pure-state decompositions of a mixed state.

Every decomposition of ``rho`` into at most L pure states arises from the
eigendecomposition through an L x L unitary mixing matrix (unitary freedom of
ensembles, with zero-padding when L exceeds the rank).  The roof engine
minimizes an objective of the (L, dim) array of unnormalized member rows
sqrt(p_h)|psi_h> -- the weighted ensemble average sum_h p_h f(psi_h) -- over
that unitary, parametrized as U = exp(iH) U0 with H Hermitian, using derivative-free
direction-set (Powell) search from multiple starts: start 0 is the identity
(so the eigendecomposition average is always an upper bound on the result)
and the remaining starts are Haar-random unitaries.  The winning start gets a
high-precision polish pass.  All randomness derives from the config seed, so
results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .states import RANK_TOL, Bipartition, DensityMatrix, PureState

WEIGHT_TOL = 1e-14
CONJECTURE_ATOL = 1e-7

# Early-exit floor for the squared roofs (scren2, which is also the two-tangle,
# and roof_sqrt_functional): a best average below this squares to 1e-10, two
# orders below the tightest tolerance any caller reports at.  cren is not
# squared, so it keeps no floor.
SQRT_ROOF_FLOOR = 1e-5

# Number of random unitaries probed to detect decomposition-independent
# objectives before running the optimizer.
PROBE_COUNT = 8


class ConjectureViolation(Exception):
    """A pure-state functional assumed nonnegative went genuinely negative.

    Raised by :func:`roof_sqrt_functional` when an ensemble member evaluates
    below -1e-7 (anything in [-1e-7, 0) is treated as roundoff).  This is
    scientifically meaningful output, not a crash: it carries the offending
    state and value so the candidate counterexample can be inspected.
    """

    def __init__(self, state: PureState, value: float):
        self.state = state
        self.value = value
        super().__init__(
            f"pure-state functional is negative ({value:.6e}) on an ensemble member"
        )


@dataclass(frozen=True)
class RoofConfig:
    """Settings for the roof optimizer.

    ``ensemble_size`` (L) defaults to the rank of the input state and may be
    raised up to rank*(rank+1).  ``iters`` is the per-start evaluation budget.
    ``child()`` derives the reduced-budget config used for roofs that run
    inside another roof's objective (the recursive multi-party measures).  Its
    floor of (3, 200) means the doubly derived budget of an m >= 3 term's
    outer roof stays (3, 200) unless starts >= 64 or iters >= 5025.
    """

    starts: int = 16
    iters: int = 2000
    ensemble_size: int | None = None
    tol: float = 1e-6
    seed: int = 0

    def child(self) -> "RoofConfig":
        return RoofConfig(
            starts=max(3, self.starts // 4),
            iters=max(200, self.iters // 5),
            ensemble_size=None,
            tol=self.tol,
            seed=self.seed,
        )


@dataclass(frozen=True)
class Ensemble:
    """Weighted pure-state decomposition {(p_h, |psi_h>)} of a mixed state."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        members = tuple((float(p), s) for p, s in self.members)
        if not members:
            raise ValueError("ensemble must have at least one member")
        weights = np.array([p for p, _ in members])
        if np.any(weights < 0):
            raise ValueError("ensemble weights must be nonnegative")
        if not abs(weights.sum() - 1.0) <= 1e-9:
            raise ValueError(f"ensemble weights sum to {weights.sum()!r}, expected 1")
        object.__setattr__(self, "members", members)

    @property
    def weights(self) -> np.ndarray:
        return np.array([p for p, _ in self.members])

    @property
    def states(self) -> tuple[PureState, ...]:
        return tuple(s for _, s in self.members)

    def average(self, fn: Callable[[PureState], float]) -> float:
        return float(sum(p * fn(s) for p, s in self.members))

    def reconstruct(self) -> np.ndarray:
        """The density matrix sum_h p_h |psi_h><psi_h| generated by the members."""
        d = self.members[0][1].total_dim
        out = np.zeros((d, d), dtype=np.complex128)
        for p, s in self.members:
            out += p * np.outer(s.amplitudes, s.amplitudes.conj())
        return out


@dataclass(frozen=True)
class RoofResult:
    """Outcome of a roof minimization: value, argmin ensemble and diagnostics."""

    value: float
    ensemble: Ensemble
    starts: int
    converged: bool
    history: tuple[float, ...]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase-fixed R."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _support(rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Subnormalized eigenvectors sqrt(lam_i)|e_i> spanning the support, as rows."""
    evals, evecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    r = int(np.sum(evals > RANK_TOL))
    lam = np.clip(evals[:r], 0.0, None)
    return lam, (evecs[:, :r] * np.sqrt(lam)).T


def _members(dims: Sequence[int], rows: np.ndarray):
    """(w, row / sqrt(w)) for each unnormalized row of weight w >= WEIGHT_TOL."""
    weights = np.einsum("hd,hd->h", rows, rows.conj()).real
    for w, row in zip(weights, rows):
        if w < WEIGHT_TOL:
            continue
        yield float(w), PureState(dims, row / np.sqrt(w))


def _ensemble(rho: DensityMatrix, rows: np.ndarray) -> Ensemble:
    """Ensemble of the unnormalized member rows, checked to rebuild ``rho`` to 1e-8."""
    ensemble = Ensemble(tuple(_members(rho.dims, rows)))
    defect = np.abs(ensemble.reconstruct() - rho.matrix).max()
    if defect > 1e-8:
        raise AssertionError(f"ensemble does not reconstruct the state: {defect:.3e}")
    return ensemble


def hjw_ensemble(rho: DensityMatrix, u: np.ndarray) -> Ensemble:
    """Decomposition |psi_h> ~ sum_i u_hi sqrt(lam_i)|e_i> induced by ``u``.

    ``u`` must be a square unitary (to 1e-9) of size L at least the rank of
    ``rho``.  Columns beyond the rank mix in zero vectors, so an L x L unitary
    yields up to L members; members with weight below 1e-14 are dropped.  The
    returned ensemble reconstructs ``rho`` exactly (unitarity of the columns),
    which is asserted to 1e-8.
    """
    mat = np.ascontiguousarray(u, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("mixing matrix must be square")
    defect = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
    if not defect <= 1e-9:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e}")
    lam, base = _support(rho)
    r = len(lam)
    if mat.shape[0] < r:
        raise ValueError(f"mixing matrix size {mat.shape[0]} is below the rank {r}")
    return _ensemble(rho, mat[:, :r] @ base)


@lru_cache(maxsize=32)
def _triu(n: int):
    return np.triu_indices(n, 1)


def _unitary_from_params(theta: np.ndarray, size: int) -> np.ndarray:
    """exp(iH) for the Hermitian H packed as [diag, (re, im) upper triangle]."""
    h = np.zeros((size, size), dtype=np.complex128)
    off = theta[size:]
    h[_triu(size)] = off[0::2] + 1j * off[1::2]
    h = h + h.conj().T
    h[np.diag_indices(size)] = theta[:size]
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def member_average(dims: Sequence[int], fn: Callable[[PureState], float]):
    """Row objective sum_h w_h fn(row_h / sqrt(w_h)) from a pure-state functional.

    The weight w_h of a row is its squared norm; members below ``WEIGHT_TOL``
    are dropped, as in :func:`hjw_ensemble`.
    """

    def average(rows: np.ndarray) -> float:
        return float(sum(w * fn(psi) for w, psi in _members(dims, rows)))

    return average


def roof_minimize(
    rho: DensityMatrix,
    objective: Callable[[np.ndarray], float],
    config: RoofConfig | None = None,
    stop_below: float = 0.0,
) -> RoofResult:
    """Minimize ``objective`` over decompositions of ``rho``.

    ``objective`` maps the (L, dim) array of *unnormalized* member rows
    sqrt(p_h)|psi_h> to the weighted average sum_h p_h f(psi_h); wrap a
    pure-state functional with :func:`member_average`.

    Three cheap exits precede the multi-start search, all reported with
    ``starts=0``: a rank-one ``rho`` has a single decomposition; if the
    eigendecomposition average is already at or below ``stop_below`` it is
    returned as-is (the roof value is sandwiched between it and zero); and if
    a seeded probe of random mixing unitaries shows a spread below tol/1000
    the objective is treated as decomposition independent and the
    eigendecomposition ensemble is returned.

    The ``converged`` flag is False when the winning start still improved by
    more than ``config.tol`` over the last quarter of its evaluation sequence.
    """
    config = config or RoofConfig()
    lam, base = _support(rho)
    r = len(lam)
    size = config.ensemble_size if config.ensemble_size is not None else r
    if not r <= size <= r * (r + 1):
        raise ValueError(
            f"ensemble size {size} outside [rank, rank*(rank+1)] = [{r}, {r * (r + 1)}]"
        )

    def finish(rows, value, starts, converged, history) -> RoofResult:
        return RoofResult(
            value=float(value),
            ensemble=_ensemble(rho, rows),
            starts=starts,
            converged=converged,
            history=tuple(history),
        )

    def powell(theta0, u0, maxfev, xtol, ftol) -> tuple[np.ndarray, list[float]]:
        trace: list[float] = []

        def tracked(theta):
            val = objective((_unitary_from_params(theta, size) @ u0)[:, :r] @ base)
            trace.append(val)
            return val

        res = minimize(
            tracked,
            theta0,
            method="Powell",
            options={"maxfev": maxfev, "xtol": xtol, "ftol": ftol, "maxiter": 10**6},
        )
        return np.array(res.x, dtype=float), trace

    identity = np.eye(size, dtype=np.complex128)
    eigen_rows = identity[:, :r] @ base
    eigen_average = objective(base if size == r else eigen_rows)
    if r == 1 or eigen_average <= stop_below:
        return finish(eigen_rows, eigen_average, 0, True, (eigen_average,))

    probe_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x9e3779b9)))
    probe_values = [eigen_average]
    for _ in range(PROBE_COUNT):
        u = haar_unitary(size, probe_rng)
        probe_values.append(objective(u[:, :r] @ base))
    spread = max(probe_values) - min(probe_values)
    if spread <= max(1e-12, config.tol * 1e-3):
        return finish(eigen_rows, eigen_average, 0, True, probe_values)

    seeds = np.random.SeedSequence(config.seed).spawn(max(config.starts, 1))
    best_value = np.inf
    best_theta: np.ndarray | None = None
    best_u0: np.ndarray | None = None
    best_trace: list[float] = []
    history: list[float] = []

    for k in range(max(config.starts, 1)):
        u0 = identity if k == 0 else haar_unitary(size, np.random.default_rng(seeds[k]))
        theta, trace = powell(np.zeros(size * size), u0, config.iters, 1e-7, 1e-11)
        start_best = min(trace)
        history.append(start_best)
        if start_best < best_value:
            best_value, best_theta, best_u0, best_trace = start_best, theta, u0, trace
        if best_value <= stop_below:
            break

    if best_value > stop_below:
        # polish the winning start with tight line-search tolerances
        theta, polish_trace = powell(
            best_theta, best_u0, max(100, config.iters // 2), 1e-10, 1e-14
        )
        if polish_trace and min(polish_trace) < best_value:
            best_value = min(polish_trace)
            best_theta = theta
        best_trace = best_trace + polish_trace

    quarter = (3 * len(best_trace)) // 4
    tail_gain = min(best_trace[:quarter]) - best_value if quarter > 0 else 0.0
    converged = bool(tail_gain <= config.tol)

    best_rows = (_unitary_from_params(best_theta, size) @ best_u0)[:, :r] @ base
    return finish(best_rows, objective(best_rows), len(history), converged, history)


def _negativity_row_objective(dims: Sequence[int], part: Bipartition):
    """Weighted-average negativity of unnormalized member rows, batched.

    For an unnormalized row with singular values s_i the weight is sum s_i^2
    and weight * negativity is (sum s_i)^2 - sum s_i^2, so the ensemble
    average needs no explicit normalization.
    """
    order = [0] + [1 + i for i in part.side_a] + [1 + i for i in part.side_b]
    d_a = prod(dims[i] for i in part.side_a)

    def value(rows: np.ndarray) -> float:
        stack = rows.reshape((rows.shape[0],) + tuple(dims)).transpose(order)
        stack = stack.reshape(rows.shape[0], d_a, -1)
        s = np.linalg.svd(stack, compute_uv=False)
        return float((s.sum(axis=1) ** 2 - (s**2).sum(axis=1)).sum())

    return value


def cren(
    rho: DensityMatrix,
    part: Bipartition,
    config: RoofConfig | None = None,
    full_output: bool = False,
):
    """Convex-roof extended negativity: min ensemble-average negativity."""
    result = roof_minimize(rho, _negativity_row_objective(rho.dims, part), config)
    value = max(0.0, result.value)
    return (value, result) if full_output else value


def scren2(
    rho: DensityMatrix,
    part: Bipartition,
    config: RoofConfig | None = None,
    full_output: bool = False,
):
    """Square of the convex-roof extended negativity.

    On a 2 x k pair this is also the mixed two-tangle, which
    :func:`scren.tangle.two_tangle` computes by calling this function.  Like
    every squared roof it stops at ``SQRT_ROOF_FLOOR``, so a near-separable
    pair may report any value up to 1e-10 in place of zero.
    """
    result = roof_minimize(
        rho, _negativity_row_objective(rho.dims, part), config, stop_below=SQRT_ROOF_FLOOR
    )
    value = max(0.0, result.value) ** 2
    return (value, result) if full_output else value


def roof_sqrt_functional(
    rho: DensityMatrix,
    pure_fn: Callable[[PureState], float],
    config: RoofConfig | None = None,
    full_output: bool = False,
):
    """Squared roof of the square root of a nonnegative pure-state functional.

    Computes [min average sqrt(max(0, pure_fn))]^2 over decompositions.
    ``pure_fn`` values in [-1e-7, 0) count as roundoff and clamp to zero; any
    value below that raises :class:`ConjectureViolation` with the state.
    """

    def sqrt_member(psi: PureState) -> float:
        v = float(pure_fn(psi))
        if v < -CONJECTURE_ATOL:
            raise ConjectureViolation(psi, v)
        return np.sqrt(max(0.0, v))

    result = roof_minimize(
        rho, member_average(rho.dims, sqrt_member), config, stop_below=SQRT_ROOF_FLOOR
    )
    value = max(0.0, result.value) ** 2
    return (value, result) if full_output else value
