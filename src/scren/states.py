"""Multi-qudit states and the structural linear algebra everything else builds on.

Conventions
-----------
* Subsystem ordering is row-major: the leftmost party is the slowest index,
  so the basis ket |i_0 i_1 ... i_{n-1}> sits at flat index
  i_0 * (d_1 * ... * d_{n-1}) + i_1 * (d_2 * ... * d_{n-1}) + ... + i_{n-1}.
* Subsystem indices are 0-based everywhere in this module.
* States and matrices are immutable after construction and validated at the
  boundary; operations are pure functions and may assume the invariants.
  Values built valid (``PureState.permute``, ``roof.member_average``, the
  reductions) pass ``validate=False``, which skips no check that could fire.

Support of a density matrix
---------------------------
``DensityMatrix.support`` is the spectral data every roof and closed form
reads: the eigenvalues lam_i > ``RANK_TOL`` in descending order and the rows
sqrt(lam_i)|e_i>, which rebuild the matrix.  A reduction of a pure state
(:func:`reduced_density`, and :func:`to_density` as the keep-everything case)
keeps its keep|rest split matrix M as a square-root factor, rho = M M^dagger.
By the Schmidt decomposition the rows are then U S from the thin SVD of M, a
d_keep x d_rest problem in place of an eigendecomposition of the
d_keep x d_keep matrix.  A matrix given by value (a density file,
:func:`partial_trace`, a mixture built by hand) carries no factor, and its
support comes from ``eigh`` of the matrix.  Either way the support is taken
once per state and cached.  :func:`reduced_rows` reduces a whole stack of
rows at once and takes all their supports from one stacked SVD, each with
the bits of its own.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass
from functools import cached_property
from math import prod
from typing import ClassVar, Iterable, Sequence

import numpy as np

NORM_ATOL = 1e-9
LOADER_NORM_ATOL = 1e-6
RANK_TOL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over an ordered list of qudits.

    Parameters
    ----------
    dims : sequence of int
        Local dimension of each subsystem, each at least 2.
    amplitudes : array_like
        Complex vector of length prod(dims) in row-major basis order.
    validate : bool
        ``False`` only freezes ``amplitudes``: ``permute`` (a permuted valid
        state) and ``roof.member_average`` (a finite row over its own norm)
        pass it, since their states would pass the checks and need no copy.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if not validate:
            _freeze(self.amplitudes)
            return
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (prod(dims),):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, expected ({prod(dims)},)"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= 2 * NORM_ATOL:
            raise ValueError(f"state is not normalized: <psi|psi> = {norm_sq!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only view)."""
        return self.amplitudes.reshape(self.dims)

    def permute(self, order: Sequence[int]) -> "PureState":
        """Reorder subsystems; ``order[k]`` is the old index of new slot ``k``."""
        order = list(order)
        if sorted(order) != list(range(self.n_parties)):
            raise ValueError(f"not a permutation of subsystems: {order}")
        amps = self.as_tensor().transpose(order).reshape(-1)
        return PureState(tuple(self.dims[i] for i in order), amps, validate=False)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-one operator over an ordered list of qudits."""

    dims: tuple[int, ...]
    matrix: np.ndarray
    validate: InitVar[bool] = True

    # square-root factor F with matrix = F F^dagger, set only by _factored
    _factor: ClassVar[np.ndarray | None] = None

    def __post_init__(self, validate: bool):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must all be >= 2, got {dims}")
        d = prod(dims)
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        if mat.shape != (d, d):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({d}, {d})")
        if validate:
            herm_defect = np.abs(mat - mat.conj().T).max()
            if not herm_defect <= 1e-9:
                raise ValueError(f"matrix is not Hermitian: defect {herm_defect:.3e}")
            tr = complex(np.trace(mat))
            if not abs(tr - 1.0) <= 1e-9:
                raise ValueError(f"trace must be 1, got {tr!r}")
            min_eig = float(np.linalg.eigvalsh(mat)[0])
            if min_eig < -1e-9:
                raise ValueError(f"matrix is not PSD: min eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(lam, rows)``: the eigenvalues above ``RANK_TOL`` in
        descending order and the rows sqrt(lam_i)|e_i>, so that
        ``rows.T @ rows.conj()`` rebuilds the matrix.

        Taken once per state: from the thin SVD of the square-root factor
        when the state carries one (lam = s^2, rows = (U s)^T), otherwise
        from ``eigh`` of the matrix.
        """
        if self._factor is not None:
            return _svd_supports(self._factor[None])[0]
        evals, evecs = np.linalg.eigh(self.matrix)
        order = np.argsort(evals)[::-1]
        lam = evals[order]
        scale = np.sqrt(np.clip(lam, 0.0, None))
        return _supports(lam[None], evecs[None, :, order], scale[None])[0]


def _supports(
    lam: np.ndarray, vecs: np.ndarray, scale: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read-only supports ``(lam, rows)`` of a stack of spectra: the (N, k)
    eigenvalues ``lam`` in descending order, their (N, d, k) eigenvector
    columns ``vecs`` and their square roots ``scale``, each trimmed to the
    eigenvalues above ``RANK_TOL``.  The products are elementwise, so each
    support has the bits it would have alone."""
    rows = (vecs * scale[:, None, :]).transpose(0, 2, 1)
    ranks = np.sum(lam > RANK_TOL, axis=1).tolist()
    return [(_freeze(lam[i, :r]), _freeze(rows[i, :r])) for i, r in enumerate(ranks)]


def _svd_supports(factors: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Supports of the states F F^dagger of an (N, a, b) stack of factors F, from
    one stacked thin SVD (lam = s^2, rows = (U s)^T).  ``np.linalg.svd`` runs
    LAPACK on each matrix of a stack in turn, so each support has the bits
    of its factor's own SVD."""
    vecs, scale, _ = np.linalg.svd(factors, full_matrices=False)
    return _supports(scale**2, vecs, scale)


@dataclass(frozen=True)
class Bipartition:
    """A cut of the subsystems into side A (explicit) and side B (complement)."""

    side_a: tuple[int, ...]
    n_parties: int

    def __post_init__(self):
        side_a = tuple(sorted({int(i) for i in self.side_a}))
        n = int(self.n_parties)
        if not side_a:
            raise ValueError("side A of a bipartition must be non-empty")
        if side_a[0] < 0 or side_a[-1] >= n:
            raise ValueError(f"side A {side_a} out of range for {n} parties")
        if len(side_a) >= n:
            raise ValueError("side A must be a proper subset of the parties")
        object.__setattr__(self, "side_a", side_a)
        object.__setattr__(self, "n_parties", n)

    @property
    def side_b(self) -> tuple[int, ...]:
        in_a = set(self.side_a)
        return tuple(i for i in range(self.n_parties) if i not in in_a)


def _factored(
    dims: tuple[int, ...], factors: np.ndarray, supports: list | None = None
) -> list[DensityMatrix]:
    """Density matrices F F^dagger of an (N, a, b) stack of factors F, each
    keeping its F for its support, or taking its entry of ``supports`` as its
    cached support when those are given."""
    states = []
    matrices = factors @ factors.conj().transpose(0, 2, 1)
    for factor, matrix, support in zip(factors, matrices, supports or [None] * len(factors)):
        rho = DensityMatrix(dims, matrix, validate=False)
        object.__setattr__(rho, "_factor", _freeze(factor))
        if support is not None:
            rho.__dict__["support"] = support  # where cached_property keeps its value
        states.append(rho)
    return states


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi|: the reduction of ``psi`` that keeps
    every subsystem.

    Its square-root factor is the amplitude column, so its support is that
    column's thin SVD: one row, the state itself up to a phase.
    """
    return reduced_density(psi, range(psi.n_parties))


def _check_keep(keep: Iterable[int], n: int) -> list[int]:
    kept = sorted({int(i) for i in keep})
    if not kept:
        raise ValueError("must keep at least one subsystem")
    if kept[0] < 0 or kept[-1] >= n:
        raise ValueError(f"keep indices {kept} out of range for {n} parties")
    return kept


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every subsystem not in ``keep`` (original order preserved)."""
    n = rho.n_parties
    kept = _check_keep(keep, n)
    tensor_form = rho.matrix.reshape(rho.dims + rho.dims)
    row_subs = list(range(n))
    col_subs = [n + i if i in kept else i for i in range(n)]
    out_subs = kept + [n + i for i in kept]
    reduced = np.einsum(tensor_form, row_subs + col_subs, out_subs)
    d_keep = prod(rho.dims[i] for i in kept)
    return DensityMatrix(
        tuple(rho.dims[i] for i in kept),
        reduced.reshape(d_keep, d_keep),
        validate=False,
    )


def _split(dims: tuple[int, ...], keep: Iterable[int]) -> tuple[tuple[int, ...], list[int]]:
    """Dims of the kept subsystems, and the subsystem order of the keep|rest
    split: the kept ones first, each side ascending."""
    n = len(dims)
    kept = _check_keep(keep, n)
    return tuple(dims[i] for i in kept), kept + [i for i in range(n) if i not in kept]


def reduced_density(psi: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state M M^dagger of a pure state, without forming |psi><psi|.

    M is the keep|rest split matrix of the amplitudes: rows over the kept
    subsystems in ascending order, columns over the traced ones.  The state
    keeps M as its square-root factor, so its ``support`` is the thin SVD of
    M (keeping every subsystem leaves one column, the amplitudes).
    """
    kept_dims, order = _split(psi.dims, keep)
    factor = psi.as_tensor().transpose(order).reshape(prod(kept_dims), -1)
    return _factored(kept_dims, factor[None])[0]


def reduced_rows(
    dims: tuple[int, ...], rows: np.ndarray, keeps: Sequence[Iterable[int]]
) -> list[DensityMatrix]:
    """:func:`reduced_density` of each unit row of an (N, prod(dims)) stack onto
    each of ``keeps``, keep-major: the N reductions onto ``keeps[0]`` first.

    Every keep must give the same kept dims.  The reductions' supports come
    from one stacked SVD of their split matrices (see ``DensityMatrix.support``),
    each with the bits its own reduction would take.
    """
    kept_dims, orders = None, []
    for keep in keeps:
        this, order = _split(dims, keep)
        if kept_dims not in (None, this):
            raise ValueError(f"keeps {list(keeps)} do not give one shape of reduced state")
        kept_dims = this
        orders.append(order)
    tensor = rows.reshape((len(rows),) + tuple(dims))
    factors = np.concatenate([
        tensor.transpose([0] + [1 + i for i in order]).reshape(len(rows), prod(kept_dims), -1)
        for order in orders
    ])
    return _factored(kept_dims, factors, _svd_supports(factors))


def partial_transpose(rho: DensityMatrix, part: Bipartition) -> np.ndarray:
    """Transpose the side-B indices of ``rho``; Hermitian but not necessarily PSD."""
    n = rho.n_parties
    if part.n_parties != n:
        raise ValueError("bipartition does not match the state's party count")
    side_b = set(part.side_b)
    tensor_form = rho.matrix.reshape(rho.dims + rho.dims)
    perm = [n + i if i in side_b else i for i in range(n)]
    perm += [i if i in side_b else n + i for i in range(n)]
    d = rho.matrix.shape[0]
    return np.ascontiguousarray(tensor_form.transpose(perm)).reshape(d, d)


# ---------------------------------------------------------------------------
# Named states
# ---------------------------------------------------------------------------

def bell_state() -> PureState:
    """|Phi+> = (|00> + |11>)/sqrt(2)."""
    return PureState((2, 2), np.array([1, 0, 0, 1], dtype=np.complex128) / np.sqrt(2))


def ghz_state(n: int = 3) -> PureState:
    """n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState((2,) * n, amps)


def w_state(n: int = 3) -> PureState:
    """n-qubit W state, equal superposition of all Hamming-weight-one kets."""
    amps = np.zeros(2**n, dtype=np.complex128)
    for k in range(n):
        amps[1 << (n - 1 - k)] = 1 / np.sqrt(n)
    return PureState((2,) * n, amps)


def haar_random_state(dims: Sequence[int], rng: np.random.Generator) -> PureState:
    """Haar-random pure state: normalized complex Gaussian amplitudes."""
    d = prod(int(x) for x in dims)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(tuple(int(x) for x in dims), z / np.linalg.norm(z))


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def _pairs_to_complex(pairs, what: str) -> np.ndarray:
    message = f"{what} must be nested [re, im] pairs"
    try:
        arr = np.asarray(pairs, dtype=float)
    except TypeError as exc:  # a JSON object where numbers belong
        raise ValueError(message) from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError(message)
    return arr[..., 0] + 1j * arr[..., 1]


def _complex_to_pairs(arr: np.ndarray):
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def state_to_dict(psi: PureState) -> dict:
    return {"dims": list(psi.dims), "amplitudes": _complex_to_pairs(psi.amplitudes)}


def _dims_from_dict(data: dict) -> tuple[int, ...]:
    dims = data["dims"]
    if not isinstance(dims, (list, tuple)) or not all(isinstance(d, int) for d in dims):
        raise ValueError(f"dims must be a list of integers, got {dims!r}")
    return tuple(dims)


def state_from_dict(data: dict) -> PureState:
    dims = _dims_from_dict(data)
    amps = _pairs_to_complex(data["amplitudes"], "amplitudes").reshape(-1)
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= LOADER_NORM_ATOL:
        raise ValueError(f"state norm {norm!r} deviates by more than {LOADER_NORM_ATOL}")
    return PureState(dims, amps / norm)


def density_to_dict(rho: DensityMatrix) -> dict:
    return {"dims": list(rho.dims), "matrix": _complex_to_pairs(rho.matrix)}


def density_from_dict(data: dict) -> DensityMatrix:
    dims = _dims_from_dict(data)
    mat = _pairs_to_complex(data["matrix"], "matrix")
    if mat.ndim != 2:
        raise ValueError("matrix must be a nested list of [re, im] pairs")
    tr = float(np.trace(mat).real)
    if not abs(tr - 1.0) <= LOADER_NORM_ATOL:
        raise ValueError(f"trace {tr!r} deviates by more than {LOADER_NORM_ATOL}")
    return DensityMatrix(dims, mat / tr)


def load_state(path) -> PureState | DensityMatrix:
    """Load a pure state or density matrix from a JSON file, keyed by content."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"state file must hold a JSON object, got {type(data).__name__}")
    if "amplitudes" in data:
        return state_from_dict(data)
    if "matrix" in data:
        return density_from_dict(data)
    raise ValueError("state file must contain either 'amplitudes' or 'matrix'")


def dump_state(obj: PureState | DensityMatrix, path) -> None:
    data = state_to_dict(obj) if isinstance(obj, PureState) else density_to_dict(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
