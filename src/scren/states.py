"""Multi-qudit states and the structural linear algebra everything else builds on.

Conventions
-----------
* Subsystem ordering is row-major: the leftmost party is the slowest index,
  so the basis ket |i_0 i_1 ... i_{n-1}> sits at flat index
  i_0 * (d_1 * ... * d_{n-1}) + i_1 * (d_2 * ... * d_{n-1}) + ... + i_{n-1}.
* Subsystem indices are 0-based everywhere in this module.
* States and matrices are immutable after construction and validated at the
  boundary; operations are pure functions and may assume the invariants.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass
from math import prod
from typing import Iterable, Sequence

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
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
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

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem (read-only view)."""
        return self.amplitudes.reshape(self.dims)

    def permute(self, order: Sequence[int]) -> "PureState":
        """Reorder subsystems; ``order[k]`` is the old index of new slot ``k``."""
        order = list(order)
        if sorted(order) != list(range(self.n_parties)):
            raise ValueError(f"not a permutation of subsystems: {order}")
        amps = self.as_tensor().transpose(order).reshape(-1)
        return PureState(tuple(self.dims[i] for i in order), amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-one operator over an ordered list of qudits."""

    dims: tuple[int, ...]
    matrix: np.ndarray
    validate: InitVar[bool] = True

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

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    def rank(self) -> int:
        return int(np.sum(np.linalg.eigvalsh(self.matrix) > RANK_TOL))


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


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt data of a pure state across a bipartition.

    ``coefficients`` are the probabilities lambda_i in descending order;
    ``basis_a``/``basis_b`` hold the paired orthonormal vectors as rows, with
    side-A (side-B) subsystems flattened in ascending index order.  ``part``
    and ``dims`` record the cut so the state can be reassembled.
    """

    coefficients: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    part: Bipartition
    dims: tuple[int, ...]

    def __post_init__(self):
        lam = np.asarray(self.coefficients, dtype=float)
        if np.any(lam < -NORM_ATOL):
            raise ValueError("Schmidt coefficients must be nonnegative")
        if np.any(np.diff(lam) > NORM_ATOL):
            raise ValueError("Schmidt coefficients must be descending")
        if abs(lam.sum() - 1.0) > 1e-9:
            raise ValueError(f"Schmidt coefficients must sum to 1, got {lam.sum()!r}")
        for basis in (self.basis_a, self.basis_b):
            gram = basis @ basis.conj().T
            if np.abs(gram - np.eye(len(lam))).max() > 1e-9:
                raise ValueError("Schmidt basis vectors are not orthonormal")
        object.__setattr__(self, "coefficients", _freeze(np.ascontiguousarray(lam)))
        object.__setattr__(self, "basis_a", _freeze(np.ascontiguousarray(self.basis_a)))
        object.__setattr__(self, "basis_b", _freeze(np.ascontiguousarray(self.basis_b)))

    @property
    def rank(self) -> int:
        return int(np.sum(self.coefficients > RANK_TOL))

    def reconstruct(self) -> PureState:
        """Reassemble sum_i sqrt(lambda_i) |e_i>|f_i> in the original subsystem order."""
        weights = np.sqrt(np.clip(self.coefficients, 0.0, None))
        flat = np.einsum("i,ia,ib->ab", weights, self.basis_a, self.basis_b).reshape(-1)
        order = list(self.part.side_a) + list(self.part.side_b)
        permuted_dims = [self.dims[i] for i in order]
        inverse = np.argsort(order)
        amps = flat.reshape(permuted_dims).transpose(inverse).reshape(-1)
        return PureState(self.dims, amps)


def tensor(states: Sequence[PureState]) -> PureState:
    """Kronecker product of pure states; dims are concatenated."""
    if not states:
        raise ValueError("tensor() needs at least one factor")
    amps = states[0].amplitudes
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
    return PureState(tuple(d for s in states for d in s.dims), amps)


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi|."""
    mat = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(psi.dims, mat, validate=False)


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
    if len(kept) == n:
        return DensityMatrix(rho.dims, rho.matrix, validate=False)
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


def reduced_density(psi: PureState, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state of a pure state, contracted without forming |psi><psi|."""
    n = psi.n_parties
    kept = _check_keep(keep, n)
    tensor_form = psi.as_tensor()
    ket_subs = list(range(n))
    bra_subs = [n + i if i in kept else i for i in range(n)]
    out_subs = kept + [n + i for i in kept]
    reduced = np.einsum(tensor_form, ket_subs, tensor_form.conj(), bra_subs, out_subs)
    d_keep = prod(psi.dims[i] for i in kept)
    return DensityMatrix(
        tuple(psi.dims[i] for i in kept),
        reduced.reshape(d_keep, d_keep),
        validate=False,
    )


def partial_transpose(rho: DensityMatrix, part: Bipartition) -> np.ndarray:
    """Transpose the side-B indices of ``rho``; Hermitian but not necessarily PSD."""
    n = rho.n_parties
    if part.n_parties != n:
        raise ValueError("bipartition does not match the state's party count")
    side_b = set(part.side_b)
    tensor_form = rho.matrix.reshape(rho.dims + rho.dims)
    perm = [n + i if i in side_b else i for i in range(n)]
    perm += [i if i in side_b else n + i for i in range(n)]
    d = rho.total_dim
    return np.ascontiguousarray(tensor_form.transpose(perm)).reshape(d, d)


def split_matrix(psi: PureState, part: Bipartition) -> np.ndarray:
    """Amplitudes as a (dim A) x (dim B) matrix for the given cut.

    Rows run over side-A subsystems in ascending index order, columns over
    side B; Schmidt data and pure-state negativity both come from this matrix.
    """
    if part.n_parties != psi.n_parties:
        raise ValueError("bipartition does not match the state's party count")
    order = list(part.side_a) + list(part.side_b)
    d_a = prod(psi.dims[i] for i in part.side_a)
    return psi.as_tensor().transpose(order).reshape(d_a, -1)


def schmidt(psi: PureState, part: Bipartition) -> SchmidtDecomposition:
    """Schmidt decomposition of ``psi`` across ``part``, coefficients descending."""
    m = split_matrix(psi, part)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SchmidtDecomposition(
        coefficients=s**2,
        basis_a=u.T,  # columns of u, stored as rows
        basis_b=vh,
        part=part,
        dims=psi.dims,
    )


# ---------------------------------------------------------------------------
# Named states
# ---------------------------------------------------------------------------

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
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValueError(f"{what} must be nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _complex_to_pairs(arr: np.ndarray):
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def state_to_dict(psi: PureState) -> dict:
    return {"dims": list(psi.dims), "amplitudes": _complex_to_pairs(psi.amplitudes)}


def state_from_dict(data: dict) -> PureState:
    dims = tuple(int(d) for d in data["dims"])
    amps = _pairs_to_complex(data["amplitudes"], "amplitudes").reshape(-1)
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= LOADER_NORM_ATOL:
        raise ValueError(f"state norm {norm!r} deviates by more than {LOADER_NORM_ATOL}")
    return PureState(dims, amps / norm)


def density_to_dict(rho: DensityMatrix) -> dict:
    return {"dims": list(rho.dims), "matrix": _complex_to_pairs(rho.matrix)}


def density_from_dict(data: dict) -> DensityMatrix:
    dims = tuple(int(d) for d in data["dims"])
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
    if "amplitudes" in data:
        return state_from_dict(data)
    if "matrix" in data:
        return density_from_dict(data)
    raise ValueError("state file must contain either 'amplitudes' or 'matrix'")


def dump_state(obj: PureState | DensityMatrix, path) -> None:
    data = state_to_dict(obj) if isinstance(obj, PureState) else density_to_dict(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
