"""Tangle hierarchy for qubit systems, with the Wootters closed form.

The one-tangle of a pure state is the linear entropy 2(1 - tr rho_A^2) of the
side-A marginal.  On a qubit marginal this equals 4 det(rho_A), and on a
marginal with spectrum (1/3, 1/3, 1/3) it gives the quoted value 4/3.

The mixed two-tangle is the squared convex roof of the square root of the
one-tangle.  On a 2 x k pure state the one-tangle is the squared negativity
(both are 4 lam_1 lam_2 in the Schmidt coefficients), so on 2 x k pairs the
two-tangle is the SCREN roof and is computed by :func:`scren.roof.scren2`.

On two qubits that roof has the Wootters closed form,
:func:`wootters_tangle`.  Strong-monogamy reports use it for every qubit pair;
``scren2`` and ``two_tangle`` stay on the optimizer, which the closed form
checks.

On three qubits the SCREN strong-monogamy residual is the Coffman-Kundu-Wootters
three-tangle 4|Det psi|, with Det Cayley's hyperdeterminant.  Its formula is
written once, in ``_hyperdeterminant``, over any indexable of the 8 amplitudes,
and runs on two carriers:

- :func:`three_tangle_rows` passes the numpy columns of an (L, 8) stack of
  unnormalized rows.  The m = 3 terms of all-qubit reports score every
  decomposition this way, so they need neither a nested report nor a
  ``PureState`` per member.
- ``n_scren_pure`` on three qubits passes the amplitudes of one state as a
  list of Python complex numbers, in about 1 us where numpy's ufuncs on a
  one-row stack take about 10 us.  Custom roofs over ``n_scren_pure`` (the
  nested term the ``sm_nested`` benchmark times) score each member this way;
  no report does.

The carriers agree to 6e-16 (200,000 normalized Haar rows) but not bit for
bit: numpy's vectorized complex multiply and modulus round differently from
CPython's.  Stacks stay on numpy.  The list carrier looped over a stack made
4-qubit reports faster, but it moved all 33 m = 3 values of 11 Haar 4-qubit
reports (by up to 1.9e-7) and was slower on larger stacks: 13 against 9 us
on 16 rows, 395 against 18 us on 500.
"""

from __future__ import annotations

import numpy as np

from .roof import RoofConfig, scren2
from .states import Bipartition, DensityMatrix, PureState, reduced_density

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def one_tangle(psi: PureState, part: Bipartition) -> float:
    """Pure-state tangle across ``part``: 2(1 - tr rho_A^2)."""
    rho_a = reduced_density(psi, part.side_a).matrix
    return max(0.0, float(2.0 * (1.0 - np.einsum("ij,ji->", rho_a, rho_a).real)))


def wootters_tangle(rho: DensityMatrix) -> float:
    """Two-qubit tangle from the concurrence closed form; returns C^2.

    C = max(0, s_1 - s_2 - ... - s_r) with s_i the descending singular values
    of the r x r symmetric matrix B (sy x sy) B^T, where B holds the support
    rows sqrt(lam_i) e_i.  These are the square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), taken without that non-Hermitian
    eigenproblem, so a rank-deficient input leaves no roundoff roots behind
    (a pure state gives its one-tangle to machine precision).
    """
    if rho.dims != (2, 2):
        raise ValueError(f"wootters_tangle needs a 2x2 qubit pair, got dims {rho.dims}")
    _, base = rho.support
    s = np.linalg.svd(base @ _YY @ base.T, compute_uv=False)
    return max(0.0, float(s[0] - s[1:].sum())) ** 2


def three_tangle_rows(rows: np.ndarray) -> np.ndarray:
    """Three-tangle 4|Det row| of each row of an (L, 8) array of 3-qubit amplitudes.

    Det is the discriminant b^2 - 4ac of the quadratic det(A_0 + t A_1) =
    a + b t + c t^2, where A_0 and A_1 are the 2 x 2 slices of the row at
    first qubit 0 and 1.  Det is homogeneous of degree 4, so a row of weight
    w = |row|^2 gives w^2 tau_3(row / sqrt(w)) and the rows need no
    normalization: the square root of the result is w sqrt(tau_3).
    """
    if rows.ndim != 2 or rows.shape[1] != 8:
        raise ValueError(f"three_tangle_rows needs an (L, 8) array, got shape {rows.shape}")
    return 4.0 * np.abs(_hyperdeterminant(rows.T))


def _hyperdeterminant(r):
    """Cayley's hyperdeterminant b^2 - 4ac of the amplitudes r[0], ..., r[7].

    ``r`` is any indexable whose items support complex arithmetic: the
    columns of a stack (numpy arrays) or the amplitudes of one state
    (Python complex numbers).
    """
    a = r[0] * r[3] - r[1] * r[2]
    c = r[4] * r[7] - r[5] * r[6]
    b = r[0] * r[7] + r[4] * r[3] - r[1] * r[6] - r[5] * r[2]
    return b * b - 4.0 * a * c


def two_tangle(
    rho: DensityMatrix,
    config: RoofConfig | None = None,
    full_output: bool = False,
):
    """Mixed-state tangle: squared roof of sqrt(one_tangle) over decompositions.

    Valid when every pure state in the support has Schmidt rank at most two,
    which is guaranteed for 2 x k (or k x 2) systems.  There sqrt(one_tangle)
    is the negativity, so the two-tangle is the SCREN roof and this returns
    :func:`scren.roof.scren2` of the pair; for genuine two-qubit inputs it
    agrees with :func:`wootters_tangle`.
    """
    if rho.n_parties != 2:
        raise ValueError("two_tangle needs a bipartite density matrix")
    if min(rho.dims) != 2:
        raise ValueError(
            "two_tangle requires one side of dimension 2 so that all support "
            f"states have Schmidt rank <= 2, got dims {rho.dims}"
        )
    return scren2(rho, Bipartition((0,), 2), config, full_output)

