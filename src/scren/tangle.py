"""Tangle hierarchy for qubit systems, with the Wootters closed form as oracle.

The one-tangle of a pure state is 4 det(rho_A) when side A is a qubit.  For a
qudit focus the linear-entropy form 2(1 - tr rho_A^2) is used; the two agree
on qubits and reproduce the quoted value 4/3 for a marginal with spectrum
(1/3, 1/3, 1/3).  Mixed-state tangles are convex roofs of the square root of
the pure tangle, squared.
"""

from __future__ import annotations

import numpy as np

from .roof import RoofConfig, roof_sqrt_functional
from .states import Bipartition, DensityMatrix, PureState, reduced_density

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def one_tangle(psi: PureState, part: Bipartition) -> float:
    """Pure-state tangle across ``part``: 4 det rho_A, or 2(1 - tr rho_A^2)
    when the side-A marginal is not a qubit."""
    rho_a = reduced_density(psi, part.side_a).matrix
    if rho_a.shape[0] == 2:
        value = 4.0 * np.linalg.det(rho_a).real
    else:
        value = 2.0 * (1.0 - np.einsum("ij,ji->", rho_a, rho_a).real)
    return max(0.0, float(value))


def wootters_tangle(rho: DensityMatrix) -> float:
    """Two-qubit tangle from the concurrence closed form.

    C = max(0, mu1 - mu2 - mu3 - mu4) with mu_i the descending square roots
    of the eigenvalues of rho (sy x sy) rho* (sy x sy); returns C^2.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"wootters_tangle needs a 2x2 qubit pair, got dims {rho.dims}")
    m = rho.matrix @ _YY @ rho.matrix.conj() @ _YY
    mu = np.sqrt(np.clip(np.linalg.eigvals(m).real, 0.0, None))
    mu.sort()
    c = mu[-1] - mu[-2] - mu[-3] - mu[-4]
    return max(0.0, float(c)) ** 2


def two_tangle(
    rho: DensityMatrix,
    config: RoofConfig | None = None,
    full_output: bool = False,
):
    """Mixed-state tangle: squared roof of sqrt(one_tangle) over decompositions.

    Valid when every pure state in the support has Schmidt rank at most two,
    which is guaranteed for 2 x k (or k x 2) systems; for genuine two-qubit
    inputs this agrees with :func:`wootters_tangle`.
    """
    if rho.n_parties != 2:
        raise ValueError("two_tangle needs a bipartite density matrix")
    if min(rho.dims) != 2:
        raise ValueError(
            "two_tangle requires one side of dimension 2 so that all support "
            f"states have Schmidt rank <= 2, got dims {rho.dims}"
        )
    part = Bipartition((0,), 2)
    return roof_sqrt_functional(
        rho, lambda psi: one_tangle(psi, part), config, full_output=full_output
    )

