"""Negativity of pure and mixed states and the PPT separability check.

Pure-state negativity is 2 * sum_{i<j} sqrt(lambda_i lambda_j) over the
Schmidt coefficients, equivalently (tr sqrt(rho_A))^2 - 1.  Mixed-state
negativity is the trace norm of the partial transpose minus one.  Values are
reported raw (no 1/(d-1) normalization).
"""

from __future__ import annotations

import numpy as np

from .states import Bipartition, DensityMatrix, PureState, partial_transpose, split_matrix

PPT_ATOL = 1e-10


def negativity_pure(psi: PureState, part: Bipartition) -> float:
    """Negativity of a pure state across ``part``, from its Schmidt spectrum."""
    s = np.linalg.svd(split_matrix(psi, part), compute_uv=False)
    # 2 sum_{i<j} s_i s_j == (sum s_i)^2 - sum s_i^2, and sum s_i^2 == 1
    return max(0.0, float(s.sum() ** 2 - (s**2).sum()))


def negativity_mixed(rho: DensityMatrix, part: Bipartition) -> float:
    """Trace norm of the partial transpose minus one.

    Evaluated as twice the weight of the negative eigenvalues (equal to
    ||.||_1 - 1 since the trace is one), and exactly zero when no eigenvalue
    lies below -1e-10, which is the test :func:`is_ppt` applies.
    """
    mu = np.linalg.eigvalsh(partial_transpose(rho, part))
    if mu[0] >= -PPT_ATOL:
        return 0.0
    return 2.0 * float(np.clip(-mu, 0.0, None).sum())


def is_ppt(rho: DensityMatrix, part: Bipartition) -> bool:
    """True iff the partial transpose has no eigenvalue below -1e-10."""
    return negativity_mixed(rho, part) == 0.0
