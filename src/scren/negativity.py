"""Negativity of pure and mixed states.

Pure-state negativity is 2 * sum_{i<j} sqrt(lambda_i lambda_j) over the
Schmidt coefficients, equivalently (tr sqrt(rho_A))^2 - 1.  Mixed-state
negativity is the trace norm of the partial transpose minus one.  Values are
reported raw (no 1/(d-1) normalization).

One batched kernel, :func:`negativity_rows`, scores pure states: the roof
objective of ``cren`` and ``scren2`` and, on a single amplitude row,
:func:`negativity_pure`.  Which formula it uses depends only on the cut:

* a cut with a qubit side (side A or side B of dimension 2) whose other side
  has dimension k <= ``MINORS_MAX_K`` has Schmidt rank at most 2, so the
  negativity is 2 s_1 s_2 = 2 sqrt(det(M M^dagger)), the concurrence
  (Wootters, PRL 80, 2245 (1998)).  By Cauchy-Binet that is
  2 sqrt(sum_{j<l} |m_0j m_1l - m_0l m_1j|^2) over the k(k-1)/2 2 x 2 minors
  of the 2 x k split matrix M, which needs no SVD.  The minors are formed
  directly: on a near-product row (s_2 ~ 1e-9) they are off by about 1e-16,
  where 2 sqrt(det(M M^dagger)) loses the difference of two O(1) products
  and is off by about 1e-8;
* every other cut, a qubit side with k > ``MINORS_MAX_K`` included, takes the
  singular values s_i of the split matrix and returns
  (sum s_i)^2 - sum s_i^2.

The number of minors grows as k^2 and the SVD's cost about as k, so the
minors are taken only below their measured crossover with the SVD.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Callable

import numpy as np

from .states import Bipartition, DensityMatrix, PureState, partial_transpose

PPT_ATOL = 1e-10
# Largest k at which a 2 x k cut is scored by its minors.  At one BLAS thread
# (2-vCPU machine) the minors took at most about half the SVD's time up to
# k = 8 on stacks of 1, 8 and 64 rows; the SVD was faster from k = 16 to 20 on.
MINORS_MAX_K = 8


@lru_cache(maxsize=64)
def negativity_rows(
    dims: tuple[int, ...], part: Bipartition
) -> Callable[[np.ndarray], np.ndarray]:
    """Weighted negativity of each unnormalized row, batched.

    The returned function maps an (N, prod(dims)) array of rows
    sqrt(p_h)|psi_h> to the (N,) array p_h N(psi_h) across ``part``.  A row
    with singular values s_i across the cut has weight sum s_i^2, and
    weight * negativity is (sum s_i)^2 - sum s_i^2, so the rows need no
    explicit normalization.  A 2 x k cut with k <= ``MINORS_MAX_K`` scores
    each row by the 2 x 2 minors of its split matrix, any other cut by its
    singular values (see the module docstring).  The function is built once
    per process for each (dims, part) and shared, so ``dims`` must be a
    tuple.
    """
    if part.n_parties != len(dims):
        raise ValueError("bipartition does not match the state's party count")
    order = part.side_a + part.side_b
    d_a = prod(dims[i] for i in part.side_a)
    d_b = prod(dims) // d_a

    if 2 not in (d_a, d_b) or d_a * d_b // 2 > MINORS_MAX_K:
        batch_order = (0,) + tuple(1 + i for i in order)

        def values(rows: np.ndarray) -> np.ndarray:
            stack = rows.reshape((rows.shape[0],) + dims).transpose(batch_order)
            s = np.linalg.svd(stack.reshape(rows.shape[0], d_a, -1), compute_uv=False)
            return s.sum(axis=1) ** 2 - (s**2).sum(axis=1)

        return values

    # split[a, b] is the position in a row of the split matrix entry (a, b);
    # orient it as 2 x k, where minor (j, l) is m_0j m_1l - m_0l m_1j
    split = np.arange(prod(dims)).reshape(dims).transpose(order).reshape(d_a, -1)
    m = split if d_a == 2 else split.T
    pairs = combinations(range(m.shape[1]), 2)
    entries = np.array([[m[0, j], m[1, l], m[0, l], m[1, j]] for j, l in pairs]).T

    def values(rows: np.ndarray) -> np.ndarray:
        e = rows[:, entries]
        minors = e[:, 0] * e[:, 1] - e[:, 2] * e[:, 3]
        return 2.0 * np.hypot.reduce(np.abs(minors), axis=1)

    return values


def negativity_pure(psi: PureState, part: Bipartition) -> float:
    """Negativity of a pure state across ``part``: the kernel on its amplitude row."""
    value = negativity_rows(psi.dims, part)(psi.amplitudes[None])[0]
    return max(0.0, float(value))


def negativity_mixed(rho: DensityMatrix, part: Bipartition) -> float:
    """Trace norm of the partial transpose minus one.

    Evaluated as twice the weight of the negative eigenvalues (equal to
    ||.||_1 - 1 since the trace is one), and exactly zero when no eigenvalue
    lies below -1e-10 (the state is PPT).
    """
    mu = np.linalg.eigvalsh(partial_transpose(rho, part))
    if mu[0] >= -PPT_ATOL:
        return 0.0
    return 2.0 * float(np.clip(-mu, 0.0, None).sum())
