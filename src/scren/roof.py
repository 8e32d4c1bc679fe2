"""Convex-roof optimization over pure-state decompositions of a mixed state.

Every decomposition of ``rho`` into r = rank(rho) pure states arises from the
eigendecomposition through an r x r unitary mixing matrix (unitary freedom of
ensembles).  The eigendecomposition is the state's cached ``support``, which
a reduced pure state takes from the thin SVD of its split matrix.  The roof
engine minimizes the weighted ensemble average sum_h p_h f(psi_h) over that
unitary.  Its objective maps an (N, dim) array of unnormalized member rows
sqrt(p_h)|psi_h> to the (N,) array of weighted member values p_h f(psi_h),
and the engine sums each decomposition's r values.  So a whole stack of
decompositions is scored in one objective call: the probe, the chord scan and
each step of the chord search below are one call each, and a Powell step is a
stack of one.
One engine, :func:`roof_minimize`, runs one state or a list of states of one
shape in lockstep: it scores every eigendecomposition of the list in one
objective call, then the probe of every state on the search route that is
still open in one more, and only then does each state left open run its own
chord or Powell search.  One state is the list's one-input case, and each
state of a list gets the result it would get alone, bit for bit.
Which path runs depends only on the party dims and the rank of the input;
:func:`_route` is the one place that chooses it.  Every path scores through
one record per state, :class:`_Roof`, which records averages scored by the
lockstep stages or scores a stack itself: the roof's value is the least
average it scored, and on every path the first average at or below
``stop_below`` ends the roof.

``cren`` and ``scren2`` score rows with the one negativity kernel,
:func:`scren.negativity.negativity_rows`.  On a 2 x k cut with k at most
``MINORS_MAX_K`` = 8 (every 2 x 2 and 3 x 2 pair, so every chord search on
them) it takes each row's 2 x 2 minors and calls no SVD; on any other cut it
takes the SVD of each row's split matrix.

A rank-2 state of a qubit and a qudit takes one start, and not over U(2).  Its
two-member decompositions are exactly the chords of its Bloch ball through the
state's Bloch vector (Osterloh, Siewert & Uhlmann, PRA 77, 032310 (2008)), a
two-parameter family: the other two parameters of U(2) are per-member phases
no objective depends on.  So a fixed grid of ``CHORD_COUNT`` chord directions
plus the eigendecomposition is scanned, and a stencil search minimizes over a
two-parameter chart of chord directions around the best of them
(:func:`_chord_unitaries`, :func:`_chord_chart`).  That search is a coroutine,
:func:`_chord_search`: it yields each stack of chord directions it scores, the
scan first and then one 3 x 3 stencil of chart points a step, and
:func:`_chord_roof` scores each stack through the record in one objective
call, sends back its averages and alone keeps the budget.  Two kernels build
a stack's chord decompositions bit for bit alike: Python floats for a
stencil, numpy for the scan (see :func:`_chord_unitaries`).  A quadratic
model of the stencil takes the search to the Newton point when that point
is near.
A rank-2 two-qubit state has a whole curve of optimal chords, along which the
model's Hessian is near singular and its Newton point is rejected; when the
stencil also stalled (no point improved on its centre), the search takes the
valley step instead, the Newton step along the model's direction of greatest
curvature, straight across the valley.  That search is deterministic, so
``starts`` and ``seed`` do not change its value.  On 3 x 3 pairs the same
single start missed the multi-start value on some states, so every other input
keeps multi-start search.

Every input that takes the multi-start search is first probed at
``PROBE_COUNT`` Haar-random mixing unitaries to detect
decomposition-independent objectives.  The search (:func:`_search_roof`)
then runs derivative-free direction-set (Powell) search over U = exp(iO) U0,
O off-diagonal Hermitian, from multiple starts: start 0 is the identity (so
the eigendecomposition average is always an upper bound on the result) and
the rest are Haar-random.  By the unitary freedom of ensembles (Hughston,
Jozsa & Wootters, PLA 183, 14 (1993)) a decomposition is fixed by its mixing
unitary up to member phases, and a diagonal O would change only those, so the
search runs over the r(r - 1) coordinates that change the decomposition.  At
rank 2, where every three-tangle term and every rank-2 pair without a qubit
party runs, exp(iO) has a closed form and no eigensolver runs
(:func:`_mixed_rows`).  All randomness derives from the config seed, so
results are reproducible.  Only Powell needs ``scipy.optimize``, which is
most of the time ``import scren`` would take, so :func:`_powell` imports it
when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Generator, Sequence

import numpy as np

from .negativity import negativity_rows
from .states import Bipartition, DensityMatrix, PureState

WEIGHT_TOL = 1e-14
CONJECTURE_ATOL = 1e-7

# Early-exit floor for the squared roofs (scren2, which is also the two-tangle,
# and roof_sqrt_functional): a best average below this squares to 1e-10, two
# orders below the tightest tolerance any caller reports at.  cren is not
# squared, so it keeps no floor.
SQRT_ROOF_FLOOR = 1e-5

# Number of random unitaries probed to detect decomposition-independent
# objectives before running the optimizer, and the largest spread of their
# values that still counts as independent.
PROBE_COUNT = 8
PROBE_SPREAD_TOL = 1e-9

# Chord directions scanned for the single start of a rank-2 pair roof: the
# upper half of a Fibonacci sphere, since a chord and its reverse are the same
# decomposition.  The z-axis, the eigendecomposition, is scanned besides.
CHORD_COUNT = 64

# Largest stack of chords built on Python floats (:func:`_scalar_chord_unitaries`)
# in place of numpy (:func:`_chord_unitaries`).  At one BLAS thread (2-vCPU
# machine) the numpy kernel took 23-26 µs for 1 to 64 chords, about its
# per-call cost; the scalar kernel 2.6 µs at 1 chord, 10.8 and 12.4 at 8 and 9
# (a stencil step), 21 at 16, 22-24 at 17, 28 at 20 and 78 at 64, so the two
# cost the same at 17 to 20 chords.  Both kernels multiply by the reciprocal
# 1 / sqrt(q_j), as numpy divides, so the limit changes no bit of any value.
CHORD_SCALAR_MAX_K = 16

# The chord search from the best scanned chord (:func:`_chord_search`): its
# first stencil step in the chart, the step below which it returns, how far
# (in steps) a Newton or valley point may lie, and the factors a step changes
# by.
STENCIL_STEP = 0.1
STENCIL_FLOOR = 1e-8
STENCIL_TRUST = 2.0
NEWTON_SHRINK = 16.0
STENCIL_GROW = 2.0
STENCIL_SHRINK = 4.0


class ConjectureViolation(Exception):
    """A pure-state functional assumed nonnegative went genuinely negative.

    Raised by :func:`roof_sqrt_functional` when an ensemble member evaluates
    below -1e-7 (anything in [-1e-7, 0) is treated as roundoff).  This is
    scientifically meaningful output, not a crash: it carries the offending
    state and value so the candidate counterexample can be inspected.  Both
    are its ``args``, so it pickles, and a worker pool passes it back whole.
    """

    def __init__(self, state: PureState, value: float):
        super().__init__(state, value)
        self.state = state
        self.value = value

    def __str__(self) -> str:
        return f"pure-state functional is negative ({self.value:.6e}) on an ensemble member"


@dataclass(frozen=True)
class RoofConfig:
    """Settings for the roof optimizer.

    ``iters`` is the per-start evaluation budget; it and ``starts`` must be
    at least 1.  Every roof decomposes its input into rank-many members.  A
    rank-2 qubit-qudit pair runs one stencil search over the two chord
    parameters whatever ``starts`` says, and ``seed`` does not enter it.
    After the eigendecomposition and the ``CHORD_COUNT`` chord scan, that
    search gets ``iters + max(300, iters // 2)`` more evaluations, and its
    last stencil may pass them by up to 8; a Powell start and its polish get
    ``iters + max(100, iters // 2)``: the same from ``iters`` = 600 on (3000
    at the default), up to 200 more below.
    ``seed`` seeds the probe and the random starts of every other
    multi-start search.
    """

    starts: int = 16
    iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1 or self.iters < 1:
            raise ValueError(
                f"starts and iters must be at least 1, got {self.starts} and {self.iters}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class RoofResult:
    """Outcome of a roof minimization: value, argmin decomposition and diagnostics.

    ``value`` is the least decomposition average the roof scored, and
    ``rows`` the read-only (rank, dim) array of that decomposition's
    unnormalized member rows sqrt(p_h)|psi_h>; the probe exit returns the
    eigendecomposition.  ``evals`` is the number of decompositions the roof
    scored: the eigendecomposition, the chord scan's ``CHORD_COUNT`` or the
    probe's ``PROBE_COUNT`` (each one objective call), then 8 or 9 per step
    of the chord search (one call each), or one per Powell and polish call.
    Unlike wall time it does not depend on the machine.  ``converged`` says
    that the search stopped on its own tolerances and not on its evaluation
    budget: the chord search's step fell below ``STENCIL_FLOOR``, the polish
    met its tolerances, or an average reached ``stop_below``.  The exits that
    run no search report True.  ``exit`` names the exit taken: ``rank1``,
    ``stop_below``, ``chord``, ``probe`` or ``search``.
    """

    value: float
    rows: np.ndarray
    starts: int
    converged: bool
    evals: int
    exit: str


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian with phase-fixed R."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _checked_rows(rho: DensityMatrix, rows: np.ndarray) -> np.ndarray:
    """``rows`` made read-only, checked to rebuild ``rho`` to 1e-8."""
    defect = np.abs(rows.T @ rows.conj() - rho.matrix).max()
    if not defect <= 1e-8:
        raise AssertionError(f"rows do not rebuild the state: {defect:.3e}")
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=32)
def _triu(n: int):
    return np.triu_indices(n, 1)


@lru_cache(maxsize=64)
def _probe_unitaries(seed: int, rank: int) -> np.ndarray:
    """Read-only (PROBE_COUNT, rank, rank) stack of the probe's Haar unitaries.

    They depend only on ``(seed, rank)``, so each pair is drawn once per
    process, in order from one generator seeded by ``(seed, 0x9e3779b9)``.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9e3779b9)))
    stack = np.stack([haar_unitary(rank, rng) for _ in range(PROBE_COUNT)])
    stack.flags.writeable = False
    return stack


def _fibonacci_direction(k: int) -> tuple[float, float, float]:
    z = 1.0 - (k + 0.5) / CHORD_COUNT
    azimuth = k * math.pi * (3.0 - math.sqrt(5.0))
    rad = math.sqrt(1.0 - z * z)
    return (rad * math.cos(azimuth), rad * math.sin(azimuth), z)


_CHORD_DIRECTIONS = np.array([_fibonacci_direction(k) for k in range(CHORD_COUNT)])
_CHORD_DIRECTIONS.flags.writeable = False

# The chord search's stencil: its centre, then the 8 neighbours of the centre
# on a square grid.
_STENCIL = np.array(
    [[0, 0], [-1, -1], [-1, 0], [-1, 1], [0, -1], [0, 1], [1, -1], [1, 0], [1, 1]], dtype=float
)


def _scalar_chord_unitaries(q: tuple[float, float], u: np.ndarray) -> np.ndarray:
    """:func:`_chord_unitaries` on Python floats, for a short stack ``u``,
    through the numpy kernel's IEEE operations (see there).
    """
    q1, q2 = q
    c = 4.0 * q1 * q2
    d = q1 - q2
    north0, south0 = 2.0 * q1, 2.0 * q2
    r1, r2 = 1.0 / math.sqrt(q1), 1.0 / math.sqrt(q2)
    # (re, im) of entries (h, 0) and (h, 1) for each chord and end point h
    out = []
    for ux, uy, uz in u.tolist():
        b = d * uz
        big = abs(b) + math.sqrt(b * b + c)
        small = c / big
        total = big + small
        if b >= 0:
            ends = (small, big / total), (-big, small / total)
        else:
            ends = (big, small / total), (-small, big / total)
        for t, p in ends:
            tz = t * uz
            north = north0 + tz
            south = south0 - tz
            if north >= south:
                s = math.sqrt(p / (2.0 * north))
                out += (s * north * r1, 0.0, s * (t * ux) * r2, s * (t * uy) * r2)
            else:
                s = math.sqrt(p / (2.0 * south))
                out += (s * (t * ux) * r1, s * -(t * uy) * r1, s * south * r2, 0.0)
    return np.array(out).view(np.complex128).reshape(-1, 2, 2)


def _chord_unitaries(q: tuple[float, float], u: np.ndarray) -> np.ndarray:
    """(K, 2, 2) mixing unitaries of the chord decompositions along a (K, 3) stack ``u``.

    In the eigenbasis of a rank-2 state with normalized eigenvalues
    q = (q_1, q_2), q_1 >= q_2, the Bloch vector is r0 = (0, 0, c) with
    c = q_1 - q_2.  The chord through r0 along the unit vector u meets the
    sphere at n = r0 + t u, where t^2 + 2 b t - 4 q_1 q_2 = 0 with b = c u_z
    (1 - c^2 = 4 q_1 q_2), and its end points n+ and n- mix back to r0 at
    weights p+ = -t- / (t+ - t-) and p- = t+ / (t+ - t-).  The member psi(n)
    of weight p is the row sqrt(p) (psi_1 / sqrt(q_1), psi_2 / sqrt(q_2)) of
    the unitary acting on the support rows sqrt(lam_i) e_i.

    When q_2 is small or a chord ends near a pole, one root t or one of
    1 +- n_z is tiny, so none of them is formed as a difference: the small
    root is -4 q_1 q_2 over the large one, 1 + n_z = 2 q_1 + t u_z and
    1 - n_z = 2 q_2 - t u_z, and each member spinor comes from the hemisphere
    chart whose denominator is at least sqrt(2),
    (1 + n_z, n_x + i n_y) / sqrt(2 (1 + n_z)) or
    (n_x - i n_y, 1 - n_z) / sqrt(2 (1 - n_z)).

    Two kernels compute it, with the same IEEE operations on every element,
    so they agree bit for bit (up to the sign of a zero): the small root as
    c / big, the hemisphere chart of the larger of 1 +- n_z, and column j
    multiplied by the reciprocal 1 / sqrt(q_j), which is how numpy divides a
    complex entry by the real sqrt(q_j).  A stack of at most
    ``CHORD_SCALAR_MAX_K`` chords, every stencil step, takes
    :func:`_scalar_chord_unitaries`; the two kernels cost the same at 17 to
    20 chords (see the constant).  A larger stack, the ``CHORD_COUNT`` scan
    of the C-contiguous ``_CHORD_DIRECTIONS``, takes this numpy kernel,
    whose every call costs more than its arithmetic, so it makes as few
    calls as it can: it works on (2, K) arrays, one row per end point, and
    builds them in place from the (strided) rows of ``u.T``.
    """
    if len(u) <= CHORD_SCALAR_MAX_K:
        return _scalar_chord_unitaries(q, u)
    q1, q2 = q
    ux, uy, uz = u.T
    c = 4.0 * q1 * q2
    b = (q1 - q2) * uz
    # ends holds each chord's (small, big) roots by size; row h = 0 of t is
    # the end point n+ and h = 1 the end point n-, (small, -big) when b >= 0
    # and (big, -small) when b < 0
    ends = np.empty((2, len(b)))
    big = np.add(np.abs(b), np.sqrt(b * b + c), out=ends[1])
    np.divide(c, big, out=ends[0])
    t = np.where(b >= 0, ends, ends[::-1])
    p = t[::-1] / (big + ends[0])
    t[1] *= -1.0
    tz = t * uz
    north = 2.0 * q1 + tz
    south = 2.0 * q2 - tz
    up = north >= south
    scale = np.sqrt(p / (2.0 * np.maximum(north, south)))
    txy = t * (ux + 1j * uy)
    # unitary[j, h, k] is entry (h, j) of chord k's unitary
    unitary = np.empty((2, 2, len(b)), dtype=np.complex128)
    unitary[0] = np.where(up, north, txy.conj())
    unitary[1] = np.where(up, txy, south)
    unitary *= scale
    unitary /= np.array([math.sqrt(q1), math.sqrt(q2)])[:, None, None]
    return unitary.transpose(2, 1, 0)


def _chord_chart(u0: Sequence[float]) -> np.ndarray:
    """Frame (u0, e_1, e_2) of the chart x -> normalize(u0 + x_1 e_1 + x_2 e_2).

    e_1 and e_2 complete the unit vector ``u0`` to an orthonormal basis, so
    x = 0 is the chord along u0 and the chart covers the open hemisphere of
    directions around it; a chord and its reverse are the same
    decomposition, so that is every chord but one great circle of them.  A
    (K, 2) stack of chart points x maps to the directions ``u / |u|`` with
    ``u = frame[0] + x @ frame[1:]``.  e_2 is the cross product u0 x e_1,
    written out in the order ``np.cross`` takes.
    """
    u0 = [float(v) for v in u0]
    a0, a1, a2 = u0
    # e_1 is the coordinate axis least aligned with u0, less its u0 part
    size = [abs(v) for v in u0]
    k = size.index(min(size))
    e1 = np.array([-u0[k] * v for v in u0])
    e1[k] += 1.0
    e1 /= math.sqrt(e1.dot(e1))
    b0, b1, b2 = e1.tolist()
    e2 = [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
    return np.array([u0, e1, e2])


def _chart_directions(origin: np.ndarray, axes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(K, 3) unit directions of chart points ``x`` for the frame's origin column and
    (3, 2) axes, the transpose of the (3, K) array the product builds.

    A stencil's 8 or 9 directions go to the scalar chord kernel, which reads
    them in one ``tolist``; they reach the numpy kernel only when
    ``CHORD_SCALAR_MAX_K`` is set below 8.  The product stays on numpy for
    its BLAS bits: BLAS may fuse its multiply-adds, which Python floats
    cannot match bit for bit.
    """
    u = origin + axes @ x.T
    u /= np.sqrt(np.add.reduce(u * u, axis=0))
    return u.T


def _newton_step(
    centre: float, values: Sequence[float]
) -> tuple[tuple[float, float] | None, tuple[float, float] | None]:
    """Newton and valley steps of the stencil's quadratic model, in stencil steps.

    ``values`` are the objective at the 8 neighbours of ``_STENCIL`` around a
    centre of value ``centre``.  The model takes central differences for the
    gradient g and the Hessian H.  The Newton step solves H s = -g, and is None
    when H is not positive definite.  The valley step is the Newton step
    restricted to v, the eigenvector of H's larger eigenvalue lam > 0:
    s = -(g . v / lam) v = -P g / lam, with P = (H - lam' I) / (lam - lam')
    the projector onto v and lam' the other eigenvalue.  It is None when lam
    is not positive or H is a multiple of the identity.
    """
    gx = (values[6] - values[1]) / 2.0
    gy = (values[4] - values[3]) / 2.0
    hxx = values[6] - 2.0 * centre + values[1]
    hyy = values[4] - 2.0 * centre + values[3]
    hxy = (values[7] - values[5] - values[2] + values[0]) / 4.0
    det = hxx * hyy - hxy * hxy
    newton = valley = None
    if hxx > 0.0 and det > 0.0:
        newton = ((hxy * gy - hyy * gx) / det, (hxy * gx - hxx * gy) / det)
    # lam - lam' = 2 r, and H - lam' I = [[a + r, hxy], [hxy, r - a]]
    a = (hxx - hyy) / 2.0
    r = math.hypot(a, hxy)
    lam = (hxx + hyy) / 2.0 + r
    if lam > 0.0 and r > 0.0:
        k = -1.0 / (2.0 * r * lam)
        valley = (k * ((a + r) * gx + hxy * gy), k * (hxy * gx + (r - a) * gy))
    return newton, valley


def _chord_search(value0: float) -> Generator[np.ndarray, list[float], None]:
    """The chord search as a coroutine: it yields each (K, 3) stack of chord
    directions it scores and is sent their K averages as a list.

    ``value0`` is the eigendecomposition's average.  The first stack is the
    ``CHORD_COUNT`` scan of ``_CHORD_DIRECTIONS``; the search starts from the
    first scanned chord of least average if that lies below ``value0``, else
    from the z-axis, the eigendecomposition, and minimizes over the chart of
    chord directions around it (:func:`_chord_chart`) from x = 0.  Each later
    stack is one step: the 8 neighbours of ``_STENCIL`` around a centre at
    step h, after the centre itself when it is not yet scored.  If the
    stencil's quadratic model (:func:`_newton_step`) has a positive definite
    Hessian and its Newton point lies within ``STENCIL_TRUST`` steps of the
    centre, the next stencil is centred there at h / ``NEWTON_SHRINK``.  When
    that step is rejected and the stencil stalled (its model was fit and no
    stencil point improved on the centre), the model's valley step, the Newton
    step along the eigenvector of the Hessian's larger eigenvalue, takes its
    place under the same rule: on a valley whose floor is flat the full Newton
    point is rejected, and without the valley step h creeps down to
    ``STENCIL_FLOOR`` by compass moves.  Otherwise the next stencil is centred
    on the best point scored so far, at h * ``STENCIL_GROW`` if a stencil
    point just became that best, else at h / ``STENCIL_SHRINK``.  A Newton or
    valley centre that improved on nothing fits no model: the search goes
    back to the best point.  It returns when h falls below ``STENCIL_FLOOR``;
    it keeps no budget, so its caller stops sending when it has spent one.
    """
    scan = yield _CHORD_DIRECTIONS
    low = min(scan)
    # the eigendecomposition is the chord along the z-axis
    u0 = _CHORD_DIRECTIONS[scan.index(low)] if low < value0 else (0.0, 0.0, 1.0)
    value0 = min(value0, low)
    frame = _chord_chart(u0)
    origin, axes = frame[0][:, None], frame[1:].T
    best, best_value = np.zeros(2), value0
    centre, centre_value = best, value0
    step = STENCIL_STEP
    while step >= STENCIL_FLOOR:
        jumped = centre_value is None
        points = centre + step * (_STENCIL if jumped else _STENCIL[1:])
        values = yield _chart_directions(origin, axes, points)
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
        newton, valley = _newton_step(centre_value, values) if improved or not jumped else (None, None)
        if (newton is None or math.hypot(*newton) > STENCIL_TRUST) and not moved:
            # the stencil stalled where the Newton point is rejected
            newton = valley
        if newton is not None and math.hypot(*newton) <= STENCIL_TRUST:
            centre, centre_value = centre + step * np.array(newton), None
            step /= NEWTON_SHRINK
            continue
        step = step * STENCIL_GROW if moved else step / STENCIL_SHRINK
        centre, centre_value = best, best_value


def member_average(dims: Sequence[int], fn: Callable[[PureState], float]):
    """Row objective (w_h fn(row_h / sqrt(w_h)))_h from a pure-state functional.

    The weight w_h of a row is its squared norm; a row below ``WEIGHT_TOL``
    scores 0.0 without calling ``fn``.  :func:`roof_minimize` sums each
    decomposition's values into its weighted ensemble average.  Members are
    built with ``validate=False`` on ``dims`` made ints once: a roof's row (of
    a state of these dims) over the root of its weight is a fresh unit vector,
    so no check could fire.
    """
    dims = tuple(int(d) for d in dims)

    def values(rows: np.ndarray) -> np.ndarray:
        weights = np.einsum("hd,hd->h", rows, rows.conj()).real.tolist()
        return np.array([
            0.0 if w < WEIGHT_TOL else w * fn(PureState(dims, row / math.sqrt(w), validate=False))
            for w, row in zip(weights, rows)
        ])

    return values


def _stack_scores(objective: Callable[[np.ndarray], np.ndarray], stack: np.ndarray):
    """The (K,) objective sums of a (K, r, dim) stack of decompositions, in one call."""
    k, r, dim = stack.shape
    return np.add.reduce(objective(stack.reshape(k * r, dim)).reshape(k, r), axis=1)


class _Floor(Exception):
    """Raised by :class:`_Roof` at the first average at or below its floor."""


class _Roof:
    """The record of one roof: its state's support and route, and what it scored.

    ``record`` takes the K averages of a (K, r, dim) stack of decompositions
    scored elsewhere, adds K to ``evals`` and returns them.  ``value`` and
    ``rows`` are the least average recorded so far and its decomposition
    (the first of equal values); the first average at or below ``floor``
    raises :class:`_Floor`, and a NaN or infinite average raises
    ``ValueError``.  A call scores a stack in one objective call
    (:func:`_stack_scores`) and records it.  The paths set ``starts``,
    ``converged`` and ``exit``.
    """

    def __init__(
        self, rho: DensityMatrix, objective: Callable[[np.ndarray], np.ndarray], floor: float
    ):
        self.rho, self.objective, self.floor = rho, objective, floor
        self.lam, self.base = rho.support
        self.path = _route(rho.dims, len(self.lam))
        self.exit = "rank1" if self.path == "rank1" else "stop_below"
        self.value, self.rows, self.evals = math.inf, None, 0
        self.starts, self.converged = 0, True

    def record(self, stack: np.ndarray, values: list[float]) -> list[float]:
        if not math.isfinite(sum(values)):
            raise ValueError("the roof objective returned a non-finite average")
        self.evals += len(values)
        low = min(values)
        if low < self.value:
            self.value, self.rows = low, stack[values.index(low)]
            if low <= self.floor:
                raise _Floor
        return values

    def __call__(self, stack: np.ndarray) -> list[float]:
        return self.record(stack, _stack_scores(self.objective, stack).tolist())

    def result(self) -> RoofResult:
        return RoofResult(
            float(self.value), _checked_rows(self.rho, self.rows), self.starts, self.converged,
            self.evals, self.exit,
        )


def _lockstep(roofs: list[_Roof], stacks: list[np.ndarray]) -> list[list[float] | None]:
    """Score each roof's (K, r, dim) stack of decompositions and record it.

    Returns each roof's K averages, or None for a roof that an average at its
    floor closed.  Stacks of one shape are joined and scored in one
    :func:`_stack_scores` call, so a list of one shape, the usual case, takes
    one objective call.
    """
    shapes: dict[tuple[int, ...], list[int]] = {}
    for i, stack in enumerate(stacks):
        shapes.setdefault(stack.shape, []).append(i)
    averages: list = [None] * len(stacks)
    for members in shapes.values():
        joined = stacks[members[0]]
        if len(members) > 1:
            joined = np.concatenate([stacks[i] for i in members])
        scores = _stack_scores(roofs[0].objective, joined).reshape(len(members), -1).tolist()
        for i, values in zip(members, scores):
            averages[i] = values
    out = []
    for roof, stack, values in zip(roofs, stacks, averages):
        try:
            out.append(roof.record(stack, values))
        except _Floor:
            out.append(None)
    return out


def _route(dims: Sequence[int], rank: int) -> str:
    """The roof path for party ``dims`` and ``rank``, and the one place it is chosen:
    ``rank1``, ``chord`` for a rank-2 pair with a qubit party, else ``search``."""
    if rank == 1:
        return "rank1"
    if rank == 2 and len(dims) == 2 and min(dims) == 2:
        return "chord"
    return "search"


def _chord_rows(q: tuple[float, float], base: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(K, 2, dim) rows of the chord decompositions along a (K, 3) stack ``u``."""
    # one (2K, 2) @ (2, dim) product mixes every chord's support rows
    return (_chord_unitaries(q, u).reshape(-1, 2) @ base).reshape(-1, 2, base.shape[1])


def _chord_roof(roof: _Roof, lam: np.ndarray, base: np.ndarray, config: RoofConfig) -> None:
    """One start on a rank-2 pair with a qubit party, driving :func:`_chord_search`.

    Each stack of chord directions the search yields is scored through the
    record in one objective call, and its averages are sent back; so the
    record is the one scorer and its ``evals`` the one count, and the driver
    alone keeps the budget.  The search is deterministic, so ``starts`` and
    ``seed`` do not change its result.  The driver stops once the stencil
    steps, after the eigendecomposition and the ``CHORD_COUNT`` scan, have
    scored ``config.iters + max(300, config.iters // 2)`` decompositions, so
    the last stencil may pass that budget by up to 8, and only that stop
    leaves the roof not ``converged``: a search that returned on its own (its
    step below ``STENCIL_FLOOR``) or an average at the floor is converged.
    """
    roof.starts, roof.exit = 1, "chord"
    q = tuple(float(v) for v in lam / lam.sum())
    search = _chord_search(roof.value)
    directions = next(search)
    # the stencil steps get Powell's start and polish budget,
    # iters + max(100, iters // 2), from iters = 600 on and up to 200 more below
    # that: at Powell's budget alone, a low ``iters`` left some stencil searches
    # short of Powell's value
    stop = roof.evals + CHORD_COUNT + config.iters + max(300, config.iters // 2)
    try:
        while roof.evals < stop:
            directions = search.send(roof(_chord_rows(q, base, directions)))
    except StopIteration:
        return
    roof.converged = False


def _mixed_rows(theta: np.ndarray, u0: np.ndarray | None, base: np.ndarray) -> np.ndarray:
    """Decomposition rows mixed by exp(iO) ``u0`` (None: the identity), for the
    off-diagonal Hermitian O whose upper triangle ``theta`` packs as (re, im) pairs.

    At rank 2, O = [[0, z], [z*, 0]] with z = theta_0 + i theta_1 squares to
    |z|^2 I, so exp(iO) = cos|z| I + i (sin|z| / |z|) O, the ratio taken as 1
    at z = 0, and no eigensolver runs.  Higher ranks take O's ``eigh``.
    """
    r = len(base)
    if r == 2:
        z = complex(theta[0], theta[1])
        size = abs(z)
        scale = 1j * (math.sin(size) / size if size else 1.0)
        c = math.cos(size)
        u = np.array([[c, scale * z], [scale * z.conjugate(), c]])
    else:
        o = np.zeros((r, r), dtype=np.complex128)
        o[_triu(r)] = theta[0::2] + 1j * theta[1::2]
        w, v = np.linalg.eigh(o + o.conj().T)
        u = (v * np.exp(1j * w)) @ v.conj().T
    return (u if u0 is None else u @ u0) @ base


def _powell(roof, u0, base, maxfev, xtol, ftol):
    """Powell over exp(iO) ``u0`` (None: the identity) from O = 0, and whether it
    stopped on its own tolerances.  What it found is in the record, so the point
    it returns is not read: when ``maxfev`` ends a line search, that point can
    lie well above the least average it scored."""
    from scipy.optimize import minimize

    options = {"maxfev": maxfev, "xtol": xtol, "ftol": ftol, "maxiter": 10**6}
    res = minimize(
        lambda theta: roof(_mixed_rows(theta, u0, base)[None])[0],
        np.zeros(len(base) * (len(base) - 1)), method="Powell", options=options,
    )
    return res.status == 0


def _search_roof(roof: _Roof, lam: np.ndarray, base: np.ndarray, config: RoofConfig) -> None:
    """Multi-start Powell search, after the probe, and a polish of the record.

    Each support row is rotated so that its largest-modulus entry is real and
    positive, and ``config.starts`` Powell starts search the r(r - 1)
    parameters of U = exp(iO) U0 acting on those rows (O off-diagonal
    Hermitian; U0 the identity, then Haar-random unitaries).  The record is
    the search's only memory: the polish runs Powell from O = 0 on the
    least-average decomposition scored so far, with U0 the identity.
    ``converged`` says that the polish stopped on its own tolerances, and not
    on its evaluation budget.
    """
    r = len(lam)
    roof.exit = "search"
    # fix each support row's phase: its largest-modulus entry (the first of
    # equals) real and positive, so the starts do not depend on the phases
    # the support was computed with
    pivots = base[np.arange(r), np.abs(base).argmax(axis=1)]
    base = base * (pivots.conj() / np.abs(pivots))[:, None]
    seeds = np.random.SeedSequence(config.seed).spawn(config.starts)
    for k in range(config.starts):
        u0 = haar_unitary(r, np.random.default_rng(seeds[k])) if k else None
        roof.starts = k + 1
        _powell(roof, u0, base, config.iters, 1e-7, 1e-11)
    # polish the least-average decomposition with tight line-search tolerances
    roof.converged = _powell(roof, None, roof.rows, max(100, config.iters // 2), 1e-10, 1e-14)


def roof_minimize(
    rho: DensityMatrix | Sequence[DensityMatrix],
    objective: Callable[[np.ndarray], np.ndarray],
    config: RoofConfig | None = None,
    stop_below: float = 0.0,
):
    """Minimize the summed ``objective`` over decompositions of ``rho``.

    ``rho`` is one state, which returns one :class:`RoofResult`, or a list of
    states of one shape, which returns the list of their results, each bit
    for bit the result of its state alone.  One state is the one-input case
    of the lockstep list: every eigendecomposition is scored in one objective
    call, then the probe of every open roof on the search route in one more,
    and only then does each roof left open run its own chord or Powell search.

    ``objective`` maps an (N, dim) array of *unnormalized* member rows
    sqrt(p_h)|psi_h> to the (N,) array of weighted member values
    p_h f(psi_h); the roof sums each decomposition's values into its average.
    The rows of several decompositions, and of several states, may arrive in
    one call, so a value must depend on its own row only, and a NaN or
    infinite value raises ``ValueError``.  Wrap a pure-state functional with
    :func:`member_average`.

    A rank-one state has a single decomposition, returned with ``starts=0``.
    Every other state takes the path :func:`_route` names.  On the chord
    route it runs :func:`_chord_roof`.  On the search route the probe comes
    first: if the eigendecomposition average and the values at a seeded stack
    of ``PROBE_COUNT`` random mixing unitaries spread by at most
    ``PROBE_SPREAD_TOL``, the objective is treated as decomposition
    independent and the eigendecomposition is returned with ``starts=0``
    (the ``probe`` exit); otherwise :func:`_search_roof` runs.  The probe's
    unitaries depend only on ``config.seed`` and the rank, and are drawn
    once per process for each such pair (:func:`_probe_unitaries`).
    Every decomposition scored, on every exit, goes through the state's one
    :class:`_Roof` record: the value is the least average it scored,
    ``evals`` counts every decomposition, and the first average at or below
    ``stop_below`` ends the roof at once and counts as converged.  An
    eigendecomposition or probe average that does so is the ``stop_below``
    exit, with ``starts=0`` (the roof value is sandwiched between it and
    zero).
    """
    config = config or RoofConfig()
    rhos = [rho] if isinstance(rho, DensityMatrix) else rho
    roofs = [_Roof(state, objective, stop_below) for state in rhos]
    if any(roof.rho.dims != roofs[0].rho.dims for roof in roofs):
        raise ValueError("roof_minimize takes a list of states of one shape")
    searching, probed = [], []
    for roof, values in zip(roofs, _lockstep(roofs, [roof.base[None] for roof in roofs])):
        if values is not None and roof.path != "rank1":
            (searching if roof.path == "chord" else probed).append(roof)
    if probed:
        eigen = [(roof.value, roof.rows) for roof in probed]
        stacks = [_probe_unitaries(config.seed, len(roof.lam)) @ roof.base for roof in probed]
        for roof, (value, rows), values in zip(probed, eigen, _lockstep(probed, stacks)):
            if values is None:
                continue
            if max(value, *values) - min(value, *values) <= PROBE_SPREAD_TOL:
                roof.value, roof.rows, roof.exit = value, rows, "probe"
            else:
                searching.append(roof)
    for roof in searching:
        try:
            search = _chord_roof if roof.path == "chord" else _search_roof
            search(roof, roof.lam, roof.base, config)
        except _Floor:
            pass  # no path sets converged before it ends, so a floor stop stays converged
    results = [roof.result() for roof in roofs]
    return results[0] if isinstance(rho, DensityMatrix) else results


def _squared_roof(
    rho: DensityMatrix,
    row_objective: Callable[[np.ndarray], np.ndarray],
    config: RoofConfig | None,
) -> tuple[float, RoofResult]:
    """Square of the roof of ``row_objective``, stopped at ``SQRT_ROOF_FLOOR``."""
    result = roof_minimize(rho, row_objective, config, stop_below=SQRT_ROOF_FLOOR)
    return max(0.0, result.value) ** 2, result


def cren(
    rho: DensityMatrix,
    part: Bipartition,
    config: RoofConfig | None = None,
    full_output: bool = False,
):
    """Convex-roof extended negativity: min ensemble-average negativity.

    Members are scored by :func:`scren.negativity.negativity_rows`: by their
    2 x 2 minors when a side of ``part`` is a qubit and the other has
    dimension at most ``MINORS_MAX_K`` = 8, else by an SVD.
    """
    result = roof_minimize(rho, negativity_rows(rho.dims, part), config)
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
    every squared roof it passes ``SQRT_ROOF_FLOOR`` as ``stop_below``, so a
    near-separable pair may report any value up to 1e-10 in place of zero.
    Members are scored as in :func:`cren`: by their 2 x 2 minors on a 2 x k
    cut with k <= 8, else by an SVD.
    """
    value, result = _squared_roof(rho, negativity_rows(rho.dims, part), config)
    return (value, result) if full_output else value


def roof_sqrt_functional(
    rho: DensityMatrix,
    pure_fn: Callable[[PureState], float],
    config: RoofConfig | None = None,
    full_output: bool = False,
):
    """Squared roof of the square root of a nonnegative pure-state functional.

    Computes [min average sqrt(max(0, pure_fn))]^2 over decompositions.
    ``pure_fn`` values in [-1e-7, 0] count as roundoff and clamp to zero; any
    value below that raises :class:`ConjectureViolation` with the state.  A
    NaN value is kept, so the roof raises ``ValueError`` on its average.
    """

    def sqrt_member(psi: PureState) -> float:
        v = float(pure_fn(psi))
        if v < -CONJECTURE_ATOL:
            raise ConjectureViolation(psi, v)
        return 0.0 if v <= 0.0 else math.sqrt(v)

    value, result = _squared_roof(rho, member_average(rho.dims, sqrt_member), config)
    return (value, result) if full_output else value
