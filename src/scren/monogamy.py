"""Multi-party monogamy reports: CKW and strong-monogamy (SM) inequalities.

The SM right-hand side sums, over every level m = 2..n-1 and every (m-1)-subset
of the non-focus parties, the mixed m-party measure of the reduced state raised
to m/2.  The mixed m-party measure is the squared roof of the square root of
the pure m-party residual, and an m >= 3 member's residual is its
:func:`n_scren_pure`, its own SCREN ``sm_report`` residual (on three qubits,
the three-tangle closed form), so one report may nest convex-roof
optimizations.  Roofs that nest another roof in their objective run at the
fixed small budget ``NESTED_CONFIG``.

There is one SM recursion, and it runs over stacks of rows, breadth first.
:func:`_term_values` measures every term on every row of a stack of
focus-first unit rows.  The reductions of all rows onto all terms of one
shape come from one :func:`scren.states.reduced_rows` call, with their
supports from one stacked SVD, and go through one lockstep
:func:`scren.roof.roof_minimize` call.  A nested term's objective scores all
the member rows of an objective call at once (:func:`_member_residuals`):
their focus cuts in one ``negativity_rows`` call, their terms by recursing on
the whole stack.  ``sm_report`` is the one-row case plus its term records.
Every value is bit for bit what one member at a time gives.  When several
members of one lockstep call have a residual below -1e-7, the
``ConjectureViolation`` names the first in that call's row order, which can
be another member than the one a member-at-a-time order would meet first.

The CKW report is the pair level (m = 2) of the same balance sheet: one loop
builds both, and both return an :class:`SMReport` with one schema.  For three
parties the two inequalities coincide.  A report holds only what was measured,
the focus cut's value and each term's value and convergence; each term's
contribution, the right-hand total, the residual and the verdict are
properties read off them.

The measure enters only at the top of a report: the focus-versus-rest cut and
the guard on its pairs.  The recursion below the top cut is measure
independent.  On a 2 x k pair the two-tangle is the SCREN roof, and tangle
reports nest (n >= 4) only for all-qubit states, where the one-tangle is the
squared negativity; so every pair value is the SCREN pair roof and every
nested residual is a SCREN residual.  A qubit pair's roof is the Wootters
closed form (:func:`scren.tangle.wootters_tangle`), so all-qubit reports run
no pair optimizer.  Other pairs run the ``scren2`` roof.  The residual of a
3-qubit state is the Coffman-Kundu-Wootters three-tangle 4|Det psi|, one
formula on two carriers (see :mod:`scren.tangle`).  ``n_scren_pure`` returns
it without a report, from the state's amplitudes as Python complex numbers.
The m = 3 term of a 3-qubit reduced state is one roof over hyperdeterminant
rows (:func:`scren.tangle.three_tangle_rows`, numpy columns) at the
report's own budget, with no roof nested in it, so no report reaches
``n_scren_pure``'s Python-complex carrier.  The two agree to 6e-16, not bit
for bit.

Subsets are reported with the paper-style 1-based labels {2..n} assigned after
moving the focus party to the front; subsystem indices handed to the state
operations stay 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, permutations
import numpy as np

from .guards import check_cost
from .negativity import negativity_pure, negativity_rows
from .roof import (
    CONJECTURE_ATOL,
    SQRT_ROOF_FLOOR,
    WEIGHT_TOL,
    ConjectureViolation,
    RoofConfig,
    roof_minimize,
)
from .states import Bipartition, DensityMatrix, PureState, reduced_rows
from .tangle import _hyperdeterminant, one_tangle, three_tangle_rows, wootters_tangle

SATISFIED_ATOL = 1e-6

# Budget of an m >= 3 term whose objective nests a roof: the term's outer
# roof and its members' reports (run with the report's seed).  These are the
# terms with a qudit member and the m = 4 terms of 5-party reports; each outer
# objective evaluation runs a full member report, so the budget stays small.
# An all-qubit m = 3 term nests no roof and runs at the report's own budget.
NESTED_CONFIG = RoofConfig(starts=3, iters=200)

MEASURES = ("scren", "tangle")


@dataclass(frozen=True)
class SMTerm:
    """One term of the SM sum; ``subset`` holds its ascending 1-based labels.

    A term holds what was measured, its ``value`` and ``converged``; its
    ``order`` m and its ``contribution`` value^(m/2) are read off them.
    """

    subset: tuple[int, ...]
    value: float
    converged: bool

    @property
    def order(self) -> int:
        return len(self.subset) + 1

    @property
    def contribution(self) -> float:
        return self.value ** (self.order / 2)

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "m": self.order,
            "value": self.value,
            "contribution": self.contribution,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class SMReport:
    """Strong-monogamy balance sheet for one pure state and focus party.

    A report holds what was measured: the focus cut's ``one_value`` and the
    ``terms``.  ``rhs_total`` (the contributions added left to right from
    0.0), ``residual`` (one value minus that total) and ``satisfied`` (the
    residual within ``SATISFIED_ATOL`` of nonnegative) are read off them, so
    no report disagrees with its own terms.  A CKW report
    (:func:`ckw_report`) is the same sheet over its m = 2 terms.
    """

    measure: str
    focus: int
    one_value: float
    terms: tuple[SMTerm, ...]

    @property
    def rhs_total(self) -> float:
        # a plain loop, not sum(): sum() compensates float sums on Python >= 3.12
        total = 0.0
        for t in self.terms:
            total += t.contribution
        return total

    @property
    def residual(self) -> float:
        return self.one_value - self.rhs_total

    @property
    def satisfied(self) -> bool:
        return bool(self.residual >= -SATISFIED_ATOL)

    def level_totals(self) -> dict[int, float]:
        totals: dict[int, float] = {}
        for t in self.terms:
            totals[t.order] = totals.get(t.order, 0.0) + t.contribution
        return totals

    def to_dict(self) -> dict:
        return {
            "one": self.one_value,
            "terms": [t.to_dict() for t in self.terms],
            "rhs": self.rhs_total,
            "residual": self.residual,
            "satisfied": self.satisfied,
            "diagnostics": {
                "measure": self.measure,
                "focus": self.focus,
                "levels": {str(m): v for m, v in sorted(self.level_totals().items())},
                "all_converged": all(t.converged for t in self.terms),
            },
        }


def _focus_first(psi: PureState, focus: int) -> PureState:
    if not 0 <= focus < psi.n_parties:
        raise ValueError(f"focus {focus} out of range for {psi.n_parties} parties")
    if focus == 0:
        return psi
    order = [focus] + [i for i in range(psi.n_parties) if i != focus]
    return psi.permute(order)


def _check_measure(dims: tuple[int, ...], measure: str) -> None:
    """Validate the measure against the focus-first local dimensions.

    Tangle reports need a qubit in every pair with the focus party, so that
    each pair's two-tangle is defined; this covers the pair of a two-party
    report too.  Beyond three parties they need all qubits, so that the
    nested SCREN residuals are tangle residuals.
    """
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    if measure != "tangle":
        return
    if len(dims) > 3 and any(d != 2 for d in dims):
        raise ValueError(
            "tangle-based reports beyond three parties are only defined for "
            "all-qubit states"
        )
    if any(min(dims[0], d) != 2 for d in dims[1:]):
        raise ValueError(
            "tangle-based reports need a qubit in every pair with the focus "
            f"party, got dims {dims} with the focus first"
        )


def _cut_value(psi: PureState, measure: str) -> float:
    """Pure-state measure of the focus(0)-versus-rest cut."""
    part = Bipartition((0,), psi.n_parties)
    if measure == "scren":
        return negativity_pure(psi, part) ** 2
    return one_tangle(psi, part)


def _subsets(n: int, pairs_only: bool) -> list[tuple[int, ...]]:
    """The 0-based non-focus parties of each term of an n-party report, in
    report order: level by level from m = 2, subsets in lexicographic order."""
    return [
        subset
        for m in range(2, 3 if pairs_only else n)
        for subset in combinations(range(1, n), m - 1)
    ]


def _term_values(
    dims: tuple[int, ...], units: np.ndarray, config: RoofConfig, pairs_only: bool
) -> list[list[tuple[float, bool]]]:
    """``(value, converged)`` of every term on every row of an (N, prod(dims))
    stack of focus-first unit rows: one list per term, in report order, of the
    N rows' values.

    The terms of one reduced shape are measured together: the reductions of
    all rows onto all of them come from one :func:`reduced_rows` call, and
    their roofs from one lockstep :func:`roof_minimize` call.  A qubit pair
    is the Wootters closed form, reported as ``(C^2, True)`` with no roof
    run; any other pair is the ``scren2`` roof at the given config.  Either
    is also the two-tangle of the pairs ``_check_measure`` admits.  Terms of
    order three and above are the squared roof of the square root of each
    member's SCREN residual.  On a 3-qubit reduced state that residual is the
    three-tangle, so the term is the squared roof of the row objective
    sqrt(4|Det row_h|), each member's weight times its root three-tangle, at
    the given config.  Any other term scores the residuals of all the member
    rows of an objective call at once (:func:`_member_residuals`), which
    recurses here on all of them; that outer roof and the members' nested
    terms run at ``NESTED_CONFIG`` with the report's seed, whatever the
    report's own budget.
    """
    subsets = _subsets(len(dims), pairs_only)
    shapes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for subset in subsets:
        shapes.setdefault((dims[0],) + tuple(dims[j] for j in subset), []).append(subset)
    columns = {}
    for shape, group in shapes.items():
        rhos = reduced_rows(dims, units, [(0,) + subset for subset in group])
        if shape == (2, 2):
            values = [(wootters_tangle(rho), True) for rho in rhos]
        else:
            values = _roof_values(shape, rhos, config)
        for k, subset in enumerate(group):
            columns[subset] = values[k * len(units):(k + 1) * len(units)]
    return [columns[subset] for subset in subsets]


def _roof_values(
    shape: tuple[int, ...], rhos: list[DensityMatrix], config: RoofConfig
) -> list[tuple[float, bool]]:
    """``(value, converged)`` of the squared roofs of reduced states of one
    ``shape`` other than a qubit pair, in one lockstep call (see
    :func:`_term_values`)."""
    if len(shape) == 2:
        objective = negativity_rows(shape, Bipartition((0,), 2))
    elif shape == (2, 2, 2):
        objective = _root_three_tangle
    else:
        config = replace(NESTED_CONFIG, seed=config.seed)
        objective = _nested_rows(shape, config)
    results = roof_minimize(rhos, objective, config, stop_below=SQRT_ROOF_FLOOR)
    return [(max(0.0, result.value) ** 2, result.converged) for result in results]


def _root_three_tangle(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(three_tangle_rows(rows))


def _nested_rows(dims: tuple[int, ...], config: RoofConfig):
    """Row objective (w_h sqrt(max(0, residual(row_h / sqrt(w_h)))))_h of a
    nested term, the roof of :func:`roof_sqrt_functional` over each member's
    ``n_scren_pure``, scored on all member rows of a call at once.

    Rows of weight w_h below ``WEIGHT_TOL`` score 0.0.  The others are made
    unit rows as ``member_average`` makes its members, and their residuals
    come from one :func:`_member_residuals` call.  A residual below
    -``CONJECTURE_ATOL`` raises ``ConjectureViolation`` with the first such
    member in row order; residuals in [-``CONJECTURE_ATOL``, 0] count as
    roundoff.  ``member_average``, which hands its functional one member per
    call, keeps its own loop: built on a helper shared with this kernel, the
    roofs over it ran about 5% slower.
    """

    def values(rows: np.ndarray) -> np.ndarray:
        weights = np.einsum("hd,hd->h", rows, rows.conj()).real.tolist()
        live = [h for h, w in enumerate(weights) if not w < WEIGHT_TOL]
        units = np.array([rows[h] / math.sqrt(weights[h]) for h in live])
        out = np.zeros(len(weights))
        for h, unit, residual in zip(live, units, _member_residuals(dims, units, config)):
            if residual < -CONJECTURE_ATOL:
                raise ConjectureViolation(PureState(dims, unit, validate=False), residual)
            out[h] = weights[h] * (0.0 if residual <= 0.0 else math.sqrt(residual))
        return out

    return values


def _member_residuals(dims: tuple[int, ...], units: np.ndarray, config: RoofConfig) -> list[float]:
    """SCREN residual of each row of an (N, prod(dims)) stack of focus-first
    unit rows: for each row, the ``residual`` of its :func:`sm_report` with
    focus 0 at ``config``, bit for bit, from one recursion over all rows.

    The focus cuts of all rows are scored in one ``negativity_rows`` call.
    Each residual is the squared cut negativity less the contributions
    value^(m/2), added left to right from 0.0, as :class:`SMReport` adds them.
    """
    cuts = negativity_rows(dims, Bipartition((0,), len(dims)))(units).tolist()
    orders = [len(subset) + 1 for subset in _subsets(len(dims), False)]
    columns = _term_values(dims, units, config, False)
    residuals = []
    for h, cut in enumerate(cuts):
        total = 0.0
        for m, column in zip(orders, columns):
            total += column[h][0] ** (m / 2)
        residuals.append(max(0.0, cut) ** 2 - total)
    return residuals


def _report(
    psi: PureState,
    focus: int,
    measure: str,
    config: RoofConfig | None,
    pairs_only: bool,
) -> SMReport:
    """The balance sheet over levels m = 2..n-1, or over the pair level only:
    :func:`_term_values` on the one focus-first row, and its term records."""
    config = config or RoofConfig()
    check_cost(psi.dims)
    work = _focus_first(psi, focus)
    _check_measure(work.dims, measure)
    one = _cut_value(work, measure)
    columns = _term_values(work.dims, work.amplitudes[None], config, pairs_only)
    terms = tuple(
        # positions 1..n-1 -> labels 2..n
        SMTerm(tuple(j + 1 for j in subset), *column[0])
        for subset, column in zip(_subsets(work.n_parties, pairs_only), columns)
    )
    return SMReport(measure, focus, one, terms)


def sm_report(
    psi: PureState,
    focus: int = 0,
    measure: str = "scren",
    config: RoofConfig | None = None,
) -> SMReport:
    """Full strong-monogamy report for ``psi`` with the given focus party.

    Labels in the returned terms follow the focus-first relabeling: the focus
    party is label 1 and the remaining parties keep their original order as
    labels 2..n.
    """
    return _report(psi, focus, measure, config, pairs_only=False)


def ckw_report(
    psi: PureState,
    focus: int = 0,
    measure: str = "scren",
    config: RoofConfig | None = None,
) -> SMReport:
    """Pairwise (CKW) report: the pair level of :func:`sm_report`.

    Its terms are the m = 2 terms of the SM report, so on three parties the
    two reports are equal.  A two-party state has one pair term here and
    none in the SM report.
    """
    return _report(psi, focus, measure, config, pairs_only=True)


def n_scren_pure(psi: PureState, focus: int = 0, config: RoofConfig | None = None) -> float:
    """Recursive multi-party residual of the squared convex-roof negativity.

    On three qubits this is the three-tangle 4|Det psi|, which depends on
    neither the focus nor the config and is returned without a report.  It
    is Cayley's hyperdeterminant on the amplitudes as Python complex numbers,
    about 1 us where numpy's ufuncs on one row take about 10 us; it agrees
    with :func:`scren.tangle.three_tangle_rows` of the same row to 6e-16,
    not bit for bit.  Reports score their m = 3 stacks with
    ``three_tangle_rows`` and never call this; a custom roof over it, such
    as ``roof_sqrt_functional(rho, n_scren_pure)``, scores each member here.
    """
    if psi.dims == (2, 2, 2):
        return 4.0 * abs(_hyperdeterminant(_focus_first(psi, focus).amplitudes.tolist()))
    return sm_report(psi, focus=focus, measure="scren", config=config).residual


def n_tangle_pure(psi: PureState, focus: int = 0, config: RoofConfig | None = None) -> float:
    """Residual tangle of a pure state for the given focus party.

    One-tangle of focus|rest minus every m-party mixed tangle contribution
    raised to m/2.  May come out negative; its conjectured nonnegativity is
    exactly the strong-monogamy statement for tangles.  The dims must pass
    the tangle guard of :func:`sm_report` (a qubit in every pair with the
    focus, all qubits beyond three parties); the 3x2x2 counterexample
    gives about -4/9.
    """
    return sm_report(psi, focus=focus, measure="tangle", config=config).residual


# ---------------------------------------------------------------------------
# Built-in fixture states
# ---------------------------------------------------------------------------

def _counterexample_322() -> PureState:
    # (sqrt(2)|010> + sqrt(2)|101> + |200> + |211>) / sqrt(6) on dims (3, 2, 2):
    # the known 3x2x2 violation of the tangle CKW inequality.
    amps = np.zeros(12, dtype=np.complex128)
    amps[0 * 4 + 1 * 2 + 0] = np.sqrt(2)
    amps[1 * 4 + 0 * 2 + 1] = np.sqrt(2)
    amps[2 * 4 + 0 * 2 + 0] = 1.0
    amps[2 * 4 + 1 * 2 + 1] = 1.0
    return PureState((3, 2, 2), amps / np.sqrt(6))


def _antisymmetric_333() -> PureState:
    # Totally antisymmetric three-qutrit singlet, all signed level permutations.
    amps = np.zeros(27, dtype=np.complex128)
    even = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    for perm in permutations(range(3)):
        a, b, c = perm
        amps[a * 9 + b * 3 + c] = 1.0 if perm in even else -1.0
    return PureState((3, 3, 3), amps / np.sqrt(6))


CKW_COUNTEREXAMPLE_322 = _counterexample_322()
ANTISYMMETRIC_333 = _antisymmetric_333()
