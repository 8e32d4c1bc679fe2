"""Multi-party monogamy reports: CKW and strong-monogamy (SM) inequalities.

The SM right-hand side sums, over every level m = 2..n-1 and every (m-1)-subset
of the non-focus parties, the mixed m-party measure of the reduced state raised
to m/2.  The mixed m-party measure is the squared roof of the square root of
the pure m-party residual, and an m >= 3 member's residual is its
:func:`n_scren_pure`, its own SCREN ``sm_report`` residual (on three qubits,
the three-tangle closed form), so
``sm_report`` is the only SM recursion and one report may nest convex-roof
optimizations.  Roofs that nest another roof in their objective run at the
fixed small budget ``NESTED_CONFIG``.

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
no pair optimizer.  Other pairs run ``scren2``.  The residual of a 3-qubit
state is the Coffman-Kundu-Wootters three-tangle 4|Det psi|, one formula on
two carriers (see :mod:`scren.tangle`).  ``n_scren_pure`` returns it without
a report, from the state's amplitudes as Python complex numbers.  The m = 3
term of a 3-qubit reduced state is one roof over hyperdeterminant rows
(:func:`scren.tangle.three_tangle_rows`, numpy columns) at the report's own
budget, with no roof nested in it, so no report reaches ``n_scren_pure``'s
Python-complex carrier.  The two agree to 6e-16, not bit for bit.

Subsets are reported with the paper-style 1-based labels {2..n} assigned after
moving the focus party to the front; subsystem indices handed to the state
operations stay 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, permutations
import numpy as np

from .guards import check_cost
from .negativity import negativity_pure
from .roof import RoofConfig, _squared_roof, roof_sqrt_functional, scren2
from .states import Bipartition, PureState, reduced_density
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


def _mixed_value(
    psi: PureState, subset: tuple[int, ...], config: RoofConfig
) -> tuple[float, bool]:
    """Mixed m-party measure of the reduced state on focus + subset (0-based).

    Returns ``(value, converged)``.  A qubit pair is the Wootters closed
    form, reported as ``(C^2, True)`` with no roof run; any other pair is the
    ``scren2`` roof at the given config.  Either is also the two-tangle of the
    pairs ``_check_measure`` admits.  Terms of order three and above are the
    squared roof of the square root of each member's SCREN residual.  On a
    3-qubit reduced state that residual is the three-tangle, so the term is
    the squared roof of the row objective sqrt(4|Det row_h|), each member's
    weight times its root three-tangle, at the given config.  Any other
    member's residual is its :func:`n_scren_pure`, its own ``sm_report``
    residual; that nests a full report inside every objective evaluation, so
    both that outer roof and the members' reports run at ``NESTED_CONFIG``
    with the report's seed, whatever the report's own budget.
    """
    rho = reduced_density(psi, (0,) + subset)
    if rho.dims == (2, 2):
        return wootters_tangle(rho), True
    if len(subset) == 1:
        value, result = scren2(rho, Bipartition((0,), 2), config, full_output=True)
    elif rho.dims == (2, 2, 2):
        value, result = _squared_roof(rho, lambda rows: np.sqrt(three_tangle_rows(rows)), config)
    else:
        nested = replace(NESTED_CONFIG, seed=config.seed)
        value, result = roof_sqrt_functional(
            rho,
            lambda member: n_scren_pure(member, 0, nested),
            nested,
            full_output=True,
        )
    return value, result.converged


def _report(
    psi: PureState,
    focus: int,
    measure: str,
    config: RoofConfig | None,
    pairs_only: bool,
) -> SMReport:
    """The balance sheet over levels m = 2..n-1, or over the pair level only."""
    config = config or RoofConfig()
    check_cost(psi.dims)
    work = _focus_first(psi, focus)
    _check_measure(work.dims, measure)
    n = work.n_parties
    one = _cut_value(work, measure)
    terms = tuple(
        # labels 2..n -> positions 1..n-1
        SMTerm(labels, *_mixed_value(work, tuple(j - 1 for j in labels), config))
        for m in range(2, 3 if pairs_only else n)
        for labels in combinations(range(2, n + 1), m - 1)
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
