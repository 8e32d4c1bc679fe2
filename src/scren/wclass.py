"""Generalized W-class plus vacuum states: constructors, closed-form SCREN
values, and numerical checks of their monogamy saturation properties.

A spec holds the coefficients a_{si} (party s = 1..n, level i = 1..d-1) of a
coherent superposition of every Hamming-weight-one product state, mixed with
the vacuum at weight p:

    sqrt(p) * sum_{s,i} a_{si} |0..0 i 0..0>  +  sqrt(1-p) |0..0>

Omega = sum_{s>=2} sum_i |a_{si}|^2 is the excitation weight held by the
non-focus parties.  The closed forms below never touch the optimizer, so they
serve as independent oracles for it:

    one-SCREN(A1 | rest)   = 4 p^2 (1 - Omega) Omega
    two-SCREN(A1 | As)     = 4 p^2 (1 - Omega) sum_i |a_{si}|^2

which sum to the same total, saturating the pairwise inequality.  Any reduced
state keeping party 1 is a rank-<=2 mixture |x~><x~| + |y~><y~| of the same
family, which is what makes every decomposition's average computable in closed
form and all higher-order terms vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .monogamy import SMReport, sm_report
from .roof import RoofConfig
from .states import DensityMatrix, PureState, _check_keep, reduced_density

HAMMING_SUPPORT_ATOL = 1e-10
THEOREM_ATOL = 1e-3


@dataclass(frozen=True)
class WClassSpec:
    """Parameters (n, d, a_{si}, p) of a generalized W-class plus vacuum state."""

    n: int
    d: int
    a: np.ndarray
    p: float

    def __post_init__(self):
        n, d = int(self.n), int(self.d)
        if n < 2 or d < 2:
            raise ValueError("need at least two parties of dimension at least 2")
        a = np.ascontiguousarray(self.a, dtype=np.complex128)
        if a.shape != (n, d - 1):
            raise ValueError(f"coefficient array must have shape ({n}, {d - 1}), got {a.shape}")
        total = float(np.sum(np.abs(a) ** 2))
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"coefficients must satisfy sum |a_si|^2 = 1, got {total!r}")
        p = float(self.p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"vacuum mixing weight must lie in [0, 1], got {p}")
        a = a / np.sqrt(total)  # make the normalization exact
        a.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "p", p)

    @property
    def omega(self) -> float:
        """Excitation weight on parties 2..n."""
        return float(np.sum(np.abs(self.a[1:]) ** 2))

    def party_weight(self, s: int) -> float:
        """sum_i |a_{si}|^2 for the 1-based party index s."""
        if not 1 <= s <= self.n:
            raise ValueError(f"party index {s} out of range 1..{self.n}")
        return float(np.sum(np.abs(self.a[s - 1]) ** 2))


def random_spec(rng: np.random.Generator, n: int, d: int) -> WClassSpec:
    """Complex-Gaussian coefficients normalized to one, p uniform on [0, 1]."""
    a = rng.standard_normal((n, d - 1)) + 1j * rng.standard_normal((n, d - 1))
    a /= np.linalg.norm(a)
    return WClassSpec(n=n, d=d, a=a, p=float(rng.uniform(0.0, 1.0)))


def _excitations(m: int, d: int) -> np.ndarray:
    """(m, d - 1) flat indices of the Hamming-weight-one kets of m qudits of
    dimension d: entry (k, i - 1) is i d^(m-1-k), level i at kept party k."""
    return np.arange(1, d) * d ** np.arange(m - 1, -1, -1)[:, None]


def build_state(spec: WClassSpec) -> PureState:
    """The n-qudit state sqrt(p)|W> + sqrt(1-p)|vacuum>."""
    return PureState((spec.d,) * spec.n, reduced_xy(spec, range(spec.n))[0])


def one_scren_closed(spec: WClassSpec) -> float:
    """Closed-form squared negativity of the party-1 versus rest cut."""
    omega = spec.omega
    return 4.0 * spec.p**2 * (1.0 - omega) * omega


def two_scren_closed(spec: WClassSpec, s: int) -> float:
    """Closed-form two-party SCREN of the reduction onto parties (1, s)."""
    if not 2 <= s <= spec.n:
        raise ValueError(f"party index {s} must lie in 2..{spec.n}")
    return 4.0 * spec.p**2 * (1.0 - spec.omega) * spec.party_weight(s)


def reduced_xy(spec: WClassSpec, keep: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized vectors (x~, y~) with rho_keep = |x~><x~| + |y~><y~|.

    ``keep`` holds 0-based party indices and must contain party 0; the vectors
    live on the kept parties in ascending original order.
    """
    kept = _check_keep(keep, spec.n)
    if 0 not in kept:
        raise ValueError("the kept subset must contain party 0 (the focus)")
    x = np.zeros(spec.d ** len(kept), dtype=np.complex128)
    x[0] = np.sqrt(1.0 - spec.p)
    x[_excitations(len(kept), spec.d)] = np.sqrt(spec.p) * spec.a[kept]
    traced_weight = sum(spec.party_weight(s + 1) for s in range(spec.n) if s not in kept)
    y = np.zeros_like(x)
    y[0] = np.sqrt(spec.p * traced_weight)
    return x, y


# ---------------------------------------------------------------------------
# Numerical verification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma1Report:
    """Support check of one reduced state: the members of every pure-state
    decomposition stay in the Hamming-weight-<=1 subspace of the kept parties.

    ``max_violation`` is the largest amplitude outside that subspace of any
    unit vector in the state's range, which by the Hughston-Jozsa-Wootters
    theorem is the set of all decomposition members.
    """

    max_violation: float
    passed: bool


def outside_amplitude(rho: DensityMatrix) -> float:
    """Largest amplitude outside Hamming weight <= 1 of a unit vector in the
    range of ``rho`` (all parties of local dimension ``rho.dims[0]``).

    That maximum at basis index j is sqrt(P_jj) for the range projector P.
    """
    lam, rows = rho.support
    weight = np.sum(np.abs(rows) ** 2 / lam[:, None], axis=0)
    weight[0] = 0.0
    weight[_excitations(len(rho.dims), rho.dims[0])] = 0.0
    return float(np.sqrt(weight.max()))


def verify_lemma1(psi: PureState, keep: Iterable[int]) -> Lemma1Report:
    """Check Lemma 1 on the reduction of the W-class state ``psi`` (from
    :func:`build_state`) onto ``keep`` (0-based): every decomposition of it
    stays inside the W-plus-vacuum support."""
    worst = outside_amplitude(reduced_density(psi, keep))
    return Lemma1Report(max_violation=worst, passed=bool(worst <= HAMMING_SUPPORT_ATOL))


@dataclass(frozen=True)
class Theorem1Report:
    """Numeric-versus-closed-form comparison of the pairwise saturation."""

    one_numeric: float
    pair_numeric: tuple[float, ...]
    pair_closed: tuple[float, ...]
    pair_errors: tuple[float, ...]
    sum_error: float
    passed: bool


def verify_theorem1(spec: WClassSpec, rep: SMReport) -> Theorem1Report:
    """Check one-SCREN == sum of pairwise SCRENs, numeric against closed form.

    The numeric side is read off ``rep``, a SCREN report of the state of
    ``spec`` with party 1 in focus: its one value and m = 2 terms, so a CKW
    and a full SM report give the same verdict and no roof runs here.  Qubit
    pairs in the report take the Wootters closed form, qudit pairs the
    ``scren2`` roof.  A report that is not SCREN with focus 0, or whose pair
    terms are not the ``spec.n - 1`` of the spec's party count, raises
    ``ValueError``.
    """
    if rep.measure != "scren" or rep.focus != 0:
        raise ValueError(
            f"Theorem 1 needs a SCREN report with focus 0, got measure {rep.measure!r}, "
            f"focus {rep.focus}"
        )
    pair_numeric = tuple(t.value for t in rep.terms if t.order == 2)
    if len(pair_numeric) != spec.n - 1:
        raise ValueError(
            f"Theorem 1 on {spec.n} parties needs {spec.n - 1} pair terms, "
            f"got a report with {len(pair_numeric)}"
        )
    pair_closed = tuple(two_scren_closed(spec, s) for s in range(2, spec.n + 1))
    errors = tuple(abs(a - b) for a, b in zip(pair_numeric, pair_closed))
    sum_error = abs(rep.one_value - sum(pair_closed))
    passed = bool(max(errors, default=0.0) <= THEOREM_ATOL and sum_error <= THEOREM_ATOL)
    return Theorem1Report(
        one_numeric=rep.one_value,
        pair_numeric=pair_numeric,
        pair_closed=pair_closed,
        pair_errors=errors,
        sum_error=sum_error,
        passed=passed,
    )


@dataclass(frozen=True)
class Theorem2Report:
    """Strong-monogamy saturation: residual and all higher-order terms vanish.

    It holds only the SM ``report``; ``max_higher_term`` (the largest m >= 3
    term value, 0.0 if none) and ``passed`` (that value and the report's
    residual within ``THEOREM_ATOL`` of zero) are read off it.
    """

    report: SMReport

    @property
    def max_higher_term(self) -> float:
        return max((t.value for t in self.report.terms if t.order >= 3), default=0.0)

    @property
    def passed(self) -> bool:
        return bool(
            abs(self.report.residual) <= THEOREM_ATOL and self.max_higher_term <= THEOREM_ATOL
        )


def verify_theorem2(psi: PureState, config: RoofConfig | None = None) -> Theorem2Report:
    """Run the full SCREN SM report of the W-class state ``psi`` (from
    :func:`build_state`) with party 1 in focus and check saturation."""
    return Theorem2Report(sm_report(psi, focus=0, measure="scren", config=config))
