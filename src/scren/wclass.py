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
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .monogamy import SMReport, ckw_report, sm_report
from .roof import RoofConfig, haar_unitary, hjw_ensemble
from .states import PureState, reduced_density

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


def _excitation_index(dims: Sequence[int], slot: int, level: int) -> int:
    digits = [0] * len(dims)
    digits[slot] = level
    idx = 0
    for dim, k in zip(dims, digits):
        idx = idx * dim + k
    return idx


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


def marginal_focus_matrix(spec: WClassSpec) -> np.ndarray:
    """Explicit d x d marginal of party 1, assembled from the closed form."""
    d, p = spec.d, spec.p
    omega = spec.omega
    a1 = spec.a[0]
    out = np.zeros((d, d), dtype=np.complex128)
    out[1:, 1:] = p * np.outer(a1, a1.conj())
    out[0, 0] = p * omega + (1.0 - p)
    cross = np.sqrt(p * (1.0 - p))
    out[1:, 0] = cross * a1
    out[0, 1:] = cross * a1.conj()
    return out


def reduced_xy(spec: WClassSpec, keep: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized vectors (x~, y~) with rho_keep = |x~><x~| + |y~><y~|.

    ``keep`` holds 0-based party indices and must contain party 0; the vectors
    live on the kept parties in ascending original order.
    """
    kept = sorted({int(i) for i in keep})
    if 0 not in kept:
        raise ValueError("the kept subset must contain party 0 (the focus)")
    if kept[-1] >= spec.n or kept[0] < 0:
        raise ValueError(f"keep indices {kept} out of range for {spec.n} parties")
    dims = (spec.d,) * len(kept)
    x = np.zeros(prod(dims), dtype=np.complex128)
    x[0] = np.sqrt(1.0 - spec.p)
    root_p = np.sqrt(spec.p)
    for slot, s in enumerate(kept):
        for i in range(1, spec.d):
            x[_excitation_index(dims, slot, i)] = root_p * spec.a[s, i - 1]
    traced_weight = sum(spec.party_weight(s + 1) for s in range(spec.n) if s not in kept)
    y = np.zeros(prod(dims), dtype=np.complex128)
    y[0] = np.sqrt(spec.p * traced_weight)
    return x, y


# ---------------------------------------------------------------------------
# Numerical verification reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma1Report:
    """Support check: every mixed decomposition member stays in the
    Hamming-weight-<=1 subspace of the kept parties."""

    keep: tuple[int, ...]
    trials: int
    max_violation: float
    passed: bool


def _weight_le_one_indices(n_kept: int, d: int) -> np.ndarray:
    dims = (d,) * n_kept
    idx = [0]
    for slot in range(n_kept):
        for i in range(1, d):
            idx.append(_excitation_index(dims, slot, i))
    return np.array(sorted(idx))


def verify_lemma1(
    spec: WClassSpec,
    keep: Iterable[int],
    trials: int = 50,
    seed: int = 0,
) -> Lemma1Report:
    """Mix the reduced state with random unitaries and measure how much
    amplitude any member has outside the W-plus-vacuum support."""
    kept = tuple(sorted({int(i) for i in keep}))
    rho = reduced_density(build_state(spec), kept)
    rank = rho.rank()
    allowed = _weight_le_one_indices(len(kept), spec.d)
    outside = np.setdiff1d(np.arange(rho.total_dim), allowed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(max(1, trials)):
        u = haar_unitary(rank, rng)
        for _, member in hjw_ensemble(rho, u).members:
            if outside.size:
                worst = max(worst, float(np.abs(member.amplitudes[outside]).max()))
    return Lemma1Report(
        keep=kept,
        trials=max(1, trials),
        max_violation=worst,
        passed=bool(worst <= HAMMING_SUPPORT_ATOL),
    )


@dataclass(frozen=True)
class Theorem1Report:
    """Numeric-versus-closed-form comparison of the pairwise saturation."""

    one_numeric: float
    one_closed: float
    pair_numeric: tuple[float, ...]
    pair_closed: tuple[float, ...]
    pair_errors: tuple[float, ...]
    sum_error: float
    passed: bool


def verify_theorem1(spec: WClassSpec, config: RoofConfig | None = None) -> Theorem1Report:
    """Check one-SCREN == sum of pairwise SCRENs, numeric against closed form.

    The numeric side is the SCREN ``ckw_report`` of the state with party 1 in
    focus, so qubit pairs take the Wootters closed form and qudit pairs the
    ``scren2`` roof.
    """
    rep = ckw_report(build_state(spec), 0, "scren", config)
    pair_numeric = tuple(t.value for t in rep.terms)
    pair_closed = tuple(two_scren_closed(spec, s) for s in range(2, spec.n + 1))
    errors = tuple(abs(a - b) for a, b in zip(pair_numeric, pair_closed))
    sum_error = abs(rep.lhs - sum(pair_closed))
    passed = bool(max(errors, default=0.0) <= THEOREM_ATOL and sum_error <= THEOREM_ATOL)
    return Theorem1Report(
        one_numeric=rep.lhs,
        one_closed=one_scren_closed(spec),
        pair_numeric=pair_numeric,
        pair_closed=pair_closed,
        pair_errors=errors,
        sum_error=sum_error,
        passed=passed,
    )


@dataclass(frozen=True)
class Theorem2Report:
    """Strong-monogamy saturation: residual and all higher-order terms vanish."""

    report: SMReport
    residual: float
    max_higher_term: float
    passed: bool


def verify_theorem2(spec: WClassSpec, config: RoofConfig | None = None) -> Theorem2Report:
    """Run the full SM report on the state and check saturation."""
    report = sm_report(build_state(spec), focus=0, measure="scren", config=config)
    higher = [t.value for t in report.terms if t.order >= 3]
    max_higher = max(higher, default=0.0)
    passed = bool(abs(report.residual) <= THEOREM_ATOL and max_higher <= THEOREM_ATOL)
    return Theorem2Report(
        report=report,
        residual=report.residual,
        max_higher_term=max_higher,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def spec_to_dict(spec: WClassSpec) -> dict:
    a = np.stack([spec.a.real, spec.a.imag], axis=-1)
    return {"n": spec.n, "d": spec.d, "p": spec.p, "a": a.tolist()}


def spec_from_dict(data: dict) -> WClassSpec:
    arr = np.asarray(data["a"], dtype=float)
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ValueError("coefficients must be nested [re, im] pairs per party and level")
    return WClassSpec(
        n=int(data["n"]),
        d=int(data["d"]),
        a=arr[..., 0] + 1j * arr[..., 1],
        p=float(data["p"]),
    )
