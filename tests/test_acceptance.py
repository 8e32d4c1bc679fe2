"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import subprocess
import sys
import time
from itertools import combinations

import numpy as np

from scren import (
    ANTISYMMETRIC_333,
    CKW_COUNTEREXAMPLE_322,
    Bipartition,
    RoofConfig,
    build_state,
    ckw_report,
    cren,
    haar_unitary,
    member_average,
    negativity_pure,
    random_spec,
    reduced_density,
    scren2,
    verify_lemma1,
    verify_theorem1,
    verify_theorem2,
    wootters_tangle,
)

from util import hjw_rows, random_mixed_state, random_rank2_two_qubit

PART2 = Bipartition((0,), 2)
SEED = 7
CONFIG = RoofConfig(seed=SEED)


def _report(criterion: str, passed: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{criterion}] {status} ({elapsed:.1f}s) {detail}")


def test_criterion_1_counterexample_tangle():
    t0 = time.time()
    rep = ckw_report(CKW_COUNTEREXAMPLE_322, 0, "tangle", CONFIG)
    one_err = abs(rep.one_value - 4 / 3)
    pair_err = max(abs(t.value - 8 / 9) for t in rep.terms)
    res_err = abs(rep.residual + 4 / 9)
    elapsed = time.time() - t0
    ok = one_err <= 1e-9 and pair_err <= 1e-3 and res_err <= 2e-3 and not rep.satisfied
    ok = ok and elapsed <= 60.0
    _report(
        "criterion 1: 3x2x2 tangle violation",
        ok,
        elapsed,
        f"one={rep.one_value:.9f} pairs={[round(t.value, 6) for t in rep.terms]} "
        f"residual={rep.residual:.6f}",
    )
    assert ok


def test_criterion_2_counterexample_scren():
    t0 = time.time()
    rep = ckw_report(CKW_COUNTEREXAMPLE_322, 0, "scren", CONFIG)
    one_err = abs(rep.one_value - 4.0)
    pair_err = max(abs(t.value - 8 / 9) for t in rep.terms)
    elapsed = time.time() - t0
    ok = one_err <= 1e-9 and pair_err <= 1e-3 and rep.satisfied and elapsed <= 60.0
    _report(
        "criterion 2: 3x2x2 SCREN holds",
        ok,
        elapsed,
        f"one={rep.one_value:.9f} pairs={[round(t.value, 6) for t in rep.terms]} "
        f"residual={rep.residual:.6f}",
    )
    assert ok


def test_criterion_3_antisymmetric_scren():
    t0 = time.time()
    rep = ckw_report(ANTISYMMETRIC_333, 0, "scren", CONFIG)
    one_err = abs(rep.one_value - 4.0)
    pair_err = max(abs(t.value - 1.0) for t in rep.terms)
    elapsed = time.time() - t0
    ok = one_err <= 1e-9 and pair_err <= 1e-3 and elapsed <= 120.0
    _report(
        "criterion 3: antisymmetric qutrit fixture",
        ok,
        elapsed,
        f"one={rep.one_value:.9f} pairs={[round(t.value, 6) for t in rep.terms]}",
    )
    assert ok


def test_criterion_4_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        rho = random_rank2_two_qubit(rng)
        worst = max(worst, abs(scren2(rho, PART2, CONFIG) - wootters_tangle(rho)))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed <= 300.0
    _report(
        "criterion 4: Wootters oracle equivalence",
        ok,
        elapsed,
        f"max |scren2 - wootters| = {worst:.2e} over 50 states",
    )
    assert ok


def test_criterion_5_pairwise_saturation():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    cases = [(3, 3)] * 7 + [(4, 3)] * 7 + [(5, 2)] * 6
    worst_pair = 0.0
    worst_sum = 0.0
    for n, d in cases:
        spec = random_spec(rng, n, d)
        rep = verify_theorem1(spec, ckw_report(build_state(spec), 0, "scren", CONFIG))
        worst_pair = max(worst_pair, max(rep.pair_errors))
        worst_sum = max(worst_sum, abs(rep.one_numeric - sum(rep.pair_numeric)))
    elapsed = time.time() - t0
    ok = worst_pair <= 1e-3 and worst_sum <= 1e-3 and elapsed <= 600.0
    _report(
        "criterion 5: pairwise saturation (20 specs)",
        ok,
        elapsed,
        f"max pair error={worst_pair:.2e} max sum gap={worst_sum:.2e}",
    )
    assert ok


def test_criterion_6_strong_monogamy_saturation():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst_residual = 0.0
    worst_term = 0.0
    for _ in range(10):
        spec = random_spec(rng, 4, 3)
        rep = verify_theorem2(build_state(spec), CONFIG)
        worst_residual = max(worst_residual, abs(rep.report.residual))
        worst_term = max(worst_term, rep.max_higher_term)
    elapsed = time.time() - t0
    ok = worst_residual <= 1e-3 and worst_term <= 1e-3 and elapsed <= 1200.0
    _report(
        "criterion 6: strong-monogamy saturation (10 specs, n=4 d=3)",
        ok,
        elapsed,
        f"max |residual|={worst_residual:.2e} max 3-party term={worst_term:.2e}",
    )
    assert ok


def test_criterion_7_property_suites():
    t0 = time.time()
    failures = []

    # decomposition mixing rebuilds the state (1000 trials)
    rng = np.random.default_rng(SEED)
    worst_rebuild = 0.0
    for _ in range(1000):
        dims = [(2, 2), (2, 3), (3, 2)][int(rng.integers(3))]
        rank = int(rng.integers(1, 4))
        rho = random_mixed_state(rng, dims, rank=rank)
        size = len(rho.support[0]) + int(rng.integers(0, 3))
        rows = hjw_rows(rho, haar_unitary(size, rng))
        worst_rebuild = max(worst_rebuild, float(np.abs(rows.T @ rows.conj() - rho.matrix).max()))
    if worst_rebuild > 1e-10:
        failures.append(f"ensemble rebuild error {worst_rebuild:.2e}")

    # roof value never exceeds the eigendecomposition average
    for _ in range(20):
        rho = random_mixed_state(rng, (2, 2), rank=int(rng.integers(2, 4)))
        eigen_avg = member_average(rho.dims, lambda s: negativity_pure(s, PART2))(
            hjw_rows(rho, np.eye(len(rho.support[0])))
        ).sum()
        if cren(rho, PART2, CONFIG) > eigen_avg + 1e-9:
            failures.append("roof above eigendecomposition average")
            break

    # identical seeds reproduce the value exactly
    for _ in range(3):
        rho = random_rank2_two_qubit(rng)
        a = cren(rho, PART2, RoofConfig(starts=8, iters=600, seed=99))
        b = cren(rho, PART2, RoofConfig(starts=8, iters=600, seed=99))
        if abs(a - b) > 1e-15:
            failures.append(f"seed determinism broke: {abs(a - b):.2e}")
            break

    # decomposition independence of W-class pair reductions
    worst_spread = 0.0
    for _ in range(5):
        spec = random_spec(rng, 4, 3)
        for s in (1, 2, 3):
            rho = reduced_density(build_state(spec), (0, s))
            rank = len(rho.support[0])
            average = member_average(rho.dims, lambda st: negativity_pure(st, PART2))
            avgs = [average(hjw_rows(rho, haar_unitary(rank, rng))).sum() for _ in range(50)]
            worst_spread = max(worst_spread, max(avgs) - min(avgs))
    if worst_spread > 1e-8:
        failures.append(f"decomposition-independence spread {worst_spread:.2e}")

    # every decomposition member (each unit vector in the range of a reduced
    # state) stays in the W-plus-vacuum support
    worst_support = 0.0
    for _ in range(20):
        psi = build_state(random_spec(rng, 4, 3))
        for size in (2, 3):
            for rest in combinations(range(1, 4), size - 1):
                rep = verify_lemma1(psi, (0,) + rest)
                worst_support = max(worst_support, rep.max_violation)
    if worst_support > 1e-10:
        failures.append(f"support violation {worst_support:.2e}")

    elapsed = time.time() - t0
    ok = not failures and elapsed <= 600.0
    _report(
        "criterion 7: property suites",
        ok,
        elapsed,
        f"rebuild={worst_rebuild:.1e} spread={worst_spread:.1e} "
        f"support={worst_support:.1e}" + (f" failures={failures}" if failures else ""),
    )
    assert ok, failures


def test_criterion_8_verify_paper_cli():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "scren.cli", "verify", "paper", "--seed", "7"],
        capture_output=True,
        text=True,
    )
    elapsed = time.time() - t0
    report = json.loads(proc.stdout) if proc.stdout else {}
    names = [c["name"] for c in report.get("checks", [])]
    expected = [
        "counterexample_322_tangle",
        "counterexample_322_scren",
        "antisymmetric_333_scren",
        "two_qubit_oracle",
    ]
    ok = (
        proc.returncode == 0
        and names == expected
        and all(c["passed"] for c in report["checks"])
        and report["all_passed"] is True
    )
    _report(
        "criterion 8: verify paper --seed 7",
        ok,
        elapsed,
        f"exit={proc.returncode} checks={names}",
    )
    assert ok
