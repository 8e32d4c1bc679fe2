"""Bundled verification suites behind ``scren verify``.

The paper suite replays the built-in fixture values (the 3x2x2 tangle
violation and its SCREN repair, the antisymmetric qutrit values, and the
two-qubit closed-form oracle comparison).  The wclass suite draws random
W-plus-vacuum specs and runs the saturation and support checks on each.
Reports are plain dicts of JSON-safe values; with a fixed seed the whole
report is reproduced byte for byte.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from itertools import combinations

import numpy as np

from .monogamy import ANTISYMMETRIC_333, CKW_COUNTEREXAMPLE_322, ckw_report
from .roof import RoofConfig, scren2
from .states import Bipartition, DensityMatrix, haar_random_state
from .tangle import wootters_tangle
from .wclass import random_spec, verify_lemma1, verify_theorem1, verify_theorem2


def random_rank2_two_qubit(rng: np.random.Generator) -> DensityMatrix:
    """Mixture of two Haar-random two-qubit pure states at a generic weight."""
    psi = haar_random_state((2, 2), rng)
    phi = haar_random_state((2, 2), rng)
    w = float(rng.uniform(0.1, 0.9))
    mat = w * np.outer(psi.amplitudes, psi.amplitudes.conj())
    mat += (1.0 - w) * np.outer(phi.amplitudes, phi.amplitudes.conj())
    return DensityMatrix((2, 2), mat, validate=False)


def oracle_comparison(config: RoofConfig, trials: int = 50) -> dict:
    """Worst |scren2 - wootters_tangle| over random rank-2 states drawn from
    ``config.seed``."""
    rng = np.random.default_rng(config.seed)
    part = Bipartition((0,), 2)
    worst = 0.0
    errors = []
    for _ in range(trials):
        rho = random_rank2_two_qubit(rng)
        gap = abs(scren2(rho, part, config) - wootters_tangle(rho))
        errors.append(gap)
        worst = max(worst, gap)
    return {"trials": trials, "max_error": worst, "mean_error": float(np.mean(errors))}


def _close(value: float, target: float, atol: float) -> bool:
    return abs(value - target) <= atol


def paper_suite(config: RoofConfig | None = None, oracle_trials: int = 50) -> dict:
    """The four fixture checks, one entry per acceptance criterion 1-4."""
    config = config or RoofConfig(seed=7)
    checks = []

    # 1: tangle values of the 3x2x2 counterexample, including the violation
    rep = ckw_report(CKW_COUNTEREXAMPLE_322, focus=0, measure="tangle", config=config)
    one_ok = _close(rep.one_value, 4.0 / 3.0, 1e-9)
    pair_ok = all(_close(t.value, 8.0 / 9.0, 1e-3) for t in rep.terms)
    residual_ok = _close(rep.residual, -4.0 / 9.0, 2e-3)
    checks.append(
        {
            "name": "counterexample_322_tangle",
            "passed": bool(one_ok and pair_ok and residual_ok and not rep.satisfied),
            "details": rep.to_dict(),
        }
    )

    # 2: the same state under SCREN satisfies the pairwise inequality
    rep = ckw_report(CKW_COUNTEREXAMPLE_322, focus=0, measure="scren", config=config)
    one_ok = _close(rep.one_value, 4.0, 1e-9)
    pair_ok = all(_close(t.value, 8.0 / 9.0, 1e-3) for t in rep.terms)
    checks.append(
        {
            "name": "counterexample_322_scren",
            "passed": bool(one_ok and pair_ok and rep.satisfied),
            "details": rep.to_dict(),
        }
    )

    # 3: antisymmetric qutrit fixture
    rep = ckw_report(ANTISYMMETRIC_333, focus=0, measure="scren", config=config)
    one_ok = _close(rep.one_value, 4.0, 1e-9)
    pair_ok = all(_close(t.value, 1.0, 1e-3) for t in rep.terms)
    checks.append(
        {
            "name": "antisymmetric_333_scren",
            "passed": bool(one_ok and pair_ok and rep.satisfied),
            "details": rep.to_dict(),
        }
    )

    # 4: optimizer against the Wootters closed form
    cmp = oracle_comparison(config, trials=oracle_trials)
    checks.append(
        {
            "name": "two_qubit_oracle",
            "passed": bool(cmp["max_error"] <= 1e-4),
            "details": cmp,
        }
    )

    return {
        "suite": "paper",
        "seed": config.seed,
        "checks": checks,
        "all_passed": bool(all(c["passed"] for c in checks)),
    }


def _wclass_trial(task: tuple) -> dict:
    """One spec's theorem and lemma checks; top-level so a pool can run it."""
    t, spec, config = task
    thm1 = verify_theorem1(spec, config)
    thm2 = verify_theorem2(spec, config)
    n = spec.n
    lemma = [
        verify_lemma1(spec, (0,) + rest)
        for size in range(2, n)
        for rest in combinations(range(1, n), size - 1)
    ]
    return {
        "trial": t,
        "p": spec.p,
        "theorem1_passed": thm1.passed,
        "theorem1_max_error": max(max(thm1.pair_errors), thm1.sum_error),
        "theorem2_passed": thm2.passed,
        "theorem2_residual": thm2.residual,
        "theorem2_max_higher_term": thm2.max_higher_term,
        "lemma1_max_violation": max((rep.max_violation for rep in lemma), default=0.0),
        "lemma1_passed": all(rep.passed for rep in lemma),
    }


def wclass_suite(
    trials: int = 20,
    n: int = 4,
    d: int = 3,
    config: RoofConfig | None = None,
    workers: int = 1,
) -> dict:
    """Theorem and lemma checks on ``trials`` random W-plus-vacuum specs.

    Specs are drawn serially from ``config.seed``, then verified
    independently, so the report is identical for any worker count.
    """
    config = config or RoofConfig(seed=7)
    rng = np.random.default_rng(config.seed)
    tasks = [(t, random_spec(rng, n, d), config) for t in range(trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_wclass_trial, tasks))
    else:
        results = [_wclass_trial(task) for task in tasks]
    all_passed = all(
        r["theorem1_passed"] and r["theorem2_passed"] and r["lemma1_passed"] for r in results
    )
    return {
        "suite": "wclass",
        "seed": config.seed,
        "n": n,
        "d": d,
        "trials": trials,
        "results": results,
        "all_passed": bool(all_passed),
    }
