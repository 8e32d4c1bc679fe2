"""Bundled batch runs behind ``scren verify`` and ``scren hunt``.

Three suites: the paper suite replays the built-in fixture values (the 3x2x2
tangle violation and its SCREN repair, the antisymmetric qutrit values, and
the two-qubit closed-form oracle comparison); the wclass suite draws random
W-plus-vacuum specs and runs the saturation and support checks on each; the
hunt suite scans random pure states for strong-monogamy violations.

The batched suites draw their frozen tasks serially from the seed and map
them through one pool path, so their report is the same for any worker
count.  Reports are plain dicts of JSON-safe values; with a fixed seed the
whole report is reproduced byte for byte.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from .monogamy import ANTISYMMETRIC_333, CKW_COUNTEREXAMPLE_322, ckw_report, sm_report
from .roof import ConjectureViolation, RoofConfig, scren2
from .states import Bipartition, DensityMatrix, PureState, haar_random_state, state_to_dict
from .tangle import wootters_tangle
from .wclass import (
    WClassSpec,
    build_state,
    random_spec,
    verify_lemma1,
    verify_theorem1,
    verify_theorem2,
)

HUNT_FLAG_THRESHOLD = -1e-4

HUNT_FIXTURES = (("fixture_322", CKW_COUNTEREXAMPLE_322), ("fixture_333", ANTISYMMETRIC_333))

# (name, state, measure, one value, pair value, residual, satisfied) with
# party 1 in focus; one value to 1e-9, each pair to 1e-3, residual to 2e-3
FIXTURE_CHECKS = (
    ("counterexample_322_tangle", CKW_COUNTEREXAMPLE_322, "tangle",
     4.0 / 3.0, 8.0 / 9.0, -4.0 / 9.0, False),
    ("counterexample_322_scren", CKW_COUNTEREXAMPLE_322, "scren", 4.0, 8.0 / 9.0, 20.0 / 9.0, True),
    ("antisymmetric_333_scren", ANTISYMMETRIC_333, "scren", 4.0, 1.0, 2.0, True),
)


def _pool_map(fn, tasks: list, workers: int) -> list:
    """``[fn(t) for t in tasks]``, on a pool of ``min(workers, len(tasks))``
    processes when that is more than one.  A pool can start every worker it
    may use at its first task, so it is never made larger than the task list.
    """
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def random_rank2_two_qubit(rng: np.random.Generator) -> DensityMatrix:
    """Mixture of two Haar-random two-qubit pure states at a generic weight."""
    psi = haar_random_state((2, 2), rng)
    phi = haar_random_state((2, 2), rng)
    w = float(rng.uniform(0.1, 0.9))
    mat = w * np.outer(psi.amplitudes, psi.amplitudes.conj())
    mat += (1.0 - w) * np.outer(phi.amplitudes, phi.amplitudes.conj())
    return DensityMatrix((2, 2), mat, validate=False)


def oracle_comparison(config: RoofConfig, trials: int) -> dict:
    """Worst |scren2 - wootters_tangle| over random rank-2 states drawn from
    ``config.seed``."""
    rng = np.random.default_rng(config.seed)
    part = Bipartition((0,), 2)
    errors = []
    for _ in range(trials):
        rho = random_rank2_two_qubit(rng)
        errors.append(abs(scren2(rho, part, config) - wootters_tangle(rho)))
    return {"trials": trials, "max_error": max(errors), "mean_error": float(np.mean(errors))}


def _close(value: float, target: float, atol: float) -> bool:
    return abs(value - target) <= atol


def paper_suite(config: RoofConfig, oracle_trials: int) -> dict:
    """The four fixture checks, one entry per acceptance criterion 1-4."""
    checks = []
    for name, state, measure, one, pair, residual, satisfied in FIXTURE_CHECKS:
        rep = ckw_report(state, focus=0, measure=measure, config=config)
        passed = (
            _close(rep.one_value, one, 1e-9)
            and all(_close(t.value, pair, 1e-3) for t in rep.terms)
            and _close(rep.residual, residual, 2e-3)
            and rep.satisfied == satisfied
        )
        checks.append({"name": name, "passed": bool(passed), "details": rep.to_dict()})

    # optimizer against the Wootters closed form
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


def _wclass_trial(task: tuple[int, WClassSpec], config: RoofConfig) -> dict:
    """One spec's theorem checks, and Lemma 1 on each reduced state its SM
    report measured; top-level so a pool can run it.  The state is built
    once for all of them, and Theorem 1 reads the one value and pair terms
    of that same report."""
    t, spec = task
    psi = build_state(spec)
    thm2 = verify_theorem2(psi, config)
    thm1 = verify_theorem1(spec, thm2.report)
    lemma = [
        verify_lemma1(psi, (0,) + tuple(j - 1 for j in term.subset))
        for term in thm2.report.terms
    ]
    return {
        "trial": t,
        "p": spec.p,
        "theorem1_passed": thm1.passed,
        "theorem1_max_error": max(max(thm1.pair_errors), thm1.sum_error),
        "theorem2_passed": thm2.passed,
        "theorem2_residual": thm2.report.residual,
        "theorem2_max_higher_term": thm2.max_higher_term,
        "lemma1_max_violation": max((rep.max_violation for rep in lemma), default=0.0),
        "lemma1_passed": all(rep.passed for rep in lemma),
    }


def wclass_suite(
    trials: int,
    n: int,
    d: int,
    config: RoofConfig,
    workers: int,
) -> dict:
    """Theorem and lemma checks on ``trials`` random W-plus-vacuum specs."""
    rng = np.random.default_rng(config.seed)
    tasks = [(t, random_spec(rng, n, d)) for t in range(trials)]
    results = _pool_map(partial(_wclass_trial, config=config), tasks, workers)
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


def _hunt_one(task: tuple[str, PureState], measure: str, config: RoofConfig) -> dict:
    """SM residual of one labelled state; a residual below
    ``HUNT_FLAG_THRESHOLD`` flags the record with the state's dump."""
    label, psi = task
    record: dict = {"label": label}
    try:
        report = sm_report(psi, focus=0, measure=measure, config=config)
        record["residual"] = report.residual
        record["satisfied"] = report.satisfied
    except ConjectureViolation as exc:
        record["residual"] = None
        record["satisfied"] = False
        record["conjecture_violation"] = {
            "value": exc.value,
            "state": state_to_dict(exc.state),
        }
    if record["residual"] is not None and record["residual"] < HUNT_FLAG_THRESHOLD:
        record["state"] = state_to_dict(psi)
    return record


def hunt_suite(
    dims: tuple[int, ...],
    samples: int,
    measure: str,
    config: RoofConfig,
    workers: int,
) -> dict:
    """SM residuals of the built-in fixtures of shape ``dims``, then of
    ``samples`` Haar-random states; sample i is drawn from
    ``SeedSequence((config.seed, i))``.  ``dims`` may be any sequence of
    ints; it is made a tuple of ints before the fixtures are matched."""
    dims = tuple(int(d) for d in dims)
    tasks = [(label, psi) for label, psi in HUNT_FIXTURES if psi.dims == dims]
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, i)))
        tasks.append((f"sample_{i:04d}", haar_random_state(dims, rng)))
    records = _pool_map(partial(_hunt_one, measure=measure, config=config), tasks, workers)
    residuals = [r["residual"] for r in records if r["residual"] is not None]
    return {
        "dims": list(dims),
        "samples": samples,
        "seed": config.seed,
        "measure": measure,
        "min_residual": min(residuals) if residuals else None,
        "results": records,
        "candidates": [r for r in records if "state" in r or "conjecture_violation" in r],
    }
