"""Command-line interface.

Subcommands
-----------
compute  one measure of one state file, JSON result on stdout
verify   bundled suites: ``paper`` (fixture values) or ``wclass`` (theorems)
hunt     sample random states and report strong-monogamy residuals

Exit codes: 0 ok, 1 verification failure, 2 input error, 3 cost guard,
4 conjecture violation (offending state dumped to stderr as JSON).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .guards import CostGuardError, check_cost
from .monogamy import (
    ANTISYMMETRIC_333,
    CKW_COUNTEREXAMPLE_322,
    _check_measure,
    n_tangle_pure,
    sm_report,
)
from .negativity import negativity_mixed, negativity_pure
from .roof import ConjectureViolation, RoofConfig, cren, scren2
from .states import (
    Bipartition,
    PureState,
    haar_random_state,
    load_state,
    partial_trace,
    reduced_density,
    state_to_dict,
    to_density,
)
from .suites import paper_suite, wclass_suite
from .tangle import one_tangle, two_tangle

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_COST_GUARD = 3
EXIT_CONJECTURE = 4

HUNT_FLAG_THRESHOLD = -1e-4

COMPUTE_MEASURES = ("negativity", "cren", "scren", "tangle", "ntangle", "nscren")


class InputError(Exception):
    pass


def _add_optimizer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--starts", type=int, default=16, help="optimizer multi-starts")
    parser.add_argument("--iters", type=int, default=2000, help="evaluation budget per start")
    parser.add_argument("--ensemble-size", type=int, default=None,
                        help="decomposition size L (default: rank of the state)")
    parser.add_argument("--tol", type=float, default=1e-6, help="convergence tolerance")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")


def _config_from(args: argparse.Namespace) -> RoofConfig:
    return RoofConfig(
        starts=args.starts,
        iters=args.iters,
        ensemble_size=args.ensemble_size,
        tol=args.tol,
        seed=args.seed,
    )


def _parse_indices(text: str | None, what: str) -> list[int] | None:
    if text is None:
        return None
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InputError(f"{what} must be a comma-separated list of integers") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scren",
        description="Negativity-based entanglement measures and monogamy checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute one measure of a state file")
    p_compute.add_argument("measure", choices=COMPUTE_MEASURES)
    p_compute.add_argument("--state", required=True, help="path to a JSON state file")
    p_compute.add_argument("--cut", default=None,
                           help="side-A subsystem indices of the bipartition, e.g. 0 or 0,2")
    p_compute.add_argument("--focus", type=int, default=None,
                           help="focus party for the recursive measures")
    p_compute.add_argument("--trace-out", default=None,
                           help="subsystems to trace out before measuring")
    p_compute.add_argument("--out", default=None, help="write the JSON result here")
    _add_optimizer_flags(p_compute)

    p_verify = sub.add_parser("verify", help="run a bundled verification suite")
    p_verify.add_argument("suite", choices=("paper", "wclass"))
    p_verify.add_argument("--trials", type=int, default=None,
                          help="paper: oracle comparison count (default 50); "
                               "wclass: number of random specs (default 20)")
    p_verify.add_argument("--n", type=int, default=4, help="wclass party count")
    p_verify.add_argument("--d", type=int, default=3, help="wclass local dimension")
    p_verify.add_argument("--workers", type=int, default=1,
                          help="worker pool size for wclass trials")
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    _add_optimizer_flags(p_verify)

    p_hunt = sub.add_parser("hunt", help="scan random states for SM-inequality violations")
    p_hunt.add_argument("--dims", required=True, help="local dimensions, e.g. 3,2,2")
    p_hunt.add_argument("--samples", type=int, default=100)
    p_hunt.add_argument("--measure", choices=("scren", "tangle"), default="scren")
    p_hunt.add_argument("--csv", action="store_true", help="tabular output instead of JSON")
    p_hunt.add_argument("--out", default=None, help="write the report here")
    p_hunt.add_argument("--workers", type=int, default=1, help="worker pool size")
    _add_optimizer_flags(p_hunt)

    return parser


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _apply_trace_out(state, trace_out: list[int] | None):
    """Trace out the listed original indices; returns (state, kept original indices)."""
    n = state.n_parties
    original = list(range(n))
    if not trace_out:
        return state, original
    traced = set(trace_out)
    if not traced.issubset(set(original)):
        raise InputError(f"--trace-out indices {sorted(traced)} out of range for {n} parties")
    kept = [i for i in original if i not in traced]
    if not kept:
        raise InputError("--trace-out would remove every subsystem")
    if isinstance(state, PureState):
        return reduced_density(state, kept), kept
    return partial_trace(state, kept), kept


def _map_index(original_index: int, kept: list[int], what: str) -> int:
    if original_index not in kept:
        raise InputError(f"{what} index {original_index} was traced out or is out of range")
    return kept.index(original_index)


def _cut_from(args, kept: list[int], n_parties: int) -> Bipartition:
    cut = _parse_indices(args.cut, "--cut")
    if not cut:
        raise InputError(f"'{args.measure}' needs --cut")
    mapped = [_map_index(i, kept, "--cut") for i in cut]
    try:
        return Bipartition(tuple(mapped), n_parties)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _run_compute(args) -> dict:
    config = _config_from(args)
    try:
        state = load_state(args.state)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load state file: {exc}") from exc

    trace_out = _parse_indices(args.trace_out, "--trace-out")
    state, kept = _apply_trace_out(state, trace_out)
    n = state.n_parties
    diagnostics: dict = {}

    measure = args.measure
    if measure == "negativity":
        part = _cut_from(args, kept, n)
        if isinstance(state, PureState):
            value = negativity_pure(state, part)
        else:
            value = negativity_mixed(state, part)
    elif measure in ("cren", "scren"):
        part = _cut_from(args, kept, n)
        rho = to_density(state) if isinstance(state, PureState) else state
        fn = cren if measure == "cren" else scren2
        value, result = fn(rho, part, config, full_output=True)
        diagnostics = {"converged": result.converged, "starts": result.starts}
    elif measure == "tangle":
        if isinstance(state, PureState):
            part = _cut_from(args, kept, n)
            value = one_tangle(state, part)
        else:
            if n != 2:
                raise InputError("mixed-state tangle needs a bipartite state "
                                 "(use --trace-out to reduce first)")
            value, result = two_tangle(state, config, full_output=True)
            diagnostics = {"converged": result.converged, "starts": result.starts}
    elif measure in ("ntangle", "nscren"):
        if not isinstance(state, PureState):
            raise InputError(f"'{measure}' is defined for pure states")
        focus = args.focus if args.focus is not None else kept[0]
        focus = _map_index(focus, kept, "--focus")
        check_cost(state.dims)
        if measure == "ntangle":
            value = n_tangle_pure(state, focus=focus, config=config)
        else:
            report = sm_report(state, focus=focus, measure="scren", config=config)
            value = report.residual
            diagnostics = {"report": report.to_dict()}
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown measure {measure!r}")

    out = {
        "command": "compute",
        "measure": measure,
        "state": args.state,
        "value": float(value),
        "config": dataclasses.asdict(config),
    }
    if args.cut is not None:
        out["cut"] = _parse_indices(args.cut, "--cut")
    if args.focus is not None:
        out["focus"] = args.focus
    if trace_out:
        out["trace_out"] = trace_out
    if diagnostics:
        out["diagnostics"] = diagnostics
    return out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _run_verify(args) -> tuple[dict, bool]:
    if args.trials is not None and args.trials < 1:
        raise InputError(f"--trials must be at least 1, got {args.trials}")
    if args.suite == "paper":
        trials = args.trials if args.trials is not None else 50
        report = paper_suite(seed=args.seed, oracle_trials=trials)
    else:
        trials = args.trials if args.trials is not None else 20
        check_cost((args.d,) * args.n)
        report = wclass_suite(
            seed=args.seed,
            trials=trials,
            n=args.n,
            d=args.d,
            config=_config_from(args),
            workers=args.workers,
        )
    return report, bool(report["all_passed"])


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------

def _hunt_one(task: tuple) -> dict:
    """Residual of one sample; top-level so a process pool can run it."""
    dims, label, sample_seed, measure, config, amplitudes = task
    if amplitudes is not None:
        psi = PureState(tuple(dims), np.asarray(amplitudes))
    else:
        rng = np.random.default_rng(np.random.SeedSequence(sample_seed))
        psi = haar_random_state(dims, rng)
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
    if record.get("residual") is not None and record["residual"] < HUNT_FLAG_THRESHOLD:
        record["state"] = state_to_dict(psi)
    return record


def _fixtures_for(dims: tuple[int, ...]) -> list[tuple[str, PureState]]:
    out = []
    if dims == CKW_COUNTEREXAMPLE_322.dims:
        out.append(("fixture_322", CKW_COUNTEREXAMPLE_322))
    if dims == ANTISYMMETRIC_333.dims:
        out.append(("fixture_333", ANTISYMMETRIC_333))
    return out


def _run_hunt(args) -> dict:
    dims = _parse_indices(args.dims, "--dims")
    if not dims or any(d < 2 for d in dims):
        raise InputError("--dims needs local dimensions >= 2, e.g. 3,2,2")
    dims = tuple(dims)
    check_cost(dims)
    _check_measure(dims, args.measure)
    config = _config_from(args)

    tasks = []
    for label, fixture in _fixtures_for(dims):
        tasks.append((dims, label, 0, args.measure, config, fixture.amplitudes.tolist()))
    for i in range(args.samples):
        tasks.append((dims, f"sample_{i:04d}", (args.seed, i), args.measure, config, None))

    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            records = list(pool.map(_hunt_one, tasks))
    else:
        records = [_hunt_one(t) for t in tasks]

    residuals = [r["residual"] for r in records if r["residual"] is not None]
    candidates = [
        r
        for r in records
        if ("conjecture_violation" in r)
        or (r["residual"] is not None and r["residual"] < HUNT_FLAG_THRESHOLD)
    ]
    return {
        "command": "hunt",
        "dims": list(dims),
        "samples": args.samples,
        "seed": args.seed,
        "measure": args.measure,
        "min_residual": min(residuals) if residuals else None,
        "results": records,
        "candidates": candidates,
        "config": dataclasses.asdict(config),
    }


def _hunt_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "label", "residual", "satisfied"])
    for i, rec in enumerate(report["results"]):
        writer.writerow([i, rec["label"], rec["residual"], rec["satisfied"]])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            report = _run_compute(args)
            _emit(json.dumps(report, indent=2), args.out)
            return EXIT_OK
        if args.command == "verify":
            report, passed = _run_verify(args)
            _emit(json.dumps(report, indent=2), args.out)
            return EXIT_OK if passed else EXIT_VERIFY_FAILED
        if args.command == "hunt":
            report = _run_hunt(args)
            text = _hunt_csv(report) if args.csv else json.dumps(report, indent=2)
            _emit(text, args.out)
            return EXIT_OK
        parser.error(f"unknown command {args.command!r}")
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CostGuardError as exc:
        print(f"cost guard: {exc}", file=sys.stderr)
        return EXIT_COST_GUARD
    except ConjectureViolation as exc:
        dump = {
            "error": "conjecture_violation",
            "value": exc.value,
            "state": state_to_dict(exc.state),
        }
        print(json.dumps(dump), file=sys.stderr)
        return EXIT_CONJECTURE
    return EXIT_OK


def entrypoint() -> None:  # console script wrapper
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
