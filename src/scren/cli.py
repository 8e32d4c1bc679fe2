"""Command-line interface: argument parsing, input checks, output and exit
codes.  The batch runs themselves live in :mod:`scren.suites`.

Subcommands
-----------
compute  one measure of one state file, JSON result on stdout
verify   bundled suites: ``paper`` (fixture values) or ``wclass`` (theorems),
         each with its own flags after the suite name
hunt     sample random states and report strong-monogamy residuals

Every subcommand takes ``--out``, ``--starts``, ``--iters`` and ``--seed``.

Exit codes: 0 ok, 1 verification failure, 2 input error (an unwritable
``--out`` too), 3 cost guard, 4 conjecture violation (offending state dumped
to stderr as JSON, from a worker pool too).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from .guards import CostGuardError, check_cost
from .monogamy import MEASURES, _check_measure, n_tangle_pure, sm_report
from .negativity import negativity_mixed, negativity_pure
from .roof import ConjectureViolation, RoofConfig, cren, scren2
from .states import (
    Bipartition,
    PureState,
    load_state,
    partial_trace,
    reduced_density,
    state_to_dict,
    to_density,
)
from .suites import hunt_suite, paper_suite, wclass_suite
from .tangle import one_tangle, two_tangle

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_COST_GUARD = 3
EXIT_CONJECTURE = 4

COMPUTE_MEASURES = ("negativity", "cren", "scren", "tangle", "ntangle", "nscren")


def _config_from(args: argparse.Namespace) -> RoofConfig:
    return RoofConfig(starts=args.starts, iters=args.iters, seed=args.seed)


def _parse_indices(text: str | None, what: str) -> list[int] | None:
    if text is None:
        return None
    fields = text.split(",")
    if any(tok.strip() == "" for tok in fields):
        raise ValueError(f"{what} has an empty field in {text!r}")
    try:
        return [int(tok) for tok in fields]
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated list of integers") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scren",
        description="Negativity-based entanglement measures and monogamy checks",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=None, help="write the result here")
    shared.add_argument("--starts", type=int, default=RoofConfig.starts,
                        help="optimizer multi-starts (a rank-2 qubit-qudit pair runs "
                             "one start from a chord scan instead)")
    shared.add_argument("--iters", type=int, default=RoofConfig.iters,
                        help="evaluation budget per start")
    shared.add_argument("--seed", type=int, default=RoofConfig.seed,
                        help="non-negative master random seed (a rank-2 qubit-qudit "
                             "pair roof does not use it)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", parents=[shared],
                               help="compute one measure of a state file")
    p_compute.add_argument("measure", choices=COMPUTE_MEASURES)
    p_compute.add_argument("--state", required=True, help="path to a JSON state file")
    p_compute.add_argument("--cut", default=None,
                           help="side-A subsystem indices of the bipartition, e.g. 0 or 0,2")
    p_compute.add_argument("--focus", type=int, default=None,
                           help="focus party for the recursive measures")
    p_compute.add_argument("--trace-out", default=None,
                           help="subsystems to trace out before measuring")

    p_verify = sub.add_parser("verify", help="run a bundled verification suite")
    suites = p_verify.add_subparsers(dest="suite", required=True)
    p_paper = suites.add_parser("paper", parents=[shared],
                                help="fixture values and the two-qubit oracle")
    p_paper.add_argument("--trials", type=int, default=50, help="oracle comparison count")
    p_wclass = suites.add_parser("wclass", parents=[shared],
                                 help="Lemma 1 and Theorems 1-2 on W-class states")
    p_wclass.add_argument("--trials", type=int, default=20, help="number of random specs")
    p_wclass.add_argument("--n", type=int, default=4, help="party count")
    p_wclass.add_argument("--d", type=int, default=3, help="local dimension")
    p_wclass.add_argument("--workers", type=int, default=1, help="worker pool size")

    p_hunt = sub.add_parser("hunt", parents=[shared],
                            help="scan random states for SM-inequality violations")
    p_hunt.add_argument("--dims", required=True, help="local dimensions, e.g. 3,2,2")
    p_hunt.add_argument("--samples", type=int, default=100)
    p_hunt.add_argument("--measure", choices=MEASURES, default="scren")
    p_hunt.add_argument("--csv", action="store_true", help="tabular output instead of JSON")
    p_hunt.add_argument("--workers", type=int, default=1, help="worker pool size")

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
        raise ValueError(f"--trace-out indices {sorted(traced)} out of range for {n} parties")
    kept = [i for i in original if i not in traced]
    if not kept:
        raise ValueError("--trace-out would remove every subsystem")
    if isinstance(state, PureState):
        return reduced_density(state, kept), kept
    return partial_trace(state, kept), kept


def _map_index(original_index: int, kept: list[int], what: str) -> int:
    if original_index not in kept:
        raise ValueError(f"{what} index {original_index} was traced out or is out of range")
    return kept.index(original_index)


def _cut_from(args, kept: list[int], n_parties: int) -> Bipartition:
    cut = _parse_indices(args.cut, "--cut")
    if not cut:
        raise ValueError(f"'{args.measure}' needs --cut")
    return Bipartition(tuple(_map_index(i, kept, "--cut") for i in cut), n_parties)


def _run_compute(args) -> dict:
    config = _config_from(args)
    try:
        state = load_state(args.state)
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"cannot load state file: {exc}") from exc

    trace_out = _parse_indices(args.trace_out, "--trace-out")
    state, kept = _apply_trace_out(state, trace_out)
    n = state.n_parties
    diagnostics: dict = {}

    measure = args.measure
    reads_cut = measure in ("negativity", "cren", "scren") or (
        measure == "tangle" and isinstance(state, PureState)
    )
    if args.cut is not None and not reads_cut:
        kind = "mixed-state " if measure == "tangle" else ""
        raise ValueError(f"{kind}'{measure}' does not read --cut")
    if args.focus is not None and measure not in ("ntangle", "nscren"):
        raise ValueError(f"'{measure}' does not read --focus")
    part = _cut_from(args, kept, n) if reads_cut else None
    if measure == "negativity":
        if isinstance(state, PureState):
            value = negativity_pure(state, part)
        else:
            value = negativity_mixed(state, part)
    elif measure in ("cren", "scren"):
        rho = to_density(state) if isinstance(state, PureState) else state
        fn = cren if measure == "cren" else scren2
        value, result = fn(rho, part, config, full_output=True)
        diagnostics = {"converged": result.converged, "starts": result.starts}
    elif measure == "tangle":
        if isinstance(state, PureState):
            value = one_tangle(state, part)
        else:
            if n != 2:
                raise ValueError("mixed-state tangle needs a bipartite state "
                                 "(use --trace-out to reduce first)")
            value, result = two_tangle(state, config, full_output=True)
            diagnostics = {"converged": result.converged, "starts": result.starts}
    else:  # ntangle or nscren
        if not isinstance(state, PureState):
            raise ValueError(f"'{measure}' is defined for pure states")
        focus = args.focus if args.focus is not None else kept[0]
        focus = _map_index(focus, kept, "--focus")
        if measure == "ntangle":
            value = n_tangle_pure(state, focus=focus, config=config)
        else:
            report = sm_report(state, focus=focus, measure="scren", config=config)
            value = report.residual
            diagnostics = {"report": report.to_dict()}

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

def _check_at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")


def _run_verify(args) -> tuple[dict, bool]:
    _check_at_least_one("--trials", args.trials)
    if args.suite == "wclass":
        _check_at_least_one("--workers", args.workers)
    config = _config_from(args)
    if args.suite == "paper":
        report = paper_suite(config=config, oracle_trials=args.trials)
    else:
        if args.n < 3:
            # a two-party SM report has no terms, so Theorem 2 cannot saturate
            raise ValueError(f"verify wclass needs --n >= 3, got {args.n}")
        if args.d < 2:
            raise ValueError(f"verify wclass needs --d >= 2, got {args.d}")
        check_cost((args.d,) * args.n)
        report = wclass_suite(args.trials, args.n, args.d, config, args.workers)
    return report, bool(report["all_passed"])


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------

def _run_hunt(args) -> dict:
    dims = _parse_indices(args.dims, "--dims")
    if not dims or any(d < 2 for d in dims):
        raise ValueError("--dims needs local dimensions >= 2, e.g. 3,2,2")
    if len(dims) < 2:
        raise ValueError(f"--dims needs at least two parties, e.g. 3,2,2, got {len(dims)}")
    dims = tuple(dims)
    check_cost(dims)
    _check_measure(dims, args.measure)
    _check_at_least_one("--samples", args.samples)
    _check_at_least_one("--workers", args.workers)
    config = _config_from(args)
    report = hunt_suite(dims, args.samples, args.measure, config, args.workers)
    return {"command": "hunt", **report, "config": dataclasses.asdict(config)}


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
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compute":
            report = _run_compute(args)
            _emit(json.dumps(report, indent=2), args.out)
            return EXIT_OK
        if args.command == "verify":
            report, passed = _run_verify(args)
            _emit(json.dumps(report, indent=2), args.out)
            return EXIT_OK if passed else EXIT_VERIFY_FAILED
        # argparse requires a subcommand, so this one is hunt
        report = _run_hunt(args)
        text = _hunt_csv(report) if args.csv else json.dumps(report, indent=2)
        _emit(text, args.out)
        return EXIT_OK
    except ValueError as exc:
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


if __name__ == "__main__":
    sys.exit(main())
