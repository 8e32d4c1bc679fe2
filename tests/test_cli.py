"""Command-line surface: subcommands, exit codes, determinism."""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scren
from scren import (
    DensityMatrix,
    RoofConfig,
    bell_state,
    dump_state,
    ghz_state,
    haar_random_state,
    to_density,
)
from scren.cli import (
    EXIT_CONJECTURE,
    EXIT_COST_GUARD,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    main,
)
from scren.monogamy import CKW_COUNTEREXAMPLE_322
from scren.roof import ConjectureViolation
from scren.states import state_to_dict
from scren.suites import FIXTURE_CHECKS, hunt_suite, random_rank2_two_qubit


@pytest.fixture()
def state_files(tmp_path):
    paths = {}
    for name, psi in {
        "bell": bell_state(),
        "ghz3": ghz_state(3),
        "eq24": CKW_COUNTEREXAMPLE_322,
        "big": haar_random_state((2,) * 6, np.random.default_rng(0)),
        "mixed2": DensityMatrix((2, 2), np.eye(4) / 4),
        "mixed3": to_density(ghz_state(3)),
    }.items():
        paths[name] = str(tmp_path / f"{name}.json")
        dump_state(psi, paths[name])
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_negativity_bell(capsys, state_files):
    code, out, _ = run_cli(capsys, "compute", "negativity", "--state", state_files["bell"], "--cut", "0")
    assert code == EXIT_OK
    report = json.loads(out)
    assert abs(report["value"] - 1.0) <= 1e-9
    assert list(report["config"]) == ["starts", "iters", "seed"]
    assert report["config"]["seed"] == 0


def test_compute_scren_with_trace_out(capsys, state_files):
    code, out, _ = run_cli(
        capsys, "compute", "scren", "--state", state_files["eq24"],
        "--cut", "0", "--trace-out", "2", "--seed", "7",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert abs(report["value"] - 8 / 9) <= 1e-3
    assert report["trace_out"] == [2]


def test_compute_nscren_ghz3(capsys, state_files):
    code, out, _ = run_cli(
        capsys, "compute", "nscren", "--state", state_files["ghz3"], "--focus", "0", "--seed", "7",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert abs(report["value"] - 1.0) <= 1e-6
    assert report["diagnostics"]["report"]["satisfied"] is True


def test_compute_tangle_pure_and_mixed(capsys, state_files):
    code, out, _ = run_cli(capsys, "compute", "tangle", "--state", state_files["eq24"], "--cut", "0")
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] - 4 / 3) <= 1e-9

    code, out, _ = run_cli(
        capsys, "compute", "tangle", "--state", state_files["eq24"], "--trace-out", "2", "--seed", "7",
    )
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] - 8 / 9) <= 1e-3


def test_compute_ntangle_counterexample_322(capsys, state_files):
    # the paper's tangle counterexample: residual 4/3 - 2 * 8/9
    code, out, _ = run_cli(
        capsys, "compute", "ntangle", "--state", state_files["eq24"], "--focus", "0", "--seed", "7",
    )
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] + 4 / 9) <= 1e-3


def test_compute_cren_equals_negativity_for_pure(capsys, state_files):
    code, out, _ = run_cli(capsys, "compute", "cren", "--state", state_files["bell"], "--cut", "0")
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] - 1.0) <= 1e-9


def test_compute_on_density_matrix_file(capsys, tmp_path):
    # Werner state at p = 0.9: negativity (3p-1)/2, tangle ((3p-1)/2)^2
    phi = bell_state()
    mat = 0.9 * np.outer(phi.amplitudes, phi.amplitudes.conj()) + 0.1 * np.eye(4) / 4
    path = str(tmp_path / "werner.json")
    dump_state(DensityMatrix((2, 2), mat), path)

    code, out, _ = run_cli(capsys, "compute", "negativity", "--state", path, "--cut", "0")
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] - 0.85) <= 1e-9

    code, out, _ = run_cli(capsys, "compute", "tangle", "--state", path, "--seed", "7")
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] - 0.7225) <= 1e-3

    code, out, _ = run_cli(capsys, "compute", "cren", "--state", path, "--cut", "0", "--seed", "7")
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] - 0.85) <= 1e-3


@pytest.mark.parametrize("measure", ["negativity", "cren", "scren"])
def test_compute_trace_out_of_a_density_file_matches_the_pure_file(capsys, tmp_path, measure):
    # the density file is reduced by partial_trace, the pure file by reduced_density
    psi = haar_random_state((2, 2, 3), np.random.default_rng(4))
    values = []
    for name, state in (("pure", psi), ("density", to_density(psi))):
        path = str(tmp_path / f"{name}.json")
        dump_state(state, path)
        code, out, _ = run_cli(
            capsys, "compute", measure, "--state", path, "--trace-out", "2", "--cut", "0",
        )
        assert code == EXIT_OK
        values.append(json.loads(out)["value"])
    assert abs(values[0] - values[1]) <= 1e-12


@pytest.mark.parametrize(
    "measure, state, flags, flag",
    [
        ("tangle", "mixed2", ["--cut", "5"], "--cut"),
        ("negativity", "ghz3", ["--cut", "0", "--trace-out", "1", "--focus", "1"], "--focus"),
        ("nscren", "ghz3", ["--cut", "7"], "--cut"),
    ],
    ids=["tangle-mixed-cut", "negativity-focus", "nscren-cut"],
)
def test_compute_rejects_flags_its_measure_does_not_read(capsys, state_files, measure, state, flags, flag):
    code, out, err = run_cli(capsys, "compute", measure, "--state", state_files[state], *flags)
    assert code == EXIT_INPUT
    assert out == ""
    assert flag in err


def test_compute_writes_out_file(capsys, state_files, tmp_path):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "compute", "negativity", "--state", state_files["bell"],
        "--cut", "0", "--out", str(out_path),
    )
    assert code == EXIT_OK and out == ""
    assert abs(json.loads(out_path.read_text())["value"] - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# error exits
# ---------------------------------------------------------------------------

def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "compute", "negativity", "--state", "/no/such.json", "--cut", "0")
    assert code == EXIT_INPUT
    assert "cannot load" in err


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "compute", "negativity", "--state", str(bad), "--cut", "0")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("key", ["amplitudes", "matrix"])
def test_nan_state_file_exits_2(capsys, tmp_path, key):
    if key == "amplitudes":
        values = np.array([np.nan, 0, 0, 1], dtype=complex)
    else:
        values = np.eye(4, dtype=complex) / 4
        values[0, 1] = values[1, 0] = np.nan
    pairs = np.stack([values.real, values.imag], axis=-1).tolist()
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"dims": [2, 2], key: pairs}))
    code, _, err = run_cli(capsys, "compute", "negativity", "--state", str(bad), "--cut", "0")
    assert code == EXIT_INPUT
    assert "cannot load state file" in err


BELL_PAIRS = [[2**-0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [2**-0.5, 0.0]]


@pytest.mark.parametrize(
    "body",
    [
        5,
        "amplitudes",
        {"dims": 3, "amplitudes": BELL_PAIRS},
        {"dims": [2.9, 2.2], "amplitudes": BELL_PAIRS},
        {"dims": [2.9, 2.2], "matrix": np.stack([np.eye(4) / 4, np.zeros((4, 4))], axis=-1).tolist()},
        {"dims": [2, 2], "amplitudes": {"re": 1}},
    ],
    ids=["number", "string", "scalar-dims", "float-dims", "float-dims-matrix", "object-amplitudes"],
)
def test_malformed_state_file_exits_2(capsys, tmp_path, body):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(body))
    code, _, err = run_cli(capsys, "compute", "negativity", "--state", str(bad), "--cut", "0")
    assert code == EXIT_INPUT
    assert "cannot load state file" in err


@pytest.mark.parametrize("flag, value", [("--iters", "0"), ("--starts", "-2")])
def test_compute_rejects_budgets_below_one(capsys, tmp_path, flag, value):
    path = tmp_path / "pair.json"
    dump_state(random_rank2_two_qubit(np.random.default_rng(3)), path)
    code, out, err = run_cli(capsys, "compute", "scren", "--state", str(path), "--cut", "0", flag, value)
    assert code == EXIT_INPUT
    assert out == ""
    assert "at least 1" in err


@pytest.mark.parametrize("command", [
    ["compute", "negativity", "--cut", "0"],
    ["verify", "wclass", "--n", "3", "--trials", "1"],
    ["hunt", "--dims", "2,2,2", "--samples", "1"],
])
def test_negative_seed_is_an_input_error(capsys, state_files, command):
    if command[0] == "compute":
        command = command + ["--state", state_files["bell"]]
    code, out, err = run_cli(capsys, *command, "--seed", "-1")
    assert code == EXIT_INPUT
    assert out == ""
    assert "seed" in err


@pytest.mark.parametrize("command, flag", [
    pytest.param(["compute", "scren", "--cut", "0"], ["--tol", "1e-6"], id="compute-tol"),
    pytest.param(["compute", "scren", "--cut", "0"], ["--ensemble-size", "2"],
                 id="compute-ensemble-size"),
    pytest.param(["verify", "wclass", "--n", "3", "--trials", "1"], ["--ensemble-size", "2"],
                 id="verify-ensemble-size"),
    pytest.param(["hunt", "--dims", "2,2,2", "--samples", "1"], ["--ensemble-size", "2"],
                 id="hunt-ensemble-size"),
])
def test_tol_flag_is_an_input_error(capsys, state_files, command, flag):
    # the convergence threshold is a fixed constant of the roof engine, and
    # every roof decomposes its input into rank-many members
    if command[0] == "compute":
        command = command + ["--state", state_files["bell"]]
    with pytest.raises(SystemExit) as exc:
        main(command + flag)
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag[0] in captured.err


def test_missing_cut_exits_2(capsys, state_files):
    code, _, err = run_cli(capsys, "compute", "negativity", "--state", state_files["bell"])
    assert code == EXIT_INPUT
    assert "--cut" in err


def test_cut_out_of_range_exits_2(capsys, state_files):
    code, _, _ = run_cli(capsys, "compute", "negativity", "--state", state_files["bell"], "--cut", "7")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("flag, value", [("--cut", "0,"), ("--trace-out", ",1")])
def test_empty_index_field_exits_2(capsys, state_files, flag, value):
    # an empty field is an error, not a skipped entry: "0," is not the cut "0"
    argv = ["compute", "negativity", "--state", state_files["ghz3"], "--cut", "0", flag, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert f"{flag} has an empty field" in err


def test_traced_out_cut_exits_2(capsys, state_files):
    code, _, err = run_cli(
        capsys, "compute", "scren", "--state", state_files["eq24"], "--cut", "2", "--trace-out", "2",
    )
    assert code == EXIT_INPUT
    assert "traced out" in err


@pytest.mark.parametrize("measure, state, flags, line", [
    ("negativity", "ghz3", ["--cut", "0", "--trace-out", "7"],
     "--trace-out indices [7] out of range for 3 parties"),
    ("negativity", "ghz3", ["--cut", "0", "--trace-out", "0,1,2"],
     "--trace-out would remove every subsystem"),
    ("tangle", "mixed3", [],
     "mixed-state tangle needs a bipartite state (use --trace-out to reduce first)"),
    ("ntangle", "mixed2", [], "'ntangle' is defined for pure states"),
    ("nscren", "mixed2", [], "'nscren' is defined for pure states"),
    ("negativity", "bell", ["--cut", "a"], "--cut must be a comma-separated list of integers"),
    ("negativity", "bell", ["--cut", "0,1"], "side A must be a proper subset of the parties"),
], ids=["trace-out-range", "trace-out-all", "tangle-mixed3", "ntangle-mixed", "nscren-mixed",
        "cut-not-integer", "cut-every-party"])
def test_compute_input_error_line(capsys, state_files, measure, state, flags, line):
    code, out, err = run_cli(capsys, "compute", measure, "--state", state_files[state], *flags)
    assert (code, out, err) == (EXIT_INPUT, "", f"error: {line}\n")


@pytest.mark.parametrize("measure", ["nscren", "ntangle"])
def test_cost_guard_exits_3(capsys, state_files, measure):
    code, _, err = run_cli(capsys, "compute", measure, "--state", state_files["big"], "--focus", "0")
    assert code == EXIT_COST_GUARD
    assert "parties" in err


def test_hunt_cost_guard_exits_3(capsys):
    code, _, _ = run_cli(capsys, "hunt", "--dims", "2,2,2,2,2,2", "--samples", "1")
    assert code == EXIT_COST_GUARD


def test_conjecture_violation_exits_4(capsys, state_files, monkeypatch):
    # no honest SCREN violation is known; checking the plumbing by injection
    violating = bell_state()

    def explode(*args, **kwargs):
        raise ConjectureViolation(violating, -0.25)

    monkeypatch.setattr("scren.cli.sm_report", explode)
    code, _, err = run_cli(
        capsys, "compute", "nscren", "--state", state_files["ghz3"], "--focus", "0",
    )
    assert code == EXIT_CONJECTURE
    dump = json.loads(err)
    assert dump["error"] == "conjecture_violation"
    assert dump["value"] == -0.25
    assert dump["state"]["dims"] == [2, 2]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched check reaches pool workers only through fork",
)
def test_pooled_verify_wclass_keeps_the_conjecture_exit(capsys, monkeypatch):
    # a violation raised in a worker comes back whole, so the pooled run
    # exits 4 with the serial run's dump, not with a broken pool
    def explode(psi, config):
        raise ConjectureViolation(bell_state(), -0.5)

    monkeypatch.setattr("scren.suites.verify_theorem2", explode)
    base = ["verify", "wclass", "--n", "3", "--d", "2", "--trials", "2", "--seed", "7"]
    serial = run_cli(capsys, *base, "--workers", "1")
    pooled = run_cli(capsys, *base, "--workers", "2")
    assert serial[0] == pooled[0] == EXIT_CONJECTURE
    assert serial[1] == pooled[1] == ""
    assert pooled[2] == serial[2]
    dump = json.loads(serial[2])
    assert dump["value"] == -0.5 and dump["state"]["dims"] == [2, 2]


@pytest.mark.parametrize("command", [
    ["compute", "negativity", "--cut", "0"],
    ["verify", "wclass", "--n", "3", "--d", "2", "--trials", "1"],
    ["hunt", "--dims", "2,2", "--samples", "1"],
], ids=["compute", "verify", "hunt"])
def test_out_into_a_missing_directory_exits_2(capsys, state_files, tmp_path, command):
    # the run ends with an input error, and no directory or file is made
    if command[0] == "compute":
        command = command + ["--state", state_files["bell"]]
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, *command, "--out", str(target))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: cannot write output file:")
    assert str(target) in err
    assert not target.parent.exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_paper_small_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "paper", "--seed", "7", "--trials", "4")
    code2, out2, _ = run_cli(capsys, "verify", "paper", "--seed", "7", "--trials", "4")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    report = json.loads(out1)
    assert report["all_passed"] is True
    assert [c["name"] for c in report["checks"]] == [
        "counterexample_322_tangle",
        "counterexample_322_scren",
        "antisymmetric_333_scren",
        "two_qubit_oracle",
    ]


def test_verify_wclass_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "wclass", "--trials", "2", "--n", "3", "--d", "3", "--seed", "7",
        "--starts", "6", "--iters", "400",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["all_passed"] is True
    assert report["n"] == 3 and report["trials"] == 2


def test_verify_wclass_spec_example(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "wclass", "--trials", "20", "--n", "4", "--d", "3", "--seed", "7",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["all_passed"] is True
    assert len(report["results"]) == 20


def test_verify_wclass_workers_match_serial(capsys):
    base = ["verify", "wclass", "--trials", "4", "--n", "3", "--d", "3", "--seed", "7",
            "--starts", "4", "--iters", "300"]
    _, serial, _ = run_cli(capsys, *base)
    _, pooled, _ = run_cli(capsys, *base, "--workers", "2")
    assert serial == pooled


@pytest.mark.parametrize("args, tasks", [
    (["hunt", "--dims", "3,2,2", "--samples", "2", "--starts", "2", "--iters", "100"], 3),
    (["verify", "wclass", "--n", "3", "--d", "2", "--trials", "2"], 2),
    (["hunt", "--dims", "2,2,2", "--samples", "1", "--starts", "2", "--iters", "100"], 1),
], ids=["hunt", "wclass", "one_task"])
def test_pool_is_no_larger_than_the_task_list(capsys, monkeypatch, args, tasks):
    # a pool may start every worker at its first task, so --workers 4096 on
    # a few tasks asks for one process a task, and one task runs serially.
    # The stand-in pool records its size and maps in this process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("scren.suites.ProcessPoolExecutor", RecordingPool)
    serial = run_cli(capsys, *args, "--seed", "7", "--workers", "1")
    assert sizes == []
    pooled = run_cli(capsys, *args, "--seed", "7", "--workers", "4096")
    assert sizes == ([tasks] if tasks > 1 else [])
    assert pooled == serial
    assert serial[0] == EXIT_OK


def test_verify_wclass_warm_probe_cache_matches_a_cold_process(capsys):
    # the probe unitaries are cached per (seed, L); a warm cache must not move a byte
    args = ["verify", "wclass", "--n", "5", "--d", "3", "--trials", "2", "--seed", "7"]
    src = str(Path(scren.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    cold = subprocess.run(
        [sys.executable, "-m", "scren.cli", *args], capture_output=True, text=True, env=env
    )
    assert cold.returncode == EXIT_OK
    run_cli(capsys, *args)
    code, warm, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    assert warm == cold.stdout


def test_verify_wclass_guard(capsys):
    code, _, err = run_cli(capsys, "verify", "wclass", "--n", "7", "--d", "3")
    assert code == EXIT_COST_GUARD
    assert "parties" in err


@pytest.mark.parametrize("n", ["2", "1"])
def test_verify_wclass_rejects_fewer_than_three_parties(capsys, n):
    # a two-party SM report has no terms, so Theorem 2's saturation check cannot hold
    code, out, err = run_cli(
        capsys, "verify", "wclass", "--n", n, "--d", "2", "--trials", "1", "--seed", "1"
    )
    assert code == EXIT_INPUT
    assert out == ""
    assert "--n" in err


@pytest.mark.parametrize("d", ["1", "0", "-1"])
def test_verify_wclass_rejects_local_dimension_below_two(capsys, d):
    code, out, err = run_cli(capsys, "verify", "wclass", "--n", "3", "--d", d, "--trials", "1")
    assert code == EXIT_INPUT
    assert out == ""
    assert err == f"error: verify wclass needs --d >= 2, got {d}\n"


@pytest.mark.parametrize("suite", ["paper", "wclass"])
def test_verify_rejects_zero_trials(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--trials", "0")
    assert code == EXIT_INPUT
    assert out == ""
    assert "--trials" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("suite", ["paper", "wclass"])
def test_verify_rejects_workers_below_one(capsys, suite, workers):
    # wclass rejects the value; paper declares no --workers, so argparse rejects the flag
    try:
        code = main(["verify", suite, "--trials", "1", "--workers", workers])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == EXIT_INPUT
    assert captured.out == ""
    assert "--workers" in captured.err


def test_verify_paper_has_no_workers_flag(capsys):
    # the paper suite runs in one process, so a pool size is a parse error
    with pytest.raises(SystemExit) as exc:
        main(["verify", "paper", "--workers", "2"])
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--workers" in captured.err


@pytest.mark.parametrize("flag", ["--starts", "--iters"])
@pytest.mark.parametrize("suite", ["paper", "wclass"])
def test_verify_rejects_budgets_below_one(capsys, suite, flag):
    code, out, err = run_cli(capsys, "verify", suite, "--trials", "1", flag, "0")
    assert code == EXIT_INPUT
    assert out == ""
    assert "at least 1" in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        "scren.cli.paper_suite",
        lambda **kw: {"suite": "paper", "checks": [], "all_passed": False},
    )
    code, _, _ = run_cli(capsys, "verify", "paper")
    assert code == EXIT_VERIFY_FAILED


@pytest.mark.parametrize("check", FIXTURE_CHECKS, ids=[c[0] for c in FIXTURE_CHECKS])
def test_verify_paper_fails_only_the_shifted_fixture_row(capsys, monkeypatch, check):
    name, state, measure = check[:3]
    real = scren.suites.ckw_report

    def shifted(psi, **kwargs):
        rep = real(psi, **kwargs)
        if psi is state and kwargs["measure"] == measure:
            term = dataclasses.replace(rep.terms[0], value=rep.terms[0].value + 2e-3)
            rep = dataclasses.replace(rep, terms=(term,) + rep.terms[1:])
        return rep

    monkeypatch.setattr("scren.suites.ckw_report", shifted)
    code, out, _ = run_cli(capsys, "verify", "paper", "--trials", "1")
    assert code == EXIT_VERIFY_FAILED
    passed = {c["name"]: c["passed"] for c in json.loads(out)["checks"]}
    assert passed == {c[0]: c[0] != name for c in FIXTURE_CHECKS} | {"two_qubit_oracle": True}


# ---------------------------------------------------------------------------
# hunt
# ---------------------------------------------------------------------------

def test_hunt_includes_tangle_fixture_violation(capsys):
    code, out, _ = run_cli(
        capsys, "hunt", "--dims", "3,2,2", "--samples", "2", "--seed", "5",
        "--measure", "tangle", "--starts", "6", "--iters", "400",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    labels = [r["label"] for r in report["results"]]
    assert labels[0] == "fixture_322"
    fixture = report["results"][0]
    assert fixture["residual"] < -1e-4
    assert "state" in fixture  # flagged candidates carry the state dump
    assert any(c["label"] == "fixture_322" for c in report["candidates"])
    assert report["min_residual"] <= fixture["residual"] + 1e-12


def test_hunt_records_a_conjecture_violation_and_goes_on(capsys, monkeypatch):
    # the plumbing by injection: the second state's report raises
    real_report, seen = scren.suites.sm_report, []

    def second_raises(psi, **kwargs):
        seen.append(psi)
        if len(seen) == 2:
            raise ConjectureViolation(bell_state(), -0.25)
        return real_report(psi, **kwargs)

    monkeypatch.setattr("scren.suites.sm_report", second_raises)
    code, out, _ = run_cli(capsys, "hunt", "--dims", "3,2,2", "--samples", "2", "--workers", "1")
    assert code == EXIT_OK
    report = json.loads(out)
    hit = report["results"][1]
    assert hit["label"] == "sample_0000"
    assert hit["residual"] is None and hit["satisfied"] is False
    assert hit["conjecture_violation"] == {
        "value": -0.25, "state": json.loads(json.dumps(state_to_dict(bell_state()))),
    }
    assert hit in report["candidates"]
    others = [r["residual"] for r in report["results"] if r is not hit]
    assert len(others) == 2 and None not in others
    assert report["min_residual"] == min(others)


def test_hunt_scren_three_qubits_no_violation(capsys):
    code, out, _ = run_cli(
        capsys, "hunt", "--dims", "2,2,2", "--samples", "100", "--seed", "11",
        "--starts", "5", "--iters", "350",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["min_residual"] >= -1e-4
    assert report["candidates"] == []


def test_hunt_scren_322_no_violation(capsys):
    code, out, _ = run_cli(
        capsys, "hunt", "--dims", "3,2,2", "--samples", "100", "--seed", "11",
        "--starts", "5", "--iters", "350",
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["min_residual"] >= -1e-4


def test_hunt_csv_output(capsys):
    code, out, _ = run_cli(
        capsys, "hunt", "--dims", "2,2", "--samples", "3", "--seed", "2", "--csv",
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "index,label,residual,satisfied"
    assert len(lines) == 4


def test_hunt_deterministic_across_runs(capsys):
    args = ["hunt", "--dims", "2,2,2", "--samples", "4", "--seed", "3",
            "--starts", "4", "--iters", "300"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


@pytest.mark.parametrize("dims", ["2,2,2", "3,2,2"])
def test_hunt_worker_pool_matches_serial(capsys, dims):
    # 3,2,2 also sends fixture_322 through the pool as a PureState
    base = ["hunt", "--dims", dims, "--samples", "4", "--seed", "3",
            "--starts", "4", "--iters", "300"]
    _, serial, _ = run_cli(capsys, *base)
    _, pooled, _ = run_cli(capsys, *base, "--workers", "2")
    assert serial == pooled
    assert json.loads(serial)["results"][0]["label"] == ("fixture_322" if dims == "3,2,2" else "sample_0000")


def test_hunt_suite_matches_fixtures_for_any_dims_sequence():
    # a list or an array of dims finds the same fixtures as the tuple
    cfg = RoofConfig(2, 50, 0)
    report = hunt_suite((3, 2, 2), 1, "scren", cfg, 1)
    assert [r["label"] for r in report["results"]] == ["fixture_322", "sample_0000"]
    assert hunt_suite([3, 2, 2], 1, "scren", cfg, 1) == report
    assert hunt_suite(np.array([3, 2, 2]), 1, "scren", cfg, 1) == report


def test_hunt_tangle_guard_beyond_three_parties(capsys):
    code, _, err = run_cli(capsys, "hunt", "--dims", "3,2,2,2", "--samples", "1", "--measure", "tangle")
    assert code == EXIT_INPUT
    assert "all-qubit" in err


def test_hunt_tangle_guard_needs_qubit_in_every_pair(capsys):
    for dims in ("3,3,2", "3,3"):
        code, _, err = run_cli(capsys, "hunt", "--dims", dims, "--samples", "0", "--measure", "tangle")
        assert code == EXIT_INPUT
        assert "qubit in every pair" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_hunt_rejects_samples_below_one(capsys, samples):
    code, out, err = run_cli(capsys, "hunt", "--dims", "2,2,2", "--samples", samples)
    assert code == EXIT_INPUT
    assert out == ""
    assert "--samples" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_hunt_rejects_workers_below_one(capsys, workers):
    code, out, err = run_cli(capsys, "hunt", "--dims", "2,2,2", "--samples", "1", "--workers", workers)
    assert code == EXIT_INPUT
    assert out == ""
    assert "--workers" in err


def test_hunt_bad_dims(capsys):
    code, _, _ = run_cli(capsys, "hunt", "--dims", "2,1", "--samples", "1")
    assert code == EXIT_INPUT


@pytest.mark.parametrize("dims", ["2,,2", "2,2,", ",2,2"])
def test_hunt_rejects_an_empty_dims_field(capsys, dims):
    # "2,,2" once ran a two-qubit hunt
    code, out, err = run_cli(capsys, "hunt", "--dims", dims, "--samples", "1", "--csv")
    assert code == EXIT_INPUT
    assert out == ""
    assert "--dims has an empty field" in err


@pytest.mark.parametrize("measure", ["scren", "tangle"])
def test_hunt_rejects_a_single_party(capsys, measure):
    code, out, err = run_cli(capsys, "hunt", "--dims", "2", "--samples", "1", "--measure", measure)
    assert code == EXIT_INPUT
    assert out == ""
    assert "--dims needs at least two parties" in err


# ---------------------------------------------------------------------------
# module execution
# ---------------------------------------------------------------------------

def test_compute_deterministic_across_runs(capsys, state_files):
    args = ["compute", "scren", "--state", state_files["eq24"],
            "--cut", "0", "--trace-out", "2", "--seed", "7"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_module_invocation_roundtrip(tmp_path):
    path = tmp_path / "bell.json"
    dump_state(bell_state(), path)
    proc = subprocess.run(
        [sys.executable, "-m", "scren.cli", "compute", "negativity",
         "--state", str(path), "--cut", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["value"] - 1.0) <= 1e-9
