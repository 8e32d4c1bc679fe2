"""Command-line surface: subcommands, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from scren import bell_state, dump_state, ghz_state, haar_random_state
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


@pytest.fixture()
def state_files(tmp_path):
    paths = {}
    for name, psi in {
        "bell": bell_state(),
        "ghz3": ghz_state(3),
        "eq24": CKW_COUNTEREXAMPLE_322,
        "big": haar_random_state((2,) * 6, np.random.default_rng(0)),
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


def test_compute_cren_equals_negativity_for_pure(capsys, state_files):
    code, out, _ = run_cli(capsys, "compute", "cren", "--state", state_files["bell"], "--cut", "0")
    assert code == EXIT_OK
    assert abs(json.loads(out)["value"] - 1.0) <= 1e-9


def test_compute_on_density_matrix_file(capsys, tmp_path):
    # Werner state at p = 0.9: negativity (3p-1)/2, tangle ((3p-1)/2)^2
    phi = bell_state()
    mat = 0.9 * np.outer(phi.amplitudes, phi.amplitudes.conj()) + 0.1 * np.eye(4) / 4
    from scren import DensityMatrix

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


def test_missing_cut_exits_2(capsys, state_files):
    code, _, err = run_cli(capsys, "compute", "negativity", "--state", state_files["bell"])
    assert code == EXIT_INPUT
    assert "--cut" in err


def test_cut_out_of_range_exits_2(capsys, state_files):
    code, _, _ = run_cli(capsys, "compute", "negativity", "--state", state_files["bell"], "--cut", "7")
    assert code == EXIT_INPUT


def test_traced_out_cut_exits_2(capsys, state_files):
    code, _, err = run_cli(
        capsys, "compute", "scren", "--state", state_files["eq24"], "--cut", "2", "--trace-out", "2",
    )
    assert code == EXIT_INPUT
    assert "traced out" in err


def test_cost_guard_exits_3(capsys, state_files):
    code, _, err = run_cli(capsys, "compute", "nscren", "--state", state_files["big"], "--focus", "0")
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


def test_verify_wclass_guard(capsys):
    code, _, err = run_cli(capsys, "verify", "wclass", "--n", "7", "--d", "3")
    assert code == EXIT_COST_GUARD
    assert "parties" in err


@pytest.mark.parametrize("suite", ["paper", "wclass"])
def test_verify_rejects_zero_trials(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--trials", "0")
    assert code == EXIT_INPUT
    assert out == ""
    assert "--trials" in err


def test_verify_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        "scren.cli.paper_suite",
        lambda **kw: {"suite": "paper", "checks": [], "all_passed": False},
    )
    code, _, _ = run_cli(capsys, "verify", "paper")
    assert code == EXIT_VERIFY_FAILED


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


def test_hunt_worker_pool_matches_serial(capsys):
    base = ["hunt", "--dims", "2,2,2", "--samples", "4", "--seed", "3",
            "--starts", "4", "--iters", "300"]
    _, serial, _ = run_cli(capsys, *base)
    _, pooled, _ = run_cli(capsys, *base, "--workers", "2")
    assert serial == pooled


def test_hunt_tangle_guard_beyond_three_parties(capsys):
    code, _, err = run_cli(capsys, "hunt", "--dims", "3,2,2,2", "--samples", "1", "--measure", "tangle")
    assert code == EXIT_INPUT
    assert "all-qubit" in err


def test_hunt_tangle_guard_needs_qubit_in_every_pair(capsys):
    for dims in ("3,3,2", "3,3"):
        code, _, err = run_cli(capsys, "hunt", "--dims", dims, "--samples", "0", "--measure", "tangle")
        assert code == EXIT_INPUT
        assert "qubit in every pair" in err


def test_hunt_bad_dims(capsys):
    code, _, _ = run_cli(capsys, "hunt", "--dims", "2,1", "--samples", "1")
    assert code == EXIT_INPUT


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
