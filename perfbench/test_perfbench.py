"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

Two traced runs at one seed must give exactly the same machine-independent
counts, which are the figures to compare across versions of the program.
The benchmark must also refuse to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

EXACT_COUNTS = (
    "roof.calls_depth1",
    "roof.calls_depth2",
    "roof.calls_depth3",
    "roof.early_exit_ratio",
    "tangle.one_tangle.calls",
    "negativity.negativity_pure.calls",
    "monogamy.sm_report.calls",
)


def _units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


def _metric_units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _run(run_py: Path, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


@pytest.mark.parametrize("workload", ["pair_roofs", "sm_nested", "wclass_verify"])
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        out = _run(RUN, workload, 1, BENCH_DIR.parent)
        assert out.returncode == 0, out.stderr
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    assert _metric_units(first) == _units(SPEC["per_layer"])
    assert first["metrics"]["roof.calls_depth1"]["value"] > 0
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_end_to_end_metrics_match_spec():
    out = _run(RUN, "wclass_verify", 0, BENCH_DIR.parent)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert _metric_units(result) == _units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources():
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", bare)
    try:
        out = _run(bare / BENCH_DIR.name / "run.py", "pair_roofs", 0, bare)
        assert out.returncode != 0
        assert '"metrics"' not in out.stdout
    finally:
        shutil.rmtree(bare)
