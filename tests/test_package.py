"""The public surface: package exports and the README quick start."""

import os
import re
import subprocess
import sys
from pathlib import Path

import scren

ROOT = Path(__file__).resolve().parents[1]

DROPPED = (
    "SchmidtDecomposition",
    "schmidt",
    "is_ppt",
    "enumerate_subsets",
    "IndexVector",
    "tensor",
    "basis_state",
)


def test_all_names_resolve_sorted_and_unique():
    assert all(hasattr(scren, name) for name in scren.__all__)
    assert scren.__all__ == sorted(scren.__all__)
    assert len(set(scren.__all__)) == len(scren.__all__)
    assert not set(DROPPED) & set(scren.__all__)


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    assert abs(float(lines[0]) - 4.0) <= 1e-12
    assert abs(float(lines[1]) - 8 / 9) <= 1e-9
    assert lines[2].split()[1] == "True"
