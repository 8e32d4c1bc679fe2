"""The public surface: package exports and the README examples."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    "hjw_ensemble",
)


def test_all_names_resolve_sorted_and_unique():
    assert all(hasattr(scren, name) for name in scren.__all__)
    assert scren.__all__ == sorted(scren.__all__)
    assert len(set(scren.__all__)) == len(scren.__all__)
    assert not set(DROPPED) & set(scren.__all__)


README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
    )


def test_readme_quick_start_runs():
    done = _run(README_BLOCKS[0])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    assert abs(float(lines[0]) - 4.0) <= 1e-12
    assert abs(float(lines[1]) - 8 / 9) <= 1e-9
    assert lines[2].split()[1] == "True"


def test_readme_has_more_than_the_quick_start():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(1, len(README_BLOCKS)))
def test_readme_later_blocks_run(index):
    # a block whose last line ends in "  # <output>" must print that last
    block = README_BLOCKS[index]
    done = _run(block)
    assert done.returncode == 0, done.stderr
    last = block.rstrip().splitlines()[-1]
    if "  # " in last:
        assert done.stdout.splitlines()[-1] == last.split("  # ")[-1]
