"""Smoke tests for the scripts under scripts/, run as subprocesses.

conftest.py exports src/ in PYTHONPATH, so the scripts import this
checkout's package.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def _histogram(lines, title):
    start = lines.index(title) + 1
    out = {}
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        k, v = line.split(":")
        out[int(k)] = int(v)
    return out


def test_ci_census_binary_three_variables():
    proc = _run("ci_census.py", "--p", "2", "--n", "3", "--check-consensus")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert _histogram(lines, "ci_order histogram:") == {0: 238, 1: 14, 2: 2, 3: 2}
    assert _histogram(lines, "resiliency_order histogram:") == {-1: 186, 0: 62, 1: 6, 2: 2}
    assert "consensus disagreements: 0" in lines


def test_ci_census_binary_four_variables():
    proc = _run("ci_census.py", "--p", "2", "--n", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert _histogram(lines, "ci_order histogram:") == {0: 64888, 1: 636, 2: 8, 3: 2, 4: 2}
    assert _histogram(lines, "resiliency_order histogram:") == {
        -1: 52666, 0: 12648, 1: 212, 2: 8, 3: 2,
    }


def test_worked_example_runs():
    proc = _run("worked_example.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_ci_census_symmetric_ternary_two_variables():
    # symmetric f over F_3^2 whose DFT is zero at p^(n-m) while the rest of
    # the conjugate orbit is not: one location does not decide CI at p = 3
    proc = _run("ci_census.py", "--symmetric", "--p", "3", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert _histogram(lines, "zero at p^(n-m), orbit nonzero, by order m:") == {1: 60, 2: 3}
    assert "total: 63 of 1458 (function, order) pairs" in lines
