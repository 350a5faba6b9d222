"""Smoke tests for the scripts under scripts/, run as subprocesses.

conftest.py exports src/ in PYTHONPATH, so the scripts import this
checkout's package.
"""

import resource
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name, *args, timeout=120, preexec_fn=None):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=preexec_fn,
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
    proc = _run("ci_census.py", "--p", "2", "--n", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert _histogram(lines, "ci_order histogram:") == {0: 238, 1: 14, 2: 2, 3: 2}
    assert _histogram(lines, "resiliency_order histogram:") == {-1: 186, 0: 62, 1: 6, 2: 2}


def test_ci_census_binary_four_variables():
    proc = _run("ci_census.py", "--p", "2", "--n", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert _histogram(lines, "ci_order histogram:") == {0: 64888, 1: 636, 2: 8, 3: 2, 4: 2}
    assert _histogram(lines, "resiliency_order histogram:") == {
        -1: 52666, 0: 12648, 1: 212, 2: 8, 3: 2,
    }


def test_ci_census_ternary_two_variables():
    proc = _run("ci_census.py", "--p", "3", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert _histogram(lines, "ci_order histogram:") == {0: 19632, 1: 48, 2: 3}
    assert _histogram(lines, "resiliency_order histogram:") == {-1: 18003, 0: 1668, 1: 12}


@pytest.mark.parametrize(
    "args",
    [("--p", "4", "--n", "1"), ("--p", "1", "--n", "2"), ("--p", "2", "--n", "0"),
     ("--p", "9", "--n", "1"), ("--symmetric", "--p", "4", "--n", "1"),
     ("--symmetric", "--p", "2", "--n", "0")],
)
def test_ci_census_rejects_a_composite_p_or_n_below_one(args):
    # (9, 1) is refused for its 9^9 functions, as size is decided first
    proc = _run("ci_census.py", *args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and "Traceback" not in proc.stderr


def _address_space_512_mib():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize(
    "args",
    [("--p", "3", "--n", "16"), ("--symmetric", "--p", "101", "--n", "6"),
     ("--p", "1000003", "--n", "1000000"), ("--symmetric", "--p", "1000003", "--n", "1000000")],
)
def test_ci_census_refuses_an_oversized_family_without_building_it(args):
    # 3^(3^16) functions, or C(106, 6) symmetric classes, would neither fit
    # the time nor the address space given here
    proc = _run("ci_census.py", *args, timeout=10, preexec_fn=_address_space_512_mib)
    assert proc.returncode == 2, proc.stderr
    assert "more than 1000000" in proc.stderr and "Traceback" not in proc.stderr


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
