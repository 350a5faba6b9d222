"""End-to-end command-line behavior, including exit codes and JSON output."""

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations

import pytest

from cispectra import (
    PFunction,
    exact_spectrum_conjugates,
    parse_polynomial,
    random_function,
    read_table,
    write_table,
)
from cispectra.cli import (
    DEFAULT_SEED,
    EXIT_DISAGREEMENT,
    EXIT_LIMIT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNMET,
    _search_cost,
    analyze_function,
    main,
)
from cispectra.spectral import ci_order, resiliency_order

import helpers


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_constant_zero(capsys, tmp_path):
    path = tmp_path / "zero.tbl"
    path.write_text(write_table(PFunction(3, 2, (0,) * 9)))
    code, out = run(capsys, "analyze", str(path))
    assert code == EXIT_OK
    assert "ci_order = 2" in out
    assert "resiliency_order = -1" in out
    assert "balanced = false" in out
    assert "symmetric = true" in out


def test_analyze_linear_poly_json(capsys):
    code, out = run(
        capsys, "analyze", "--poly", "x1 + x2 + x3 + x4", "--p", "3", "--n", "4", "--json"
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["ci_order"] == 3
    assert obj["resiliency_order"] == 3
    assert obj["balanced"] is True
    assert obj["symmetric"] is True
    assert "reports" not in obj


def test_analyze_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("2 2\n0 1 1 0\n"))
    code, out = run(capsys, "analyze", "-")
    assert code == EXIT_OK
    assert "ci_order = 1" in out
    assert "resiliency_order = 1" in out


def test_analyze_reports_flag(capsys):
    code, out = run(
        capsys, "analyze", "--poly", helpers.E2_POLY, "--p", "3", "--n", "4", "--reports"
    )
    assert code == EXIT_OK
    assert "m=1 consensus=true" in out
    assert out.count("consensus=") == 4


def test_analyze_no_shortcut_agrees(capsys):
    base = ["analyze", "--poly", helpers.E2_E3_POLY, "--p", "3", "--n", "4", "--json"]
    code_a, out_a = run(capsys, *base)
    code_b, out_b = run(capsys, *base, "--no-shortcut")
    assert code_a == code_b == EXIT_OK
    assert json.loads(out_a)["ci_order"] == json.loads(out_b)["ci_order"] == 0


def test_analyze_matches_library_verdict(capsys, tmp_path):
    from cispectra import random_function

    f = random_function(3, 3, seed=909)
    path = tmp_path / "f.tbl"
    path.write_text(write_table(f))
    code, out = run(capsys, "analyze", str(path), "--json")
    obj = json.loads(out)
    assert obj["ci_order"] == ci_order(f)
    assert obj["resiliency_order"] == resiliency_order(f)


@pytest.mark.parametrize(
    "argv,symmetric,order",
    [
        (["--poly", "x3+x4+x5+x6+x7+x8+x9 + x1*x2", "--p", "2", "--n", "9"], False, 6),
        (["--poly", "2*x1 + x2 + x3 + x4 + x5 + x6 + x7", "--p", "3", "--n", "7"], False, 6),
        (["--no-shortcut", "--poly", "+".join(f"x{i}" for i in range(1, 11)),
          "--p", "2", "--n", "10"], True, 9),
    ],
)
def test_analyze_highly_immune_functions_is_not_factorial(capsys, argv, symmetric, order):
    # each variable subset is read once, not each ordered tuple
    start = time.perf_counter()
    code, out = run(capsys, "analyze", "--json", *argv)
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["balanced"] is True
    assert obj["symmetric"] is symmetric
    assert obj["ci_order"] == order
    assert obj["resiliency_order"] == order


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_full_roundtrip(capsys, tmp_path):
    from cispectra.spectral import SpectrumDump

    f = parse_polynomial("x1*x2", 2, 2)
    path = tmp_path / "f.tbl"
    path.write_text(write_table(f))
    code, out = run(capsys, "spectrum", str(path), "--full")
    assert code == EXIT_OK
    dump = SpectrumDump.from_json(out)
    assert dump.p == 2 and dump.n == 2
    assert abs(dump.autocorrelation[0] - 4) < 1e-9


def test_spectrum_exact_at_identity_tuple(capsys):
    code, out = run(
        capsys, "spectrum", "--poly", helpers.E2_POLY, "--p", "3", "--n", "4",
        "--exact-at", "1", "--json",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["critical_index"] == 27
    assert obj["results"] == [
        {"tuple": [1], "coeffs": [0, 0], "zero": True, "orbit_zero": True}
    ]


def test_spectrum_exact_at_explicit_tuples(capsys):
    code, out = run(
        capsys, "spectrum", "--poly", helpers.E2_E3_POLY, "--p", "3", "--n", "4",
        "--exact-at", "1", "--tuple", "1", "--tuple", "4",
    )
    assert code == EXIT_OK
    assert "critical index p^(n-m) = 27" in out
    assert "tuple (1): 3 1 : 18 0  zero=false orbit_zero=false" in out
    assert "tuple (4): 3 1 : 18 0  zero=false orbit_zero=false" in out


def test_spectrum_surfaces_partial_orbit_zeroes(capsys, tmp_path):
    # primary value zero, conjugate nonzero: exactly the case a single
    # evaluation misclassifies
    path = tmp_path / "trap.tbl"
    path.write_text(write_table(PFunction(3, 2, helpers.STRATUM_TRAP_TABLE)))
    code, out = run(capsys, "spectrum", str(path), "--exact-at", "1", "--tuple", "1", "--json")
    assert code == EXIT_OK
    res = json.loads(out)["results"][0]
    assert res["zero"] is True
    assert res["orbit_zero"] is False


def test_spectrum_tuple_validation(capsys):
    code, _ = run(
        capsys, "spectrum", "--poly", "x1", "--p", "3", "--n", "2",
        "--exact-at", "1", "--tuple", "1,2",
    )
    assert code == EXIT_PARSE
    code, _ = run(
        capsys, "spectrum", "--poly", "x1", "--p", "3", "--n", "2",
        "--exact-at", "1", "--tuple", "7",
    )
    assert code == EXIT_PARSE
    code, _ = run(
        capsys, "spectrum", "--poly", "x1", "--p", "3", "--n", "2", "--exact-at", "9"
    )
    assert code == EXIT_PARSE


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

def test_crosscheck_exhaustive_tiny(capsys):
    code, out = run(capsys, "crosscheck", "--p", "2", "--n", "2", "--m", "1", "--exhaustive")
    assert code == EXIT_OK
    assert "checked = 16 functions" in out
    assert "disagreements = 0" in out
    assert "seed" not in out


def test_crosscheck_random_prints_seed(capsys):
    code, out = run(
        capsys, "crosscheck", "--p", "3", "--n", "2", "--m", "1", "--random", "25"
    )
    assert code == EXIT_OK
    assert f"seed = {DEFAULT_SEED}" in out
    assert "checked = 25 functions" in out
    assert "disagreements = 0" in out


def test_crosscheck_random_zero_functions(capsys):
    code, out = run(capsys, "crosscheck", "--p", "3", "--n", "2", "--m", "1", "--random", "0")
    assert code == EXIT_OK
    assert "checked = 0 functions" in out


def test_crosscheck_json_schema(capsys):
    code, out = run(
        capsys, "crosscheck", "--p", "2", "--n", "3", "--m", "2",
        "--random", "40", "--seed", "7", "--json",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["mode"] == "random"
    assert obj["seed"] == 7
    assert obj["checked"] == 40
    assert obj["disagreements"] == 0
    assert set(obj["ci_counts"]) == {
        "spectral", "definition", "chrestenson_cyclic",
        "chrestenson_linear", "matrix", "orthogonal_array",
    }
    counts = set(obj["ci_counts"].values())
    assert len(counts) == 1  # all methods agree function by function


def test_crosscheck_exhaustive_cap(capsys):
    # 2^(2^5) family size exceeds the exhaustive cap
    code, _ = run(capsys, "crosscheck", "--p", "2", "--n", "5", "--m", "1", "--exhaustive")
    assert code == EXIT_LIMIT


def test_crosscheck_is_deterministic_per_seed(capsys):
    args = [
        "crosscheck", "--p", "3", "--n", "2", "--m", "1",
        "--random", "10", "--seed", "1", "--json",
    ]
    _, out_a = run(capsys, *args)
    _, out_c = run(capsys, *args)
    assert out_a == out_c


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_finds_first_order_resilient(capsys):
    code, out = run(
        capsys, "search", "--p", "2", "--n", "3", "--target-ci", "1", "--resilient", "--json"
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["found"] is True
    f = read_table(obj["table"])
    assert ci_order(f) >= 1
    assert resiliency_order(f) >= 1


def test_search_target_zero_is_immediate(capsys):
    code, out = run(capsys, "search", "--p", "3", "--n", "2", "--target-ci", "0", "--json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["found"] is True
    assert obj["evaluations"] == 1


def test_search_infeasible_orders(capsys):
    code, out = run(capsys, "search", "--p", "2", "--n", "3", "--target-ci", "4")
    assert code == EXIT_UNMET
    assert "infeasible" in out
    code, out = run(
        capsys, "search", "--p", "3", "--n", "2", "--target-ci", "2", "--resilient"
    )
    assert code == EXIT_UNMET
    assert "infeasible" in out


def test_search_unmet_within_budget_reports_best(capsys):
    # order-2 immunity over F_3^2 means constant; a tiny budget of random
    # starts will not hit one, and the verdict must stay honest
    code, out = run(
        capsys, "search", "--p", "3", "--n", "2", "--target-ci", "2",
        "--budget", "5", "--json",
    )
    obj = json.loads(out)
    assert obj["evaluations"] <= 5
    if code == EXIT_OK:  # would require landing on a constant by chance
        assert obj["found"] is True
    else:
        assert code == EXIT_UNMET and obj["found"] is False


@pytest.mark.parametrize("p,n,text", [(2, 4, "x1 + x2 + x3*x4"), (3, 3, "x1 + x2*x3")])
def test_search_cost_counts_failing_tuples_and_imbalance(p, n, text):
    subjects = [parse_polynomial(text, p, n)] + [random_function(p, n, seed=s) for s in range(3)]
    for f in subjects:
        counts = Counter(f.table)
        imbalance = sum(abs(counts[v] - p ** (n - 1)) for v in range(p))
        assert _search_cost(f, 0, True) == (imbalance, 0)
        assert _search_cost(f, 0, False) == (0, 0)
        for target in range(1, n + 1):
            failing = sum(
                not all(v.is_zero() for v in exact_spectrum_conjugates(f, target, t))
                for t in permutations(range(1, n + 1), target)
            )
            assert _search_cost(f, target, True) == (imbalance, failing)
            assert _search_cost(f, target, False) == (0, failing)


def test_search_is_deterministic(capsys, tmp_path):
    args = ["search", "--p", "2", "--n", "3", "--target-ci", "1", "--seed", "5", "--json"]
    _, out_a = run(capsys, *args)
    _, out_b = run(capsys, *args)
    assert out_a == out_b


def test_search_output_file(capsys, tmp_path):
    path = tmp_path / "found.tbl"
    code, _ = run(
        capsys, "search", "--p", "2", "--n", "2", "--target-ci", "1",
        "--output", str(path),
    )
    assert code == EXIT_OK
    f = read_table(path.read_text())
    assert ci_order(f) >= 1


# ---------------------------------------------------------------------------
# Error paths and limits
# ---------------------------------------------------------------------------

def test_parse_failures_exit_2(capsys):
    assert run(capsys, "analyze", "--poly", "x9", "--p", "2", "--n", "2")[0] == EXIT_PARSE
    assert run(capsys, "analyze", "--poly", "x1")[0] == EXIT_PARSE
    assert run(capsys, "analyze", "--poly", "x1", "--p", "4", "--n", "2")[0] == EXIT_PARSE
    assert run(capsys, "analyze")[0] == EXIT_PARSE


def test_missing_table_file_exit_2(capsys, tmp_path):
    assert run(capsys, "analyze", str(tmp_path / "absent.tbl"))[0] == EXIT_PARSE


def test_size_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CI_SPECTRA_MAX_N", "8")
    code, _ = run(capsys, "analyze", "--poly", "x1", "--p", "3", "--n", "2")
    assert code == EXIT_LIMIT
    monkeypatch.setenv("CI_SPECTRA_MAX_N", "9")
    code, _ = run(capsys, "analyze", "--poly", "x1", "--p", "3", "--n", "2")
    assert code == EXIT_OK
    monkeypatch.setenv("CI_SPECTRA_MAX_N", "lots")
    code, _ = run(capsys, "analyze", "--poly", "x1", "--p", "3", "--n", "2")
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "argv,code",
    [
        (["analyze", "--poly", "x1", "--p", "3", "--n", "30000000"], EXIT_LIMIT),
        # oversize is checked before primality, so trial division stays small
        (["analyze", "--poly", "x1", "--p", "4", "--n", "300000000"], EXIT_LIMIT),
        (["search", "--p", "3", "--n", "300000000", "--target-ci", "1"], EXIT_LIMIT),
        (["crosscheck", "--p", "3", "--n", "30000000", "--m", "1", "--random", "1"], EXIT_LIMIT),
        # 2^(2^14) functions: the family count has more than 4300 digits
        (["crosscheck", "--p", "2", "--n", "14", "--m", "1", "--exhaustive"], EXIT_LIMIT),
        (["analyze", "--poly", "x1", "--p", "1", "--n", "300000000"], EXIT_PARSE),
        (["search", "--p", "3", "--n", "-1", "--target-ci", "1"], EXIT_PARSE),
        (["crosscheck", "--p", "3", "--n", "-1", "--m", "1", "--random", "1"], EXIT_PARSE),
    ],
)
def test_sizes_are_checked_before_big_arithmetic(capsys, argv, code):
    start = time.perf_counter()
    assert run(capsys, *argv)[0] == code
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("header", ["3 30000000", "1000000000000000003 1"])
def test_table_header_sizes_are_checked_before_big_arithmetic(capsys, tmp_path, header):
    path = tmp_path / "huge.tbl"
    path.write_text(f"{header}\n0 1 2\n")
    start = time.perf_counter()
    assert run(capsys, "analyze", str(path))[0] == EXIT_LIMIT
    assert time.perf_counter() - start < 2.0


def test_raised_size_limit_still_bounds_primality_work(capsys, monkeypatch):
    monkeypatch.setenv("CI_SPECTRA_MAX_N", str(10**19))
    start = time.perf_counter()
    code, _ = run(capsys, "analyze", "--poly", "x1", "--p", str(10**18 + 3), "--n", "1")
    assert code == EXIT_LIMIT
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "argv,message",
    [
        # contradictory input modes; the file is not opened
        (["analyze", "no-such-file.tbl", "--poly", "x1", "--p", "3", "--n", "2"], "not both"),
        (["spectrum", "--full", "--tuple", "1", "--poly", "x1", "--p", "3", "--n", "2"],
         "--tuple requires --exact-at"),
        *[
            (["crosscheck", "--p", "2", "--n", "2", "--m", m, *mode], "--m must be in 1..2")
            for m in ("0", "3", "99")
            for mode in (["--exhaustive"], ["--random", "0"], ["--random", "5"])
        ],
        (["crosscheck", "--p", "2", "--n", "2", "--m", "1", "--random", "-3"],
         "--random must be >= 0"),
    ],
)
def test_bad_arguments_exit_2_before_any_work(capsys, argv, message):
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert captured.out == ""
    assert message in captured.err


def test_error_messages_go_to_stderr(capsys):
    code = main(["analyze", "--poly", "x9", "--p", "2", "--n", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert captured.out == ""
    assert "x9" in captured.err


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

@pytest.mark.skipif(
    shutil.which("cispectra") is None,
    reason="no `cispectra` executable on PATH; `pip install -e .` installs the console script",
)
def test_console_script(tmp_path):
    proc = subprocess.run(
        ["cispectra", "analyze", "--poly", "x1 + x2", "--p", "2", "--n", "2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ci_order"] == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cispectra", "analyze", "--poly", "0", "--p", "2", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ci_order = 2" in proc.stdout


def test_analyze_function_result_invariants():
    from cispectra import random_function

    for seed in range(30):
        f = random_function(3, 3, seed=seed)
        res = analyze_function(f)
        if res.resiliency_order >= 0:
            assert res.balanced
            assert res.resiliency_order <= res.ci_order
        else:
            assert not res.balanced
        obj = json.loads(res.to_json())
        assert obj["p"] == 3 and obj["n"] == 3
