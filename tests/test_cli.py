"""End-to-end command-line behavior, including exit codes and JSON output."""

import hashlib
import json
import random
import shutil
import subprocess
import sys
import time
from itertools import product

import numpy as np
import pytest

from cispectra import (
    PFunction,
    consensus,
    is_balanced,
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
    _search_start,
    analyze_function,
    main,
)
from cispectra import cli, reference, spectral
from cispectra.ptable import _random_table
from cispectra.spectral import ParsevalCost, ci_order, resiliency_order

import helpers


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_large_table_file_is_fast(capsys, tmp_path):
    f = random_function(2, 19, seed=11)
    path = tmp_path / "big.tbl"
    path.write_text(write_table(f))
    start = time.perf_counter()
    code, out = run(capsys, "analyze", "--json", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    obj = json.loads(out)
    assert (obj["p"], obj["n"], obj["symmetric"], obj["ci_order"]) == (2, 19, False, 0)
    assert obj["balanced"] is is_balanced(f)


@pytest.mark.parametrize("head,entries", [("2 23", 2**23), ("2 21", 3)])
def test_oversized_table_file_is_refused_before_its_body_is_parsed(
    capsys, monkeypatch, tmp_path, head, entries
):
    # the header's p^n is over the limit, whether or not the body matches it
    path = tmp_path / "big.tbl"
    path.write_text(f"{head}\n" + "0 " * entries)
    monkeypatch.setattr(cli, "read_table", lambda text: pytest.fail("the body was parsed"))
    assert run(capsys, "analyze", str(path))[0] == EXIT_LIMIT


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
        (["--poly", "+".join(f"x{i}" for i in range(1, 11)), "--p", "2", "--n", "10"], True, 9),
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


@pytest.mark.parametrize("poly,p,n,order", [("x1+x2", 997, 2, 1), ("5", 65537, 1, 1)])
def test_analyze_never_counts_over_all_variables(capsys, monkeypatch, poly, p, n, order):
    # order n is decided from the table (f constant or not), not from the
    # p^(n+1) counts over every variable, which ran out of memory here
    real = spectral._subset_counts

    def spy(f, subsets):
        assert all(len(s) < f.n for s in subsets), "joint counts over all n variables"
        return real(f, subsets)

    monkeypatch.setattr(spectral, "_subset_counts", spy)
    start = time.perf_counter()
    code, out = run(capsys, "analyze", "--json", "--poly", poly, "--p", str(p), "--n", str(n))
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_OK
    assert json.loads(out)["ci_order"] == order


def test_ci_order_scans_every_subset_of_linear_2_10_quickly():
    # the CLI answers the symmetric x1 + ... + x10 by ci_order_symmetric;
    # the full subset scan must meet the same bound on it
    f = parse_polynomial("+".join(f"x{i}" for i in range(1, 11)), 2, 10)
    start = time.perf_counter()
    assert ci_order(f) == 9
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "poly,p,n,answers",
    [
        (helpers.E2_POLY, 3, 4, True),  # 16,560 steps
        ("x7*x8 + x1 + x2 + x3 + x4 + x5 + x6", 2, 8, True),  # 330,460
        ("+".join(f"x{i}" for i in range(1, 10)), 2, 9, False),  # 1,447,896
        ("+".join(f"x{i}" for i in range(1, 7)), 3, 6, False),  # 1,608,840
        ("+".join(f"x{i}" for i in range(1, 11)), 2, 10, False),  # 6,304,724
    ],
)
def test_analyze_reports_work_is_bounded(capsys, poly, p, n, answers):
    # the bound counts the c-vector passes and folds of the oracles at
    # orders 1..n
    start = time.perf_counter()
    code, out = run(capsys, "analyze", "--json", "--reports", "--poly", poly,
                    "--p", str(p), "--n", str(n))
    elapsed = time.perf_counter() - start
    if answers:
        assert code == EXIT_OK
        assert len(json.loads(out)["reports"]) == n
        assert elapsed < 2.0
    else:
        assert (code, out) == (EXIT_LIMIT, "")
        assert elapsed < 0.5


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_full_roundtrip(capsys, tmp_path):
    f = parse_polynomial("x1*x2", 2, 2)
    path = tmp_path / "f.tbl"
    path.write_text(write_table(f))
    code, out = run(capsys, "spectrum", str(path), "--full")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["p"] == 2 and obj["n"] == 2
    assert abs(complex(*obj["autocorrelation"][0]) - 4) < 1e-9


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


@pytest.mark.parametrize(
    "p,max_n,code",
    [
        (211, None, EXIT_LIMIT),  # 210 * 211^2 steps; 1.3 s when unbounded
        (101, None, EXIT_LIMIT),  # 1,020,100 steps, just above 10^6
        (97, None, EXIT_OK),  # 903,264 steps
        (101, "2000000", EXIT_OK),
    ],
)
def test_spectrum_exact_at_work_is_bounded(capsys, monkeypatch, p, max_n, code):
    if max_n is not None:
        monkeypatch.setenv("CI_SPECTRA_MAX_N", max_n)
    start = time.perf_counter()
    got, out = run(
        capsys, "spectrum", "--poly", "x1", "--p", str(p), "--n", "1", "--exact-at", "1", "--json"
    )
    assert time.perf_counter() - start < 1.0
    assert got == code
    if code == EXIT_OK:
        obj = json.loads(out)
        assert obj["critical_index"] == 1
        assert obj["results"][0]["orbit_zero"] is False  # x1 is not 1-CI


def test_spectrum_repeated_tuple_is_evaluated_once(capsys, monkeypatch):
    calls = []
    real = spectral._joint_counts

    def counting(f, indices):
        calls.append(tuple(indices))
        return real(f, indices)

    monkeypatch.setattr(spectral, "_joint_counts", counting)
    code, out = run(
        capsys, "spectrum", "--poly", helpers.E2_E3_POLY, "--p", "3", "--n", "4",
        "--exact-at", "2", *["--tuple", "1,2"] * 40,
    )
    assert code == EXIT_OK
    assert calls == [(1, 2)]
    results = out.splitlines()[1:]
    assert len(results) == 40 and len(set(results)) == 1


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


@pytest.mark.parametrize("p,n,m", [(2, 4, 1), (3, 3, 2), (31, 1, 1), (97, 1, 1)])
def test_crosscheck_counts_equal_per_table_consensus(capsys, p, n, m):
    # one table past a chunk, so the family spans two chunks; at (31,1)
    # and (97,1) the p^2 count tensor sets the chunk's rows
    k = reference._chunk_rows(p, n, m) + 1
    code, out = run(capsys, "crosscheck", "--p", str(p), "--n", str(n), "--m", str(m),
                    "--random", str(k), "--seed", "5", "--json")
    assert code == EXIT_OK
    rng = random.Random(5)
    reports = [consensus(_random_table(rng, p, n), m) for _ in range(k)]
    expected = {name: sum(r.verdicts[name] for r in reports) for name in reference.METHOD_NAMES}
    obj = json.loads(out)
    assert obj["checked"] == k
    assert obj["ci_counts"] == expected


def test_crosscheck_reports_a_disagreement_in_a_later_chunk(capsys, monkeypatch):
    # the orthogonal-array verdict of table 2 of the second chunk is flipped
    p, n, m = 31, 1, 1
    rows = reference._chunk_rows(p, n, m)
    true_form = reference.consensus_verdicts
    calls = []

    def flip(tables, *args):
        verdicts = true_form(tables, *args)
        calls.append(len(tables))
        if len(calls) == 2:
            ok = verdicts["orthogonal_array"]
            ok[2] = not ok[2]
        return verdicts

    monkeypatch.setattr(reference, "consensus_verdicts", flip)
    code, out = run(capsys, "crosscheck", "--p", str(p), "--n", str(n), "--m", str(m),
                    "--random", str(2 * rows + 3), "--seed", "8", "--json")
    assert code == EXIT_DISAGREEMENT
    assert calls == [rows, rows, 3]
    rng = random.Random(8)
    f = [_random_table(rng, p, n) for _ in range(rows + 3)][-1]
    obj = json.loads(out)
    assert obj["disagreements"] == 1
    assert obj["first_disagreement"] == {
        "table": write_table(f), "report": json.loads(consensus(f, m).to_json())}


@pytest.mark.parametrize(
    "argv,env,code",
    [
        # K * p^n table entries are checked before any function is built
        (["--random", "600000", "--p", "2", "--n", "1"], None, EXIT_LIMIT),
        (["--random", str(10**15), "--p", "3", "--n", "2"], None, EXIT_LIMIT),
        (["--random", "2", "--p", "2", "--n", "19"], None, EXIT_LIMIT),
        # 48 entries; (2,1) keeps each function's oracle work (6 steps) far
        # below the limit, so only the entry count decides
        (["--random", "24", "--p", "2", "--n", "1"], "47", EXIT_LIMIT),
        (["--random", "24", "--p", "2", "--n", "1"], "48", EXIT_OK),
        (["--random", "0", "--p", "2", "--n", "19"], None, EXIT_OK),
    ],
)
def test_crosscheck_random_work_is_bounded(capsys, monkeypatch, argv, env, code):
    if env is not None:
        monkeypatch.setenv("CI_SPECTRA_MAX_N", env)
    start = time.perf_counter()
    assert run(capsys, "crosscheck", "--m", "1", *argv)[0] == code
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "argv,env,code",
    [
        # one function's consensus at order m takes sum over w = 1..m of
        # C(n, w) * (p-1)^w * (p^n + p^2) steps, checked before any function
        # is built; (997,2) at m = 2 ran out of memory unbounded
        (["--p", "997", "--n", "2", "--m", "2", "--random", "1"], None, EXIT_LIMIT),
        (["--p", "997", "--n", "2", "--m", "1", "--random", "1"], None, EXIT_LIMIT),
        (["--p", "2", "--n", "19", "--m", "1", "--random", "1"], None, EXIT_LIMIT),
        # 4 * (2^4 + 2^2) = 80 steps per function and 48 entries in all
        (["--p", "2", "--n", "4", "--m", "1", "--random", "3"], "48", EXIT_LIMIT),
        (["--p", "2", "--n", "4", "--m", "1", "--random", "3"], "79", EXIT_LIMIT),
        (["--p", "2", "--n", "4", "--m", "1", "--random", "3"], "80", EXIT_OK),
        # (3,2) at m = 1 takes 4 * (9 + 9) = 72 steps per function of the family
        (["--p", "3", "--n", "2", "--m", "1", "--exhaustive"], "71", EXIT_LIMIT),
    ],
)
def test_crosscheck_oracle_work_is_bounded_per_function(capsys, monkeypatch, argv, env, code):
    if env is not None:
        monkeypatch.setenv("CI_SPECTRA_MAX_N", env)
    start = time.perf_counter()
    got, out = run(capsys, "crosscheck", *argv)
    assert time.perf_counter() - start < 0.5
    assert got == code
    if code == EXIT_LIMIT:
        assert out == ""


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


@pytest.mark.parametrize(
    "argv,env,code",
    [
        # p^n entries for each of the p^(p^n) functions are checked before
        # any function is built: 7 * 7^7 = 5,764,801 and 16 * 2^16 = 1,048,576
        (["--p", "7", "--n", "1"], None, EXIT_LIMIT),
        (["--p", "2", "--n", "4"], None, EXIT_LIMIT),
        # 8 * 2^8 = 2,048 and 4 * 2^4 = 64 entries
        (["--p", "2", "--n", "3"], "2047", EXIT_LIMIT),
        (["--p", "2", "--n", "3"], "2048", EXIT_OK),
        (["--p", "2", "--n", "2"], "63", EXIT_LIMIT),
        (["--p", "2", "--n", "2"], "64", EXIT_OK),
    ],
)
def test_crosscheck_exhaustive_work_is_bounded(capsys, monkeypatch, argv, env, code):
    if env is not None:
        monkeypatch.setenv("CI_SPECTRA_MAX_N", env)
    start = time.perf_counter()
    got, out = run(capsys, "crosscheck", "--m", "1", "--exhaustive", *argv)
    assert got == code
    if code == EXIT_LIMIT:
        assert time.perf_counter() - start < 0.5
        assert out == ""


def test_crosscheck_exhaustive_cap(capsys):
    # 2^(2^5) functions of 32 entries each pass the size limit
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
def test_search_cost_vanishes_exactly_at_ci_orders(p, n, text):
    # the climb's cost is ParsevalCost.cost; it is zero iff no ordered tuple
    # has a nonzero critical-stratum value
    subjects = [parse_polynomial(text, p, n)] + [random_function(p, n, seed=s) for s in range(3)]
    for f in subjects:
        assert ParsevalCost(f, 0).cost == 0
        for target in range(1, n + 1):
            cost = ParsevalCost(f, target).cost
            assert cost >= 0
            assert (cost == 0) == (helpers.failing_tuples_scan(f, target) == [])


@pytest.mark.parametrize("p,n", [(2, 3), (2, 6), (3, 4), (5, 2), (7, 2)])
def test_resilient_search_start_is_balanced(p, n):
    # why the cost charges no imbalance: swaps keep this start's multiset
    rng = random.Random(p * n)
    for _ in range(5):
        assert is_balanced(_search_start(rng, p, n, resilient=True))


# SHA-256 of the whole `search --json` stdout: found and unmet targets,
# resilient or not, p in {2, 3, 5, 7}, target 0 and target n.  The
# ParsevalCost values and the rng draws fix every trajectory, so these
# bytes may not move when the climb is made faster.
PINNED_SEARCHES = [
    ("--p 2 --n 3 --target-ci 1 --resilient", EXIT_OK,
     "91d3b9a91464e0da71fbe7f4ea21af854af406f31d38c671332ad47a27b979ea"),
    ("--p 2 --n 4 --target-ci 1 --seed 3 --budget 2000", EXIT_OK,
     "a26198aa26e4018d470a6833dfc47e3cbf526636d07f053aab1f85b537fecfe1"),
    ("--p 2 --n 4 --target-ci 2 --seed 7 --budget 1000", EXIT_OK,
     "a29b156ad476b3265b9edbffe51287d1336273ca931ae7e86abaaa38e6d8967a"),
    ("--p 2 --n 5 --target-ci 1 --resilient --seed 11 --budget 2000", EXIT_OK,
     "4115a4ff7f01d53bc3b0516271e64a6a030123772ea15ce92d38a9a0da0e9682"),
    ("--p 2 --n 6 --target-ci 2 --resilient --seed 5 --budget 300", EXIT_UNMET,
     "09012ecf9e9ba43a016a1b9b1d6a1db657beac8c9c969f19a39cb8af4c108a20"),
    ("--p 2 --n 3 --target-ci 2 --resilient --seed 2 --budget 500", EXIT_OK,
     "025c6129830ea751933d934ab55e972fe42a6bda4cf4963fa2593bbfea1cdd98"),
    ("--p 3 --n 2 --target-ci 1 --seed 5 --budget 500", EXIT_OK,
     "7807a1e09d8d72d6268bb26ce25fc841b46c03ecdc1d881ff5b9f39794641f31"),
    ("--p 3 --n 3 --target-ci 1 --resilient --seed 5 --budget 3000", EXIT_OK,
     "e961765920621dc46cdf96c501696f1b97d1f87a362126a34615d0fbd153f583"),
    ("--p 3 --n 4 --target-ci 1 --resilient --seed 8 --budget 800", EXIT_UNMET,
     "36ef8d8234ca1a17623b299927a95b98ac4ceb0f6f3f0094d9df39e3b2be0e2c"),
    ("--p 5 --n 2 --target-ci 1 --seed 6 --budget 1500", EXIT_OK,
     "99721e23cc1e0cb1e10a469b150040d008418909f7ae1a53ae9ed43f19e69441"),
    ("--p 5 --n 2 --target-ci 1 --resilient --seed 6 --budget 1500", EXIT_OK,
     "cb88a6f1487ff51d56e714b33bfad30c025228fca04c6a54414b3fc9f24cc9a1"),
    ("--p 3 --n 2 --target-ci 0", EXIT_OK,
     "91e6c577eca617ca35f985d1ff30da8b2d8feba29b3bddfbb45c193055029391"),
    ("--p 2 --n 2 --target-ci 2 --seed 1 --budget 200", EXIT_OK,
     "20f64005d928b0ffa635a098c4bea5f719f194f51b905c2ae7aa35be2e83f95c"),
    ("--p 3 --n 2 --target-ci 2 --seed 1 --budget 100", EXIT_OK,
     "5da0de57f9a3d4f42070e7fe48942eda59b287a328b2a45b11b9a681d7ac0039"),
    ("--p 7 --n 2 --target-ci 1 --resilient --seed 9 --budget 500", EXIT_UNMET,
     "0adf634439e5370db47f25cb8ef7c8ccc5d85a6f13d8b1a34d1b99a2eecd2336"),
    # unmet, with climbs that end on the same cost: the first one is reported
    ("--p 5 --n 2 --target-ci 2 --seed 26 --budget 1000", EXIT_UNMET,
     "cb77cad9405c0729143b7faef351b34ac1a4a42967e511d82da3ebfc3dfaffe7"),
    ("--p 2 --n 4 --target-ci 2 --resilient --seed 2 --budget 300", EXIT_UNMET,
     "1a8468acf1737c1e5302263f79e0ac0402a7d1da88b9d3624c18ce2385058258"),
    # 56 count lists per move; resilient swaps at (2,6)
    ("--p 2 --n 8 --target-ci 3 --seed 4 --budget 300", EXIT_UNMET,
     "e08f3dbd56e111efcbc4a663c5918cdb9c3619adad4e76ad587faa74b7281268"),
    ("--p 2 --n 6 --target-ci 2 --resilient --seed 3 --budget 2000", EXIT_UNMET,
     "3c136f92b14957db42527fbdbdb6069c3be40beabbd130c0c12878239030e79a"),
]


@pytest.mark.parametrize("args,code,digest", PINNED_SEARCHES)
def test_search_output_is_pinned(capsys, args, code, digest):
    got_code, out = run(capsys, "search", "--json", *args.split())
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pinned_found_tables_pass_the_six_method_consensus(capsys):
    met = 0
    for args, _, _ in PINNED_SEARCHES:
        code, out = run(capsys, "search", "--json", *args.split())
        obj = json.loads(out)
        if not obj["found"]:
            continue
        met += 1
        f = read_table(obj["table"])
        if obj["target_ci"]:
            rep = consensus(f, obj["target_ci"])
            assert rep.consensus and len(rep.verdicts) == 6 and all(rep.verdicts.values())
        if obj["resilient"]:
            assert is_balanced(f)
    assert met >= 12


def test_search_finds_the_first_order_resilient_ternary_4_variable_case(capsys):
    # missed at the default budget by the failing-tuple cost
    start = time.perf_counter()
    code, out = run(capsys, "search", "--p", "3", "--n", "4", "--target-ci", "1", "--resilient")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_OK
    assert "found = true" in out


@pytest.mark.parametrize(
    "args,evaluations",
    [
        ("--p 2 --n 8 --target-ci 3 --budget 200", 200),
        ("--p 2 --n 10 --target-ci 5 --budget 1", 1),
        # 560 subsets' counts over 65,536 entries, one bincount each
        ("--p 2 --n 16 --target-ci 3 --budget 1", 1),
    ],
)
def test_search_evaluations_do_not_rescan_ordered_tuples(capsys, args, evaluations):
    # one move updates C(n, m) subsets' counts instead of scanning the
    # n!/(n-m)! ordered tuples over all p^n entries, and a start counts
    # each subset in numpy, not point by point
    start = time.perf_counter()
    code, out = run(capsys, "search", "--json", *args.split())
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_UNMET
    assert json.loads(out)["evaluations"] == evaluations


@pytest.mark.parametrize(
    "args,env,code",
    [
        # C(19, 9) * 2^10 + 2 = 94,595,074 joint counts
        ("--p 2 --n 19 --target-ci 9 --budget 1", None, EXIT_LIMIT),
        # 97^3 + 97 = 912,770 and 101^3 + 101 = 1,030,402
        ("--p 97 --n 2 --target-ci 2 --budget 1", None, EXIT_UNMET),
        ("--p 101 --n 2 --target-ci 2 --budget 1", None, EXIT_LIMIT),
        ("--p 101 --n 2 --target-ci 2 --budget 1", "2000000", EXIT_UNMET),
        # the boundary: the limit must hold every count, the histogram's too
        ("--p 97 --n 2 --target-ci 2 --budget 1", "912769", EXIT_LIMIT),
        ("--p 97 --n 2 --target-ci 2 --budget 1", "912770", EXIT_UNMET),
        # C(10, 5) * 2^6 + 2 = 16,130
        ("--p 2 --n 10 --target-ci 5 --budget 1", "10000", EXIT_LIMIT),
    ],
)
def test_search_counter_size_is_bounded_before_any_table(capsys, monkeypatch, args, env, code):
    if env is not None:
        monkeypatch.setenv("CI_SPECTRA_MAX_N", env)
    start = time.perf_counter()
    assert run(capsys, "search", "--json", *args.split())[0] == code
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("args,code,digest", PINNED_SEARCHES)
def test_search_climb_reads_only_counts(capsys, monkeypatch, args, code, digest):
    # the climb decides each axis from square sums, never by comparing rows;
    # only the verdict on its result, which analyze gives, compares them
    changes_along, analyze = spectral._changes_along, cli.analyze_function

    def refuse(*_):
        raise AssertionError("the climb compared count rows")

    def verdict(f):
        monkeypatch.setattr(spectral, "_changes_along", changes_along)
        return analyze(f)

    monkeypatch.setattr(spectral, "_changes_along", refuse)
    monkeypatch.setattr(cli, "analyze_function", verdict)
    got_code, out = run(capsys, "search", "--json", *args.split())
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args", [
    "--p 2 --n 4 --target-ci 1 --seed 3 --budget 2000",
    "--p 2 --n 5 --target-ci 1 --resilient --seed 11 --budget 2000",
])
def test_search_writes_only_the_moves_it_keeps(capsys, monkeypatch, args):
    # every move is scored read-only; _write runs once per change of a move
    # that lowers the cost, in order, and never for a rejected one
    cls = spectral.ParsevalCost
    change_delta, swap_delta, write = cls._change_delta, cls._swap_delta, cls._write
    scored, moved = [], []

    def spy_change_delta(self, k, v):
        got = change_delta(self, k, v)
        scored.append(([(k, v)], got < 0))
        return got

    def spy_swap_delta(self, i, j):
        changes = [(i, self.table[j]), (j, self.table[i])]
        got = swap_delta(self, i, j)
        scored.append((changes, got < 0))
        return got

    def spy_write(self, k, v):
        moved.append((k, v))
        return write(self, k, v)

    monkeypatch.setattr(cls, "_change_delta", spy_change_delta)
    monkeypatch.setattr(cls, "_swap_delta", spy_swap_delta)
    monkeypatch.setattr(cls, "_write", spy_write)
    code, digest = {a: (c, d) for a, c, d in PINNED_SEARCHES}[args]
    got_code, out = run(capsys, "search", "--json", *args.split())
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    kept = [change for changes, lower in scored if lower for change in changes]
    assert moved == kept
    assert 0 < len(kept) < sum(len(changes) for changes, _ in scored)
    assert len(scored) < json.loads(out)["evaluations"]


def test_search_climb_equals_a_recounting_climb(capsys, monkeypatch):
    # the running cost, scored and written move by move, against a climb
    # that recounts every moved table (helpers.search_by_recount): equal
    # table, evaluations and cost, over climbs that reach cost 0, restart
    # after the stall limit, or run out of budget mid-climb
    climbs = []

    class Recorded(ParsevalCost):
        def __init__(self, f, m):
            super().__init__(f, m)
            climbs.append(self)

    monkeypatch.setattr(spectral, "ParsevalCost", Recorded)
    stops = []
    for p, n in [(2, 2), (2, 3), (3, 2), (5, 2), (7, 2)]:
        for resilient in (False, True):
            for target in range(1, n if resilient else n + 1):
                for seed, budget in product(range(4), (7, 60, 400)):
                    args = (f"--p {p} --n {n} --target-ci {target} --seed {seed} "
                            f"--budget {budget}" + " --resilient" * resilient)
                    climbs.clear()
                    code, out = run(capsys, "search", "--json", *args.split())
                    obj = json.loads(out)
                    best = min(climbs, key=lambda climb: climb.cost)  # the first lowest
                    assert tuple(best.table) == read_table(obj["table"]).table, args
                    table, evals, cost, why = helpers.search_by_recount(
                        p, n, target, resilient, seed, budget)
                    assert (table, evals, cost) == (tuple(best.table), obj["evaluations"],
                                                    best.cost), args
                    assert len(climbs) == len(why), args
                    assert code == (EXIT_OK if cost == 0 else EXIT_UNMET), args
                    stops += why
    assert {"zero", "stall", "budget"} <= set(stops)
    assert stops.count("stall") >= 5 and stops.count("budget") >= 20


def test_search_move_is_constant_time_in_the_counts(capsys):
    # 2,000 moves over 912,770 joint counts: a move must not scan them
    start = time.perf_counter()
    code, out = run(capsys, "search", "--json", "--p", "97", "--n", "2", "--target-ci", "2",
                    "--budget", "2000")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_UNMET
    assert json.loads(out)["evaluations"] == 2000


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


def test_search_output_unwritable_exits_2_before_climbing(capsys, tmp_path, monkeypatch):
    def no_climb(*args):
        raise AssertionError("the climb started")

    monkeypatch.setattr(spectral, "ParsevalCost", no_climb)
    code = main([
        "search", "--p", "2", "--n", "8", "--target-ci", "3",
        "--output", str(tmp_path / "no-such-dir" / "x"),
    ])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE
    assert captured.out == ""
    assert "No such file or directory" in captured.err


# ---------------------------------------------------------------------------
# Error paths and limits
# ---------------------------------------------------------------------------

def test_parse_failures_exit_2(capsys):
    assert run(capsys, "analyze", "--poly", "x9", "--p", "2", "--n", "2")[0] == EXIT_PARSE
    assert run(capsys, "analyze", "--poly", "x1")[0] == EXIT_PARSE
    assert run(capsys, "analyze", "--poly", "x1", "--p", "4", "--n", "2")[0] == EXIT_PARSE
    assert run(capsys, "analyze")[0] == EXIT_PARSE


@pytest.mark.parametrize("token", ["x", "2.5", "-1", "2", "99999999999999999999"])
def test_bad_table_entries_exit_2(capsys, tmp_path, token):
    path = tmp_path / "bad.tbl"
    path.write_text(f"2 2\n0 1 {token} 0\n")
    assert run(capsys, "analyze", str(path))[0] == EXIT_PARSE


def test_missing_table_file_exit_2(capsys, tmp_path):
    assert run(capsys, "analyze", str(tmp_path / "absent.tbl"))[0] == EXIT_PARSE


def test_size_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CI_SPECTRA_MAX_N", "8")
    code, _ = run(capsys, "analyze", "--poly", "x1", "--p", "3", "--n", "2")
    assert code == EXIT_LIMIT
    monkeypatch.setenv("CI_SPECTRA_MAX_N", "9")
    code, _ = run(capsys, "analyze", "--poly", "x1", "--p", "3", "--n", "2")
    assert code == EXIT_OK
    for raw in ("lots", "0", "-5"):
        monkeypatch.setenv("CI_SPECTRA_MAX_N", raw)
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
    "argv,err",
    [
        (["analyze", "--reports", "--poly", "0", "--p", "101", "--n", "1"],
         "--reports at p = 101, n = 1 takes 1030200 steps"),
        (["spectrum", "--exact-at", "1", "--poly", "x1", "--p", "101", "--n", "1"],
         "--exact-at 1 at p = 101 takes 1020100 steps"),
        (["crosscheck", "--random", "1", "--p", "2", "--n", "19", "--m", "1"],
         "consensus at p = 2, n = 19, m = 1 takes 9961548 steps per function"),
        (["crosscheck", "--exhaustive", "--p", "2", "--n", "4", "--m", "1"],
         "exhaustive family has 2^16 functions of 16 entries"),
        (["crosscheck", "--random", "600000", "--p", "2", "--n", "1", "--m", "1"],
         "--random 600000 at p^n = 2 builds 1200000 entries"),
        (["search", "--p", "2", "--n", "19", "--target-ci", "9"],
         "--target-ci 9 at p = 2, n = 19 keeps 94595074 joint counts over its "
         "9-variable subsets and outputs"),
    ],
)
def test_every_work_refusal_is_pinned_and_runs_no_later_stage(capsys, monkeypatch, argv, err):
    def later_stage(*args, **kwargs):
        pytest.fail("a stage after the work check ran")

    for module, name in [
        (spectral, "ci_order"), (spectral, "ci_order_symmetric"), (reference, "consensus"),
        (spectral, "exact_spectrum_conjugates"), (cli, "_exhaustive_chunks"),
        (cli, "_random_chunks"), (reference, "consensus_verdicts"), (spectral, "ParsevalCost"),
    ]:
        monkeypatch.setattr(module, name, later_stage)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_LIMIT, "")
    assert captured.err == f"error: {err}, above the size limit 1000000\n"


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
        # literals past Python's 4,300-digit int conversion limit
        (["analyze", "--poly", "1" * 5000 + " + x1", "--p", "3", "--n", "2"],
         "5000 digits is too long (at position 0)"),
        (["analyze", "--poly", "x1^" + "1" * 5000, "--p", "3", "--n", "2"],
         "5000 digits is too long (at position 3)"),
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


@pytest.mark.parametrize(
    "argv",
    [
        ["crosscheck", "--p", "2", "--n", "2", "--m", "1", "--random", "5", "--seed", "-5"],
        ["crosscheck", "--p", "2", "--n", "2", "--m", "1", "--exhaustive", "--seed", "-5"],
        ["search", "--p", "2", "--n", "3", "--target-ci", "1", "--seed", "-5"],
        # refused before the infeasible target is reported with its seed
        ["search", "--p", "2", "--n", "3", "--target-ci", "4", "--seed", "-5"],
    ],
)
def test_negative_seed_exits_2_before_any_table(capsys, monkeypatch, argv):
    # random.Random(-5) is seeded like random.Random(5), so the run would
    # print seed = -5 and repeat the run of --seed 5
    def later_stage(*args, **kwargs):
        pytest.fail("a table was drawn")

    monkeypatch.setattr(cli, "_random_chunks", later_stage)
    monkeypatch.setattr(cli, "_exhaustive_chunks", later_stage)
    monkeypatch.setattr(spectral, "ParsevalCost", later_stage)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_PARSE, "")
    assert captured.err == "error: --seed must be >= 0, got -5\n"


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
        if res["resiliency_order"] >= 0:
            assert res["balanced"]
            assert res["resiliency_order"] <= res["ci_order"]
        else:
            assert not res["balanced"]
        assert list(res) == ["p", "n", "balanced", "symmetric", "ci_order", "resiliency_order"]
        assert res["p"] == 3 and res["n"] == 3


# ---------------------------------------------------------------------------
# pinned output of every subcommand
# ---------------------------------------------------------------------------

# (argv, whether the spectral method is made to wrongly accept every table,
# exit code, sha256 of stdout).  The lying spectral method is the only way to
# reach crosscheck's disagreement report.  PINNED_SEARCHES pins `search
# --json` when the climb runs, so only its text form is pinned here.
PINNED_OUTPUTS = [
    ("analyze --poly x1*x2+x3 --p 3 --n 3", False, EXIT_OK,
     "b2e0b0e45b17259ce6b33fd0b16e16455a7110c5845923d3b8f9276b8229cc19"),
    ("analyze --poly x1*x2+x3 --p 3 --n 3 --json", False, EXIT_OK,
     "f63e6853e54409a29a8fb4a95995f751d68e850b2bca790bf6232bf94a7aa8cd"),
    ("analyze --poly x1*x2+x3 --p 3 --n 3 --reports", False, EXIT_OK,
     "43782abbbcc56b119a8da5982e6816bcf5245240d6d22856bb909311d6eb3e2d"),
    ("analyze --poly x1*x2+x3 --p 3 --n 3 --reports --json", False, EXIT_OK,
     "0b19ef3e9afec8476baf448204bafa3cebcea9b2e3581f27c0c0d6b555d4e23d"),
    ("analyze --poly x1+x2+x3 --p 2 --n 3 --reports", False, EXIT_OK,
     "ebc599cdc10976f4cd8a64a0cb1179264de6d54cfcc217112a1b0af0946a5de2"),
    # quad1 is not symmetric and immune up to n - 3, so ci_order reads it
    # off the transform
    ("analyze --poly x1*x2+x3+x4+x5+x6+x7+x8+x9+x10+x11+x12 --p 2 --n 12 --json", False, EXIT_OK,
     "a9b8b1509f9539816cb30c2c944b2a94f9a90b238a7f6e90f5e5dc9f3578ff02"),
    ("analyze --poly x1*x2+x3+x4+x5+x6+x7+x8+x9 --p 3 --n 9 --json", False, EXIT_OK,
     "7785cd30c02fbeee3bf1576a3882cdb92198173bc9c94cd9a848217c48254093"),
    # parity is symmetric and immune up to n - 1, so ci_order_symmetric
    # hands over to the transform
    ("analyze --json --poly x1+x2+x3+x4+x5+x6+x7+x8+x9+x10+x11+x12+x13+x14 --p 2 --n 14", False, EXIT_OK,
     "79f6bb6aff37d51a7676d6018984d1aa45b3a3411df7dec0fe8780e742565eda"),
    ("spectrum --poly x1*x2+x3 --p 3 --n 3 --exact-at 2 --tuple 1,2 --tuple 2,3", False, EXIT_OK,
     "14a08e5bd4d11ef00850faa3291da63556bbf1e39868264c58ff409241e5edf5"),
    ("spectrum --poly x1*x2+x3 --p 3 --n 3 --exact-at 2 --tuple 1,2 --tuple 2,3 --json", False, EXIT_OK,
     "c127413e900cab009d5f112d150b9715f7d5f9d50bdaa59c25a6f37598acd6e3"),
    ("spectrum --poly x1*x2+x3 --p 3 --n 3 --exact-at 2 --tuple 1,3 --tuple 3,1 --tuple 1,3", False, EXIT_OK,
     "7a758f16a2f31dcc027ce844df5509320d219343ea637d40222d884cb49a2c7f"),
    ("spectrum --poly x1*x2+x3 --p 3 --n 3 --exact-at 2 --tuple 1,3 --tuple 3,1 --tuple 1,3 --json", False, EXIT_OK,
     "156f305f44372b3944afeecc30bfb33f99c45a34b18d0248cf868f0ea44a26c3"),
    ("spectrum --poly x1+x2 --p 5 --n 2 --exact-at 1", False, EXIT_OK,
     "d27326165aec001583e5d1f90fd07abca6bc76c2ef9e4f89f32885b4a37344ff"),
    ("crosscheck --p 2 --n 2 --m 1 --exhaustive", False, EXIT_OK,
     "5567d7c8e027e8d6a0c49e57b3c63602242c1dbb7a3a07131299e87ae895b0d1"),
    ("crosscheck --p 2 --n 2 --m 1 --exhaustive --json", False, EXIT_OK,
     "513efe8e10c2f5604e8d7601a735e81952f14d7c37fd3bbe41c4cf71a93a7b6b"),
    ("crosscheck --p 3 --n 2 --m 1 --random 25", False, EXIT_OK,
     "07ee1a3bacd152dbd4f409bf7795bdbd0ad317b32b03ec72688a3676db7cb844"),
    ("crosscheck --p 3 --n 2 --m 1 --random 25 --seed 4 --json", False, EXIT_OK,
     "2fe0174b847d70919c1cada69081b4fde2b9b8f1448c4aca643265c77f7d174b"),
    # seeded random families over p = 2, 5 and 97
    ("crosscheck --json --p 2 --n 8 --m 2 --random 60 --seed 7", False, EXIT_OK,
     "db43554d4acaf82e78f03a2368438f243f50548a158c9324d8a2fe97ef3e1dc0"),
    ("crosscheck --json --p 5 --n 3 --m 1 --random 100 --seed 7", False, EXIT_OK,
     "5d5c014ba637cebc0db5d84612a12e37d02bc74ba64de0c83b9c8b6ba7ea20e0"),
    ("crosscheck --json --p 97 --n 1 --m 1 --random 300 --seed 7", False, EXIT_OK,
     "cc94ca44bf1b6687f45ab202cac3f70c24adc383d3d348771f49cd3ad16b587e"),
    # every order of the exhaustive (3,2) family, p = 7 at m = 2, and m = 3
    ("crosscheck --json --exhaustive --p 3 --n 2 --m 2", False, EXIT_OK,
     "527c8bc8c26c7a4194fdbd393d60d0aa58c81ff3494862d2723019531764cf6c"),
    ("crosscheck --json --random 200 --seed 7 --p 7 --n 2 --m 2", False, EXIT_OK,
     "1a73b3a19046fe2659fbc99f8bd5459198e99a1de319bf9e436bd04f98a4fdf6"),
    ("crosscheck --json --random 30 --seed 7 --p 2 --n 10 --m 3", False, EXIT_OK,
     "3be4f1f41bac08581b2ee053fcf69b2dcf99afa88eab0a8e4af8b8fff37a4f59"),
    ("crosscheck --p 2 --n 2 --m 1 --exhaustive", True, EXIT_DISAGREEMENT,
     "cbdef47698e033f8a7cfccb928078c313bb20132e7c08acdc5f272643ad0cfe9"),
    ("crosscheck --p 3 --n 2 --m 1 --random 5 --json", True, EXIT_DISAGREEMENT,
     "6b9a99d3ea4c758940a52045adf69ce1e7368c3b0d0be5c45452127b5dbc9df5"),
    ("search --p 3 --n 2 --target-ci 1 --seed 5 --budget 500", False, EXIT_OK,
     "38b23e2d683e33b2c12450804fe8498c23998fb24b5db768b1214b7e64c31d58"),
    ("search --p 2 --n 6 --target-ci 2 --resilient --seed 5 --budget 300", False, EXIT_UNMET,
     "d975bb4bdaaf8016c3915833f7574ade7ab1252eef9bad96965cc24170026bbe"),
    ("search --p 2 --n 3 --target-ci 3 --resilient", False, EXIT_UNMET,
     "1919d1dadda1f9cb2f7e48082bbd650efd8bda01b584ec3d13b97f06b237a406"),
    ("search --p 2 --n 3 --target-ci 3 --resilient --json", False, EXIT_UNMET,
     "5028df0c98ba7aee0242de60c03b935d1181df3db023b7cf3519c0e30ee7e48e"),
    ("search --p 2 --n 3 --target-ci 4 --json", False, EXIT_UNMET,
     "d93fb46bdf170c8b115320239a5aab347ca3db2e055a612587dfc02be9615040"),
]


@pytest.mark.parametrize("args,lie,code,digest", PINNED_OUTPUTS)
def test_output_is_pinned(capsys, monkeypatch, args, lie, code, digest):
    if lie:
        monkeypatch.setattr(spectral, "first_failing_tuple", lambda f, m: None)
        monkeypatch.setattr(
            spectral, "stratum_vanishes", lambda counts: np.ones(counts.shape[-1], bool))
    got_code, out = run(capsys, *args.split())
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
