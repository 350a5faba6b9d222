"""Seeded request generators, input set-up and output checkers.

A workload is a list of rounds.  Every round holds the same request classes
in the same numbers, with fresh random instances, so any run made of whole
rounds has the same mix whatever the seed.  Requests are argv lists for
`cispectra.cli.main`; a token "@key" stands for the path of table file
`key`, which set-up writes before the timed loop.

Expected answers come from three sources that share no code with the
verdict path: closed-form orders of the generated families, the `reference`
oracles, and numpy recomputations of counts and float sums.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from cispectra import (
    PFunction,
    parse_polynomial,
    random_function,
    read_table,
    reference,
    write_table,
)

WORKLOADS = ("analyze-immune", "large-table", "crosscheck", "search")

# Rounds generated per run.  A run longer than this many rounds cycles.
ROUNDS = 8


@dataclass
class Request:
    """One CLI call: its class label, argv and what the checker expects."""

    cls: str
    argv: list[str]
    p: int
    n: int
    expect: dict = field(default_factory=dict)

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class TableSpec:
    """A random table that set-up writes to a file; balanced tables are a
    seeded shuffle of the balanced value multiset."""

    key: str
    p: int
    n: int
    balanced: bool
    seed: int


@dataclass
class Workload:
    rounds: list[list[Request]]
    tables: list[TableSpec] = field(default_factory=list)

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with at least ten samples of one round
        beyond it.  Fixed per workload, so a faster program that fits more
        rounds in a run is compared at the same percentile."""
        return math.floor(100 * (1 - 10 / len(self.rounds[0])))


def _rng(workload: str, seed: int, tag) -> random.Random:
    return random.Random(f"{workload}/{seed}/{tag}")


# --------------------------------------------------------------------------
# Immune families with closed-form orders
# --------------------------------------------------------------------------

# (p, n) sizes of analyze-immune.  (2,8) and (3,6) are the largest sizes at
# which the factorial tuple scan still ends within seconds.
IMMUNE_SIZES = ((2, 6), (2, 7), (2, 8), (3, 4), (3, 5), (3, 6), (5, 3), (5, 4), (7, 3))
# family -> number of variables in the quadratic part q(x_S)
FAMILY_SUPPORT = {"linear": 0, "linear-equal": 0, "quad1": 2, "quad2": 4}


def immune_families(p: int, n: int) -> list[str]:
    """Families that give a balanced function of known order at (p, n): the
    quadratic part must leave at least one linear variable.  For p = 2
    every nonzero linear form has equal coefficients, so "linear-equal" is
    only a separate family for p > 2."""
    fams = ["linear"] + (["linear-equal"] if p > 2 else []) + ["quad1", "quad2"]
    return [f for f in fams if FAMILY_SUPPORT[f] < n]


def immune_function(rng: random.Random, p: int, n: int, family: str, labels=None):
    """(polynomial text, expected analyze fields) for one family member.

    The function is q(x_S) + sum_{i not in S} c_i x_i with every c_i
    nonzero and q unbalanced (empty, x_a*x_b or x_a*x_b + x_c*x_d), on
    randomly relabelled variables (or on `labels`, a permutation of 1..n
    whose first |S| entries form S).  Fixing fewer than n - |S| variables
    leaves a free linear variable, so the output stays uniform; fixing all
    of x_R leaves q plus a constant, which is unbalanced.  Hence
    ci_order = resiliency_order = n - |S| - 1 and the function is balanced.
    """
    k = FAMILY_SUPPORT[family]
    if labels is None:
        labels = rng.sample(range(1, n + 1), n)
    support, rest = labels[:k], sorted(labels[k:])
    if family == "linear-equal":
        c = rng.randrange(1, p)
        coeffs = [c] * len(rest)
    else:
        coeffs = [rng.randrange(1, p) for _ in rest]
    terms = [f"x{support[i]}*x{support[i + 1]}" for i in range(0, k, 2)]
    terms += [(f"{c}*" if c != 1 else "") + f"x{i}" for c, i in zip(coeffs, rest)]
    order = n - k - 1
    expect = {
        "p": p,
        "n": n,
        "balanced": True,
        "symmetric": k == 0 and len(set(coeffs)) == 1,
        "ci_order": order,
        "resiliency_order": order,
    }
    return " + ".join(terms), expect, labels


def _poly_argv(cmd: list[str], text: str, p: int, n: int) -> list[str]:
    return cmd + ["--poly", text, "--p", str(p), "--n", str(n)]


def _analyze_immune_round(rng: random.Random) -> list[Request]:
    """Two members of every family and size.  The second mirrors the first's
    labels (x_i -> x_(n+1-i)): where the labels put the witness of the
    first failing order decides how far the tuple scan runs, and a mirrored
    pair evens that out within a round."""
    out = []
    for p, n in IMMUNE_SIZES:
        for fam in immune_families(p, n):
            text, expect, labels = immune_function(rng, p, n, fam)
            mirror, expect2, _ = immune_function(rng, p, n, fam, [n + 1 - i for i in labels])
            for t, e in ((text, expect), (mirror, expect2)):
                out.append(Request(f"{fam}-{p}-{n}", _poly_argv(["analyze", "--json"], t, p, n), p, n, e))
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# large-table
# --------------------------------------------------------------------------

LARGE_SIZES = tuple((2, n) for n in range(14, 20)) + tuple((3, n) for n in range(9, 13)) + tuple(
    (5, n) for n in range(6, 9)
)
# spectrum --full computes the autocorrelation by its O(N^2) definition.
FULL_SPECTRUM_MAX = 3**9


def _large_tables(seed: int) -> list[TableSpec]:
    rng = _rng("large-table", seed, "tables")
    return [
        TableSpec(f"t{p}_{n}", p, n, balanced=i % 2 == 1, seed=rng.randrange(2**31))
        for i, (p, n) in enumerate(LARGE_SIZES)
    ]


def _large_round(rng: random.Random, tables: list[TableSpec]) -> list[Request]:
    out = []
    for t in tables:
        path = "@" + t.key
        out.append(Request(f"analyze-{t.p}-{t.n}", ["analyze", "--json", path], t.p, t.n, {"table": t.key}))
        if t.p**t.n <= FULL_SPECTRUM_MAX:
            out.append(Request(f"full-{t.p}-{t.n}", ["spectrum", "--full", path], t.p, t.n, {"table": t.key}))
        for m in (1, 1, 2, 2):
            tuples = [tuple(rng.sample(range(1, t.n + 1), m)) for _ in range(2)]
            argv = ["spectrum", "--json", "--exact-at", str(m)]
            for tup in tuples:
                argv += ["--tuple", ",".join(map(str, tup))]
            out.append(
                Request(f"exact{m}-{t.p}-{t.n}", argv + [path], t.p, t.n,
                        {"table": t.key, "m": m, "tuples": tuples})
            )
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# crosscheck
# --------------------------------------------------------------------------

# Counts of m-CI functions in the exhaustive families; every method must
# report exactly these.
EXHAUSTIVE_CI_COUNTS = {(2, 3, 1): 18, (2, 3, 2): 4, (2, 3, 3): 2, (3, 2, 1): 51, (3, 2, 2): 3}
# (p, n, K): K sized so one request takes about 50 ms.
CROSSCHECK_RANDOM = (
    (2, 4, 300), (2, 5, 300), (2, 6, 200), (2, 7, 100), (2, 8, 60),
    (3, 3, 250), (3, 4, 120), (5, 2, 300), (5, 3, 100),
)
# Small immune functions whose six-method reports cover CI inputs.
CROSSCHECK_REPORTS = ((2, 4, "quad1"), (2, 5, "linear"), (3, 3, "linear"), (3, 4, "quad1"),
                      (5, 3, "linear-equal"), (7, 2, "linear"))


def _crosscheck_round(rng: random.Random) -> list[Request]:
    out = []
    for (p, n, m), count in EXHAUSTIVE_CI_COUNTS.items():
        argv = ["crosscheck", "--json", "--exhaustive", "--p", str(p), "--n", str(n), "--m", str(m)]
        out.append(Request(f"exhaustive-{p}-{n}-m{m}", argv, p, n,
                           {"checked": p ** (p**n), "ci_count": count}))
    for p, n, k in CROSSCHECK_RANDOM:
        for m in (1, 2):
            for _ in range(2):
                s = rng.randrange(2**31)
                argv = ["crosscheck", "--json", "--random", str(k), "--seed", str(s),
                        "--p", str(p), "--n", str(n), "--m", str(m)]
                out.append(Request(f"random-{p}-{n}-m{m}", argv, p, n, {"checked": k, "seed": s}))
    for p, n, fam in CROSSCHECK_REPORTS:
        text, expect, _ = immune_function(rng, p, n, fam)
        argv = _poly_argv(["analyze", "--json", "--reports"], text, p, n)
        out.append(Request(f"reports-{p}-{n}", argv, p, n, expect))
    rng.shuffle(out)
    return out


# --------------------------------------------------------------------------
# search
# --------------------------------------------------------------------------

# (p, n, target, resilient, budget, requests per round).  Budgets keep one
# request between 0.03 and 0.2 s; the targets marked "miss" are not met by
# the seed's climb.  The three slowest classes get a fourth request, so
# the tail percentile falls inside their group rather than at its edge.
SEARCH_CLASSES = (
    (2, 4, 1, False, 2000, 3), (2, 4, 1, True, 2000, 3), (2, 4, 2, False, 1000, 3),  # miss
    (2, 5, 1, True, 2000, 3), (2, 5, 2, False, 1000, 4),  # miss
    (2, 6, 1, False, 1000, 3), (2, 6, 1, True, 1000, 3), (2, 6, 2, True, 300, 4),  # miss
    (2, 8, 1, False, 300, 3), (2, 8, 3, False, 10, 4),  # miss
    (3, 3, 1, False, 1500, 3), (3, 3, 1, True, 1500, 3),
    (3, 4, 1, True, 800, 3), (3, 4, 1, False, 800, 3),  # first: miss
    (5, 2, 1, False, 1500, 3), (5, 2, 1, True, 1500, 3),
)


def _search_round(rng: random.Random) -> list[Request]:
    out = []
    for p, n, target, resilient, budget, count in SEARCH_CLASSES:
        for _ in range(count):
            s = rng.randrange(2**31)
            argv = ["search", "--json", "--seed", str(s), "--budget", str(budget),
                    "--p", str(p), "--n", str(n), "--target-ci", str(target)]
            if resilient:
                argv.append("--resilient")
            cls = f"t{target}{'r' if resilient else ''}-{p}-{n}"
            out.append(Request(cls, argv, p, n,
                               {"seed": s, "target": target, "resilient": resilient, "budget": budget}))
    rng.shuffle(out)
    return out


def generate(name: str, seed: int) -> Workload:
    """The workload's rounds for one seed; equal seeds give equal requests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if name == "large-table":
        tables = _large_tables(seed)
        rounds = [_large_round(_rng(name, seed, r), tables) for r in range(ROUNDS)]
        return Workload(rounds, tables)
    make = {"analyze-immune": _analyze_immune_round, "crosscheck": _crosscheck_round,
            "search": _search_round}[name]
    return Workload([make(_rng(name, seed, r)) for r in range(ROUNDS)])


# --------------------------------------------------------------------------
# Set-up (timed as setup_s) and expected-answer bookkeeping (not timed)
# --------------------------------------------------------------------------

def build_table(spec: TableSpec) -> PFunction:
    if not spec.balanced:
        return random_function(spec.p, spec.n, spec.seed)
    size = spec.p**spec.n
    values = [v for v in range(spec.p) for _ in range(size // spec.p)]
    random.Random(spec.seed).shuffle(values)
    return PFunction(spec.p, spec.n, tuple(values))


def setup(wl: Workload, table_dir: str) -> dict:
    """Build every input through the library: tables are generated and
    written with write_table; polynomial requests are tabulated once with
    parse_polynomial, which rejects a malformed generator output before the
    timed loop.  Returns {"paths": {key: path}, "tables": {key: PFunction}}."""
    paths, tables = {}, {}
    for spec in wl.tables:
        f = build_table(spec)
        path = os.path.join(table_dir, spec.key + ".txt")
        with open(path, "w") as fh:
            fh.write(write_table(f))
        paths[spec.key] = path
        tables[spec.key] = f
    for rnd in wl.rounds:
        for req in rnd:
            if "--poly" in req.argv:
                parse_polynomial(req.argv[req.argv.index("--poly") + 1], req.p, req.n)
    return {"paths": paths, "tables": tables}


def _cosets_equal(counts: np.ndarray, order: int, p: int) -> bool:
    """sum_u counts[u] zeta^u = 0 for zeta a primitive order-th root of unity
    (order = p^m) iff counts is constant on every coset r + (order/p)*Z,
    because the kernel of Z[z]/(z^order - 1) -> Z[zeta] is spanned by the
    shifts of the cyclotomic polynomial sum_j z^(j*order/p)."""
    return bool((counts.reshape(p, order // p) == counts[: order // p]).all())


def exact_expectation(vals: np.ndarray, p: int, n: int, m: int, tup) -> dict:
    """Zero-ness of the order-m critical values at one tuple, and the
    complex value at a = 1, from counts over the table."""
    order, half = p**m, p ** (m - 1)
    vals = vals.astype(np.int64)
    k = np.arange(p**n, dtype=np.int64)
    e = sum(((k // p ** (i - 1)) % p) * p**r for r, i in enumerate(tup))
    zeros, value = [], None
    for a in range(1, p):
        counts = np.bincount((vals * half - a * e) % order, minlength=order)
        zeros.append(_cosets_equal(counts, order, p))
        if a == 1:
            value = complex(counts @ np.exp(2j * np.pi * np.arange(order) / order))
    return {"zero": zeros[0], "orbit_zero": all(zeros), "value": value}


def bookkeeping(wl: Workload, ctx: dict) -> None:
    """Expected answers that depend on the built tables, one table at a
    time; ctx["expect"][key] keeps the table values for the checks of
    spectrum --exact-at, which run after the loop and only on requests
    that ran."""
    ctx["expect"] = {}
    for spec in wl.tables:
        f = ctx["tables"].pop(spec.key)
        p, n = spec.p, spec.n
        vals = np.asarray(f.table, dtype=np.int64)
        arr = vals.reshape((p,) * n)
        counts = np.bincount(vals, minlength=p)
        balanced = bool((counts == counts[0]).all())  # a random table can be balanced by chance
        if reference.definition_witness(f, 1) is None:
            raise RuntimeError(f"table {spec.key} is first-order immune; its orders are not pinned")
        ctx["expect"][spec.key] = {
            "vals": vals.astype(np.int8),
            "analyze": {
                "p": p,
                "n": n,
                "balanced": balanced,
                "symmetric": all(np.array_equal(arr, arr.swapaxes(i, i + 1)) for i in range(n - 1)),
                "ci_order": 0,
                "resiliency_order": 0 if balanced else -1,
            },
            "dft0": complex(np.exp(2j * np.pi * vals / p).sum()),
        }


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------

class CheckFailed(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _check_analyze(req: Request, obj: dict, table: dict | None):
    expect = table["analyze"] if table else req.expect
    for key in ("p", "n", "balanced", "symmetric", "ci_order", "resiliency_order"):
        _require(obj.get(key) == expect[key], f"{key} = {obj.get(key)!r}, expected {expect[key]!r}")
    if "--reports" in req.argv:
        reports = obj.get("reports")
        _require(isinstance(reports, list) and len(reports) == req.n, "missing reports")
        for rep in reports:
            want = rep["m"] <= expect["ci_order"]
            _require(rep["consensus"], f"no consensus at m={rep['m']}")
            _require(all(v == want for v in rep["verdicts"].values()), f"verdicts at m={rep['m']}")


def _close(z, ref, size) -> bool:
    return abs(complex(*z) - ref) <= 1e-6 * size


def _check_full(req: Request, obj: dict, table: dict):
    size = req.p**req.n
    _require(obj["p"] == req.p and obj["n"] == req.n, "header")
    _require(len(obj["dft"]) == size and len(obj["autocorrelation"]) == size, "lengths")
    _require(_close(obj["autocorrelation"][0], size, size), "autocorrelation[0] != N")
    _require(_close(obj["dft"][0], table["dft0"], size), "dft[0] != sum of omega^f")


def _check_exact(req: Request, obj: dict, table: dict):
    p, n, m = req.p, req.n, req.expect["m"]
    order = p**m
    _require((obj["p"], obj["n"], obj["m"]) == (p, n, m), "header")
    _require(obj["critical_index"] == p ** (n - m), "critical_index")
    results = obj["results"]
    _require([tuple(r["tuple"]) for r in results] == req.expect["tuples"], "tuples")
    roots = np.exp(2j * np.pi * np.arange(order - order // p) / order)
    for r, tup in zip(results, req.expect["tuples"]):
        want = exact_expectation(table["vals"], p, n, m, tup)
        coeffs = np.asarray(r["coeffs"], dtype=np.float64)
        _require(len(coeffs) == order - order // p, "coefficient count")
        _require(r["zero"] == want["zero"] == (not coeffs.any()), "zero")
        _require(r["orbit_zero"] == want["orbit_zero"], "orbit_zero")
        _require(abs(coeffs @ roots - want["value"]) <= 1e-6 * p**n, "value")


def _check_crosscheck(req: Request, rc: int, obj: dict):
    _require(rc == 0, f"exit code {rc}")
    _require(obj["disagreements"] == 0, "disagreements")
    _require(obj["checked"] == req.expect["checked"], "checked count")
    counts = set(obj["ci_counts"].values())
    _require(len(obj["ci_counts"]) == 6 and len(counts) == 1, f"ci_counts differ: {obj['ci_counts']}")
    if "ci_count" in req.expect:
        _require(counts == {req.expect["ci_count"]}, f"ci_counts {counts} != {req.expect['ci_count']}")
    if "seed" in req.expect:
        _require(obj.get("seed") == req.expect["seed"], "seed echo")


def _check_search(req: Request, rc: int, obj: dict) -> dict:
    e = req.expect
    _require(obj["seed"] == e["seed"] and obj["target_ci"] == e["target"], "echo")
    _require(obj["resilient"] == e["resilient"], "resilient echo")
    _require(1 <= obj["evaluations"] <= e["budget"], "evaluations outside budget")
    _require(rc == (0 if obj["found"] else 4), f"exit code {rc} with found={obj['found']}")
    f = read_table(obj["table"])
    _require((f.p, f.n) == (req.p, req.n), "table size")
    if obj["found"]:
        rep = reference.consensus(f, e["target"])
        _require(all(rep.verdicts.values()), f"found table is not {e['target']}-CI")
        if e["resilient"]:
            counts = np.bincount(np.asarray(f.table), minlength=f.p)
            _require((counts == counts[0]).all(), "found table is not balanced")
    return {"found": obj["found"], "evaluations": obj["evaluations"]}


def check(req: Request, rc, stdout: str, tables: dict) -> dict:
    """Raise CheckFailed unless the output is right; return facts the
    metrics use (search: found and evaluations).  `tables` is the
    per-table expectation that bookkeeping() built."""
    if req.subcommand != "search" and req.subcommand != "crosscheck":
        _require(rc == 0, f"exit code {rc}")
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"unparsable stdout: {e}") from None
    table = tables.get(req.expect.get("table"))
    try:
        if req.subcommand == "analyze":
            _check_analyze(req, obj, table)
        elif req.subcommand == "spectrum":
            (_check_full if "--full" in req.argv else _check_exact)(req, obj, table)
        elif req.subcommand == "crosscheck":
            _check_crosscheck(req, rc, obj)
        else:
            return _check_search(req, rc, obj)
    except (KeyError, TypeError, IndexError) as e:
        raise CheckFailed(f"malformed output: {e!r}") from None
    return {}
