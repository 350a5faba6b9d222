"""Command-line front end.

Subcommands: analyze (orders and structure of one function), spectrum (float
dump or exact critical values), crosscheck (six-method consensus over a
family of functions), search (random-restart hill climb for CI/resilient
functions).

Exit codes: 0 success, 1 cross-check disagreement, 2 parse/usage error,
3 resource limit exceeded, 4 search target unmet.

Functions come either from a truth-table file ('-' reads stdin) or from
--poly with --p/--n.  The desk-scale size limit is p^n <= 10^6 by default;
the CI_SPECTRA_MAX_N environment variable (a positive integer, the maximum
table size) raises or lowers it.  Every randomized subcommand accepts
--seed and otherwise uses a fixed default seed that is printed with the
results, so all output is reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

from . import reference, spectral
from .cyclotomic import CycloElement
from .ptable import (
    DEFAULT_SIZE_LIMIT,
    MAX_TABLE_ENTRIES,
    ParseError,
    PFunction,
    SizeLimitError,
    VariableTuple,
    _check_p_n,
    _exceeds,
    _exhaustive_chunks,
    _random_chunks,
    _random_table,
    _table_header,
    is_balanced,
    is_symmetric,
    parse_polynomial,
    read_table,
    write_table,
)

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3
EXIT_UNMET = 4

DEFAULT_SEED = 1729
DEFAULT_BUDGET = 20000


def _env_limit() -> int:
    raw = os.environ.get("CI_SPECTRA_MAX_N")
    if raw is None:
        return DEFAULT_SIZE_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ParseError(f"CI_SPECTRA_MAX_N must be a positive integer, got {raw!r}")
    # no table may pass the hard cap, so primality tests stay below it too
    return min(limit, MAX_TABLE_ENTRIES)


def _load_function(args, limit: int) -> PFunction:
    if args.poly is not None and args.table is not None:
        raise ParseError("give a truth-table file or --poly, not both")
    if args.poly is not None:
        if args.p is None or args.n is None:
            raise ParseError("--poly requires --p and --n")
        _check_p_n(args.p, args.n, limit)
        return parse_polynomial(args.poly, args.p, args.n)
    if args.table is None:
        raise ParseError("provide a truth-table file or --poly")
    if args.table == "-":
        text = sys.stdin.read()
    else:
        with open(args.table) as fh:
            text = fh.read()
    # the header alone decides the size limit, before the body is parsed
    p, n, _ = _table_header(text)
    _check_p_n(p, n, limit)
    return read_table(text)


def _emit(args, record: dict, text) -> None:
    """Print record as one JSON line under --json, else the lines text(record)."""
    print(json.dumps(record) if args.json else "\n".join(text(record)))


def analyze_function(f: PFunction, reports: bool = False) -> dict:
    """The analyze record of f: p, n, balanced, symmetric, ci_order,
    resiliency_order and, when asked, the consensus report of every order."""
    symmetric = is_symmetric(f)
    ci = spectral.ci_order_symmetric(f) if symmetric else spectral.ci_order(f)
    balanced = is_balanced(f)
    record = {"p": f.p, "n": f.n, "balanced": balanced, "symmetric": symmetric, "ci_order": ci}
    # m-resilient iff balanced and m-CI; a balanced f is never n-CI
    record["resiliency_order"] = ci if balanced else -1
    if reports:
        record["reports"] = [reference.consensus(f, m).record() for m in range(1, f.n + 1)]
    return record


def _analyze_text(record: dict) -> list[str]:
    lines = [f"{k} = {json.dumps(v)}" for k, v in record.items() if k != "reports"]
    for rep in record.get("reports", ()):
        verdicts = " ".join(f"{k}={json.dumps(v)}" for k, v in rep["verdicts"].items())
        lines.append(f"m={rep['m']} consensus={json.dumps(rep['consensus'])} {verdicts}")
    return lines


def _oracle_work(p: int, n: int, m: int) -> int:
    """Steps of one consensus at order m: one pass over the p^n table and
    one p x p count-matrix fold per c-vector of weight 1..m."""
    return sum(math.comb(n, w) * (p - 1) ** w for w in range(1, m + 1)) * (p**n + p * p)


def _reports_work(p: int, n: int) -> int:
    """Steps of --reports: one consensus at each order m = 1..n."""
    return sum(_oracle_work(p, n, m) for m in range(1, n + 1))


def cmd_analyze(args) -> int:
    limit = _env_limit()
    f = _load_function(args, limit)
    work = _reports_work(f.p, f.n) if args.reports else 0
    if work > limit:
        raise SizeLimitError(
            f"--reports at p = {f.p}, n = {f.n} takes {work} steps, "
            f"above the size limit {limit}"
        )
    _emit(args, analyze_function(f, reports=args.reports), _analyze_text)
    return EXIT_OK


def _parse_tuples(args, m: int, n: int) -> list[VariableTuple]:
    if not args.tuple:
        return [VariableTuple(tuple(range(1, m + 1)))]
    out = []
    for spec in args.tuple:
        try:
            idx = tuple(int(s) for s in spec.split(","))
        except ValueError:
            raise ParseError(f"--tuple expects comma-separated integers, got {spec!r}") from None
        if len(idx) != m:
            raise ParseError(f"--tuple {spec!r} has {len(idx)} entries, expected m = {m}")
        if any(not 1 <= i <= n for i in idx):
            raise ParseError(f"--tuple {spec!r} has indices outside 1..{n}")
        out.append(VariableTuple(idx))
    return out


def cmd_spectrum(args) -> int:
    if args.tuple and args.exact_at is None:
        raise ParseError("--tuple requires --exact-at")
    limit = _env_limit()
    f = _load_function(args, limit)
    if args.full:
        print(spectral.SpectrumDump.compute(f).to_json())
        return EXIT_OK
    m = args.exact_at
    if not 1 <= m <= f.n:
        raise ParseError(f"--exact-at must be in 1..{f.n}, got {m}")
    # exact_spectrum_conjugates takes (p-1) * p^(m+1) Python steps per tuple
    steps = (f.p - 1) * f.p ** (m + 1)
    if steps > limit:
        raise SizeLimitError(
            f"--exact-at {m} at p = {f.p} takes {steps} steps, above the size limit {limit}"
        )
    tuples = _parse_tuples(args, m, f.n)
    # orbit[0] is the value at p^(n-m) itself; the CI-relevant vanishing is
    # the whole orbit (indices a*p^(n-m), a = 1..p-1).  A repeated tuple is
    # evaluated once.
    orbits = {t: spectral.exact_spectrum_conjugates(f, m, t) for t in dict.fromkeys(tuples)}
    record = {
        "p": f.p,
        "n": f.n,
        "m": m,
        "critical_index": spectral.critical_index(f, m),
        "results": [
            {
                "tuple": list(t.indices),
                "coeffs": list(orbits[t][0].coeffs),
                "zero": orbits[t][0].is_zero(),
                "orbit_zero": all(v.is_zero() for v in orbits[t]),
            }
            for t in tuples
        ],
    }
    _emit(args, record, _spectrum_text)
    return EXIT_OK


def _spectrum_text(record: dict) -> list[str]:
    lines = [f"critical index p^(n-m) = {record['critical_index']}"]
    for r in record["results"]:
        label = ",".join(map(str, r["tuple"]))
        value = CycloElement(record["p"], record["m"], r["coeffs"]).to_text()
        lines.append(
            f"tuple ({label}): {value}  "
            f"zero={json.dumps(r['zero'])} orbit_zero={json.dumps(r['orbit_zero'])}"
        )
    return lines


def cmd_crosscheck(args) -> int:
    limit = _env_limit()
    p, n, m = args.p, args.n, args.m
    _check_p_n(p, n, limit)
    if not 1 <= m <= n:
        raise ParseError(f"--m must be in 1..{n}, got {m}")
    if args.random is not None and args.random < 0:
        raise ParseError(f"--random must be >= 0, got {args.random}")
    # checked per function, and only when some function is built
    work = _oracle_work(p, n, m)
    if (args.exhaustive or args.random) and work > limit:
        raise SizeLimitError(
            f"consensus at p = {p}, n = {n}, m = {m} takes {work} steps per function, "
            f"above the size limit {limit}"
        )
    size = p**n
    rows = reference._chunk_rows(p, n, m)
    seed = None
    if args.exhaustive:
        # p^size functions of size entries each, like --random below; the
        # count p^size is never built, as it can have thousands of digits
        if _exceeds(p, size, limit // size):
            raise SizeLimitError(
                f"exhaustive family has {p}^{size} functions of {size} entries, "
                f"above the size limit {limit}"
            )
        chunks = _exhaustive_chunks(p, n, rows)
    else:
        if args.random * size > limit:
            raise SizeLimitError(
                f"--random {args.random} at p^n = {size} builds {args.random * size} entries, "
                f"above the size limit {limit}"
            )
        seed = args.seed if args.seed is not None else DEFAULT_SEED
        rng = random.Random(seed)
        chunks = _random_chunks(rng, p, n, args.random, rows)
    ci_counts = {name: 0 for name in reference.METHOD_NAMES}
    checked = 0
    disagreements = 0
    first_bad = None
    for tables in chunks:
        verdicts = reference.consensus_verdicts(tables, p, n, m)
        checked += len(tables)
        for name, v in verdicts.items():
            ci_counts[name] += int(v.sum())
        # a table's methods agree iff all or none of them accept it
        votes = sum(v.astype(int) for v in verdicts.values())
        (split,) = (votes % len(verdicts) != 0).nonzero()
        disagreements += len(split)
        if first_bad is None and len(split):
            f = PFunction(p, n, tables[split[0]].tolist())
            first_bad = {"table": write_table(f), "report": reference.consensus(f, m).record()}
    record = {
        "p": p,
        "n": n,
        "m": m,
        "mode": "exhaustive" if args.exhaustive else "random",
        "checked": checked,
        "ci_counts": ci_counts,
        "disagreements": disagreements,
    }
    if seed is not None:
        record["seed"] = seed
    if first_bad is not None:
        record["first_disagreement"] = first_bad
    _emit(args, record, _crosscheck_text)
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def _crosscheck_text(record: dict) -> list[str]:
    lines = [f"seed = {record['seed']}"] if "seed" in record else []
    lines.append(
        f"checked = {record['checked']} functions "
        f"(p={record['p']}, n={record['n']}, m={record['m']})"
    )
    lines += [f"ci_count[{k}] = {v}" for k, v in record["ci_counts"].items()]
    lines.append(f"disagreements = {record['disagreements']}")
    if "first_disagreement" in record:
        bad = record["first_disagreement"]
        lines += ["first disagreement:", bad["table"].rstrip("\n"), json.dumps(bad["report"])]
    return lines


def _search_start(rng: random.Random, p: int, n: int, resilient: bool) -> PFunction:
    if not resilient:
        return _random_table(rng, p, n)
    values = [v for v in range(p) for _ in range(p ** (n - 1))]
    rng.shuffle(values)
    return PFunction(p, n, tuple(values))


def _search_mutate(
    rng: random.Random, table: list[int], p: int, resilient: bool
) -> list[tuple[int, int]]:
    """One random move on table, as (index, new value) changes; table is
    left as it is."""
    if resilient:
        # swap two differing entries; preserves the output multiset
        while True:
            i = rng.randrange(len(table))
            j = rng.randrange(len(table))
            if table[i] != table[j]:
                return [(i, table[j]), (j, table[i])]
    i = rng.randrange(len(table))
    return [(i, (table[i] + rng.randrange(1, p)) % p)]


def cmd_search(args) -> int:
    limit = _env_limit()
    p, n, target = args.p, args.n, args.target_ci
    _check_p_n(p, n, limit)
    if args.budget < 1:
        raise ParseError(f"--budget must be >= 1, got {args.budget}")
    if target < 0:
        raise ParseError(f"--target-ci must be >= 0, got {target}")
    seed = args.seed if args.seed is not None else DEFAULT_SEED

    infeasible = None
    if target > n:
        infeasible = f"no function of {n} variables is CI of order {target} > n"
    elif args.resilient and target > n - 1:
        infeasible = (
            f"no function of {n} variables is {target}-resilient; "
            f"fixing {target} >= n variables leaves nothing to balance"
        )
    if infeasible is not None:
        _emit(args, {"seed": seed, "found": False, "infeasible": infeasible}, _search_text)
        return EXIT_UNMET
    # the climb's cost holds the joint counts of every target-subset and the
    # output histogram
    cells = math.comb(n, target) * p ** (target + 1) + p
    if cells > limit:
        raise SizeLimitError(
            f"--target-ci {target} at p = {p}, n = {n} keeps {cells} joint counts "
            f"over its {target}-variable subsets and outputs, above the size limit {limit}"
        )

    if args.output:
        # refuse an unwritable path before the climb, not after it
        open(args.output, "a").close()

    rng = random.Random(seed)
    stall_limit = 8 * p**n
    evals = 0
    best = None  # (cost, table) of the lowest-cost climb so far
    while evals < args.budget:
        # a resilient start is balanced and swaps keep it so, so the cost
        # charges no imbalance
        climb = spectral.ParsevalCost(_search_start(rng, p, n, args.resilient), target)
        evals += 1
        stall = 0
        while climb.cost > 0 and stall < stall_limit and evals < args.budget:
            changes = _search_mutate(rng, climb.table, p, args.resilient)
            if climb.cost_after(changes) < climb.cost:
                climb.apply(changes)
                stall = 0
            else:
                stall += 1
            evals += 1
        # a climb accepts only lower costs, so its last table is its best
        if best is None or climb.cost < best[0]:
            best = climb.cost, tuple(climb.table)
        if climb.cost == 0:
            break

    result = PFunction(p, n, best[1])
    # the claim must survive the full library tests, not just the cost function;
    # target <= n - 1 when resilient, where resiliency_order >= target decides it
    analysis = analyze_function(result)
    met = (
        best[0] == 0
        and analysis["ci_order"] >= target
        and (not args.resilient or analysis["resiliency_order"] >= target)
    )
    record = {
        "seed": seed,
        "target_ci": target,
        "resilient": args.resilient,
        "found": met,
        "evaluations": evals,
        "table": write_table(result),
        "analysis": analysis,
    }
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(record["table"])
    _emit(args, record, _search_text)
    return EXIT_OK if met else EXIT_UNMET


def _search_text(record: dict) -> list[str]:
    lines = [f"seed = {record['seed']}"]
    if "infeasible" in record:
        return lines + [f"infeasible: {record['infeasible']}"]
    target = f"target: ci_order >= {record['target_ci']}"
    analysis = record["analysis"]
    return lines + [
        target + (", resilient" if record["resilient"] else ""),
        f"evaluations = {record['evaluations']}",
        f"found = {json.dumps(record['found'])}",
        record["table"].rstrip("\n"),
        f"ci_order = {analysis['ci_order']}",
        f"resiliency_order = {analysis['resiliency_order']}",
    ]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cispectra",
        description="Correlation-immunity and resiliency tests for p-ary functions",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("table", nargs="?", help="truth-table file, '-' for stdin")
        sp.add_argument("--poly", help="polynomial over x1..xn (needs --p and --n)")
        sp.add_argument("--p", type=int, help="prime modulus (with --poly)")
        sp.add_argument("--n", type=int, help="number of variables (with --poly)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    a = sub.add_parser("analyze", help="orders and structure of one function")
    add_input(a)
    a.add_argument(
        "--reports",
        action="store_true",
        help="include six-method consensus reports for every order",
    )
    a.set_defaults(func=cmd_analyze)

    s = sub.add_parser("spectrum", help="float spectrum dump or exact critical values")
    add_input(s)
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--full", action="store_true", help="full float DFT + autocorrelation JSON")
    g.add_argument("--exact-at", type=int, metavar="M", help="exact value(s) at index p^(n-M)")
    s.add_argument(
        "--tuple",
        action="append",
        metavar="I1,..,IM",
        help="variable tuple for --exact-at; repeatable; default 1,..,M",
    )
    s.set_defaults(func=cmd_spectrum)

    c = sub.add_parser("crosscheck", help="six-method consensus over a family")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True, help="immunity order to test")
    gg = c.add_mutually_exclusive_group(required=True)
    gg.add_argument("--exhaustive", action="store_true", help="every function on F_p^n")
    gg.add_argument("--random", type=int, metavar="K", help="K seeded random functions")
    c.add_argument("--seed", type=int, help=f"PRNG seed (default {DEFAULT_SEED}, printed)")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_crosscheck)

    se = sub.add_parser("search", help="hill-climb for a CI/resilient function")
    se.add_argument("--p", type=int, required=True)
    se.add_argument("--n", type=int, required=True)
    se.add_argument("--target-ci", type=int, required=True, dest="target_ci")
    se.add_argument("--resilient", action="store_true", help="also require balanced restrictions")
    se.add_argument("--seed", type=int, help=f"PRNG seed (default {DEFAULT_SEED}, printed)")
    se.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="max cost evaluations")
    se.add_argument("--output", metavar="PATH", help="also write the table to PATH")
    se.add_argument("--json", action="store_true")
    se.set_defaults(func=cmd_search)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except (ParseError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
