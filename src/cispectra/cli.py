"""Command-line front end.

Subcommands: analyze (orders and structure of one function), spectrum (float
dump or exact critical values), crosscheck (six-method consensus over a
family of functions), search (random-restart hill climb for CI/resilient
functions).

Exit codes: 0 success, 1 cross-check disagreement, 2 parse/usage error,
3 resource limit exceeded, 4 search target unmet.

Functions come either from a truth-table file ('-' reads stdin) or from
--poly with --p/--n.  The desk-scale size limit is p^n <= 10^6 by default;
the CI_SPECTRA_MAX_N environment variable (a plain integer, the maximum
table size) raises or lowers it.  Every randomized subcommand accepts
--seed and otherwise uses a fixed default seed that is printed with the
results, so all output is reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass

from . import reference, spectral
from .ptable import (
    DEFAULT_SIZE_LIMIT,
    MAX_TABLE_ENTRIES,
    ParseError,
    PFunction,
    SizeLimitError,
    VariableTuple,
    _check_p_n,
    _exceeds,
    _joint_counts,
    all_functions,
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
# Exhaustive cross-checks refuse families larger than this.
MAX_EXHAUSTIVE = 1_000_000


def _size_limit() -> int:
    raw = os.environ.get("CI_SPECTRA_MAX_N")
    if raw is None:
        return DEFAULT_SIZE_LIMIT
    try:
        # no table may pass the hard cap, so primality tests stay below it too
        return min(int(raw), MAX_TABLE_ENTRIES)
    except ValueError:
        raise ParseError(f"CI_SPECTRA_MAX_N must be an integer, got {raw!r}") from None


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
    f = read_table(text)
    _check_p_n(f.p, f.n, limit)
    return f


def _bool(v: bool) -> str:
    return "true" if v else "false"


@dataclass
class AnalysisResult:
    """Everything cmd_analyze reports for one function."""

    p: int
    n: int
    balanced: bool
    symmetric: bool
    ci_order: int
    resiliency_order: int
    reports: list | None = None

    def to_json(self) -> str:
        obj = {
            "p": self.p,
            "n": self.n,
            "balanced": self.balanced,
            "symmetric": self.symmetric,
            "ci_order": self.ci_order,
            "resiliency_order": self.resiliency_order,
        }
        if self.reports is not None:
            obj["reports"] = [json.loads(r.to_json()) for r in self.reports]
        return json.dumps(obj)


def analyze_function(f: PFunction, shortcut: bool = True, reports: bool = False) -> AnalysisResult:
    symmetric = is_symmetric(f)
    if symmetric and shortcut:
        ci = spectral.ci_order_symmetric(f)
    else:
        ci = spectral.ci_order(f)
    balanced = is_balanced(f)
    # m-resilient iff balanced and m-CI; a balanced f is never n-CI
    return AnalysisResult(
        p=f.p,
        n=f.n,
        balanced=balanced,
        symmetric=symmetric,
        ci_order=ci,
        resiliency_order=ci if balanced else -1,
        reports=[reference.consensus(f, m) for m in range(1, f.n + 1)] if reports else None,
    )


def cmd_analyze(args) -> int:
    limit = _size_limit()
    f = _load_function(args, limit)
    res = analyze_function(f, shortcut=not args.no_shortcut, reports=args.reports)
    if args.json:
        print(res.to_json())
        return EXIT_OK
    print(f"p = {res.p}")
    print(f"n = {res.n}")
    print(f"balanced = {_bool(res.balanced)}")
    print(f"symmetric = {_bool(res.symmetric)}")
    print(f"ci_order = {res.ci_order}")
    print(f"resiliency_order = {res.resiliency_order}")
    if res.reports:
        for rep in res.reports:
            verdicts = " ".join(f"{k}={_bool(v)}" for k, v in rep.verdicts.items())
            print(f"m={rep.m} consensus={_bool(rep.consensus)} {verdicts}")
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
    limit = _size_limit()
    f = _load_function(args, limit)
    if args.full:
        print(spectral.SpectrumDump.compute(f, limit).to_json())
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
    # the whole orbit (indices a*p^(n-m), a = 1..p-1).
    results = [(t, spectral.exact_spectrum_conjugates(f, m, t)) for t in tuples]
    if args.json:
        print(
            json.dumps(
                {
                    "p": f.p,
                    "n": f.n,
                    "m": m,
                    "critical_index": spectral.critical_index(f, m),
                    "results": [
                        {
                            "tuple": list(t.indices),
                            "coeffs": list(orbit[0].coeffs),
                            "zero": orbit[0].is_zero(),
                            "orbit_zero": all(v.is_zero() for v in orbit),
                        }
                        for t, orbit in results
                    ],
                }
            )
        )
        return EXIT_OK
    print(f"critical index p^(n-m) = {spectral.critical_index(f, m)}")
    for t, orbit in results:
        label = ",".join(str(i) for i in t.indices)
        primary = orbit[0]
        orbit_zero = all(v.is_zero() for v in orbit)
        print(
            f"tuple ({label}): {primary.to_text()}  "
            f"zero={_bool(primary.is_zero())} orbit_zero={_bool(orbit_zero)}"
        )
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    limit = _size_limit()
    p, n, m = args.p, args.n, args.m
    _check_p_n(p, n, limit)
    if not 1 <= m <= n:
        raise ParseError(f"--m must be in 1..{n}, got {m}")
    if args.random is not None and args.random < 0:
        raise ParseError(f"--random must be >= 0, got {args.random}")
    size = p**n
    seed = None
    if args.exhaustive:
        if _exceeds(p, size, MAX_EXHAUSTIVE):
            raise SizeLimitError(
                f"exhaustive family has {p}^{size} functions, above the cap {MAX_EXHAUSTIVE}"
            )
        funcs = all_functions(p, n)
    else:
        seed = args.seed if args.seed is not None else DEFAULT_SEED
        rng = random.Random(seed)
        funcs = (
            PFunction(p, n, tuple(rng.randrange(p) for _ in range(size)))
            for _ in range(args.random)
        )
    ci_counts = {name: 0 for name in reference.METHOD_NAMES}
    checked = 0
    disagreements = 0
    first_bad = None
    for f in funcs:
        rep = reference.consensus(f, m)
        checked += 1
        for name, v in rep.verdicts.items():
            if v:
                ci_counts[name] += 1
        if not rep.consensus:
            disagreements += 1
            if first_bad is None:
                first_bad = (f, rep)
    if args.json:
        obj = {
            "p": p,
            "n": n,
            "m": m,
            "mode": "exhaustive" if args.exhaustive else "random",
            "checked": checked,
            "ci_counts": ci_counts,
            "disagreements": disagreements,
        }
        if seed is not None:
            obj["seed"] = seed
        if first_bad is not None:
            obj["first_disagreement"] = {
                "table": write_table(first_bad[0]),
                "report": json.loads(first_bad[1].to_json()),
            }
        print(json.dumps(obj))
    else:
        if seed is not None:
            print(f"seed = {seed}")
        print(f"checked = {checked} functions (p={p}, n={n}, m={m})")
        for name in reference.METHOD_NAMES:
            print(f"ci_count[{name}] = {ci_counts[name]}")
        print(f"disagreements = {disagreements}")
        if first_bad is not None:
            print("first disagreement:")
            print(write_table(first_bad[0]), end="")
            print(first_bad[1].to_json())
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


def _search_cost(f: PFunction, target: int, resilient: bool) -> tuple[int, int]:
    """(imbalance, failing critical tuples at the target order); (0, 0) wins.

    Imbalance is only charged when resiliency is requested; it dominates
    lexicographically so the climb restores balance before chasing spectra.
    A tuple fails when its conjugate-orbit spectral values are not all zero.
    """
    unbal = 0
    if resilient:
        share = f.size // f.p
        unbal = sum(abs(c - share) for c in _joint_counts(f, ()))
    nz = len(list(spectral.failing_tuples(f, target))) if target >= 1 else 0
    return (unbal, nz)


def _search_start(rng: random.Random, p: int, n: int, resilient: bool) -> PFunction:
    size = p**n
    if resilient:
        values = [v for v in range(p) for _ in range(size // p)]
        rng.shuffle(values)
        return PFunction(p, n, tuple(values))
    return PFunction(p, n, tuple(rng.randrange(p) for _ in range(size)))


def _search_mutate(rng: random.Random, f: PFunction, resilient: bool) -> PFunction:
    table = list(f.table)
    if resilient:
        # swap two differing entries; preserves the output multiset
        while True:
            i = rng.randrange(len(table))
            j = rng.randrange(len(table))
            if table[i] != table[j]:
                table[i], table[j] = table[j], table[i]
                break
    else:
        i = rng.randrange(len(table))
        table[i] = (table[i] + rng.randrange(1, f.p)) % f.p
    return PFunction(f.p, f.n, tuple(table))


def cmd_search(args) -> int:
    limit = _size_limit()
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
        if args.json:
            print(json.dumps({"seed": seed, "found": False, "infeasible": infeasible}))
        else:
            print(f"seed = {seed}")
            print(f"infeasible: {infeasible}")
        return EXIT_UNMET

    rng = random.Random(seed)
    stall_limit = 8 * p**n
    evals = 0
    best: tuple[tuple[int, int], PFunction] | None = None
    found = None
    while evals < args.budget and found is None:
        f = _search_start(rng, p, n, args.resilient)
        cost = _search_cost(f, target, args.resilient)
        evals += 1
        if best is None or cost < best[0]:
            best = (cost, f)
        if cost == (0, 0):
            found = f
            break
        stall = 0
        while evals < args.budget and stall < stall_limit:
            g = _search_mutate(rng, f, args.resilient)
            c2 = _search_cost(g, target, args.resilient)
            evals += 1
            if c2 < cost:
                f, cost = g, c2
                stall = 0
                if cost < best[0]:
                    best = (cost, f)
                if cost == (0, 0):
                    found = f
                    break
            else:
                stall += 1

    result = found if found is not None else best[1]
    # the claim must survive the full library tests, not just the cost function;
    # target <= n - 1 when resilient, where the order decides is_resilient
    analysis = analyze_function(result)
    met = (
        found is not None
        and analysis.ci_order >= target
        and (not args.resilient or analysis.resiliency_order >= target)
    )
    table_text = write_table(result)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(table_text)
    if args.json:
        print(
            json.dumps(
                {
                    "seed": seed,
                    "target_ci": target,
                    "resilient": args.resilient,
                    "found": met,
                    "evaluations": evals,
                    "table": table_text,
                    "analysis": json.loads(analysis.to_json()),
                }
            )
        )
    else:
        print(f"seed = {seed}")
        print(f"target: ci_order >= {target}" + (", resilient" if args.resilient else ""))
        print(f"evaluations = {evals}")
        print(f"found = {_bool(met)}")
        print(table_text, end="")
        print(f"ci_order = {analysis.ci_order}")
        print(f"resiliency_order = {analysis.resiliency_order}")
    return EXIT_OK if met else EXIT_UNMET


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
        "--no-shortcut",
        action="store_true",
        help="test every variable subset, even for symmetric functions",
    )
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
