#!/usr/bin/env python3
"""Census of correlation-immunity and resiliency orders over a full family.

Enumerates every function F_p^n -> F_p (p^(p^n) tables, so keep p^n small)
and tallies the ci_order and resiliency_order distributions.  To check the
spectral verdict against the five counting oracles over the same family,
run `cispectra crosscheck --exhaustive --p P --n N --m M` at each order M.

--symmetric enumerates the symmetric functions instead, as class vectors:
one output per multiset of input digits, so p^C(n+p-1, n) functions.  For
each order m it counts the functions whose DFT value at the single location
p^(n-m) is exactly zero while the rest of the conjugate orbit there is not.
Those are the functions on which a one-location reading of the symmetric
criterion goes wrong; at p = 2 the orbit is that one location and the count
is zero.
"""

import argparse
import os
import sys
import time
from collections import Counter
from itertools import combinations_with_replacement, product

try:
    import cispectra  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from cispectra import (
    PFunction,
    all_functions,
    ci_order,
    digits_of,
    exact_spectrum_conjugates,
    is_balanced,
)

# Enumerating beyond this many tables is a typo, not an experiment.
MAX_FAMILY = 10**6


def symmetric_census(ap, p: int, n: int) -> int:
    classes = list(combinations_with_replacement(range(p), n))
    family = p ** len(classes)
    if family > MAX_FAMILY:
        ap.error(f"family has {family} symmetric functions, above the cap {MAX_FAMILY}")
    position = {c: i for i, c in enumerate(classes)}
    class_of = [position[tuple(sorted(digits_of(k, p, n)))] for k in range(p**n)]
    lone_zero: Counter = Counter()
    t0 = time.perf_counter()
    for values in product(range(p), repeat=len(classes)):
        f = PFunction(p, n, tuple(values[c] for c in class_of))
        for m in range(1, n + 1):
            # every tuple gives the same values on a symmetric f
            orbit = exact_spectrum_conjugates(f, m, tuple(range(1, m + 1)))
            if orbit[0].is_zero() and not all(v.is_zero() for v in orbit[1:]):
                lone_zero[m] += 1
    dt = time.perf_counter() - t0

    print(f"p = {p}, n = {n}: {family} symmetric functions ({len(classes)} classes) in {dt:.2f}s")
    print("zero at p^(n-m), orbit nonzero, by order m:")
    for m in range(1, n + 1):
        print(f"  {m}: {lone_zero[m]}")
    print(f"total: {sum(lone_zero.values())} of {family * n} (function, order) pairs")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--p", type=int, default=2, help="prime modulus (default 2)")
    ap.add_argument("--n", type=int, default=3, help="number of variables (default 3)")
    ap.add_argument(
        "--symmetric",
        action="store_true",
        help="count symmetric functions whose single critical value is zero but orbit is not",
    )
    args = ap.parse_args()
    if args.symmetric:
        return symmetric_census(ap, args.p, args.n)

    family = args.p ** (args.p**args.n)
    if family > MAX_FAMILY:
        ap.error(f"family has {family} functions, above the cap {MAX_FAMILY}")

    ci_hist: Counter = Counter()
    res_hist: Counter = Counter()
    t0 = time.perf_counter()
    for f in all_functions(args.p, args.n):
        ci = ci_order(f)
        ci_hist[ci] += 1
        # m-resilient iff balanced and m-CI
        res_hist[ci if is_balanced(f) else -1] += 1
    dt = time.perf_counter() - t0

    print(f"p = {args.p}, n = {args.n}: {family} functions in {dt:.2f}s")
    print("ci_order histogram:")
    for k in sorted(ci_hist):
        print(f"  {k}: {ci_hist[k]}")
    print("resiliency_order histogram:")
    for k in sorted(res_hist):
        print(f"  {k}: {res_hist[k]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
