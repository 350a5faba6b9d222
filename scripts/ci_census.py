#!/usr/bin/env python3
"""Census of correlation-immunity and resiliency orders over a full family.

Enumerates every function F_p^n -> F_p (p^(p^n) tables, so keep p^n small)
and tallies the ci_order and resiliency_order distributions.  The family is
read in lexicographic table order, in chunks of tables that one exact row
transform decides at once (spectral._transform_ci_orders, the kernel
ci_order hands over to); balance comes from each chunk's per-table
histogram, and m-resilient means balanced and m-CI.  To check the spectral
verdict against the five counting oracles over the same family, run
`cispectra crosscheck --exhaustive --p P --n N --m M` at each order M.

--symmetric enumerates the symmetric functions instead, as class vectors:
one output per multiset of input digits, so p^C(n+p-1, n) functions.  For
each order m it counts the functions whose DFT value at the single location
p^(n-m) is exactly zero while the rest of the conjugate orbit there is not.
Those are the functions on which a one-location reading of the symmetric
criterion goes wrong; at p = 2 the orbit is that one location and the count
is zero.

Either mode exits 2 unless p is a prime and n >= 1, or when its family has
more than MAX_FAMILY functions; --symmetric also exits 2 when its loop
would take more than MAX_SYMMETRIC_WORK entry-orders (symmetric_work), as
at n >= 11 for p = 2 and at (7, 1).  All are decided before anything is
enumerated or any family count is built.
"""

import argparse
import os
import sys
import time
from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb

import numpy as np

try:
    import cispectra  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from cispectra import PFunction, digits_of, exact_spectrum_conjugates
from cispectra.ptable import _exceeds, _exhaustive_chunks, _is_prime, _tally
from cispectra.reference import _chunk_rows
from cispectra.spectral import _transform_ci_orders

# Enumerating beyond this many tables is a typo, not an experiment.
MAX_FAMILY = 10**6
# The symmetric loop's work cap, in entry-orders (symmetric_work).
MAX_SYMMETRIC_WORK = 3 * 10**7
# A symmetric function's build and calls, in entry-orders.
FUNCTION_WORK = 256


def symmetric_work(p: int, n: int) -> int:
    """The work of symmetric_census at (p, n), in entry-orders: one order's
    joint count over one table entry.  Each function is built and counted
    once per order, so functions * (n * p^n + FUNCTION_WORK).  An
    entry-order took 0.18-0.27 us over (2,9), (3,3) and (7,1) on a 2-CPU
    x86-64 host with Python 3.11, so the cap is about 5-8 s of loop."""
    return p ** comb(n + p - 1, n) * (n * p**n + FUNCTION_WORK)


def check_family(ap, p: int, n: int, symmetric: bool) -> None:
    """ap.error (exit 2) unless p >= 2 and n >= 1, then if the family has
    more than MAX_FAMILY functions or a symmetric census more than
    MAX_SYMMETRIC_WORK work, then unless p is prime: ptable's order, so
    trial division only runs on a small p.  The family has p^classes
    functions, classes being p^n table entries or C(n+p-1, n) multisets of
    digits, and classes >= max(p, n + 1) in both modes; 2^classes passes
    the cap once classes passes its bit length, so no large count is built.
    """
    if p < 2:
        ap.error(f"--p must be a prime >= 2, got {p}")
    if n < 1:
        ap.error(f"--n must be >= 1, got {n}")
    kind = "symmetric functions" if symmetric else "functions"
    if max(p, n + 1) > MAX_FAMILY.bit_length() or _exceeds(
        p, comb(n + p - 1, n) if symmetric else p**n, MAX_FAMILY
    ):
        ap.error(f"the family at p = {p}, n = {n} has more than {MAX_FAMILY} {kind}")
    if symmetric and symmetric_work(p, n) > MAX_SYMMETRIC_WORK:
        ap.error(f"the symmetric census at p = {p}, n = {n} takes {symmetric_work(p, n)} "
                 f"entry-orders, more than {MAX_SYMMETRIC_WORK}")
    if not _is_prime(p):
        ap.error(f"--p must be a prime >= 2, got {p}")


def symmetric_census(p: int, n: int) -> int:
    classes = list(combinations_with_replacement(range(p), n))
    family = p ** len(classes)
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
    p, n = args.p, args.n
    check_family(ap, p, n, args.symmetric)
    if args.symmetric:
        return symmetric_census(p, n)

    family = p ** (p**n)
    ci_hist: Counter = Counter()
    res_hist: Counter = Counter()
    t0 = time.perf_counter()
    for tables in _exhaustive_chunks(p, n, _chunk_rows(p, n, n)):
        orders = _transform_ci_orders(tables, p, n)
        ci_hist.update(orders.tolist())
        hist = _tally(tables, 1, 0, p)
        # m-resilient iff balanced and m-CI
        balanced = (hist == hist[:1]).all(axis=0)
        res_hist.update(np.where(balanced, orders, -1).tolist())
    dt = time.perf_counter() - t0

    print(f"p = {p}, n = {n}: {family} functions in {dt:.2f}s")
    print("ci_order histogram:")
    for k in sorted(ci_hist):
        print(f"  {k}: {ci_hist[k]}")
    print("resiliency_order histogram:")
    for k in sorted(res_hist):
        print(f"  {k}: {res_hist[k]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
