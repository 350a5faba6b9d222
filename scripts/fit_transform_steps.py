#!/usr/bin/env python3
"""Fit the constants of spectral._transform_steps, ci_order's estimate of
the exact transform's cost, to the host this runs on.

ci_order rents its subset scan against the transform it hands over to, and
counts both in scan steps: a step is 1/p^n of one subset scan's time.  For
every (p, n) of the grid this times one subset scan (_rows_equal over the
proper subset {1, ..., min(2, n - 1)} of x1 + ... + xn, whose count rows
are all equal, so the whole comparison runs) and the transform
(_transform_ci_orders on that table alone), each as the best of --repeat
timings, and takes the transform's measured cost in steps as its time
* p^n / the scan's time.  It then searches integer constants
(calls, per_step, transposed) of

    _transform_steps = n * (calls * p^2 + (p^2 + transposed * p) * p^n // per_step)

for the least sum of squared log(estimate / measured) over the grid, among
those that keep two invariants (test_ci_order_keeps_the_scan_where_it_is_cheaper):
the estimate is at least p^n at every size up to 2^31 entries, so a table
that fails on its first subset never reaches the transform, and at (31, 4)
and (97, 3) it exceeds the (2^n - 1) * p^n steps of a full scan, so the
transform, which would need over 300 MB there, never runs.

It prints each point, the fitted constants beside those in use, and the
range of estimate / measured that the ci_order docstring quotes.  The
default grid is the desk range of the fit: p = 2..13 and p^n = 16..7^7,
which takes well under a minute; --points replaces it, as in
`python3 scripts/fit_transform_steps.py --points 2,4 3,3 --repeat 1`.
Timings are a property of the host, and a wrong estimate only moves the
handover, never a verdict.
"""

import argparse
import math
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

try:
    import cispectra  # noqa: F401
except ImportError:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from cispectra import parse_polynomial
from cispectra.spectral import (
    _TRANSFORM_CONSTANTS,
    _rows_equal,
    _transform_ci_orders,
    _transform_steps,
)

# Each timing runs its call in a loop of at least this many seconds.
MIN_LOOP_S = 0.02
# The constants searched: calls and per_step in 1..SEARCH_MAX, transposed
# in 0..SEARCH_MAX.
SEARCH_MAX = 64
# Where test_ci_order_keeps_the_scan_where_it_is_cheaper checks the
# invariants.
INVARIANT_PRIMES = (2, 3, 5, 7, 11, 13, 31, 97, 997, 65537)
NEVER_TRANSFORMED = ((31, 4), (97, 3))


def default_grid() -> list[tuple[int, int]]:
    return [
        (p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(1, 20) if 16 <= p**n <= 7**7
    ]


def best_time(call, repeat: int) -> float:
    """The least per-call time of `repeat` loops of at least MIN_LOOP_S."""
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            call()
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_LOOP_S:
            break
        loops *= 2
    best = elapsed
    for _ in range(repeat - 1):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        best = min(best, time.perf_counter() - start)
    return best / loops


def measure(p: int, n: int, repeat: int) -> tuple[float, float]:
    """(one subset scan, the transform) in seconds at (p, n)."""
    f = parse_polynomial(" + ".join(f"x{i}" for i in range(1, n + 1)), p, n)
    subset = tuple(range(1, min(2, n - 1) + 1))
    scan = best_time(lambda: _rows_equal(f, subset), repeat)
    transform = best_time(lambda: _transform_ci_orders(f.flat[None], p, n), repeat)
    return scan, transform


def keeps_invariants(constants) -> bool:
    for p in INVARIANT_PRIMES:
        n = 1
        while p**n <= 2**31:
            if _transform_steps(SimpleNamespace(p=p, n=n, size=p**n), constants) < p**n:
                return False
            n += 1
    return all(
        _transform_steps(SimpleNamespace(p=p, n=n, size=p**n), constants) > (2**n - 1) * p**n
        for p, n in NEVER_TRANSFORMED
    )


def log_errors(points, measured, constants) -> np.ndarray:
    """log(estimate / measured) at each point, for each candidate: constants
    is a tuple of three equal-length arrays, and the rows are the points."""
    p, n = (np.array(column, dtype=np.int64)[:, None] for column in zip(*points))
    size = SimpleNamespace(p=p, n=n, size=p**n)
    estimate = _transform_steps(size, tuple(c[None, :] for c in constants))
    return np.log(estimate / np.asarray(measured)[:, None])


def fit(points, measured):
    """The constants of least squared log error that keep the invariants,
    with their root-mean-square log error."""
    per_step, transposed = (c.ravel() for c in np.meshgrid(
        np.arange(1, SEARCH_MAX + 1), np.arange(0, SEARCH_MAX + 1), indexing="ij",
    ))
    # one value of calls at a time, so the errors held are points * 4,160
    squares, candidates = [], []
    for calls in range(1, SEARCH_MAX + 1):
        batch = (np.full_like(per_step, calls), per_step, transposed)
        squares.append((log_errors(points, measured, batch) ** 2).sum(axis=0))
        candidates.append(batch)
    squares = np.concatenate(squares)
    candidates = tuple(np.concatenate(c) for c in zip(*candidates))
    for i in np.argsort(squares, kind="stable"):
        constants = tuple(int(c[i]) for c in candidates)
        if keeps_invariants(constants):
            return constants, math.sqrt(squares[i] / len(points))
    raise SystemExit("no searched constants keep the invariants")


def ratio_range(points, ratios, least_size: int = 0) -> str:
    chosen = [r for (p, n), r in zip(points, ratios) if p**n >= least_size]
    return f"{min(chosen):.2f} to {max(chosen):.2f}" if chosen else "none"


def summary(label, points, measured, constants) -> None:
    errors = log_errors(points, measured, tuple(np.array([c]) for c in constants))[:, 0]
    ratios = np.exp(errors).tolist()
    print(f"{label}: _TRANSFORM_CONSTANTS = {constants}, "
          f"rms log error {math.sqrt((errors**2).mean()):.3f}")
    print(f"  estimate / measured: {ratio_range(points, ratios)}; "
          f"at p^n >= 2,000: {ratio_range(points, ratios, 2000)}")
    for p in sorted({p for p, _ in points}):
        print(f"    p = {p}: {ratio_range([q for q in points if q[0] == p], [r for q, r in zip(points, ratios) if q[0] == p])}")


def parse_point(text: str) -> tuple[int, int]:
    p, n = map(int, text.split(","))
    if p < 2 or n < 2:
        raise argparse.ArgumentTypeError(f"a point is P,N with P >= 2 and N >= 2, got {text}")
    return p, n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--points", nargs="+", type=parse_point, metavar="P,N",
                    help="the grid as P,N pairs (default p = 2..13, p^n = 16..7^7)")
    ap.add_argument("--repeat", type=int, default=3, help="timings per measurement, best kept (default 3)")
    args = ap.parse_args()
    points = args.points or default_grid()

    measured = []
    print(f"{'p':>3} {'n':>3} {'scan us':>10} {'transform ms':>13} {'steps':>12}")
    for p, n in points:
        scan, transform = measure(p, n, max(1, args.repeat))
        measured.append(transform * p**n / scan)
        print(f"{p:>3} {n:>3} {scan * 1e6:>10.1f} {transform * 1e3:>13.3f} {measured[-1]:>12.0f}", flush=True)

    constants, _ = fit(points, measured)
    summary("fitted", points, measured, constants)
    summary("in use", points, measured, _TRANSFORM_CONSTANTS)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
