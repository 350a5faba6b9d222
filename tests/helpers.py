"""Shared constants and independent in-test oracles.

Everything here deliberately reimplements the mathematics with different
machinery than the library (Fraction probabilities over enumerated points,
plus-minus-one Walsh sums, Python ast evaluation of polynomials), so that
agreement between suite and library is evidence rather than tautology.
"""

from __future__ import annotations

import ast
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

from cispectra import Permutation, PFunction
from cispectra.ptable import digit_rows

# Elementary symmetric polynomials in four variables, the fixed symmetric
# test subjects over F_3.  e2 is first-order correlation-immune; e2 + e3
# is not (the cubic part breaks it), which several tests pin down.
E2_POLY = "x1*x2 + x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4"
E3_POLY = "x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4"
E2_E3_POLY = E3_POLY + " + " + E2_POLY

# p=3, n=2 table whose DFT vanishes exactly at index 3 for both variable
# orders even though the function is not first-order immune; the rest of
# the critical stratum (index 6) is nonzero.  Any single-evaluation
# spectral test accepts it wrongly.
STRATUM_TRAP_TABLE = (0, 0, 0, 0, 0, 2, 1, 0, 0)


def points(p: int, n: int):
    """All input points (x_1, ..., x_n) in table order: x_1 varies fastest."""
    for rev in product(range(p), repeat=n):
        yield tuple(reversed(rev))


def ci_by_fractions(f: PFunction, m: int) -> bool:
    """Definition check with literal conditional probabilities as Fractions."""
    pts = list(points(f.p, f.n))
    total = Counter(f.evaluate(x) for x in pts)
    base = {t: Fraction(total.get(t, 0), len(pts)) for t in range(f.p)}
    for subset in combinations(range(f.n), m):
        for assign in product(range(f.p), repeat=m):
            sel = [x for x in pts if all(x[i] == a for i, a in zip(subset, assign))]
            cond = Counter(f.evaluate(x) for x in sel)
            for t in range(f.p):
                if Fraction(cond.get(t, 0), len(sel)) != base[t]:
                    return False
    return True


def walsh_coeff(f: PFunction, c) -> int:
    """Classical Walsh-Hadamard sum sum_x (-1)^(f(x) + c.x), p = 2 only."""
    assert f.p == 2
    out = 0
    for x in points(2, f.n):
        dot = sum(ci * xi for ci, xi in zip(c, x)) % 2
        out += -1 if (f.evaluate(x) + dot) % 2 else 1
    return out


def walsh_is_ci(f: PFunction, m: int) -> bool:
    for c in product(range(2), repeat=f.n):
        if 1 <= sum(c) <= m and walsh_coeff(f, c) != 0:
            return False
    return True


def resilient_by_counting(f: PFunction, m: int) -> bool:
    """Every restriction fixing m variables attains each output equally often."""
    pts = list(points(f.p, f.n))
    for subset in combinations(range(f.n), m):
        for assign in product(range(f.p), repeat=m):
            sel = [f.evaluate(x) for x in pts if all(x[i] == a for i, a in zip(subset, assign))]
            counts = Counter(sel)
            if len({counts.get(t, 0) for t in range(f.p)}) != 1:
                return False
    return True


def poly_eval_ast(text: str, p: int, x) -> int:
    """Evaluate a polynomial string at one point through Python's own parser."""
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    env = {f"x{i}": v for i, v in enumerate(x, start=1)}
    return eval(compile(tree, "<poly>", "eval"), {"__builtins__": {}}, env) % p


def digit_classes(p: int, n: int) -> dict:
    """Sorted-digit multiset -> list of table indices; the orbits of S_n."""
    groups: dict = {}
    for k, x in enumerate(points(p, n)):
        groups.setdefault(tuple(sorted(x)), []).append(k)
    return groups


def symmetric_from_classes(p: int, n: int, values: dict) -> PFunction:
    table = [0] * p**n
    for ms, idxs in digit_classes(p, n).items():
        for k in idxs:
            table[k] = values[ms]
    return PFunction(p, n, tuple(table))


def all_symmetric_functions(p: int, n: int):
    """Every symmetric function, one per assignment of outputs to orbits."""
    keys = sorted(digit_classes(p, n))
    for vals in product(range(p), repeat=len(keys)):
        yield symmetric_from_classes(p, n, dict(zip(keys, vals)))


def random_symmetric_function(p: int, n: int, seed: int) -> PFunction:
    rng = random.Random(seed)
    values = {ms: rng.randrange(p) for ms in sorted(digit_classes(p, n))}
    return symmetric_from_classes(p, n, values)


def apply_permutation_loop(f: PFunction, pi: Permutation) -> PFunction:
    """Loop reference for ptable.apply_permutation: for every index k of g,
    look f up at the point (x_pi(1), ..., x_pi(n)) built from k's digits."""
    rows = digit_rows(f.p, f.n)
    src = [rows[pi(i) - 1] for i in range(1, f.n + 1)]
    weights = [f.p**i for i in range(f.n)]
    table = f.table
    new = tuple(table[sum(d * w for d, w in zip(digs, weights))] for digs in zip(*src))
    return PFunction(f.p, f.n, new)


def is_symmetric_loop(f: PFunction) -> bool:
    """Loop reference for ptable.is_symmetric: every adjacent transposition,
    applied point by point, leaves the table unchanged."""
    return all(
        apply_permutation_loop(f, Permutation.transposition(f.n, i, i + 1)).table == f.table
        for i in range(1, f.n)
    )
