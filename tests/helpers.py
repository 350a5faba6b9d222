"""Shared constants and independent in-test oracles.

Everything here deliberately reimplements the mathematics with different
machinery than the library (Fraction probabilities over enumerated points,
plus-minus-one Walsh sums, Python ast evaluation of polynomials, and the
O(N^2) per-frequency and per-shift sums behind the library's FFTs), so that
agreement between suite and library is evidence rather than tautology.
"""

from __future__ import annotations

import ast
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import mul

import numpy as np

from cispectra import CycloElement, PFunction, exact_spectrum_conjugates

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

# A *symmetric* p=3, n=2 trap: f(1,1) = 2, f(2,2) = 1, 0 elsewhere.  Its
# DFT is zero at index 3 but not at the conjugate index 6, and it is not
# first-order immune.  For symmetric f one tuple per order suffices, but
# for p > 2 one location does not: the whole orbit at that tuple must vanish.
SYMMETRIC_TRAP_TABLE = (0, 0, 0, 0, 2, 0, 0, 0, 1)


def points(p: int, n: int):
    """All input points (x_1, ..., x_n) in table order: x_1 varies fastest."""
    for rev in product(range(p), repeat=n):
        yield tuple(reversed(rev))


@lru_cache(maxsize=None)
def _point_list(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(points(p, n))


def _dot(c, x, p: int) -> int:
    return sum(map(mul, c, x)) % p


def cyclic_sum_points(f: PFunction, c) -> CycloElement:
    """sum_x omega^(f(x) - c.x), one root of unity per input point."""
    counts = [0] * f.p
    for x, v in zip(_point_list(f.p, f.n), f.table):
        counts[(v - _dot(c, x, f.p)) % f.p] += 1
    return CycloElement.from_root_counts(f.p, 1, counts)


def linear_sum_points(f: PFunction, c, a: int) -> CycloElement:
    """sum_x ((f(x) + a) mod p) * omega^(c.x), one term per input point."""
    counts = [0] * f.p
    for x, v in zip(_point_list(f.p, f.n), f.table):
        counts[_dot(c, x, f.p)] += (v + a) % f.p
    return CycloElement.from_root_counts(f.p, 1, counts)


def count_matrix_points(f: PFunction, c) -> tuple[tuple[int, ...], ...]:
    """entries[d][v] = #{x : c.x = d, f(x) = v}, counted point by point."""
    entries = [[0] * f.p for _ in range(f.p)]
    for x, v in zip(_point_list(f.p, f.n), f.table):
        entries[_dot(c, x, f.p)][v] += 1
    return tuple(tuple(row) for row in entries)


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


def parseval_cost_points(f: PFunction, m: int) -> int:
    """p^m * sum over m-subsets S of sum cm_S^2 - C(n, m) * sum hist^2, with
    the joint counts cm_S of (x_S, f(x)) and the histogram tallied over
    enumerated points."""
    pts = _point_list(f.p, f.n)
    subsets = list(combinations(range(f.n), m))
    hist = Counter(f.table)
    total = -len(subsets) * sum(c * c for c in hist.values())
    for s in subsets:
        cm = Counter((tuple(x[i] for i in s), v) for x, v in zip(pts, f.table))
        total += f.p**m * sum(c * c for c in cm.values())
    return total


def all_functions(p: int, n: int):
    """Every function F_p^n -> F_p, in lexicographic table order."""
    for table in product(range(p), repeat=p**n):
        yield PFunction(p, n, table)


def cost_after(cost, changes) -> int:
    """The cost a ParsevalCost would have after apply_changes(cost, changes),
    read off its counts by the climb's own scorers; nothing is written.
    changes is one (k, v) or a swap [(i, table[j]), (j, table[i])]."""
    table = cost.table
    if len(changes) == 1:
        ((k, v),) = changes
        return cost.cost if table[k] == v else cost.cost + cost._change_delta(k, v)
    (i, b), (j, a) = changes
    if (a, b) != (table[i], table[j]):
        raise ValueError(f"not one change or a swap of two entries: {changes}")
    return cost.cost if a == b else cost.cost + cost._swap_delta(i, j)


def apply_changes(cost, changes) -> int:
    """Set table[k] = v for each (k, v) of changes in order, through the
    climb's own scorer and writer; return the ParsevalCost's new cost."""
    for k, v in changes:
        if cost.table[k] != v:
            cost.cost += cost._change_delta(k, v)
            cost._write(k, v)
    return cost.cost


def count_row(p: int, n: int, m: int, k: int) -> tuple:
    """Point k's row start in each m-subset's joint counts of (x_S, f(x)),
    the subsets in combinations order, p^(m+1) cells each: the row of the
    digits (x_S1, ..., x_Sm) of k, x_s = k // p^(s-1) % p, starts at
    sum_r x_Sr * p^r * p inside its subset's cells."""
    digits = [k // p**i % p for i in range(n)]
    return tuple(
        i * p ** (m + 1) + p * sum(digits[s - 1] * p**r for r, s in enumerate(subset))
        for i, subset in enumerate(combinations(range(1, n + 1), m))
    )


def search_by_recount(p: int, n: int, target: int, resilient: bool, seed: int, budget: int):
    """Reference for the `search` climb: the same draws, restarts and
    acceptance rule, with every table, start or moved, scored afresh by
    parseval_cost_points.  Returns (table, evaluations, cost, stops): the
    final table and cost of the first climb with the lowest final cost, and
    why each climb stopped, "zero", "stall" (8 * p^n moves in a row without
    a gain) or "budget"."""
    rng = random.Random(seed)
    size = p**n
    evals, best, stops = 0, None, []
    while evals < budget:
        if resilient:
            table = [v for v in range(p) for _ in range(size // p)]
            rng.shuffle(table)
        else:
            table = [rng.randrange(p) for _ in range(size)]
        cost = parseval_cost_points(PFunction(p, n, table), target)
        evals, stall = evals + 1, 0
        while cost > 0 and stall < 8 * size and evals < budget:
            moved = list(table)
            if resilient:
                i, j = rng.randrange(size), rng.randrange(size)
                while table[i] == table[j]:
                    i, j = rng.randrange(size), rng.randrange(size)
                moved[i], moved[j] = table[j], table[i]
            else:
                k = rng.randrange(size)
                moved[k] = (table[k] + rng.randrange(1, p)) % p
            after = parseval_cost_points(PFunction(p, n, moved), target)
            if after < cost:
                table, cost, stall = moved, after, 0
            else:
                stall += 1
            evals += 1
        stops.append("zero" if cost == 0 else "stall" if stall == 8 * size else "budget")
        if best is None or cost < best[0]:
            best = cost, tuple(table)
        if cost == 0:
            break
    return best[1], evals, best[0], stops


def maiorana_mcfarland(p: int, n: int, m: int, seed: int) -> PFunction:
    """A seeded f(x, y) = phi(y) . x + g(y) over F_p, whose ci_order and
    resiliency_order are both exactly m (Camion, Carlet, Charpin and
    Sendrier, CRYPTO '91).  x holds the first r variables and y the other
    s = n - r >= 1, r the least that leaves p^s vectors of weight >= m + 1
    in F_p^r.  phi sends the p^s values of y to distinct such vectors, one
    of weight exactly m + 1; g is uniform.

    For c = (a, b) and k != 0, the sum of omega^(k*(phi(y) + a).x) over x
    is p^r or 0 as phi(y) = -a or not, and injectivity leaves at most one
    such y; so the sum of omega^(k*(f + c.(x, y))) over all points is zero
    for every k, and the row of c in T[s, c] = #{(x, y) : f + c.(x, y) = s}
    uniform, iff -a is no image of phi.  That holds for every c of weight
    <= m (c = 0 is balance), and fails at (-phi(y), 0) of weight m + 1.
    """
    def weight_at_least(r):
        return sum(math.comb(r, w) * (p - 1) ** w for w in range(m + 1, r + 1))

    r = next(r for r in range(m + 1, n) if weight_at_least(r) >= p ** (n - r))
    rng = random.Random(seed)
    heavy = [a for a in points(p, r) if sum(v != 0 for v in a) > m]
    first = rng.choice([a for a in heavy if sum(v != 0 for v in a) == m + 1])
    images = [first] + rng.sample([a for a in heavy if a != first], p ** (n - r) - 1)
    rng.shuffle(images)
    g = np.array([rng.randrange(p) for _ in images])
    # row y, column x: table index x + p^r * y, as x_1 is the least digit
    table = (np.array(images) @ np.array(list(points(p, r))).T + g[:, None]) % p
    return PFunction(p, n, table.ravel())


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


def apply_permutation_loop(f: PFunction, mapping) -> PFunction:
    """Loop reference for ptable.apply_permutation, mapping[i-1] = pi(i): for
    every point x of g, in table order, look f up at (x_pi(1), ..., x_pi(n))."""
    new = tuple(f.evaluate(tuple(x[j - 1] for j in mapping)) for x in points(f.p, f.n))
    return PFunction(f.p, f.n, new)


def is_symmetric_loop(f: PFunction) -> bool:
    """Loop reference for ptable.is_symmetric: every adjacent transposition,
    applied point by point, leaves the table unchanged."""
    for i in range(1, f.n):
        swap = list(range(1, f.n + 1))
        swap[i - 1], swap[i] = i + 1, i
        if apply_permutation_loop(f, swap).table != f.table:
            return False
    return True


def failing_tuples_scan(f: PFunction, m: int) -> list[tuple[int, ...]]:
    """Ordered-scan reference for spectral.first_failing_tuple and for the
    zeros of ParsevalCost: every ordered m-tuple, in lexicographic order, at
    which some exact critical-stratum value is nonzero (the paper's
    criterion, evaluated tuple by tuple)."""
    return [
        t for t in permutations(range(1, f.n + 1), m)
        if not all(v.is_zero() for v in exact_spectrum_conjugates(f, m, t))
    ]


def dft_direct(f: PFunction) -> np.ndarray:
    """Reference for spectral.dft_float, one frequency at a time:
    dft[j] = sum_k omega^f(k) * xi^(-k*j), xi = exp(2*pi*i/N).  Each term is
    xi^(f(k)*N/p - k*j), so its exponent is taken mod N in integers and the
    terms are tallied per root of unity before one float dot product."""
    N = f.size
    k = np.arange(N, dtype=np.int64)
    lifted = np.asarray(f.table, dtype=np.int64) * (N // f.p)
    roots = np.exp(2j * np.pi / N * np.arange(N))
    return np.array([
        np.bincount((lifted - k * j) % N, minlength=N) @ roots for j in range(N)
    ])


def autocorrelation_direct(f: PFunction) -> np.ndarray:
    """Reference for spectral.autocorrelation, one shift at a time:
    C[t] = sum_k omega^(f(k+t) - f(k)), index addition mod N, with the
    output differences counted mod p in integers."""
    table = np.asarray(f.table, dtype=np.int64)
    omegas = np.exp(2j * np.pi / f.p * np.arange(f.p))
    return np.array([
        np.bincount((np.roll(table, -t) - table) % f.p, minlength=f.p) @ omegas
        for t in range(f.size)
    ])
