"""Spectral criterion, resiliency, and the float transforms.

The load-bearing fact under test: f is m-th order correlation-immune iff,
for every ordered m-tuple of distinct variables, the DFT of the permuted
function vanishes at every index of the critical stratum (the multiples
a * p^(n-m) with gcd(a, p) = 1), and the p-1 values for a = 1..p-1 form one
Galois orbit.  A single evaluation at p^(n-m) is enough only when p = 2.
"""

import json
import math
import random
import time
from itertools import combinations, permutations, product
from types import SimpleNamespace

import numpy as np
import pytest

from cispectra import (
    PFunction,
    VariableTuple,
    apply_permutation,
    consensus,
    critical_index,
    dft_float,
    exact_spectrum_conjugates,
    is_balanced,
    is_symmetric,
    parse_polynomial,
    random_function,
)
from cispectra import spectral
from cispectra.cli import analyze_function
from cispectra.reference import ci_oracle_definition
from cispectra.spectral import (
    SpectrumDump,
    autocorrelation,
    ci_order,
    ci_order_symmetric,
    first_failing_tuple,
    first_unbalanced_restriction,
    is_ci,
    resiliency_order,
)

import helpers


def _permutation_placing(rng, t, n):
    """A random permutation pi of 1..n, as its tuple mapping[i-1] = pi(i),
    sending variable t[r-1] to position r."""
    mapping = [0] * n
    for r, var in enumerate(t, start=1):
        mapping[var - 1] = r
    rest = [v for v in range(len(t) + 1, n + 1)]
    rng.shuffle(rest)
    it = iter(rest)
    for i in range(n):
        if mapping[i] == 0:
            mapping[i] = next(it)
    return tuple(mapping)


# ---------------------------------------------------------------------------
# critical_index and exact values
# ---------------------------------------------------------------------------

def test_critical_index():
    f = random_function(3, 4, seed=0)
    assert critical_index(f, 1) == 27
    assert critical_index(f, 4) == 1
    g = random_function(2, 5, seed=0)
    assert critical_index(g, 2) == 8
    with pytest.raises(ValueError):
        critical_index(f, 0)
    with pytest.raises(ValueError):
        critical_index(f, 5)


def test_exact_value_of_constant_function():
    # sum over all points of zeta^(-e(k)) hits every p^m-th root equally
    for p, n in [(2, 3), (3, 2), (5, 2)]:
        f = PFunction(p, n, (0,) * p**n)
        for m in range(1, n + 1):
            orbit = exact_spectrum_conjugates(f, m, tuple(range(1, m + 1)))
            assert len(orbit) == p - 1
            assert all(v.is_zero() for v in orbit)


def test_exact_values_of_fixed_quadratic(e2):
    # first-order immune: the whole m = 1 orbit vanishes
    orbit1 = exact_spectrum_conjugates(e2, 1, (1,))
    assert all(v.is_zero() for v in orbit1)
    # not second-order immune, and the primary value shows it
    orbit2 = exact_spectrum_conjugates(e2, 2, (1, 2))
    assert not all(v.is_zero() for v in orbit2)
    assert orbit2[0].coeffs == (6, 6, -3, 3, 3, 3)


def test_exact_values_of_fixed_cubic_blend(e2e3):
    # fails already at m = 1; the value at p^(n-1) is real and nonzero
    orbit = exact_spectrum_conjugates(e2e3, 1, (1,))
    assert orbit[0].coeffs == (18, 0)
    assert orbit[1].coeffs == (-9, -9)


def test_tuple_argument_forms_are_equivalent():
    f = random_function(3, 3, seed=8)
    a = exact_spectrum_conjugates(f, 2, (2, 1))
    b = exact_spectrum_conjugates(f, 2, VariableTuple((2, 1)))
    assert [v.coeffs for v in a] == [v.coeffs for v in b]
    with pytest.raises(ValueError):
        exact_spectrum_conjugates(f, 2, (1,))  # length mismatch
    with pytest.raises(ValueError):
        exact_spectrum_conjugates(f, 2, (1, 4))  # index out of range
    with pytest.raises(ValueError):
        exact_spectrum_conjugates(f, 0, ())


# ---------------------------------------------------------------------------
# Bridges to the float DFT
# ---------------------------------------------------------------------------

def test_conjugates_match_float_dft_at_stratum_indices():
    # at the identity tuple, conjugate a sits at plain index a * p^(n-m)
    rng = random.Random(17)
    for _ in range(40):
        p, n = rng.choice([(2, 4), (3, 3), (5, 2)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        m = rng.randrange(1, n + 1)
        orbit = exact_spectrum_conjugates(f, m, tuple(range(1, m + 1)))
        spec = dft_float(f)
        base = critical_index(f, m)
        for a, value in enumerate(orbit, start=1):
            assert abs(value.to_complex() - spec[a * base]) < 1e-6


def test_permuted_tuple_matches_float_dft():
    # value at tuple t == float DFT of the t-placing permutation of f
    rng = random.Random(29)
    for _ in range(40):
        p, n = rng.choice([(2, 5), (3, 3)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        m = rng.randrange(1, n + 1)
        t = tuple(rng.sample(range(1, n + 1), m))
        pi = _permutation_placing(rng, t, n)
        assert [pi[var - 1] for var in t] == list(range(1, m + 1))
        spec = dft_float(apply_permutation(f, pi))
        base = critical_index(f, m)
        for a, value in enumerate(exact_spectrum_conjugates(f, m, t), start=1):
            assert abs(value.to_complex() - spec[a * base]) < 1e-6


def test_tuple_class_well_defined():
    # any two permutations placing the same ordered tuple give the same
    # exact value, which is also the value reported for the tuple itself
    rng = random.Random(41)
    for _ in range(100):
        p, n = rng.choice([(2, 4), (3, 3)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        m = rng.randrange(1, n + 1)
        t = tuple(rng.sample(range(1, n + 1), m))
        pi = _permutation_placing(rng, t, n)
        sigma = _permutation_placing(rng, t, n)
        ident = tuple(range(1, m + 1))
        via_pi = exact_spectrum_conjugates(apply_permutation(f, pi), m, ident)
        via_sigma = exact_spectrum_conjugates(apply_permutation(f, sigma), m, ident)
        direct = exact_spectrum_conjugates(f, m, t)
        coeffs = [[v.coeffs for v in orbit] for orbit in (via_pi, via_sigma, direct)]
        assert coeffs[0] == coeffs[1] == coeffs[2]


# ---------------------------------------------------------------------------
# The stratum trap: one zero value does not mean immune
# ---------------------------------------------------------------------------

def test_single_evaluation_is_not_sufficient_for_odd_p():
    f = PFunction(3, 2, helpers.STRATUM_TRAP_TABLE)
    for t in [(1,), (2,)]:
        orbit = exact_spectrum_conjugates(f, 1, t)
        assert orbit[0].is_zero()  # the value at p^(n-1) itself
        assert not orbit[1].is_zero()  # its conjugate at 2 * p^(n-1)
    assert not is_ci(f, 1)
    assert not ci_oracle_definition(f, 1)
    assert not helpers.ci_by_fractions(f, 1)
    # float cross-check: index 3 is numerically zero, index 6 is not
    spec = dft_float(f)
    assert abs(spec[3]) < 1e-9
    assert abs(spec[6]) > 1e-3


def test_symmetric_shortcut_needs_the_whole_orbit_for_odd_p():
    f = PFunction(3, 2, helpers.SYMMETRIC_TRAP_TABLE)
    assert is_symmetric(f)
    orbit = exact_spectrum_conjugates(f, 1, (1,))
    assert [v.to_text() for v in orbit] == ["3 1 : 0 0", "3 1 : 3 0"]
    assert orbit[0].is_zero() and not orbit[1].is_zero()
    assert not spectral._rows_equal(f, (1,))
    assert analyze_function(f)["ci_order"] == 0
    verdicts = consensus(f, 1).verdicts
    assert len(verdicts) == 6 and not any(verdicts.values())


def test_whole_orbit_vanishes_for_genuinely_immune_functions(e2):
    spec = dft_float(e2)
    for a in (1, 2):
        assert abs(spec[a * 27]) < 1e-9


# ---------------------------------------------------------------------------
# Verdicts against independent oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,n,trials", [(2, 4, 120), (3, 3, 120), (5, 2, 60)])
def test_is_ci_matches_counting_oracles(p, n, trials):
    rng = random.Random(1000 * p + n)
    for _ in range(trials):
        f = random_function(p, n, seed=rng.randrange(10**6))
        for m in range(1, n + 1):
            got = is_ci(f, m)
            assert got == ci_oracle_definition(f, m)
            if rng.random() < 0.1:  # Fraction oracle is slow; sample it
                assert got == helpers.ci_by_fractions(f, m)


def test_is_ci_matches_walsh_for_binary_functions():
    rng = random.Random(77)
    for _ in range(80):
        f = random_function(2, 4, seed=rng.randrange(10**6))
        for m in range(1, 5):
            assert is_ci(f, m) == helpers.walsh_is_ci(f, m)


def test_is_ci_exhaustive_small_families():
    for f in helpers.all_functions(2, 2):
        for m in (1, 2):
            assert is_ci(f, m) == ci_oracle_definition(f, m)


def test_is_ci_edge_orders():
    f = random_function(3, 3, seed=4)
    assert is_ci(f, 0)
    with pytest.raises(ValueError):
        is_ci(f, -1)
    with pytest.raises(ValueError):
        is_ci(f, 4)


def test_full_order_immunity_means_constant():
    # over all n variables each count row holds a single 1, at f(w), so the
    # rows are equal iff f is constant; the verdict reads the table itself
    rng = random.Random(67)
    for _ in range(40):
        p, n = rng.choice([(2, 3), (2, 4), (3, 2), (5, 2)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        v = f.table[0]
        const = PFunction(p, n, (v,) * p**n)
        one_off = PFunction(p, n, (v,) * (p**n - 1) + ((v + 1) % p,))
        for g in (f, const, one_off):
            want = len(set(g.table)) == 1
            assert is_ci(g, n) == want == ci_oracle_definition(g, n)
            if is_symmetric(g):
                assert ci_order_symmetric(g) == ci_order(g)


def test_ci_monotone_in_m():
    # is_ci(f, m) is ci_order(f) >= m, which holds because the counting
    # definition is monotone in m
    rng = random.Random(55)
    for _ in range(60):
        p, n = rng.choice([(2, 4), (3, 3)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        flags = [ci_oracle_definition(f, m) for m in range(n + 1)]
        # once immunity fails it stays failed
        for lo, hi in zip(flags, flags[1:]):
            assert lo or not hi


def test_first_failing_tuple_is_lexicographic_minimum():
    f = parse_polynomial("x1", 3, 3)
    assert first_failing_tuple(f, 1).indices == (1,)
    g = parse_polynomial("x3", 3, 3)
    assert first_failing_tuple(g, 1).indices == (3,)
    rng = random.Random(61)
    found = 0
    while found < 20:
        f = random_function(3, 3, seed=rng.randrange(10**6))
        t = first_failing_tuple(f, 1)
        if t is None:
            continue
        found += 1
        for idx in permutations(range(1, 4), 1):
            if idx == t.indices:
                break
            assert all(v.is_zero() for v in exact_spectrum_conjugates(f, 1, idx))


@pytest.mark.parametrize(
    "text,p,n", [("x1 + x2 + x3*x4", 2, 4), ("x1 + x2*x3", 3, 3), ("x1*x2 + x2", 5, 2)]
)
def test_failing_tuples_are_exactly_the_nonvanishing_orbits(text, p, n):
    f = parse_polynomial(text, p, n)
    _assert_subset_verdicts_match_tuple_scan(f)
    with pytest.raises(ValueError):
        first_failing_tuple(f, 0)
    with pytest.raises(ValueError):
        first_failing_tuple(f, n + 1)


def test_first_failing_tuple_counts_each_subset_at_most_once(monkeypatch):
    calls = []
    real = spectral._subset_counts

    def counting(f, subsets):
        for subset, counts in zip(subsets, real(f, subsets)):
            calls.append(tuple(subset))
            yield counts

    monkeypatch.setattr(spectral, "_subset_counts", counting)
    rng = random.Random(71)
    subjects = [parse_polynomial(" + ".join(f"x{i}" for i in range(1, 7)), 2, 6)]
    subjects += [_q_plus_linear(rng, 3, 4)[0] for _ in range(6)]
    subjects += [random_function(2, 6, seed=5), _balanced_table(rng, 2, 6)]
    for f in subjects:
        for m in range(1, f.n + 1):
            calls.clear()
            first_failing_tuple(f, m)
            assert len(calls) == len(set(calls)) <= math.comb(f.n, m)
    calls.clear()
    first_failing_tuple(random_function(2, 10, seed=3), 5)
    assert len(calls) == 1  # a random table fails at the first subset


@pytest.mark.parametrize("p,n,m", [(2, 10, 9), (3, 7, 6)])
def test_first_failing_tuple_is_not_factorial(p, n, m):
    # linear forms are (n-1)-CI: the ordered scan visits n!/(n-m)! tuples
    f = parse_polynomial(" + ".join(f"x{i}" for i in range(1, n + 1)), p, n)
    start = time.perf_counter()
    assert first_failing_tuple(f, m) is None
    assert first_failing_tuple(f, n).indices == tuple(range(1, n + 1))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# ParsevalCost against fresh counts, the counting definition and Parseval
# ---------------------------------------------------------------------------

def _random_move(rng, table, p):
    """A point change to a different value, or a swap of two differing
    entries, as (index, value) changes."""
    if rng.random() < 0.5:
        i, j = rng.randrange(len(table)), rng.randrange(len(table))
        if table[i] != table[j]:
            return [(i, table[j]), (j, table[i])]
    i = rng.randrange(len(table))
    return [(i, (table[i] + rng.randrange(1, p)) % p)]


def _assert_fresh(cost, f, m):
    """cost's counts and running total equal a fresh count of its table."""
    fresh = spectral.ParsevalCost(PFunction(f.p, f.n, tuple(cost.table)), m)
    assert cost._counts == fresh._counts
    assert cost.cost == fresh.cost


def _state(cost):
    """A copy of everything a ParsevalCost holds that a move may write."""
    return list(cost.table), list(cost._counts), cost.cost


def _check_counter(cost_cls, f, m, rng, steps) -> int:
    """Walk `steps` random moves from f.  Each is scored by cost_after,
    which must equal a fresh count of the moved table and write nothing;
    about half of them are then applied and compared with a fresh count.
    Returns the cost of f."""
    cost = cost_cls(f, m)
    first = cost.cost
    for _ in range(steps):
        move = _random_move(rng, cost.table, f.p)
        moved = list(cost.table)
        for k, v in move:
            moved[k] = v
        before = _state(cost)
        got = helpers.cost_after(cost, move)
        assert _state(cost) == before
        assert got == spectral.ParsevalCost(PFunction(f.p, f.n, tuple(moved)), m).cost
        if rng.random() < 0.5:
            assert helpers.apply_changes(cost, move) == got
            assert cost.table == moved
            _assert_fresh(cost, f, m)
    return first


def _agreeing_digits(p, n, i, j):
    return sum(i // p**r % p == j // p**r % p for r in range(n))


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_parseval_cost_exhaustive(p, n):
    # cost >= 0 and cost == 0 iff m-CI by literal conditional probabilities,
    # on every table and order.  cost_after of every single change (no-ops
    # included) and of a seeded sample of swaps equals the fresh cost of the
    # moved table, which is itself in the exhaustive set, and writes nothing;
    # apply of one random move per table gives that table's fresh counts
    start = time.perf_counter()
    rng = random.Random(p * n)
    places = [p**k for k in range(p**n)]

    def code(table):
        return sum(v * place for v, place in zip(table, places))

    tables = list(helpers.all_functions(p, n))
    shared = 0
    for m in range(n + 1):
        costs = {code(f.table): spectral.ParsevalCost(f, m) for f in tables}
        for f in tables:
            here = code(f.table)
            cost = costs[here]
            assert cost.cost >= 0
            assert (cost.cost == 0) == helpers.ci_by_fractions(f, m)
            before = _state(cost)
            for k, (old, place) in enumerate(zip(f.table, places)):
                for v in range(p):
                    moved = here + (v - old) * place
                    assert helpers.cost_after(cost, [(k, v)]) == costs[moved].cost
            for _ in range(2):
                i, j = rng.randrange(f.size), rng.randrange(f.size)
                a, b = f.table[i], f.table[j]
                if a == b:
                    continue
                moved = here + (b - a) * places[i] + (a - b) * places[j]
                assert helpers.cost_after(cost, [(i, b), (j, a)]) == costs[moved].cost
                # i and j share a row of the counts over some m-subset, and
                # lie in different rows of those over the others
                shared += 1 <= m <= _agreeing_digits(p, n, i, j)
            assert _state(cost) == before
            # apply one scored move: the counts and cost equal the fresh
            # count of the moved table; the inverse move restores the state,
            # so the cached costs stay valid
            move = _random_move(rng, f.table, p)
            moved = here + sum((v - f.table[k]) * places[k] for k, v in move)
            scored = helpers.cost_after(cost, move)
            assert helpers.apply_changes(cost, move) == scored == costs[moved].cost
            assert cost._counts == costs[moved]._counts
            assert code(cost.table) == moved
            helpers.apply_changes(cost, [(k, f.table[k]) for k, _ in move])
            assert _state(cost) == before
    assert shared >= 100
    assert time.perf_counter() - start < 20.0


@pytest.mark.parametrize("p,n", [(2, 4), (2, 6), (3, 3), (3, 4), (5, 2), (7, 2), (257, 1)])
def test_parseval_cost_matches_a_point_recount(p, n):
    rng = random.Random(10 * p + n)
    for seed in range(5):
        f = random_function(p, n, seed=seed)
        for m in range(n + 1):
            cost = spectral.ParsevalCost(f, m)
            assert cost.cost == helpers.parseval_cost_points(f, m)
            for _ in range(5):
                move = _random_move(rng, cost.table, p)
                scored = helpers.cost_after(cost, move)
                got = helpers.apply_changes(cost, move)
                assert scored == got == helpers.parseval_cost_points(
                    PFunction(p, n, tuple(cost.table)), m
                )


def _level_set_spectrum_cost(f, m):
    """sum over outputs v and over c with 1 <= wt(c) <= m of
    C(n - wt(c), m - wt(c)) * |sum_{x : f(x) = v} omega^(c.x)|^2, in floats."""
    omega = np.exp(2j * np.pi / f.p)
    pts = list(helpers.points(f.p, f.n))
    total = 0.0
    for c in product(range(f.p), repeat=f.n):
        wt = sum(ci != 0 for ci in c)
        if not 1 <= wt <= m:
            continue
        sums = [0j] * f.p
        for x, v in zip(pts, f.table):
            sums[v] += omega ** (sum(ci * xi for ci, xi in zip(c, x)) % f.p)
        total += math.comb(f.n - wt, m - wt) * sum(abs(z) ** 2 for z in sums)
    return total


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_parseval_cost_is_a_level_set_spectrum(p, n):
    rng = random.Random(p + n)
    subjects = [random_function(p, n, seed=s) for s in range(10)]
    subjects += [_balanced_table(rng, p, n), parse_polynomial("x1 + x2", p, n)]
    for f in subjects:
        for m in range(n + 1):
            want = _level_set_spectrum_cost(f, m)
            assert abs(spectral.ParsevalCost(f, m).cost - want) < 1e-9 * max(1.0, want)


class _NoHistogram(spectral.ParsevalCost):
    """Mutant: a move updates the m-subset counts but not the histogram."""

    def __init__(self, f, m):
        super().__init__(f, m)
        self._lists = self._lists[:-1]


def test_parseval_cost_check_catches_a_histogram_mutant():
    with pytest.raises(AssertionError):
        for f in helpers.all_functions(2, 3):
            _check_counter(_NoHistogram, f, 1, random.Random(1), steps=1)


def test_parseval_cost_same_value_and_repeated_index():
    f = random_function(3, 3, seed=5)
    k, j = 7, 20
    same = next(i for i in range(f.size) if i != k and f.table[i] == f.table[k])
    for m in range(f.n + 1):
        counter = spectral.ParsevalCost(f, m)
        before = _state(counter)
        # a change to the value already there, and a swap of equal values
        # or of an entry with itself, are no-ops
        assert helpers.cost_after(counter, [(k, f.table[k])]) == counter.cost
        assert helpers.cost_after(counter, [(k, f.table[same]), (same, f.table[k])]) == counter.cost
        assert helpers.cost_after(counter, [(k, f.table[k]), (k, f.table[k])]) == counter.cost
        # applying a no-op writes nothing either
        assert helpers.apply_changes(counter, [(k, f.table[k])]) == counter.cost
        assert _state(counter) == before
        # two changes that are no swap are refused, not mis-scored
        with pytest.raises(ValueError):
            helpers.cost_after(counter, [(k, (f.table[k] + 1) % 3), (j, (f.table[j] + 1) % 3)])
        assert _state(counter) == before
        # apply writes any list of changes in order, a repeated index too
        moves = [(k, (f.table[k] + 1) % 3), (j, (f.table[j] + 1) % 3), (k, (f.table[k] + 2) % 3)]
        got = helpers.apply_changes(counter, moves)
        assert counter.table[k] == (f.table[k] + 2) % 3
        assert counter.table[j] == (f.table[j] + 1) % 3
        assert got == counter.cost
        _assert_fresh(counter, f, m)


def test_parseval_cost_edges():
    f = random_function(3, 2, seed=4)
    with pytest.raises(ValueError):
        spectral.ParsevalCost(f, 3)
    zero = spectral.ParsevalCost(f, 0)
    assert zero.cost == 0
    change = [(0, (f.table[0] + 1) % 3)]
    assert helpers.cost_after(zero, change) == 0
    assert tuple(zero.table) == f.table
    assert helpers.apply_changes(zero, change) == 0
    assert zero.table[0] == (f.table[0] + 1) % 3


def test_ci_order_pinned_values(e2, e2e3):
    assert ci_order(PFunction(3, 2, (0,) * 9)) == 2
    assert ci_order(parse_polynomial("x1 + x2 + x3", 3, 3)) == 2
    assert ci_order(e2) == 1
    assert ci_order(e2e3) == 0
    assert ci_order(parse_polynomial("x1", 2, 3)) == 0


def test_ci_order_consistent_with_is_ci():
    # is_ci is derived from ci_order, so both are checked against the
    # counting definition
    rng = random.Random(67)
    for _ in range(40):
        p, n = rng.choice([(2, 4), (3, 3)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        k = ci_order(f)
        assert ci_oracle_definition(f, k)
        if k < n:
            assert not ci_oracle_definition(f, k + 1)


# ---------------------------------------------------------------------------
# The exact row transform, and ci_order's handover to it
# ---------------------------------------------------------------------------

def _definition_order(f):
    """max m with ci_oracle_definition(f, m), the counting definition read
    subset by subset (it is monotone in m)."""
    m = 0
    while m < f.n and ci_oracle_definition(f, m + 1):
        m += 1
    return m


def _stacked(functions):
    """The tables of functions as one (K, p^n) batch, in order."""
    return np.stack([f.flat for f in functions])


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (3, 3), (5, 2)])
def test_row_transform_counts_every_shifted_output(p, n):
    # column j is the c whose digits are those of table index j; the last
    # axis holds the tables of the batch in order
    rng = random.Random(p * 10 + n)
    family = [random_function(p, n, seed=rng.randrange(10**6)) for _ in range(5)]
    rows = spectral._row_transform(_stacked(family), p, n)
    assert rows.shape == (p, p**n, 5)
    for i, f in enumerate(family):
        for j, c in enumerate(helpers.points(p, n)):
            for s in range(p):
                want = sum(
                    (f.evaluate(x) + sum(ci * xi for ci, xi in zip(c, x))) % p == s
                    for x in helpers.points(p, n)
                )
                assert rows[s, j, i] == want


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_transform_order_matches_is_ci_exhaustive(p, n):
    family = list(helpers.all_functions(p, n))
    orders = spectral._transform_ci_orders(_stacked(family), p, n).tolist()
    assert orders == [_definition_order(f) for f in family]
    assert set(orders) == set(range(n + 1))


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2)])
def test_transform_orders_match_ci_order_over_every_table(p, n):
    # the batch reads the whole family at once; ci_order reads each table
    # by its own scan, or by the transform of that table alone
    family = list(helpers.all_functions(p, n))
    orders = spectral._transform_ci_orders(_stacked(family), p, n)
    assert orders.tolist() == [ci_order(f) for f in family]


@pytest.mark.parametrize("p,n", [(2, 6), (3, 4), (5, 3), (7, 2), (2, 10), (3, 6)])
def test_transform_order_matches_is_ci_on_seeded_families(p, n):
    rng = random.Random(1000 * p + n)
    families = [PFunction(p, n, (v,) * p**n) for v in range(p)]  # order n
    for _ in range(10):
        families.append(random_function(p, n, seed=rng.randrange(10**6)))  # order 0
        families.append(_balanced_table(rng, p, n))
        families.append(_q_plus_linear(rng, p, n)[0])
    orders = spectral._transform_ci_orders(_stacked(families), p, n).tolist()
    assert orders == [_definition_order(f) for f in families]
    assert {0, n} <= set(orders) and len(set(orders)) >= 3


@pytest.mark.parametrize(
    "p,n,m,transformed",
    [(2, 6, 1, False), (3, 4, 1, False), (2, 19, 2, True), (2, 19, 5, True),
     (3, 12, 2, True), (7, 7, 2, True)],
)
def test_maiorana_mcfarland_orders_in_every_handover_regime(monkeypatch, p, n, m, transformed):
    # the closed form gives ci_order = resiliency_order = m exactly; the
    # small members end in the subset scan, the large ones in the transform
    f = helpers.maiorana_mcfarland(p, n, m, seed=100 * p + n)
    transforms = []
    transform = spectral._transform_ci_orders
    monkeypatch.setattr(
        spectral, "_transform_ci_orders", lambda *a: transforms.append(a) or transform(*a)
    )
    assert analyze_function(f) == {
        "p": p, "n": n, "balanced": True, "symmetric": False,
        "ci_order": m, "resiliency_order": m,
    }
    assert len(transforms) == transformed
    if not transformed:
        assert all(consensus(f, m).verdicts.values())
        assert not any(consensus(f, m + 1).verdicts.values())


@pytest.mark.parametrize(
    "p,n,orders", [(2, 6, (1, 2, 3)), (2, 8, (1, 2, 4, 5)), (3, 4, (1, 2)), (3, 5, (1, 2)),
                   (5, 3, (1,)), (7, 3, (1,))],
)
def test_forced_scan_matches_the_transform_on_planted_orders(monkeypatch, p, n, orders):
    # the scan, never rented out, and the transform give the same order on
    # Maiorana-McFarland members (order exactly m) and on each with one
    # entry changed
    rng = random.Random(7 * p + n)
    subjects, want = [], []
    for m in orders:
        for seed in range(3):
            f = helpers.maiorana_mcfarland(p, n, m, seed=seed)
            subjects.append(f)
            want.append(m)
            for k in rng.sample(range(f.size), 4):
                table = f.flat.copy()
                table[k] = (table[k] + rng.randrange(1, p)) % p
                subjects.append(PFunction(p, n, table))
                want.append(None)
    transformed = spectral._transform_ci_orders(_stacked(subjects), p, n).tolist()
    monkeypatch.setattr(spectral, "_transform_steps", lambda f: 10**18)
    monkeypatch.setattr(spectral, "_transform_ci_orders", lambda *a: pytest.fail("transformed"))
    scanned = [ci_order(f) for f in subjects]
    assert scanned == transformed
    assert [o for o, w in zip(scanned, want) if w is not None] == [w for w in want if w is not None]
    assert min(scanned) < min(orders)  # some change drops the order


def _spy_rows_equal(monkeypatch) -> list:
    """The subsets spectral._rows_equal is called on, from now on."""
    calls = []
    rows_equal = spectral._rows_equal
    monkeypatch.setattr(spectral, "_rows_equal", lambda g, s: calls.append(s) or rows_equal(g, s))
    return calls


# quad1 at (2,14) is immune up to n - 3
QUAD1_2_14 = "x1*x2 + " + " + ".join(f"x{i}" for i in range(3, 15))


def test_ci_order_hands_over_to_the_transform(monkeypatch):
    # the scan alone reads 2^14 - 16 subsets
    f = parse_polynomial(QUAD1_2_14, 2, 14)
    calls = _spy_rows_equal(monkeypatch)
    assert ci_order(f) == 11
    assert 1 <= len(calls) <= spectral._transform_steps(f) // f.size + 1


def test_is_ci_hands_over_to_the_transform(monkeypatch):
    # is_ci answers from ci_order's rented scan; its own scan at m = 5 would
    # read all C(14, 5) = 2,002 subsets
    f = parse_polynomial(QUAD1_2_14, 2, 14)
    calls = _spy_rows_equal(monkeypatch)
    assert is_ci(f, 5)
    assert 1 <= len(calls) <= spectral._transform_steps(f) // f.size + 1


def test_ci_order_keeps_the_scan_where_it_is_cheaper(monkeypatch):
    calls = _spy_rows_equal(monkeypatch)
    monkeypatch.setattr(spectral, "_transform_ci_orders", lambda *a: pytest.fail("transformed"))
    # a random table fails on its first subset
    assert ci_order(random_function(2, 12, seed=5)) == 0
    assert calls == [(1,)]
    # a table of 16 entries is scanned to the end
    calls.clear()
    assert ci_order(PFunction(2, 4, (1,) * 16)) == 4
    assert len(calls) == 15
    # the first subset is always within the estimate; at (31,4) and (97,3)
    # every subset is
    for p in (2, 3, 5, 7, 11, 13, 31, 97, 997, 65537):
        n = 1
        while p**n <= 2**31:
            size = SimpleNamespace(p=p, n=n, size=p**n)
            assert spectral._transform_steps(size) >= p**n
            n += 1
    for p, n in ((31, 4), (97, 3)):
        size = SimpleNamespace(p=p, n=n, size=p**n)
        assert spectral._transform_steps(size) > (2**n - 1) * p**n


def _assert_subset_verdicts_match_tuple_scan(f):
    """is_ci, the witness first_failing_tuple (both per unordered subset) and
    the zeros of ParsevalCost against the ordered scan of exact values, and
    the derived resiliency_order against the definitional restriction scan
    first_unbalanced_restriction."""
    assert is_ci(f, 0)
    for m in range(1, f.n + 1):
        want = helpers.failing_tuples_scan(f, m)
        first = first_failing_tuple(f, m)
        assert (first is None) if not want else first.indices == want[0]
        assert is_ci(f, m) == (not want)
        assert (spectral.ParsevalCost(f, m).cost == 0) == (want == [])
    res = [m for m in range(f.n + 1) if first_unbalanced_restriction(f, m) is None]
    assert resiliency_order(f) == (max(res) if res else -1)


def _balanced_table(rng, p, n):
    values = [v for v in range(p) for _ in range(p ** (n - 1))]
    rng.shuffle(values)
    return PFunction(p, n, tuple(values))


def _q_plus_linear(rng, p, n):
    """q(x_S) + sum of c_i * x_i over the other variables, all c_i != 0: a
    random q on |S| <= n-1 variables, (n-|S|-1)-resilient by construction.
    Returns the function and that guaranteed order."""
    s = rng.randrange(n)
    subset = sorted(rng.sample(range(n), s))
    q = {a: rng.randrange(p) for a in product(range(p), repeat=s)}
    coeff = [0 if i in subset else rng.randrange(1, p) for i in range(n)]
    table = tuple(
        (q[tuple(x[i] for i in subset)] + sum(c * xi for c, xi in zip(coeff, x))) % p
        for x in helpers.points(p, n)
    )
    return PFunction(p, n, table), n - s - 1


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_subset_verdict_matches_tuple_scan_exhaustive(p, n):
    for f in helpers.all_functions(p, n):
        _assert_subset_verdicts_match_tuple_scan(f)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 3), (7, 2)])
def test_subset_verdict_matches_tuple_scan_on_immune_families(p, n):
    # random tables almost never reach CI = true; balanced tables and
    # q(x_S) + linear families do
    rng = random.Random(100 * p + n)
    immune = 0
    for _ in range(20):
        _assert_subset_verdicts_match_tuple_scan(_balanced_table(rng, p, n))
        f, order = _q_plus_linear(rng, p, n)
        _assert_subset_verdicts_match_tuple_scan(f)
        assert resiliency_order(f) >= order
        immune += order >= 1
    assert immune >= 5


# ---------------------------------------------------------------------------
# Symmetric shortcut
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_shortcut_exhaustive_binary(n):
    for f in helpers.all_symmetric_functions(2, n):
        for m in range(1, n + 1):
            assert spectral._rows_equal(f, tuple(range(1, m + 1))) == is_ci(f, m)
        assert ci_order_symmetric(f) == ci_order(f)


def test_symmetric_shortcut_random_ternary():
    for seed in range(100):
        f = helpers.random_symmetric_function(3, 4, seed)
        for m in range(1, 5):
            assert spectral._rows_equal(f, tuple(range(1, m + 1))) == is_ci(f, m)
        assert ci_order_symmetric(f) == ci_order(f)


def _vanishes_for_every_multiple(f, m):
    """The symmetric theorem's test: for every c in 1..p-1 the exact DFT of
    c*f vanishes at the one index p^(n-m)."""
    return all(
        exact_spectrum_conjugates(
            PFunction(f.p, f.n, tuple(c * v % f.p for v in f.table)), m, range(1, m + 1)
        )[0].is_zero()
        for c in range(1, f.p)
    )


def test_symmetric_theorem_matches_is_ci(e2):
    # a symmetric f is m-CI iff the DFT of c*f vanishes at p^(n-m) for every
    # c = 1..p-1 (spectral module docstring)
    trap = PFunction(3, 2, helpers.SYMMETRIC_TRAP_TABLE)
    fixed = [
        (e2, [True, False, False, False]),
        (trap, [False, False]),
        (parse_polynomial("x1 + x2 + x3 + x4", 3, 4), [True, True, True, False]),
        (parse_polynomial("x1 + x2 + x3", 5, 3), [True, True, False]),
    ]
    for f, want in fixed:
        assert [_vanishes_for_every_multiple(f, m) for m in range(1, f.n + 1)] == want
    # c = 1 alone passes the trap, and 63 (function, order) pairs at (3,2)
    assert exact_spectrum_conjugates(trap, 1, (1,))[0].is_zero()
    lone_zeros = 0
    for f in helpers.all_symmetric_functions(3, 2):
        for m in (1, 2):
            ci = is_ci(f, m)
            assert _vanishes_for_every_multiple(f, m) == ci
            orbit = exact_spectrum_conjugates(f, m, range(1, m + 1))
            lone_zeros += orbit[0].is_zero() and not ci
    assert lone_zeros == 63
    for seed in range(100):
        for p, n in [(5, 2), (3, 4)]:
            f = helpers.random_symmetric_function(p, n, seed)
            for m in range(1, n + 1):
                assert _vanishes_for_every_multiple(f, m) == is_ci(f, m)


def test_symmetric_shortcut_hands_over_to_the_transform(monkeypatch):
    # parity is immune up to n - 1; the shortcut alone reads all 14 prefixes
    f = parse_polynomial("+".join(f"x{i}" for i in range(1, 15)), 2, 14)
    calls, transforms = [], []
    rows_equal, transform = spectral._rows_equal, spectral._transform_ci_orders
    monkeypatch.setattr(spectral, "_rows_equal", lambda g, s: calls.append(s) or rows_equal(g, s))
    monkeypatch.setattr(
        spectral, "_transform_ci_orders", lambda *a: transforms.append(a) or transform(*a)
    )
    assert ci_order_symmetric(f) == 13
    assert 1 <= len(calls) <= spectral._transform_steps(f) // f.size + 1
    assert calls == [tuple(range(1, m + 1)) for m in range(1, len(calls) + 1)]
    assert len(transforms) == 1


@pytest.mark.parametrize("p,n", [(2, 8), (3, 6), (5, 4), (7, 3)])
def test_symmetric_shortcut_keeps_the_scan_where_it_is_cheaper(monkeypatch, p, n):
    f = parse_polynomial("+".join(f"x{i}" for i in range(1, n + 1)), p, n)
    calls = []
    rows_equal = spectral._rows_equal
    monkeypatch.setattr(spectral, "_rows_equal", lambda g, s: calls.append(s) or rows_equal(g, s))
    monkeypatch.setattr(spectral, "_transform_ci_orders", lambda *a: pytest.fail("transformed"))
    assert ci_order_symmetric(f) == n - 1
    assert calls == [tuple(range(1, m + 1)) for m in range(1, n + 1)]


def test_symmetric_shortcut_rejects_asymmetric_input():
    f = parse_polynomial("x1", 2, 2)
    with pytest.raises(ValueError):
        ci_order_symmetric(f)


# ---------------------------------------------------------------------------
# Resiliency
# ---------------------------------------------------------------------------

def test_resiliency_of_linear_forms():
    # x1 + ... + xn restricted on any n-1 variables is still a bijection
    # of the remaining one, hence balanced: resiliency order n-1
    for p, n in [(2, 4), (3, 4), (5, 3)]:
        text = " + ".join(f"x{i}" for i in range(1, n + 1))
        f = parse_polynomial(text, p, n)
        assert resiliency_order(f) == n - 1
        assert first_unbalanced_restriction(f, n - 1) is None
        assert first_unbalanced_restriction(f, n) is not None
        assert helpers.resilient_by_counting(f, n - 1)


def test_resiliency_pinned_values(e2, e2e3):
    assert resiliency_order(PFunction(3, 2, (0,) * 9)) == -1
    assert resiliency_order(e2) == -1  # not balanced, immune or not
    assert resiliency_order(e2e3) == -1
    assert resiliency_order(parse_polynomial("x1 + x2", 2, 2)) == 1
    assert resiliency_order(parse_polynomial("x1*x2", 2, 2)) == -1
    assert resiliency_order(parse_polynomial("x1", 2, 2)) == 0


def test_is_resilient_edge_orders():
    f = parse_polynomial("x1 + x2", 3, 2)
    # m-resilient iff first_unbalanced_restriction(f, m) is None
    assert (first_unbalanced_restriction(f, 0) is None) == is_balanced(f)
    # single points cannot be balanced
    assert first_unbalanced_restriction(f, f.n) is not None
    g = PFunction(2, 2, (0, 0, 0, 1))
    assert first_unbalanced_restriction(g, 0) is not None
    with pytest.raises(ValueError):
        first_unbalanced_restriction(f, -1)


def test_is_resilient_matches_counting_oracle():
    rng = random.Random(71)
    for _ in range(60):
        p, n = rng.choice([(2, 4), (3, 3)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        for m in range(n + 1):
            resilient = first_unbalanced_restriction(f, m) is None
            assert resilient == helpers.resilient_by_counting(f, m)


def test_resilient_implies_immune_and_balanced():
    rng = random.Random(73)
    seen = 0
    for _ in range(400):
        p, n = rng.choice([(2, 4), (3, 3)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        r = resiliency_order(f)
        if r >= 0:
            assert is_balanced(f)
            assert r <= ci_order(f)
            seen += 1
    assert seen > 10  # the battery must actually exercise balanced functions


def test_first_unbalanced_restriction_witness_is_genuine():
    rng = random.Random(79)
    found = 0
    while found < 25:
        f = random_function(3, 3, seed=rng.randrange(10**6))
        m = rng.randrange(0, 4)
        w = first_unbalanced_restriction(f, m)
        if w is None:
            assert helpers.resilient_by_counting(f, m)
            continue
        found += 1
        subset, assign, counts = w
        # recount the claimed fiber from scratch
        recount = [0] * 3
        for x in helpers.points(3, 3):
            if all(x[i - 1] == a for i, a in zip(subset, assign)):
                recount[f.evaluate(x)] += 1
        assert tuple(recount) == counts
        assert len(set(counts)) > 1
        # every pair scanned before the witness must be balanced
        from itertools import product as iproduct

        from cispectra import digits_of

        for sub2, a_idx in iproduct(combinations(range(1, 4), m), range(3**m)):
            assign2 = digits_of(a_idx, 3, m) if m else ()
            if (sub2, assign2) == (subset, tuple(assign)):
                break
            row = [0] * 3
            for x in helpers.points(3, 3):
                if all(x[i - 1] == a for i, a in zip(sub2, assign2)):
                    row[f.evaluate(x)] += 1
            assert len(set(row)) == 1


# ---------------------------------------------------------------------------
# Float transforms
# ---------------------------------------------------------------------------

def test_dft_of_constant_is_a_delta():
    f = PFunction(3, 2, (1,) * 9)
    spec = dft_float(f)
    w = np.exp(2j * np.pi / 3)
    assert abs(spec[0] - 9 * w) < 1e-9
    assert np.all(np.abs(spec[1:]) < 1e-9)


def test_dft_zero_bin_is_the_omega_sum():
    rng = random.Random(83)
    for _ in range(20):
        p, n = rng.choice([(2, 4), (3, 3)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        want = sum(np.exp(2j * np.pi * v / p) for v in f.table)
        assert abs(dft_float(f)[0] - want) < 1e-9


def test_direct_and_fft_paths_agree():
    # N = 81, 625, 4096, 6561
    for p, n in [(3, 4), (5, 4), (2, 12), (3, 8)]:
        f = random_function(p, n, seed=p * n)
        err = np.max(np.abs(dft_float(f) - helpers.dft_direct(f)))
        assert err < 1e-9 * f.size, (p, n, err)


def test_autocorrelation_zero_shift_is_the_point_count():
    rng = random.Random(97)
    for _ in range(10):
        p, n = rng.choice([(2, 4), (3, 3)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        ac = autocorrelation(f)
        assert abs(ac[0] - f.size) < 1e-9


def test_wiener_khinchin_and_parseval():
    rng = random.Random(101)
    for _ in range(15):
        p, n = rng.choice([(2, 4), (3, 3)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        spec = dft_float(f)
        power = np.abs(spec) ** 2
        # DFT of the cyclic autocorrelation is the power spectrum; the
        # autocorrelation is the direct sum, since the library's is
        # ifft(power) and would pass by construction
        pair = np.fft.fft(helpers.autocorrelation_direct(f))
        assert np.max(np.abs(pair - power)) < 1e-6 * f.size
        # Parseval: total power is N^2
        assert abs(power.sum() - f.size**2) < 1e-6 * f.size**2


@pytest.mark.parametrize("p,n", [(3, 4), (3, 5), (5, 4), (2, 12), (3, 8)])
def test_autocorrelation_direct_and_fft_paths_agree(p, n):
    f = random_function(p, n, seed=p * n)
    err = np.max(np.abs(autocorrelation(f) - helpers.autocorrelation_direct(f)))
    assert err < 1e-9 * f.size


def test_autocorrelation_is_fast_on_large_tables():
    f = random_function(3, 10, seed=8)
    start = time.perf_counter()
    ac = autocorrelation(f)
    assert time.perf_counter() - start < 1.0
    w = np.exp(2j * np.pi / 3 * np.asarray(f.table))
    for t in [0, 1, 3**9, 12345, f.size - 1]:
        assert abs(ac[t] - np.vdot(w, np.roll(w, -t))) < 1e-9 * f.size


# ---------------------------------------------------------------------------
# SpectrumDump JSON
# ---------------------------------------------------------------------------

def test_spectrum_dump_roundtrip_is_bit_exact():
    f = random_function(3, 3, seed=21)
    dump = SpectrumDump.compute(f)
    obj = json.loads(dump.to_json())
    assert (obj["p"], obj["n"]) == (dump.p, dump.n)
    for key, values in [("dft", dump.dft), ("autocorrelation", dump.autocorrelation)]:
        pairs = np.array(obj[key])
        assert pairs.shape == (27, 2)
        assert np.array_equal(pairs[:, 0], values.real)
        assert np.array_equal(pairs[:, 1], values.imag)
    assert abs(dump.dft[0] - sum(np.exp(2j * np.pi * v / 3) for v in f.table)) < 1e-9
    assert abs(dump.autocorrelation[0] - 27) < 1e-9
