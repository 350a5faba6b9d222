"""Independent characterizations and their pairwise consensus."""

import json
import random
import sys
import threading
from collections import Counter
from itertools import product

import numpy as np
import pytest

from cispectra import (
    CycloElement,
    PFunction,
    parse_polynomial,
    random_function,
)
from cispectra.reference import (
    METHOD_NAMES,
    CountMatrix,
    chrestenson_cyclic,
    chrestenson_cyclic_witness,
    chrestenson_linear,
    chrestenson_linear_witness,
    ci_oracle_definition,
    consensus,
    count_matrix,
    definition_witness,
    matrix_test,
    orthogonal_array_witness,
    _shift_folds,
    _weighted_vectors,
)
from cispectra import is_balanced
from cispectra import cli, reference, spectral
from cispectra.ptable import _exhaustive_chunks

import helpers


def _shifted(f, a):
    """The table of x -> (f(x) + a) mod p."""
    return PFunction(f.p, f.n, tuple((v + a) % f.p for v in f.table))


def _battery(rng, trials):
    for _ in range(trials):
        p, n = rng.choice([(2, 4), (3, 3), (5, 2)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        m = rng.randrange(1, n + 1)
        yield f, m


# ---------------------------------------------------------------------------
# Weighted vector enumeration
# ---------------------------------------------------------------------------

def test_weighted_vectors_order_and_bounds():
    got = list(_weighted_vectors(3, 2, 1))
    assert got == [(0, 1), (0, 2), (1, 0), (2, 0)]
    full = list(_weighted_vectors(2, 3, 3))
    assert len(full) == 7  # everything except the zero vector
    assert all(1 <= sum(1 for d in c if d) <= 2 for c in _weighted_vectors(5, 4, 2))


# ---------------------------------------------------------------------------
# Definition oracle
# ---------------------------------------------------------------------------

def test_definition_oracle_basics(e2, e2e3):
    assert ci_oracle_definition(parse_polynomial("x1", 2, 2), 1) is False
    assert ci_oracle_definition(PFunction(3, 2, (0,) * 9), 2) is True
    assert ci_oracle_definition(e2, 1) is True
    assert ci_oracle_definition(e2, 2) is False
    assert ci_oracle_definition(e2e3, 1) is False
    f = random_function(3, 3, seed=2)
    assert ci_oracle_definition(f, 0) is True


def test_definition_oracle_matches_fraction_probabilities():
    rng = random.Random(111)
    for f, m in _battery(rng, 40):
        assert ci_oracle_definition(f, m) == helpers.ci_by_fractions(f, m)


def test_definition_witness_is_scan_minimal():
    rng = random.Random(121)
    found = 0
    while found < 20:
        f = random_function(3, 3, seed=rng.randrange(10**6))
        m = rng.randrange(1, 4)
        w = definition_witness(f, m)
        if w is None:
            continue
        found += 1
        subset, assign, t = w
        assert len(subset) == m and len(assign) == m and 0 <= t < 3
        # the reported triple really violates the counting identity
        total = sum(1 for v in f.table if v == t)
        hit = sum(
            1
            for x in helpers.points(3, 3)
            if f.evaluate(x) == t and all(x[i - 1] == a for i, a in zip(subset, assign))
        )
        assert 3**m * hit != total


# ---------------------------------------------------------------------------
# Chrestenson spectra
# ---------------------------------------------------------------------------

def test_cyclic_specializes_to_walsh_for_binary():
    rng = random.Random(131)
    for _ in range(20):
        f = random_function(2, 4, seed=rng.randrange(10**6))
        for c in product(range(2), repeat=4):
            value = chrestenson_cyclic(f, c)
            assert value.coeffs == (helpers.walsh_coeff(f, c),)


def test_cyclic_at_zero_vector_detects_balance():
    rng = random.Random(137)
    for _ in range(30):
        p, n = rng.choice([(2, 3), (3, 2)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        assert chrestenson_cyclic(f, (0,) * n).is_zero() == is_balanced(f)


def test_linear_spectrum_pinned_values():
    f = parse_polynomial("x1", 2, 1)
    # sum_x f(x) * (-1)^x = 0*1 + 1*(-1) = -1
    assert chrestenson_linear(f, (1,)).coeffs == (-1,)
    zero = parse_polynomial("0", 3, 2)
    for c in product(range(3), repeat=2):
        assert chrestenson_linear(zero, c).is_zero()
    # constant 1 against a nonzero form sums a full root orbit
    one = parse_polynomial("1", 3, 2)
    assert chrestenson_linear(one, (1, 0)).is_zero()
    assert not chrestenson_linear(one, (0, 0)).is_zero()


def test_linear_needs_output_shifts():
    # the output enters the linear spectrum as a multiplier, so a dependence
    # can hide at shift 0 and only show after adding a constant; this seed
    # produces exactly that situation
    f = random_function(3, 2, seed=14)
    w = chrestenson_linear_witness(f, 1)
    assert w == ((0, 1), 1)
    c, shift = w
    assert chrestenson_linear(f, c).is_zero()
    assert chrestenson_linear(_shifted(f, shift), c).coeffs == (-3, -3)
    assert not ci_oracle_definition(f, 1)


def test_linear_witness_is_scan_minimal():
    rng = random.Random(141)
    found = 0
    while found < 15:
        f = random_function(3, 2, seed=rng.randrange(10**6))
        w = chrestenson_linear_witness(f, 1)
        if w is None:
            continue
        found += 1
        for c in _weighted_vectors(3, 2, 1):
            done = False
            for a in range(3):
                if (c, a) == w:
                    done = True
                    break
                assert chrestenson_linear(_shifted(f, a), c).is_zero()
            if done:
                break


def test_chrestenson_oracles_match_definition():
    rng = random.Random(139)
    for f, m in _battery(rng, 40):
        want = ci_oracle_definition(f, m)
        assert (chrestenson_cyclic_witness(f, m) is None) == want
        assert (chrestenson_linear_witness(f, m) is None) == want


def test_cyclic_witness_is_scan_minimal():
    rng = random.Random(149)
    found = 0
    while found < 15:
        f = random_function(3, 2, seed=rng.randrange(10**6))
        w = chrestenson_cyclic_witness(f, 2)
        if w is None:
            continue
        found += 1
        for c in _weighted_vectors(3, 2, 2):
            if c == w:
                break
            assert chrestenson_cyclic(f, c).is_zero()


# ---------------------------------------------------------------------------
# Count matrices
# ---------------------------------------------------------------------------

def test_count_matrix_pinned_example():
    f = parse_polynomial("x1", 2, 2)
    cm = count_matrix(f, (1, 0))
    assert cm.c == (1, 0)
    # c.x = x1 equals f here, so the counts concentrate on the diagonal
    assert cm.entries == ((2, 0), (0, 2))
    assert not cm.rows_identical()


def test_count_matrix_row_sums_are_fiber_sizes():
    rng = random.Random(151)
    for _ in range(30):
        p, n = rng.choice([(2, 3), (3, 2), (5, 2)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        for c in _weighted_vectors(p, n, n):
            cm = count_matrix(f, c)
            for row in cm.entries:
                assert sum(row) == p ** (n - 1)
        # c = 0 collapses onto one row holding the whole table
        cm0 = count_matrix(f, (0,) * n)
        assert sum(cm0.entries[0]) == p**n
        assert all(sum(row) == 0 for row in cm0.entries[1:])


def test_count_matrix_entries_recount():
    f = random_function(3, 2, seed=303)
    c = (1, 2)
    cm = count_matrix(f, c)
    for i in range(3):
        for j in range(3):
            want = sum(
                1
                for x in helpers.points(3, 2)
                if (c[0] * x[0] + c[1] * x[1]) % 3 == i and f.evaluate(x) == j
            )
            assert cm.entries[i][j] == want


def test_matrix_test_matches_definition():
    rng = random.Random(157)
    for f, m in _battery(rng, 40):
        ok, witness = matrix_test(f, m)
        assert ok == ci_oracle_definition(f, m)
        if not ok:
            assert isinstance(witness, CountMatrix)
            assert not witness.rows_identical()


def _check_values(f, shifts):
    """count_matrix, both Chrestenson sums and the linear witness's per-shift
    folds against the per-point references at every c in F_p^n, with
    chrestenson_linear taken on _shifted(f, a) for each a in shifts."""
    p = f.p
    for c in product(range(p), repeat=f.n):
        cm = count_matrix(f, c)
        assert cm.entries == helpers.count_matrix_points(f, c)
        assert chrestenson_cyclic(f, c) == helpers.cyclic_sum_points(f, c)
        linear = [helpers.linear_sum_points(f, c, a) for a in range(p)]
        assert [CycloElement.from_root_counts(p, 1, k) for k in _shift_folds(cm.entries)] == linear
        for a in shifts:
            assert chrestenson_linear(_shifted(f, a), c) == linear[a]


def _check_witnesses(f):
    """The three witnesses at every order against scans of the per-point
    references; each scan stops at its first failure, as the oracle does."""
    p, n = f.p, f.n
    for m in range(1, n + 1):
        cs = list(_weighted_vectors(p, n, m))
        assert chrestenson_cyclic_witness(f, m) == next(
            (c for c in cs if not helpers.cyclic_sum_points(f, c).is_zero()), None)
        assert chrestenson_linear_witness(f, m) == next(
            ((c, a) for c in cs for a in range(p)
             if not helpers.linear_sum_points(f, c, a).is_zero()), None)
        c = next((c for c in cs if len(set(helpers.count_matrix_points(f, c))) > 1), None)
        ok, cm = matrix_test(f, m)
        assert ok == (c is None)
        if c is not None:
            assert (cm.c, cm.entries) == (c, helpers.count_matrix_points(f, c))


@pytest.mark.parametrize("p,n,values", [(2, 3, True), (3, 2, False)])
def test_fourier_oracles_match_point_sums_exhaustive(p, n, values):
    # values at every c only at (2,3): (3,2) has 19,683 functions, and its
    # witnesses reach each fold up to the first failing c.  A whole family
    # is closed under output shifts, so shift 0 of every member covers
    # chrestenson_linear(_shifted(f, a), c) for every (f, a).
    for f in helpers.all_functions(p, n):
        if values:
            _check_values(f, (0,))
        _check_witnesses(f)


@pytest.mark.parametrize("p,n", [(5, 2), (3, 3), (7, 2)])
def test_fourier_oracles_match_point_sums_on_seeded_tables(p, n):
    # the linear form is immune to every order below n, so each witness
    # scans every c of weight 1..n-1
    linear = parse_polynomial("+".join(f"x{i}" for i in range(1, n + 1)), p, n)
    for f in [linear] + [random_function(p, n, seed=s) for s in range(4)]:
        _check_values(f, range(p))
        _check_witnesses(f)


def _spy_passes(monkeypatch):
    """The weights of every _weighted_digits pass reference makes; for a
    count matrix they are its reduced c."""
    passes = []
    weighted_digits = reference._weighted_digits
    monkeypatch.setattr(
        reference, "_weighted_digits",
        lambda p, weights: passes.append(tuple(weights)) or weighted_digits(p, weights))
    return passes


def test_fourier_oracles_make_one_digit_pass_per_c(monkeypatch):
    # x1 + x2 + x3 over F_3 is 2-CI, so each oracle evaluates every c of
    # weight 1..2 and returns no witness.  The first oracle on a function
    # packs each c once; the other two, and the first again, read its memo.
    fs = [parse_polynomial("x1 + x2 + x3", 3, 3) for _ in range(2)]
    assert fs[0] == fs[1] and fs[0] is not fs[1]
    passes = _spy_passes(monkeypatch)
    builds = []
    init = PFunction.__init__
    monkeypatch.setattr(
        PFunction, "__init__", lambda self, *args: builds.append(1) or init(self, *args))
    evaluated = list(_weighted_vectors(3, 3, 2))
    # the second, equal function packs every c again: no memo is shared
    # between objects
    for f in fs:
        assert chrestenson_cyclic_witness(f, 2) is None
        assert passes == evaluated
        passes.clear()
        assert chrestenson_linear_witness(f, 2) is None
        assert matrix_test(f, 2) == (True, None)
        assert chrestenson_cyclic_witness(f, 2) is None
        assert passes == []
    assert builds == []


@pytest.mark.parametrize("poly,p,n", [("x1 + x2 + x3", 3, 3), ("x1^2 + x2 + 3*x3", 5, 3)])
def test_analyze_reports_pack_each_c_once(capsys, monkeypatch, poly, p, n):
    # consensus at every order m = 1..n of one function shares each count
    # matrix across its three Fourier-side oracles and across the orders
    passes = _spy_passes(monkeypatch)
    assert cli.main(["analyze", "--json", "--reports", "--poly", poly, "--p", str(p), "--n", str(n)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert len(record["reports"]) == n
    assert Counter(passes).most_common(1)[0][1] == 1
    # every c below the function's order is scanned, so the spy saw them all
    assert set(_weighted_vectors(p, n, record["ci_order"])) <= set(passes)


def test_oracle_argument_errors_hold_on_every_call():
    f = parse_polynomial("x1 + x2", 3, 2)
    consensus(f, 1)  # fills f's memo at every c of weight 1
    for _ in range(2):
        for oracle in (count_matrix, chrestenson_cyclic, chrestenson_linear):
            for c in [(1,), (1, 0, 0)]:
                with pytest.raises(ValueError, match=f"c has length {len(c)}, expected 2"):
                    oracle(f, c)
        for oracle in (chrestenson_cyclic_witness, chrestenson_linear_witness, matrix_test,
                       orthogonal_array_witness, consensus):
            for m in (0, 3):
                with pytest.raises(ValueError, match=f"m must be in 1..2, got {m}"):
                    oracle(f, m)
        for m in (-1, 3):
            with pytest.raises(ValueError, match=f"m must be in 0..2, got {m}"):
                definition_witness(f, m)


def test_one_function_shared_across_threads_keeps_one_matrix_per_c():
    # more threads than cores, started together, and a short switch
    # interval, so that builds of one c interleave; the memo keeps the first
    # matrix stored for each c, so every thread gets that one object
    poly, p, n = "x1 + x2 + x3 + x4", 3, 4
    expected = [consensus(parse_polynomial(poly, p, n), m).record() for m in range(1, n + 1)]
    f = parse_polynomial(poly, p, n)
    cs = list(_weighted_vectors(p, n, n))
    results = [None] * 6
    barrier = threading.Barrier(len(results), timeout=60)

    def work(i):
        barrier.wait()
        matrices = [count_matrix(f, c) for c in cs]
        results[i] = (matrices, [consensus(f, m).record() for m in range(1, n + 1)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    first = results[0][0]
    for matrices, records in results:
        assert all(a is b for a, b in zip(matrices, first))
        assert records == expected


def test_count_matrix_memo_is_keyed_by_the_reduced_c(monkeypatch):
    f = random_function(3, 2, seed=303)
    passes = _spy_passes(monkeypatch)
    cm = count_matrix(f, (4, -1))
    assert cm.c == (1, 2)
    assert count_matrix(f, (1, 2)) is cm
    assert chrestenson_cyclic(f, (-2, 5)) is cm.cyclic
    assert passes == [(1, 2)]


# ---------------------------------------------------------------------------
# Orthogonal arrays
# ---------------------------------------------------------------------------

def test_orthogonal_array_pinned_examples():
    assert orthogonal_array_witness(parse_polynomial("x1 + x2", 2, 2), 1) is None
    assert orthogonal_array_witness(parse_polynomial("x1", 2, 2), 1) is not None
    # level sets of x1 over F_3^2 have 3 points each: size not divisible
    # by 3^2, reported as a class-size witness
    w = orthogonal_array_witness(parse_polynomial("x1", 3, 2), 2)
    assert w == {"value": 0, "class_size": 3}


def test_orthogonal_array_pattern_witness_recount():
    rng = random.Random(163)
    found = 0
    while found < 10:
        f = random_function(2, 3, seed=rng.randrange(10**6))
        w = orthogonal_array_witness(f, 1)
        if w is None or "class_size" in w:
            continue
        found += 1
        level = [x for x in helpers.points(2, 3) if f.evaluate(x) == w["value"]]
        got = sum(
            1
            for x in level
            if all(x[i - 1] == d for i, d in zip(w["subset"], w["pattern"]))
        )
        assert got == w["count"] != w["expected"]
        assert w["expected"] == len(level) // 2


def test_orthogonal_array_packs_each_subset_once(monkeypatch):
    # x1 + x2 + x3 + x4 over F_3 is 2-CI, so every level reads every 2-subset
    f = parse_polynomial("x1 + x2 + x3 + x4", 3, 4)
    packings = []
    pack = reference._packed_digits
    monkeypatch.setattr(
        reference, "_packed_digits",
        lambda p, n, indices: packings.append(tuple(indices)) or pack(p, n, indices))
    assert orthogonal_array_witness(f, 2) is None
    assert packings == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_orthogonal_array_matches_definition():
    rng = random.Random(167)
    for f, m in _battery(rng, 40):
        assert (orthogonal_array_witness(f, m) is None) == ci_oracle_definition(f, m)


def test_orthogonal_array_strength_is_monotone():
    rng = random.Random(173)
    for _ in range(30):
        p, n = rng.choice([(2, 4), (3, 3)])
        f = random_function(p, n, seed=rng.randrange(10**6))
        flags = [orthogonal_array_witness(f, m) is None for m in range(1, n + 1)]
        for lo, hi in zip(flags, flags[1:]):
            assert lo or not hi


# ---------------------------------------------------------------------------
# Consensus
# ---------------------------------------------------------------------------

def test_consensus_covers_all_methods(e2):
    rep = consensus(e2, 1)
    assert tuple(rep.verdicts) == METHOD_NAMES
    assert len(METHOD_NAMES) == 6
    assert rep.consensus and all(rep.verdicts.values())
    assert rep.witnesses == {}


def test_consensus_on_failing_function(e2e3):
    rep = consensus(e2e3, 1)
    assert rep.consensus and not any(rep.verdicts.values())
    # every failing method files a witness
    assert set(rep.witnesses) == set(METHOD_NAMES)
    obj = json.loads(rep.to_json())
    assert obj["m"] == 1
    assert obj["consensus"] is True
    assert set(obj["verdicts"]) == set(METHOD_NAMES)
    assert obj["witnesses"]["spectral"] == [1]


def test_consensus_exhaustive_tiny_family():
    for f in helpers.all_functions(2, 2):
        for m in (1, 2):
            rep = consensus(f, m)
            assert rep.consensus, (f.table, m, rep.verdicts)


def test_consensus_random_battery():
    rng = random.Random(179)
    for f, m in _battery(rng, 30):
        rep = consensus(f, m)
        assert rep.consensus, (f.table, m, rep.verdicts)
        assert rep.verdicts["definition"] == ci_oracle_definition(f, m)


def test_consensus_json_shape(e2):
    obj = json.loads(consensus(e2, 2).to_json())
    assert set(obj) == {"m", "verdicts", "consensus", "witnesses"}
    assert obj["m"] == 2
    # passing reports omit the witness key entirely
    obj_pass = json.loads(consensus(e2, 1).to_json())
    assert set(obj_pass) == {"m", "verdicts", "consensus"}


# ---------------------------------------------------------------------------
# Batch forms against the single-table oracles
# ---------------------------------------------------------------------------

# Each method's single-table verdict, as consensus takes it.
_ORACLES = {
    "spectral": lambda f, m: spectral.first_failing_tuple(f, m) is None,
    "definition": ci_oracle_definition,
    "chrestenson_cyclic": lambda f, m: chrestenson_cyclic_witness(f, m) is None,
    "chrestenson_linear": lambda f, m: chrestenson_linear_witness(f, m) is None,
    "matrix": lambda f, m: matrix_test(f, m)[0],
    "orthogonal_array": lambda f, m: orthogonal_array_witness(f, m) is None,
}


def _mismatches(tables, p, n, m, verdicts):
    """(method, table) for each batch verdict that differs from the
    method's single-table oracle."""
    out = []
    for k, row in enumerate(tables.tolist()):
        f = PFunction(p, n, row)
        for name, got in verdicts.items():
            if bool(got[k]) != _ORACLES[name](f, m):
                out.append((name, tuple(row)))
    return out


def _family(p, n, seed):
    """200 seeded random tables, the linear form (immune below n) and a
    constant (immune at every order), as one int64 array."""
    rng = random.Random(seed)
    rows = [[rng.randrange(p) for _ in range(p**n)] for _ in range(200)]
    linear = parse_polynomial("+".join(f"x{i}" for i in range(1, n + 1)), p, n)
    return np.array(rows + [list(linear.table), [1] * p**n], dtype=np.int64)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_batch_verdicts_equal_the_oracles_on_every_table(p, n):
    (tables,) = _exhaustive_chunks(p, n, p ** (p**n))
    for m in range(1, n + 1):
        verdicts = reference.consensus_verdicts(tables, p, n, m)
        assert tuple(verdicts) == METHOD_NAMES
        assert _mismatches(tables, p, n, m, verdicts) == []


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (5, 2), (7, 2), (11, 1), (13, 2), (97, 1)])
def test_batch_verdicts_equal_the_oracles_on_seeded_families(p, n):
    tables = _family(p, n, seed=p * 100 + n)
    for m in range(1, n + 1):
        verdicts = reference.consensus_verdicts(tables, p, n, m)
        assert _mismatches(tables, p, n, m, verdicts) == []
        # the linear form passes every method below n, the constant at n
        assert all(v[-2] == (m < n) and v[-1] for v in verdicts.values())


def _cyclic_fold(rows):
    """chrestenson_cyclic's fold of one count matrix: M[d][v] on omega^(v - d)."""
    p = len(rows)
    counts = [0] * p
    for d, row in enumerate(rows):
        for v, k in enumerate(row):
            counts[(v - d) % p] += k
    return CycloElement.from_root_counts(p, 1, counts)


def _count_tensors(p, seed):
    """A seeded (p, p, K) tensor of integer count matrices [d, v, k], 20 of
    each kind: entries in 0..3; identical rows; x[d] + y[v] (the cyclic fold
    vanishes, and the rows are identical only when x is constant, as it is
    for the first 5); and identical rows plus t[d] in column 0 with t not
    constant (the linear fold of shift 0 alone vanishes, no other fold)."""
    rng = np.random.default_rng(seed)
    free = rng.integers(0, 4, size=(p, p, 20))
    equal = np.broadcast_to(rng.integers(0, 4, size=(1, p, 20)), (p, p, 20))
    x = rng.integers(0, 4, size=(p, 1, 20))
    x[:, :, :5] = x[:1, :, :5]
    x[0, :, 5:] = x[-1, :, 5:] + 1
    column = np.broadcast_to(rng.integers(0, 4, size=(1, p, 20)), (p, p, 20)).copy()
    column[0, 0] += 1 + rng.integers(0, 4, size=20)
    return np.concatenate([free, equal, x + rng.integers(0, 4, size=(1, p, 20)), column], axis=2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 97])
def test_batch_folds_equal_the_single_table_folds_on_each_matrix(p):
    cm = _count_tensors(p, seed=p)
    linear, cyclic = reference._linear_vanishes(cm), reference._cyclic_vanishes(cm)
    rows = reference._rows_identical(cm)
    assert linear.shape == cyclic.shape == rows.shape == (80,)
    for k, matrix in enumerate(cm.transpose(2, 0, 1).tolist()):
        assert linear[k] == all(
            CycloElement.from_root_counts(p, 1, counts).is_zero() for counts in _shift_folds(matrix))
        assert cyclic[k] == _cyclic_fold(matrix).is_zero()
        assert rows[k] == CountMatrix((1,), tuple(map(tuple, matrix))).rows_identical()
    # every kind is there: identical rows pass all three folds, x[d] + y[v]
    # the cyclic fold alone unless x is constant, and a column-0 change
    # only the linear fold of shift 0
    assert rows[20:45].all() and linear[20:45].all() and cyclic[20:60].all()
    assert not (rows[45:].any() or linear[45:].any() or cyclic[60:].any())
    assert _linear_shift_zero_only(cm)[60:].all()


def _linear_shift_zero_only(cm):
    """Mutant: the linear fold of shift 0 alone, sum_v v * M[d][v] on omega^d."""
    return reference._uniform(np.arange(len(cm)) @ cm)


def test_batch_check_catches_a_linear_form_that_folds_shift_zero_only(monkeypatch):
    # at p = 2 shift 1 adds sum_x omega^(c.x) = 0, so only p > 2 tells
    (tables,) = _exhaustive_chunks(3, 2, 3**9)
    monkeypatch.setattr(reference, "_linear_vanishes", _linear_shift_zero_only)
    mutant = reference.consensus_verdicts(tables, 3, 2, 1)
    bad = _mismatches(tables, 3, 2, 1, mutant)
    assert bad and {name for name, _ in bad} == {"chrestenson_linear"}


def test_consensus_verdicts_rejects_an_order_outside_1_to_n():
    tables = np.zeros((1, 4), dtype=np.int64)
    for m in (0, 3):
        with pytest.raises(ValueError, match="m must be in 1..2"):
            reference.consensus_verdicts(tables, 2, 2, m)


def test_batch_verdicts_read_the_library_arrays_as_exact_integers():
    # PFunction.array is uint8 at p <= 256; tables * p^m must not wrap there
    f = parse_polynomial("x1 + x2 + x3", 7, 3)
    for m in range(1, 4):
        expected = consensus(f, m).verdicts
        for dtype in (np.uint8, np.int16, np.int64):
            tables = f.array.reshape(1, -1).astype(dtype)
            verdicts = reference.consensus_verdicts(tables, 7, 3, m)
            assert {k: bool(v[0]) for k, v in verdicts.items()} == expected


@pytest.mark.parametrize(
    "tables,message",
    [
        (np.zeros((2, 8), dtype=np.int64), r"a \(K, 9\) integer array, got int64 \(2, 8\)"),
        (np.zeros(9, dtype=np.int64), r"a \(K, 9\) integer array, got int64 \(9,\)"),
        (np.zeros((1, 9)), r"a \(K, 9\) integer array, got float64 \(1, 9\)"),
        (np.array([[0] * 8 + [3]]), "entries must be in 0..2"),
        (np.array([[0] * 8 + [-1]]), "entries must be in 0..2"),
    ],
)
def test_batch_verdicts_reject_a_wrong_shape_or_an_entry_outside_the_field(tables, message):
    with pytest.raises(ValueError, match=message):
        reference.consensus_verdicts(tables, 3, 2, 1)


def _spy_tallies(monkeypatch):
    """Record (rows, entries, scale, cells) of every tally consensus_verdicts
    makes, the arguments each time it checks its input, and the variable
    tuple of each digit packing."""
    tallies, checks, packings = [], [], []
    tally, check, pack = reference._tally, reference._batch_tables, reference._packed_digits

    def spy_tally(tables, scale, digits, cells):
        tallies.append((len(tables), tables.size, scale, cells))
        return tally(tables, scale, digits, cells)

    def spy_check(*args):
        checks.append(args[1:])
        return check(*args)

    def spy_pack(p, n, indices):
        packings.append(tuple(indices))
        return pack(p, n, indices)

    monkeypatch.setattr(reference, "_tally", spy_tally)
    monkeypatch.setattr(reference, "_batch_tables", spy_check)
    monkeypatch.setattr(reference, "_packed_digits", spy_pack)
    return tallies, checks, packings


def test_batch_verdicts_build_each_count_object_once(monkeypatch):
    # every a * (x1 + x2 + x3) + b is 2-CI at (3,3), so no method stops early
    p, n, m = 3, 3, 2
    forms = [parse_polynomial(f"{a}*x1 + {a}*x2 + {a}*x3 + {b}", p, n)
             for a in (1, 2) for b in range(p)]
    tables = np.array([f.table for f in forms], dtype=np.int64)
    tallies, checks, packings = _spy_tallies(monkeypatch)
    verdicts = reference.consensus_verdicts(tables, p, n, m)
    assert all(v.all() for v in verdicts.values())
    assert checks == [(p, n, m)]
    # (scale, cells): the histogram, each 2-subset's joint counts, each
    # c-vector's count matrix and each 2-subset's level-major pattern counts
    assert Counter((scale, cells) for _, _, scale, cells in tallies) == {
        (1, p): 1, (1, p**3): 3, (1, p * p): 18, (p**2, p**3): 3}
    # one packing per 2-subset feeds both of its tensors
    assert packings == [(1, 2), (1, 3), (2, 3)]


def test_batch_verdicts_build_nothing_once_every_table_has_failed(monkeypatch):
    # a single nonzero entry fails every method on the first object it reads,
    # and its level sizes 26 and 1 fail the divisibility test
    p, n, m = 3, 3, 2
    tables = np.eye(p**n, dtype=np.int64)
    tallies, _, packings = _spy_tallies(monkeypatch)
    verdicts = reference.consensus_verdicts(tables, p, n, m)
    assert not any(v.any() for v in verdicts.values())
    assert Counter((scale, cells) for _, _, scale, cells in tallies) == {
        (1, p): 1, (1, p**3): 1, (1, p * p): 1}
    assert packings == [(1, 2)]


@pytest.mark.parametrize("argv", [
    "--random 60 --p 2 --n 8 --m 2",
    "--random 300 --p 97 --n 1 --m 1",
    "--exhaustive --p 3 --n 2 --m 2",
])
def test_crosscheck_tallies_hold_at_most_a_chunk_of_cells(capsys, monkeypatch, argv):
    # K * max(p^n, p^2, p^(m+1)) <= CHUNK_CELLS unless K is one table
    tallies, _, _ = _spy_tallies(monkeypatch)
    assert cli.main(["crosscheck", *argv.split()]) == 0
    capsys.readouterr()
    assert tallies
    for rows, entries, _, cells in tallies:
        assert rows == 1 or max(entries, rows * cells) <= reference.CHUNK_CELLS
