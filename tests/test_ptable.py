"""Tables, indexing, permutations, and the polynomial front end."""

import ast
import hashlib
import json
import random
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cispectra import (
    ParseError,
    PFunction,
    SizeLimitError,
    VariableTuple,
    apply_permutation,
    count_matrix,
    digits_of,
    index_of,
    is_balanced,
    is_symmetric,
    parse_polynomial,
    parse_terms,
    random_function,
    read_table,
    write_table,
)
from cispectra.spectral import _rows_equal, autocorrelation, dft_float
from cispectra.ptable import (
    _DRAW_TAIL,
    _draws,
    _exhaustive_chunks,
    _joint_counts,
    _packed_digits,
    _random_chunks,
    _random_table,
    _subset_counts,
    _tally,
    _weighted_digits,
)

import helpers


# ---------------------------------------------------------------------------
# index_of / digits_of
# ---------------------------------------------------------------------------

def test_index_digits_pinned_values():
    assert index_of((0, 1, 0, 2), 3) == 0 + 1 * 3 + 0 * 9 + 2 * 27 == 57
    assert digits_of(57, 3, 4) == (0, 1, 0, 2)
    assert digits_of(5, 2, 3) == (1, 0, 1)
    assert index_of((1, 0, 1), 2) == 5
    assert index_of((0,), 5) == 0
    assert digits_of(0, 5, 1) == (0,)


@pytest.mark.parametrize("p,n", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_index_digits_roundtrip_exhaustive(p, n):
    for k in range(p**n):
        assert index_of(digits_of(k, p, n), p) == k


@given(st.data())
def test_digits_index_roundtrip(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    x = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
    assert digits_of(index_of(x, p), p, len(x)) == tuple(x)


def test_index_digits_rejects_bad_input():
    with pytest.raises(ValueError):
        index_of((), 3)
    with pytest.raises(ValueError):
        index_of((3,), 3)
    with pytest.raises(ValueError):
        index_of((-1,), 3)
    with pytest.raises(ValueError):
        digits_of(9, 3, 2)
    with pytest.raises(ValueError):
        digits_of(-1, 3, 2)


# ---------------------------------------------------------------------------
# PFunction
# ---------------------------------------------------------------------------

def test_pfunction_validation():
    PFunction(2, 1, (0, 1))
    with pytest.raises(ValueError):
        PFunction(4, 1, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        PFunction(1, 1, (0,))
    with pytest.raises(ValueError):
        PFunction(9, 1, tuple([0] * 9))
    with pytest.raises(ValueError):
        PFunction(2, 0, ())
    with pytest.raises(ValueError):
        PFunction(2, 2, (0, 1, 0))
    with pytest.raises(ValueError):
        PFunction(2, 2, (0, 1, 0, 2))
    with pytest.raises(ValueError):
        PFunction(3, 1, (0, -1, 0))


def test_pfunction_has_value_semantics_over_every_input_form():
    poly = parse_polynomial("x1*x2 + x1", 2, 2)  # 1 at x = (1, 0) only
    seed = next(s for s in range(1000) if random_function(2, 2, s).flat.tolist() == [0, 1, 0, 0])
    forms = [
        PFunction(2, 2, (0, 1, 0, 0)),
        PFunction(2, 2, [0, 1, 0, 0]),
        PFunction(2, 2, np.array([0, 1, 0, 0], dtype=np.int64)),
        PFunction(2, 2, np.array([0, 1, 0, 0], dtype=np.uint8)),
        read_table("2 2\n0 1 0 0\n"),
        poly,
        random_function(2, 2, seed),
    ]
    assert all(f == forms[0] and hash(f) == hash(forms[0]) for f in forms)
    assert len(set(forms)) == 1
    assert forms[0] != PFunction(2, 2, (0, 1, 0, 1))
    assert forms[0] != forms[0].table  # a tuple is not a function


def test_pfunction_stores_a_read_only_copy():
    source = np.array([0, 2, 1, 1, 0, 2, 2, 1, 0], dtype=np.int64)
    f = PFunction(3, 2, source)
    source[0] = 1  # the constructor copied it
    assert f.table[0] == 0
    for stored in (f.flat, f.array):
        with pytest.raises(ValueError):
            stored[(0,) * stored.ndim] = 1
    assert f.flat[0] == 0
    with pytest.raises(AttributeError):
        f.p = 5  # p, n and the values fix the hash


@pytest.mark.parametrize("form", [tuple, list, lambda t: np.array(t, dtype=np.int64)])
def test_pfunction_names_the_first_bad_entry(form):
    with pytest.raises(ValueError, match="p\\^n = 9 entries, got 8"):
        PFunction(3, 2, form([0] * 8))
    for table, bad in [((0, 1, -1, 3), "-1"), ((0, 1, 3, -1), "3"), ((0, 7, 0, 0), "7")]:
        with pytest.raises(ValueError, match=f"^table entry {bad} is outside 0..2$"):
            PFunction(3, 2, form(table + (0,) * 5))
    if form is not tuple and form is not list:
        return
    for big in (2**63, 2**70, -(2**63) - 1):
        with pytest.raises(ValueError, match=f"^table entry {big} is outside 0..2$"):
            PFunction(3, 2, form((0, 1, big, 5) + (0,) * 5))


@pytest.mark.parametrize("p,dtype", [(2, np.uint8), (257, np.uint16), (65537, np.uint32)])
def test_pfunction_stores_the_narrowest_unsigned_dtype(p, dtype):
    f = PFunction(p, 1, range(p))
    assert f.flat.dtype == dtype and f.array.dtype == dtype
    assert f.evaluate((p - 1,)) == p - 1


def test_array_readers_never_build_the_tuple():
    f = random_function(2, 12, seed=8)
    g = read_table(write_table(f))
    h = apply_permutation(g, list(range(12, 1, -1)) + [1])
    is_symmetric(g)
    is_balanced(g)
    dft_float(g)
    autocorrelation(g)
    assert not _rows_equal(g, tuple(range(1, 13)))
    assert _rows_equal(PFunction(2, 12, np.ones(2**12, dtype=np.uint8)), tuple(range(1, 13)))
    for built in (f, g, h):
        assert "table" not in vars(built)


def test_pfunction_size_cap_beats_length_check():
    # the p^n bound must trip before any attempt to materialize the table
    with pytest.raises(SizeLimitError):
        PFunction(2, 40, (0,))


def test_size_cap_is_checked_before_big_arithmetic():
    start = time.perf_counter()
    for p, n in [(3, 30_000_000), (10**18 + 3, 1), (4, 300_000_000)]:
        with pytest.raises(SizeLimitError):
            PFunction(p, n, ())
        with pytest.raises(SizeLimitError):
            random_function(p, n, seed=0)
        with pytest.raises(SizeLimitError):
            parse_terms("x1", p, n)
        with pytest.raises(SizeLimitError):
            parse_polynomial("x1", p, n)
    for p, n in [(1, 10**9), (3, 0), (3, -1)]:
        with pytest.raises(ValueError) as err:
            PFunction(p, n, ())
        assert not isinstance(err.value, SizeLimitError)
    assert time.perf_counter() - start < 2.0


def test_evaluate_is_table_lookup():
    f = random_function(3, 3, seed=7)
    for x in helpers.points(3, 3):
        assert f.evaluate(x) == f.table[index_of(x, 3)]
    with pytest.raises(ValueError):
        f.evaluate((0, 0))


# ---------------------------------------------------------------------------
# VariableTuple
# ---------------------------------------------------------------------------

def test_variable_tuple_validation():
    VariableTuple((3, 1))
    with pytest.raises(ValueError):
        VariableTuple((1, 1))
    with pytest.raises(ValueError):
        VariableTuple((0, 1))


# ---------------------------------------------------------------------------
# apply_permutation (a permutation pi of 1..n is its tuple mapping[i-1] = pi(i))
# ---------------------------------------------------------------------------

def test_permutation_basics():
    f = random_function(2, 3, seed=9)
    assert apply_permutation(f, (1, 2, 3)).table == f.table
    # the transposition of x1 and x3 reverses each index's three digits
    swapped = apply_permutation(f, (3, 2, 1))
    assert swapped.table == tuple(f.table[int(f"{k:03b}"[::-1], 2)] for k in range(8))
    for bad in [(1, 1, 2), (), (0, 1, 2), (1, 2), (1, 2, 3, 4), (2, 3, 4)]:
        with pytest.raises(ValueError):
            apply_permutation(f, bad)


def test_apply_permutation_pinned_example():
    f = parse_polynomial("x1", 2, 2)
    assert f.table == (0, 1, 0, 1)
    swapped = apply_permutation(f, (2, 1))
    assert swapped.table == (0, 0, 1, 1)  # now the function x2


def test_apply_permutation_pointwise_definition():
    rng = random.Random(23)
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 5 if p == 2 else 4)
        f = random_function(p, n, seed=rng.randrange(10**6))
        pi = list(range(1, n + 1))
        rng.shuffle(pi)
        g = apply_permutation(f, pi)
        for x in helpers.points(p, n):
            assert g.evaluate(x) == f.evaluate(tuple(x[pi[i - 1] - 1] for i in range(1, n + 1)))


def test_apply_permutation_group_action():
    rng = random.Random(31)
    for _ in range(30):
        p = rng.choice([2, 3])
        n = rng.randrange(2, 5)
        f = random_function(p, n, seed=rng.randrange(10**6))
        pi = list(range(1, n + 1))
        sigma = list(range(1, n + 1))
        rng.shuffle(pi)
        rng.shuffle(sigma)
        composed = [pi[sigma[i] - 1] for i in range(n)]  # i -> pi(sigma(i))
        left = apply_permutation(f, composed)
        right = apply_permutation(apply_permutation(f, sigma), pi)
        assert left.table == right.table


def test_apply_permutation_identity_and_inverse():
    f = random_function(3, 4, seed=5)
    assert apply_permutation(f, (1, 2, 3, 4)).table == f.table
    pi = (3, 1, 4, 2)
    inverse = tuple(pi.index(j) + 1 for j in range(1, 5))
    roundtrip = apply_permutation(apply_permutation(f, pi), inverse)
    assert roundtrip.table == f.table
    with pytest.raises(ValueError):
        apply_permutation(f, (1, 2))


# ---------------------------------------------------------------------------
# Structure predicates
# ---------------------------------------------------------------------------

def test_is_symmetric(e2e3):
    assert is_symmetric(PFunction(3, 3, (1,) * 27))
    assert is_symmetric(e2e3)
    assert not is_symmetric(parse_polynomial("x1", 2, 2))
    # symmetric means fixed by every permutation, not just the generators
    rng = random.Random(47)
    for _ in range(20):
        mapping = list(range(1, 5))
        rng.shuffle(mapping)
        assert apply_permutation(e2e3, mapping).table == e2e3.table


@pytest.mark.parametrize("p,n", [(2, 5), (3, 4), (5, 3), (7, 2), (257, 2)])
def test_array_paths_match_loop_references(p, n):
    rng = random.Random(p * 1000 + n)
    sym = helpers.random_symmetric_function(p, n, seed=rng.randrange(10**6))
    table = list(sym.table)
    table[1] = (table[1] + 1) % p  # x_1 = 1, rest 0: an orbit of n points
    near = PFunction(p, n, tuple(table))
    rand = random_function(p, n, seed=rng.randrange(10**6))
    for f, symmetric in [(rand, None), (sym, True), (near, False)]:
        assert is_symmetric(f) == helpers.is_symmetric_loop(f)
        if symmetric is not None:
            assert is_symmetric(f) is symmetric
        for _ in range(4):
            mapping = list(range(1, n + 1))
            rng.shuffle(mapping)
            assert (
                apply_permutation(f, mapping).table
                == helpers.apply_permutation_loop(f, mapping).table
            )


def test_helpers_import_only_the_top_level_package():
    # the loop references in helpers reimplement the library's machinery, so
    # they may use its public names but none of its modules' internals
    tree = ast.parse(Path(helpers.__file__).read_text())
    modules = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    assert [m for m in modules if m.split(".")[0] == "cispectra"] == ["cispectra"]


@pytest.mark.parametrize("p,n,dtype", [(3, 4, np.uint8), (257, 2, np.uint16)])
def test_array_view_is_lazy_read_only_and_in_index_order(p, n, dtype):
    f = random_function(p, n, seed=p + n)
    assert "array" not in vars(f)  # built on first use, not by the constructor
    a = f.array
    assert f.array is a
    assert a.shape == (p,) * n and a.dtype == dtype
    assert a.ravel().tolist() == list(f.table)
    rng = random.Random(3)
    for _ in range(20):
        x = tuple(rng.randrange(p) for _ in range(n))
        assert a[tuple(reversed(x))] == f.evaluate(x)  # axis j holds x_(n-j)
    with pytest.raises(ValueError):
        a[(0,) * n] = 1


def test_is_symmetric_is_fast_on_large_tables():
    rand = random_function(2, 19, seed=5)
    parity = PFunction(2, 19, tuple(bin(k).count("1") % 2 for k in range(2**19)))
    start = time.perf_counter()
    assert not is_symmetric(rand)
    assert is_symmetric(parity)  # both generators are compared
    assert time.perf_counter() - start < 0.5


def test_is_symmetric_compares_two_generators(monkeypatch):
    for p, n in [(2, 3), (3, 2)]:
        for f in helpers.all_functions(p, n):
            assert is_symmetric(f) == helpers.is_symmetric_loop(f)
    # fixed by the 4-cycle but not by a transposition; every (2,3) table
    # fixed by the 3-cycle is symmetric
    assert not is_symmetric(parse_polynomial("x1*x2 + x2*x3 + x3*x4 + x4*x1", 2, 4))
    parity = PFunction(2, 10, tuple(bin(k).count("1") % 2 for k in range(2**10)))
    calls = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: calls.append(1) or array_equal(a, b))
    assert is_symmetric(parity)
    assert len(calls) <= 2


def test_is_balanced():
    assert is_balanced(PFunction(2, 2, (0, 1, 1, 0)))
    assert is_balanced(parse_polynomial("x1 + 2*x2", 3, 2))
    assert not is_balanced(PFunction(2, 2, (0, 0, 0, 1)))
    assert not is_balanced(PFunction(3, 2, (0,) * 9))


def test_is_balanced_reads_the_size_once(monkeypatch):
    # p^n is one property read, not one per output value
    f = PFunction(101, 1, tuple(range(101)))
    reads = []
    size = PFunction.size
    monkeypatch.setattr(PFunction, "size", property(lambda g: reads.append(g) or size.fget(g)))
    assert is_balanced(f)
    assert len(reads) == 1


@pytest.mark.parametrize(
    "p,n,tuples",
    [
        (2, 4, [(), (1,), (3, 1), (2, 4, 1), (4, 3, 2, 1)]),
        (3, 3, [(), (2,), (3, 1), (1, 2, 3)]),
        (5, 2, [(), (1,), (2, 1)]),
        (257, 2, [(), (1,), (2,)]),
    ],
)
def test_joint_counts_match_brute_force(p, n, tuples):
    for seed in range(3):
        f = random_function(p, n, seed=seed)
        for indices in tuples:
            # pack x_S with indices[0] least significant, as the module documents
            want = Counter(
                (sum(x[i - 1] * p**r for r, i in enumerate(indices)), f.evaluate(x))
                for x in helpers.points(p, n)
            )
            expected = [want[(w, v)] for w in range(p ** len(indices)) for v in range(p)]
            assert _joint_counts(f, indices) == expected


def _assert_subset_counts(f, subsets):
    """_subset_counts over the whole sequence, prefixes shared, equals
    _joint_counts subset by subset."""
    got = list(_subset_counts(f, subsets))
    assert len(got) == len(subsets)
    for indices, counts in zip(subsets, got):
        assert counts.dtype == np.int64
        assert counts.tolist() == _joint_counts(f, indices)


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (2, 8), (5, 3), (7, 3)])
def test_subset_counts_are_the_joint_counts(p, n):
    rng = random.Random(31 * p + n)
    variables = range(1, n + 1)
    every = [s for m in range(n + 1) for s in combinations(variables, m)]
    ordered = [tuple(rng.sample(variables, rng.randrange(n + 1))) for _ in range(40)]
    subjects = [random_function(p, n, seed=s) for s in range(3)]
    subjects.append(parse_polynomial(" + ".join(f"x{i}" for i in variables), p, n))
    for f in subjects:
        _assert_subset_counts(f, every)
        _assert_subset_counts(f, ordered)
        _assert_subset_counts(f, every[::-1])


@pytest.mark.parametrize("p,n", [(997, 2), (65537, 1)])
def test_subset_counts_on_wide_storage(p, n):
    # uint16 and uint32 tables meet the int32 key (int64 once p^(m+1) passes
    # 2^31); only subsets short of all n variables, as the verdicts count
    for seed in range(2):
        f = random_function(p, n, seed=seed)
        assert f.flat.dtype == (np.uint16 if p < 2**16 else np.uint32)
        subsets = [s for m in range(n) for s in combinations(range(1, n + 1), m)]
        _assert_subset_counts(f, subsets)
        _assert_subset_counts(f, subsets[::-1])
    f = PFunction(p, n, np.full(p**n, p - 1))
    _assert_subset_counts(f, [(), *((i,) for i in range(1, n))])


@pytest.mark.parametrize(
    "p,n,weights",
    [
        (2, 4, [2, 1, 1, 0]),
        (3, 3, [2, 2, 2]),
        (5, 2, [7, 25]),
        (3, 2, [0, 0]),
        (3, 2, [0, 1]),
        (3, 4, [0, 0, 1, 2]),
        (2, 5, [1, 3, 0, 0, 0]),
        (257, 2, [1, 257]),
        (257, 2, [0, 5]),
    ],
)
def test_weighted_digits_match_point_sums(p, n, weights):
    # one weight per variable; leading, trailing and all-zero weights repeat
    # the list instead of shifting it
    want = [sum(w * xi for w, xi in zip(weights, x)) for x in helpers.points(p, n)]
    assert _weighted_digits(p, weights) == want


# ---------------------------------------------------------------------------
# Polynomial parsing
# ---------------------------------------------------------------------------

def test_parse_pinned_tables():
    assert parse_polynomial("x1", 2, 2).table == (0, 1, 0, 1)
    assert parse_polynomial("x2", 2, 2).table == (0, 0, 1, 1)
    assert parse_polynomial("0", 3, 2).table == (0,) * 9
    assert parse_polynomial("2", 3, 1).table == (2, 2, 2)
    assert parse_polynomial("x1*x2", 2, 2).table == (0, 0, 0, 1)
    assert parse_polynomial("x1 + x2", 2, 2).table == (0, 1, 1, 0)
    assert parse_polynomial("-x1", 3, 1).table == (0, 2, 1)
    assert parse_polynomial("2*x1^2 + 1", 3, 1).table == (1, 0, 0)


def test_parse_accepts_sloppy_spacing_and_repeats():
    a = parse_polynomial("x1*x1 + 2 * x2", 3, 2)
    b = parse_polynomial("x1^2+2*x2", 3, 2)
    assert a.table == b.table


@pytest.mark.parametrize(
    "text",
    [
        helpers.E2_POLY,
        helpers.E2_E3_POLY,
        "2*x1^2*x3 + x2*x4 - x1 + 1",
        "x4^3 - 2*x2^2 + x1*x2*x3*x4",
    ],
)
def test_parse_matches_ast_evaluation(text):
    f = parse_polynomial(text, 3, 4)
    for x in helpers.points(3, 4):
        assert f.evaluate(x) == helpers.poly_eval_ast(text, 3, x)


def test_parse_random_polynomials_match_ast():
    rng = random.Random(101)
    for _ in range(25):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 4)
        terms = []
        for _ in range(rng.randrange(1, 5)):
            factors = [str(rng.randrange(1, p + 3))]
            for i in range(1, n + 1):
                if rng.random() < 0.6:
                    factors.append(f"x{i}^{rng.randrange(1, 4)}")
            terms.append("*".join(factors))
        text = " + ".join(terms)
        f = parse_polynomial(text, p, n)
        for x in helpers.points(p, n):
            assert f.evaluate(x) == helpers.poly_eval_ast(text, p, x)


def test_parse_terms_shape():
    terms = parse_terms("2*x1*x3^2 - x2", 5, 3)
    assert terms[0].coeff == 2
    assert terms[0].powers == ((1, 1), (3, 2))
    assert terms[1].coeff == 4  # -1 mod 5
    assert terms[1].powers == ((2, 1),)
    assert parse_polynomial("2*x1*x3^2 - x2", 5, 3).evaluate((1, 1, 2)) == (2 * 1 * 4 - 1) % 5


_POSITION_CASES = [
    ("x", 0),
    ("x0 + x1", 0),
    ("x3", 0),
    ("x1 + ", 5),
    ("", 0),
    ("x1 ? x2", 3),
    ("x1 x2", 3),
    ("x1^x2", 3),
    ("* x1", 0),
]


@pytest.mark.parametrize("text,position", _POSITION_CASES)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, 2, 2)
    assert exc.value.position == position


# Pieces of the generated parser corpus: lexically good and bad, including
# a leading-zero literal, tabs and a non-ASCII decimal digit (U+0663).
_CORPUS_PIECES = (
    ["x", *(f"x{i}" for i in range(10)), *"0123456789", "07"]
    + ["+", "-", "*", "^", " ", "\t", "?", "y", "\u0663"]
)
_CORPUS_FILE = Path(__file__).with_name("parse_corpus.json")


def parse_corpus() -> list[str]:
    """The position-test strings, then seeded near-valid polynomials in x1..x3
    with a few random pieces spliced in, then random piece strings."""
    rng = random.Random(20261018)
    texts = [text for text, _ in _POSITION_CASES]
    blank = [" ", "\t", ""]
    literal = ["2", "07", "\u0663", "10"]
    for _ in range(300):
        factors = []
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.3:
                factors.append(rng.choice(literal))
            else:
                power = "^" + rng.choice(literal) if rng.random() < 0.4 else ""
                factors.append(f"x{rng.randrange(1, 4)}{power}")
        pieces = [rng.choice(["", "-", "+"])]
        for f in factors:
            pieces += [f, rng.choice(blank), rng.choice(["*", "+", "-"])]
        # one text in ten ends in an operator
        pieces[-1] = rng.choice(blank) if rng.random() < 0.9 else rng.choice("*+-^")
        for _ in range(rng.choice([0, 0, 1, 2])):
            k = rng.randrange(len(pieces) + 1)
            if rng.random() < 0.5 and k < len(pieces):
                pieces[k] = rng.choice(_CORPUS_PIECES)
            else:
                pieces.insert(k, rng.choice(_CORPUS_PIECES))
        texts.append("".join(pieces))
    for _ in range(200):
        texts.append("".join(rng.choice(_CORPUS_PIECES) for _ in range(rng.randrange(1, 9))))
    return texts


def parse_outcome(text: str, p: int = 3, n: int = 3):
    """The table as a digit string, or [exception type, message, position]."""
    try:
        return "".join(map(str, parse_polynomial(text, p, n).table))
    except ValueError as e:
        return [type(e).__name__, str(e), getattr(e, "position", None)]


def test_parse_outcomes_match_pinned_corpus():
    # Outcomes recorded from the hand-written tokenizer that the regex one
    # replaced; every table, message and position must stay the same.
    pinned = json.loads(_CORPUS_FILE.read_text(encoding="utf-8"))
    assert [text for text, _ in pinned] == parse_corpus()
    for text, outcome in pinned:
        assert parse_outcome(text) == outcome, text


def test_parse_rejects_nonprime_modulus():
    with pytest.raises(ValueError):
        parse_polynomial("x1", 4, 2)


@pytest.mark.parametrize("p,n", [(257, 2), (7, 4), (65537, 1), (3, 7)])
def test_tabulation_matches_ast_with_big_coefficients(p, n):
    rng = random.Random(p * 10 + n)
    terms = []
    for _ in range(6):
        factors = [str(rng.randrange(10**12))]
        for i in rng.sample(range(1, n + 1), rng.randrange(n + 1)):
            factors.append(f"x{i}^{rng.randrange(40)}")
        terms.append("*".join(factors))
    text = " - ".join(terms)
    f = parse_polynomial(text, p, n)
    pts = [(0,) * n, (p - 1,) * n] + [
        tuple(rng.randrange(p) for _ in range(n)) for _ in range(300)
    ]
    for x in pts:
        assert f.evaluate(x) == helpers.poly_eval_ast(text, p, x), (text, x)


def test_huge_exponent_reduces_by_fermat():
    # poly_eval_ast would compute x**e unreduced, so check against pow(x, e, p)
    # and against the text with the Fermat exponent 1 + (e-1) mod (p-1)
    p, e = 257, 10**30 + 7
    f = parse_polynomial(f"3*x2^{e} + x1", p, 2)
    assert f.table == tuple(
        (3 * pow(x[1], e, p) + x[0]) % p for x in helpers.points(p, 2)
    )
    reduced = 1 + (e - 1) % (p - 1)
    assert f.table == parse_polynomial(f"3*x2^{reduced} + x1", p, 2).table


@pytest.mark.parametrize(
    "text,position",
    [
        ("1" * 5000 + " + x1", 0),
        ("x1 + x2^" + "1" * 5000, 8),
    ],
)
def test_overlong_literals_are_parse_errors(text, position):
    # past Python's 4,300-digit int conversion limit
    with pytest.raises(ParseError, match="5000 digits is too long") as exc:
        parse_terms(text, 3, 2)
    assert exc.value.position == position


@pytest.mark.parametrize(
    "text,message,position",
    [
        ("\u00b2", "unexpected character", 0),
        ("x1 + \u00b2", "unexpected character", 5),
        ("x1\u00b2", "unexpected character", 2),
        ("x\u00b2", "'x' must be followed by a variable index", 0),
    ],
)
def test_non_decimal_digits_are_parse_errors(text, message, position):
    # str.isdigit accepts superscripts that int() rejects; only Unicode
    # decimal digits (such as U+0663) make numbers
    with pytest.raises(ParseError, match=message) as exc:
        parse_polynomial(text, 3, 2)
    assert exc.value.position == position


# ---------------------------------------------------------------------------
# Function generation and table IO
# ---------------------------------------------------------------------------

def test_random_function_reproducible_and_in_range():
    a = random_function(3, 4, seed=42)
    b = random_function(3, 4, seed=42)
    assert a.table == b.table
    assert all(0 <= v < 3 for v in a.table)
    for s in range(10):
        assert random_function(3, 4, seed=s).table != random_function(3, 4, seed=s + 1).table


@pytest.mark.parametrize(
    "p,n,seed,digest",
    [
        (2, 19, 11, "f685bca373f28c0b080b46ad13e4f5d047c088ca372ac79176cecfb5e6f80cbe"),
        (3, 12, 5, "69594839429e353edda7a52e55694b41e88e774fc48e114decec410424c5109c"),
        (999983, 1, 3, "af27b7c423e4ae5a18b21e999615b32143a4e33dbcbf53566222bdb653e9ccb7"),
    ],
)
def test_random_function_is_pinned(p, n, seed, digest):
    text = write_table(random_function(p, n, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_random_function_rejects_a_negative_seed():
    # random.Random(-5) is seeded like random.Random(5)
    with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
        random_function(3, 2, seed=-5)


def _randranges(seed: int, p: int, count: int):
    """count literal rng.randrange(p) calls on random.Random(seed), and the
    generator state they leave."""
    rng = random.Random(seed)
    return [rng.randrange(p) for _ in range(count)], rng.getstate()


DRAW_PRIMES = (2, 3, 5, 7, 31, 97, 65537, 999983)


# _draws reads CPython's randrange off the Mersenne Twister's words; these
# tests catch a Python whose randrange draws differently.
@pytest.mark.parametrize("p", DRAW_PRIMES)
@pytest.mark.parametrize("count", [0, 1, _DRAW_TAIL, _DRAW_TAIL + 1, 4097, 2**19])
def test_draws_are_randrange_calls(p, count):
    rng = random.Random(p + count)
    got = _draws(rng, p, count)
    want, state = _randranges(p + count, p, count)
    assert got.dtype == np.int64 and got.shape == (count,)
    assert got.tolist() == want
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "p,n", [(2, 1), (2, 4), (2, 5), (2, 19), (3, 3), (5, 2), (7, 3), (31, 2), (97, 2),
            (65537, 1), (999983, 1)])
def test_random_table_is_randrange_calls(p, n):
    rng = random.Random(n)
    got = _random_table(rng, p, n).table
    want, state = _randranges(n, p, p**n)
    assert got == tuple(want)
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "p,n,count,rows",
    [(2, 3, 10, 3), (2, 8, 60, 64), (3, 2, 1, 5), (5, 3, 100, 32), (7, 1, 0, 2),
     (31, 2, 50, 7), (97, 1, 300, 169), (65537, 1, 3, 2)])
def test_random_chunks_are_randrange_calls(p, n, count, rows):
    rng = random.Random(count)
    got = [v for c in _random_chunks(rng, p, n, count, rows) for v in c.ravel().tolist()]
    want, state = _randranges(count, p, count * p**n)
    assert got == want
    assert rng.getstate() == state


def test_all_functions_order_and_count():
    fam = list(helpers.all_functions(2, 2))
    assert len(fam) == 16
    assert fam[0].table == (0, 0, 0, 0)
    assert fam[1].table == (0, 0, 0, 1)
    assert fam[-1].table == (1, 1, 1, 1)
    tables = [f.table for f in fam]
    assert tables == sorted(tables)
    assert sum(1 for _ in helpers.all_functions(3, 1)) == 27


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("rows", [1, 7, 10**6])
def test_exhaustive_chunks_are_all_functions_in_order(p, n, rows):
    chunks = list(_exhaustive_chunks(p, n, rows))
    assert all(c.dtype == np.int64 and 1 <= len(c) <= rows for c in chunks)
    got = [tuple(row) for c in chunks for row in c.tolist()]
    assert got == [f.table for f in helpers.all_functions(p, n)]


@pytest.mark.parametrize(
    "p,n,count,rows", [(2, 3, 10, 3), (3, 2, 7, 7), (5, 2, 9, 4), (7, 1, 0, 2)])
def test_random_chunks_are_successive_random_tables(p, n, count, rows):
    rng, ref = random.Random(11), random.Random(11)
    chunks = list(_random_chunks(rng, p, n, count, rows))
    assert [len(c) for c in chunks] == [min(rows, count - s) for s in range(0, count, rows)]
    got = [tuple(row) for c in chunks for row in c.tolist()]
    assert got == [_random_table(ref, p, n).table for _ in range(count)]
    # both generators made the same draws, so they stand at the same state
    assert rng.random() == ref.random()


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
def test_tally_is_the_single_table_counts_per_row(p, n):
    fs = [random_function(p, n, seed=s) for s in range(5)]
    tables = np.array([f.table for f in fs], dtype=np.int64)
    for indices in [(), (1,), (n,), (n, 1), tuple(range(1, n + 1))]:
        strength = p ** len(indices)
        packed = np.array(_packed_digits(p, n, indices), dtype=np.int64)
        # joint counts, cell w * p + v
        got = _tally(tables, 1, p * packed, p * strength)
        assert got.shape == (p * strength, 5)
        assert [row.tolist() for row in got.T] == [_joint_counts(f, indices) for f in fs]
        # level-major pattern counts, cell v * p^len + w, against a tally per level
        got = _tally(tables, strength, packed, p * strength).reshape(p, strength, 5)
        for f, counts in zip(fs, got.transpose(2, 0, 1).tolist()):
            for v in range(p):
                level = Counter(
                    sum(digits_of(x, p, n)[i - 1] * p**r for r, i in enumerate(indices))
                    for x in range(p**n) if f.table[x] == v)
                assert counts[v] == [level[w] for w in range(strength)]
        # count matrices, cell d * p + v, of a c that is nonzero on indices
        c = [0] * n
        for r, i in enumerate(indices):
            c[i - 1] = r % (p - 1) + 1
        d = np.array(_weighted_digits(p, c), dtype=np.int64) % p
        got = _tally(tables, 1, p * d, p * p).reshape(p, p, 5)
        assert [tuple(map(tuple, cm)) for cm in got.transpose(2, 0, 1).tolist()] == [
            count_matrix(f, c).entries for f in fs]


def test_table_io_roundtrip():
    f = random_function(5, 2, seed=9)
    g = read_table(write_table(f))
    assert (g.p, g.n, g.table) == (f.p, f.n, f.table)
    assert write_table(f) == f"5 2\n{' '.join(str(v) for v in f.table)}\n"


def test_read_table_accepts_multiline_bodies():
    f = read_table("2 2\n0 1\n1 0\n")
    assert f.table == (0, 1, 1, 0)


@pytest.mark.parametrize(
    "text",
    [
        "2\n0 1",
        "two 1\n0 1",
        "2 1\n0 x",
        "2 1\n0 1 0",
        "2 1\n0 2",
        "4 1\n0 0 0 0",
    ],
)
def test_read_table_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        read_table(text)


def test_read_table_size_cap_is_not_a_parse_error():
    with pytest.raises(SizeLimitError):
        read_table("2 40\n0")


@pytest.mark.parametrize("p,n", [(2, 6), (11, 2), (257, 1)])
def test_write_table_matches_per_entry_str(p, n):
    f = random_function(p, n, seed=p)
    assert write_table(f) == f"{p} {n}\n{' '.join(str(v) for v in f.table)}\n"


@pytest.mark.parametrize(
    "token", ["x", "2.5", "1e3", "1_0", "1+1", "0x1", "-1", "2", "99999999999999999999"]
)
def test_read_table_rejects_bad_tokens(token):
    with pytest.raises(ParseError) as exc:
        read_table(f"2 2\n0 1 {token} 0\n")
    # the message names the token as written, also one that int64 saturates
    assert repr(token) in str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [("4 1\n0 1 2 9\n", "p must be prime, got 4"), ("2 0\n5\n", "n must be >= 1, got 0"),
     ("2 2\n0 1 5\n", "table must have p^n = 4 entries, got 3")],
)
def test_read_table_reports_header_and_length_before_entries(text, message):
    with pytest.raises(ParseError) as exc:
        read_table(text)
    assert str(exc.value) == message


def test_read_table_accepts_any_ascii_whitespace():
    f = read_table("3 2\r\n  0 1\t2\r\n\r\n2 0 1\n\n1\x0b2  0 \n\n")
    assert f.table == (0, 1, 2, 2, 0, 1, 1, 2, 0)
