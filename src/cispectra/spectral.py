"""Spectral tests for correlation immunity and resiliency.

Write N = p^n, omega = exp(2*pi*i/p), xi = exp(2*pi*i/p^n).  The DFT of f is

    dft[j] = sum_k omega^f(k) * xi^(-k*j),    j = 0 .. N-1,

i.e. the plain numpy.fft.fft of the sequence omega^f(k).  The whole theory
lives on the frequency stratum gcd(j, N) = p^(n-m):

  * f is correlation-immune of order m  iff  the DFT of every
    variable-permuted copy of f vanishes at every index j with
    gcd(j, N) = p^(n-m), i.e. j = a * p^(n-m) with a not divisible by p;
  * each such value lies in Z[zeta], zeta = exp(2*pi*i/p^m), so the test can
    be made exact, no float threshold anywhere in a verdict;
  * values at indices a and c*a with c = 1 (mod p) are Galois conjugates
    over Z[omega] and vanish together, which cuts the stratum down to the
    p-1 representatives a = 1, ..., p-1 (exact_spectrum_conjugates).  For
    p = 2 the stratum is the single index p^(n-m) and the classical
    one-evaluation test (entry 0 of the orbit) is already complete.
    For p > 2 it is not: the associated polynomial sum_k omega^f(k) z^k has
    coefficients in Z[omega] rather than Z, its reduction mod the p^m-th
    cyclotomic polynomial has p-1 independent components, and vanishing of
    the a = 1 component does not force the others.  Example: p = 3, n = 2,
    table (0,0,0,0,0,2,1,0,0) has dft[3] = 0 exactly for both variable
    orders yet dft[6] != 0, and the function fails the counting definition.
    Verdicts here therefore always test the full conjugate orbit;
  * a value depends on a permutation pi only through which variables pi
    places on positions 1..m and in what order, and vanishes iff the joint
    counts of (x_S, f(x)) over its variable set S do not change along its
    top variable (_axis_changes); no ordered tuple is ever enumerated.
    Every ordering of S passes iff all rows of those counts are equal
    (_rows_equal), so ci_order, and is_ci derived from it, read each of
    the C(n, m) subsets at most once, and so does first_failing_tuple (the
    witness of the consensus "spectral" method) and ci_verdicts, its
    verdict over a whole array of tables.  The search climb scores a
    table by ParsevalCost, p^m * sum over m-subsets S of SS(S) - C(n, m) *
    SS(empty set), SS being the sum of squared joint counts; it is zero
    exactly when every m-subset has equal rows.  A move is scored by
    reading one count pair per count list, two for a swap (cost_after), and
    written only when the climb keeps it (apply).  These collapses and the orbit
    criterion are validated in the test suite against an ordered scan of
    the exact values and the counting oracles;
  * ci_order does not have to scan subsets at all: with
    T[c, s] = #{x : f(x) + c.x = s}, f is m-CI iff every row T[c, .] with
    1 <= wt(c) <= m is uniform (Xiao and Massey, IEEE Trans. IT 34(3),
    1988; Camion, Carlet, Charpin and Sendrier, CRYPTO '91): the value
    sum_x omega^(a*f(x) + c.x) at a != 0 is sigma_a of the value at a = 1
    and a^(-1)*c, and a^(-1)*c has the weight of c.  So ci_order is the
    least weight of a nonzero c with a non-uniform row, minus one.
    _row_transform builds T exactly in integers, one butterfly per
    variable, n * p^(n+2) cell additions.  The subset scan stays first,
    because it stops at the first failing subset; both verdicts hand over
    to the transform once the scan has spent its estimated cost (the rule
    and its constants are in ci_order's docstring), so each costs at most
    about twice the cheaper of the two;
  * for a symmetric f every tuple gives the same values, so one subset per
    order decides (ci_order_symmetric reads only {1, ..., m}): f is m-CI iff,
    for every c in 1..p-1, the DFT of c*f vanishes at the one index p^(n-m).
    Proof: sigma_a (zeta -> zeta^a) sends omega^(f/a) zeta^(-k) to omega^f
    zeta^(-a*k), so it maps the value of f/a at p^(n-m) to that of f at
    a*p^(n-m); c = 1/a mod p gives the whole orbit a = 1..p-1.  One location
    of f alone decides only at p = 2: the symmetric (0,0,0,0,2,0,0,0,1) over
    F_3^2 has dft[3] = 0 but dft[6] != 0 and is not 1-CI.

f is m-resilient iff fixing any m variables to any values leaves a balanced
restriction; first_unbalanced_restriction finds the first restriction that
is not, by counting over unordered subsets (order of the fixed variables
cannot matter for balancedness).  Equivalently f is balanced and m-CI,
which is how resiliency_order derives the order from ci_order instead of
scanning again.

Float results (dft_float, autocorrelation) are for inspection only and
never decide a verdict.  Both are numpy FFTs at every size (autocorrelation
by Wiener-Khinchin); the tests compare them with direct per-frequency and
per-shift sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cyclotomic import CycloElement
from .ptable import (
    PFunction,
    VariableTuple,
    _check_order,
    _joint_counts,
    _joint_counts_batch,
    digits_of,
    is_balanced,
    is_symmetric,
)


def critical_index(f: PFunction, m: int) -> int:
    """Base index p^(n-m) of the critical stratum; the full order-m test
    looks at its multiples a * p^(n-m), a = 1 .. p-1."""
    _check_order(f, m, 1)
    return f.p ** (f.n - m)


def _validated_tuple(f: PFunction, m: int, t) -> VariableTuple:
    if not isinstance(t, VariableTuple):
        t = VariableTuple(tuple(t))
    _check_order(f, m, 1)
    if len(t) != m:
        raise ValueError(f"tuple has length {len(t)}, expected m = {m}")
    for i in t.indices:
        if i > f.n:
            raise ValueError(f"variable index {i} is outside 1..{f.n}")
    return t


def exact_spectrum_conjugates(f: PFunction, m: int, t) -> tuple[CycloElement, ...]:
    """Exact DFT values on the whole critical stratum for one ordered tuple.

    With zeta = exp(2*pi*i/p^m), omega = zeta^(p^(m-1)) and
    e(k) = sum_r x_{t[r]}(k) * p^(r-1), entry a-1 (a = 1 .. p-1) is the
    exact element sum_k omega^f(k) * zeta^(-a*e(k)) of Z[zeta]: the DFT at
    index a * p^(n-m) of apply_permutation(f, pi) for every pi that sends
    t[1], ..., t[m] to positions 1, ..., m (the identity tuple (1, ..., m)
    gives dft_float(f) itself).  Values at indices c*a with c = 1 (mod p)
    are Galois conjugates of entry a-1 and vanish with it, so these p-1
    entries decide vanishing at every j with gcd(j, p^n) = p^(n-m).  f is
    m-CI iff all entries are zero for every ordered m-tuple.  Entry 0, the
    value at p^(n-m) itself, decides alone only for p = 2, where it is the
    only entry.
    """
    t = _validated_tuple(f, m, t)
    p = f.p
    order = p**m
    half = order // p  # p^(m-1), the exponent step of omega inside Z[zeta]
    cm = _joint_counts(f, t.indices)
    out = []
    for a in range(1, p):
        counts = [0] * order
        for w in range(order):
            base = w * p
            shift = (-a * w) % order
            for v in range(p):
                counts[(v * half + shift) % order] += cm[base + v]
        out.append(CycloElement.from_root_counts(f.p, m, counts))
    return tuple(out)


def _axis_changes(cm: list[int], p: int, r: int) -> bool:
    """True iff some two rows cm[w*p : w*p + p] of a joint-count list that
    differ only in digit r of w differ.

    For the counts over an ordered tuple and r its top position, no change
    along r is equivalent to all p-1 conjugate spectral values vanishing:
    reducing the associated polynomial mod the p^m-th cyclotomic polynomial
    leaves Z[omega]-coefficients whose integer coordinates are the row
    differences, a vanishing combination of powers of omega with integer
    coordinates forces all coordinates equal, and their sum over outputs is
    fixed at the fiber size p^(n-m), forcing them to zero.  The order of
    the other variables only permutes rows.

    Digit r of w has stride p^(r+1) in the flat list, so the rows sharing
    every other digit form p consecutive chunks of length p^(r+1) in each
    block of length p^(r+2).  The chunks of a block are all equal iff the
    block equals itself shifted by one chunk.
    """
    step = p ** (r + 1)
    block = step * p
    for b in range(0, len(cm), block):
        if cm[b + step : b + block] != cm[b : b + block - step]:
            return True
    return False


def first_failing_tuple(f: PFunction, m: int) -> VariableTuple | None:
    """Lexicographically first ordered m-tuple at which some critical-stratum
    value is nonzero, or None when f is m-CI.

    A tuple fails iff the counts over its set change along its top variable
    (_axis_changes), so sorting its first m-1 entries keeps it failing and
    makes it no larger: the first failing tuple is an increasing prefix
    followed by a top variable.  Prefixes and then tops are tried in
    increasing order, and each subset's counts are read at most once.
    """
    _check_order(f, m, 1)
    p = f.p
    # subset -> the variables along which its counts change (failing tops)
    failing: dict[tuple[int, ...], list[int]] = {}
    for prefix in combinations(range(1, f.n + 1), m - 1):
        for top in range(1, f.n + 1):
            if top in prefix:
                continue
            subset = tuple(sorted(prefix + (top,)))
            tops = failing.get(subset)
            if tops is None:
                cm = _joint_counts(f, subset)
                tops = [s for r, s in enumerate(subset) if _axis_changes(cm, p, r)]
                failing[subset] = tops
            if top in tops:
                return VariableTuple(prefix + (top,))
    return None


def ci_verdicts(tables: np.ndarray, p: int, n: int, m: int) -> np.ndarray:
    """first_failing_tuple(f, m) is None for every row f of a (K, p^n)
    int64 array of tables, as K bools: no m-subset's joint counts change
    along any of its axes (_axis_changes), each subset's counts built once
    for the whole array."""
    if not 1 <= m <= n:
        raise ValueError(f"m must be in 1..{n}, got {m}")
    k = len(tables)
    ok = np.ones(k, dtype=bool)
    for subset in combinations(range(1, n + 1), m):
        if not ok.any():
            break
        # axes 1..m hold the digits of w, most significant (the subset's
        # last variable) first; the last axis holds the output
        cm = _joint_counts_batch(tables, p, n, subset).reshape((k,) + (p,) * (m + 1))
        for axis in range(1, m + 1):
            ok &= ~np.diff(cm, axis=axis).reshape(k, -1).any(axis=1)
    return ok


class ParsevalCost:
    """The search climb's cost p^m * sum_S SS(S) - C(n, m) * SS(empty set),
    kept current while entries change.

    S runs over the m-subsets, SS(T) is the sum of the squared joint counts
    cm_T of (x_T, f(x)), and the empty set's counts are the histogram.  The
    state is those C(n, m) + 1 count lists and the running cost.  The cost
    is >= 0 and is 0 iff f is m-CI: over the p^m rows w of cm_S,
    p^m * sum_w cm_S[w, v]^2 >= hist[v]^2 (Cauchy-Schwarz), with equality iff
    column v is constant.  By Parseval over x_S it equals the sum over v and
    over c with 1 <= wt(c) <= m of
    C(n - wt(c), m - wt(c)) * |sum_{x : f(x) = v} omega^(c.x)|^2.
    A changed entry moves one cell pair in each of the C(n, m) + 1 count
    lists, and so each SS by O(1).  m = 0 gives cost 0.

    cost_after scores a move by reading those cell pairs and writes
    nothing; apply writes a move.  `table` is the current table as a list;
    change it only through apply.
    """

    def __init__(self, f: PFunction, m: int):
        _check_order(f, m, 0)
        p = f.p
        self.table = list(f.table)
        self._p, self._places = p, [p**i for i in range(f.n)]
        # the m-subsets, then the empty set (the histogram)
        tracked = list(combinations(range(1, f.n + 1), m))
        self._weights = [p**m] * len(tracked) + [-len(tracked)]
        tracked.append(())
        # in the counts of a subset whose r-th variable is s, digit x_s of a
        # point has stride p^(r+1) and the output value has stride 1
        self._strides = [[(s - 1, p ** (r + 1)) for r, s in enumerate(sub)] for sub in tracked]
        self._counts = [_joint_counts(f, sub) for sub in tracked]
        self.cost = sum(w * sum([c * c for c in cm]) for w, cm in zip(self._weights, self._counts))

    def _shift(self, k: int, v: int, write: bool = False) -> int:
        """The cost change of setting table[k] = v from a different value;
        with write, the joint counts are moved too (the table and cost are
        left to the caller).

        The change moves cm[base + old] - 1 and cm[base + v] + 1 in each
        count list, which moves SS by 2 * (cm[base + v] - cm[base + old] + 1).
        """
        old = self.table[k]
        digits = [k // place % self._p for place in self._places]
        delta = 0
        for strides, cm, weight in zip(self._strides, self._counts, self._weights):
            base = 0
            for j, stride in strides:
                base += digits[j] * stride
            # (a-1)^2 + (b+1)^2 - a^2 - b^2 for a = cm[base+old], b = cm[base+v]
            delta += weight * (cm[base + v] - cm[base + old] + 1)
            if write:
                cm[base + old] -= 1
                cm[base + v] += 1
        return 2 * delta

    def cost_after(self, changes) -> int:
        """The cost apply(changes) would give, read off the counts; nothing
        is written.

        changes is one (k, v), scored by _shift, or a swap
        [(i, table[j]), (j, table[i])].  A swap of differing values
        a = table[i] and b = table[j] moves four distinct cells in each list
        where i and j lie in different rows, and nothing in one where they
        share a row.  The histogram has one row, so no swap moves it.
        """
        table = self.table
        if len(changes) == 1:
            ((k, v),) = changes
            return self.cost if table[k] == v else self.cost + self._shift(k, v)
        (i, b), (j, a) = changes
        if (a, b) != (table[i], table[j]):
            raise ValueError(f"not one change or a swap of two entries: {changes}")
        if a == b:
            return self.cost
        di = [i // place % self._p for place in self._places]
        dj = [j // place % self._p for place in self._places]
        delta = 0
        for strides, cm, weight in zip(self._strides, self._counts, self._weights):
            base_i = base_j = 0
            for x, stride in strides:
                base_i += di[x] * stride
                base_j += dj[x] * stride
            if base_i != base_j:
                moved = cm[base_i + b] - cm[base_i + a] + cm[base_j + a] - cm[base_j + b]
                delta += weight * (moved + 2)
        return self.cost + 2 * delta

    def _move(self, k: int, v: int):
        """Set table[k] = v, moving one joint count pair per count list."""
        if self.table[k] != v:  # _shift needs two distinct cells
            self.cost += self._shift(k, v, write=True)
            self.table[k] = v

    def apply(self, changes) -> int:
        """Set table[k] = v for each (k, v) in order; return the new cost."""
        for k, v in changes:
            self._move(k, v)
        return self.cost


def _rows_equal(f: PFunction, indices) -> bool:
    """True iff every row cm[w*p : w*p + p] of the joint counts over the
    variable set indices is the same, i.e. no axis changes (_axis_changes)
    and every ordering of indices passes.

    An ordering passes iff the rows do not change when its top variable
    changes; when that holds for every variable of the set, single-coordinate
    changes connect all rows.

    Over all n variables each row holds a single 1, at f(w), so the rows are
    equal iff f is constant; that case is read off the table without
    building its p^(n+1) counts.
    """
    if len(indices) == f.n:
        return min(f.table) == max(f.table)
    cm = _joint_counts(f, indices)
    return cm == cm[: f.p] * (len(cm) // f.p)


def is_ci(f: PFunction, m: int) -> bool:
    """Correlation immunity of order m, decided exactly: ci_order(f) >= m,
    since immunity of order m implies order m-1.  It costs what ci_order
    costs.  m = 0 is vacuously true."""
    _check_order(f, m, 0)
    return ci_order(f) >= m


# The transform's cost in scan steps, one step being what _rows_equal
# spends per table entry; see ci_order.
_ADD_CALL_STEPS = 64
_ADDED_CELLS_PER_STEP = 190
_TRANSPOSED_CELL_ADDS = 12


def _transform_steps(f: PFunction) -> int:
    """Estimated cost of _row_transform, in subset-scan steps."""
    p = f.p
    cells = (p * p + _TRANSPOSED_CELL_ADDS * p) * f.size
    return f.n * (_ADD_CALL_STEPS * p * p + cells // _ADDED_CELLS_PER_STEP)


def _row_transform(f: PFunction) -> np.ndarray:
    """T[s, c] = #{x : f(x) + c.x = s} as an integer array of shape (p, p^n);
    the digits of c are laid out like those of the table index, so
    T[:, k] is the row of the c whose digits are those of k.

    Starts from the one-hot A[s, x] = [f(x) = s] and transforms one
    variable at a time: new[s, c] = sum_x old[s - c*x, x] along that
    variable's axis, each term a shift of the output axis s.  The axis
    being transformed is kept in front of the remaining variables and
    moved to the back afterwards, so after n rounds the c-axes are back in
    table order and each shift is a pair of slice additions over
    contiguous blocks.  Entries never exceed p^n, which int32 holds below
    MAX_TABLE_ENTRIES.
    """
    p = f.p
    dtype = np.int32 if f.size < 2**31 else np.int64
    t = (np.arange(p)[:, None] == f.array.reshape(1, -1)).astype(dtype)
    for _ in range(f.n):
        old = t.reshape(p, p, -1)  # (s, the variable transformed, the rest)
        new = np.zeros_like(old)
        for c in range(p):
            dst = new[:, c]
            for x in range(p):
                src, r = old[:, x], c * x % p
                dst[r:] += src[: p - r]
                if r:
                    dst[:r] += src[p - r :]
        t = np.ascontiguousarray(new.transpose(0, 2, 1))
    return t.reshape(p, -1)


def _transform_ci_order(f: PFunction) -> int:
    """ci_order read off _row_transform: the least weight of a nonzero c
    whose row T[., c] is not uniform, minus one; n when there is none."""
    p = f.p
    rows = _row_transform(f)
    uneven = (rows != rows[:1]).any(axis=0)
    nonzero = (np.arange(p) != 0).astype(np.int8)
    weight = nonzero
    for _ in range(f.n - 1):
        weight = np.add.outer(weight, nonzero)
    weight = weight.reshape(-1)
    failing = weight[uneven & (weight > 0)]
    return int(failing.min()) - 1 if failing.size else f.n


def _order(f: PFunction, symmetric: bool) -> int:
    """ci_order's rented scan over every m-subset, or over {1, ..., m} only."""
    size, budget, spent = f.size, _transform_steps(f), 0
    variables = range(1, f.n + 1)
    for m in variables:
        for subset in (tuple(variables[:m]),) if symmetric else combinations(variables, m):
            spent += size
            if spent > budget:
                return _transform_ci_order(f)
            if not _rows_equal(f, subset):
                return m - 1
    return f.n


def ci_order(f: PFunction) -> int:
    """Largest m such that f is m-CI; 0 when not even first-order immune.

    Scans m = 1, 2, ... upward, C(n, m) subsets per order; immunity of order
    m implies order m-1 (conditioning on fewer variables averages
    conditionals on more), so the first failing subset ends the scan.  On
    an immune f the scan reads about 2^n subsets of p^n steps each, so it
    is rented, ski-rental style: before each subset p^n is added to the
    steps spent, and once they pass _transform_steps(f) the order is read
    off the exact transform instead (_transform_ci_order).  Either way the
    verdict costs at most about twice the cheaper of scan and transform.
    ci_order_symmetric rents its scan of one subset per order the same way.

    _transform_steps(f) = n * (64 * p^2 + (p^2 + 12 * p) * p^n // 190)
    counts each of the transform's n rounds: about p^2 numpy slice
    additions over p^(n+2) cells, then one transpose of p^(n+1) cells.
    Its constants are in scan steps, one step being _rows_equal's time per
    table entry (median 83-121 ns from run to run, over p = 2..13 and
    p^n = 2^8..2^19).  An addition's fixed cost is 64 steps (6 us); 190
    int32 cells are added per step; a transposed cell, whose innermost run
    is only p long, costs as much as 12 added ones.  Against
    _row_transform's measured time over p = 2..13 and p^n = 2^8..13^5 the
    estimate came out 1.1 to 2.1 times high, closest at the largest sizes
    ((2,19) 0.15 s, (7,7) 0.37 s).  All were measured on a 2-CPU x86-64
    host with Python 3.11 and numpy 2.4; they are a property of the host,
    and a wrong estimate only moves the handover, never the answer.
    With them the estimate is at least p^n at every size, so a table that
    fails on its first subset, as random tables do, never reaches the
    transform; a table of 16 entries is always scanned; and the transform
    is never reached at (31, 4) or (97, 3), where it would take seconds
    and over 300 MB.
    """
    return _order(f, False)


def ci_order_symmetric(f: PFunction) -> int:
    """ci_order via the symmetric shortcut: permuting variables fixes f, so
    the counts over {1, ..., m} stand in for every m-subset and _rows_equal
    decides (the conjugate orbit must still vanish in full), in ci_order's
    rented loop.  Raises on non-symmetric input rather than silently
    answering the wrong question."""
    if not is_symmetric(f):
        raise ValueError("f is not symmetric; use ci_order")
    return _order(f, True)


def first_unbalanced_restriction(f: PFunction, m: int):
    """First witness against m-resiliency, or None.

    Scans unordered m-subsets in lexicographic order, then assignments in
    base-p index order; returns (subset, assignment, output_counts) for the
    first restriction whose p output counts are not all equal.  m = 0 tests
    f itself for balance.
    """
    _check_order(f, m, 0)
    p = f.p
    for subset in combinations(range(1, f.n + 1), m):
        cm = _joint_counts(f, subset)
        for a in range(p**m):
            row = cm[a * p : a * p + p]
            if row.count(row[0]) != p:
                return (subset, digits_of(a, p, m), tuple(row))
    return None


def resiliency_order(f: PFunction) -> int:
    """Largest m such that f is m-resilient; -1 when f is not balanced.

    Derived, not scanned: f is m-resilient iff it is balanced and m-CI, and
    a balanced f is never n-CI (only constants are), so ci_order of a
    balanced f lies in [0, n-1].
    """
    return ci_order(f) if is_balanced(f) else -1


# --------------------------------------------------------------------------
# Floating-point transforms
# --------------------------------------------------------------------------

def _omega_sequence(f: PFunction) -> np.ndarray:
    return np.exp(2j * np.pi / f.p * np.asarray(f.table, dtype=np.float64))


def dft_float(f: PFunction) -> np.ndarray:
    """dft[j] = sum_k omega^f(k) * exp(-2*pi*i*k*j/N), j = 0..N-1, by
    numpy's FFT."""
    return np.fft.fft(_omega_sequence(f))


def autocorrelation(f: PFunction) -> np.ndarray:
    """C[t] = sum_k omega^(f(k+t) - f(k)), index addition mod N, by
    Wiener-Khinchin: C = ifft(|fft(omega^f)|^2).  C[0] = N always."""
    return np.fft.ifft(np.abs(np.fft.fft(_omega_sequence(f))) ** 2)


@dataclass(frozen=True, eq=False)
class SpectrumDump:
    """Full float DFT and autocorrelation of one function, JSON-serializable.

    JSON schema: {"p": int, "n": int, "dft": [[re, im], ...],
    "autocorrelation": [[re, im], ...]}, both vectors of length p^n.
    """

    p: int
    n: int
    dft: np.ndarray
    autocorrelation: np.ndarray

    @classmethod
    def compute(cls, f: PFunction) -> "SpectrumDump":
        return cls(f.p, f.n, dft_float(f), autocorrelation(f))

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "n": self.n,
                "dft": np.column_stack([self.dft.real, self.dft.imag]).tolist(),
                "autocorrelation": np.column_stack(
                    [self.autocorrelation.real, self.autocorrelation.imag]
                ).tolist(),
            }
        )
