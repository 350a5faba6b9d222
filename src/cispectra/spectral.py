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
    one-evaluation test (exact_spectrum_at_critical) is already complete.
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
    (_rows_equal), so is_ci and ci_order read each of the C(n, m) subsets
    once, and first_failing_tuple (the witness of the consensus "spectral"
    method) reads each at most once.  The search climb scores a table by
    ParsevalCost, p^m * sum over m-subsets S of SS(S) - C(n, m) * SS(empty
    set), SS being the sum of squared joint counts; it is zero exactly when
    every m-subset has equal rows.  These collapses and the orbit
    criterion are validated in the test suite against an ordered scan of
    the exact values and the counting oracles;
  * for a symmetric f every tuple gives the same values, so one subset per
    order decides (is_ci_symmetric, ci_order_symmetric): f is m-CI iff, for
    every c in 1..p-1, the DFT of c*f vanishes at the one index p^(n-m).
    Proof: sigma_a (zeta -> zeta^a) sends omega^(f/a) zeta^(-k) to omega^f
    zeta^(-a*k), so it maps the value of f/a at p^(n-m) to that of f at
    a*p^(n-m); c = 1/a mod p gives the whole orbit a = 1..p-1.  One location
    of f alone decides only at p = 2: the symmetric (0,0,0,0,2,0,0,0,1) over
    F_3^2 has dft[3] = 0 but dft[6] != 0 and is not 1-CI.

f is m-resilient iff fixing any m variables to any values leaves a balanced
restriction; is_resilient checks exactly that by counting, over unordered
subsets (order of the fixed variables cannot matter for balancedness).
Equivalently f is balanced and m-CI, which is how resiliency_order derives
the order from ci_order instead of scanning again.

Float results (dft_float, autocorrelation) are for inspection only.  Both
are numpy FFTs at every size (autocorrelation by Wiener-Khinchin); the tests
compare them with direct per-frequency and per-shift sums.  The reporting
threshold for calling a float value zero is FLOAT_ZERO_FACTOR * N; exact
verdicts never consult it.
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
    digits_of,
    is_balanced,
    is_symmetric,
)

# Reporting-only threshold scale for float zero classification.
FLOAT_ZERO_FACTOR = 1e-6


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


def exact_spectrum_at_critical(f: PFunction, m: int, t) -> CycloElement:
    """Exact DFT value at p^(n-m) after moving the tuple's variables first.

    For zeta = exp(2*pi*i/p^m) and omega = zeta^(p^(m-1)) this returns

        sum_k omega^f(k) * zeta^(-e(k)),   e(k) = sum_r x_{t[r]}(k) * p^(r-1),

    as an exact element of Z[zeta].  to_complex() of the result equals
    dft_float(apply_permutation(f, pi))[p^(n-m)] for every permutation pi
    that sends the variables t[1], ..., t[m] to positions 1, ..., m (i.e.
    VariableTuple.from_permutation(pi, m) == t); in particular the identity
    tuple (1, ..., m) gives dft_float(f)[p^(n-m)] itself.

    Zero here is necessary for order-m immunity but sufficient only when
    p = 2; verdicts use the full orbit (exact_spectrum_conjugates).
    """
    return exact_spectrum_conjugates(f, m, t)[0]


def exact_spectrum_conjugates(f: PFunction, m: int, t) -> tuple[CycloElement, ...]:
    """Exact DFT values on the whole critical stratum for one ordered tuple.

    Entry a-1 (a = 1 .. p-1) is sum_k omega^f(k) * zeta^(-a*e(k)), the DFT
    of the tuple-permuted function at index a * p^(n-m).  Values at indices
    c*a with c = 1 (mod p) are Galois conjugates of entry a-1 and vanish
    with it, so these p-1 entries decide vanishing at every j with
    gcd(j, p^n) = p^(n-m).  f is m-CI iff all entries are zero for every
    ordered m-tuple.  Entry 0 equals exact_spectrum_at_critical(f, m, t);
    for p = 2 it is the only entry.
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

    `table` is the current table as a list; change it only through apply
    and undo.
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
        self._undo: list[tuple[int, int]] | None = None

    def _move(self, k: int, v: int):
        """Set table[k] = v, moving one joint count pair per count list."""
        old = self.table[k]
        if old == v:
            return  # the SS update below needs two distinct cells
        digits = [k // place % self._p for place in self._places]
        delta = 0
        for strides, cm, weight in zip(self._strides, self._counts, self._weights):
            base = 0
            for j, stride in strides:
                base += digits[j] * stride
            # (a-1)^2 + (b+1)^2 - a^2 - b^2 for a = cm[base+old], b = cm[base+v]
            delta += weight * (cm[base + v] - cm[base + old] + 1)
            cm[base + old] -= 1
            cm[base + v] += 1
        self.cost += 2 * delta
        self.table[k] = v

    def apply(self, changes) -> int:
        """Set table[k] = v for each (k, v) in order; return the new cost.

        undo reverts the last apply.
        """
        self._undo = [(k, self.table[k]) for k, _ in changes]
        for k, v in changes:
            self._move(k, v)
        return self.cost

    def undo(self):
        """Revert the last apply by replaying the values it overwrote."""
        if self._undo is None:
            raise ValueError("nothing to undo")
        for k, v in self._undo:
            self._move(k, v)
        self._undo = None


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
    """Correlation immunity of order m, decided exactly.

    Every ordered m-tuple of distinct variables must have all p-1 conjugate
    spectral values zero, which is decided once per unordered m-subset by
    _rows_equal.  m = 0 is vacuously true: its only subset is empty.
    """
    _check_order(f, m, 0)
    return all(_rows_equal(f, s) for s in combinations(range(1, f.n + 1), m))


def ci_order(f: PFunction) -> int:
    """Largest m with is_ci(f, m); 0 when not even first-order immune.

    Scans m = 1, 2, ... upward, C(n, m) subsets per order; immunity of order
    m implies order m-1 (conditioning on fewer variables averages
    conditionals on more), so the first failure ends the scan.
    """
    m = 0
    while m < f.n and is_ci(f, m + 1):
        m += 1
    return m


def is_ci_symmetric(f: PFunction, m: int) -> bool:
    """Single-subset shortcut valid for symmetric f: permuting variables
    fixes f, so the counts over {1, ..., m} stand in for every subset and
    are invariant under permuting their axes; _rows_equal decides (the
    conjugate orbit must still vanish in full).  Raises on non-symmetric
    input rather than silently answering the wrong question."""
    if not is_symmetric(f):
        raise ValueError("f is not symmetric; use is_ci")
    _check_order(f, m, 1)
    return _rows_equal(f, tuple(range(1, m + 1)))


def ci_order_symmetric(f: PFunction) -> int:
    """ci_order via the symmetric shortcut (one subset per order)."""
    if not is_symmetric(f):
        raise ValueError("f is not symmetric; use ci_order")
    m = 0
    while m < f.n and _rows_equal(f, tuple(range(1, m + 2))):
        m += 1
    return m


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


def is_resilient(f: PFunction, m: int) -> bool:
    """True iff every restriction of f fixing m variables is balanced
    (m = 0: f itself balanced).  Always false at m = n: a single point
    cannot be balanced over p >= 2 outputs."""
    return first_unbalanced_restriction(f, m) is None


def resiliency_order(f: PFunction) -> int:
    """Largest m with is_resilient(f, m); -1 when f is not balanced.

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


def float_is_zero(value: complex, size: int) -> bool:
    """Reporting-only zero classification for float spectra; never feeds a
    verdict."""
    return abs(value) <= FLOAT_ZERO_FACTOR * size


@dataclass(frozen=True)
class SpectrumDump:
    """Full float DFT and autocorrelation of one function, JSON-serializable.

    JSON schema: {"p": int, "n": int, "dft": [[re, im], ...],
    "autocorrelation": [[re, im], ...]}, both vectors of length p^n.
    """

    p: int
    n: int
    dft: tuple[complex, ...]
    autocorrelation: tuple[complex, ...]

    @classmethod
    def compute(cls, f: PFunction) -> "SpectrumDump":
        return cls(
            f.p,
            f.n,
            tuple(complex(z) for z in dft_float(f)),
            tuple(complex(z) for z in autocorrelation(f)),
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "n": self.n,
                "dft": [[z.real, z.imag] for z in self.dft],
                "autocorrelation": [[z.real, z.imag] for z in self.autocorrelation],
            }
        )
