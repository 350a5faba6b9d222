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
    places on positions 1..m and in what order, so the n! permutations
    collapse to n!/(n-m)! ordered tuples; failing_tuples and
    first_failing_tuple enumerate those in lexicographic order, which makes
    failure witnesses, the consensus "spectral" method and the search cost
    reproducible.  Every ordering of a variable set S passes iff all rows of
    the joint counts over S are equal (_rows_equal), so the verdicts is_ci
    and ci_order collapse further to the C(n, m) unordered subsets.  Both
    collapses and the orbit criterion are validated against the independent
    counting oracles in the test suite rather than trusted.

f is m-resilient iff fixing any m variables to any values leaves a balanced
restriction; is_resilient checks exactly that by counting, over unordered
subsets (order of the fixed variables cannot matter for balancedness).
Equivalently f is balanced and m-CI, which is how resiliency_order derives
the order from ci_order instead of scanning again.

Float results (dft_float, autocorrelation) are for inspection and
cross-checking only.  Both are computed from their definitions up to
N = _DIRECT_DFT_MAX and by FFT above it (autocorrelation by
Wiener-Khinchin); the tests compare the two paths.  The reporting threshold
for calling a float value zero is FLOAT_ZERO_FACTOR * N; exact verdicts
never consult it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .cyclotomic import CycloElement
from .ptable import (
    DEFAULT_SIZE_LIMIT,
    ParseError,
    PFunction,
    SizeLimitError,
    VariableTuple,
    _joint_counts,
    digits_of,
    is_balanced,
    is_symmetric,
)

# Above this length dft_float and autocorrelation switch from direct O(N^2)
# summation to FFT.
_DIRECT_DFT_MAX = 4096
# Reporting-only threshold scale for float zero classification.
FLOAT_ZERO_FACTOR = 1e-6


def critical_index(f: PFunction, m: int) -> int:
    """Base index p^(n-m) of the critical stratum; the full order-m test
    looks at its multiples a * p^(n-m), a = 1 .. p-1."""
    if not 1 <= m <= f.n:
        raise ValueError(f"m must be in 1..{f.n}, got {m}")
    return f.p ** (f.n - m)


def _validated_tuple(f: PFunction, m: int, t) -> VariableTuple:
    if not isinstance(t, VariableTuple):
        t = VariableTuple(tuple(t))
    if not 1 <= m <= f.n:
        raise ValueError(f"m must be in 1..{f.n}, got {m}")
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


def _conjugates_vanish(f: PFunction, indices) -> bool:
    """Fast integer core of the order-m verdict at one ordered tuple.

    Checks that the joint count table cm[w][v] does not depend on the top
    digit of w, i.e. cm[j*p^(m-1) + r][.] is the same row for j = 0 .. p-1.
    That column identity holds iff all p-1 conjugate spectral values vanish:
    reducing the associated polynomial mod the p^m-th cyclotomic polynomial
    leaves Z[omega]-coefficients whose integer coordinates are the row
    differences, a vanishing combination of powers of omega with integer
    coordinates forces all coordinates equal, and their sum over outputs is
    fixed at the fiber size p^(n-m), forcing them to zero.
    """
    p = f.p
    cm = _joint_counts(f, indices)
    block = p ** (len(indices) - 1)
    for r in range(block):
        first = cm[r * p : (r + 1) * p]
        for j in range(1, p):
            base = (j * block + r) * p
            if cm[base : base + p] != first:
                return False
    return True


def failing_tuples(f: PFunction, m: int):
    """Every ordered m-tuple at which some critical-stratum value is nonzero,
    as a plain index tuple, in lexicographic order."""
    if not 1 <= m <= f.n:
        raise ValueError(f"m must be in 1..{f.n}, got {m}")
    for idx in permutations(range(1, f.n + 1), m):
        if not _conjugates_vanish(f, idx):
            yield idx


def first_failing_tuple(f: PFunction, m: int) -> VariableTuple | None:
    """Lexicographically first ordered m-tuple at which some critical-stratum
    value is nonzero, or None when f is m-CI."""
    idx = next(failing_tuples(f, m), None)
    return None if idx is None else VariableTuple(idx)


def _rows_equal(f: PFunction, indices) -> bool:
    """True iff every row cm[w*p : w*p + p] of the joint counts over the
    variable set indices is the same, i.e. every ordering of indices passes
    _conjugates_vanish.

    An ordering passes iff the rows do not change when its top variable
    changes; when that holds for every variable of the set, single-coordinate
    changes connect all rows.
    """
    cm = _joint_counts(f, indices)
    return cm == cm[: f.p] * (len(cm) // f.p)


def is_ci(f: PFunction, m: int) -> bool:
    """Correlation immunity of order m, decided exactly.

    Every ordered m-tuple of distinct variables must have all p-1 conjugate
    spectral values zero, which is decided once per unordered m-subset by
    _rows_equal.  m = 0 is vacuously true: its only subset is empty.
    """
    if not 0 <= m <= f.n:
        raise ValueError(f"m must be in 0..{f.n}, got {m}")
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
    """Single-tuple shortcut valid for symmetric f: permuting variables
    fixes f, so the identity tuple stands in for all of them (the conjugate
    orbit there must still vanish in full).  Raises on non-symmetric input
    rather than silently answering the wrong question."""
    if not is_symmetric(f):
        raise ValueError("f is not symmetric; use is_ci")
    if not 1 <= m <= f.n:
        raise ValueError(f"m must be in 1..{f.n}, got {m}")
    return _conjugates_vanish(f, tuple(range(1, m + 1)))


def ci_order_symmetric(f: PFunction) -> int:
    """ci_order via the symmetric shortcut (one tuple per order)."""
    if not is_symmetric(f):
        raise ValueError("f is not symmetric; use ci_order")
    m = 0
    while m < f.n:
        if not _conjugates_vanish(f, tuple(range(1, m + 2))):
            break
        m += 1
    return m


def first_unbalanced_restriction(f: PFunction, m: int):
    """First witness against m-resiliency, or None.

    Scans unordered m-subsets in lexicographic order, then assignments in
    base-p index order; returns (subset, assignment, output_counts) for the
    first restriction whose p output counts are not all equal.  m = 0 tests
    f itself for balance.
    """
    if not 0 <= m <= f.n:
        raise ValueError(f"m must be in 0..{f.n}, got {m}")
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

def _check_size(f: PFunction, size_limit):
    if size_limit is not None and f.size > size_limit:
        raise SizeLimitError(
            f"p^n = {f.size} exceeds the size limit {size_limit}"
        )


def _omega_sequence(f: PFunction) -> np.ndarray:
    return np.exp(2j * np.pi / f.p * np.asarray(f.table, dtype=np.float64))


def dft_float(f: PFunction, size_limit: int | None = DEFAULT_SIZE_LIMIT) -> np.ndarray:
    """dft[j] = sum_k omega^f(k) * exp(-2*pi*i*k*j/N), j = 0..N-1.

    Direct per-frequency summation up to N = 4096 (each twiddle computed
    from the exact residue k*j mod N); numpy's FFT above that, as a
    performance path cross-checked against the direct sum in tests.
    """
    _check_size(f, size_limit)
    w = _omega_sequence(f)
    N = f.size
    if N <= _DIRECT_DFT_MAX:
        k = np.arange(N, dtype=np.int64)
        root = np.exp(-2j * np.pi / N * np.arange(N, dtype=np.float64))
        out = np.empty(N, dtype=np.complex128)
        for j in range(N):
            out[j] = w @ root[(k * j) % N]
        return out
    return np.fft.fft(w)


def inverse_dft_float(spectrum) -> np.ndarray:
    """Inverse of dft_float: recovers the sequence omega^f(k)."""
    return np.fft.ifft(np.asarray(spectrum, dtype=np.complex128))


def autocorrelation(f: PFunction, size_limit: int | None = DEFAULT_SIZE_LIMIT) -> np.ndarray:
    """C[t] = sum_k omega^(f(k+t) - f(k)), index addition mod N.

    Computed straight from the definition up to N = 4096, so that the
    DFT-pair identity |dft[j]|^2 = DFT(C)[j] stays an actual test there;
    above that by Wiener-Khinchin, C = ifft(|fft(omega^f)|^2), in
    O(N log N) instead of O(N^2).  C[0] = N always.
    """
    _check_size(f, size_limit)
    w = _omega_sequence(f)
    N = f.size
    if N > _DIRECT_DFT_MAX:
        return np.fft.ifft(np.abs(np.fft.fft(w)) ** 2)
    out = np.empty(N, dtype=np.complex128)
    for t in range(N):
        out[t] = np.vdot(w, np.roll(w, -t))
    return out


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
    def compute(cls, f: PFunction, size_limit: int | None = DEFAULT_SIZE_LIMIT) -> "SpectrumDump":
        return cls(
            f.p,
            f.n,
            tuple(complex(z) for z in dft_float(f, size_limit)),
            tuple(complex(z) for z in autocorrelation(f, size_limit)),
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

    @classmethod
    def from_json(cls, text: str) -> "SpectrumDump":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad spectrum JSON: {e}") from None
        try:
            return cls(
                int(obj["p"]),
                int(obj["n"]),
                tuple(complex(re, im) for re, im in obj["dft"]),
                tuple(complex(re, im) for re, im in obj["autocorrelation"]),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"bad spectrum JSON structure: {e!r}") from None
