"""Independent characterizations of correlation immunity, used as oracles.

Five methods, each self-contained and exact (integer or Z[omega] arithmetic,
never a float probability):

  definition         p^m * #{x : f(x)=t, x_S=a} = #{x : f(x)=t} for every
                     m-subset S, assignment a, output t (the probabilistic
                     definition cleared of denominators)
  chrestenson_cyclic sum_x omega^(f(x) - c.x) = 0 for all 1 <= wt(c) <= m
  chrestenson_linear sum_x ((f(x)+a) mod p) * omega^(c.x) = 0 for all shifts
                     a in F_p and all 1 <= wt(c) <= m; here f+a means the
                     pointwise output shift
  matrix             for each c with 1 <= wt(c) <= m the p x p count matrix
                     entry(i,j) = #{x : c.x=i, f(x)=j} has identical rows
  orthogonal_array   each level set W_i = {x : f(x)=i} is an orthogonal
                     array of strength m: every m columns of W_i carry every
                     pattern exactly |W_i| / p^m times

consensus() runs these five plus the spectral test and reports agreement.
The point of the module is cross-validation: the oracles share only ptable
plumbing with the verdict path.  The definition oracle reads the same joint
counts as the spectral verdict, but from the per-point ptable._joint_counts
rather than the verdict's ptable._subset_counts, and tests them by its own
identity; the orthogonal-array oracle counts each level set itself.

The three Fourier-side oracles (chrestenson_cyclic, chrestenson_linear,
matrix) share count_matrix: for each c one pass over the table gives
M_c[d][v] = #{x : c.x = d, f(x) = v}, and each oracle folds M_c.  The cyclic
sum puts M_c[d][v] on omega^(v - d); the linear sum of the shift f + a puts
((v + a) mod p) * M_c[d][v] on omega^d (Xiao and Massey, IEEE Trans. IT
34(3), 1988; Camion, Carlet, Charpin and Sendrier, CRYPTO '91).

Both Chrestenson sums are kept unscaled (multiplied by p^n relative to the
normalized definitions); scaling cannot change zero-ness and staying in
integers keeps the oracle exact.

Batch forms: consensus_verdicts(tables, p, n, m) gives the six verdicts,
without witnesses, for every row of a (K, p^n) integer array of tables,
which it checks and converts to int64 once (ptable._batch_tables);
crosscheck runs it over its family chunk by chunk.  Every count comes from
one kernel, ptable._tally: one np.bincount of the key
(scale * table + digits) * K + k, all rows at once, which leaves the
counts table-minor: the K tables are the last, contiguous axis of every
tensor, and every fold reduces over short leading axes.  It builds the
output histogram once per call, shape (p, K), which is also the level-set
sizes |W_i|, and three kinds of count tensors:

  J_S  each m-subset's joint counts of (x_S, f(x)), shape (p, ..., p, K),
       axes 0..m-1 the digits of x_S and axis m the output
  M_c  each count matrix [d, v, k], c of weight 1..m, shape (p, p, K)
  W_S  each m-subset's level-major pattern counts [i, w, k], the pattern w
       of x_S over the level set W_i, shape (p, p^m, K)

Each method keeps its own criterion, an integer fold of one kind:

  spectral           spectral.stratum_vanishes: J_S changes along none of
                     its axes 0..m-1 (the _changes_along criterion)
  definition         p^m * J_S equals the output histogram
  chrestenson_cyclic the root counts of omega^(f(x) - c.x), folded from M_c,
                     reduce to zero as in from_root_counts: coordinate j
                     minus coordinate p-1
  chrestenson_linear the same on every shift a, by _shift_folds'
                     recurrence: shift 0's fold and each of the p-1 steps
                     from shift a-1 to shift a vanish, O(p^2) per matrix
  matrix             M_c has identical rows
  orthogonal_array   p^m divides every |W_i|, tested before any W_S is
                     built, and every count in W_S is |W_i| / p^m; the
                     method tallies W_S itself, level by level, rather than
                     reading J_S

Two plain loops build them: one over the m-subsets, where one packing of
the subset's digits feeds J_S and W_S, and one over the c-vectors, where
M_c feeds its three folds.  Each build is skipped once no row can still
pass the folds that read it.  No batch form calls ci_order, _rows_equal or
_row_transform, and no float decides a verdict.  int64 cannot overflow:
every count is at most p^n, every product (p^m * J_S, p * M_c, the shift-0
fold) at most p * p^n, and p^n is at most the 2^31 limit of
MAX_TABLE_ENTRIES.

A chunk holds _chunk_rows(p, n, m) tables, K * max(p^n, p^2, p^(m+1)) <=
CHUNK_CELLS = 2^14 and at least one, so no tally of more than one table
holds more cells.  The bound counts the per-table count tensor (p^2) and
joint or pattern counts (p^(m+1)), not only the table: at p = 97,
n = 1 a table is 97 cells and its count tensor 9,409, so a bound on
K * p^n alone would let one chunk's tensor reach 12 MB.

Witnesses: every test reports the lexicographically first failing object
(c-vector, (subset, assignment, output), or (value, subset, pattern)),
scanning c-vectors in plain tuple order and subsets/patterns in the order
itertools emits them.  consensus keeps each witness as its oracle returns
it; MethodReport.record converts them to JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, product

import numpy as np

from .cyclotomic import CycloElement
from .ptable import (
    PFunction,
    _batch_tables,
    _check_order,
    _joint_counts,
    _packed_digits,
    _tally,
    _weighted_digits,
    index_of,
)
from . import spectral

METHOD_NAMES = (
    "spectral",
    "definition",
    "chrestenson_cyclic",
    "chrestenson_linear",
    "matrix",
    "orthogonal_array",
)


def _weighted_vectors(p: int, n: int, m: int):
    """All c in F_p^n with 1 <= wt(c) <= m, in lexicographic tuple order."""
    for c in product(range(p), repeat=n):
        w = n - c.count(0)
        if 1 <= w <= m:
            yield c


# --------------------------------------------------------------------------
# Definition-based counting oracle
# --------------------------------------------------------------------------

def definition_witness(f: PFunction, m: int):
    """First (subset, assignment, output) violating the counting identity,
    or None; subsets lexicographic, assignments lexicographic as digit
    tuples, outputs increasing."""
    _check_order(f, m, 0)
    if m == 0:
        return None
    p = f.p
    total = _joint_counts(f, ())
    scale = p**m
    for subset in combinations(range(1, f.n + 1), m):
        cm = _joint_counts(f, subset)
        for assign in product(range(p), repeat=m):
            a = index_of(assign, p)  # packed like cm: assign[0] least significant
            for t in range(p):
                if scale * cm[a * p + t] != total[t]:
                    return (subset, assign, t)
    return None


def ci_oracle_definition(f: PFunction, m: int) -> bool:
    """Direct Definition-style check: output distribution unchanged by
    conditioning on any m variables; pure integer identity."""
    return definition_witness(f, m) is None


# --------------------------------------------------------------------------
# Count matrix and the Chrestenson spectra folded from it
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CountMatrix:
    """entries[i][j] = #{x : c.x = i and f(x) = j}; a p x p integer matrix.

    Rows of a CI function are identical for every c of weight 1..m; for any
    c != 0 each row sums to p^(n-1) (fiber size of a nonzero linear form).
    """

    c: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]

    def rows_identical(self) -> bool:
        return all(row == self.entries[0] for row in self.entries)


def count_matrix(f: PFunction, c) -> CountMatrix:
    """The one pass over the table behind the matrix and Chrestenson oracles."""
    if len(c) != f.n:
        raise ValueError(f"c has length {len(c)}, expected {f.n}")
    p = f.p
    c = tuple([int(v) % p for v in c])
    flat = [0] * (p * p)
    for d, v in zip(_weighted_digits(p, c), f.table):
        flat[d % p * p + v] += 1
    return CountMatrix(c, tuple([tuple(flat[i : i + p]) for i in range(0, p * p, p)]))


def _shift_folds(rows):
    """Root counts of sum_x ((f(x) + a) mod p) * omega^(c.x) for a = 0, 1,
    ..., p-1 in turn, read off the count matrix rows M_c[d][v].

    O(p^2) in all: (v + a) mod p = v + a - p*[v >= p - a], so shift a puts
    base[d] + a * rowsum[d] - p * wrapped[d] on omega^d, where base is the
    shift-0 fold sum_v v * M_c[d][v] and wrapped[d] counts the outputs
    v >= p - a in row d, growing by one column per shift.
    """
    p = len(rows)
    base = [sum(v * k for v, k in enumerate(row)) for row in rows]
    yield base
    sums = [sum(row) for row in rows]
    wrapped = [0] * p
    for a in range(1, p):
        wrapped = [w + row[p - a] for w, row in zip(wrapped, rows)]
        yield [b + a * t - p * w for b, t, w in zip(base, sums, wrapped)]


def chrestenson_cyclic(f: PFunction, c) -> CycloElement:
    """Unscaled cyclic spectrum value sum_x omega^(f(x) - c.x), in Z[omega].

    At p = 2 this is the classical Walsh-Hadamard sum sum_x (-1)^(f(x)+c.x).
    """
    p = f.p
    counts = [0] * p
    for d, row in enumerate(count_matrix(f, c).entries):
        for v, k in enumerate(row):
            counts[(v - d) % p] += k
    return CycloElement.from_root_counts(p, 1, counts)


def chrestenson_linear(f: PFunction, c) -> CycloElement:
    """Unscaled linear spectrum value sum_x f(x) * omega^(c.x); the output
    enters as an integer multiplier, not as an exponent."""
    return CycloElement.from_root_counts(f.p, 1, next(_shift_folds(count_matrix(f, c).entries)))


def chrestenson_cyclic_witness(f: PFunction, m: int):
    _check_order(f, m, 1)
    for c in _weighted_vectors(f.p, f.n, m):
        if not chrestenson_cyclic(f, c).is_zero():
            return c
    return None


def chrestenson_linear_witness(f: PFunction, m: int):
    """First failing (c, shift); all p output shifts of f must have vanishing
    linear spectrum on every c with 1 <= wt(c) <= m.  Every shift is folded
    from one count matrix per c (_shift_folds)."""
    _check_order(f, m, 1)
    p = f.p
    for c in _weighted_vectors(p, f.n, m):
        for a, counts in enumerate(_shift_folds(count_matrix(f, c).entries)):
            if not CycloElement.from_root_counts(p, 1, counts).is_zero():
                return (c, a)
    return None


def matrix_test(f: PFunction, m: int):
    """(verdict, witness): verdict true iff every count matrix for
    1 <= wt(c) <= m has identical rows; witness is the first failing matrix."""
    _check_order(f, m, 1)
    for c in _weighted_vectors(f.p, f.n, m):
        cm = count_matrix(f, c)
        if not cm.rows_identical():
            return (False, cm)
    return (True, None)


# --------------------------------------------------------------------------
# Orthogonal-array test
# --------------------------------------------------------------------------

def orthogonal_array_witness(f: PFunction, m: int):
    """First failure of the strength-m orthogonal-array property across the
    level sets W_i = {x : f(x) = i}.

    Returns None, or a dict with the level value and either the class size
    (when p^m does not divide |W_i|) or the first (subset, pattern, count,
    expected) mismatch.
    """
    _check_order(f, m, 1)
    p = f.p
    strength = p**m
    levels: list[list[int]] = [[] for _ in range(p)]
    for k, v in enumerate(f.table):
        levels[v].append(k)
    for i in range(p):
        b = len(levels[i])
        if b % strength != 0:
            return {"value": i, "class_size": b}
    # each subset is packed on first use and kept for the later levels
    packing = cache(lambda subset: _packed_digits(p, f.n, subset))
    for i in range(p):
        rows_k = levels[i]
        expected = len(rows_k) // strength
        for subset in combinations(range(1, f.n + 1), m):
            packed = packing(subset)
            counts = [0] * strength
            for k in rows_k:
                counts[packed[k]] += 1
            for pattern in product(range(p), repeat=m):
                a = index_of(pattern, p)
                if counts[a] != expected:
                    return {
                        "value": i,
                        "subset": subset,
                        "pattern": pattern,
                        "count": counts[a],
                        "expected": expected,
                    }
    return None


# --------------------------------------------------------------------------
# Consensus across all methods
# --------------------------------------------------------------------------

# The JSON value of each method's raw witness.
_WITNESS_JSON = {
    "spectral": lambda t: list(t.indices),
    "definition": lambda w: {"subset": w[0], "assignment": w[1], "output": w[2]},
    "chrestenson_cyclic": lambda c: {"c": c},
    "chrestenson_linear": lambda w: {"c": w[0], "shift": w[1]},
    "matrix": lambda cm: {"c": list(cm.c), "entries": [list(r) for r in cm.entries]},
    "orthogonal_array": lambda w: w,
}


@dataclass
class MethodReport:
    """Verdicts of all six methods for one (f, m) query, plus the raw
    witnesses of the failing ones, as their oracles return them.

    JSON schema: {"m": int, "verdicts": {name: bool, ...},
    "consensus": bool, "witnesses": {name: object, ...}} (witnesses key
    present only when non-empty); record() converts each witness.
    """

    m: int
    verdicts: dict[str, bool]
    witnesses: dict[str, object] = field(default_factory=dict)

    @property
    def consensus(self) -> bool:
        values = set(self.verdicts.values())
        return len(values) == 1

    def record(self) -> dict:
        """The JSON object of the schema above, which to_json prints."""
        obj = {"m": self.m, "verdicts": self.verdicts, "consensus": self.consensus}
        if self.witnesses:
            obj["witnesses"] = {k: _WITNESS_JSON[k](w) for k, w in self.witnesses.items()}
        return obj

    def to_json(self) -> str:
        return json.dumps(self.record())


def consensus(f: PFunction, m: int) -> MethodReport:
    """Run all six characterizations at order m and collect verdicts and
    failure witnesses."""
    _check_order(f, m, 1)
    # each oracle is looked up by name at call time, so one rebound on its
    # module (a tracer's wrapper, a test's spy) is the one that runs
    witnesses = {
        "spectral": spectral.first_failing_tuple(f, m),
        "definition": definition_witness(f, m),
        "chrestenson_cyclic": chrestenson_cyclic_witness(f, m),
        "chrestenson_linear": chrestenson_linear_witness(f, m),
        "matrix": matrix_test(f, m)[1],
        "orthogonal_array": orthogonal_array_witness(f, m),
    }
    verdicts = {k: w is None for k, w in witnesses.items()}
    return MethodReport(m, verdicts, {k: w for k, w in witnesses.items() if w is not None})


# --------------------------------------------------------------------------
# Batch forms: the six verdicts over a family of tables at once
# --------------------------------------------------------------------------

# A chunk of crosscheck's family holds at most this many cells of its
# largest per-table array: the table (p^n), a count tensor (p^2) or a
# joint-count list (p^(m+1)).  On perfbench crosscheck (2-CPU x86-64,
# Python 3.11, numpy 2.4, seeds 4 and 5) 2^14 ran 80 requests/s at 35.7-36.0
# MiB peak RSS; 2^16 ran 3-6% faster but reached 38.8-39.3 MiB, 14-16% over
# the 33.9 MiB of one consensus per function, and 2^12 ran 10% slower.
CHUNK_CELLS = 2**14


def _chunk_rows(p: int, n: int, m: int) -> int:
    """Tables per chunk at order m: CHUNK_CELLS over the largest per-table
    array, and at least one."""
    return max(1, CHUNK_CELLS // max(p**n, p * p, p ** (m + 1)))


def _uniform(counts: np.ndarray) -> np.ndarray:
    """Zero test of each element sum_j counts[j, .., k] * omega^j of
    Z[omega], over the first axis, for every table k of the last axis and
    every index between, by the reduction from_root_counts makes:
    coordinate j minus coordinate p-1 for j < p-1 must vanish."""
    return (counts[:-1] == counts[-1]).reshape(-1, counts.shape[-1]).all(axis=0)


def _cyclic_vanishes(cm: np.ndarray) -> np.ndarray:
    """chrestenson_cyclic(f, c).is_zero() for each count matrix of a
    (p, p, K) tensor: M[d][v] lands on omega^(v - d)."""
    p = len(cm)
    s, d = np.ogrid[:p, :p]
    return _uniform(cm[d, (s + d) % p].sum(axis=1))


def _linear_vanishes(cm: np.ndarray) -> np.ndarray:
    """chrestenson_linear_witness finds no shift failing at c, for each
    count matrix of a (p, p, K) tensor.  As in _shift_folds, shift 0 puts
    sum_v v * M[d][v] on omega^d and shift a adds rowsum[d] - p * M[d][p-a]
    to shift a-1; zero elements are closed under sums and differences, so
    every shift vanishes iff shift 0 and each of the p-1 steps does.  One
    [d, j, k] array holds shift 0 at j = 0 and the step through column j
    at j >= 1: O(p^2) per matrix."""
    p = len(cm)
    folds = cm.sum(axis=1, keepdims=True) - p * cm
    folds[:, 0] = np.arange(p) @ cm
    return _uniform(folds)


def _rows_identical(cm: np.ndarray) -> np.ndarray:
    """CountMatrix.rows_identical for each count matrix of a (p, p, K) tensor."""
    return (cm == cm[0]).all(axis=(0, 1))


def consensus_verdicts(tables: np.ndarray, p: int, n: int, m: int) -> dict[str, np.ndarray]:
    """The six verdicts of consensus(f, m) for every row f of a (K, p^n)
    integer array of tables: {name: K bools}, in METHOD_NAMES order.  No
    witness is found; crosscheck runs consensus on the tables it reports."""
    tables = _batch_tables(tables, p, n, m)
    k, strength = len(tables), p**m
    hist = _tally(tables, 1, 0, p)
    ok = {name: np.ones(k, dtype=bool) for name in METHOD_NAMES}
    # the histogram is also the level-set sizes |W_i|
    ok["orthogonal_array"] = (hist % strength == 0).all(axis=0)
    expected = (hist // strength)[:, None]
    # each fold is looked up by name at call time, as in consensus, and no
    # tensor is built once no row can still pass the folds that read it
    for subset in combinations(range(1, n + 1), m):
        joint = ok["spectral"].any() or ok["definition"].any()
        if not (joint or ok["orthogonal_array"].any()):
            break
        digits = np.array(_packed_digits(p, n, subset), dtype=np.int64)
        if joint:
            # axes 0..m-1 hold the digits of x_S, most significant (S's
            # last variable) first; axis m holds the output
            j = _tally(tables, 1, p * digits, p * strength).reshape((p,) * (m + 1) + (k,))
            ok["spectral"] &= spectral.stratum_vanishes(j)
            ok["definition"] &= (strength * j.reshape(-1, p, k) == hist).all(axis=(0, 1))
        if ok["orthogonal_array"].any():
            # level-major: [v, w, k] counts the pattern w of x_S over level set v
            w = _tally(tables, strength, digits, p * strength).reshape(p, strength, k)
            ok["orthogonal_array"] &= (w == expected).all(axis=(0, 1))
    for c in _weighted_vectors(p, n, m):
        if not (ok["chrestenson_cyclic"] | ok["chrestenson_linear"] | ok["matrix"]).any():
            break
        # M[d, v, k] = #{x : c.x = d, table k at x = v}
        d = np.array(_weighted_digits(p, c), dtype=np.int64) % p
        cm = _tally(tables, 1, p * d, p * p).reshape(p, p, k)
        ok["chrestenson_cyclic"] &= _cyclic_vanishes(cm)
        ok["chrestenson_linear"] &= _linear_vanishes(cm)
        ok["matrix"] &= _rows_identical(cm)
    return ok
