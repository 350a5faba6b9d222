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
counts (ptable._joint_counts) as the spectral verdict but tests them by its
own identity; the orthogonal-array oracle counts each level set itself.

The three Fourier-side oracles (chrestenson_cyclic, chrestenson_linear,
matrix) share count_matrix: for each c one pass over the table gives
M_c[d][v] = #{x : c.x = d, f(x) = v}, and each oracle folds M_c.  The cyclic
sum puts M_c[d][v] on omega^(v - d); the linear sum of the shift f + a puts
((v + a) mod p) * M_c[d][v] on omega^d (Xiao and Massey, IEEE Trans. IT
34(3), 1988; Camion, Carlet, Charpin and Sendrier, CRYPTO '91).

Both Chrestenson sums are kept unscaled (multiplied by p^n relative to the
normalized definitions); scaling cannot change zero-ness and staying in
integers keeps the oracle exact.

Witnesses: every test reports the lexicographically first failing object
(c-vector, (subset, assignment, output), or (value, subset, pattern)),
scanning c-vectors in plain tuple order and subsets/patterns in the order
itertools emits them.  consensus keeps each witness as its oracle returns
it; MethodReport.record converts them to JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, product

from .cyclotomic import CycloElement
from .ptable import (
    PFunction,
    _check_order,
    _joint_counts,
    _packed_digits,
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


def _linear_fold(cm: CountMatrix, a: int) -> CycloElement:
    """sum_x ((f(x) + a) mod p) * omega^(c.x), read off the count matrix."""
    p = len(cm.entries)
    counts = [sum((v + a) % p * k for v, k in enumerate(row)) for row in cm.entries]
    return CycloElement.from_root_counts(p, 1, counts)


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
    return _linear_fold(count_matrix(f, c), 0)


def chrestenson_cyclic_witness(f: PFunction, m: int):
    _check_order(f, m, 1)
    for c in _weighted_vectors(f.p, f.n, m):
        if not chrestenson_cyclic(f, c).is_zero():
            return c
    return None


def chrestenson_linear_witness(f: PFunction, m: int):
    """First failing (c, shift); all p output shifts of f must have vanishing
    linear spectrum on every c with 1 <= wt(c) <= m.  Every shift is folded
    from one count matrix per c."""
    _check_order(f, m, 1)
    for c in _weighted_vectors(f.p, f.n, m):
        cm = count_matrix(f, c)
        for a in range(f.p):
            if not _linear_fold(cm, a).is_zero():
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
    for i in range(p):
        rows_k = levels[i]
        expected = len(rows_k) // strength
        for subset in combinations(range(1, f.n + 1), m):
            packed = _packed_digits(p, f.n, subset)
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
