"""Exact spectral tests for correlation-immune and resilient p-ary functions.

A function f: F_p^n -> F_p is correlation-immune of order m when its output
distribution is unchanged by conditioning on any m inputs, and m-resilient
when in addition it is balanced.  Both properties are decided here exactly,
through DFT values on the index stratum gcd(j, p^n) = p^(n-m) evaluated in
the cyclotomic ring Z[zeta_{p^m}] (a single value suffices only for p = 2),
and cross-checked by five independent counting/character-sum oracles.

Truth tables index the point (x_1, ..., x_n) by k = sum_i x_i * p^(i-1),
with x_1 the LEAST significant base-p digit of k.
"""

from .cyclotomic import CycloElement
from .ptable import (
    DEFAULT_SIZE_LIMIT,
    MAX_TABLE_ENTRIES,
    ParseError,
    PFunction,
    SizeLimitError,
    VariableTuple,
    apply_permutation,
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
from .reference import (
    CountMatrix,
    MethodReport,
    chrestenson_cyclic,
    chrestenson_linear,
    ci_oracle_definition,
    consensus,
    count_matrix,
    matrix_test,
)
from .spectral import (
    SpectrumDump,
    autocorrelation,
    ci_order,
    ci_order_symmetric,
    critical_index,
    dft_float,
    exact_spectrum_conjugates,
    first_failing_tuple,
    first_unbalanced_restriction,
    is_ci,
    resiliency_order,
)

__version__ = "0.1.0"

__all__ = [
    "CycloElement",
    "CountMatrix",
    "DEFAULT_SIZE_LIMIT",
    "MAX_TABLE_ENTRIES",
    "MethodReport",
    "ParseError",
    "PFunction",
    "SizeLimitError",
    "SpectrumDump",
    "VariableTuple",
    "apply_permutation",
    "autocorrelation",
    "chrestenson_cyclic",
    "chrestenson_linear",
    "ci_oracle_definition",
    "ci_order",
    "ci_order_symmetric",
    "consensus",
    "count_matrix",
    "critical_index",
    "dft_float",
    "digits_of",
    "exact_spectrum_conjugates",
    "first_failing_tuple",
    "first_unbalanced_restriction",
    "index_of",
    "is_balanced",
    "is_ci",
    "is_symmetric",
    "matrix_test",
    "parse_polynomial",
    "parse_terms",
    "random_function",
    "read_table",
    "resiliency_order",
    "write_table",
]
