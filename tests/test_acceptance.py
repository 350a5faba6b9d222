"""Acceptance gate: nine end-to-end checks, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  Checks 1
and 2 profile the six-monomial quadratic e2 over F_3^4, a symmetric
function that is first-order correlation-immune but not second-order: its
exact order-1 orbit vanishes, its order-2 value does not, and the whole
m = 1 float stratum (indices 27 and 54) is zero.  Check 1 certifies that
profile with the suite's own Fraction oracle as well as the library.  The
non-immune counterpart e2 + e3 (order-1 value 18, ci_order 0) is pinned in
test_spectral.py and test_reference.py; scripts/worked_example.py prints
both profiles side by side.
"""

import time

import numpy as np

from cispectra import (
    apply_permutation,
    critical_index,
    dft_float,
    exact_spectrum_conjugates,
    parse_polynomial,
    random_function,
)
from cispectra.reference import ci_oracle_definition, consensus
from cispectra.spectral import (
    _rows_equal,
    ci_order,
    ci_order_symmetric,
    first_unbalanced_restriction,
    is_ci,
    resiliency_order,
)

import helpers


def _report(i: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {i}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_acceptance_1_fixed_function_exact_profile():
    start = time.perf_counter()
    f = parse_polynomial(helpers.E2_POLY, 3, 4)
    v1 = exact_spectrum_conjugates(f, 1, (1,))[0]
    v2 = exact_spectrum_conjugates(f, 2, (1, 2))[0]
    order = ci_order(f)
    elapsed = time.perf_counter() - start
    oracle_ok = helpers.ci_by_fractions(f, 1) and not helpers.ci_by_fractions(f, 2)
    ok = v1.is_zero() and not v2.is_zero() and order == 1 and elapsed < 1.0 and oracle_ok
    line = _report(
        1,
        ok,
        f"six-monomial quadratic e2: order-1 exact value {v1.to_text()!r} "
        f"(expected zero), order-2 value zero={v2.is_zero()} (expected nonzero), "
        f"ci_order={order} (expected 1), {elapsed:.3f}s; Fraction oracle "
        f"1-CI and not 2-CI: {oracle_ok}",
    )
    assert ok, line


def test_acceptance_2_fixed_function_float_profile():
    start = time.perf_counter()
    f = parse_polynomial(helpers.E2_POLY, 3, 4)
    spec = dft_float(f)
    a27 = abs(spec[27])
    a54 = abs(spec[54])
    a9 = abs(spec[9])
    elapsed = time.perf_counter() - start
    ok = a27 < 1e-6 and a54 < 1e-6 and a9 > 1e-3 and elapsed < 1.0
    line = _report(
        2,
        ok,
        f"six-monomial quadratic e2: |dft[27]| = {a27:.6f}, |dft[54]| = {a54:.6f} "
        f"(m=1 stratum, expected < 1e-06), |dft[9]| = {a9:.6f} "
        f"(expected > 1e-03), {elapsed:.3f}s",
    )
    assert ok, line


def test_acceptance_3_six_way_exhaustive_consensus():
    start = time.perf_counter()
    disagreements = 0
    checked = 0
    for p, n, orders in [(2, 3, (1, 2, 3)), (3, 2, (1, 2))]:
        for f in helpers.all_functions(p, n):
            checked += 1
            for m in orders:
                if not consensus(f, m).consensus:
                    disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 60.0
    line = _report(
        3,
        ok,
        f"{checked} functions (256 at p=2,n=3 and 19683 at p=3,n=2), "
        f"{disagreements} six-method disagreements, {elapsed:.1f}s (budget 60s)",
    )
    assert ok, line


def test_acceptance_4_randomized_spectral_vs_counting():
    start = time.perf_counter()
    mismatches = 0
    for seed in range(500):
        f = random_function(3, 4, seed=seed)
        for m in range(1, 5):
            if is_ci(f, m) != ci_oracle_definition(f, m):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    line = _report(
        4,
        ok,
        f"500 seeded random functions at p=3,n=4, all orders 1..4: "
        f"{mismatches} spectral/counting mismatches, {elapsed:.1f}s (budget 120s)",
    )
    assert ok, line


def test_acceptance_5_linear_function_resiliency():
    start = time.perf_counter()
    failures = []
    for p, n in [(2, 4), (3, 4), (5, 3)]:
        f = parse_polynomial(" + ".join(f"x{i}" for i in range(1, n + 1)), p, n)
        lib_ok = (
            resiliency_order(f) == n - 1 and first_unbalanced_restriction(f, n - 1) is None
        )
        oracle_ok = helpers.resilient_by_counting(f, n - 1)
        top_out = first_unbalanced_restriction(f, n) is not None
        if not (lib_ok and oracle_ok and top_out):
            failures.append((p, n))
    elapsed = time.perf_counter() - start
    ok = not failures
    line = _report(
        5,
        ok,
        f"x1+...+xn is (n-1)-resilient by both the restriction test and the "
        f"counting oracle at (2,4),(3,4),(5,3); failures={failures}, {elapsed:.2f}s",
    )
    assert ok, line


def test_acceptance_6_autocorrelation_dft_pair():
    start = time.perf_counter()
    worst_pair = 0.0
    worst_parseval = 0.0
    for seed in range(50):
        f = random_function(3, 4, seed=1000 + seed)
        spec = dft_float(f)
        power = np.abs(spec) ** 2
        # the direct per-shift sum: the library's autocorrelation is
        # ifft(|dft|^2), whose DFT would match by construction
        pair = np.fft.fft(helpers.autocorrelation_direct(f))
        pair_err = np.max(np.abs(pair - power)) / power.max()
        parseval_err = abs(power.sum() - f.size**2) / f.size**2
        worst_pair = max(worst_pair, pair_err)
        worst_parseval = max(worst_parseval, parseval_err)
    elapsed = time.perf_counter() - start
    ok = worst_pair < 1e-6 and worst_parseval < 1e-6
    line = _report(
        6,
        ok,
        f"50 random functions at p=3,n=4: DFT(autocorrelation) vs |dft|^2 "
        f"relative error {worst_pair:.2e}, Parseval relative error "
        f"{worst_parseval:.2e} (both < 1e-06), {elapsed:.2f}s",
    )
    assert ok, line


def test_acceptance_7_tuple_reduction_vs_full_permutations():
    import random as pyrandom

    start = time.perf_counter()
    rng = pyrandom.Random(9001)
    mismatches = 0
    value_gaps = 0
    trials = 0
    for p, n in [(2, 5), (3, 3)]:
        for _ in range(100):
            trials += 1
            f = random_function(p, n, seed=rng.randrange(10**6))
            m = rng.randrange(1, n + 1)
            base = critical_index(f, m)
            for _ in range(50):
                mapping = list(range(1, n + 1))
                rng.shuffle(mapping)
                # the variables the permutation sends to positions 1..m
                t = tuple(mapping.index(r) + 1 for r in range(1, m + 1))
                exact = exact_spectrum_conjugates(f, m, t)[0]
                z = dft_float(apply_permutation(f, mapping))[base]
                if abs(exact.to_complex() - z) > 1e-6:
                    value_gaps += 1
                if exact.is_zero() != (abs(z) <= 1e-6 * f.size):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and value_gaps == 0
    line = _report(
        7,
        ok,
        f"{trials} random (f, m) pairs x 50 full permutations at (2,5) and (3,3): "
        f"tuple value vs permuted-function float value, {value_gaps} numeric gaps "
        f"> 1e-06, {mismatches} zero-classification mismatches, {elapsed:.1f}s",
    )
    assert ok, line


def test_acceptance_8_symmetric_shortcut():
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for f in helpers.all_symmetric_functions(2, 4):
        checked += 1
        for m in range(1, 5):
            if _rows_equal(f, tuple(range(1, m + 1))) != is_ci(f, m):
                mismatches += 1
        if ci_order_symmetric(f) != ci_order(f):
            mismatches += 1
    for seed in range(100):
        f = helpers.random_symmetric_function(3, 4, seed)
        checked += 1
        for m in range(1, 5):
            if _rows_equal(f, tuple(range(1, m + 1))) != is_ci(f, m):
                mismatches += 1
        if ci_order_symmetric(f) != ci_order(f):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0
    line = _report(
        8,
        ok,
        f"{checked} symmetric functions (all 32 at p=2,n=4 plus 100 random at "
        f"p=3,n=4): single-tuple shortcut vs full tuple scan, {mismatches} "
        f"mismatches, {elapsed:.2f}s",
    )
    assert ok, line


def test_acceptance_9_performance_smoke():
    f = random_function(3, 6, seed=2026)
    start = time.perf_counter()
    order = ci_order(f)
    elapsed = time.perf_counter() - start
    agrees = is_ci(f, 1) == ci_oracle_definition(f, 1) if f.n >= 1 else True
    ok = elapsed < 5.0 and agrees
    line = _report(
        9,
        ok,
        f"ci_order of a random 729-entry function = {order} in {elapsed:.3f}s "
        f"(budget 5s), order-1 verdict cross-checked against counting",
    )
    assert ok, line
