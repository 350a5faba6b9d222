"""Exact arithmetic in Z[zeta] for zeta a primitive p^m-th root of unity.

The power basis is 1, zeta, ..., zeta^(phi-1) with phi = p^m - p^(m-1);
higher powers are rewritten through the minimal polynomial
sum_j zeta^(j*p^(m-1)) = 0 (j = 0..p-1).
"""

import cmath
import random

import pytest

from cispectra import CycloElement, cyclotomic


def _phi(p, m):
    return p**m - p ** (m - 1)


def _small_primes(limit):
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for q in range(2, limit + 1):
        if sieve[q]:
            for r in range(q * q, limit + 1, q):
                sieve[r] = False
    return [q for q, ok in enumerate(sieve) if ok]


RINGS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]


def _random_element(rng, p, m):
    return CycloElement(p, m, tuple(rng.randrange(-9, 10) for _ in range(_phi(p, m))))


def _root(p, m, e):
    """zeta^e, 0 <= e < p^m, reduced from a one-hot count vector."""
    counts = [0] * p**m
    counts[e] = 1
    return CycloElement.from_root_counts(p, m, counts)


# ---------------------------------------------------------------------------
# Construction and reduction
# ---------------------------------------------------------------------------

def test_root_power_pinned_coordinates():
    # zeta = -1 when p^m = 2
    assert _root(2, 1, 1).coeffs == (-1,)
    # i^2 = -1 in Z[i]: basis 1, zeta
    assert _root(2, 2, 2).coeffs == (-1, 0)
    # omega^2 = -1 - omega for p = 3
    assert _root(3, 1, 2).coeffs == (-1, -1)
    # zeta^3 = -zeta since zeta^2 = -1
    assert _root(2, 2, 3).coeffs == (0, -1)
    assert _root(3, 2, 1).coeffs == (0, 1, 0, 0, 0, 0)


def test_element_validation():
    with pytest.raises(ValueError, match="p must be prime"):
        CycloElement(4, 1, (0, 0, 0))
    # a composite p with the wrong count: the message names the count
    # p^(m-1) * (p - 1), and calls it nothing it is not
    with pytest.raises(ValueError, match=r"= 4\^0 \* 3 coordinates, got 2"):
        CycloElement(4, 1, (0, 0))
    with pytest.raises(ValueError):
        CycloElement(3, 0, ())
    with pytest.raises(ValueError):
        CycloElement(3, 1, (0,))  # phi(3) = 2
    with pytest.raises(ValueError):
        CycloElement(3, 2, (0,) * 9)  # counts length, not coordinate length


def test_element_checks_the_count_before_large_arithmetic(monkeypatch):
    # phi(2^(10^8)) is never built, and 10^14 + 31 is never trial-divided
    def no_primality_test(p):
        raise AssertionError("primality was tested before the coordinate count")

    monkeypatch.setattr(cyclotomic, "_is_prime", no_primality_test)
    for p, m in [(2, 10**8), (10**14 + 31, 1)]:
        with pytest.raises(ValueError, match="coordinates, got 0"):
            CycloElement(p, m, ())


def test_from_root_counts_validates_length():
    with pytest.raises(ValueError):
        CycloElement.from_root_counts(3, 1, (1, 2))
    with pytest.raises(ValueError, match="m must be >= 1"):
        CycloElement.from_root_counts(3, 0, (1,))
    # p^(10^8) is never built: the message names p and m
    with pytest.raises(ValueError, match=r"need p\^m = 2\^100000000 counts, got 0"):
        CycloElement.from_root_counts(2, 10**8, ())


# ---------------------------------------------------------------------------
# The defining root relation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_root_relation_against_complex_exponentials(p, m):
    order = p**m
    for e in range(order):
        got = _root(p, m, e).to_complex()
        want = cmath.exp(2j * cmath.pi * e / order)
        assert abs(got - want) < 1e-9


def test_full_geometric_sum_reduces_to_exact_zero():
    # sum of all p^m-th roots of unity must vanish identically, with no
    # floating point involved
    for p in _small_primes(256):
        m = 1
        while p**m <= 256:
            order = p**m
            total = CycloElement.from_root_counts(p, m, (1,) * order)
            assert total.is_zero(), (p, m)
            m += 1


def test_primitive_root_sum_not_confused_with_zero():
    # partial sums must not collapse: 1 + zeta over p^m = 9
    e = CycloElement.from_root_counts(3, 2, (1, 1, 0, 0, 0, 0, 0, 0, 0))
    assert not e.is_zero()
    assert e.coeffs == (1, 1, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# Basis soundness: reduced coordinates never misreport zero
# ---------------------------------------------------------------------------

def test_nonzero_vectors_have_nonzero_complex_image():
    rng = random.Random(1729)
    for _ in range(1000):
        p, m = rng.choice(RINGS)
        e = _random_element(rng, p, m)
        if e.is_zero():
            continue
        assert abs(e.to_complex()) > 1e-9, e.to_text()


# ---------------------------------------------------------------------------
# Reduction: linear in the counts, true to the complex image
# ---------------------------------------------------------------------------

def test_from_root_counts_is_linear():
    rng = random.Random(7)
    for _ in range(200):
        p, m = rng.choice(RINGS)
        order = p**m
        u = [rng.randrange(0, 20) for _ in range(order)]
        v = [rng.randrange(0, 20) for _ in range(order)]
        cu, cv = (CycloElement.from_root_counts(p, m, w).coeffs for w in (u, v))
        both = CycloElement.from_root_counts(p, m, [a + b for a, b in zip(u, v)])
        assert both.coeffs == tuple(a + b for a, b in zip(cu, cv))


def test_from_root_counts_complex_image():
    rng = random.Random(13)
    for _ in range(100):
        p, m = rng.choice(RINGS)
        order = p**m
        counts = [rng.randrange(0, 10) for _ in range(order)]
        e = CycloElement.from_root_counts(p, m, counts)
        want = sum(c * cmath.exp(2j * cmath.pi * w / order) for w, c in enumerate(counts))
        assert abs(e.to_complex() - want) < 1e-9


# ---------------------------------------------------------------------------
# Debug text
# ---------------------------------------------------------------------------

def test_to_text_pinned():
    assert CycloElement(3, 1, (18, 0)).to_text() == "3 1 : 18 0"
    assert CycloElement(5, 2, (1,) + (0,) * 18 + (-2,)).to_text() == (
        "5 2 : 1" + " 0" * 18 + " -2"
    )
