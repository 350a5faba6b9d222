"""Exact integer arithmetic in Z[zeta], zeta a primitive p^m-th root of unity.

An element is stored by its coordinates over the power basis
{1, zeta, ..., zeta^(phi-1)} with phi = p^m - p^(m-1).  Powers at or above
phi are rewritten with the single relation obeyed by zeta,

    zeta^((p-1)*p^(m-1) + r) = -(zeta^r + zeta^(p^(m-1)+r) + ... + zeta^((p-2)*p^(m-1)+r))

for 0 <= r < p^(m-1).  Over this basis the coordinates of an element are
unique, so a sum of roots of unity is zero exactly when every stored
coordinate is zero.  No floating point is involved anywhere; to_complex is a
one-way debugging aid.

No ring arithmetic is provided.  Elements are built by from_root_counts
(or from stored coordinates) and are only tested for zero, printed or
evaluated; the spectral tests never combine two elements, and leaving the
arithmetic out keeps the class honest about what has been verified.

to_text writes the debug text "p m : c0 c1 ... c_(phi-1)"; it is output
only, and nothing reads it back.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

from .ptable import _is_prime


def _phi_upto(p: int, m: int, limit: int) -> int | None:
    """Euler phi of p^m, p^(m-1) * (p - 1), the rank of Z[zeta] as a
    Z-module; None once p^(m-1) passes limit, so that no power much larger
    than limit is built.  m >= 1 and p >= 2 are checked first; primality is
    left to the caller, since it can be large work."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if p < 2:
        raise ValueError(f"p must be prime, got {p}")
    block = 1
    for _ in range(m - 1):
        block *= p
        if block > limit:
            return None
    return block * (p - 1)


@dataclass(frozen=True)
class CycloElement:
    """An element of Z[zeta_{p^m}] in reduced power-basis coordinates."""

    p: int
    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(int, self.coeffs)))
        p, m, count = self.p, self.m, len(self.coeffs)
        # the message names p and m, not phi, which may be huge
        if _phi_upto(p, m, count) != count:
            raise ValueError(f"need p^(m-1) * (p - 1) = {p}^{m - 1} * {p - 1} coordinates, got {count}")
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")

    @classmethod
    def from_root_counts(cls, p: int, m: int, counts: Sequence[int]) -> "CycloElement":
        """Reduce sum_w counts[w] * zeta^w, counts indexed by w = 0..p^m - 1."""
        phi = _phi_upto(p, m, len(counts))
        if phi is None or phi + phi // (p - 1) != len(counts):
            raise ValueError(f"need p^m = {p}^{m} counts, got {len(counts)}")
        block = phi // (p - 1)
        order = phi + block
        coeffs = list(counts[:phi])
        for w in range(phi, order):
            c = counts[w]
            if c == 0:
                continue
            r = w - phi
            for j in range(p - 1):
                coeffs[j * block + r] -= c
        return cls(p, m, tuple(coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_complex(self) -> complex:
        """Numeric image under zeta -> exp(2*pi*i/p^m).  Debugging only."""
        order = self.p**self.m
        return sum(
            c * cmath.exp(2j * cmath.pi * w / order)
            for w, c in enumerate(self.coeffs)
            if c != 0
        ) + 0j

    def to_text(self) -> str:
        return f"{self.p} {self.m} : {' '.join(str(c) for c in self.coeffs)}"

