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


def _phi(p: int, m: int) -> int:
    """Euler phi of p^m, the rank of Z[zeta] as a Z-module."""
    return p**m - p ** (m - 1)


@dataclass(frozen=True)
class CycloElement:
    """An element of Z[zeta_{p^m}] in reduced power-basis coordinates."""

    p: int
    m: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if len(self.coeffs) != _phi(self.p, self.m):
            raise ValueError(
                f"need phi(p^m) = {_phi(self.p, self.m)} coordinates, got {len(self.coeffs)}"
            )

    @classmethod
    def from_root_counts(cls, p: int, m: int, counts: Sequence[int]) -> "CycloElement":
        """Reduce sum_w counts[w] * zeta^w, counts indexed by w = 0..p^m - 1."""
        order = p**m
        if len(counts) != order:
            raise ValueError(f"need p^m = {order} counts, got {len(counts)}")
        phi = _phi(p, m)
        block = p ** (m - 1)
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

