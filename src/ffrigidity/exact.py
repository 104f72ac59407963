"""Exact arithmetic for quantities of the form a * sqrt(n).

The near-extremality parameter and the richness threshold derived from
it involve a single square root (of q**(d-1) times the configuration
sizes).  Storing them as a rational coefficient together with an
integer radicand lets every threshold comparison against integer counts
be decided exactly, with no floating-point acceptance flakiness.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, isqrt


class SqrtRational:
    """The real number coef * sqrt(radicand), stored exactly.

    coef is a Fraction and radicand a non-negative integer.  The value
    zero is normalized to coef 0, radicand 1.
    """

    __slots__ = ("coef", "radicand")

    def __init__(self, coef, radicand: int = 1):
        coef = Fraction(coef)
        if radicand < 0:
            raise ValueError("radicand must be non-negative")
        if coef == 0 or radicand == 0:
            coef, radicand = Fraction(0), 1
        self.coef = coef
        self.radicand = int(radicand)

    @classmethod
    def zero(cls) -> "SqrtRational":
        return cls(0, 1)

    def is_zero(self) -> bool:
        return self.coef == 0

    def sign(self) -> int:
        if self.coef > 0:
            return 1
        if self.coef < 0:
            return -1
        return 0

    def __float__(self) -> float:
        return float(self.coef) * float(self.radicand) ** 0.5

    def __mul__(self, other):
        if isinstance(other, SqrtRational):
            return SqrtRational(self.coef * other.coef,
                                self.radicand * other.radicand)
        return SqrtRational(self.coef * Fraction(other), self.radicand)

    __rmul__ = __mul__

    def _cmp(self, other) -> int:
        """-1, 0 or 1 comparing self with other, decided exactly."""
        if not isinstance(other, SqrtRational):
            other = SqrtRational(Fraction(other), 1)
        sa, sb = self.sign(), other.sign()
        if sa != sb:
            return -1 if sa < sb else 1
        if sa == 0:
            return 0
        # same nonzero sign: compare squares, flipping for negatives
        left = self.coef * self.coef * self.radicand
        right = other.coef * other.coef * other.radicand
        if left == right:
            return 0
        out = -1 if left < right else 1
        return out if sa > 0 else -out

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash((self.coef * self.coef * self.radicand, self.sign()))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def ceil(self) -> int:
        """Smallest integer >= self, computed exactly."""
        if self.coef < 0:
            return -SqrtRational(-self.coef, self.radicand).floor()
        if self.coef == 0:
            return 0
        # self = (p/s) * sqrt(n): want the least t with t*s >= sqrt(p*p*n)
        p, s = self.coef.numerator, self.coef.denominator
        m = p * p * self.radicand
        t = isqrt(m) // s
        while t * t * s * s < m:
            t += 1
        return t

    def floor(self) -> int:
        c = self.ceil()
        return c if self._cmp(c) == 0 else c - 1

    def __repr__(self):
        if self.radicand == 1:
            return f"SqrtRational({self.coef})"
        return f"SqrtRational({self.coef}, sqrt {self.radicand})"


def count_cutoff(threshold) -> int:
    """Least integer at least `threshold` (an int, a Fraction or a
    SqrtRational).  An integer count meets the threshold exactly when it
    is at least this cutoff, so a loop over counts compares integers
    instead of deciding each comparison exactly."""
    if isinstance(threshold, SqrtRational):
        return threshold.ceil()
    return ceil(Fraction(threshold))
