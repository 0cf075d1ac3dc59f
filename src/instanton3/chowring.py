"""Exact arithmetic in the rational Chow ring of projective 3-space.

The ring is Q[H]/(H^4): a class is a0 + a1*H + a2*H^2 + a3*H^3 with exact
rational coefficients, and every product truncates at degree 3.  No floating
point enters at any stage; all coefficients are ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, Record

#: Todd class of the tangent bundle of P^3: 1 + 2H + (11/6)H^2 + H^3.
#: Kept as a module-level constant so the consistency checklist can corrupt
#: it and confirm the chi computations really depend on it.
TODD_COEFFS = (Fraction(1), Fraction(2), Fraction(11, 6), Fraction(1))


class ChowClass(Record):
    """A degree-at-most-3 polynomial in the hyperplane class H."""

    def __init__(self, a0: Fraction, a1: Fraction, a2: Fraction, a3: Fraction) -> None:
        try:
            self._set(Fraction(a0), Fraction(a1), Fraction(a2), Fraction(a3))
        except (TypeError, ValueError, ArithmeticError):  # "x", None, inf, nan, "1/0"; never print the value
            raise DomainError("Chow class coefficients must be rational numbers") from None

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a0, self.a1, self.a2, self.a3)

    def scale(self, k) -> "ChowClass":
        try:
            k = Fraction(k)
        except (TypeError, ValueError, ArithmeticError):  # never print the value
            raise DomainError("a scale factor must be a rational number") from None
        return ChowClass(k * self.a0, k * self.a1, k * self.a2, k * self.a3)


def mul(x: ChowClass, y: ChowClass) -> ChowClass:
    """Product in Q[H]/(H^4): expand and drop every term of degree >= 4."""
    c = [Fraction(0)] * 4
    xs, ys = x.coeffs, y.coeffs
    for i in range(4):
        for j in range(4 - i):
            c[i + j] += xs[i] * ys[j]
    return ChowClass(*c)


def exp_line(k: int) -> ChowClass:
    """Chern character of the degree-k line bundle: exp(kH) truncated at H^3."""
    return ChowClass(1, k, Fraction(k * k, 2), Fraction(k ** 3, 6))


def todd_p3() -> ChowClass:
    """Todd class of P^3."""
    return ChowClass(*TODD_COEFFS)
