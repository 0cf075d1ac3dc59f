"""Exact arithmetic in the rational Chow ring of projective 3-space.

The ring is Q[H]/(H^4): a class is a0 + a1*H + a2*H^2 + a3*H^3 with exact
rational coefficients, and every product truncates at degree 3.  No floating
point enters at any stage; all coefficients are ``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

#: Todd class of the tangent bundle of P^3: 1 + 2H + (11/6)H^2 + H^3.
#: Kept as a module-level constant so the consistency checklist can corrupt
#: it and confirm the chi computations really depend on it.
TODD_COEFFS = (Fraction(1), Fraction(2), Fraction(11, 6), Fraction(1))


@dataclass(frozen=True)
class ChowClass:
    """A degree-at-most-3 polynomial in the hyperplane class H."""

    a0: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction

    def __post_init__(self) -> None:
        for name in ("a0", "a1", "a2", "a3"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a0, self.a1, self.a2, self.a3)

    def scale(self, k) -> "ChowClass":
        k = Fraction(k)
        return ChowClass(k * self.a0, k * self.a1, k * self.a2, k * self.a3)


ONE = ChowClass(1, 0, 0, 0)


def add(x: ChowClass, y: ChowClass) -> ChowClass:
    """Componentwise sum."""
    return ChowClass(x.a0 + y.a0, x.a1 + y.a1, x.a2 + y.a2, x.a3 + y.a3)


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


def degree(x: ChowClass) -> Fraction:
    """The H^3 coefficient: the integral of the class over P^3."""
    return x.a3
