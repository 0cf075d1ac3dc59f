"""Chern-class bookkeeping for sheaves on projective 3-space.

Characters, duals, twists, and the Euler characteristic chi(F(m)).  Two
independent routes compute chi: a termwise transcription of the closed-form
cubic in the twist, and the Chow-ring pairing of the character with the Todd
class.  The duplication is deliberate; the test suite and the verification
checklist insist the two routes coincide.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .chowring import ChowClass, exp_line, mul, todd_p3
from .errors import MAX_DIGITS, MAX_INT, DomainError, NonIntegralChernClass, NonIntegralChi, RankUnsupported, Record, _integers, _twist

#: Expansion constants of the closed-form chi cubic.  They mirror the Todd
#: coefficients used by the ring route but are kept as an independent
#: transcription so the two routes can cross-check each other.
CHI_CUBIC_T1 = Fraction(2)
CHI_CUBIC_T2 = Fraction(11, 6)
CHI_CUBIC_T3 = Fraction(1)

#: chi(F tensor F-dual) for a rank-3 bundle, as weights of (c1^2, c2, 1).
CHI_END_COEFFS = (4, -12, 9)


class ChernData(Record):
    """Integer Chern classes (c1, c2, c3) of a sheaf of the given rank."""

    def __init__(self, rank: int, c1: int, c2: int, c3: int) -> None:
        if not (
            type(rank) is type(c1) is type(c2) is type(c3) is int
            and abs(rank) <= MAX_INT and abs(c1) <= MAX_INT
            and abs(c2) <= MAX_INT and abs(c3) <= MAX_INT
        ):
            rank, c1, c2, c3 = _integers((rank, c1, c2, c3), "rank and Chern classes")
        if rank < 1:
            raise DomainError(f"rank must be a positive integer, got {rank}")
        self._set(rank, c1, c2, c3)


class ChiPolynomial(Record):
    """chi(F(m)) as an exact cubic in the twist m, coefficients ascending."""

    def __init__(self, coeffs: tuple[Fraction, Fraction, Fraction, Fraction]) -> None:
        try:
            a0, a1, a2, a3 = coeffs
            self._set((Fraction(a0), Fraction(a1), Fraction(a2), Fraction(a3)))
        except (TypeError, ValueError, ArithmeticError):  # also a non-iterable, or not four coefficients
            raise DomainError("a chi polynomial needs exactly four rational coefficients") from None

    def __call__(self, m: int) -> Fraction:
        m = _twist(m, "m")
        # Integer Horner over the common denominator: one Fraction, not six.
        den = math.lcm(*(c.denominator for c in self.coeffs))
        n0, n1, n2, n3 = (c.numerator * (den // c.denominator) for c in self.coeffs)
        return Fraction(((n3 * m + n2) * m + n1) * m + n0, den)


def _shown(value: Fraction) -> str:
    """``value`` for a message, unless a part passes MAX_INT: Python may refuse to print such an int."""
    return str(value) if max(abs(value.numerator), value.denominator) <= MAX_INT else f"(more than {MAX_DIGITS} digits)"


def _as_int(value: Fraction, exc_type: type, what: str) -> int:
    if value.denominator != 1:
        raise exc_type(f"{what} is not an integer: {_shown(value)}")
    return int(value)


def chern_character(d: ChernData) -> ChowClass:
    """rank + c1*H + (c1^2 - 2c2)/2 * H^2 + (c1^3 - 3c1c2 + 3c3)/6 * H^3."""
    c1, c2, c3 = d.c1, d.c2, d.c3
    return ChowClass(
        d.rank,
        c1,
        Fraction(c1 * c1 - 2 * c2, 2),
        Fraction(c1 ** 3 - 3 * c1 * c2 + 3 * c3, 6),
    )


def chern_from_character(x: ChowClass, rank: int) -> ChernData:
    """Invert chern_character; raises NonIntegralChernClass if no sheaf fits."""
    c1 = _as_int(x.a1, NonIntegralChernClass, "c1")
    c2 = _as_int(Fraction(c1 * c1, 2) - x.a2, NonIntegralChernClass, "c2")
    c3 = _as_int((6 * x.a3 - c1 ** 3 + 3 * c1 * c2) / 3, NonIntegralChernClass, "c3")
    d = ChernData(rank, c1, c2, c3)
    if x.a0 != d.rank:
        raise DomainError(f"degree-0 coefficient {_shown(x.a0)} does not match rank {d.rank}")
    return d


def dual(d: ChernData) -> ChernData:
    """Chern data of the dual sheaf: odd classes change sign."""
    return ChernData(d.rank, -d.c1, d.c2, -d.c3)


def twist(d: ChernData, k: int) -> ChernData:
    """Chern data of F(k), computed through the character.

    Twisting always lands back on integer classes.  Needs |k| <= MAX_TWIST;
    DomainError when a twisted class passes the MAX_DIGITS cap.
    """
    return chern_from_character(mul(chern_character(d), exp_line(_twist(k, "k"))), d.rank)


def chi_numerators(d: ChernData) -> tuple[tuple[int, int, int, int], int]:
    """The ring-route chi cubic as integers: chi(F(m)) = N(m) / D.

    One Chow-ring product y = ch(F) * td(P^3) gives every twist at once,
    because pairing with exp(mH) only reweights its components:

        chi(F(m)) = y3 + y2*m + y1*m^2/2 + y0*m^3/6

    Returns the ascending integer numerators N = (n0, n1, n2, n3) and the
    positive common denominator D, the lcm of the four coefficient
    denominators (a divisor of 6 for the Todd class of P^3).
    """
    y = mul(chern_character(d), todd_p3())
    coeffs = (y.a3, y.a2, y.a1 / 2, y.a0 / 6)
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


def chi_values(d: ChernData, twists: Iterable[int]) -> list[int]:
    """chi(F(m)) at each twist |m| <= MAX_TWIST from one ring product; NonIntegralChi at the first non-integer."""
    twists = [_twist(m, "m") for m in twists]
    (n0, n1, n2, n3), den = chi_numerators(d)
    values = []
    for m in twists:
        value = ((n3 * m + n2) * m + n1) * m + n0
        chi, rest = divmod(value, den)
        if rest:
            raise NonIntegralChi(f"chi at twist {m} is not an integer: {Fraction(value, den)}")
        values.append(chi)
    return values


def euler_characteristic(d: ChernData, m: int) -> int:
    """chi(F(m)) through the Chow ring: the cubic of chi_numerators at m."""
    return chi_values(d, (m,))[0]


def chi_polynomial(d: ChernData) -> ChiPolynomial:
    """The chi cubic, transcribed termwise from the closed form.

    This route deliberately avoids the Chow ring; it reuses only the
    character components.  The coefficients in the twist m are

        m^3: rank/6
        m^2: ch1/2 + T1*rank/2
        m^1: ch2 + T1*ch1 + T2*rank
        m^0: ch3 + T1*ch2 + T2*ch1 + T3*rank
    """
    r, x1, x2, x3 = chern_character(d).coeffs
    return ChiPolynomial(
        (
            x3 + CHI_CUBIC_T1 * x2 + CHI_CUBIC_T2 * x1 + CHI_CUBIC_T3 * r,
            x2 + CHI_CUBIC_T1 * x1 + CHI_CUBIC_T2 * r,
            x1 / 2 + CHI_CUBIC_T1 * r / 2,
            r / 6,
        )
    )


def chi_endomorphisms(d: ChernData) -> int:
    """chi(F tensor F-dual) for rank 3, through the Chow ring."""
    if d.rank != 3:
        raise RankUnsupported(f"endomorphism chi through the Chow ring needs rank 3, got {d.rank}")
    pairing = mul(mul(chern_character(d), chern_character(dual(d))), todd_p3())
    return _as_int(pairing.a3, NonIntegralChi, "chi of the endomorphism bundle")


def chi_endomorphisms_closed_form(d: ChernData) -> int:
    """The same quantity from the closed form 4*c1^2 - 12*c2 + 9."""
    if d.rank != 3:
        raise RankUnsupported(f"endomorphism chi closed form needs rank 3, got {d.rank}")
    a, b, c = CHI_END_COEFFS
    return a * d.c1 ** 2 + b * d.c2 + c


def validate_parity(d: ChernData) -> bool:
    """Whether c3 - c1*c2 is even; required of any rank-3 reflexive sheaf."""
    if d.rank != 3:
        raise RankUnsupported(f"parity constraint is rank-3 specific, got rank {d.rank}")
    return (d.c3 - d.c1 * d.c2) % 2 == 0


def _jsonable(value):
    """The one JSON rule: exact rationals as int or "p/q", ChernData as [rank, c1, c2, c3], other records by field."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, ChernData):
        return [value.rank, value.c1, value.c2, value.c3]
    if isinstance(value, ChowClass):
        return [_jsonable(c) for c in value.coeffs]
    if isinstance(value, Record):
        return {name: _jsonable(getattr(value, name)) for name in value._fields}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)
