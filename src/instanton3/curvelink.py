"""Numerical dictionary between rank-3 bundles on P^3 and space curves.

The correspondence is bookkeeping only: a bundle with classes (c1, c2, c3)
matches a curve of degree d = c2 whose genus solves

    c3 - 4*c2 + c1*c2 = 2g - 2.

The relation alone decides whether an integer genus exists; the claim
``parity-genus-consistency`` compares that with the parity of c3 - c1*c2.
No curve is ever constructed: pairs (d, g) are formal invariants, checked
once, by ``CurveInvariants``.  The helpers around the dictionary cover the
section counts that drive the charge-2 construction: the normal-bundle twist
degree of a rational normal curve, the section threshold for producing a
sheaf from a curve, and the twist-1 section budget as a function of the
charge.
"""

from __future__ import annotations

from .binomials import binom3_poly
from .chern import ChernData, euler_characteristic
from .errors import MAX_INT, DomainError, ParityViolation, RankUnsupported, Record, _integers, _twist

#: Weights of (c3, c2, c1*c2) on the left side of "... = 2g - 2".
GENUS_RELATION = (1, -4, 1)

#: Each rank-1 summand of the normal bundle of the degree-(n+3) rational
#: curve has degree 2n + 5, and the determinant is twisted down by 3.
NORMAL_SUMMAND_DEGREE = (2, 5)
DET_TWIST = 3


class CurveInvariants(Record):
    """Degree d >= 1 and genus g of a space curve: the one check of both."""

    def __init__(self, d: int, g: int) -> None:
        if not (type(d) is type(g) is int and abs(d) <= MAX_INT and abs(g) <= MAX_INT):
            d, g = _integers((d, g), "curve degree and genus")
        if d < 1:
            raise DomainError(f"curve degree must be positive, got {d}")
        self._set(d, g)


def bundle_to_curve(d3: ChernData) -> CurveInvariants:
    """Invariants of the curve matching a rank-3 bundle: d = c2, genus from the relation."""
    if d3.rank != 3:
        raise RankUnsupported(f"the curve dictionary needs rank 3, got {d3.rank}")
    wc3, wc2, wc12 = GENUS_RELATION
    two_g = wc3 * d3.c3 + wc2 * d3.c2 + wc12 * d3.c1 * d3.c2 + 2
    if two_g % 2:
        raise ParityViolation(f"genus relation gave the odd value {two_g} for 2g")
    return CurveInvariants(d=d3.c2, g=two_g // 2)


def curve_to_bundle(cv: CurveInvariants, c1: int) -> ChernData:
    """Rank-3 Chern data matching a curve: c2 = d and c3 from the genus relation."""
    (c1,) = _integers((c1,), "c1")
    wc3, wc2, wc12 = GENUS_RELATION
    num = 2 * cv.g - 2 - wc2 * cv.d - wc12 * c1 * cv.d
    if num % wc3:
        raise ParityViolation(f"genus relation has no integer c3 for d={cv.d}, g={cv.g}, c1={c1}")
    return ChernData(3, c1, cv.d, num // wc3)


def rational_normal_twist_degree(n: int) -> int:
    """Degree of det(N)(-3) on the degree-(n+3) rational curve of charge n >= 2.

    The normal bundle splits as two summands of degree 2n + 5, so the
    determinant has degree 4n + 10; twisting by -3 subtracts 3(n + 3),
    leaving n + 1.
    """
    (n,) = _integers((n,), "charge")
    if n < 2:
        raise DomainError(f"the construction needs charge n >= 2, got {n}")
    slope, offset = NORMAL_SUMMAND_DEGREE
    det_degree = 2 * (slope * n + offset)
    return det_degree - DET_TWIST * (n + 3)


def generated_by_two_sections(deg: int) -> bool:
    """Whether a degree-``deg`` line bundle on P^1 is generated by two of its sections.

    Global generation needs deg >= 0 and two spanning sections need
    h^0 = deg + 1 >= 2, so the condition is deg >= 1.
    """
    (deg,) = _integers((deg,), "degree")
    return deg >= 1


def _ideal_chi(cv: CurveInvariants, t: int) -> int:
    # Unchecked: chi_curve_form passes t = m + c1, which c1 may carry past MAX_TWIST.
    return binom3_poly(t + 3) - (cv.d * t + 1 - cv.g)


def chi_ideal_sheaf(cv: CurveInvariants, t: int) -> int:
    """chi of the twisted ideal sheaf of the curve: C(t+3, 3) - (d*t + 1 - g), for |t| <= MAX_TWIST."""
    return _ideal_chi(cv, _twist(t, "t"))


def chi_curve_form(cv: CurveInvariants, c1: int, m: int) -> int:
    """chi(F(m)) for a rank-3 bundle presented through a curve of degree d, genus g:

        2*C(m+3, 3) + C(m+c1+3, 3) - (m+c1)*d - 1 + g

    on the signed cubic, so it agrees with the Riemann-Roch route at every
    twist.  Needs an integer c1 and |m| <= MAX_TWIST.
    """
    (c1,) = _integers((c1,), "c1")
    m = _twist(m, "m")
    return 2 * binom3_poly(m + 3) + _ideal_chi(cv, m + c1)


def thooft_threshold(rank: int) -> int:
    """Sections of F(1) needed to run the charge construction: rank - 1."""
    (rank,) = _integers((rank,), "rank")
    if rank < 2:
        raise DomainError(f"the section threshold needs rank >= 2, got {rank}")
    return rank - 1


def chi_f1_charge(n: int) -> int:
    """chi(F(1)) for the charge-n rank-3 type (c1, c2, c3) = (0, n, 0): equals 12 - 3n."""
    (n,) = _integers((n,), "charge")
    if n < 2:
        raise DomainError(f"charge must be at least 2, got {n}")
    return euler_characteristic(ChernData(3, 0, n, 0), 1)
