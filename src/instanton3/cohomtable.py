"""Cohomology-dimension tables under the natural-cohomology hypothesis.

A sheaf has natural cohomology when at most one h^i(F(t)) is nonzero for
each twist t.  Then the whole table is forced by the chi cubic: the index
starts at 3 for t far negative (the leading coefficient rank/6 is positive,
so chi goes to minus infinity), drops by one each time t passes a
sign-change root of the cubic, and the populated entry is |chi(t)|.  The
walk can only reach index 0 if the cubic has three sign-change roots, so
cubics with fewer are rejected.

The kernel works on the integer cubic N = D*chi of ``chi_numerators``,
built once per class.  Three sign-change roots means three simple real
roots, which is exactly a positive discriminant of N.  Then the critical
points interlace the roots, r1 < c1 < r2 < c2 < r3, and the sign of N and
one bracket per sign say which gap a twist lies in (critical-point form
of Thom's lemma, Basu, Pollack and Roy, *Algorithms in Real Algebraic
Geometry*, ch. 2).  With s = isqrt(n2^2 - 3*n1*n3) and m = 3*n3, set once:

    N < 0:  t <= lo = (-n2 - s - 1) // m (t < c1, below r1) -> 3, else -> 1
    N > 0:  t > hi = (s - n2) // m (t > c2, above r3)       -> 0, else -> 2

Everything is integer arithmetic: root positions are never approximated.
``cubics.CubicSignAnalysis`` answers the same questions with an exact Sturm
chain and serves as the independent oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Mapping

from .chern import ChernData, _jsonable, chern_from_character, chi_numerators, dual, validate_parity
from .chowring import ONE, add, exp_line
from .errors import MAX_TWIST, DomainError, MissingRows, NonIntegralChi, NotNaturalizable, ParityViolation, _integers, _twist

Row = tuple[int, int, int, int]


@dataclass(frozen=True)
class MonadType:
    """Shape of a three-term monad O(-1)^a -> O^b -> O(1)^c."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for name, value in zip("abc", _integers((self.a, self.b, self.c), "monad multiplicities")):
            object.__setattr__(self, name, value)
        if min(self.a, self.b, self.c) < 0:
            raise DomainError(f"monad multiplicities cannot be negative: {(self.a, self.b, self.c)}")
        if self.b - self.a - self.c < 1:
            raise DomainError(f"monad cohomology must have positive rank, got {self.b - self.a - self.c}")


def monad_chern(mt: MonadType) -> ChernData:
    """Chern data of the monad cohomology: ch = b - a*exp(-H) - c*exp(H)."""
    character = add(add(ONE.scale(mt.b), exp_line(-1).scale(-mt.a)), exp_line(1).scale(-mt.c))
    return chern_from_character(character, mt.b - mt.a - mt.c)


@dataclass(frozen=True, eq=True)
class CohomTable:
    """Rows (h^0, h^1, h^2, h^3) indexed by the twist."""

    chern: ChernData
    rows: Mapping[int, Row]

    def __hash__(self) -> int:
        return hash((self.chern, tuple(sorted(self.rows.items()))))

    def row(self, t: int) -> Row:
        if t not in self.rows:
            raise MissingRows(f"table for {self.chern} has no row at twist {t}")
        return self.rows[t]

    def to_json_dict(self) -> dict:
        return {
            "chern": _jsonable(self.chern),
            "rows": [{"t": t, "h": list(self.rows[t])} for t in sorted(self.rows)],
        }

    def to_text(self) -> str:
        ts = sorted(self.rows)
        header = ["t", "h0", "h1", "h2", "h3"]
        body = [[str(t), *[str(v) for v in self.rows[t]]] for t in ts]
        widths = [max(len(r[i]) for r in [header, *body]) for i in range(5)]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in [header, *body]]
        return "\n".join(lines)


def natural_table(d: ChernData, t_min: int, t_max: int) -> CohomTable:
    """The unique candidate table over [t_min, t_max], |t| <= MAX_TWIST, under natural cohomology.

    Raises ParityViolation for rank-3 classes with c3 - c1*c2 odd, and
    NotNaturalizable when the chi cubic has fewer than three sign-change
    roots: the index walk then cannot descend from the h^3 region to the
    h^0 region, so no sheaf-style table exists at all.
    """
    t_min, t_max = _twist(t_min, "t_min"), _twist(t_max, "t_max")
    if t_min > t_max:
        raise DomainError(f"empty twist window: t_min = {t_min} exceeds t_max = {t_max}")
    if d.rank == 3 and not validate_parity(d):
        raise ParityViolation(
            f"classes ({d.rank}, {d.c1}, {d.c2}, {d.c3}) violate the parity "
            "constraint c3 = c1*c2 mod 2"
        )
    (n0, n1, n2, n3), den = chi_numerators(d)
    disc = (
        18 * n3 * n2 * n1 * n0 - 4 * n2 ** 3 * n0 + n2 * n2 * n1 * n1
        - 4 * n3 * n1 ** 3 - 27 * n3 * n3 * n0 * n0
    )
    if disc <= 0:
        # A real cubic with a non-positive discriminant has one simple real
        # root, or a double root beside a simple one, or a triple root:
        # one sign change in every case.
        raise NotNaturalizable(
            f"chi cubic of {d} has 1 sign change(s); "
            "the index walk from h^3 to h^0 needs 3"
        )
    s, m = isqrt(n2 * n2 - 3 * n1 * n3), 3 * n3  # c1, c2 = (-n2 -+ sqrt(...)) / m
    lo, hi = (-n2 - s - 1) // m, (s - n2) // m  # t < c1 iff t <= lo; t > c2 iff t > hi
    rows: dict[int, Row] = {}
    for t in range(t_min, t_max + 1):
        n_t = ((n3 * t + n2) * t + n1) * t + n0
        chi, rest = divmod(n_t, den)
        if rest:
            raise NonIntegralChi(f"chi at twist {t} is not an integer: {Fraction(n_t, den)}")
        if n_t < 0:
            rows[t] = (0, 0, 0, -chi) if t <= lo else (0, -chi, 0, 0)
        else:
            rows[t] = (chi, 0, 0, 0) if t > hi else (0, 0, chi, 0)
    return CohomTable(chern=d, rows=rows)


def instanton_check(tbl: CohomTable) -> bool:
    """The four vanishings characterizing an instanton among natural tables:

    h^0(F(-1)) = h^1(F(-2)) = h^2(F(-2)) = h^3(F(-3)) = 0.
    """
    return (
        tbl.row(-1)[0] == 0
        and tbl.row(-2)[1] == 0
        and tbl.row(-2)[2] == 0
        and tbl.row(-3)[3] == 0
    )


def serre_symmetry_check(d: ChernData, t_min: int, t_max: int) -> bool:
    """Whether h^i(F(t)) = h^(3-i)(F-dual(-t-4)) holds across the whole range.

    Both ends need -MAX_TWIST <= t <= MAX_TWIST - 4 (-100..96), so the mirrored window fits too.
    """
    t_min, t_max = _twist(t_min, "t_min"), _twist(t_max, "t_max")
    for name, t in (("t_min", t_min), ("t_max", t_max)):
        if t > MAX_TWIST - 4:
            raise DomainError(f"{name} = {t} is out of range; Serre symmetry needs {name} <= {MAX_TWIST - 4}")
    left = natural_table(d, t_min, t_max)
    right = natural_table(dual(d), -t_max - 4, -t_min - 4)
    for t in range(t_min, t_max + 1):
        mirrored = right.rows[-t - 4]
        if any(left.rows[t][i] != mirrored[3 - i] for i in range(4)):
            return False
    return True
