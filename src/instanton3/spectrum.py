"""Spectra of rank-3 sheaves on P^3.

A spectrum is a nondecreasing integer tuple (k_1, ..., k_n).  In the twist
ranges where the theory applies, h^1 and h^2 of twists of the sheaf reduce
to sums of line-bundle cohomology on P^1 taken over the spectrum entries.
Only that arithmetic is mechanized here; deeper admissibility constraints
on which tuples occur for actual sheaves are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import MAX_TWIST, DomainError, OutOfValidityRange, _integers

#: The shift applied to each spectrum entry inside both cohomology formulas:
#: the P^1 line-bundle degree read off at twist l is k_i + l + TWIST_SHIFT.
TWIST_SHIFT = 1

#: Ceiling on the enumeration search space: the C(2*bound + n, n) candidate
#: tuples of the whole box, counted before any tuple is built.
MAX_SEARCH_SPACE = 1_000_000


@dataclass(frozen=True)
class Spectrum:
    """A nondecreasing tuple of integers."""

    ks: tuple[int, ...]

    def __post_init__(self) -> None:
        ks = _integers(self.ks, "spectrum entries")
        object.__setattr__(self, "ks", ks)
        if any(a > b for a, b in zip(ks, ks[1:])):
            raise DomainError(f"spectrum entries must be nondecreasing, got {self.ks}")


@dataclass(frozen=True)
class SpectrumContext:
    """Validity data for the cohomology formulas.

    ``s`` is the correction term in the h^1 formula (zero for locally free
    sheaves), and ``a_low <= a_high`` bound the splitting type on a generic
    line: h^1 is covered for l <= -a_high - 1 and h^2 for l >= a_low - 3.
    """

    s: int = 0
    a_low: int = 0
    a_high: int = 0

    def __post_init__(self) -> None:
        if self.s < 0:
            raise DomainError(f"the h^1 correction term cannot be negative, got {self.s}")
        if self.a_low > self.a_high:
            raise DomainError(f"need a_low <= a_high, got {self.a_low} > {self.a_high}")


#: Locally free with generic splitting type (0, ..., 0).
BALANCED_BUNDLE = SpectrumContext()


def h0_p1(a: int) -> int:
    """h^0 of the degree-a line bundle on P^1."""
    return max(0, a + 1)


def h1_p1(a: int) -> int:
    """h^1 of the degree-a line bundle on P^1."""
    return max(0, -a - 1)


def h1_from_spectrum(sp: Spectrum, l: int, ctx: SpectrumContext = BALANCED_BUNDLE) -> int:
    """h^1(F(l)) predicted by the spectrum, valid for l <= -a_high - 1."""
    if l > -ctx.a_high - 1:
        raise OutOfValidityRange(f"h^1 formula covers l <= {-ctx.a_high - 1}, got l = {l}")
    return ctx.s + sum(h0_p1(k + l + TWIST_SHIFT) for k in sp.ks)


def h2_from_spectrum(sp: Spectrum, l: int, ctx: SpectrumContext = BALANCED_BUNDLE) -> int:
    """h^2(F(l)) predicted by the spectrum, valid for l >= a_low - 3."""
    if l < ctx.a_low - 3:
        raise OutOfValidityRange(f"h^2 formula covers l >= {ctx.a_low - 3}, got l = {l}")
    return sum(h1_p1(k + l + TWIST_SHIFT) for k in sp.ks)


def is_instanton_spectrum(sp: Spectrum) -> bool:
    """True exactly for the all-zero spectrum: no cohomology in the test window."""
    return all(k == 0 for k in sp.ks)


def _zero_sum_tuples(n: int, bound: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing n-tuples over [-bound, bound] with zero sum, in lexicographic order.

    An iterative depth-first walk.  With ``left`` entries still to place
    (the next one included) owing the sum ``rest``, the next entry ranges
    over [max(prev, rest - (left - 1)*bound), rest // left]: the values that
    leave a nondecreasing completion inside the bound.  Every prefix built
    therefore completes, and no tuple is built only to be thrown away.
    """
    ks: list[int] = []
    tops: list[int] = []
    rest = 0
    while True:
        while len(ks) < n:
            left = n - len(ks)
            k = max(ks[-1] if ks else -bound, rest - (left - 1) * bound)
            ks.append(k)
            tops.append(rest // left)
            rest -= k
        yield tuple(ks)
        while ks:
            k = ks.pop()
            rest += k
            if k < tops[-1]:
                ks.append(k + 1)
                rest -= k + 1
                break
            tops.pop()
        else:
            return


def enumerate_spectra(n: int, bound: int) -> list[Spectrum]:
    """All nondecreasing integer n-tuples with zero sum and entries in [-bound, bound].

    Returned in lexicographic order.  Only the stated arithmetic constraints
    are imposed.  Needs n >= 1 and 1 <= bound <= MAX_TWIST; boxes of more than
    MAX_SEARCH_SPACE candidates are refused, counting the whole box.
    """
    (n,) = _integers((n,), "spectrum length")
    if n < 1:
        raise DomainError(f"spectrum length must be positive, got {n}")
    (bound,) = _integers((bound,), "bound")
    if not 1 <= bound <= MAX_TWIST:
        raise DomainError(f"bound must be between 1 and {MAX_TWIST}, got {bound}")
    # C(2*bound + n, n) one factor at a time: after step i, count is
    # C(top + i, i), which never decreases, so stop once it is past the ceiling.
    top, count = max(n, 2 * bound), 1
    for i in range(1, min(n, 2 * bound) + 1):
        count = count * (top + i) // i
        if count > MAX_SEARCH_SPACE:
            raise DomainError(
                f"enumerating length-{n} spectra with bound {bound} exceeds the "
                f"search-space ceiling of {MAX_SEARCH_SPACE} candidates"
            )
    return [Spectrum(ks) for ks in _zero_sum_tuples(n, bound)]
