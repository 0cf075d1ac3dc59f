"""Spectra of rank-3 sheaves on P^3.

A spectrum is a nondecreasing integer tuple (k_1, ..., k_n).  In the twist
ranges where the theory applies, h^1 and h^2 of twists of the sheaf reduce
to sums of line-bundle cohomology on P^1 taken over the spectrum entries.
Only that arithmetic is mechanized here; deeper admissibility constraints
on which tuples occur for actual sheaves are out of scope.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from operator import le

from .errors import MAX_INT, MAX_TWIST, DomainError, OutOfValidityRange, Record, _integers, _twist

#: The shift applied to each spectrum entry inside both cohomology formulas:
#: the P^1 line-bundle degree read off at twist l is k_i + l + TWIST_SHIFT.
TWIST_SHIFT = 1

#: Ceiling on the enumeration search space: the C(2*bound + n, n) candidate
#: tuples of the whole box, counted before any tuple is built.
MAX_SEARCH_SPACE = 1_000_000


class Spectrum(Record):
    """A nondecreasing tuple of integers."""

    def __init__(self, ks: tuple[int, ...]) -> None:
        if not (type(ks) is tuple and set(map(type, ks)) == {int} and all(map(le, ks, ks[1:]))
                and -MAX_INT <= ks[0] and ks[-1] <= MAX_INT):
            ks = _integers(ks, "spectrum entries")
            if list(ks) != sorted(ks):
                raise DomainError(f"spectrum entries must be nondecreasing, got {ks}")
        self._set(ks)


# Both predictions assume a locally free sheaf with generic splitting type
# (0, ..., 0).  h^1(F(l)) sums h^0, and h^2(F(l)) h^1, of O_P1(k + l + TWIST_SHIFT)
# over the entries k.  With a = l + TWIST_SHIFT + 1, that h^0 is k + a for
# k > -a, that h^1 is -a - k for k < -a, and each is 0 otherwise.  A Spectrum is
# nondecreasing, so the entries past -a are ks[bisect_right(ks, -a):] and those
# below it ks[:bisect_left(ks, -a)]: each sum is one slice sum plus a*count.


def h1_from_spectrum(sp: Spectrum, l: int) -> int:
    """h^1(F(l)) predicted by the spectrum, valid for l <= -1."""
    l = _twist(l, "l")
    if l > -1:
        raise OutOfValidityRange(f"h^1 formula covers l <= -1, got l = {l}")
    a = l + TWIST_SHIFT + 1
    i = bisect_right(sp.ks, -a)
    return sum(sp.ks[i:]) + a * (len(sp.ks) - i)


def h2_from_spectrum(sp: Spectrum, l: int) -> int:
    """h^2(F(l)) predicted by the spectrum, valid for l >= -3."""
    l = _twist(l, "l")
    if l < -3:
        raise OutOfValidityRange(f"h^2 formula covers l >= -3, got l = {l}")
    a = l + TWIST_SHIFT + 1
    i = bisect_left(sp.ks, -a)
    return -sum(sp.ks[:i]) - a * i


def is_instanton_spectrum(sp: Spectrum) -> bool:
    """True exactly for the all-zero spectrum: no cohomology in the test window."""
    return not any(sp.ks)


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
