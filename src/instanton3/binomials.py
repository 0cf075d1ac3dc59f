"""The two conventions for the cubic binomial coefficient C(a, 3).

Every chi in the package uses the signed cubic itself (``binom3_poly``),
since chi is a polynomial in the twist.  ``binom3`` is the truncated count
(zero below a = 3), the h^0 of a line bundle on P^3; the two disagree
exactly when a <= -1.
"""

from __future__ import annotations


def binom3(a: int) -> int:
    """Ways to choose 3 out of a: zero whenever a < 3."""
    if a < 3:
        return 0
    return a * (a - 1) * (a - 2) // 6


def binom3_poly(a: int) -> int:
    """The cubic a(a-1)(a-2)/6 itself, signed for negative arguments."""
    # A product of three consecutive integers is divisible by 6, so this
    # floor division is exact.
    return a * (a - 1) * (a - 2) // 6
