"""The cubic binomial coefficient C(a, 3) as a polynomial in a.

Every chi in the package uses the signed cubic itself (``binom3_poly``),
since chi is a polynomial in the twist.  For a >= 0 it agrees with the
truncated count ``math.comb(a, 3)``; the two disagree exactly when a <= -1.
"""

from __future__ import annotations


def binom3_poly(a: int) -> int:
    """The cubic a(a-1)(a-2)/6 itself, signed for negative arguments."""
    # A product of three consecutive integers is divisible by 6, so this
    # floor division is exact.
    return a * (a - 1) * (a - 2) // 6
