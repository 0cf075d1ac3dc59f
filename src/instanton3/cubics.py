"""Exact sign analysis of cubic polynomials with rational coefficients.

Everything works over ``fractions.Fraction``: no floating point and no
numeric root finding.  The one question answered here is, for any rational
t, how many distinct odd-multiplicity real roots of a cubic lie strictly
below t.  Sampling signs at integers is not enough: an integer-valued cubic
can hide a pair of roots between consecutive sample points, so the counting
goes through a square-free decomposition and, in the square-free case, a
Sturm chain evaluated with exact left-of-t limits.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError

Poly = list[Fraction]  # ascending coefficients, no trailing zeros


def _trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def _degree(p: Poly) -> int:
    return len(p) - 1


def _evaluate(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _derivative(p: Poly) -> Poly:
    return [i * c for i, c in enumerate(p)][1:]


def _rem(p: Poly, q: Poly) -> Poly:
    r = list(p)
    dq = _degree(q)
    lead = q[-1]
    while _degree(r) >= dq and r:
        shift = _degree(r) - dq
        factor = r[-1] / lead
        for i, c in enumerate(q):
            r[i + shift] -= factor * c
        _trim(r)
    return r


def _monic(p: Poly) -> Poly:
    lead = p[-1]
    return [c / lead for c in p]


def _gcd(p: Poly, q: Poly) -> Poly:
    a, b = list(p), list(q)
    while b:
        a, b = b, _rem(a, b)
    return _monic(a)


def _sturm_chain(p: Poly) -> list[Poly]:
    chain = [list(p), _derivative(p)]
    while True:
        r = [-c for c in _rem(chain[-2], chain[-1])]
        if not r:
            return chain
        chain.append(r)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_left_of(p: Poly, t: Fraction) -> int:
    """Sign of p just left of t: the first nonzero derivative decides."""
    s, k = p, 0
    while True:
        v = _evaluate(s, t)
        if v != 0:
            return _sign(v) * (-1 if k % 2 else 1)
        s = _derivative(s)
        k += 1


def _variations(signs: list[int]) -> int:
    flips = 0
    for a, b in zip(signs, signs[1:]):
        if a * b < 0:
            flips += 1
    return flips


class CubicSignAnalysis:
    """Root structure of one cubic, computed once and queried exactly.

    ``sign_changes`` is the number of distinct odd-multiplicity real roots,
    the locations where the cubic changes sign, and ``odd_roots_below(t)``
    counts those strictly below t.  An even-multiplicity root never changes
    the sign, so neither answer counts it.
    """

    def __init__(self, coeffs) -> None:
        p = _trim([Fraction(c) for c in coeffs])
        if _degree(p) != 3:
            raise DomainError(f"need a cubic, got degree {_degree(p)}")
        dp = _derivative(p)
        g = _gcd(p, dp)
        if _degree(g) == 0:
            # Square-free: every real root is simple.  A Sturm chain gives
            # exact counts; irrational roots never need to be located.
            self._chain = _sturm_chain(p)
            self._odd_roots: tuple[Fraction, ...] | None = None
            at_minus_inf = [_sign(s[-1]) * (-1 if _degree(s) % 2 else 1) for s in self._chain]
            at_plus_inf = [_sign(s[-1]) for s in self._chain]
            self._v_minus_inf = _variations(at_minus_inf)
            self.sign_changes = self._v_minus_inf - _variations(at_plus_inf)
        elif _degree(g) == 1:
            # One double root (the root of g) plus one simple root; the sum
            # of roots pins the simple one, so both are rational.
            rho = -g[0]
            sigma = -p[2] / p[3] - 2 * rho
            self._chain = None
            self._odd_roots = (sigma,)
            self.sign_changes = 1
        else:
            # gcd of degree 2 means a triple root: odd multiplicity, one
            # sign change.
            rho = -p[2] / (3 * p[3])
            self._chain = None
            self._odd_roots = (rho,)
            self.sign_changes = 1

    def odd_roots_below(self, t) -> int:
        """Distinct odd-multiplicity real roots strictly less than t."""
        t = Fraction(t)
        if self._odd_roots is not None:
            return sum(1 for r in self._odd_roots if r < t)
        left = [_sign_left_of(s, t) for s in self._chain]
        return self._v_minus_inf - _variations(left)
