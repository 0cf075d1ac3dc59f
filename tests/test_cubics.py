"""Exact cubic sign analysis against an independent discriminant oracle."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from instanton3.cubics import CubicSignAnalysis
from instanton3.errors import DomainError

nonzero_ints = st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0)
coefficient_ints = st.integers(min_value=-9, max_value=9)
integer_cubics = st.tuples(coefficient_ints, coefficient_ints, coefficient_ints, nonzero_ints)
root_fractions = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=4
)
probe_points = st.fractions(
    min_value=Fraction(-40), max_value=Fraction(40), max_denominator=8
)


@st.composite
def factored_with_roots(draw):
    """Cubics built from known rational roots, so repeated roots appear often."""
    r1 = draw(root_fractions)
    r2 = draw(root_fractions)
    r3 = draw(root_fractions)
    lead = Fraction(draw(nonzero_ints))
    # lead * (x - r1)(x - r2)(x - r3), ascending coefficients.
    e1 = r1 + r2 + r3
    e2 = r1 * r2 + r1 * r3 + r2 * r3
    e3 = r1 * r2 * r3
    return (-lead * e3, lead * e2, -lead * e1, lead), (r1, r2, r3)


def factored_cubics():
    return factored_with_roots().map(lambda pair: pair[0])


any_cubics = st.one_of(integer_cubics, factored_cubics())


def discriminant(coeffs):
    d, c, b, a = (Fraction(x) for x in coeffs)
    return (
        18 * a * b * c * d
        - 4 * b ** 3 * d
        + b * b * c * c
        - 4 * a * c ** 3
        - 27 * a * a * d * d
    )


def is_triple(coeffs):
    d, c, b, a = (Fraction(x) for x in coeffs)
    return b * b == 3 * a * c and b * c == 9 * a * d


def evaluate(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * Fraction(x) + c
    return acc


def cauchy_bound(coeffs):
    lead = abs(Fraction(coeffs[3]))
    return 1 + max(abs(Fraction(c)) / lead for c in coeffs[:3])


def test_rejects_non_cubics():
    with pytest.raises(ValueError):
        CubicSignAnalysis((1, 2, 3, 0))
    with pytest.raises(ValueError):
        CubicSignAnalysis((0, 0, 0, 0))
    with pytest.raises(DomainError, match="^need a cubic, got degree 4$"):
        CubicSignAnalysis([1, 0, 0, 0, 1])


# Pinned root structures, one per branch of the decomposition.


def test_charge2_chi_cubic_counts():
    # Roots are -2 - sqrt(5), -2, -2 + sqrt(5): two of them irrational.
    coeffs = (-1, Fraction(7, 2), 3, Fraction(1, 2))
    analysis = CubicSignAnalysis(coeffs)
    assert analysis.sign_changes == 3
    assert evaluate(coeffs, -2) == 0
    assert [analysis.odd_roots_below(t) for t in (-5, -4, -2, -1, 0, 1)] == [0, 1, 1, 2, 2, 3]


def test_hidden_root_pair_between_integers():
    # (1/2)m^3 - 5m^2 + (9/2)m - 1: negative at 0 and 1 but positive at 1/2,
    # so integer sampling misses the two roots inside (0, 1).
    coeffs = (-1, Fraction(9, 2), -5, Fraction(1, 2))
    analysis = CubicSignAnalysis(coeffs)
    assert evaluate(coeffs, 0) < 0
    assert evaluate(coeffs, Fraction(1, 2)) > 0
    assert evaluate(coeffs, 1) < 0
    assert analysis.sign_changes == 3
    assert analysis.odd_roots_below(0) == 0
    assert analysis.odd_roots_below(1) == 2
    assert analysis.odd_roots_below(10) == 3


def test_triple_root():
    coeffs = (-1, 3, -3, 1)  # (x - 1)^3
    analysis = CubicSignAnalysis(coeffs)
    assert analysis.sign_changes == 1
    assert evaluate(coeffs, 1) == 0
    assert analysis.odd_roots_below(1) == 0
    assert analysis.odd_roots_below(Fraction(9, 8)) == 1


def test_double_plus_simple_root():
    coeffs = (-2, -3, 0, 1)  # (x + 1)^2 (x - 2)
    analysis = CubicSignAnalysis(coeffs)
    assert analysis.sign_changes == 1
    assert evaluate(coeffs, -1) == 0 and evaluate(coeffs, 2) == 0
    assert analysis.odd_roots_below(0) == 0
    assert analysis.odd_roots_below(2) == 0
    assert analysis.odd_roots_below(3) == 1


def test_single_irrational_root():
    analysis = CubicSignAnalysis((-2, 0, 0, 1))  # x^3 - 2
    assert analysis.sign_changes == 1
    assert analysis.odd_roots_below(1) == 0
    assert analysis.odd_roots_below(2) == 1


# The discriminant is an independent classifier of the root structure.


@given(any_cubics)
def test_structure_matches_discriminant(coeffs):
    analysis = CubicSignAnalysis(coeffs)
    disc = discriminant(coeffs)
    assert analysis.sign_changes == (3 if disc > 0 else 1)
    if disc == 0 and not is_triple(coeffs):
        # A double root beside a simple root sigma, which the classical
        # closed form gives; sigma is the one place the sign changes.
        d, c, b, a = (Fraction(x) for x in coeffs)
        sigma = (4 * a * b * c - 9 * a * a * d - b ** 3) / (a * (b * b - 3 * a * c))
        assert evaluate(coeffs, sigma) == 0
        assert (analysis.odd_roots_below(sigma), analysis.odd_roots_below(sigma + 1)) == (0, 1)


@given(any_cubics, probe_points)
def test_sign_at_point_matches_odd_root_count(coeffs, t):
    # sign(p(t)) is the leading sign times (-1)^(number of odd roots above t),
    # which ties the Sturm counts to direct evaluation.
    analysis = CubicSignAnalysis(coeffs)
    value = evaluate(coeffs, t)
    if value == 0:
        return
    lead_sign = 1 if Fraction(coeffs[3]) > 0 else -1
    above = analysis.sign_changes - analysis.odd_roots_below(t)
    expected = lead_sign * (-1 if above % 2 else 1)
    assert (value > 0) == (expected > 0)


@given(any_cubics)
def test_counts_saturate_at_cauchy_bound(coeffs):
    analysis = CubicSignAnalysis(coeffs)
    bound = cauchy_bound(coeffs)
    assert analysis.odd_roots_below(-bound) == 0
    assert analysis.odd_roots_below(bound) == analysis.sign_changes


@given(any_cubics, probe_points, probe_points)
def test_counts_are_monotone(coeffs, t1, t2):
    analysis = CubicSignAnalysis(coeffs)
    lo, hi = min(t1, t2), max(t1, t2)
    assert analysis.odd_roots_below(lo) <= analysis.odd_roots_below(hi)


@given(any_cubics, probe_points)
def test_analysis_is_scale_invariant(coeffs, t):
    # Negating the polynomial moves no roots, so every count must survive.
    analysis = CubicSignAnalysis(coeffs)
    negated = CubicSignAnalysis(tuple(-Fraction(c) for c in coeffs))
    assert negated.sign_changes == analysis.sign_changes
    assert negated.odd_roots_below(t) == analysis.odd_roots_below(t)


@given(factored_with_roots(), probe_points)
def test_counts_match_known_roots(data, t):
    # The strongest oracle available: the roots were chosen up front, so the
    # multiplicity bookkeeping can be checked literally.
    coeffs, roots = data
    analysis = CubicSignAnalysis(coeffs)
    multiplicity = Counter(roots)
    odd = {r for r, m in multiplicity.items() if m % 2}
    assert analysis.sign_changes == len(odd)
    assert analysis.odd_roots_below(t) == sum(1 for r in odd if r < t)
    for r in roots:
        assert evaluate(coeffs, r) == 0
