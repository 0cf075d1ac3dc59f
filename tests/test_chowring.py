"""Ring laws and pinned values for the truncated Chow-ring arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from instanton3.chowring import ONE, ChowClass, add, degree, exp_line, mul, todd_p3

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
chow_classes = st.builds(ChowClass, rationals, rationals, rationals, rationals)
small_ints = st.integers(min_value=-20, max_value=20)


def untruncated_product(xs, ys):
    """Oracle: full degree-6 polynomial product, truncated afterwards."""
    full = [Fraction(0)] * 7
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            full[i + j] += a * b
    return tuple(full[:4])


def test_coefficients_normalize_to_fractions():
    x = ChowClass(1, 2, Fraction(1, 2), -3)
    assert all(isinstance(c, Fraction) for c in x.coeffs)
    assert x.coeffs == (1, 2, Fraction(1, 2), -3)


def test_one_is_multiplicative_identity():
    x = ChowClass(3, -1, Fraction(5, 2), Fraction(-7, 6))
    assert mul(ONE, x) == x
    assert mul(x, ONE) == x


def test_truncation_kills_high_degrees():
    h = ChowClass(0, 1, 0, 0)
    h2 = mul(h, h)
    h3 = mul(h2, h)
    assert h2 == ChowClass(0, 0, 1, 0)
    assert h3 == ChowClass(0, 0, 0, 1)
    assert mul(h3, h) == ChowClass(0, 0, 0, 0)


def test_todd_class_of_p3():
    assert todd_p3() == ChowClass(1, 2, Fraction(11, 6), 1)


def test_exp_line_values():
    assert exp_line(0) == ONE
    assert exp_line(2) == ChowClass(1, 2, 2, Fraction(4, 3))
    assert exp_line(-1) == ChowClass(1, -1, Fraction(1, 2), Fraction(-1, 6))


def test_degree_reads_top_coefficient():
    assert degree(ChowClass(9, 7, 5, Fraction(10, 3))) == Fraction(10, 3)
    # chi(O(2)) on P^3 through the pairing.
    assert degree(mul(exp_line(2), todd_p3())) == 10


@given(chow_classes, chow_classes)
def test_mul_commutative(x, y):
    assert mul(x, y) == mul(y, x)


@given(chow_classes, chow_classes, chow_classes)
def test_mul_associative(x, y, z):
    assert mul(mul(x, y), z) == mul(x, mul(y, z))


@given(chow_classes, chow_classes, chow_classes)
def test_mul_distributes_over_add(x, y, z):
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


@given(chow_classes, chow_classes, rationals)
def test_scale_is_bilinear(x, y, k):
    assert mul(x.scale(k), y) == mul(x, y).scale(k)


@given(chow_classes, chow_classes)
def test_mul_matches_untruncated_oracle(x, y):
    assert mul(x, y).coeffs == untruncated_product(x.coeffs, y.coeffs)


@given(small_ints, small_ints)
def test_exp_line_group_law(a, b):
    assert mul(exp_line(a), exp_line(b)) == exp_line(a + b)


@given(small_ints)
def test_exp_line_inverse(k):
    assert mul(exp_line(k), exp_line(-k)) == ONE


def test_chow_class_is_hashable_and_frozen():
    x = ChowClass(1, 0, 0, 0)
    assert hash(x) == hash(ONE)
    with pytest.raises(AttributeError):
        x.a0 = 2
