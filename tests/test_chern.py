"""Chern arithmetic: characters, twists, duals, and the two chi routes."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from instanton3.binomials import binom3_poly
from instanton3.chern import (
    ChernData,
    ChiPolynomial,
    _jsonable,
    chern_character,
    chern_from_character,
    chi_endomorphisms,
    chi_endomorphisms_closed_form,
    chi_numerators,
    chi_polynomial,
    chi_values,
    dual,
    euler_characteristic,
    twist,
    validate_parity,
)
from instanton3.chowring import ChowClass, degree, exp_line, mul, todd_p3
from instanton3.curvelink import CurveInvariants, chi_curve_form
from instanton3.errors import DomainError, NonIntegralChernClass, NonIntegralChi, RankUnsupported

CHARGE2 = ChernData(3, 0, 2, 0)

class_range = st.integers(min_value=-12, max_value=12)
chern_data = st.builds(ChernData, st.integers(min_value=1, max_value=5), class_range, class_range, class_range)
twists = st.integers(min_value=-15, max_value=15)


@st.composite
def rank3_parity_data(draw):
    """Rank-3 classes satisfying the parity constraint c3 = c1*c2 mod 2."""
    c1 = draw(class_range)
    c2 = draw(class_range)
    c3 = c1 * c2 + 2 * draw(st.integers(min_value=-10, max_value=10))
    return ChernData(3, c1, c2, c3)


# The binomial conventions.


def test_binom3_poly_is_signed():
    assert binom3_poly(-1) == -1
    assert binom3_poly(-2) == -4
    assert binom3_poly(2) == 0
    assert binom3_poly(6) == 20


@given(st.integers(min_value=-200, max_value=200))
def test_binom3_poly_is_the_exact_cubic(a):
    assert binom3_poly(a) == Fraction(a * (a - 1) * (a - 2), 6)


@given(st.integers(min_value=0, max_value=200))
def test_binomial_conventions_agree_for_nonnegative(a):
    assert math.comb(a, 3) == binom3_poly(a)


# Characters and their inversion.


def test_character_of_charge2_type():
    assert chern_character(CHARGE2) == ChowClass(3, 0, -2, 0)


def test_character_of_normalized_reflexive_type():
    x = chern_character(ChernData(2, -1, 3, 3))
    assert x == ChowClass(2, -1, Fraction(-5, 2), Fraction(17, 6))


def test_character_of_twisted_charge2_type():
    x = chern_character(ChernData(3, 3, 5, 3))
    assert x == ChowClass(3, 3, Fraction(-1, 2), Fraction(-3, 2))


@given(st.integers(min_value=-10, max_value=10))
def test_line_bundle_character_is_exponential(k):
    assert chern_character(ChernData(1, k, 0, 0)) == exp_line(k)


@given(chern_data)
def test_character_roundtrip(d):
    assert chern_from_character(chern_character(d), d.rank) == d


def test_character_inversion_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        chern_from_character(ChowClass(2, 0, 0, 0), 3)
    with pytest.raises(ValueError):
        chern_from_character(ChowClass(0, 0, 0, 0), 0)


def test_character_inversion_rejects_nonintegral_classes():
    with pytest.raises(NonIntegralChernClass):
        chern_from_character(ChowClass(2, Fraction(1, 2), 0, 0), 2)
    with pytest.raises(NonIntegralChernClass):
        chern_from_character(ChowClass(2, 1, 0, 0), 2)  # c2 = 1/2
    with pytest.raises(NonIntegralChernClass):
        chern_from_character(ChowClass(1, 0, 0, Fraction(1, 6)), 1)  # c3 = 1/3


def test_rank_must_be_positive():
    with pytest.raises(ValueError):
        ChernData(0, 0, 0, 0)
    with pytest.raises(ValueError):
        ChernData(-3, 0, 2, 0)


@pytest.mark.parametrize(
    "args",
    [(3.5, 0, 2, 0), (3, 0.5, 2, 0), (3, 0, 2.5, 0), (3, 0, 2, Fraction(1, 2)), ("3", 0, 2, 0),
     (3, None, 2, 0), (3, 0, math.inf, 0), (math.nan, 0, 2, 0)],
)
def test_chern_data_rejects_non_integer_entries(args):
    # A DomainError at construction, not a misleading NonIntegralChi or a
    # TypeError from the arithmetic later on.
    with pytest.raises(DomainError) as excinfo:
        ChernData(*args)
    assert str(excinfo.value) == f"rank and Chern classes must be integers, got {args}"


def test_chern_data_stores_integer_valued_entries_as_int():
    d = ChernData(3.0, -0.0, Fraction(2), Fraction(0))
    assert d == CHARGE2
    assert all(type(v) is int for v in (d.rank, d.c1, d.c2, d.c3))
    assert json.dumps(_jsonable(d)) == "[3, 0, 2, 0]"
    assert euler_characteristic(d, 1) == 6


# Duals and twists.


def test_dual_pinned_values():
    assert dual(CHARGE2) == CHARGE2
    assert dual(ChernData(2, -1, 3, 3)) == ChernData(2, 1, 3, -3)


@given(chern_data)
def test_dual_negates_odd_classes(d):
    assert dual(d) == ChernData(d.rank, -d.c1, d.c2, -d.c3)
    assert dual(dual(d)) == d


def test_twist_pinned_values():
    assert twist(CHARGE2, 1) == ChernData(3, 3, 5, 3)
    assert twist(ChernData(2, -1, 3, 3), 2) == ChernData(2, 3, 5, 3)


@given(chern_data, twists, twists)
def test_twist_is_additive(d, a, b):
    assert twist(twist(d, a), b) == twist(d, a + b)


@given(chern_data)
def test_twist_by_zero_is_identity(d):
    assert twist(d, 0) == d


@given(chern_data, twists)
def test_twist_commutes_with_dual(d, k):
    assert dual(twist(d, k)) == twist(dual(d), -k)


# Euler characteristics, both routes.


def test_chi_of_charge2_window():
    values = [euler_characteristic(CHARGE2, m) for m in range(-5, 2)]
    assert values == [-6, 1, 2, 0, -2, -1, 6]


@given(st.integers(min_value=-30, max_value=30))
def test_chi_of_line_bundles_is_the_binomial(m):
    assert euler_characteristic(ChernData(1, m, 0, 0), 0) == binom3_poly(m + 3)
    assert euler_characteristic(ChernData(1, 0, 0, 0), m) == binom3_poly(m + 3)


def test_chi_rejects_parity_violations():
    with pytest.raises(NonIntegralChi):
        euler_characteristic(ChernData(3, 0, 2, 1), 0)


wide_chern_data = st.builds(
    ChernData,
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-(10 ** 4), max_value=10 ** 4),
    st.integers(min_value=-(10 ** 4), max_value=10 ** 4),
)
wide_twists = st.integers(min_value=-100, max_value=100)


def test_chi_numerators_pinned_values():
    assert chi_numerators(CHARGE2) == ((-2, 7, 6, 1), 2)
    assert chi_numerators(ChernData(1, 0, 0, 0)) == ((6, 11, 6, 1), 6)
    assert chi_numerators(ChernData(6, 0, -1, 0)) == ((8, 12, 6, 1), 1)


@given(wide_chern_data)
@example(ChernData(3, 0, 10 ** 30, 0))
@example(ChernData(4, -7, -(10 ** 25), 10 ** 40 + 1))
def test_chi_numerators_are_the_chi_cubic_in_lowest_terms(d):
    n, den = chi_numerators(d)
    assert all(isinstance(c, int) for c in (*n, den))
    assert tuple(Fraction(c, den) for c in n) == chi_polynomial(d).coeffs
    assert 6 % den == 0
    assert math.gcd(den, *n) == 1


@given(wide_chern_data, wide_twists)
@example(ChernData(3, 0, 10 ** 30, 0), 100)
@example(ChernData(3, 0, 10 ** 30, 1), -100)
@example(ChernData(2, 3, -(10 ** 20), 5), 7)
def test_ring_route_matches_the_two_product_formula(d, m):
    chi = degree(mul(mul(chern_character(d), exp_line(m)), todd_p3()))
    if chi.denominator == 1:
        assert euler_characteristic(d, m) == chi
    else:
        with pytest.raises(NonIntegralChi) as excinfo:
            euler_characteristic(d, m)
        assert str(excinfo.value) == f"chi at twist {m} is not an integer: {chi}"


@given(wide_chern_data, st.lists(wide_twists, max_size=12))
@example(ChernData(3, 0, 10 ** 30, 0), [-100, 0, 100])
@example(ChernData(3, 0, 10 ** 30, 1), [7, -100])
def test_chi_values_match_euler_characteristic_and_the_two_product_route(d, ms):
    ring = [degree(mul(mul(chern_character(d), exp_line(m)), todd_p3())) for m in ms]
    bad = [m for m, chi in zip(ms, ring) if chi.denominator != 1]
    if not bad:
        assert chi_values(d, ms) == ring == [euler_characteristic(d, m) for m in ms]
    else:
        with pytest.raises(NonIntegralChi) as excinfo:
            chi_values(d, ms)
        assert str(excinfo.value) == f"chi at twist {bad[0]} is not an integer: {ring[ms.index(bad[0])]}"


def test_chi_values_of_an_empty_and_a_pinned_window():
    assert chi_values(CHARGE2, []) == []
    assert chi_values(CHARGE2, range(-5, 2)) == [-6, 1, 2, 0, -2, -1, 6]


def test_chi_values_raise_at_the_first_bad_twist():
    violator = ChernData(3, 0, 2, 1)  # c3 - c1*c2 odd: chi is a half-integer at every twist
    with pytest.raises(NonIntegralChi) as single:
        euler_characteristic(violator, 4)
    with pytest.raises(NonIntegralChi) as batch:
        chi_values(violator, [4, -9, 0])
    assert str(batch.value) == str(single.value) == "chi at twist 4 is not an integer: 187/2"


def test_chi_polynomial_of_charge2_type():
    p = chi_polynomial(CHARGE2)
    assert p.coeffs == (-1, Fraction(7, 2), 3, Fraction(1, 2))
    assert p(1) == 6 and p(-2) == 0


@given(chern_data, twists)
def test_chi_polynomial_matches_ring_route(d, m):
    # Compared at the Fraction level so non-integral cases still cross-check.
    ring = degree(mul(mul(chern_character(d), exp_line(m)), todd_p3()))
    assert chi_polynomial(d)(m) == ring


@given(chern_data)
def test_chi_polynomial_leading_coefficient(d):
    assert chi_polynomial(d).coeffs[3] == Fraction(d.rank, 6)


@given(st.tuples(*[st.fractions(max_denominator=10 ** 6)] * 4), wide_twists)
def test_chi_polynomial_call_is_plain_evaluation(coeffs, m):
    value = ChiPolynomial(coeffs)(m)
    assert isinstance(value, Fraction)
    assert value == sum(c * m ** i for i, c in enumerate(coeffs))


@given(wide_chern_data, wide_twists)
@example(ChernData(3, 0, 10 ** 30, 0), 100)
@example(ChernData(4, -7, -(10 ** 25), 10 ** 40 + 1), -100)
@example(ChernData(2, 10 ** 30 + 1, -(10 ** 30), 3), 37)
def test_chi_polynomial_call_matches_fraction_horner_on_wide_classes(d, m):
    c0, c1, c2, c3 = chi_polynomial(d).coeffs
    assert chi_polynomial(d)(m) == ((c3 * m + c2) * m + c1) * m + c0


@given(rank3_parity_data(), twists)
def test_chi_serre_antisymmetry(d, m):
    assert euler_characteristic(dual(d), -m - 4) == -euler_characteristic(d, m)


# The curve-side chi form.


@st.composite
def curve_matching_data(draw):
    """Rank-3 data whose (c2, genus) pair comes from an integral curve."""
    c1 = draw(st.integers(min_value=-4, max_value=4))
    d = draw(st.integers(min_value=1, max_value=9))
    g = draw(st.integers(min_value=-6, max_value=6))
    c3 = 2 * g - 2 + 4 * d - c1 * d
    return ChernData(3, c1, d, c3), c1, d, g


@given(curve_matching_data(), wide_twists)
def test_chi_curve_form_signed_matches_ring_route(data, m):
    bundle, c1, d, g = data
    assert chi_curve_form(CurveInvariants(d, g), c1, m) == euler_characteristic(bundle, m)


def test_chi_curve_form_rejects_nonpositive_degree():
    with pytest.raises(DomainError, match="curve degree must be positive, got 0"):
        chi_curve_form(CurveInvariants(0, 0), 0, 1)


# Endomorphism chi and parity.


def test_chi_endomorphisms_pinned_values():
    assert chi_endomorphisms(CHARGE2) == -15
    assert chi_endomorphisms(ChernData(3, 0, 0, 0)) == 9
    assert chi_endomorphisms(ChernData(3, 1, 3, 1)) == -23


@given(rank3_parity_data())
def test_chi_endomorphisms_matches_closed_form(d):
    assert chi_endomorphisms(d) == chi_endomorphisms_closed_form(d)


@given(class_range, class_range, class_range, class_range)
def test_chi_endomorphisms_ignores_c3(c1, c2, c3a, c3b):
    left = chi_endomorphisms(ChernData(3, c1, c2, c3a))
    right = chi_endomorphisms(ChernData(3, c1, c2, c3b))
    assert left == right


def test_chi_endomorphisms_rejects_other_ranks():
    with pytest.raises(RankUnsupported, match="^endomorphism chi through the Chow ring needs rank 3, got 2$"):
        chi_endomorphisms(ChernData(2, 0, 2, 0))
    with pytest.raises(RankUnsupported, match="^endomorphism chi closed form needs rank 3, got 4$"):
        chi_endomorphisms_closed_form(ChernData(4, 0, 2, 0))


def test_validate_parity():
    assert validate_parity(CHARGE2)
    assert not validate_parity(ChernData(3, 0, 2, 1))
    assert validate_parity(ChernData(3, 1, 3, 1))
    assert not validate_parity(ChernData(3, 1, 3, 2))
    with pytest.raises(RankUnsupported):
        validate_parity(ChernData(2, 0, 2, 0))


@given(rank3_parity_data(), twists)
def test_parity_is_twist_invariant(d, k):
    assert validate_parity(twist(d, k))
