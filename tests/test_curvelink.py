"""The bundle-curve dictionary and the section counts around it."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from instanton3 import curvelink
from instanton3.chern import ChernData, euler_characteristic
from instanton3.curvelink import (
    CurveInvariants,
    bundle_to_curve,
    chi_f1_charge,
    chi_ideal_sheaf,
    curve_to_bundle,
    generated_by_two_sections,
    rational_normal_twist_degree,
    thooft_threshold,
)
from instanton3.errors import DomainError, ParityViolation, RankUnsupported

degrees = st.integers(min_value=1, max_value=12)
genera = st.integers(min_value=-8, max_value=8)
first_classes = st.integers(min_value=-5, max_value=5)


@st.composite
def dictionary_bundles(draw):
    """Rank-3 data that the dictionary accepts: parity-valid with c2 >= 1."""
    c1 = draw(first_classes)
    c2 = draw(degrees)
    c3 = c1 * c2 + 2 * draw(st.integers(min_value=-10, max_value=10))
    return ChernData(3, c1, c2, c3)


def test_curve_invariants_validation():
    with pytest.raises(ValueError):
        CurveInvariants(0, 0)
    cv = CurveInvariants(5, 0)
    assert (cv.d, cv.g) == (5, 0)


def test_bundle_to_curve_pinned_values():
    assert bundle_to_curve(ChernData(3, 3, 5, 3)) == CurveInvariants(5, 0)
    assert bundle_to_curve(ChernData(3, 0, 2, 0)) == CurveInvariants(2, -3)


def test_bundle_to_curve_rejections():
    with pytest.raises(RankUnsupported):
        bundle_to_curve(ChernData(2, 0, 2, 0))
    with pytest.raises(ParityViolation):
        bundle_to_curve(ChernData(3, 0, 2, 1))
    # CurveInvariants alone owns d >= 1, so the refusal names the curve degree.
    with pytest.raises(DomainError, match="curve degree must be positive, got 0"):
        bundle_to_curve(ChernData(3, 0, 0, 0))
    # The genus relation decides integrality before the degree is read.
    with pytest.raises(ParityViolation, match="genus relation gave the odd value 3 for 2g"):
        bundle_to_curve(ChernData(3, 0, 0, 1))


def test_curve_to_bundle_pinned_value(monkeypatch):
    assert curve_to_bundle(CurveInvariants(2, -3), 0) == ChernData(3, 0, 2, 0)
    assert curve_to_bundle(CurveInvariants(5, 0), 3) == ChernData(3, 3, 5, 3)
    # With c3 weighted 2, the same curve leaves 2*c3 = 3: no integer c3.
    monkeypatch.setattr(curvelink, "GENUS_RELATION", (2, -4, 1))
    with pytest.raises(ParityViolation, match="genus relation has no integer c3 for d=5, g=0, c1=3"):
        curve_to_bundle(CurveInvariants(5, 0), 3)


@given(dictionary_bundles())
def test_dictionary_roundtrip_from_bundle(d):
    cv = bundle_to_curve(d)
    assert cv.d == d.c2
    assert curve_to_bundle(cv, d.c1) == d


@given(degrees, genera, first_classes)
def test_dictionary_roundtrip_from_curve(d, g, c1):
    bundle = curve_to_bundle(CurveInvariants(d, g), c1)
    assert bundle_to_curve(bundle) == CurveInvariants(d, g)


def test_normal_twist_degree_pinned():
    assert rational_normal_twist_degree(2) == 3
    with pytest.raises(DomainError):
        rational_normal_twist_degree(1)


@given(st.integers(min_value=2, max_value=30))
def test_normal_twist_degree_formula(n):
    # Two degree-(2n+5) summands minus the degree-3 twist of a degree-(n+3) curve.
    assert rational_normal_twist_degree(n) == 2 * (2 * n + 5) - 3 * (n + 3)
    assert generated_by_two_sections(rational_normal_twist_degree(n))


def test_two_section_threshold():
    assert not generated_by_two_sections(-1)
    assert not generated_by_two_sections(0)
    assert generated_by_two_sections(1)
    assert generated_by_two_sections(7)


def test_chi_ideal_sheaf_pinned_values():
    assert chi_ideal_sheaf(CurveInvariants(5, 0), 3) == 4
    assert chi_ideal_sheaf(CurveInvariants(1, 0), 1) == 2
    assert chi_ideal_sheaf(CurveInvariants(5, 0), -4) == 18
    assert chi_ideal_sheaf(CurveInvariants(5, 0), -10) == -35


@given(st.integers(min_value=2, max_value=20))
def test_chi_ideal_sheaf_vanishes_untwisted_for_rational_curves(n):
    assert chi_ideal_sheaf(CurveInvariants(n + 3, 0), 0) == 0


@given(degrees, genera, st.integers(min_value=-100, max_value=100))
def test_chi_ideal_sheaf_is_ambient_minus_curve(d, g, t):
    # chi(O_P3(t)) splits as chi of the ideal sheaf plus chi(O_C(t)).
    cv = CurveInvariants(d, g)
    ambient = euler_characteristic(ChernData(1, 0, 0, 0), t)
    assert chi_ideal_sheaf(cv, t) + (d * t + 1 - g) == ambient


def test_thooft_threshold():
    assert thooft_threshold(3) == 2
    assert thooft_threshold(2) == 1
    with pytest.raises(DomainError):
        thooft_threshold(1)


def test_chi_f1_charge_pinned():
    assert chi_f1_charge(2) == 6
    with pytest.raises(DomainError):
        chi_f1_charge(1)


@given(st.integers(min_value=2, max_value=20))
def test_chi_f1_charge_formula(n):
    assert chi_f1_charge(n) == 12 - 3 * n
    assert chi_f1_charge(n) == euler_characteristic(ChernData(3, 0, n, 0), 1)


@given(st.integers(min_value=2, max_value=3))
def test_charges_clearing_the_section_threshold(n):
    # Only charges 2 and 3 leave chi(F(1)) at or above the rank-3 threshold.
    assert chi_f1_charge(n) >= thooft_threshold(3)
    assert chi_f1_charge(n + 2) < thooft_threshold(3)
