"""Spectrum arithmetic: P^1 cohomology sums and the zero-sum enumeration."""

import math
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from instanton3 import spectrum
from instanton3.errors import DomainError, OutOfValidityRange
from instanton3.spectrum import (
    MAX_SEARCH_SPACE,
    Spectrum,
    enumerate_spectra,
    h0_p1,
    h1_from_spectrum,
    h1_p1,
    h2_from_spectrum,
    is_instanton_spectrum,
)

entries = st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=8)
spectra = entries.map(lambda ks: Spectrum(tuple(sorted(ks))))


def test_p1_cohomology_tables():
    assert [h0_p1(a) for a in range(-3, 4)] == [0, 0, 0, 1, 2, 3, 4]
    assert [h1_p1(a) for a in range(-4, 3)] == [3, 2, 1, 0, 0, 0, 0]


@given(st.integers(min_value=-50, max_value=50))
def test_p1_serre_duality(a):
    assert h1_p1(a) == h0_p1(-a - 2)
    assert h0_p1(a) - h1_p1(a) == a + 1


def test_spectrum_requires_nondecreasing_entries():
    with pytest.raises(ValueError):
        Spectrum((1, -1))
    sp = Spectrum((-1, 0, 1))
    assert sp.ks == (-1, 0, 1)


@pytest.mark.parametrize("ks", [(-0.5, 0.5), (1.9, 2.7), ("x",), (math.inf,), (None,), (math.nan,), (0, "1")])
def test_spectrum_rejects_non_integer_entries(ks):
    with pytest.raises(DomainError) as excinfo:
        Spectrum(ks)
    assert str(excinfo.value) == f"spectrum entries must be integers, got {ks}"


@pytest.mark.parametrize("ks", [(1, 0), (0, 1, 0)])
def test_spectrum_order_refusal_text(ks):
    with pytest.raises(DomainError) as excinfo:
        Spectrum(ks)
    assert str(excinfo.value) == f"spectrum entries must be nondecreasing, got {ks}"


def test_spectrum_accepts_integer_valued_entries():
    ks = Spectrum((-1.0, Fraction(1))).ks
    assert ks == (-1, 1)
    assert all(type(k) is int for k in ks)


def test_split_pair_predictions():
    sp = Spectrum((-1, 1))
    assert h1_from_spectrum(sp, -2) == 1
    assert h1_from_spectrum(sp, -1) == 2
    assert h2_from_spectrum(sp, -2) == 1
    assert h2_from_spectrum(sp, 1) == 0


def test_zero_pair_predictions():
    sp = Spectrum((0, 0))
    assert h1_from_spectrum(sp, -2) == 0
    assert h2_from_spectrum(sp, -2) == 0
    assert h1_from_spectrum(sp, -1) == 2
    assert h2_from_spectrum(sp, -3) == 2


@given(spectra, st.integers(min_value=-12, max_value=-1))
def test_h1_matches_direct_sum(sp, l):
    assert h1_from_spectrum(sp, l) == sum(max(0, k + l + 2) for k in sp.ks)


@given(spectra, st.integers(min_value=-3, max_value=12))
def test_h2_matches_direct_sum(sp, l):
    assert h2_from_spectrum(sp, l) == sum(max(0, -k - l - 2) for k in sp.ks)


@pytest.mark.parametrize("shift", [spectrum.TWIST_SHIFT, 2])
@given(sp=spectra, l=st.integers(min_value=-12, max_value=12))
def test_predictions_equal_the_p1_helper_sums(shift, sp, l):
    # h0_p1/h1_p1 at k + l + TWIST_SHIFT are the oracle, read at call time,
    # so a corrupted shift moves both sides alike.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "TWIST_SHIFT", shift)
        if l <= -1:
            assert h1_from_spectrum(sp, l) == sum(h0_p1(k + l + spectrum.TWIST_SHIFT) for k in sp.ks)
        if l >= -3:
            assert h2_from_spectrum(sp, l) == sum(h1_p1(k + l + spectrum.TWIST_SHIFT) for k in sp.ks)


@given(spectra, st.integers(min_value=-12, max_value=-2))
def test_h1_is_nondecreasing_in_the_twist(sp, l):
    assert h1_from_spectrum(sp, l) <= h1_from_spectrum(sp, l + 1)


@given(spectra, st.integers(min_value=-3, max_value=12))
def test_h2_is_nonincreasing_in_the_twist(sp, l):
    assert h2_from_spectrum(sp, l) >= h2_from_spectrum(sp, l + 1)


@given(spectra, st.integers(min_value=-3, max_value=12))
def test_h2_mirrors_h1_of_the_negated_spectrum(sp, l):
    mirror = Spectrum(tuple(sorted(-k for k in sp.ks)))
    assert h2_from_spectrum(sp, l) == h1_from_spectrum(mirror, -4 - l)


def test_validity_windows():
    sp = Spectrum((0, 0))
    with pytest.raises(OutOfValidityRange) as excinfo:
        h1_from_spectrum(sp, 0)
    assert str(excinfo.value) == "h^1 formula covers l <= -1, got l = 0"
    with pytest.raises(OutOfValidityRange) as excinfo:
        h2_from_spectrum(sp, -4)
    assert str(excinfo.value) == "h^2 formula covers l >= -3, got l = -4"
    assert h1_from_spectrum(sp, -1) == 2
    assert h2_from_spectrum(sp, -3) == 2


def test_instanton_spectrum_is_all_zero():
    assert is_instanton_spectrum(Spectrum((0, 0)))
    assert is_instanton_spectrum(Spectrum((0, 0, 0)))
    assert not is_instanton_spectrum(Spectrum((-1, 1)))
    assert not is_instanton_spectrum(Spectrum((0, 0, 1)))


def test_enumeration_pinned_small_cases():
    assert [sp.ks for sp in enumerate_spectra(2, 1)] == [(-1, 1), (0, 0)]
    assert [sp.ks for sp in enumerate_spectra(3, 1)] == [(-1, 0, 1), (0, 0, 0)]
    assert [sp.ks for sp in enumerate_spectra(1, 5)] == [(0,)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("bound", [1, 2, 3])
def test_enumeration_matches_brute_force(n, bound):
    brute = sorted(
        set(
            tuple(sorted(ks))
            for ks in product(range(-bound, bound + 1), repeat=n)
            if sum(ks) == 0
        )
    )
    found = [sp.ks for sp in enumerate_spectra(n, bound)]
    assert found == brute
    assert found == sorted(found)  # lexicographic order
    for ks in found:
        assert list(ks) == sorted(ks)
        assert sum(ks) == 0
        assert all(-bound <= k <= bound for k in ks)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_instanton_flag_matches_the_vanishing_pair(n):
    for sp in enumerate_spectra(n, 3):
        vanishes = h1_from_spectrum(sp, -2) == 0 and h2_from_spectrum(sp, -2) == 0
        assert is_instanton_spectrum(sp) == vanishes


def test_enumeration_rejects_bad_arguments():
    with pytest.raises(DomainError):
        enumerate_spectra(0, 1)
    with pytest.raises(DomainError):
        enumerate_spectra(2, 0)


def test_enumeration_refuses_boxes_past_the_search_space_ceiling():
    # C(208, 8) is about 7.6e13 candidates: the library must refuse before filtering.
    with pytest.raises(DomainError) as excinfo:
        enumerate_spectra(8, 100)
    assert str(excinfo.value) == (
        "enumerating length-8 spectra with bound 100 exceeds the "
        f"search-space ceiling of {MAX_SEARCH_SPACE} candidates"
    )


@pytest.mark.parametrize("ceiling", [1, 2, 9, 10, 35, 36, 100])
def test_enumeration_ceiling_matches_the_binomial(monkeypatch, ceiling):
    monkeypatch.setattr(spectrum, "MAX_SEARCH_SPACE", ceiling)
    for n, bound in product(range(1, 8), range(1, 8)):
        if math.comb(2 * bound + n, n) > ceiling:
            with pytest.raises(DomainError, match="search-space ceiling"):
                enumerate_spectra(n, bound)
        else:
            assert [sp.ks for sp in enumerate_spectra(n, bound)] == filtered_box(n, bound)


BOUND_REFUSAL = "bound must be between 1 and 100"

#: Lines of spectrum.py a refusal may execute.  Each refusal runs at most 13
#: today; a loop over the box would run billions.
REFUSAL_LINE_BUDGET = 100


@pytest.mark.parametrize(
    "n,bound,refusal",
    [(10 ** 9, 10 ** 9, BOUND_REFUSAL), (1, 10 ** 9, BOUND_REFUSAL), (10 ** 9, 1, "search-space ceiling")],
    ids=["1000000000-1000000000", "1-1000000000", "1000000000-1"],
)
def test_enumeration_refuses_a_huge_box_at_once(n, bound, refusal):
    # math.comb(3*10^9, 10^9) alone would not finish.  A bound past 100 is
    # refused before any binomial; otherwise the refusal must stop building
    # the binomial as soon as it passes the ceiling.  The work is counted in
    # executed lines of spectrum.py, not in seconds: a loaded machine cannot
    # fail the test, and a refusal that loops fails at the budget, not in a hang.
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != spectrum.__file__:
            return None
        if event == "line":
            lines += 1
            if lines > REFUSAL_LINE_BUDGET:
                raise RuntimeError(f"the refusal ran more than {REFUSAL_LINE_BUDGET} lines of spectrum.py")
        return count

    previous = sys.gettrace()
    sys.settrace(count)
    try:
        with pytest.raises(DomainError, match=refusal):
            enumerate_spectra(n, bound)
    finally:
        sys.settrace(previous)


def filtered_box(n, bound):
    """Reference enumeration: every tuple of the box, filtered for zero sums."""
    return [ks for ks in combinations_with_replacement(range(-bound, bound + 1), n) if sum(ks) == 0]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("bound", range(1, 7))
def test_enumeration_walk_equals_the_filtered_box(n, bound):
    assert [sp.ks for sp in enumerate_spectra(n, bound)] == filtered_box(n, bound)


def test_enumeration_walk_is_not_recursive_at_the_longest_admitted_length():
    # C(1414, 2) = 998,991 candidates are admitted, C(1415, 2) = 1,000,405 are not;
    # 1412 entries are far deeper than the recursion limit.
    found = enumerate_spectra(1412, 1)
    assert len(found) == 707
    assert found[0].ks == (-1,) * 706 + (1,) * 706
    assert found[-1].ks == (0,) * 1412
    with pytest.raises(DomainError, match="search-space ceiling"):
        enumerate_spectra(1413, 1)
