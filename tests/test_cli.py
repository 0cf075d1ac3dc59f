"""Command-line behavior: output bytes, JSON shapes, and exit codes."""

import hashlib
import inspect
import io
import json
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_verify import REPORT_DIGESTS

import instanton3
from instanton3 import chern, cli, errors
from instanton3.chern import ChernData, ChiPolynomial, chern_from_character, chi_polynomial, chi_values, euler_characteristic, twist
from instanton3.chowring import ChowClass, mul
from instanton3.cohomtable import CohomTable, MonadType, monad_chern, natural_table, serre_symmetry_check
from instanton3.cubics import CubicSignAnalysis
from instanton3.curvelink import (
    CurveInvariants,
    chi_curve_form,
    chi_f1_charge,
    chi_ideal_sheaf,
    curve_to_bundle,
    generated_by_two_sections,
    rational_normal_twist_degree,
    thooft_threshold,
)
from instanton3.errors import DomainError, NonIntegralChernClass, ToolkitError
from instanton3.moduli import DerivationStep, ModuliReport
from instanton3.spectrum import Spectrum, enumerate_spectra, h1_from_spectrum, h2_from_spectrum, is_instanton_spectrum
from instanton3.verify import Claim, ClaimResult

ONE = ChowClass(1, 0, 0, 0)

CHARGE2_TABLE = "\n".join(
    [
        " t  h0  h1  h2  h3",
        "-5   0   0   0   6",
        "-4   0   0   1   0",
        "-3   0   0   2   0",
        "-2   0   0   0   0",
        "-1   0   2   0   0",
        " 0   0   1   0   0",
        " 1   6   0   0   0",
    ]
)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_chi_text(capsys):
    rc, out, err = run_cli(capsys, "chi", "3", "0", "2", "0", "--m", "1")
    assert (rc, out, err) == (0, "6\n", "")


def test_chi_negative_twist(capsys):
    rc, out, _ = run_cli(capsys, "chi", "3", "0", "2", "0", "--m", "-5")
    assert (rc, out) == (0, "-6\n")


def test_chi_defaults_to_twist_zero(capsys):
    rc, out, _ = run_cli(capsys, "chi", "3", "0", "2", "0")
    assert (rc, out) == (0, "-1\n")


def test_chi_json(capsys):
    rc, out, _ = run_cli(capsys, "chi", "3", "0", "2", "0", "--m", "1", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"chern": [3, 0, 2, 0], "m": 1, "chi": 6}


def test_chi_rejects_parity_violation(capsys):
    rc, _, err = run_cli(capsys, "chi", "3", "0", "2", "1")
    assert rc == cli.EXIT_USAGE
    assert "not an integer" in err


def test_table_text_is_byte_stable(capsys):
    rc, out, _ = run_cli(capsys, "table", "3", "0", "2", "0", "-5", "1")
    assert rc == 0
    assert out == CHARGE2_TABLE + "\n"
    rc2, out2, _ = run_cli(capsys, "table", "3", "0", "2", "0", "-5", "1")
    assert (rc2, out2) == (rc, out)


def test_table_json(capsys):
    rc, out, _ = run_cli(capsys, "table", "3", "0", "2", "0", "0", "1", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "chern": [3, 0, 2, 0],
        "rows": [{"h": [0, 1, 0, 0], "t": 0}, {"h": [6, 0, 0, 0], "t": 1}],
    }


def test_table_parity_violation_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "table", "3", "0", "2", "1", "-5", "1")
    assert (rc, out) == (cli.EXIT_USAGE, "")
    assert err == "error: classes (3, 0, 2, 1) violate the parity constraint c3 = c1*c2 mod 2\n"


def test_table_parity_is_checked_before_naturalizability(capsys):
    # (3, 0, -5, 1) also has a one-sign-change cubic; parity decides first.
    rc, _, err = run_cli(capsys, "table", "3", "0", "-5", "1", "-3", "1")
    assert rc == cli.EXIT_USAGE
    assert "parity" in err


def test_table_model_obstruction_exits_three(capsys):
    rc, _, err = run_cli(capsys, "table", "3", "0", "-5", "0", "-3", "1")
    assert rc == cli.EXIT_MODEL
    assert "sign change" in err


def test_table_empty_window_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "table", "3", "0", "2", "0", "1", "0")
    assert (rc, out, err) == (cli.EXIT_USAGE, "", "error: empty twist window: t_min = 1 exceeds t_max = 0\n")


def test_library_validation_error_is_a_usage_error(capsys):
    rc, out, err = run_cli(capsys, "chi", "0", "0", "0", "0")
    assert (rc, out, err) == (cli.EXIT_USAGE, "", "error: rank must be a positive integer, got 0\n")


# main reports ToolkitError alone, so every precondition the library checks
# raises DomainError, which is also a ValueError for callers catching that.
# Each is refused before any ring product; the accepted edges (refusal None)
# are the last values inside each bound.

_CHARGE2 = ChernData(3, 0, 2, 0)
_QUINTIC = CurveInvariants(5, 0)
_ZERO_PAIR = Spectrum((0, 0))
_OUT_OF_RANGE = "{0} = {1} is out of range; |{0}| must be at most 100"
PRECONDITIONS = {
    "rank": (lambda: ChernData(0, 0, 0, 0), "rank must be a positive integer, got 0"),
    "character rank": (lambda: chern_from_character(ONE, 0), "rank must be a positive integer, got 0"),
    "character degree 0": (lambda: chern_from_character(ONE, 2), "degree-0 coefficient 1 does not match rank 2"),
    "string character rank": (
        lambda: chern_from_character(ONE, "x"),
        "rank and Chern classes must be integers, got ('x', 0, 0, 0)",
    ),
    "monad multiplicities": (lambda: MonadType(-1, 2, 0), "monad multiplicities cannot be negative: (-1, 2, 0)"),
    "monad rank": (lambda: MonadType(1, 2, 1), "monad cohomology must have positive rank, got 0"),
    "cubic degree": (lambda: CubicSignAnalysis((1, 2)), "need a cubic, got degree 1"),
    "curve degree": (lambda: CurveInvariants(0, 0), "curve degree must be positive, got 0"),
    "stable Ext difference": (
        lambda: ModuliReport(_CHARGE2, -15, 15, ("stable",), None, ()),
        "under stability the Ext difference must be 1 - chi(End)",
    ),
    "dimension without Ext^2": (
        lambda: ModuliReport(_CHARGE2, -15, 16, (), 16, ()),
        "a dimension is reported exactly when Ext^2 vanishing is assumed",
    ),
    "dimension vs Ext difference": (
        lambda: ModuliReport(_CHARGE2, -15, 16, ("ext2_vanishes",), 15, ()),
        "the reported dimension must equal the Ext difference",
    ),
    "spectrum order": (lambda: Spectrum((1, -1)), "spectrum entries must be nondecreasing, got (1, -1)"),
    "twist above": (lambda: euler_characteristic(_CHARGE2, 101), _OUT_OF_RANGE.format("m", 101)),
    "twist below": (lambda: euler_characteristic(_CHARGE2, -101), _OUT_OF_RANGE.format("m", -101)),
    "sweep twist above": (lambda: chi_values(_CHARGE2, [0, 101]), _OUT_OF_RANGE.format("m", 101)),
    "sweep twist below": (lambda: chi_values(_CHARGE2, [-101, 0]), _OUT_OF_RANGE.format("m", -101)),
    "t_min below": (lambda: natural_table(_CHARGE2, -101, 0), _OUT_OF_RANGE.format("t_min", -101)),
    "t_min above": (lambda: natural_table(_CHARGE2, 101, 101), _OUT_OF_RANGE.format("t_min", 101)),
    "t_max below": (lambda: natural_table(_CHARGE2, -100, -101), _OUT_OF_RANGE.format("t_max", -101)),
    "t_max above": (lambda: natural_table(_CHARGE2, 0, 101), _OUT_OF_RANGE.format("t_max", 101)),
    "bound 0": (lambda: enumerate_spectra(2, 0), "bound must be between 1 and 100, got 0"),
    "bound 101": (lambda: enumerate_spectra(2, 101), "bound must be between 1 and 100, got 101"),
    "Serre t_min below": (lambda: serre_symmetry_check(_CHARGE2, -101, 0), _OUT_OF_RANGE.format("t_min", -101)),
    "Serre t_max above": (
        lambda: serre_symmetry_check(_CHARGE2, -100, 97),
        "t_max = 97 is out of range; Serre symmetry needs t_max <= 96",
    ),
    "fractional twist": (lambda: euler_characteristic(_CHARGE2, 0.5), "m must be integers, got (0.5,)"),
    "string sweep twist": (lambda: chi_values(_CHARGE2, [0, "1"]), "m must be integers, got ('1',)"),
    "fractional t_min": (lambda: natural_table(_CHARGE2, -1.5, 1), "t_min must be integers, got (-1.5,)"),
    "fractional t_max": (lambda: natural_table(_CHARGE2, -1, 0.5), "t_max must be integers, got (0.5,)"),
    "fractional length": (lambda: enumerate_spectra(1.5, 2), "spectrum length must be integers, got (1.5,)"),
    "fractional bound": (lambda: enumerate_spectra(2, 1.5), "bound must be integers, got (1.5,)"),
    "fractional monad": (lambda: MonadType(0.5, 7, 2), "monad multiplicities must be integers, got (0.5, 7, 2)"),
    "fractional curve": (lambda: CurveInvariants(2.5, 0), "curve degree and genus must be integers, got (2.5, 0)"),
    "spectrum not a tuple": (lambda: Spectrum(5), "spectrum entries must be integers, got 5"),
    "fractional twist k": (lambda: twist(_CHARGE2, 0.5), "k must be integers, got (0.5,)"),
    "twist k above": (lambda: twist(_CHARGE2, 101), _OUT_OF_RANGE.format("k", 101)),
    "fractional curve-form class": (lambda: chi_curve_form(_QUINTIC, 0.5, 0), "c1 must be integers, got (0.5,)"),
    "fractional curve-form twist": (lambda: chi_curve_form(_QUINTIC, 0, 0.5), "m must be integers, got (0.5,)"),
    "curve-form twist above": (lambda: chi_curve_form(_QUINTIC, 0, 10 ** 6), _OUT_OF_RANGE.format("m", 10 ** 6)),
    "fractional ideal twist": (lambda: chi_ideal_sheaf(_QUINTIC, 0.5), "t must be integers, got (0.5,)"),
    "ideal twist below": (lambda: chi_ideal_sheaf(_QUINTIC, -101), _OUT_OF_RANGE.format("t", -101)),
    "fractional construction charge": (lambda: rational_normal_twist_degree(2.5), "charge must be integers, got (2.5,)"),
    "fractional threshold rank": (lambda: thooft_threshold(2.5), "rank must be integers, got (2.5,)"),
    "fractional section degree": (lambda: generated_by_two_sections(2.5), "degree must be integers, got (2.5,)"),
    "fractional charge": (lambda: chi_f1_charge(2.5), "charge must be integers, got (2.5,)"),
    "fractional curve c1": (lambda: curve_to_bundle(_QUINTIC, 2.5), "c1 must be integers, got (2.5,)"),
    "fractional h1 twist": (lambda: h1_from_spectrum(_ZERO_PAIR, -2.5), "l must be integers, got (-2.5,)"),
    "h1 twist below": (lambda: h1_from_spectrum(_ZERO_PAIR, -101), _OUT_OF_RANGE.format("l", -101)),
    "fractional h2 twist": (lambda: h2_from_spectrum(_ZERO_PAIR, 0.5), "l must be integers, got (0.5,)"),
    "h2 twist above": (lambda: h2_from_spectrum(_ZERO_PAIR, 101), _OUT_OF_RANGE.format("l", 101)),
    "edge m = 100": (lambda: euler_characteristic(_CHARGE2, 100), None),
    "edge m = -100": (lambda: chi_values(_CHARGE2, [-100]), None),
    "edge window -100..100": (lambda: natural_table(_CHARGE2, -100, 100), None),
    "edge Serre window -100..96": (lambda: serre_symmetry_check(_CHARGE2, -100, 96), None),
    "edge bound 100": (lambda: enumerate_spectra(1, 100), None),
    "edge k = -100": (lambda: twist(_CHARGE2, -100), None),
    "edge curve-form m = 100": (lambda: chi_curve_form(_QUINTIC, 0, 100), None),
    "edge ideal t = 100": (lambda: chi_ideal_sheaf(_QUINTIC, 100), None),
    "edge h1 l = -100": (lambda: h1_from_spectrum(_ZERO_PAIR, -100), None),
    "edge h2 l = 100": (lambda: h2_from_spectrum(_ZERO_PAIR, 100), None),
    "Chern class of 1001 digits": (
        lambda: ChernData(3, 0, 10 ** 1000, 0),
        "rank and Chern classes must be integers of at most 1000 digits",
    ),
    "edge Chern classes of 1000 digits, chi printed": (
        lambda: str(euler_characteristic(ChernData(3, -errors.MAX_INT, errors.MAX_INT, -errors.MAX_INT), 100)),
        None,
    ),
}


@pytest.mark.parametrize("call,refusal", PRECONDITIONS.values(), ids=PRECONDITIONS.keys())
def test_library_preconditions_raise_domain_errors(monkeypatch, call, refusal):
    products = []
    monkeypatch.setattr(chern, "mul", lambda x, y: products.append(1) or mul(x, y))
    if refusal is None:
        call()
        return
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == refusal
    assert isinstance(info.value, ToolkitError)
    assert isinstance(info.value, ValueError)
    assert products == []


# Every function of README "Input bounds", with one argument (or one entry of
# a tuple that mixes in a non-integer) replaced by x.  A value far past
# MAX_DIGITS, including one that cannot even be printed, is refused with a
# DomainError that does not print it.

_HUGE = 10 ** 5000
HUGE_VALUES = {
    "10**5000": _HUGE,
    "-10**5000": -_HUGE,
    "(10**5000 + 1)/2": Fraction(_HUGE + 1, 2),
    "1/10**5000": Fraction(1, _HUGE),
}
SIZE_PROBES = {
    "ChernData rank": lambda x: ChernData(x, 0, 0, 0),
    "ChernData c1": lambda x: ChernData(3, x, 0, 0),
    "ChernData c2": lambda x: ChernData(3, 0, x, 0),
    "ChernData c3": lambda x: ChernData(3, 0, 0, x),
    "ChernData mixed": lambda x: ChernData(3, x, 0.5, "x"),
    "chern_from_character rank": lambda x: chern_from_character(ONE, x),
    "euler_characteristic m": lambda x: euler_characteristic(_CHARGE2, x),
    "chi_values m": lambda x: chi_values(_CHARGE2, [0, x, 0.5]),
    "twist k": lambda x: twist(_CHARGE2, x),
    "ChiPolynomial m": lambda x: chi_polynomial(_CHARGE2)(x),
    "chi_ideal_sheaf t": lambda x: chi_ideal_sheaf(_QUINTIC, x),
    "h1_from_spectrum l": lambda x: h1_from_spectrum(_ZERO_PAIR, x),
    "h2_from_spectrum l": lambda x: h2_from_spectrum(_ZERO_PAIR, x),
    "chi_curve_form c1": lambda x: chi_curve_form(_QUINTIC, x, 0),
    "chi_curve_form m": lambda x: chi_curve_form(_QUINTIC, 0, x),
    "curve_to_bundle c1": lambda x: curve_to_bundle(_QUINTIC, x),
    "rational_normal_twist_degree": rational_normal_twist_degree,
    "chi_f1_charge": chi_f1_charge,
    "generated_by_two_sections": generated_by_two_sections,
    "thooft_threshold": thooft_threshold,
    "natural_table t_min": lambda x: natural_table(_CHARGE2, x, 0),
    "natural_table t_max": lambda x: natural_table(_CHARGE2, 0, x),
    "natural_table class": lambda x: natural_table(ChernData(3, x, 0, 0), 0, 1),
    "enumerate_spectra n": lambda x: enumerate_spectra(x, 1),
    "enumerate_spectra bound": lambda x: enumerate_spectra(2, x),
    "serre_symmetry_check t_min": lambda x: serre_symmetry_check(_CHARGE2, x, 0),
    "serre_symmetry_check t_max": lambda x: serre_symmetry_check(_CHARGE2, 0, x),
    "MonadType": lambda x: MonadType(x, x, 0),
    "CurveInvariants d": lambda x: CurveInvariants(x, 0),
    "CurveInvariants g": lambda x: CurveInvariants(5, x),
    "Spectrum mixed": lambda x: Spectrum((0, x, 0.5)),
    "Spectrum not a tuple": Spectrum,
}


# Chow classes with one coefficient past the cap.  chern_from_character may
# refuse them with a NonIntegralChernClass rather than a DomainError, but it
# must still raise a ToolkitError that does not print the coefficient.
CHARACTER_PROBES = {
    "a0 = 10**5000": ChowClass(_HUGE, 0, 0, 0),
    "a1 = 1/10**5000": ChowClass(3, Fraction(1, _HUGE), 0, 0),
    "a2 = 1/10**5000": ChowClass(3, 0, Fraction(1, _HUGE), 0),
    "a3 = 1/10**5000": ChowClass(3, 0, 0, Fraction(1, _HUGE)),
}


def _unrefused(calls, error_type) -> dict:
    """{key: what happened} for each call not refused by an error_type whose message is under 100 characters."""
    outcomes = {}
    for key, call in calls:
        try:
            call()
            outcomes[key] = "accepted"
        except error_type as exc:
            if len(str(exc)) >= 100:
                outcomes[key] = "printed"
        except Exception as exc:  # any other type is what these tests exist to catch
            outcomes[key] = type(exc).__name__
    return outcomes


def test_huge_inputs_raise_domain_errors_that_do_not_print_them():
    calls = (
        ((name, shown), partial(call, x)) for name, call in SIZE_PROBES.items() for shown, x in HUGE_VALUES.items()
    )
    assert _unrefused(calls, DomainError) == {}


def test_huge_character_coefficients_raise_toolkit_errors_that_do_not_print_them():
    calls = ((name, partial(chern_from_character, x, 3)) for name, x in CHARACTER_PROBES.items())
    assert _unrefused(calls, ToolkitError) == {}
    # Printable coefficients are still shown.
    with pytest.raises(NonIntegralChernClass, match="^c1 is not an integer: 1/2$"):
        chern_from_character(ChowClass(3, Fraction(1, 2), 0, 0), 3)


def test_twist_and_monad_results_past_the_digit_cap_are_refused():
    cap = "rank and Chern classes must be integers of at most 1000 digits"
    with pytest.raises(DomainError, match=cap):
        twist(ChernData(3, errors.MAX_INT, 0, 0), 1)
    with pytest.raises(DomainError, match=cap):
        monad_chern(MonadType(0, errors.MAX_INT, errors.MAX_INT - 1))


def test_integer_valued_scalar_inputs_are_stored_as_int():
    chi = euler_characteristic(_CHARGE2, 1.0)
    assert (chi, type(chi)) == (6, int)
    assert [type(t) for t in natural_table(_CHARGE2, -1.0, Fraction(0)).rows] == [int, int]
    assert [sp.ks for sp in enumerate_spectra(2.0, Fraction(1))] == [(-1, 1), (0, 0)]
    assert [type(v) for v in vars(MonadType(2.0, 7, Fraction(2))).values()] == [int, int, int]
    assert serre_symmetry_check(_CHARGE2, -10.0, Fraction(6))
    curve = CurveInvariants(5.0, -0.0)
    assert [type(curve.d), type(curve.g)] == [int, int]
    assert twist(_CHARGE2, 1.0) == twist(_CHARGE2, 1)
    assert [type(v) for v in vars(twist(_CHARGE2, Fraction(1))).values()] == [int, int, int, int]
    assert [type(chi_curve_form(_QUINTIC, Fraction(0), -1.0)), type(chi_ideal_sheaf(_QUINTIC, 3.0))] == [int, int]
    assert [rational_normal_twist_degree(2.0), thooft_threshold(Fraction(3))] == [3, 2]
    assert [type(h1_from_spectrum(_ZERO_PAIR, -1.0)), type(h2_from_spectrum(_ZERO_PAIR, -3.0))] == [int, int]


# Each refusal, byte for byte.  Where several bounds fail at once, the order
# decides the message: rank, then twist or window bound, then empty window,
# then parity; for spectra n, then bound, then the search-space ceiling.
REFUSALS = {
    "chi 3 0 2 0 --m 101": "m = 101 is out of range; |m| must be at most 100",
    "chi 3 0 2 1 --m 200": "m = 200 is out of range; |m| must be at most 100",
    "chi 0 0 0 0 --m 200": "rank must be a positive integer, got 0",
    "table 3 0 2 0 -200 1": "t_min = -200 is out of range; |t_min| must be at most 100",
    "table 3 0 2 0 1 200": "t_max = 200 is out of range; |t_max| must be at most 100",
    "table 3 0 2 0 200 -200": "t_min = 200 is out of range; |t_min| must be at most 100",
    "table 3 0 2 1 -200 1": "t_min = -200 is out of range; |t_min| must be at most 100",
    "table 3 0 2 1 1 0": "empty twist window: t_min = 1 exceeds t_max = 0",
    "spectra 0": "spectrum length must be positive, got 0",
    "spectra 0 --bound 200": "spectrum length must be positive, got 0",
    "spectra 0 --bound 0": "spectrum length must be positive, got 0",
    "spectra 2 --bound 0": "bound must be between 1 and 100, got 0",
    "spectra 2 --bound 101": "bound must be between 1 and 100, got 101",
    "spectra 1 --bound 101": "bound must be between 1 and 100, got 101",
    "spectra 8 --bound 100": (
        "enumerating length-8 spectra with bound 100 exceeds the search-space ceiling of 1000000 candidates"
    ),
    f"chi 3 {'9' * 1500} 0 0": "rank and Chern classes must be integers of at most 1000 digits",
}


@pytest.mark.parametrize("argv,message", REFUSALS.items(), ids=REFUSALS.keys())
def test_refusal_bytes(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (cli.EXIT_USAGE, "", f"error: {message}\n")


def test_spectra_text(capsys):
    rc, out, _ = run_cli(capsys, "spectra", "2")
    assert rc == 0
    assert out == (
        "(-1,1): h1(-2)=1 h2(-2)=1 instanton=no\n"
        "(0,0): h1(-2)=0 h2(-2)=0 instanton=yes\n"
    )


SPECTRA_2_JSON = """\
{
  "bound": 1,
  "n": 2,
  "spectra": [
    {
      "h1_minus2": 1,
      "h2_minus2": 1,
      "instanton": false,
      "ks": [
        -1,
        1
      ]
    },
    {
      "h1_minus2": 0,
      "h2_minus2": 0,
      "instanton": true,
      "ks": [
        0,
        0
      ]
    }
  ]
}
"""


def test_spectra_json(capsys):
    assert run_cli(capsys, "spectra", "2", "--bound", "1", "--format", "json") == (0, SPECTRA_2_JSON, "")


# Every length 1..6 at bounds 1..4, then the six searches of the cli-mix benchmark.
SPECTRA_SEARCHES = [(n, b) for n in range(1, 7) for b in range(1, 5)]
SPECTRA_SEARCHES += [(4, 8), (3, 20), (8, 4), (4, 12), (5, 9), (4, 15)]


@pytest.mark.parametrize("n,bound", SPECTRA_SEARCHES)
def test_spectra_json_is_the_indented_json_document(capsys, n, bound):
    # The JSON listing is exactly what json.dumps(indent=2, sort_keys=True)
    # makes of the search, and the text listing names the same spectra in order.
    found = enumerate_spectra(n, bound)
    entries = [
        {
            "ks": list(sp.ks),
            "h1_minus2": h1_from_spectrum(sp, -2),
            "h2_minus2": h2_from_spectrum(sp, -2),
            "instanton": is_instanton_spectrum(sp),
        }
        for sp in found
    ]
    doc = {"n": n, "bound": bound, "spectra": entries}
    argv = ("spectra", str(n), "--bound", str(bound))
    assert run_cli(capsys, *argv, "--format", "json") == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n", "")
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, err) == (0, "")
    assert [line.split(":")[0] for line in out.splitlines()] == [f"({','.join(map(str, sp.ks))})" for sp in found]


# sha256 and byte count of whole outputs: spectra listings in both formats
# (every cli-mix search in JSON, and a one-entry search), the chi and table
# JSON, which write Chern data through chern._jsonable, and one wide table
# as text.
CLI_DIGESTS = {
    "spectra 5 --bound 9": ("925f7fb6cd9608fe3ad8ed5d258c41f627610c3823c565757b81ee552dfbf600", 46061),
    "spectra 5 --bound 9 --format json": ("24b01466e577edfa1fcce10057ab621a72a260dc654971e7253c232b57e66e24", 157310),
    "spectra 8 --bound 4": ("cc992d06dd698c776761c6a98eff3ca37244cbe0d043283ea1712562e529432e", 28438),
    "spectra 8 --bound 4 --format json": ("02a8ad8aaf711a47c7bac80c270b4be4b622f7db8c124cd807b177bae8d5739f", 103174),
    "chi 3 0 2 0 --m 1 --format json": ("fbfe5d96689e0c903358870e8bee4b92ea8b273d4d572f81c70a4e0b798abe52", 70),
    "table 3 0 2 0 -5 1 --format json": ("1eda1e59cf0af0b773a3f2e5c9a03ffec312c3cb28c96b9ad97adc5da32211ed", 706),
    "table 3 3 5 3 -100 100 --format json": ("432c9f64875b5cfc1f5bb4f0d8751c5091ca509b9c4b15e2c0fec42561f33c65", 19427),
    "table 3 3 5 3 -100 100": ("8480b7bc2284377598172c04dfc1b26e1bae19690d5f81ffcea774290fedeb68", 5858),
    "spectra 4 --bound 8 --format json": ("5ecc12ad196e93431d5a830fed56daad26bd3ce31a1ad2072f16f61f1e85f149", 26657),
    "spectra 3 --bound 20 --format json": ("a27ea3500f2820c5f7df3c854683d84d113f1cb78e471683a0008857733b788d", 31279),
    "spectra 4 --bound 12 --format json": ("f67cb24b3295458ef334f5e18207eb8391caafa3e563a58cfeca76930e5811b7", 78970),
    "spectra 4 --bound 15 --format json": ("6508c5a6988d163d073b7ece3822f8b3c8db4c1a7c2ece7326cac8f2ed31c7b2", 146233),
    "spectra 1 --bound 1 --format json": ("7c18363374ce78efe02a713548503c6437aef5b91b0101583bc1e80f78f169e5", 160),
}


@pytest.mark.parametrize("argv,digest", CLI_DIGESTS.items(), ids=CLI_DIGESTS.keys())
def test_cli_output_digest(capsys, argv, digest):
    rc, out, err = run_cli(capsys, *argv.split())
    data = out.encode()
    assert (rc, err) == (0, "")
    assert (hashlib.sha256(data).hexdigest(), len(data)) == digest


def test_spectra_argument_validation(capsys):
    rc, _, err = run_cli(capsys, "spectra", "12", "--bound", "100")
    assert rc == cli.EXIT_USAGE
    assert "search-space" in err
    assert run_cli(capsys, "spectra", "8", "--bound", "100") == (
        cli.EXIT_USAGE,
        "",
        "error: enumerating length-8 spectra with bound 100 exceeds the "
        f"search-space ceiling of {instanton3.spectrum.MAX_SEARCH_SPACE} candidates\n",
    )


def test_verify_paper_passes_on_a_clean_build(capsys):
    rc, out, _ = run_cli(capsys, "verify-paper")
    assert rc == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "49 claims: 49 passed, 0 failed"


# Runs ``python -m instanton3 <argv>`` once per argv read from stdin, in one
# interpreter, and writes each exit code, stdout and stderr as JSON.
_REPLAY_MODULE_RUNS = """
import contextlib, io, json, runpy, sys
runs = []
for argv in json.load(sys.stdin):
    sys.argv = ["instanton3", *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("instanton3", run_name="__main__")
        except SystemExit as exc:
            runs.append((exc.code, out.getvalue(), err.getvalue()))
json.dump({"optimize": sys.flags.optimize, "runs": runs}, sys.stdout)
"""


def test_verify_paper_passes_under_python_O():
    # python -O strips asserts: every pinned refusal, every pinned digest and
    # the clean-build verify-paper report pair must come out unchanged.
    argvs = [*REFUSALS, *CLI_DIGESTS, "verify-paper", "verify-paper --format json"]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REPLAY_MODULE_RUNS],
        input=json.dumps([argv.split() for argv in argvs]),
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    replay = json.loads(proc.stdout)
    assert replay["optimize"] == 1
    runs = dict(zip(argvs, map(tuple, replay["runs"])))
    assert list(runs) == argvs
    for argv, message in REFUSALS.items():
        assert runs[argv] == (cli.EXIT_USAGE, "", f"error: {message}\n"), argv
    for argv, digest in CLI_DIGESTS.items():
        rc, out, err = runs[argv]
        data = out.encode()
        assert (rc, err, (hashlib.sha256(data).hexdigest(), len(data))) == (cli.EXIT_OK, "", digest), argv
    (text_rc, text, _), (json_rc, doc, _) = runs["verify-paper"], runs["verify-paper --format json"]
    assert text.splitlines()[-1] == "49 claims: 49 passed, 0 failed"
    assert (hashlib.md5((text + doc).encode()).hexdigest(), (text_rc, json_rc)) == REPORT_DIGESTS["clean build"]


def test_verify_paper_json(capsys):
    rc, out, _ = run_cli(capsys, "verify-paper", "--format", "json")
    assert rc == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["total"] == 49
    assert payload["failed"] == 0
    assert len(payload["claims"]) == 49
    assert all(claim["pass"] for claim in payload["claims"])


def test_verify_paper_fails_on_a_corrupted_constant(capsys, monkeypatch):
    from instanton3 import moduli

    monkeypatch.setattr(moduli, "CHANG_MODULI_DIM", 18)
    rc, out, _ = run_cli(capsys, "verify-paper")
    assert rc == cli.EXIT_VERIFY_FAILED
    assert "FAIL" in out


def test_usage_errors(capsys):
    assert run_cli(capsys)[0] == cli.EXIT_USAGE
    assert run_cli(capsys, "frobnicate")[0] == cli.EXIT_USAGE
    assert run_cli(capsys, "chi", "3", "0", "2")[0] == cli.EXIT_USAGE
    assert run_cli(capsys, "chi", "three", "0", "2", "0")[0] == cli.EXIT_USAGE
    assert run_cli(capsys, "chi", "0", "0", "0", "0")[0] == cli.EXIT_USAGE


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "table", "--help")[0] == 0


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


SEQUENCE = (
    ("chi", "3", "0", "2"),
    ("--help",),
    ("chi", "3", "0", "2", "0", "--m", "1"),
)


def test_shared_parser_matches_a_fresh_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    alone = []
    for argv in SEQUENCE:
        cli.build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    back_to_back = [run_cli(capsys, *argv) for argv in SEQUENCE]
    assert back_to_back == alone
    assert [rc for rc, _, _ in alone] == [cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_OK]
    assert alone[0][2].startswith("usage: instanton3 chi ")
    assert alone[1][1].startswith("usage: instanton3 ")
    assert alone[2][1:] == ("6\n", "")


def test_defaults_do_not_leak_between_calls(capsys):
    assert run_cli(capsys, "chi", "3", "0", "2", "0", "--m", "1", "--format", "json")[0] == 0
    assert run_cli(capsys, "chi", "3", "0", "2", "0") == (0, "-1\n", "")
    assert run_cli(capsys, "spectra", "2", "--bound", "2", "--format", "json")[0] == 0
    assert run_cli(capsys, "spectra", "2")[1] == (
        "(-1,1): h1(-2)=1 h2(-2)=1 instanton=no\n"
        "(0,0): h1(-2)=0 h2(-2)=0 instanton=yes\n"
    )


def test_handlers_are_looked_up_when_main_runs(capsys, monkeypatch):
    cli.build_parser()
    monkeypatch.setattr(cli, "cmd_chi", lambda args: 7)
    assert run_cli(capsys, "chi", "3", "0", "2", "0") == (7, "", "")


def test_entry_raises_system_exit(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["instanton3", "chi", "3", "0", "2", "0", "--m", "1"])
    with pytest.raises(SystemExit) as excinfo:
        cli.entry()
    assert excinfo.value.code == 0


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "instanton3", "table", "3", "0", "2", "0", "-5", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == CHARGE2_TABLE + "\n"


def test_package_import_leaves_the_oracle_checklist_and_dataclasses_out():
    # cubics.py is the tests' independent root-counting oracle; no package code path needs it.
    # verify.py is the claim checklist; the CLI loads it only for verify-paper.
    # curvelink.py and binomials.py serve only the checklist, and the namespace does not re-export them.
    # The records share errors.Record, so start-up loads neither dataclasses nor the inspect it pulls in.
    # cli.py imports json only when it prints JSON.
    unloaded = (
        "instanton3.cubics", "instanton3.verify", "instanton3.curvelink", "instanton3.binomials", "dataclasses", "inspect",
        "json",
    )
    code = f"import sys, instanton3, instanton3.cli; print([m in sys.modules for m in {unloaded}])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, f"{[False] * len(unloaded)}\n")


QUICK_TOUR_API = {
    "chern_character",
    "euler_characteristic",
    "twist",
    "natural_table",
    "charge2_dimension_chain",
    "ext_difference",
    "ChernData",
    "ChowClass",
    "CohomTable",
    "ModuliReport",
}


def test_package_namespace_is_the_quick_tour_api_and_the_error_catalogue():
    # Every other name has one import path, its module, so no re-export may creep back.
    catalogue = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, ToolkitError)}
    assert len(catalogue) == 10
    public = {name for name, obj in vars(instanton3).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == QUICK_TOUR_API | catalogue
    assert isinstance(instanton3.__version__, str)


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_script_command():
    """Return the argv prefix that runs the ``instanton3`` console script.

    An installed script on PATH is used as is. A checkout that is not
    installed has no script, so the entry point declared under
    ``[project.scripts]`` is run the way setuptools' wrapper runs it.
    """
    installed = shutil.which("instanton3")
    if installed:
        return [installed]
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    target = scripts["instanton3"]
    assert target == "instanton3.cli:entry"
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return [sys.executable, "-c", code]


def test_package_version_is_the_pyproject_version():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == instanton3.__version__


def test_console_script_smoke():
    proc = subprocess.run(
        [*console_script_command(), "verify-paper", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


# Generated inputs: the same scalars on the command line (as text) and in the
# record constructors.  Integers at every scale up to one digit past the cap,
# floats, words and None.
INTEGERS = st.one_of(
    st.sampled_from([0, 1, -1, 100, -100, 101, -101]),
    st.builds(lambda k, sign: sign * 10 ** k, st.integers(0, errors.MAX_DIGITS), st.sampled_from([1, -1])),
)
SCALARS = st.one_of(
    INTEGERS,
    st.sampled_from([0.5, -1.5, 2.0, float("inf"), float("nan")]),
    st.sampled_from(["x", "", "1/0", None]),
)
POSITIONALS = {"chi": 4, "table": 6, "spectra": 1, "verify-paper": 0, "frobnicate": 0}
OPTIONS = {"chi": "--m", "spectra": "--bound"}
ARGPARSE_ERROR = re.compile(r"instanton3( [a-z-]+)?: error: ")


@st.composite
def command_lines(draw):
    """A subcommand (or an unknown one), its positionals with at times one missing or extra, its option, a format."""
    command = draw(st.sampled_from(sorted(POSITIONALS)))
    values = draw(st.sampled_from([INTEGERS, INTEGERS, SCALARS]))  # else few lines would get past argparse
    count = max(0, POSITIONALS[command] + draw(st.sampled_from([0, 0, 0, -1, 1])))
    argv = [command, *[str(draw(values)) for _ in range(count)]]
    if command in OPTIONS and draw(st.booleans()):
        argv += [OPTIONS[command], str(draw(values))]
    return argv + draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"]]))


@settings(max_examples=300, deadline=None)
@given(command_lines())
@example(["chi", "3", "0", "2", "0", "--m", "-100", "--format", "json"])
@example(["table", "3", "0", "2", "0", "-100", "100", "--format", "json"])
@example(["table", "1", "0", "0", "0", "-1", "1"])
@example(["table", "3", "0", "-100", "0", "-1", "1"])
@example(["spectra", "1", "--bound", "100", "--format", "json"])
@example(["verify-paper", "--format", "json"])
def test_generated_command_lines_keep_the_exit_code_contract(argv):
    # In process: any exception but argparse's SystemExit would escape main and fail here.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3) or (code == 1 and argv[0] == "verify-paper")
    if code == 0:
        assert err == ""
        if argv[-1] == "json":
            json.loads(out)
    elif code != 1:
        lines = err.splitlines()
        assert out == ""
        assert (len(lines) == 1 and lines[0].startswith("error: ")) or (
            lines[0].startswith("usage: ") and ARGPARSE_ERROR.match(lines[-1])
        )


HYPOTHESES = [(), ("stable",), ("ext2_vanishes",), ("stable", "ext2_vanishes")]


@settings(max_examples=300, deadline=None)
@given(st.lists(SCALARS, min_size=4, max_size=4), st.sampled_from(HYPOTHESES))
def test_record_constructors_return_a_record_or_raise_a_toolkit_error(values, hypotheses):
    # Every scalar parameter of the eleven record types takes a generated value;
    # the others (a ChernData, a hypothesis tuple, a derivation) are well formed.
    a, b, c, d = values
    claim = Claim("c", "two", 2, int)
    calls = {
        ChernData: lambda: ChernData(a, b, c, d),
        ChiPolynomial: lambda: ChiPolynomial(values),
        ChowClass: lambda: ChowClass(a, b, c, d),
        MonadType: lambda: MonadType(a, b, c),
        CohomTable: lambda: CohomTable(_CHARGE2, {a: (b, c, d, a)}),
        Spectrum: lambda: Spectrum(values),
        DerivationStep: lambda: DerivationStep(a, b, c),
        ModuliReport: lambda: ModuliReport(_CHARGE2, a, b, hypotheses, c, (DerivationStep("chi(End F)", a, "RR"),)),
        CurveInvariants: lambda: CurveInvariants(a, b),
        Claim: lambda: Claim(a, b, c, d),
        ClaimResult: lambda: ClaimResult(claim, a, b, c),
    }
    for record_type, call in calls.items():
        try:
            assert type(call()) is record_type
        except ToolkitError:
            pass
