"""Moduli-dimension bookkeeping: the Ext difference and the construction chain."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from instanton3 import moduli
from instanton3.chern import ChernData, _jsonable, chi_endomorphisms
from instanton3.errors import ConsistencyError, DomainError, RankUnsupported
from instanton3.moduli import (
    DerivationStep,
    ModuliReport,
    charge2_dimension_chain,
    ext_difference,
    smooth_dimension,
)

CHARGE2 = ChernData(3, 0, 2, 0)

class_range = st.integers(min_value=-12, max_value=12)
rank3_data = st.builds(ChernData, st.just(3), class_range, class_range, class_range)


def test_ext_difference_pinned_values():
    assert ext_difference(CHARGE2) == 16
    assert ext_difference(ChernData(3, 0, 0, 0)) == -8
    assert ext_difference(ChernData(3, 1, 3, 1)) == 24
    assert ext_difference(ChernData(3, 0, 5, 0)) == 52


#: The rank rule of the moduli layer is chi_endomorphisms's own.
OTHER_RANK = "^endomorphism chi through the Chow ring needs rank 3, got {}$"


def test_ext_difference_rejects_other_ranks():
    for rank in (2, 4):
        with pytest.raises(RankUnsupported, match=OTHER_RANK.format(rank)):
            ext_difference(ChernData(rank, 0, 2, 0))


@given(rank3_data)
def test_ext_difference_is_one_minus_chi_end(d):
    assert ext_difference(d) == 1 - chi_endomorphisms(d)


@given(st.integers(min_value=2, max_value=10))
def test_ext_difference_along_the_charge_family(n):
    assert ext_difference(ChernData(3, 0, n, 0)) == 12 * n - 8


def test_smooth_dimension_rejects_other_ranks():
    for rank in (2, 4):
        with pytest.raises(RankUnsupported, match=OTHER_RANK.format(rank)):
            smooth_dimension(ChernData(rank, 0, 2, 0))


def test_smooth_dimension_report():
    report = smooth_dimension(CHARGE2)
    assert report.dimension == 16
    assert report.chi_end == -15
    assert report.ext_diff == 16
    assert report.hypotheses == ("stable", "ext2_vanishes")
    assert len(report.derivation) == 3
    assert all(isinstance(s, DerivationStep) and s.provenance for s in report.derivation)


@given(st.integers(min_value=2, max_value=8))
def test_smooth_dimension_along_the_charge_family(n):
    report = smooth_dimension(ChernData(3, 0, n, 0))
    assert report.dimension == 12 * n - 8


def test_report_invariants_are_enforced():
    with pytest.raises(ValueError, match="1 - chi"):
        ModuliReport(CHARGE2, chi_end=-15, ext_diff=15, hypotheses=("stable",), dimension=None, derivation=())
    with pytest.raises(ValueError, match="Ext\\^2"):
        ModuliReport(CHARGE2, chi_end=-15, ext_diff=16, hypotheses=("stable",), dimension=16, derivation=())
    with pytest.raises(ValueError, match="equal the Ext difference"):
        ModuliReport(
            CHARGE2, chi_end=-15, ext_diff=16,
            hypotheses=("stable", "ext2_vanishes"), dimension=15, derivation=(),
        )


@pytest.mark.parametrize(
    "hypotheses, ext_diff, dimension",
    [("unstable", 17, None), ("stable ext2_vanishes", 16, 16), (("stable", 1), 16, None), (["stable"], 16, None)],
    ids=["unstable-string", "joined-string", "non-string-entry", "list"],
)
def test_report_refuses_hypotheses_that_are_not_a_tuple_of_the_two_names(hypotheses, ext_diff, dimension):
    # A substring test read "stable" inside "unstable" and demanded the
    # stability identity of a report that asserts none; a joined string
    # built, and its JSON showed a string, not a list.
    with pytest.raises(DomainError, match="^hypotheses must be a tuple whose entries are each 'stable' or 'ext2_vanishes'$"):
        ModuliReport(CHARGE2, -15, ext_diff, hypotheses, dimension, ())


@pytest.mark.parametrize("dimension", [16.0, Fraction(16)])
def test_report_stores_an_integer_valued_dimension_as_an_int(dimension):
    report = ModuliReport(CHARGE2, -15, 16, ("stable", "ext2_vanishes"), dimension, ())
    assert type(report.dimension) is int
    assert report.dimension == 16
    assert _jsonable(report)["dimension"] == 16


@pytest.mark.parametrize("dimension", ["x", [16], 16.5])
def test_report_refuses_a_dimension_that_is_not_an_integer(dimension):
    with pytest.raises(DomainError, match="the reported dimension must be integers"):
        ModuliReport(CHARGE2, -15, 16, ("stable", "ext2_vanishes"), dimension, ())


def test_report_refuses_a_chern_field_that_is_not_chern_data():
    # It built, and the JSON rendered the string where [rank, c1, c2, c3] belongs.
    with pytest.raises(DomainError, match="^chern must be a ChernData$"):
        ModuliReport("not a class", -15, 16, ("stable",), None, ())


@pytest.mark.parametrize(
    "derivation",
    [[DerivationStep("chi(End F)", -15, "RR")], (1, "x")],
    ids=["list", "non-step-entries"],
)
def test_report_refuses_a_derivation_that_is_not_a_tuple_of_steps(derivation):
    # A list built a report whose hash() raised TypeError; (1, "x") rendered as [1, "x"].
    with pytest.raises(DomainError, match="^derivation must be a tuple of DerivationStep$"):
        ModuliReport(CHARGE2, -15, 16, ("stable",), None, derivation)


def test_charge2_chain_reaches_sixteen():
    report = charge2_dimension_chain()
    assert report.dimension == 16
    assert [step.value for step in report.derivation] == [19, 3, 22, 6, 16]
    assert report.derivation[2].value == report.derivation[0].value + report.derivation[1].value
    assert report.derivation[4].value == report.derivation[2].value - report.derivation[3].value
    assert report.hypotheses == ("stable", "ext2_vanishes")
    assert report.chern == CHARGE2


def test_chain_agrees_with_the_ext_route():
    assert charge2_dimension_chain().dimension == ext_difference(CHARGE2)


def _steps(*rows):
    return [{"quantity": q, "value": v, "provenance": p} for q, v, p in rows]


#: The whole JSON payload of each report, key order included.
REPORT_PAYLOADS = {
    "charge2 chain": (charge2_dimension_chain, {
        "chern": [3, 0, 2, 0],
        "chi_end": -15,
        "ext_diff": 16,
        "hypotheses": ["stable", "ext2_vanishes"],
        "dimension": 16,
        "derivation": _steps(
            ("dim of the reflexive-sheaf moduli", 19,
             "quoted constant: stable rank-2 reflexive sheaves with classes (-1, 3, 3) (Chang)"),
            ("dim Ext^1(E(2), O)", 3, "quoted constant: extension classes over a fixed reflexive sheaf"),
            ("dim of the pair space", 22, "sum of the two previous entries"),
            ("fiber dim h^0(F(1))", 6, "chi(F(1)) plus h^1(F(1)) = 0 read off the natural table at twist 1"),
            ("dim of the charge-2 family", 16, "pair space minus fiber"),
        ),
    }),
    "charge5 smooth point": (lambda: smooth_dimension(ChernData(3, 0, 5, 0)), {
        "chern": [3, 0, 5, 0],
        "chi_end": -51,
        "ext_diff": 52,
        "hypotheses": ["stable", "ext2_vanishes"],
        "dimension": 52,
        "derivation": _steps(
            ("chi(End F)", -51, "Riemann-Roch on the endomorphism bundle"),
            ("dim Ext^1 - dim Ext^2", 52, "1 - chi(End F) given Hom = C and Ext^3 = 0"),
            ("dim at a smooth point", 52, "Ext^2 = 0 turns the difference into the dimension"),
        ),
    }),
}


def test_report_json_shape():
    for name, (build, expected) in REPORT_PAYLOADS.items():
        assert json.dumps(_jsonable(build())) == json.dumps(expected), name


# The two cross-checks raise, so they survive python -O.


def test_corrupted_ext_coefficients_raise_consistency_error(monkeypatch):
    monkeypatch.setattr(moduli, "EXT_DIFF_COEFFS", (-4, 12, -7))
    with pytest.raises(ConsistencyError, match="disagrees with 1 - chi\\(End\\)"):
        ext_difference(CHARGE2)


def test_corrupted_quoted_dimension_breaks_the_chain(monkeypatch):
    monkeypatch.setattr(moduli, "CHANG_MODULI_DIM", 18)
    with pytest.raises(ConsistencyError, match="construction chain disagrees"):
        charge2_dimension_chain()


OPTIMIZED_PROBE = """
import json, sys
from instanton3 import ChernData, ConsistencyError, ext_difference, moduli
moduli.EXT_DIFF_COEFFS = (-4, 12, -7)
try:
    ext_difference(ChernData(3, 0, 2, 0))
    outcome = "returned"
except ConsistencyError as exc:
    outcome = str(exc)
print(json.dumps({"optimize": sys.flags.optimize, "outcome": outcome}))
"""


def test_ext_difference_cross_check_survives_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "optimize": 1,
        "outcome": "Ext-difference closed form disagrees with 1 - chi(End)",
    }
