"""Ring laws and pinned values for the truncated Chow-ring arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from instanton3.chern import ChernData, ChiPolynomial
from instanton3.chowring import ChowClass, exp_line, mul, todd_p3
from instanton3.cohomtable import CohomTable, MonadType
from instanton3.curvelink import CurveInvariants
from instanton3.errors import DomainError, Record
from instanton3.moduli import DerivationStep, ModuliReport
from instanton3.spectrum import Spectrum
from instanton3.verify import Claim, ClaimResult

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
chow_classes = st.builds(ChowClass, rationals, rationals, rationals, rationals)
small_ints = st.integers(min_value=-20, max_value=20)

ONE = ChowClass(1, 0, 0, 0)


def add(x, y):
    """Componentwise sum, the additive law that mul must distribute over."""
    return ChowClass(*(a + b for a, b in zip(x.coeffs, y.coeffs)))


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
    # chi(O(2)) on P^3 through the pairing: the H^3 coefficient.
    assert mul(exp_line(2), todd_p3()).a3 == 10


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


CHARGE2 = ChernData(3, 0, 2, 0)

#: One instance of each record type: how to build it, its field names, and its repr.
RECORDS = [
    (lambda: ChernData(3, 3, 5, 3), ("rank", "c1", "c2", "c3"), "ChernData(rank=3, c1=3, c2=5, c3=3)"),
    (
        lambda: ChiPolynomial((1, Fraction(11, 6), 2, Fraction(1, 2))),
        ("coeffs",),
        "ChiPolynomial(coeffs=(Fraction(1, 1), Fraction(11, 6), Fraction(2, 1), Fraction(1, 2)))",
    ),
    (
        lambda: ChowClass(3, 0, -2, Fraction(1, 6)),
        ("a0", "a1", "a2", "a3"),
        "ChowClass(a0=Fraction(3, 1), a1=Fraction(0, 1), a2=Fraction(-2, 1), a3=Fraction(1, 6))",
    ),
    (lambda: MonadType(2, 7, 2), ("a", "b", "c"), "MonadType(a=2, b=7, c=2)"),
    (
        lambda: CohomTable(CHARGE2, {-1: (0, 2, 0, 0), 1: (6, 0, 0, 0)}),
        ("chern", "rows"),
        "CohomTable(chern=ChernData(rank=3, c1=0, c2=2, c3=0), rows={-1: (0, 2, 0, 0), 1: (6, 0, 0, 0)})",
    ),
    (lambda: Spectrum((-1, 1)), ("ks",), "Spectrum(ks=(-1, 1))"),
    (
        lambda: DerivationStep("fiber", 6, "chi(F(1))"),
        ("quantity", "value", "provenance"),
        "DerivationStep(quantity='fiber', value=6, provenance='chi(F(1))')",
    ),
    (
        lambda: ModuliReport(CHARGE2, -15, 16, ("stable",), None, (DerivationStep("chi(End F)", -15, "Riemann-Roch"),)),
        ("chern", "chi_end", "ext_diff", "hypotheses", "dimension", "derivation"),
        "ModuliReport(chern=ChernData(rank=3, c1=0, c2=2, c3=0), chi_end=-15, ext_diff=16, hypotheses=('stable',), "
        "dimension=None, derivation=(DerivationStep(quantity='chi(End F)', value=-15, provenance='Riemann-Roch'),))",
    ),
    (lambda: CurveInvariants(5, 0), ("d", "g"), "CurveInvariants(d=5, g=0)"),
    (
        lambda: Claim("c", "two", 2, int),
        ("id", "statement", "expected", "compute"),
        "Claim(id='c', statement='two', expected=2, compute=<class 'int'>)",
    ),
    (
        lambda: ClaimResult(Claim("c", "two", 2, int), 0, False, "no"),
        ("claim", "actual", "ok", "error"),
        "ClaimResult(claim=Claim(id='c', statement='two', expected=2, compute=<class 'int'>), actual=0, ok=False, "
        "error='no')",
    ),
]


@pytest.mark.parametrize("make, names, shown", RECORDS, ids=[shown[: shown.index("(")] for _, _, shown in RECORDS])
def test_record_is_hashable_and_frozen(make, names, shown):
    # Records compare by exact type and field tuple: never equal to a plain
    # tuple, nor to another type holding the same values.
    x, copy = make(), make()
    assert x == copy and hash(x) == hash(copy)
    values = tuple(getattr(x, name) for name in names)
    other = type("Other", (type(x),), {})(*values)
    assert x != values and values != x
    assert x != other and other != x
    assert repr(x) == shown
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == copy


def test_record_fields_are_the_init_parameters_of_exactly_these_eleven_types():
    # Record.__init_subclass__ reads each type's fields off its __init__, so a
    # new record type, or a renamed or reordered parameter, must show up here.
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    package = {cls: cls._fields for cls in subclasses(Record) if cls.__module__.startswith("instanton3.")}
    assert package == {type(make()): names for make, names, _ in RECORDS}


def test_records_take_keywords_and_claim_result_error_defaults_to_none():
    assert CurveInvariants(g=0, d=5) == CurveInvariants(5, 0)
    assert ChowClass(a3=1, a0=3, a2=0, a1=0) == ChowClass(3, 0, 0, 1)
    assert ClaimResult(Claim("c", "two", 2, int), 2, True).error is None


REFUSED_BY_FRACTION = ["x", None, float("inf"), float("nan"), "1/0", 1j, "9" * 5000 + "x"]


@pytest.mark.parametrize("bad", REFUSED_BY_FRACTION, ids=["word", "none", "inf", "nan", "zero-den", "complex", "long-word"])
def test_chow_class_and_chi_polynomial_refuse_what_fraction_refuses(bad):
    # A DomainError that never prints the value, not Fraction's ValueError,
    # TypeError or OverflowError escaping the ToolkitError root.
    with pytest.raises(DomainError, match="^Chow class coefficients must be rational numbers$"):
        ChowClass(0, 0, bad, 0)
    with pytest.raises(DomainError, match="^a chi polynomial needs exactly four rational coefficients$"):
        ChiPolynomial((1, 2, 3, bad))
    with pytest.raises(DomainError, match="^a scale factor must be a rational number$"):
        ChowClass(1, 0, 0, 0).scale(bad)


@pytest.mark.parametrize("coeffs", [(1, 2), (), (1, 2, 3, 4, 5), 5, None], ids=["two", "none-given", "five", "int", "None"])
def test_chi_polynomial_needs_exactly_four_coefficients(coeffs):
    # Two coefficients used to build, then fail inside __call__ on unpacking.
    with pytest.raises(DomainError, match="^a chi polynomial needs exactly four rational coefficients$"):
        ChiPolynomial(coeffs)
