"""Acceptance gate: the seven headline behaviors, checked exactly.

One test per criterion, each printing a single PASS or FAIL line (run with
``pytest -s`` to see them).  Every comparison is exact integer or exact
rational equality; no tolerances appear anywhere in this file.
"""

import contextlib
import importlib
import io
import random

from instanton3 import cli
from instanton3.chern import (
    ChernData,
    chern_character,
    chern_from_character,
    chi_endomorphisms,
    chi_endomorphisms_closed_form,
    dual,
    euler_characteristic,
    twist,
)
from instanton3.cohomtable import monad_chern, natural_table, serre_symmetry_check
from instanton3.cohomtable import MonadType
from instanton3.curvelink import (
    CurveInvariants,
    bundle_to_curve,
    chi_curve_form,
    curve_to_bundle,
    generated_by_two_sections,
    rational_normal_twist_degree,
)
from instanton3.moduli import charge2_dimension_chain, ext_difference
from instanton3.spectrum import Spectrum, enumerate_spectra, h1_from_spectrum, h2_from_spectrum
from instanton3.verify import MUTATION_TARGETS

CHARGE2 = ChernData(3, 0, 2, 0)
CASES = 1000


@contextlib.contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion-{number}: {summary}")
        raise
    print(f"PASS criterion-{number}: {summary}")


def test_criterion_1_dimension_sixteen():
    with criterion(1, "both dimension routes land exactly on 16"):
        assert ext_difference(CHARGE2) == 16
        report = charge2_dimension_chain()
        assert report.dimension == 16
        assert [step.value for step in report.derivation] == [19, 3, 22, 6, 16]
        assert 19 + 3 - 6 == report.dimension


def test_criterion_2_six_sections():
    with criterion(2, "chi(F(1)) = 6 and the twist-1 row is (6, 0, 0, 0)"):
        assert euler_characteristic(CHARGE2, 1) == 6
        assert natural_table(CHARGE2, 1, 1).rows[1] == (6, 0, 0, 0)


def test_criterion_3_spectrum_suite():
    with criterion(3, "charge-2 spectra enumerate and predict exactly"):
        assert [sp.ks for sp in enumerate_spectra(2, 1)] == [(-1, 1), (0, 0)]
        split, zero = Spectrum((-1, 1)), Spectrum((0, 0))
        assert h1_from_spectrum(split, -2) == 1
        assert h2_from_spectrum(split, -2) == 1
        assert h1_from_spectrum(zero, -2) == 0
        assert h2_from_spectrum(zero, -2) == 0
        assert h1_from_spectrum(split, -1) == 2


def test_criterion_4_natural_table():
    with criterion(4, "all seven charge-2 table rows reproduce bit-exactly"):
        assert dict(natural_table(CHARGE2, -5, 1).rows) == {
            -5: (0, 0, 0, 6),
            -4: (0, 0, 1, 0),
            -3: (0, 0, 2, 0),
            -2: (0, 0, 0, 0),
            -1: (0, 2, 0, 0),
            0: (0, 1, 0, 0),
            1: (6, 0, 0, 0),
        }


def test_criterion_5_identity_suite():
    with criterion(5, f"seven exact identities hold on {CASES} random cases each"):
        rng = random.Random(20260822)

        for _ in range(CASES):  # curve-form chi against the Riemann-Roch route
            c1 = rng.randint(-5, 5)
            d = rng.randint(1, 10)
            g = rng.randint(-8, 8)
            m = rng.randint(-12, 12)
            cv = CurveInvariants(d, g)
            assert chi_curve_form(cv, c1, m) == euler_characteristic(curve_to_bundle(cv, c1), m)

        for _ in range(CASES):  # endomorphism chi, ring route against closed form
            d3 = ChernData(3, rng.randint(-12, 12), rng.randint(-12, 12), rng.randint(-12, 12))
            assert chi_endomorphisms(d3) == chi_endomorphisms_closed_form(d3)

        for _ in range(CASES):  # Ext difference against 1 - chi(End)
            d3 = ChernData(3, rng.randint(-12, 12), rng.randint(-12, 12), rng.randint(-12, 12))
            assert ext_difference(d3) == 1 - chi_endomorphisms(d3)

        for _ in range(CASES):  # twist group law
            d3 = ChernData(rng.randint(1, 5), rng.randint(-12, 12), rng.randint(-12, 12), rng.randint(-12, 12))
            a, b = rng.randint(-15, 15), rng.randint(-15, 15)
            assert twist(twist(d3, a), b) == twist(d3, a + b)

        for _ in range(CASES):  # character/class roundtrip
            d3 = ChernData(rng.randint(1, 5), rng.randint(-12, 12), rng.randint(-12, 12), rng.randint(-12, 12))
            assert chern_from_character(chern_character(d3), d3.rank) == d3

        for _ in range(CASES):  # curve/bundle dictionary roundtrip
            cv = CurveInvariants(rng.randint(1, 12), rng.randint(-8, 8))
            c1 = rng.randint(-5, 5)
            bundle = curve_to_bundle(cv, c1)
            assert bundle_to_curve(bundle) == cv
            assert bundle.c2 == cv.d

        for _ in range(CASES):  # Serre chi-antisymmetry
            c1 = rng.randint(-8, 8)
            c2 = rng.randint(-8, 8)
            c3 = c1 * c2 + 2 * rng.randint(-8, 8)
            d3 = ChernData(3, c1, c2, c3)
            m = rng.randint(-12, 12)
            assert euler_characteristic(dual(d3), -m - 4) == -euler_characteristic(d3, m)

        assert serre_symmetry_check(CHARGE2, -10, 6)


def test_criterion_6_correspondence_bookkeeping():
    with criterion(6, "monad, twist, curve, and normal-bundle numbers match"):
        assert monad_chern(MonadType(2, 7, 2)) == CHARGE2
        assert twist(ChernData(2, -1, 3, 3), 2) == ChernData(2, 3, 5, 3)
        quintic = bundle_to_curve(ChernData(3, 3, 5, 3))
        assert (quintic.d, quintic.g) == (5, 0)
        for n in range(2, 21):
            assert rational_normal_twist_degree(n) == n + 1
            assert generated_by_two_sections(rational_normal_twist_degree(n))


def run_verify_cli():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify-paper"])


def test_criterion_7_fault_injection():
    with criterion(7, "verify-paper exits 0 clean and 1 under every single-constant fault"):
        assert run_verify_cli() == 0
        detected = 0
        for module_name, attr, mutant, note in MUTATION_TARGETS:
            module = importlib.import_module(f"instanton3.{module_name}")
            original = getattr(module, attr)
            assert original != mutant, f"mutant for {module_name}.{attr} equals the real value"
            setattr(module, attr, mutant)
            try:
                rc = run_verify_cli()
            finally:
                setattr(module, attr, original)
            assert rc == 1, f"fault not detected: {module_name}.{attr} ({note})"
            detected += 1
        assert detected == len(MUTATION_TARGETS)  # 100 percent detection
        assert run_verify_cli() == 0
