"""Replay of every published reference value the toolkit re-derives.

Each claim pairs a frozen expected value with a closure that recomputes it
from scratch.  Family claims recompute a whole parameter sweep and report
the mismatches, so their expected value is an empty list.  A claim passes
exactly when the computation returns its expected value without raising.
Every expected value is integral, so no non-integer can pass.

``MUTATION_TARGETS`` lists the hardcoded constants the fault-injection
harness corrupts one at a time; every single corruption must flip at least
one claim, which is what makes this checklist evidence rather than
tautology.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import partial
from itertools import product, starmap

from .chern import (
    ChernData,
    _jsonable,
    chern_character,
    chi_endomorphisms,
    chi_endomorphisms_closed_form,
    chi_polynomial,
    chi_values,
    dual,
    euler_characteristic,
    twist,
    validate_parity,
)
from .chowring import ChowClass, mul
from .cohomtable import CohomTable, MonadType, instanton_check, monad_chern, natural_table, serre_symmetry_check
from .curvelink import (
    CurveInvariants,
    bundle_to_curve,
    chi_curve_form,
    chi_f1_charge,
    chi_ideal_sheaf,
    curve_to_bundle,
    generated_by_two_sections,
    rational_normal_twist_degree,
    thooft_threshold,
)
from .errors import ParityViolation, Record
from .moduli import _ext_difference_closed_form, charge2_dimension_chain, ext_difference, smooth_dimension
from .spectrum import Spectrum, enumerate_spectra, h1_from_spectrum, h2_from_spectrum, is_instanton_spectrum


class Claim(Record):
    def __init__(self, id: str, statement: str, expected: object, compute: Callable[[], object]) -> None:
        self._set(id, statement, expected, compute)


class ClaimResult(Record):
    def __init__(self, claim: Claim, actual: object, ok: bool, error: str | None = None) -> None:
        self._set(claim, actual, ok, error)


CHARGE2 = ChernData(3, 0, 2, 0)

#: The natural-cohomology table of the charge-2 instanton type over [-5, 1].
CHARGE2_TABLE_ROWS = {
    -5: (0, 0, 0, 6),
    -4: (0, 0, 1, 0),
    -3: (0, 0, 2, 0),
    -2: (0, 0, 0, 0),
    -1: (0, 2, 0, 0),
    0: (0, 1, 0, 0),
    1: (6, 0, 0, 0),
}

_RANK3_SAMPLES = (
    ChernData(3, 0, 2, 0),
    ChernData(3, 1, 3, 1),
    ChernData(3, 3, 5, 3),
    ChernData(3, -2, 4, 2),
    ChernData(3, 0, 5, 0),
)

_MIXED_RANK_SAMPLES = _RANK3_SAMPLES + (
    ChernData(1, 0, 0, 0),
    ChernData(2, -1, 3, 3),
    ChernData(2, 0, 2, 0),
)

_CHI_SWEEP_TWISTS = range(-8, 9)

#: The charges n = 2..10 of the charge-n family claims.
_CHARGES = range(2, 11)


def _mismatches(rows) -> list:
    """The report of every (report, got, want) row whose two sides differ."""
    return [report for report, got, want in rows if got != want]


def _family(params, got, want) -> list:
    """Mismatches of a one-parameter family, each reported as (p, got(p))."""
    return _mismatches(((p, g), g, want(p)) for p, g in zip(params, map(got, params)))


def _routes(params, first, second) -> list:
    """Mismatches of two routes over the same parameters, each reported as (p, first(p), second(p))."""
    return _mismatches(((p, a, b), a, b) for p, a, b in zip(params, map(first, params), map(second, params)))


def _genus_solvable(d: ChernData) -> bool:
    """Whether the curve dictionary finds an integer genus for d."""
    try:
        bundle_to_curve(d)
    except ParityViolation:
        return False
    return True


def _spectrum_elimination() -> dict:
    predicted = h1_from_spectrum(Spectrum((-1, 1)), -2)
    return {"predicted_h1": predicted, "required_h1": 0, "excluded": predicted != 0}


def _dimension_chain_values() -> list:
    report = charge2_dimension_chain()
    return [step.value for step in report.derivation] + [report.dimension]


def all_claims() -> tuple[Claim, ...]:
    """The full checklist, rebuilt on every call so patched constants are honored."""
    split_pair = Spectrum((-1, 1))
    zero_pair = Spectrum((0, 0))
    return (
        # Chow ring and chi routes.
        Claim(
            "chi-structure-sheaf",
            "the Todd pairing gives chi(O) = 1 on P^3",
            1,
            lambda: euler_characteristic(ChernData(1, 0, 0, 0), 0),
        ),
        Claim(
            "chi-line-bundles",
            "chi(O(m)) = C(m+3, 3) for m = 0..6 through the ring route",
            [],
            lambda: _mismatches(
                ((m, chi), chi, (m + 3) * (m + 2) * (m + 1) // 6)
                for m, chi in zip(range(0, 7), chi_values(ChernData(1, 0, 0, 0), range(0, 7)))
            ),
        ),
        Claim(
            "character-charge2",
            "ch(F) = 3 - 2H^2 for the charge-2 instanton type (3, 0, 2, 0)",
            ChowClass(3, 0, -2, 0),
            lambda: chern_character(CHARGE2),
        ),
        Claim(
            "character-pairing-charge2",
            "ch(F) * ch(F-dual) = 9 - 12H^2 for the charge-2 type",
            ChowClass(9, 0, -12, 0),
            lambda: mul(chern_character(CHARGE2), chern_character(dual(CHARGE2))),
        ),
        Claim(
            "dual-self-charge2",
            "the charge-2 instanton type is numerically self-dual",
            CHARGE2,
            lambda: dual(CHARGE2),
        ),
        Claim(
            "twist-normalized-reflexive",
            "the rank-2 reflexive type (2, -1, 3, 3) twisted by 2 has classes (2, 3, 5, 3)",
            ChernData(2, 3, 5, 3),
            lambda: twist(ChernData(2, -1, 3, 3), 2),
        ),
        Claim(
            "twist-charge2",
            "F(1) of the charge-2 type has classes (3, 3, 5, 3)",
            ChernData(3, 3, 5, 3),
            lambda: twist(CHARGE2, 1),
        ),
        Claim(
            "twist-charge-family",
            "F(1) of the charge-n type (3, 0, n, 0) has classes (3, 3, n+3, n+1) for n = 2..10",
            [],
            lambda: _family(
                _CHARGES, lambda n: twist(ChernData(3, 0, n, 0), 1), lambda n: ChernData(3, 3, n + 3, n + 1)
            ),
        ),
        Claim(
            "chi-twist1-charge2",
            "chi(F(1)) = 6 for the charge-2 instanton type",
            6,
            lambda: euler_characteristic(CHARGE2, 1),
        ),
        Claim(
            "chi-minus2-charge2",
            "chi(F(-2)) = 0 for the charge-2 instanton type",
            0,
            lambda: euler_characteristic(CHARGE2, -2),
        ),
        Claim(
            "parity-charge2",
            "c3 - c1*c2 is even for the charge-2 type",
            True,
            lambda: validate_parity(CHARGE2),
        ),
        Claim(
            "parity-twist-charge2",
            "c3 - c1*c2 stays even after twisting to (3, 3, 5, 3)",
            True,
            lambda: validate_parity(ChernData(3, 3, 5, 3)),
        ),
        Claim(
            "parity-genus-consistency",
            "the genus relation has an integer solution exactly when the parity check passes",
            [],
            lambda: _mismatches(
                ((d.c1, d.c2, d.c3), validate_parity(d), _genus_solvable(d))
                for d in starmap(partial(ChernData, 3), product(range(-3, 4), range(1, 6), range(-6, 7)))
            ),
        ),
        Claim(
            "chi-closed-form-vs-ring",
            "the transcribed chi cubic matches the Todd pairing on a mixed-rank sample sweep",
            [],
            lambda: _mismatches(
                ((d, m), p(m), chi)
                for d, p in zip(_MIXED_RANK_SAMPLES, map(chi_polynomial, _MIXED_RANK_SAMPLES))
                for m, chi in zip(_CHI_SWEEP_TWISTS, chi_values(d, _CHI_SWEEP_TWISTS))
            ),
        ),
        Claim(
            "chi-curve-form-vs-riemann-roch",
            "the curve-side chi formula matches the Todd pairing under the degree-genus dictionary",
            [],
            lambda: _mismatches(
                ((c1, cv.d, cv.g, m), chi_curve_form(cv, c1, m), chi)
                for c1, cv in zip((3, 0, -1, 2), starmap(CurveInvariants, ((5, 0), (2, -3), (4, 1), (3, 0))))
                for m, chi in zip(_CHI_SWEEP_TWISTS, chi_values(curve_to_bundle(cv, c1), _CHI_SWEEP_TWISTS))
            ),
        ),
        # Spectrum arithmetic.
        Claim(
            "spectrum-h1-instanton-minus2",
            "the zero spectrum (0, 0) predicts h^1(F(-2)) = 0",
            0,
            lambda: h1_from_spectrum(zero_pair, -2),
        ),
        Claim(
            "spectrum-h2-instanton-minus2",
            "the zero spectrum (0, 0) predicts h^2(F(-2)) = 0",
            0,
            lambda: h2_from_spectrum(zero_pair, -2),
        ),
        Claim(
            "spectrum-h1-split-minus2",
            "the spectrum (-1, 1) predicts h^1(F(-2)) = 1",
            1,
            lambda: h1_from_spectrum(split_pair, -2),
        ),
        Claim(
            "spectrum-h2-split-minus2",
            "the spectrum (-1, 1) predicts h^2(F(-2)) = 1",
            1,
            lambda: h2_from_spectrum(split_pair, -2),
        ),
        Claim(
            "spectrum-h1-split-minus1",
            "the spectrum (-1, 1) predicts h^1(F(-1)) = 2",
            2,
            lambda: h1_from_spectrum(split_pair, -1),
        ),
        Claim(
            "spectrum-h2-split-plus1",
            "the spectrum (-1, 1) predicts h^2(F(1)) = 0",
            0,
            lambda: h2_from_spectrum(split_pair, 1),
        ),
        Claim(
            "spectrum-instanton-zero-pair",
            "the spectrum (0, 0) is the instanton spectrum for charge 2",
            True,
            lambda: is_instanton_spectrum(zero_pair),
        ),
        Claim(
            "spectrum-instanton-zero-triple",
            "the spectrum (0, 0, 0) is the instanton spectrum for charge 3",
            True,
            lambda: is_instanton_spectrum(Spectrum((0, 0, 0))),
        ),
        Claim(
            "spectrum-instanton-split-pair",
            "the spectrum (-1, 1) is not an instanton spectrum",
            False,
            lambda: is_instanton_spectrum(split_pair),
        ),
        Claim(
            "spectrum-enumeration-charge2",
            "the only zero-sum nondecreasing pairs within the unit box are (-1, 1) and (0, 0)",
            [(-1, 1), (0, 0)],
            lambda: [sp.ks for sp in enumerate_spectra(2, 1)],
        ),
        Claim(
            "spectrum-elimination-charge2",
            "the (-1, 1) spectrum predicts h^1(F(-2)) = 1, contradicting the instanton vanishing",
            {"predicted_h1": 1, "required_h1": 0, "excluded": True},
            _spectrum_elimination,
        ),
        # Curve dictionary and section counts.
        Claim(
            "curve-quintic-charge2",
            "F(1) of the charge-2 type matches a rational quintic: degree 5, genus 0",
            (5, 0),
            lambda: (lambda cv: (cv.d, cv.g))(bundle_to_curve(ChernData(3, 3, 5, 3))),
        ),
        Claim(
            "curve-family-degrees",
            "F(1) of the charge-n type matches a rational curve of degree n + 3 for n = 2..10",
            [],
            lambda: _mismatches(
                ((n, cv.d, cv.g), (cv.d, cv.g), (n + 3, 0))
                for n, cv in zip(_CHARGES, (bundle_to_curve(ChernData(3, 3, n + 3, n + 1)) for n in _CHARGES))
            ),
        ),
        Claim(
            "curve-roundtrip-quintic",
            "the rational quintic with c1 = 3 maps back to the classes (3, 3, 5, 3)",
            ChernData(3, 3, 5, 3),
            lambda: curve_to_bundle(CurveInvariants(5, 0), 3),
        ),
        Claim(
            "normal-bundle-twist-degrees",
            "det(N)(-3) on the degree-(n+3) rational curve has degree n + 1 for n = 2..20",
            [],
            lambda: _family(range(2, 21), rational_normal_twist_degree, lambda n: n + 1),
        ),
        Claim(
            "normal-bundle-two-sections",
            "the twisted determinant admits two spanning sections for every charge n = 2..20",
            [],
            lambda: _mismatches(
                (n, generated_by_two_sections(rational_normal_twist_degree(n)), True) for n in range(2, 21)
            ),
        ),
        Claim(
            "chi-ideal-rational-curves",
            "chi of the untwisted ideal sheaf of the degree-(n+3) rational curve vanishes",
            [],
            lambda: _family(_CHARGES, lambda n: chi_ideal_sheaf(CurveInvariants(n + 3, 0), 0), lambda n: 0),
        ),
        Claim(
            "thooft-threshold-rank3",
            "the rank-3 construction needs 2 sections of F(1)",
            2,
            lambda: thooft_threshold(3),
        ),
        Claim(
            "thooft-threshold-rank2",
            "the rank-2 construction needs 1 section of F(1)",
            1,
            lambda: thooft_threshold(2),
        ),
        Claim(
            "thooft-charge2-sections",
            "chi(F(1)) = 12 - 3n gives 6 at charge 2, clearing the 2-section threshold",
            (6, True),
            lambda: (chi_f1_charge(2), chi_f1_charge(2) >= thooft_threshold(3)),
        ),
        # Natural cohomology tables.
        Claim(
            "natural-table-charge2",
            "the seven natural-cohomology rows of the charge-2 type over twists -5..1",
            CHARGE2_TABLE_ROWS,
            lambda: dict(natural_table(CHARGE2, -5, 1).rows),
        ),
        Claim(
            "instanton-row-charge2",
            "the natural table has the four instanton vanishings around twist -2",
            True,
            lambda: instanton_check(natural_table(CHARGE2, -3, -1)),
        ),
        Claim(
            "instanton-check-split-profile",
            "a table carrying the (-1, 1) spectrum profile h^1(F(-2)) = 1 fails the instanton check",
            False,
            lambda: instanton_check(
                CohomTable(chern=CHARGE2, rows={-3: (0, 0, 2, 0), -2: (0, 1, 1, 0), -1: (0, 2, 0, 0)})
            ),
        ),
        Claim(
            "monad-charge2",
            "the monad with multiplicities (2, 7, 2) has cohomology of type (3, 0, 2, 0)",
            CHARGE2,
            lambda: monad_chern(MonadType(2, 7, 2)),
        ),
        Claim(
            "monad-charge-family",
            "the monad with multiplicities (n, 2n+3, n) has cohomology of type (3, 0, n, 0) for n = 2..6",
            [],
            lambda: _family(
                range(2, 7), lambda n: monad_chern(MonadType(n, 2 * n + 3, n)), lambda n: ChernData(3, 0, n, 0)
            ),
        ),
        Claim(
            "serre-symmetry-charge2",
            "the natural table of the self-dual charge-2 type satisfies Serre symmetry over -10..6",
            True,
            lambda: serre_symmetry_check(CHARGE2, -10, 6),
        ),
        # Moduli dimensions.
        Claim(
            "chi-endomorphisms-charge2",
            "chi(End F) = -15 for the charge-2 type",
            -15,
            lambda: chi_endomorphisms(CHARGE2),
        ),
        Claim(
            "chi-endomorphisms-closed-form",
            "the closed form 4c1^2 - 12c2 + 9 matches the ring route on the rank-3 samples",
            [],
            lambda: _routes(_RANK3_SAMPLES, chi_endomorphisms, chi_endomorphisms_closed_form),
        ),
        Claim(
            "ext-difference-charge2",
            "dim Ext^1 - dim Ext^2 = 16 for the charge-2 type",
            16,
            lambda: ext_difference(CHARGE2),
        ),
        Claim(
            "ext-difference-family",
            "the Ext difference of the charge-n type is 12n - 8 for n = 2..10",
            [],
            lambda: _family(_CHARGES, lambda n: ext_difference(ChernData(3, 0, n, 0)), lambda n: 12 * n - 8),
        ),
        Claim(
            "ext-difference-consistency",
            "the Ext-difference closed form equals 1 - chi(End) on the rank-3 samples",
            [],
            # The closed form without ext_difference's own cross-check, so a
            # disagreement comes back as a mismatch rather than a ConsistencyError.
            lambda: _routes(_RANK3_SAMPLES, _ext_difference_closed_form, lambda d: 1 - chi_endomorphisms(d)),
        ),
        Claim(
            "smooth-point-dimension-charge2",
            "under stability and Ext^2 = 0 the charge-2 moduli dimension is 16",
            16,
            lambda: smooth_dimension(CHARGE2).dimension,
        ),
        Claim(
            "dimension-chain-charge2",
            "the construction chain reads 19, 3, 22, 6 and lands on dimension 16",
            [19, 3, 22, 6, 16, 16],
            _dimension_chain_values,
        ),
        Claim(
            "chain-matches-ext-difference",
            "the construction chain agrees with the Ext-difference route",
            True,
            lambda: charge2_dimension_chain().dimension == ext_difference(CHARGE2),
        ),
    )


#: Single-constant corruptions the fault harness applies one at a time.
#: Format: (module name under this package, attribute, corrupted value, note).
MUTATION_TARGETS = (
    ("chowring", "TODD_COEFFS", (Fraction(1), Fraction(2), Fraction(11, 5), Fraction(1)), "Todd H^2 coefficient 11/6 -> 11/5"),
    ("chowring", "TODD_COEFFS", (Fraction(1), Fraction(3), Fraction(11, 6), Fraction(1)), "Todd H coefficient 2 -> 3"),
    ("chern", "CHI_CUBIC_T1", Fraction(3), "chi transcription linear weight 2 -> 3"),
    ("chern", "CHI_CUBIC_T2", Fraction(11, 5), "chi transcription quadratic weight 11/6 -> 11/5"),
    ("chern", "CHI_END_COEFFS", (4, -12, 8), "chi(End) constant term 9 -> 8"),
    ("moduli", "EXT_DIFF_COEFFS", (-4, 12, -7), "Ext-difference constant term -8 -> -7"),
    ("moduli", "EXT_DIFF_COEFFS", (4, 12, -8), "Ext-difference c1^2 weight -4 -> 4"),
    ("moduli", "CHANG_MODULI_DIM", 18, "quoted reflexive moduli dimension 19 -> 18"),
    ("moduli", "REFLEXIVE_EXT_DIM", 2, "quoted extension dimension 3 -> 2"),
    ("curvelink", "GENUS_RELATION", (1, 4, 1), "genus relation c2 weight -4 -> 4"),
    ("curvelink", "DET_TWIST", 2, "determinant twist 3 -> 2"),
    ("spectrum", "TWIST_SHIFT", 2, "spectrum twist shift 1 -> 2"),
)


def run_claim(claim: Claim) -> ClaimResult:
    try:
        actual = claim.compute()
    except Exception as exc:  # any escape is a failed claim, not a crash
        return ClaimResult(claim, None, False, f"{type(exc).__name__}: {exc}")
    return ClaimResult(claim, actual, actual == claim.expected)


def run_all() -> list[ClaimResult]:
    return [run_claim(c) for c in all_claims()]


def report_json_dict(results: list[ClaimResult]) -> dict:
    failed = sum(1 for r in results if not r.ok)
    return {
        "claims": [
            {
                "id": r.claim.id,
                "statement": r.claim.statement,
                "expected": _jsonable(r.claim.expected),
                "actual": _jsonable(r.actual),
                "error": r.error,
                "pass": r.ok,
            }
            for r in results
        ],
        "total": len(results),
        "failed": failed,
        "ok": failed == 0,
    }


def report_text(results: list[ClaimResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        line = f"{status} {r.claim.id}: {r.claim.statement}"
        if not r.ok:
            if r.error is not None:
                line += f" [error: {r.error}]"
            else:
                line += f" [expected {_jsonable(r.claim.expected)!r}, got {_jsonable(r.actual)!r}]"
        lines.append(line)
    failed = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results)} claims: {len(results) - failed} passed, {failed} failed")
    return "\n".join(lines)
