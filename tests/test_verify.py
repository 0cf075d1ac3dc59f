"""The claim checklist itself: completeness, honesty, and fault detection."""

import hashlib
import importlib
import json
import sys
from fractions import Fraction

import pytest

from instanton3 import chern, cli, curvelink
from instanton3.chern import ChernData, _jsonable
from instanton3.chowring import ChowClass, mul
from instanton3.verify import (
    MUTATION_TARGETS,
    Claim,
    all_claims,
    report_json_dict,
    report_text,
    run_all,
    run_claim,
)

REQUIRED_CLAIM_IDS = {
    "chi-structure-sheaf",
    "chi-line-bundles",
    "character-charge2",
    "character-pairing-charge2",
    "dual-self-charge2",
    "twist-normalized-reflexive",
    "twist-charge2",
    "twist-charge-family",
    "chi-twist1-charge2",
    "chi-minus2-charge2",
    "parity-charge2",
    "parity-twist-charge2",
    "parity-genus-consistency",
    "chi-closed-form-vs-ring",
    "chi-curve-form-vs-riemann-roch",
    "spectrum-h1-instanton-minus2",
    "spectrum-h2-instanton-minus2",
    "spectrum-h1-split-minus2",
    "spectrum-h2-split-minus2",
    "spectrum-h1-split-minus1",
    "spectrum-h2-split-plus1",
    "spectrum-instanton-zero-pair",
    "spectrum-instanton-zero-triple",
    "spectrum-instanton-split-pair",
    "spectrum-enumeration-charge2",
    "spectrum-elimination-charge2",
    "curve-quintic-charge2",
    "curve-family-degrees",
    "curve-roundtrip-quintic",
    "normal-bundle-twist-degrees",
    "normal-bundle-two-sections",
    "chi-ideal-rational-curves",
    "thooft-threshold-rank3",
    "thooft-threshold-rank2",
    "thooft-charge2-sections",
    "natural-table-charge2",
    "instanton-row-charge2",
    "instanton-check-split-profile",
    "monad-charge2",
    "monad-charge-family",
    "serre-symmetry-charge2",
    "chi-endomorphisms-charge2",
    "chi-endomorphisms-closed-form",
    "ext-difference-charge2",
    "ext-difference-family",
    "ext-difference-consistency",
    "smooth-point-dimension-charge2",
    "dimension-chain-charge2",
    "chain-matches-ext-difference",
}


def test_checklist_covers_exactly_the_required_claims():
    claims = all_claims()
    ids = [c.id for c in claims]
    assert len(ids) == len(set(ids)), "claim ids must be unique"
    assert set(ids) == REQUIRED_CLAIM_IDS


def test_every_claim_passes_on_a_clean_build():
    failures = [r for r in run_all() if not r.ok]
    assert failures == []


def test_every_claim_has_a_statement():
    assert all(c.statement for c in all_claims())


def test_text_report_shape():
    text = report_text(run_all())
    lines = text.splitlines()
    assert len(lines) == len(all_claims()) + 1
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("passed, 0 failed")


def test_json_report_is_serializable_and_clean():
    payload = report_json_dict(run_all())
    round_tripped = json.loads(json.dumps(payload, indent=2, sort_keys=True))
    assert round_tripped["ok"] is True
    assert round_tripped["failed"] == 0
    assert round_tripped["total"] == len(all_claims())
    for claim in round_tripped["claims"]:
        assert set(claim) == {"id", "statement", "expected", "actual", "error", "pass"}
        assert claim["error"] is None


# The harness must be able to say no: wrong values, exceptions, and
# non-integer results all have to come back as failures.


def test_run_claim_reports_wrong_values():
    claim = Claim("wrong", "two plus two", 5, lambda: 4)
    result = run_claim(claim)
    assert not result.ok
    assert result.actual == 4
    assert result.error is None


def test_run_claim_reports_exceptions():
    def boom():
        raise RuntimeError("lost a sign somewhere")

    result = run_claim(Claim("boom", "explodes", 1, boom))
    assert not result.ok
    assert "RuntimeError" in result.error


def _is_integral(value) -> bool:
    """Whether every number inside a frozen expected value is an integer."""
    if isinstance(value, (int, str)):  # bool is an int; a str only ever equals a str
        return True
    if isinstance(value, Fraction):
        return value.denominator == 1
    if isinstance(value, (ChowClass, ChernData)):
        return _is_integral([getattr(value, name) for name in value._fields])
    if isinstance(value, (list, tuple)):
        return all(map(_is_integral, value))
    if isinstance(value, dict):
        return _is_integral(list(value.items()))
    raise TypeError(f"no integrality rule for {type(value).__name__}")


def test_every_frozen_expected_value_is_integral():
    # run_claim passes a claim on == alone: whatever equals an integral value
    # is integral itself, so no non-integer result can pass.
    assert [c.id for c in all_claims() if not _is_integral(c.expected)] == []
    assert not _is_integral({"h": [ChowClass(1, Fraction(1, 2), 0, 0)]})
    assert not run_claim(Claim("leak", "half", 1, lambda: Fraction(1, 2))).ok


def test_failure_renders_in_reports():
    results = [run_claim(Claim("wrong", "two plus two", 5, lambda: 4))]
    text = report_text(results)
    assert "FAIL wrong" in text
    assert "expected 5, got 4" in text
    payload = report_json_dict(results)
    assert payload["ok"] is False
    assert payload["failed"] == 1


def test_fraction_rendering_in_json():
    # A value with no JSON rule of its own, such as a float, falls back to repr.
    results = [
        run_claim(Claim("leak", "half", 1, lambda: Fraction(1, 2))),
        run_claim(Claim("float", "one and a half", 1, lambda: 1.5)),
    ]
    payload = report_json_dict(results)
    assert [c["actual"] for c in payload["claims"]] == ["1/2", "1.5"]
    assert payload["claims"][0]["pass"] is False


# Fault injection: corrupting any listed constant must flip the checklist,
# and at least the claims pinned here must be among the ones it flips.  The
# chi transcription mutants are caught by the closed-form sweep alone, so a
# sweep that stops comparing some twists or classes shows up by name.

_CHI_ROUTES = {"chi-closed-form-vs-ring"}
_TODD_CLAIMS = {
    "chi-closed-form-vs-ring",
    "chi-curve-form-vs-riemann-roch",
    "chi-line-bundles",
    "chi-twist1-charge2",
    "chi-minus2-charge2",
}
_EXT_DIFF_CONSTANT_CLAIMS = {
    "chain-matches-ext-difference",
    "dimension-chain-charge2",
    "ext-difference-charge2",
    "ext-difference-consistency",
    "ext-difference-family",
    "smooth-point-dimension-charge2",
}
_CHAIN_CLAIMS = {"chain-matches-ext-difference", "dimension-chain-charge2"}

MUST_FAIL = {
    "Todd H^2 coefficient 11/6 -> 11/5": _TODD_CLAIMS,
    "Todd H coefficient 2 -> 3": _TODD_CLAIMS,
    "chi transcription linear weight 2 -> 3": _CHI_ROUTES,
    "chi transcription quadratic weight 11/6 -> 11/5": _CHI_ROUTES,
    "chi(End) constant term 9 -> 8": {"chi-endomorphisms-closed-form"},
    "Ext-difference constant term -8 -> -7": _EXT_DIFF_CONSTANT_CLAIMS,
    "Ext-difference c1^2 weight -4 -> 4": {"ext-difference-consistency"},
    "quoted reflexive moduli dimension 19 -> 18": _CHAIN_CLAIMS,
    "quoted extension dimension 3 -> 2": _CHAIN_CLAIMS,
    "genus relation c2 weight -4 -> 4": {
        "chi-curve-form-vs-riemann-roch",
        "curve-family-degrees",
        "curve-quintic-charge2",
        "curve-roundtrip-quintic",
    },
    "determinant twist 3 -> 2": {"normal-bundle-twist-degrees"},
    "spectrum twist shift 1 -> 2": {
        "spectrum-elimination-charge2",
        "spectrum-h1-instanton-minus2",
        "spectrum-h1-split-minus1",
        "spectrum-h1-split-minus2",
        "spectrum-h2-split-minus2",
    },
}


def test_every_mutation_target_has_pinned_claims():
    assert set(MUST_FAIL) == {note for *_, note in MUTATION_TARGETS}
    assert all(ids <= REQUIRED_CLAIM_IDS for ids in MUST_FAIL.values())


@pytest.mark.parametrize(
    "module_name,attr,mutant,note",
    MUTATION_TARGETS,
    ids=[f"{m}.{a}:{note}" for m, a, _, note in MUTATION_TARGETS],
)
def test_single_constant_corruption_is_detected(monkeypatch, module_name, attr, mutant, note):
    module = importlib.import_module(f"instanton3.{module_name}")
    assert getattr(module, attr) != mutant, "mutant must differ from the real constant"
    monkeypatch.setattr(module, attr, mutant)
    failed = {r.claim.id for r in run_all() if not r.ok}
    assert failed, f"corrupting {module_name}.{attr} went undetected ({note})"
    missed = MUST_FAIL[note] - failed
    assert not missed, f"corrupting {module_name}.{attr} ({note}) left pinned claims passing: {sorted(missed)}"


# The mismatch reports of the family claims (expected value []) under each
# mutant: how many rows fail and the first of them, or the error text when
# the sweep raises.  Mutants absent from a claim's sweep leave it passing.

FAMILY_REPORTS = {
    "Todd H^2 coefficient 11/6 -> 11/5": {
        "chi-line-bundles": "NonIntegralChi: chi at twist 1 is not an integer: 131/30",
        "chi-closed-form-vs-ring": "NonIntegralChi: chi at twist -8 is not an integer: -509/5",
        "chi-curve-form-vs-riemann-roch": "NonIntegralChi: chi at twist -8 is not an integer: -577/10",
    },
    "Todd H coefficient 2 -> 3": {
        "chi-line-bundles": "NonIntegralChi: chi at twist 1 is not an integer: 9/2",
        "chi-closed-form-vs-ring": "NonIntegralChi: chi at twist -7 is not an integer: 43/2",
        "chi-curve-form-vs-riemann-roch": "NonIntegralChi: chi at twist -8 is not an integer: 43/2",
        "chi-endomorphisms-closed-form": (5, [[3, 0, 2, 0], -27, -15]),
        "ext-difference-family": "ConsistencyError: Ext-difference closed form disagrees with 1 - chi(End)",
        "ext-difference-consistency": (5, [[3, 0, 2, 0], 16, 28]),
    },
    "chi transcription linear weight 2 -> 3": {"chi-closed-form-vs-ring": (133, [[3, 0, 2, 0], -8])},
    "chi transcription quadratic weight 11/6 -> 11/5": {"chi-closed-form-vs-ring": (131, [[3, 0, 2, 0], -8])},
    "chi(End) constant term 9 -> 8": {"chi-endomorphisms-closed-form": (5, [[3, 0, 2, 0], -15, -16])},
    "Ext-difference constant term -8 -> -7": {
        "ext-difference-family": "ConsistencyError: Ext-difference closed form disagrees with 1 - chi(End)",
        "ext-difference-consistency": (5, [[3, 0, 2, 0], 17, 16]),
    },
    "Ext-difference c1^2 weight -4 -> 4": {"ext-difference-consistency": (3, [[3, 1, 3, 1], 32, 24])},
    "quoted reflexive moduli dimension 19 -> 18": {},
    "quoted extension dimension 3 -> 2": {},
    "genus relation c2 weight -4 -> 4": {
        "chi-curve-form-vs-riemann-roch": (68, [3, 5, 0, -8]),
        "curve-family-degrees": (9, [2, 5, 20]),
    },
    "determinant twist 3 -> 2": {"normal-bundle-twist-degrees": (19, [2, 8])},
    "spectrum twist shift 1 -> 2": {},
}


@pytest.mark.parametrize(
    "module_name,attr,mutant,note",
    MUTATION_TARGETS,
    ids=[f"{m}.{a}:{note}" for m, a, _, note in MUTATION_TARGETS],
)
def test_family_mismatch_reports_are_frozen(monkeypatch, module_name, attr, mutant, note):
    monkeypatch.setattr(importlib.import_module(f"instanton3.{module_name}"), attr, mutant)
    reports = {
        r.claim.id: r.error if r.error is not None else (len(r.actual), _jsonable(r.actual[0]))
        for r in run_all()
        if r.claim.expected == [] and not r.ok
    }
    assert reports == FAMILY_REPORTS[note]


# Work counts, not timings: each chi sweep does one ring product per class,
# and the Ext-difference sweep one chi(End), two products, per sample.


@pytest.mark.parametrize(
    "claim_id,products",
    [
        ("chi-closed-form-vs-ring", 8),
        ("chi-curve-form-vs-riemann-roch", 4),
        ("chi-line-bundles", 1),
        ("ext-difference-consistency", 10),
    ],
)
def test_chi_sweeps_do_one_ring_product_per_class(monkeypatch, claim_id, products):
    calls = []

    def counting_mul(x, y):
        calls.append(1)
        return mul(x, y)

    monkeypatch.setattr(chern, "mul", counting_mul)
    (claim,) = [c for c in all_claims() if c.id == claim_id]
    assert run_claim(claim).ok
    assert len(calls) == products


def test_the_checklist_does_94_ring_products(monkeypatch):
    # Every package module that binds the one ring product counts it, so a
    # call through chowring.mul or a new import is seen as well.
    calls = []

    def counting_mul(x, y):
        calls.append(1)
        return mul(x, y)

    binders = [m for name, m in sys.modules.items() if name.startswith("instanton3.") and getattr(m, "mul", None) is mul]
    assert {m.__name__ for m in binders} >= {"instanton3.chowring", "instanton3.chern", "instanton3.verify"}
    for module in binders:
        monkeypatch.setattr(module, "mul", counting_mul)
    assert all(r.ok for r in run_all())
    assert len(calls) == 94


def test_parity_claim_fails_when_the_genus_relation_ignores_parity(monkeypatch):
    # 2g = 2*c3 - 4*c2 + 2 is always even, so the relation finds a genus for
    # every class; the claim must report each class of odd c3 - c1*c2.  This
    # holds only while bundle_to_curve leaves integrality to the relation.
    monkeypatch.setattr(curvelink, "GENUS_RELATION", (2, -4, 0))
    (claim,) = [c for c in all_claims() if c.id == "parity-genus-consistency"]
    result = run_claim(claim)
    assert (result.ok, len(result.actual), result.actual[:1]) == (False, 222, [(-3, 1, -6)])


# The verify-paper text and JSON reports, byte for byte, on the clean build
# and under each mutant: the md5 of the two outputs in that order, and the two
# exit codes.  Mutant reports carry only ToolkitError messages, so the bytes
# do not depend on the Python version.

REPORT_DIGESTS = {
    "clean build": ("bf49136f5c8800a71eaa3442d47acf48", (0, 0)),
    "Todd H^2 coefficient 11/6 -> 11/5": ("3de68aa5eeba6ed5107d9cdb69ded873", (1, 1)),
    "Todd H coefficient 2 -> 3": ("5ab415c7471aeb25c571a45bcca711c9", (1, 1)),
    "chi transcription linear weight 2 -> 3": ("52f541dc5ae7c68b8d281888aff924dd", (1, 1)),
    "chi transcription quadratic weight 11/6 -> 11/5": ("744fe6f9ff774ff6de2e98fcc4ffb1bd", (1, 1)),
    "chi(End) constant term 9 -> 8": ("3cede0189dca060f6aeb42221abd9985", (1, 1)),
    "Ext-difference constant term -8 -> -7": ("430646154b3a961d5089b267f2091f4d", (1, 1)),
    "Ext-difference c1^2 weight -4 -> 4": ("77febc024ed6ab983de02d9487e7edbd", (1, 1)),
    "quoted reflexive moduli dimension 19 -> 18": ("407e35418d254b8af6227e2cb176f756", (1, 1)),
    "quoted extension dimension 3 -> 2": ("407e35418d254b8af6227e2cb176f756", (1, 1)),
    "genus relation c2 weight -4 -> 4": ("dac298ee87c2230e43fe0801febf4606", (1, 1)),
    "determinant twist 3 -> 2": ("f7610dd32fa9da155bf1c1859d0ad017", (1, 1)),
    "spectrum twist shift 1 -> 2": ("748250d3b0fc6eecc08fc2e7bd6f88a9", (1, 1)),
}


@pytest.mark.parametrize("note", REPORT_DIGESTS)
def test_verify_paper_reports_are_pinned(monkeypatch, capsys, note):
    assert set(REPORT_DIGESTS) == {"clean build"} | set(MUST_FAIL)
    for module_name, attr, mutant, target in MUTATION_TARGETS:
        if target == note:
            monkeypatch.setattr(importlib.import_module(f"instanton3.{module_name}"), attr, mutant)
    codes = (cli.main(["verify-paper"]), cli.main(["verify-paper", "--format", "json"]))
    assert (hashlib.md5(capsys.readouterr().out.encode()).hexdigest(), codes) == REPORT_DIGESTS[note]


def test_checklist_recovers_after_mutations():
    # The parametrized test above restores each constant; confirm no residue.
    assert all(r.ok for r in run_all())
