"""Moduli-dimension bookkeeping for the rank-3 families.

Two independent routes lead to the headline dimension 16 of the charge-2
family: the Ext-difference 1 - chi(End F) at a stable point, and the
construction-side chain that fibers the family over a space of pairs built
from a rank-2 reflexive sheaf.  Both are mechanized and must agree.
"""

from __future__ import annotations

from .chern import ChernData, chi_endomorphisms, euler_characteristic
from .cohomtable import natural_table
from .errors import ConsistencyError, DomainError, MissingHypothesis, RankUnsupported, Record, _integers

#: Weights of (c1^2, c2, 1) in the Ext-difference closed form for rank 3.
EXT_DIFF_COEFFS = (-4, 12, -8)

#: Dimension of the moduli of stable rank-2 reflexive sheaves with classes
#: (-1, 3, 3), quoted from Chang's classification.  Not recomputed here.
CHANG_MODULI_DIM = 19

#: Dimension of Ext^1(E(2), O) for such a sheaf, also quoted, not recomputed.
REFLEXIVE_EXT_DIM = 3


class DerivationStep(Record):
    """One named quantity in a dimension derivation, with its provenance."""

    def __init__(self, quantity: str, value: int, provenance: str) -> None:
        self._set(quantity, value, provenance)


class ModuliReport(Record):
    """A dimension statement together with the hypotheses it leans on."""

    def __init__(self, chern: ChernData, chi_end: int, ext_diff: int, hypotheses: tuple[str, ...],
                 dimension: int | None, derivation: tuple[DerivationStep, ...]) -> None:
        chi_end, ext_diff = _integers((chi_end, ext_diff), "chi(End F) and the Ext difference")
        if dimension is not None:
            (dimension,) = _integers((dimension,), "the reported dimension")
        if type(hypotheses) is not tuple or not all(map(("stable", "ext2_vanishes").__contains__, hypotheses)):
            raise DomainError("hypotheses must be a tuple whose entries are each 'stable' or 'ext2_vanishes'")
        if "stable" in hypotheses and ext_diff != 1 - chi_end:
            raise DomainError("under stability the Ext difference must be 1 - chi(End)")
        if (dimension is not None) != ("ext2_vanishes" in hypotheses):
            raise DomainError("a dimension is reported exactly when Ext^2 vanishing is assumed")
        if dimension is not None and dimension != ext_diff:
            raise DomainError("the reported dimension must equal the Ext difference")
        self._set(chern, chi_end, ext_diff, hypotheses, dimension, derivation)


def _ext_difference_closed_form(d: ChernData) -> int:
    """The closed form -4*c1^2 + 12*c2 - 8 alone, with no cross-check."""
    if d.rank != 3:
        raise RankUnsupported(f"the Ext difference closed form needs rank 3, got {d.rank}")
    a, b, c = EXT_DIFF_COEFFS
    return a * d.c1 ** 2 + b * d.c2 + c


def ext_difference(d: ChernData) -> int:
    """dim Ext^1 - dim Ext^2 at a stable point: -4*c1^2 + 12*c2 - 8.

    Computed from the closed form and cross-checked against the
    Riemann-Roch route 1 - chi(End F); the two can only disagree if one of
    the transcriptions is corrupted.
    """
    value = _ext_difference_closed_form(d)
    if value != 1 - chi_endomorphisms(d):
        raise ConsistencyError("Ext-difference closed form disagrees with 1 - chi(End)")
    return value


def smooth_dimension(d: ChernData, *, stable: bool = False, ext2_vanishes: bool = False) -> ModuliReport:
    """Moduli dimension at a point where the caller asserts both hypotheses.

    The arithmetic only ever yields the Ext difference; promoting it to the
    actual dimension of a smooth point is exactly what the two hypotheses
    buy, so both must be asserted explicitly.
    """
    if d.rank != 3:
        raise RankUnsupported(f"moduli bookkeeping needs rank 3, got {d.rank}")
    if not stable:
        raise MissingHypothesis("stability was not asserted; Hom = C and Ext^3 = 0 are unavailable")
    if not ext2_vanishes:
        raise MissingHypothesis("Ext^2 vanishing was not asserted; only the Ext difference is known")
    chi_end = chi_endomorphisms(d)
    diff = ext_difference(d)
    return ModuliReport(
        chern=d,
        chi_end=chi_end,
        ext_diff=diff,
        hypotheses=("stable", "ext2_vanishes"),
        dimension=diff,
        derivation=(
            DerivationStep("chi(End F)", chi_end, "Riemann-Roch on the endomorphism bundle"),
            DerivationStep("dim Ext^1 - dim Ext^2", diff, "1 - chi(End F) given Hom = C and Ext^3 = 0"),
            DerivationStep("dim at a smooth point", diff, "Ext^2 = 0 turns the difference into the dimension"),
        ),
    )


def charge2_dimension_chain() -> ModuliReport:
    """The construction-side derivation of dimension 16 for the charge-2 family.

    The family fibers over pairs (rank-2 reflexive sheaf, extension class);
    the base contributes 19 + 3 = 22 and each fiber is the h^0(F(1)) = 6
    worth of section choices, leaving 16.  The result is cross-checked
    against the Ext-difference route.
    """
    d = ChernData(3, 0, 2, 0)
    chi_one = euler_characteristic(d, 1)
    h1_one = natural_table(d, 1, 1).rows[1][1]
    fiber = chi_one + h1_one
    pair_space = CHANG_MODULI_DIM + REFLEXIVE_EXT_DIM
    dimension = pair_space - fiber
    diff = ext_difference(d)
    if dimension != diff:
        raise ConsistencyError("construction chain disagrees with the Ext-difference route")
    return ModuliReport(
        chern=d,
        chi_end=chi_endomorphisms(d),
        ext_diff=diff,
        hypotheses=("stable", "ext2_vanishes"),
        dimension=dimension,
        derivation=(
            DerivationStep(
                "dim of the reflexive-sheaf moduli", CHANG_MODULI_DIM,
                "quoted constant: stable rank-2 reflexive sheaves with classes (-1, 3, 3) (Chang)",
            ),
            DerivationStep(
                "dim Ext^1(E(2), O)", REFLEXIVE_EXT_DIM,
                "quoted constant: extension classes over a fixed reflexive sheaf",
            ),
            DerivationStep(
                "dim of the pair space", pair_space,
                "sum of the two previous entries",
            ),
            DerivationStep(
                "fiber dim h^0(F(1))", fiber,
                "chi(F(1)) plus h^1(F(1)) = 0 read off the natural table at twist 1",
            ),
            DerivationStep(
                "dim of the charge-2 family", dimension,
                "pair space minus fiber",
            ),
        ),
    )
