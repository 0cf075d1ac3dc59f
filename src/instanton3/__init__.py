"""Exact-arithmetic toolkit for rank-3 bundles on projective 3-space.

Everything runs over the rationals: Chern characters live in a truncated
polynomial ring, Euler characteristics come from the Todd pairing, root
counts come from the discriminant and derivative signs of the integer chi
cubic (with exact Sturm chains as the independent check), and no floating
point appears anywhere.
The ``verify`` module replays the full checklist of published reference
values; the ``cli`` module exposes the same machinery on the command line.
"""

from .binomials import binom3, binom3_poly
from .chern import (
    ChernData,
    ChiPolynomial,
    chern_character,
    chern_from_character,
    chi_endomorphisms,
    chi_endomorphisms_closed_form,
    chi_numerators,
    chi_polynomial,
    dual,
    euler_characteristic,
    twist,
    validate_parity,
)
from .chowring import ONE, ChowClass, add, degree, exp_line, mul, todd_p3
from .cohomtable import (
    CohomTable,
    MonadType,
    instanton_check,
    monad_chern,
    natural_table,
    serre_symmetry_check,
)
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
from .errors import (
    ConsistencyError,
    DomainError,
    MissingHypothesis,
    MissingRows,
    NonIntegralChernClass,
    NonIntegralChi,
    NotNaturalizable,
    OutOfValidityRange,
    ParityViolation,
    RankUnsupported,
    ToolkitError,
)
from .moduli import (
    DerivationStep,
    ModuliReport,
    charge2_dimension_chain,
    ext_difference,
    smooth_dimension,
)
from .spectrum import (
    Spectrum,
    enumerate_spectra,
    h0_p1,
    h1_from_spectrum,
    h1_p1,
    h2_from_spectrum,
    is_instanton_spectrum,
)

__version__ = "0.1.0"
