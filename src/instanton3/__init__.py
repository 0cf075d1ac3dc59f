"""Exact-arithmetic toolkit for rank-3 bundles on projective 3-space.

Everything runs over the rationals: Chern characters live in a truncated
polynomial ring, Euler characteristics come from the Todd pairing, root
counts come from the discriminant and derivative signs of the integer chi
cubic (with exact Sturm chains as the independent check), and no floating
point appears anywhere.  The namespace holds the README quick-tour API, the
types it takes or returns, the error catalogue and ``__version__``; every
other name is imported from its module, e.g. ``instanton3.spectrum.Spectrum``.
"""

from .chern import ChernData, chern_character, euler_characteristic, twist
from .chowring import ChowClass
from .cohomtable import CohomTable, natural_table
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
from .moduli import ModuliReport, charge2_dimension_chain, ext_difference

__version__ = "0.1.0"
