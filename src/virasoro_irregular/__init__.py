"""Exact symbolic toolkit for irregular Virasoro module vectors.

The package constructs, order by order, formal series vectors that are
simultaneous eigenvectors of a tail of Virasoro modes (integer and
half-integer rank), together with the vector-field frames, canonical
derivation operators and scalar gauge data that make the construction
unique.  All arithmetic is exact (rationals, sparse Laurent polynomials,
truncated formal series); nothing is ever evaluated in floating point.
"""

from .gauge import (
    GaugeError,
    ObstructionSet,
    PotentialDecomposition,
    ScalarCompletion,
    apply_gauge_and_verify,
    frobenius_verify,
    integrate_potential,
    lstar_certificate,
    obstructions,
    scalar_completion_half,
)
from .ring import (
    LaurentPoly,
    NonUnitLeadingCoefficient,
    NotDivisible,
    RationalFunction,
    RingError,
    TruncatedSeries,
    VarTable,
)
from .solver import (
    HALF,
    INTEGER,
    RANK_ONE,
    IrregularSeries,
    SolverError,
    VerificationReport,
    rank1_series,
    solve_half,
    solve_integer,
    verify_canonical,
)

__all__ = [
    "GaugeError",
    "HALF",
    "INTEGER",
    "IrregularSeries",
    "LaurentPoly",
    "NonUnitLeadingCoefficient",
    "NotDivisible",
    "ObstructionSet",
    "PotentialDecomposition",
    "RANK_ONE",
    "RationalFunction",
    "RingError",
    "ScalarCompletion",
    "SolverError",
    "TruncatedSeries",
    "VarTable",
    "VerificationReport",
    "apply_gauge_and_verify",
    "frobenius_verify",
    "integrate_potential",
    "lstar_certificate",
    "obstructions",
    "rank1_series",
    "scalar_completion_half",
    "solve_half",
    "solve_integer",
    "verify_canonical",
]

__version__ = "0.1.0"
