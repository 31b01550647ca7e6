"""Cyclic resultants of univariate polynomials.

Exact sequences r_m = Res(f, x^m - 1), the families of polynomials sharing a
sequence (or its absolute values), rational generating functions and their
group-ring divisors, periodic-point counting for toral endomorphisms, and
reconstruction of a polynomial from a resultant prefix.
"""

from .dynamics import (
    IntegerMatrix,
    char_poly,
    is_ergodic,
    periodic_point_count,
    periodic_point_counts,
    spectrum_determined,
    zeta_series,
)
from .equivalence import (
    EquivalenceFamily,
    equivalent_family,
    equivalent_member,
    generic_family_size,
    monic_degenerate,
    real_equivalent_family,
    reciprocal_uniqueness_check,
    verify_same_resultants,
)
from .gaussian import GaussianRational
from .genfun import (
    PowerSeries,
    RationalFunctionRep,
    abs_generating_function,
    divisor,
    divisor_pair,
    exp_series,
    generating_function,
    root_subset_factor,
    series_of,
)
from .groupring import (
    BinomialProduct,
    FactorizationMatch,
    FgAbelianGroup,
    GroupElement,
    GroupRingElement,
    general_binomial_equal,
    infinite_order,
    laurent_embed,
    match_factorizations,
    separating_hom,
)
from .polycore import (
    Polynomial,
    cyclotomic,
    format_poly,
    has_root_of_unity,
    parse,
    roots_numeric,
)
from .reconstruct import (
    ConjectureReport,
    Disambiguation,
    NewtonResult,
    ReconstructionOutcome,
    ReconstructionSpec,
    conjecture_harness,
    disambiguate_abs,
    invert_closed,
    invert_groebner,
    invert_newton,
    reconstruct,
)
from .resultants import (
    ResultantSequence,
    SignData,
    abs_sequence,
    cyclic_resultant,
    reproduces,
    resultant,
    sequence,
    sign_data,
)

__version__ = "0.1.0"
