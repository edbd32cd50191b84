"""Eisenstein series toolkit: exact Dirichlet character arithmetic, K-Bessel
numerics, Dirichlet L-functions, newform Eisenstein series over Q with their
scattering constants and Whittaker expansions, amplified prime sums, and
sup-norm scaling scans."""

from eisenkit.characters import (
    DirichletCharacter,
    build_character,
    character_group,
    character_index,
    conductor,
    gauss_sum,
    gauss_sum_moduli_squared,
    local_epsilon,
    multiply,
    primitive_part,
)
from eisenkit.special_functions import (
    BumpWeight,
    NumericEnvelopeError,
    NumericsError,
    PoleError,
    bessel_k_row,
    whittaker_tail_cutoff,
)
from eisenkit.lfunctions import (
    LineZeroError,
    completed_lambda,
    dirichlet_l,
)
from eisenkit.eisenstein import (
    ConstantTermData,
    EisensteinParams,
    coefficient_prefactor,
    evaluate,
    evaluate_truncated,
    functional_equation_residual,
    generalized_divisor_sum,
    scattering_constant,
)
from eisenkit.amplifier import (
    AmplifierConfig,
    AsymptoticRow,
    amplifier_sum,
    asymptotic_report,
    b_xi,
    factorization_check,
)
from eisenkit.supnorm import (
    ScanAbortedError,
    ScanReport,
    exponent_fit,
    geometric_grid,
    load_report,
    scan,
    theorem_reference,
)

__version__ = "0.1.0"

__all__ = [
    "AmplifierConfig",
    "AsymptoticRow",
    "BumpWeight",
    "ConstantTermData",
    "DirichletCharacter",
    "EisensteinParams",
    "LineZeroError",
    "NumericEnvelopeError",
    "NumericsError",
    "PoleError",
    "ScanAbortedError",
    "ScanReport",
    "amplifier_sum",
    "asymptotic_report",
    "b_xi",
    "bessel_k_row",
    "build_character",
    "character_group",
    "character_index",
    "coefficient_prefactor",
    "completed_lambda",
    "conductor",
    "dirichlet_l",
    "evaluate",
    "evaluate_truncated",
    "exponent_fit",
    "factorization_check",
    "functional_equation_residual",
    "gauss_sum",
    "gauss_sum_moduli_squared",
    "generalized_divisor_sum",
    "geometric_grid",
    "load_report",
    "local_epsilon",
    "multiply",
    "primitive_part",
    "scan",
    "scattering_constant",
    "theorem_reference",
    "whittaker_tail_cutoff",
]
