"""Numerical laboratory for hard-edge Bessel kernels, conditional
orthogonal polynomial ensembles, and equilibrium-measure diagnostics."""

from . import equilibrium
from .errors import (
    ConvergenceFailure,
    DiscretizationFailure,
    DomainError,
    PrecisionFailure,
    SequenceExhausted,
)
from .dpp import (
    CountStats,
    DiscretizedKernel,
    Samples,
    count_stats,
    exact_count_law,
    nystrom,
    sample,
    sample_many,
)
from .lab import ExperimentConfig, default_config, run_experiment
from .orthopoly import (
    RecurrenceTable,
    brute_force_christoffel,
    build_recurrence,
    lubinsky_gap,
    save_recurrence_csv,
    weight_quadrature,
)
from .sequences import (
    PointSequence,
    make_bessel_zero_squared,
    make_quadratic,
    make_sampled,
    make_user,
)
from .specfun import (
    bessel_j,
    bessel_j_deriv,
    bessel_kernel,
    bessel_kernel_diag,
    bessel_zero,
    bessel_zeros,
)
from .weights import (
    ApproxWeight,
    ConditionalWeight,
    PowerWeight,
    ScaledWeight,
    check_sandwich,
    field_V,
    field_V_gamma,
    field_V_tilde,
)

__version__ = "0.1.0"

__all__ = [
    "equilibrium",
    "ConvergenceFailure",
    "DiscretizationFailure",
    "DomainError",
    "PrecisionFailure",
    "SequenceExhausted",
    "CountStats",
    "DiscretizedKernel",
    "Samples",
    "count_stats",
    "exact_count_law",
    "nystrom",
    "sample",
    "sample_many",
    "ExperimentConfig",
    "default_config",
    "run_experiment",
    "RecurrenceTable",
    "brute_force_christoffel",
    "build_recurrence",
    "lubinsky_gap",
    "save_recurrence_csv",
    "weight_quadrature",
    "PointSequence",
    "make_bessel_zero_squared",
    "make_quadratic",
    "make_sampled",
    "make_user",
    "bessel_j",
    "bessel_j_deriv",
    "bessel_kernel",
    "bessel_kernel_diag",
    "bessel_zero",
    "bessel_zeros",
    "ApproxWeight",
    "ConditionalWeight",
    "PowerWeight",
    "ScaledWeight",
    "check_sandwich",
    "field_V",
    "field_V_gamma",
    "field_V_tilde",
    "__version__",
]
