"""Numerical laboratory for matrix-weighted dyadic Carleson embeddings.

Dyadic trees with piecewise-constant matrix weights, the embedding sums
and weight characteristics of the bilinear embedding theory, the
two-eigenvalue counterexample family, Bellman-function certificates for
the redundancy bound, and a seeded experiment harness around them.
"""

__version__ = "0.1.0"

from .bellman import (
    BellmanPoint,
    bellman_concavity_gap,
    bellman_dm_gap,
    bellman_dynamics_gap,
    bellman_eval,
    dyadic_point,
    dynamics_gaps,
    matrix_parameter_probe,
    telescoping_certificate,
)
from .characteristics import (
    MatrixSequence,
    ScalarSequence,
    a2_characteristic,
    c2_conditioning,
    carleson_equivalents,
    carleson_intensity,
    wcet_testing_constant,
)
from .constructions import (
    EPS_SWEEP,
    EpsilonInstance,
    RandomInstance,
    epsilon_family,
    necessity_probe,
    random_instance,
)
from .dyadic import (
    ROOT,
    DyadicIndex,
    StepField,
    average,
    cubes,
    descendants,
    integral,
    stepfield_from_json,
    stepfield_to_json,
    tree_size,
)
from .embeddings import (
    bet_cube_functional,
    bet_inner_sum,
    bet_norm_sum,
    cet_sum,
    choquet_integral,
    maximal_function,
    phi_product,
    weighted_l2_norm,
)
from .errors import (
    AddressError,
    ConfigError,
    DimensionMismatchError,
    DomainError,
    LabError,
    NumericError,
    PreconditionError,
    SingularMatrixError,
)
from .lab import (
    EXPERIMENTS,
    ExperimentConfig,
    LabReport,
    adversarial_search,
    default_config,
    run_experiment,
)
from .matrices import as_symmetric, operator_norm, psd_gap, spd_power, spectrum
from .redundancy import red_constants, red_quadratic_form, sred_constant
