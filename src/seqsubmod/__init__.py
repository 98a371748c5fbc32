"""Select and order k items under position-weighted, possibly non-monotone
submodular utilities.

The objective F(pi) = sum_j lambda_j * f_j(first j items of pi) rewards
sequences whose prefixes score well position by position.  The package ships
randomized greedy solvers with proven constant-factor guarantees, exhaustive
search for small instances, comparison baselines, and a seeded Monte Carlo
harness that verifies the guarantees empirically.
"""

from .algorithms import (
    FIXED,
    FLEXIBLE,
    P_STAR,
    EnumerationTooLargeError,
    GreedyTrace,
    InfeasibleError,
    SamplerConfig,
    SplitMix64,
    alg2_second_half,
    baseline_covdiv,
    baseline_quality,
    brute_force,
    derive_seed,
    fixed_length_solve,
    homogeneous_first_half,
    homogeneous_solve,
    presampled_greedy,
    sampling_greedy,
    sampling_greedy_j,
    verify_trace,
)
from .core import (
    EvalCounter,
    ObjectiveBundle,
    OracleEvaluationError,
    Sequence,
    WeightProfile,
    as_sequence,
    as_weights,
    evaluate_F,
    heterogeneous_bundle,
    homogeneous_bundle,
    marginal_gain,
    telescoping_value,
)
from .files import (
    Instance,
    InstanceFormatError,
    read_experiment,
    read_instance,
    read_matrix,
    read_results,
    synthetic_covdiv_instance,
    synthetic_modular_instance,
    write_instance,
    write_matrix,
    write_results,
)
from .functions import (
    ComplementFn,
    CoverageDiversityFn,
    CoverageFn,
    ModularPenaltyFn,
    ProbeReport,
    ProbeViolation,
    auto_scale,
    similarity_from_tags,
    submodularity_probe,
    tiny_instance,
)
from .harness import (
    HOMOGENEOUS,
    BoundVerdict,
    CellStats,
    ExperimentSpec,
    RunStats,
    UserTypeDistribution,
    bound_check,
    bound_factor,
    comparative_experiment,
    make_weights,
    round_seed,
)

__version__ = "0.1.0"

__all__ = [
    "EnumerationTooLargeError", "FIXED", "FLEXIBLE", "GreedyTrace",
    "InfeasibleError", "P_STAR", "SamplerConfig", "SplitMix64", "alg2_second_half",
    "baseline_covdiv", "baseline_quality", "brute_force", "derive_seed",
    "fixed_length_solve", "homogeneous_first_half", "homogeneous_solve",
    "presampled_greedy", "sampling_greedy", "sampling_greedy_j", "verify_trace",
    "EvalCounter", "ObjectiveBundle", "OracleEvaluationError", "Sequence",
    "WeightProfile", "as_sequence", "as_weights", "evaluate_F",
    "heterogeneous_bundle", "homogeneous_bundle", "marginal_gain",
    "telescoping_value",
    "Instance", "InstanceFormatError", "read_experiment", "read_instance",
    "read_matrix", "read_results", "synthetic_covdiv_instance",
    "synthetic_modular_instance", "write_instance", "write_matrix", "write_results",
    "ComplementFn", "CoverageDiversityFn", "CoverageFn", "ModularPenaltyFn",
    "ProbeReport", "ProbeViolation", "auto_scale", "similarity_from_tags",
    "submodularity_probe", "tiny_instance",
    "HOMOGENEOUS", "BoundVerdict", "CellStats", "ExperimentSpec", "RunStats",
    "UserTypeDistribution", "bound_check", "bound_factor",
    "comparative_experiment", "make_weights", "round_seed",
]
