"""Monotone threshold networks: interpolation, approximation, audits, and
the perfect-matching probability function."""

from .approx import GridSpec, build_approximator, plan_grid
from .audit import (
    AuditReport,
    certify_monotone_structure,
    chain_width_audit,
    depth2_counterexample,
    depth2_inequality_audit,
    probe_monotonicity,
    relu_convexity_probe,
    sqrt_gap_witness,
)
from .construct import (
    ConstructionTrace,
    build_chain_interpolator,
    build_interpolator,
    separating_coordinate,
)
from .core import (
    RELU,
    THRESHOLD,
    ExactStage,
    MonotoneDataset,
    ThresholdLayer,
    ThresholdNetwork,
    WeightPattern,
    affine_network,
    is_totally_ordered,
    threshold,
    validate_dataset,
)
from .matching import (
    BipartiteGraph,
    EdgeProbabilityMatrix,
    EstimatorConfig,
    default_parameters,
    estimate_matching_probability,
    exact_matching_probability,
    has_perfect_matching,
    lipschitz_probe,
    monotone_probe_m,
    truncate_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BipartiteGraph",
    "ConstructionTrace",
    "EdgeProbabilityMatrix",
    "EstimatorConfig",
    "ExactStage",
    "GridSpec",
    "MonotoneDataset",
    "RELU",
    "THRESHOLD",
    "ThresholdLayer",
    "ThresholdNetwork",
    "WeightPattern",
    "affine_network",
    "build_approximator",
    "build_chain_interpolator",
    "build_interpolator",
    "certify_monotone_structure",
    "chain_width_audit",
    "default_parameters",
    "depth2_counterexample",
    "depth2_inequality_audit",
    "estimate_matching_probability",
    "exact_matching_probability",
    "has_perfect_matching",
    "is_totally_ordered",
    "lipschitz_probe",
    "monotone_probe_m",
    "plan_grid",
    "probe_monotonicity",
    "relu_convexity_probe",
    "separating_coordinate",
    "sqrt_gap_witness",
    "threshold",
    "truncate_probabilities",
    "validate_dataset",
]
