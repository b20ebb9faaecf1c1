"""Deterministic equivalents for Hadamard-weighted sample covariance spectra.

The package solves the coupled fixed-point system for the vector e0(z) in the
upper half-plane, evaluates the associated Stieltjes transform G(z), recovers
the deterministic-equivalent density/CDF by inversion, and validates the
result against Monte Carlo eigenvalue simulation of the weighted random
matrix (1/N)(D o X)(D o X)*.
"""

from .core import (
    DensityCurve,
    EmpiricalDistribution,
    EmptyMatrixError,
    FixedPointSolution,
    NegativeEntryError,
    ProfileValidationError,
    SpectralPoint,
    WeightProfile,
    ZeroColumnError,
    ZGrid,
    validate_profile,
)
from .fixed_point import (
    ContractionDiagnostics,
    SolverConfig,
    build_certificate,
    cross_contraction_matrix,
    evaluate_G,
    iterate_e,
    row_denominators,
    solve_e0,
    solve_grid,
)
from .stieltjes import InversionConfig, cdf_interval, density_curve, edge_refined_grid, mass_check
from .random_spectra import (
    EntrySampler,
    PipelineResult,
    TruncationPipelineConfig,
    build_B,
    empirical_spectrum,
    hermitian_eigenvalues,
    sample_matrix,
    truncate_center_rescale,
)
from .metrics import TestFunctionIndex, d_metric, ks_distance
from .tightness import TruncationPlan, plan_truncation, truncate_profile
from .experiments import ComparisonReport, ExperimentSpec, make_profile, run_experiment

__version__ = "0.1.0"
