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
from .fixed_point import SolverConfig, solve_grid
from .stieltjes import InversionConfig, density_curve
from .random_spectra import EntrySampler, empirical_spectrum
from .metrics import d_metric, ks_distance
from .tightness import plan_truncation, truncate_profile
from .experiments import ExperimentSpec, make_profile, run_experiment

__version__ = "0.1.0"
