"""Simulation of the weighted sample covariance matrix and its spectrum.

Entries are standardized (mean 0, variance 1) from a small set of families;
an EntrySampler names the family (real or complex) and holds no seed: the
seed is an argument of empirical_spectrum, one substream per trial.  The
truncation/centering/rescaling pipeline reproduces the bounded-entry
reduction: clip at eta_n sqrt(n), subtract the exact truncated mean of the
family, divide by the exact truncated standard deviation.  Exact moments
(closed forms or atom enumeration) are used rather than sample means; a
pooled empirical fallback covers matrices of unknown provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatchError, EmpiricalDistribution, WeightProfile

FAMILIES = ("rademacher", "uniform_pm", "gaussian", "two_point_asym")

_UNIFORM_HALF_WIDTH = math.sqrt(3.0)          # U[-a, a] with variance 1
_TWO_POINT_P = 0.9                            # P(hi); atoms keep mean 0, variance 1
_TWO_POINT_HI = math.sqrt((1 - _TWO_POINT_P) / _TWO_POINT_P)
_TWO_POINT_LO = -math.sqrt(_TWO_POINT_P / (1 - _TWO_POINT_P))

_DEGENERATE_SIGMA = 1e-12


class ConvergenceFailureError(RuntimeError):
    """The dense eigensolver failed to converge."""


@dataclass(frozen=True)
class EntrySampler:
    """Family of iid standardized entries.

    With complex_entries the real and imaginary parts are independent family
    draws scaled by 1/sqrt(2), so each part has variance 1/2.
    """

    family: str
    complex_entries: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")


def _draw_real(rng: np.random.Generator, family: str, shape) -> np.ndarray:
    if family == "rademacher":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    if family == "uniform_pm":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=shape)
    if family == "gaussian":
        return rng.standard_normal(shape)
    if family == "two_point_asym":
        return np.where(rng.random(shape) < _TWO_POINT_P, _TWO_POINT_HI, _TWO_POINT_LO)
    raise ValueError(family)


def _draw(rng: np.random.Generator, n: int, N: int, sampler: EntrySampler) -> np.ndarray:
    if sampler.complex_entries:
        re = _draw_real(rng, sampler.family, (n, N))
        im = _draw_real(rng, sampler.family, (n, N))
        return (re + 1j * im) / math.sqrt(2.0)
    return _draw_real(rng, sampler.family, (n, N))


# ---------------------------------------------------------------------------
# exact moments of truncated entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncatedMoments:
    """Moments of x I(|x| <= T) under the exact family distribution."""

    mean: complex
    sigma2: float
    clip_probability: float


def _family_atoms(family: str):
    if family == "rademacher":
        return ((-1.0, 0.5), (1.0, 0.5))
    if family == "two_point_asym":
        return ((_TWO_POINT_HI, _TWO_POINT_P), (_TWO_POINT_LO, 1.0 - _TWO_POINT_P))
    return None


def truncated_moments(sampler: EntrySampler, threshold: float) -> TruncatedMoments:
    """Mean and variance of the clipped entry x I(|x| <= threshold)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    T = float(threshold)
    fam = sampler.family
    atoms = _family_atoms(fam)

    if not sampler.complex_entries:
        if atoms is not None:
            vals = np.array([v for v, _ in atoms])
            probs = np.array([p for _, p in atoms])
            keep = np.abs(vals) <= T
            mean = float(np.sum(vals * probs * keep))
            m2 = float(np.sum(vals**2 * probs * keep))
            clip = float(np.sum(probs[~keep]))
        elif fam == "gaussian":
            phi = math.exp(-T * T / 2.0) / math.sqrt(2.0 * math.pi)
            inside = math.erf(T / math.sqrt(2.0))
            mean, m2, clip = 0.0, inside - 2.0 * T * phi, 1.0 - inside
        else:  # uniform_pm
            a = _UNIFORM_HALF_WIDTH
            m = min(T, a)
            mean, m2, clip = 0.0, m**3 / (3.0 * a), max(0.0, 1.0 - m / a)
        return TruncatedMoments(complex(mean), m2 - mean * mean, clip)

    # complex case: truncation couples the two parts through the modulus
    if atoms is not None:
        mean = 0.0 + 0.0j
        m2 = 0.0
        clip = 0.0
        for vr, pr in atoms:
            for vi, pi in atoms:
                z = complex(vr, vi) / math.sqrt(2.0)
                p = pr * pi
                if abs(z) <= T:
                    mean += z * p
                    m2 += abs(z) ** 2 * p
                else:
                    clip += p
        sigma2 = m2 - abs(mean) ** 2
        return TruncatedMoments(mean, sigma2, clip)
    if fam == "gaussian":
        # |x|^2 is standard exponential
        m2 = 1.0 - (1.0 + T * T) * math.exp(-T * T)
        return TruncatedMoments(0.0 + 0.0j, m2, math.exp(-T * T))
    # uniform parts on [-b, b] with b = sqrt(3/2): the square/disk overlap
    # splits into closed-form polar wedges at theta* = arccos(b/T)
    b = math.sqrt(1.5)
    if T >= b * math.sqrt(2.0):
        return TruncatedMoments(0.0 + 0.0j, 1.0, 0.0)
    if T <= b:
        m2 = math.pi * T**4 / (8.0 * b * b)
        p_in = math.pi * T * T / (4.0 * b * b)
    else:
        theta = math.acos(b / T)
        tan = math.tan(theta)
        wedge_m2 = (b**4 / 4.0) * (tan + tan**3 / 3.0) + (T**4 / 4.0) * (math.pi / 4.0 - theta)
        wedge_area = (b * b / 2.0) * tan + (T * T / 2.0) * (math.pi / 4.0 - theta)
        m2 = 2.0 * wedge_m2 / (b * b)
        p_in = 2.0 * wedge_area / (b * b)
    return TruncatedMoments(0.0 + 0.0j, m2, 1.0 - p_in)


# ---------------------------------------------------------------------------
# truncation pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TruncationPipelineConfig:
    """Clip level multiplier of the pipeline."""

    eta_n: float

    def __post_init__(self):
        if not self.eta_n > 0:
            raise ValueError("eta_n must be positive")


@dataclass(frozen=True)
class PipelineResult:
    """Pipeline output plus the bookkeeping the perturbation bounds need."""

    matrix: np.ndarray
    truncated_mask: np.ndarray
    degenerate_count: int
    mean: complex
    sigma: float
    threshold: float


def truncate_center_rescale(X: np.ndarray, cfg: TruncationPipelineConfig,
                            sampler: EntrySampler | None = None) -> PipelineResult:
    """Clip entries at eta_n sqrt(n), center and rescale by exact moments.

    With a sampler the centering/rescaling moments are the exact truncated
    moments of the family; without one they fall back to pooled empirical
    moments of the clipped matrix (entries are iid, so pooling is the
    empirical analogue of the per-entry expectation).  A (near) zero
    truncated standard deviation zeroes the whole matrix, one degeneracy
    flag per entry.
    """
    X = np.asarray(X)
    n = X.shape[0]
    T = cfg.eta_n * math.sqrt(n)
    mask = np.abs(X) > T
    clipped = np.where(mask, 0.0, X)

    if sampler is not None:
        mom = truncated_moments(sampler, T)
        mean = mom.mean
        sigma2 = mom.sigma2
    else:
        mean = complex(clipped.mean())
        sigma2 = float(np.mean(np.abs(clipped - mean) ** 2))
    shift = mean if np.iscomplexobj(X) else mean.real

    out = clipped - shift
    sigma = math.sqrt(max(sigma2, 0.0))
    degenerate = 0
    if sigma < _DEGENERATE_SIGMA:
        out = np.zeros_like(out)
        degenerate = out.size
        sigma = 0.0
    else:
        out = out / sigma
    return PipelineResult(matrix=out, truncated_mask=mask, degenerate_count=degenerate,
                          mean=complex(mean), sigma=sigma, threshold=T)


# ---------------------------------------------------------------------------
# matrix assembly and spectra
# ---------------------------------------------------------------------------

def build_B(profile: WeightProfile, X: np.ndarray) -> np.ndarray:
    """Weighted sample covariance (1/N)(D o X)(D o X)*, Hermitian PSD."""
    X = np.asarray(X)
    if X.shape != (profile.n, profile.N):
        raise DimensionMismatchError(
            f"matrix shape {X.shape} does not match profile ({profile.n}, {profile.N})")
    Y = profile.entries * X
    return Y @ Y.conj().T / profile.N


def hermitian_eigenvalues(B: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix."""
    B = np.asarray(B)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DimensionMismatchError("expected a square matrix")
    scale = max(float(np.max(np.abs(B))), 1e-300)
    if float(np.max(np.abs(B - B.conj().T))) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")
    try:
        return np.linalg.eigvalsh(B)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc


def trial_seed_sequence(master_seed: int, trial: int) -> np.random.SeedSequence:
    """Deterministic, order-independent substream for one trial."""
    return np.random.SeedSequence([int(master_seed), int(trial)])


def empirical_spectrum(profile: WeightProfile, sampler: EntrySampler,
                       pipeline: TruncationPipelineConfig | None = None,
                       trials: int = 1, seed: int = 0):
    """One eigenvalue e.d.f. per trial, seeded independently per trial."""
    if trials < 1:
        raise ValueError("need at least one trial")
    out = []
    for t in range(trials):
        rng = np.random.default_rng(trial_seed_sequence(seed, t))
        X = _draw(rng, profile.n, profile.N, sampler)
        if pipeline is not None:
            X = truncate_center_rescale(X, pipeline, sampler).matrix
        B = build_B(profile, X)
        out.append(EmpiricalDistribution(hermitian_eigenvalues(B)))
    return out
