"""Simulation of the weighted sample covariance matrix and its spectrum.

Entries are standardized (mean 0, variance 1) from a small set of families;
an EntrySampler names the family (real or complex) and holds no seed: the
seed is an argument of empirical_spectrum, one substream per trial.  The
truncation/centering/rescaling pipeline reproduces the bounded-entry
reduction: clip at eta_n sqrt(n), subtract the exact truncated mean of the
family, divide by the exact truncated standard deviation.  The moments are
exact (closed forms or atom enumeration), never sample means.  eta_n is a
plain float, checked where it is used: truncate_center_rescale refuses a
non-positive (or NaN) eta_n and a clip level that leaves the family no
variance, each with a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EmpiricalDistribution, WeightProfile

FAMILIES = ("rademacher", "uniform_pm", "gaussian", "two_point_asym")

_UNIFORM_HALF_WIDTH = math.sqrt(3.0)          # U[-a, a] with variance 1
_TWO_POINT_P = 0.9                            # P(hi); atoms keep mean 0, variance 1
_TWO_POINT_HI = math.sqrt((1 - _TWO_POINT_P) / _TWO_POINT_P)
_TWO_POINT_LO = -math.sqrt(_TWO_POINT_P / (1 - _TWO_POINT_P))

_DEGENERATE_SIGMA = 1e-12


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


def _family_atoms(sampler: EntrySampler):
    """(value, probability) pairs of a discrete family's entry, real or complex.

    None for the continuous families.  A complex entry pairs two independent
    draws, (re + i im) / sqrt(2).
    """
    if sampler.family == "rademacher":
        atoms = ((-1.0, 0.5), (1.0, 0.5))
    elif sampler.family == "two_point_asym":
        atoms = ((_TWO_POINT_HI, _TWO_POINT_P), (_TWO_POINT_LO, 1.0 - _TWO_POINT_P))
    else:
        return None
    if not sampler.complex_entries:
        return atoms
    return tuple((complex(vr, vi) / math.sqrt(2.0), pr * pi)
                 for vr, pr in atoms for vi, pi in atoms)


def truncated_moments(sampler: EntrySampler, threshold: float) -> TruncatedMoments:
    """Mean and variance of the clipped entry x I(|x| <= threshold)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    T = float(threshold)
    fam = sampler.family
    atoms = _family_atoms(sampler)
    if atoms is not None:
        # a complex entry is clipped on its modulus, which couples the parts
        mean, m2 = 0.0, 0.0
        for v, p in atoms:
            if abs(v) <= T:
                mean += v * p
                m2 += abs(v) ** 2 * p
        return TruncatedMoments(complex(mean), m2 - abs(mean) ** 2)

    if not sampler.complex_entries:
        if fam == "gaussian":
            phi = math.exp(-T * T / 2.0) / math.sqrt(2.0 * math.pi)
            return TruncatedMoments(0j, math.erf(T / math.sqrt(2.0)) - 2.0 * T * phi)
        a = _UNIFORM_HALF_WIDTH   # uniform_pm
        return TruncatedMoments(0j, min(T, a) ** 3 / (3.0 * a))

    if fam == "gaussian":
        # |x|^2 is standard exponential
        return TruncatedMoments(0.0 + 0.0j, 1.0 - (1.0 + T * T) * math.exp(-T * T))
    # uniform parts on [-b, b] with b = sqrt(3/2): the square/disk overlap
    # splits into closed-form polar wedges at theta* = arccos(b/T)
    b = math.sqrt(1.5)
    if T >= b * math.sqrt(2.0):
        return TruncatedMoments(0.0 + 0.0j, 1.0)
    if T <= b:
        return TruncatedMoments(0.0 + 0.0j, math.pi * T**4 / (8.0 * b * b))
    theta = math.acos(b / T)
    tan = math.tan(theta)
    wedge_m2 = (b**4 / 4.0) * (tan + tan**3 / 3.0) + (T**4 / 4.0) * (math.pi / 4.0 - theta)
    return TruncatedMoments(0.0 + 0.0j, 2.0 * wedge_m2 / (b * b))


# ---------------------------------------------------------------------------
# truncation pipeline
# ---------------------------------------------------------------------------

def truncate_center_rescale(X: np.ndarray, eta_n: float,
                            sampler: EntrySampler) -> tuple[np.ndarray, np.ndarray]:
    """Clip entries at eta_n sqrt(n), center and rescale by the exact moments.

    The moments are those of the sampler's family truncated at the same
    level (truncated_moments).  Returns (matrix, truncated_mask); eta_n must
    be positive, and a clip level that leaves (near) zero variance raises
    ValueError.
    """
    if not eta_n > 0:
        raise ValueError("eta_n must be positive")
    X = np.asarray(X)
    T = eta_n * math.sqrt(X.shape[0])
    mom = truncated_moments(sampler, T)
    sigma = math.sqrt(max(mom.sigma2, 0.0))
    if sigma < _DEGENERATE_SIGMA:
        raise ValueError(f"clip level {T:g} leaves {sampler.family} entries no "
                         f"variance (truncated sigma {sigma:.3g}); choose a larger eta_n")
    mask = np.abs(X) > T
    shift = mom.mean if np.iscomplexobj(X) else mom.mean.real
    return (np.where(mask, 0.0, X) - shift) / sigma, mask


# ---------------------------------------------------------------------------
# matrix assembly and spectra
# ---------------------------------------------------------------------------

def build_B(profile: WeightProfile, X: np.ndarray) -> np.ndarray:
    """Weighted sample covariance (1/N)(D o X)(D o X)*, Hermitian PSD."""
    X = np.asarray(X)
    if X.shape != (profile.n, profile.N):
        raise ValueError(
            f"matrix shape {X.shape} does not match profile ({profile.n}, {profile.N})")
    Y = profile.entries * X
    return Y @ Y.conj().T / profile.N


def hermitian_eigenvalues(B: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix."""
    B = np.asarray(B)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(float(np.max(np.abs(B))), 1e-300)
    if float(np.max(np.abs(B - B.conj().T))) > 1e-10 * scale:
        raise ValueError("matrix is not Hermitian")
    return np.linalg.eigvalsh(B)


def empirical_spectrum(profile: WeightProfile, sampler: EntrySampler,
                       eta_n: float | None = None, trials: int = 1, seed: int = 0):
    """One eigenvalue e.d.f. per trial; trial t draws from SeedSequence([seed, t]).

    With eta_n the entries go through truncate_center_rescale first.  For
    n > N the spectrum is n - N exact zeros and the eigenvalues of the N x N
    (D o X)*(D o X) / N: eigvalsh(B) would return B's null space as +-1e-16.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    out = []
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), t]))
        X = _draw(rng, profile.n, profile.N, sampler)
        if eta_n is not None:
            X, _ = truncate_center_rescale(X, eta_n, sampler)
        if profile.n > profile.N:
            Y = profile.entries * X
            evals = np.sort(np.append(np.zeros(profile.n - profile.N),
                                      hermitian_eigenvalues(Y.conj().T @ Y / profile.N)))
        else:
            evals = hermitian_eigenvalues(build_B(profile, X))
        out.append(EmpiricalDistribution(evals))
    return out
