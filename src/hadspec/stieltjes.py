"""Recover the deterministic-equivalent density and CDF from G by inversion.

The boundary density at x is (1/pi) lim Im G(x + i eta) as eta -> 0+; the
artifact evaluates Im G on a descending eta schedule and extrapolates.
Horizontal-line inversion conserves total mass exactly at fixed eta, so the
CDF is the trapezoid accumulation of the extrapolated density plus any point
mass detected at zero by mass deficit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .core import DensityCurve, WeightProfile
from .fixed_point import NEAR_AXIS_MAX_ITER, SolverConfig, batch_G, batch_rho, solve_batch, solve_e0

_INVERSION_SOLVER = SolverConfig(tol=1e-12, max_iter=NEAR_AXIS_MAX_ITER)

# Richardson is trusted only where the two finest levels agree to this
# relative band; elsewhere (support edges, steep density shoulders) the
# smallest-eta value is used.  Smooth interior points agree to ~1e-3
# relative, so the band only disarms the extrapolation where it overshoots.
_RICHARDSON_BAND = 0.05


class QuadratureStallError(RuntimeError):
    """Adaptive quadrature failed to reach its tolerance."""


@dataclass(frozen=True)
class InversionConfig:
    """Inversion grid and eta -> 0 extrapolation schedule."""

    x_grid: np.ndarray
    eta_sequence: tuple = (1e-2, 5e-3, 2.5e-3)
    extrapolation: str = "richardson"   # or "last-value"
    atom_threshold: float = 0.02

    def __post_init__(self):
        xs = np.asarray(self.x_grid, dtype=float)
        if xs.ndim != 1 or xs.size == 0:
            raise ValueError("x_grid must be a nonempty 1-d array")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("x_grid must be strictly ascending")
        object.__setattr__(self, "x_grid", xs)
        etas = tuple(float(e) for e in self.eta_sequence)
        if not etas or any(e <= 0 for e in etas):
            raise ValueError("eta_sequence must contain positive heights")
        if any(b >= a for a, b in zip(etas, etas[1:])):
            raise ValueError("eta_sequence must be strictly descending")
        object.__setattr__(self, "eta_sequence", etas)
        if self.extrapolation not in ("richardson", "last-value"):
            raise ValueError("extrapolation must be 'richardson' or 'last-value'")
        if self.extrapolation == "richardson" and len(etas) < 2:
            raise ValueError("richardson extrapolation needs at least two eta levels")


def edge_refined_grid(lo: float, hi: float, n_uniform: int = 141,
                      n_edge: int = 50, edge: float = 0.0, width: float = 0.25) -> np.ndarray:
    """Uniform grid plus two-sided sqrt-graded refinement around a hard edge.

    Sample-covariance spectra can pile mass against x = 0 with a 1/sqrt(x)
    density; resolving the eta-smoothed spike on both flanks is what keeps
    the trapezoid CDF mass-accurate.
    """
    if hi <= lo:
        raise ValueError("need lo < hi")
    xs = np.linspace(lo, hi, n_uniform)
    if n_edge > 0:
        s = (np.linspace(0.0, 1.0, n_edge + 1)[1:] ** 2) * width
        ref = np.concatenate([edge - s, edge + s, [edge]])
        ref = ref[(ref >= lo) & (ref <= hi)]
        xs = np.concatenate([xs, ref])
    return np.unique(xs)


@dataclass(frozen=True)
class DensityDiagnostics:
    """Solver quality over the inversion sweep (worst case over grid)."""

    residual_max: float
    rho_max: float
    iterations_total: int
    unconverged: tuple = field(default_factory=tuple)


def density_curve(profile: WeightProfile, cfg: InversionConfig,
                  solver_cfg: SolverConfig | None = None,
                  with_diagnostics: bool = False):
    """Invert G along the eta schedule into a density/CDF grid.

    Grid points are independent and are iterated in one data-parallel sweep
    per eta level, warm-starting each level from the previous one
    (continuation in descending v).  Points whose solve fails at a level
    used by the extrapolation are reported as gaps and the curve is flagged
    partial.
    """
    scfg = solver_cfg or _INVERSION_SOLVER
    xs = cfg.x_grid
    etas = cfg.eta_sequence
    used = 2 if cfg.extrapolation == "richardson" else 1

    im_levels = []
    ok_levels = []
    warm = None
    iters_total = 0
    residual_max = 0.0
    for eta in etas:
        e_red, res, iters = solve_batch(profile, xs, eta, scfg, warm=warm)
        warm = e_red
        iters_total += int(iters.sum())
        g = batch_G(profile, e_red, xs, eta)
        im_levels.append(g.imag)
        ok_levels.append(res <= scfg.tol)
        residual_max = max(residual_max, float(res.max()))

    # certificates at the finest level (the binding one)
    rho_max = float(batch_rho(profile, e_red, xs, etas[-1]).max())

    good = np.logical_and.reduce(ok_levels[-used:])
    failed = tuple(float(x) for x in xs[~good])
    xs_ok = xs[good]

    if cfg.extrapolation == "richardson":
        eta1, eta2 = etas[-2], etas[-1]
        y1 = im_levels[-2][good]
        y2 = im_levels[-1][good]
        extrap = (y2 * eta1 - y1 * eta2) / (eta1 - eta2)
        smooth = np.abs(y1 - y2) <= _RICHARDSON_BAND * np.maximum(np.minimum(y1, y2), 1e-12)
        raw = np.where(smooth, extrap, y2)
    else:
        raw = im_levels[-1][good]
    density = np.maximum(raw, 0.0) / np.pi

    if len(xs_ok) < 2:
        raise QuadratureStallError("too few converged grid points to integrate a density")
    mass = float(np.trapezoid(density, xs_ok))
    deficit = 1.0 - mass
    atom = deficit if deficit > cfg.atom_threshold else 0.0
    cdf = np.concatenate([[0.0], integrate.cumulative_trapezoid(density, xs_ok)])
    cdf = cdf + atom * (xs_ok >= 0.0)

    curve = DensityCurve(xs=xs_ok, density=density, cdf=cdf,
                         eta_used=etas, atom_at_zero=atom, failed_xs=failed)
    if with_diagnostics:
        diag = DensityDiagnostics(residual_max=residual_max, rho_max=rho_max,
                                  iterations_total=iters_total, unconverged=failed)
        return curve, diag
    return curve


def cdf_interval(profile: WeightProfile, a: float, b: float, eta,
                 solver_cfg: SolverConfig | None = None) -> float:
    """Smoothed mass (1/pi) int_a^b Im G(xi + i eta) d xi by adaptive quadrature.

    eta may be a single height or a descending schedule; a schedule is
    Richardson-extrapolated to the real axis from its two smallest heights.
    """
    if np.iterable(eta):
        etas = sorted((float(e) for e in eta), reverse=True)
        if len(etas) < 2:
            return cdf_interval(profile, a, b, etas[0], solver_cfg)
        eta1, eta2 = etas[-2], etas[-1]
        m1 = cdf_interval(profile, a, b, eta1, solver_cfg)
        m2 = cdf_interval(profile, a, b, eta2, solver_cfg)
        return (m2 * eta1 - m1 * eta2) / (eta1 - eta2)
    if a > b:
        raise ValueError("need a <= b")
    if a == b:
        return 0.0
    if eta <= 0:
        raise ValueError("eta must be positive")
    scfg = solver_cfg or _INVERSION_SOLVER

    cache: list[tuple[float, np.ndarray]] = []

    def im_g(x: float) -> float:
        warm = None
        if cache:
            warm = min(cache, key=lambda item: abs(item[0] - x))[1]
        sol = solve_e0(profile, complex(x, eta), scfg, warm_start=warm)
        if sol.converged:
            cache.append((x, sol.e0))
        return sol.g.imag / np.pi

    interior = [x for x in (0.0,) if a < x < b]
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, _ = integrate.quad(im_g, a, b, epsabs=1e-6, epsrel=1e-6,
                                      limit=200, points=interior or None)
        except integrate.IntegrationWarning as exc:
            raise QuadratureStallError(str(exc)) from exc
    return float(value)


@dataclass(frozen=True)
class MassCheckReport:
    """Large-|z| sanity of the transform and of every e0 component.

    g_defect maps v to |z G(z) + 1| at z = iv; e_defect maps v to
    max_j |z e0_j(z) + t_j| with t_j = (1/n) sum_i d_ij^2.  Both vanish as
    v grows when G and the e0_j are Stieltjes transforms of measures with
    the right total mass.
    """

    g_defect: dict
    e_defect: dict
    max_g_defect: float
    max_e_defect: float
    mass_scale: float

    @property
    def max_e_defect_rel(self) -> float:
        return self.max_e_defect / self.mass_scale


def mass_check(profile: WeightProfile, solver_cfg: SolverConfig | None = None,
               exponents=range(2, 7)) -> MassCheckReport:
    """Evaluate the total-mass asymptotics at z = i 10^k, k in exponents."""
    scfg = solver_cfg or SolverConfig()
    t = profile.column_masses
    g_defect = {}
    e_defect = {}
    for k in exponents:
        v = 10.0 ** k
        z = complex(0.0, v)
        sol = solve_e0(profile, z, scfg)
        g_defect[v] = abs(z * sol.g + 1.0)
        e_defect[v] = float(np.max(np.abs(z * sol.e0 + t)))
    return MassCheckReport(
        g_defect=g_defect,
        e_defect=e_defect,
        max_g_defect=max(g_defect.values()),
        max_e_defect=max(e_defect.values()),
        mass_scale=float(np.max(t)),
    )
