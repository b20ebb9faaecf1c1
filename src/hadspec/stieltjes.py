"""Recover the deterministic-equivalent density and CDF from G by inversion.

The boundary density at x is (1/pi) lim Im G(x + i eta) as eta -> 0+; the
artifact evaluates Im G on a descending eta schedule and extrapolates.
Horizontal-line inversion conserves total mass exactly at fixed eta, so the
CDF is the trapezoid accumulation of the extrapolated density plus any point
mass detected at zero by mass deficit.  Trapezoids join only neighbouring
grid points: a gap (uncertified points) adds no mass, and the CDF is flat
across it.

Both inversions run one batched sweep down the eta schedule: the density
on its x grid, interval masses on the nodes of 8-point Gauss-Legendre
panels at most 2 eta_min wide (Im G(x + i eta) is analytic for
|Im x| < eta), certifying every point at every level.  Memory is
O(points x unique columns).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import DensityCurve, WeightProfile
from .fixed_point import SolverConfig, _finish, solve_batch, solve_e0

# the default eta -> 0 schedule of both inversions and the compare cells
DEFAULT_ETAS = (1e-2, 5e-3, 2.5e-3)

# a deficit 1 - int density above this is booked as a point mass at zero
_ATOM_THRESHOLD = 0.02

# Richardson is trusted only where the two finest levels agree to this
# relative band; elsewhere (support edges, steep density shoulders) the
# smallest-eta value is used.  Smooth interior points agree to ~1e-3
# relative, so the band only disarms the extrapolation where it overshoots.
_RICHARDSON_BAND = 0.05

# Interval masses: Gauss-Legendre order, and the widest panel in units of
# the smallest eta of the schedule.
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_PANEL_ETAS = 2.0


class QuadratureStallError(RuntimeError):
    """Too few inversion points converged to integrate a density or a mass."""


def _eta_schedule(etas) -> tuple:
    """The one definition of a valid eta schedule: positive, strictly descending."""
    etas = tuple(float(e) for e in etas)
    if not etas or not all(0.0 < e < np.inf for e in etas):
        raise ValueError("eta_sequence must contain positive, finite heights")
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValueError("eta_sequence must be strictly descending")
    return etas


@dataclass(frozen=True)
class InversionConfig:
    """Inversion grid and eta -> 0 schedule.

    With two or more heights the density is Richardson-extrapolated from the
    two smallest; a single height is used as it is.
    """

    x_grid: np.ndarray
    eta_sequence: tuple = DEFAULT_ETAS

    def __post_init__(self):
        xs = np.asarray(self.x_grid, dtype=float)
        if xs.ndim != 1 or xs.size == 0:
            raise ValueError("x_grid must be a nonempty 1-d array")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("x_grid must be strictly ascending")
        object.__setattr__(self, "x_grid", xs)
        object.__setattr__(self, "eta_sequence", _eta_schedule(self.eta_sequence))


def edge_refined_grid(lo: float, hi: float, n_uniform: int = 141,
                      n_edge: int = 50, width: float = 0.25) -> np.ndarray:
    """Uniform grid plus two-sided sqrt-graded refinement around the hard edge 0.

    Sample-covariance spectra can pile mass against x = 0 with a 1/sqrt(x)
    density; resolving the eta-smoothed spike on both flanks is what keeps
    the trapezoid CDF mass-accurate.
    """
    if hi <= lo:
        raise ValueError("need lo < hi")
    xs = np.linspace(lo, hi, n_uniform)
    if n_edge > 0:
        s = (np.linspace(0.0, 1.0, n_edge + 1)[1:] ** 2) * width
        ref = np.concatenate([-s, s, [0.0]])
        ref = ref[(ref >= lo) & (ref <= hi)]
        xs = np.concatenate([xs, ref])
    return np.unique(xs)


@dataclass(frozen=True)
class LevelDiagnostics:
    """Solver record of one eta level of an inversion sweep."""

    eta: float
    unconverged: int        # points not certified at this level
    residual_max: float
    rho_max: float          # largest upper bound on rho(C0), see fixed_point._certify
    defect_max: float       # worst imaginary-part identity defect
    iterations: int         # map applications, summed over the points


@dataclass(frozen=True)
class DensityDiagnostics:
    """Solver quality over the inversion sweep: one record per eta level.

    residual_max, rho_max and iterations_total are over every point and
    level; unconverged lists the abscissae the curve leaves out.
    """

    levels: tuple
    unconverged: tuple = field(default_factory=tuple)

    @property
    def residual_max(self) -> float:
        return max(lv.residual_max for lv in self.levels)

    @property
    def rho_max(self) -> float:
        return max(lv.rho_max for lv in self.levels)

    @property
    def iterations_total(self) -> int:
        return sum(lv.iterations for lv in self.levels)


def _sweep(profile: WeightProfile, xs: np.ndarray, etas: tuple, scfg: SolverConfig):
    """Solve and certify every x + i eta, each level warm-started from the one above.

    Returns Im G and the certified mask, both (levels, points), and one
    LevelDiagnostics per level.
    """
    im, ok, levels = [], [], []
    e_red = None
    for eta in etas:
        e_red, res, iters = solve_batch(profile, xs, eta, scfg, warm=e_red)
        g, rho, defect, ok_eta = _finish(profile, e_red, xs + 1j * eta, res, scfg.tol)
        im.append(g.imag)
        ok.append(ok_eta)
        levels.append(LevelDiagnostics(
            eta=eta, unconverged=int(np.count_nonzero(~ok_eta)), residual_max=float(res.max()),
            rho_max=float(rho.max()), defect_max=float(defect.max()), iterations=int(iters.sum())))
    return np.array(im), np.array(ok), tuple(levels)


def _trapezoid_steps(xs: np.ndarray, y: np.ndarray, failed_xs=()) -> np.ndarray:
    """Trapezoid areas of y over each step of xs (y's last axis), 0 across a gap.

    A gap is a step whose interval holds a point of failed_xs.  The rule of
    the density's CDF and of the metric's curve integrals; without gaps the
    steps sum to np.trapezoid(y, xs, axis=-1) bit for bit.
    """
    steps = np.diff(xs) * (y[..., 1:] + y[..., :-1]) / 2.0
    after = np.searchsorted(xs, failed_xs)
    steps[..., after[(after > 0) & (after < len(xs))] - 1] = 0.0
    return steps


def density_curve(profile: WeightProfile, cfg: InversionConfig,
                  solver_cfg: SolverConfig | None = None,
                  with_diagnostics: bool = False):
    """Invert G along the eta schedule into a density/CDF grid.

    Grid points are independent and are iterated in one data-parallel sweep
    per eta level, warm-starting each level from the previous one
    (continuation in descending v).  Points not certified at a level used by
    the extrapolation are gaps: the curve is partial, books no atom and adds
    no mass across a gap, so the mass the gaps lose stays missing.
    """
    scfg = solver_cfg or SolverConfig()
    xs = cfg.x_grid
    etas = cfg.eta_sequence
    used = min(len(etas), 2)
    im, ok, levels = _sweep(profile, xs, etas, scfg)
    good = ok[-used:].all(axis=0)
    failed = tuple(float(x) for x in xs[~good])
    xs_ok = xs[good]

    raw = y2 = im[-1, good]
    if used == 2:
        (eta1, eta2), y1 = etas[-2:], im[-2, good]
        extrap = (y2 * eta1 - y1 * eta2) / (eta1 - eta2)
        smooth = np.abs(y1 - y2) <= _RICHARDSON_BAND * np.maximum(np.minimum(y1, y2), 1e-12)
        raw = np.where(smooth, extrap, y2)
    density = np.maximum(raw, 0.0) / np.pi

    if len(xs_ok) < 2:
        raise QuadratureStallError("too few converged grid points to integrate a density")
    steps = _trapezoid_steps(xs_ok, density, failed)
    deficit = 1.0 - float(steps.sum())
    atom = deficit if deficit > _ATOM_THRESHOLD and not failed else 0.0
    cdf = np.concatenate([[0.0], np.cumsum(steps)]) + atom * (xs_ok >= 0.0)

    curve = DensityCurve(xs=xs_ok, density=density, cdf=cdf,
                         eta_used=etas, atom_at_zero=atom, failed_xs=failed)
    if with_diagnostics:
        diag = DensityDiagnostics(levels=levels, unconverged=failed)
        return curve, diag
    return curve


def cdf_interval(profile: WeightProfile, a: float, b: float, eta,
                 solver_cfg: SolverConfig | None = None) -> float:
    """Smoothed mass (1/pi) int_a^b Im G(xi + i eta) d xi.

    eta is one height or a schedule in any order; a schedule is swept from
    its largest height down and Richardson-extrapolated (unguarded) from
    its two smallest.  The rule is 8-point Gauss-Legendre on panels at most
    2 eta_min wide, with a panel edge at 0 when 0 lies inside (a, b).
    Im G(x + i eta) is analytic for |Im x| < eta, so the rule converges
    geometrically on such panels, and all levels share the nodes, so warm
    starts carry down the schedule.  Memory is O(nodes x unique columns),
    with 4 (b - a) / eta_min nodes.  Raises QuadratureStallError when a
    node has not converged at a height the result uses.
    """
    etas = _eta_schedule(sorted(np.atleast_1d(eta).astype(float), reverse=True))
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if a > b:
        raise ValueError("need a <= b")
    if a == b:
        return 0.0
    used = min(len(etas), 2)
    width = _PANEL_ETAS * etas[-1]
    cuts = [a, 0.0, b] if a < 0.0 < b else [a, b]   # 0: the hard edge of covariance spectra
    edges = np.concatenate([np.linspace(lo, hi, int(np.ceil((hi - lo) / width)) + 1)[:-1]
                            for lo, hi in zip(cuts, cuts[1:])] + [[b]])
    half = np.diff(edges)[:, None] / 2.0
    xs = (edges[:-1, None] + half + half * _GAUSS_X).ravel()

    im, ok, _ = _sweep(profile, xs, etas, solver_cfg or SolverConfig())
    failed = np.count_nonzero(~ok[-used:].all(axis=0))
    if failed:
        raise QuadratureStallError(f"{failed} of {len(xs)} quadrature nodes did not converge")
    masses = im[-used:] @ (half * _GAUSS_W).ravel() / np.pi
    if used == 1:
        return float(masses[0])
    (eta1, eta2), (m1, m2) = etas[-2:], masses
    return float((m2 * eta1 - m1 * eta2) / (eta1 - eta2))


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
