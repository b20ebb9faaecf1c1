"""Recover the deterministic-equivalent density and CDF from G by inversion.

The law of B lives on [0, inf), with an atom a at 0 when n > N.
density_curve inverts in s = sqrt(x): w G(w^2) is the Stieltjes transform
of the symmetrised singular-value law, whose density rho_s is bounded at 0
and whose only singularity there is the atom's pole -a/w.  So it solves at
w = s + i eta (eta is a height in s), measures the atom (_atom), and reads
rho_s = (1/pi) Im[w G(w^2) + a/w] through _richardson, the one eta -> 0
rule of both inversions, on a schedule valid by _eta_schedule.  Both
inversions run one batched sweep (_sweep) down the schedule, certifying
every point at every level: the density at (s + i eta)^2, interval masses
at x + i eta on the nodes of 8-point Gauss-Legendre panels at most
2 eta_min wide (Im G(x + i eta) is analytic for |Im x| < eta).  Memory is
O(points x unique columns).  The curve (core.DensityCurve) holds rho_s and
the atom, and owns the rule that integrates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityCurve, WeightProfile, ZGrid, _readonly
from .fixed_point import SolverConfig, _finish, solve_batch, solve_e0, solve_grid

# the default eta -> 0 schedule of both inversions and the compare cells
DEFAULT_ETAS = (1e-2, 5e-3, 2.5e-3)

# Interval masses: Gauss-Legendre order, and the widest panel in units of
# the smallest eta of the schedule.
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_PANEL_ETAS = 2.0
# the atom's heights y in units of the profile's first moment mean(d^2)
_ATOM_HEIGHTS = (1e-5, 1e-7)


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
    """Inversion grid (x > 0) and eta -> 0 schedule of heights in s = sqrt(x).

    With two or more heights the density is Richardson-extrapolated from the
    two smallest; a single height is used as it is.
    """

    x_grid: np.ndarray
    eta_sequence: tuple = DEFAULT_ETAS

    def __post_init__(self):
        xs = _readonly(np.array(self.x_grid, dtype=float))
        if xs.ndim != 1 or xs.size < 2:
            raise ValueError("x_grid must hold at least 2 points in a 1-d array")
        if not np.all((xs > 0) & (xs < np.inf)):
            raise ValueError("x_grid must be finite and positive")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("x_grid must be strictly ascending")
        object.__setattr__(self, "x_grid", xs)
        object.__setattr__(self, "eta_sequence", _eta_schedule(self.eta_sequence))


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

    residual_max and rho_max are over every point and level; the abscissae
    the curve leaves out are its failed_xs.
    """

    levels: tuple

    @property
    def residual_max(self) -> float:
        return max(lv.residual_max for lv in self.levels)

    @property
    def rho_max(self) -> float:
        return max(lv.rho_max for lv in self.levels)


def _sweep(profile: WeightProfile, z_of, etas: tuple, scfg: SolverConfig):
    """Solve and certify the points z_of(eta) of each level, warm-started from the one above.

    Returns G at the levels the eta -> 0 estimate uses (the two smallest
    heights, or the only one), shape (used, points); the mask of points
    certified at all of those levels; and one LevelDiagnostics per level.
    """
    gs, ok, levels = [], [], []
    e_red = None
    for eta in etas:
        z = z_of(eta)
        e_red, res, iters = solve_batch(profile, z.real, z.imag, scfg, warm=e_red)
        g, rho, defect, ok_eta = _finish(profile, e_red, z, res, scfg.tol)
        gs.append(g)
        ok.append(ok_eta)
        levels.append(LevelDiagnostics(
            eta=eta, unconverged=int(np.count_nonzero(~ok_eta)), residual_max=float(res.max()),
            rho_max=float(rho.max()), defect_max=float(defect.max()), iterations=int(iters.sum())))
    used = min(len(etas), 2)
    return np.array(gs[-used:]), np.array(ok[-used:]).all(axis=0), tuple(levels)


def _richardson(etas: tuple, y: np.ndarray):
    """The eta -> 0 estimate from y at the len(y) smallest heights of etas.

    Linear in eta through two levels; one level is used as it is.  Both
    inversions use it at every point: in the bulk Im G(x + i eta) is
    pi density(x) + O(eta), and off the support it is
    eta int dmu(t) / ((x - t)^2 + eta^2), linear in eta, so the estimate
    removes the eta-tail that a finest-level value would keep there.
    """
    if len(y) == 1:
        return y[0]
    (eta1, eta2), (y1, y2) = etas[-2:], y
    return (y2 * eta1 - y1 * eta2) / (eta1 - eta2)


def _atom(profile: WeightProfile, scfg: SolverConfig) -> float:
    """The mass at 0: max(0, _richardson in sqrt(y) of y Im G(iy)), one solve_grid block.

    y Im G(iy) tends to a as y -> 0, and a hard edge adds C sqrt(y), which
    the extrapolation through _ATOM_HEIGHTS (in units of mean(d^2), so a
    does not depend on the units of D) cancels.
    """
    ys = np.array(_ATOM_HEIGHTS) * float(profile.squared.mean())
    sols = solve_grid(profile, ZGrid.product([0.0], ys), scfg)    # descending, as ys
    if not all(s.converged for s in sols):
        raise QuadratureStallError("the atom at 0 did not converge")
    g = np.array([s.g for s in sols])
    return max(0.0, float(_richardson(tuple(np.sqrt(ys)), ys * g.imag)))


def density_curve(profile: WeightProfile, cfg: InversionConfig,
                  solver_cfg: SolverConfig | None = None,
                  with_diagnostics: bool = False):
    """Invert G in s = sqrt(x) along the eta schedule into a density/CDF grid.

    Each eta level is one data-parallel sweep at z = (s + i eta)^2,
    warm-started from the level above.  At each certified point
    rho_s = max(_richardson(etas, Im[w G(w^2) + a/w]), 0) / pi, a = _atom;
    the curve (DensityCurve) holds rho_s and a and derives its CDF by its
    own rule.  Points not certified at a level the estimate reads are gaps:
    the curve is partial and adds no mass across a gap.
    """
    scfg = solver_cfg or SolverConfig()
    xs = cfg.x_grid
    etas = cfg.eta_sequence
    s = np.sqrt(xs)
    g, good, levels = _sweep(profile, lambda eta: (s + 1j * eta) ** 2, etas, scfg)
    failed = tuple(float(x) for x in xs[~good])
    if np.count_nonzero(good) < 2:
        raise QuadratureStallError("too few converged grid points to integrate a density")
    atom = _atom(profile, scfg)
    w = s[good] + 1j * np.array(etas[-len(g):])[:, None]
    rho = np.maximum(_richardson(etas, (w * g[:, good] + atom / w).imag), 0.0) / np.pi
    curve = DensityCurve(xs=xs[good], rho_s=rho, eta_used=etas, atom_at_zero=atom,
                         failed_xs=failed)
    if with_diagnostics:
        return curve, DensityDiagnostics(levels=levels)
    return curve


def cdf_interval(profile: WeightProfile, a: float, b: float, eta,
                 solver_cfg: SolverConfig | None = None) -> float:
    """Smoothed mass (1/pi) int_a^b Im G(xi + i eta) d xi.

    eta is one height or a schedule valid by _eta_schedule (strictly
    descending); a schedule is swept from its first height down and
    extrapolated by _richardson from its two smallest, as density_curve
    is.  The rule is 8-point Gauss-Legendre on panels at most 2 eta_min
    wide, with a panel edge at 0 when 0 lies inside (a, b).
    Im G(x + i eta) is analytic for |Im x| < eta, so the rule converges
    geometrically on such panels, and all levels share the nodes, so warm
    starts carry down the schedule.  Memory is O(nodes x unique columns),
    with 4 (b - a) / eta_min nodes.  Raises QuadratureStallError when a
    node has not converged at a height the result uses.  An end at 0 reads
    half the atom there and part of the hard edge's leak (mass of [0, 1] on
    constant 64x32, atom 0.5: 0.250 low); an end at -1 reads them in full.
    """
    etas = _eta_schedule(np.atleast_1d(eta))
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if a > b:
        raise ValueError("need a <= b")
    if a == b:
        return 0.0
    width = _PANEL_ETAS * etas[-1]
    cuts = [a, 0.0, b] if a < 0.0 < b else [a, b]   # 0: the hard edge of covariance spectra
    edges = np.concatenate([np.linspace(lo, hi, int(np.ceil((hi - lo) / width)) + 1)[:-1]
                            for lo, hi in zip(cuts, cuts[1:])] + [[b]])
    half = np.diff(edges)[:, None] / 2.0
    xs = (edges[:-1, None] + half + half * _GAUSS_X).ravel()

    g, ok, _ = _sweep(profile, lambda eta: xs + 1j * eta, etas, solver_cfg or SolverConfig())
    failed = np.count_nonzero(~ok)
    if failed:
        raise QuadratureStallError(f"{failed} of {len(xs)} quadrature nodes did not converge")
    im = np.ascontiguousarray(g.imag)       # a strided view would sum in another order
    return float(_richardson(etas, im @ (half * _GAUSS_W).ravel() / np.pi))


@dataclass(frozen=True)
class MassCheckReport:
    """Large-|z| sanity of the transform and of every e0 component.

    g_defect maps v to |z G(z) + 1| at z = iv; e_defect maps v to
    max_j |z e0_j(z) + t_j| with t_j = (1/n) sum_i d_ij^2.  Both vanish as
    v grows when G and the e0_j are Stieltjes transforms of measures with
    the right total mass; e_defect's scale is max_j t_j.
    """

    g_defect: dict
    e_defect: dict


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
    return MassCheckReport(g_defect=g_defect, e_defect=e_defect)
