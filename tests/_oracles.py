"""Independent oracles used to freeze expected test values.

Everything here is implemented from scratch against closed forms or brute
force, never by calling the code under test.  The two exceptions are former
implementations kept as references for their faster rewrites: the rescan
planner, which shares only the TruncationPlan container, and the adaptive
quadrature of interval masses, which calls the scalar solver where the
rewrite runs batched sweeps.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
from scipy import integrate

from hadspec.fixed_point import NEAR_AXIS_MAX_ITER, SolverConfig, solve_e0
from hadspec.stieltjes import QuadratureStallError
from hadspec.tightness import TruncationPlan

_INVERSION_SOLVER = SolverConfig(tol=1e-12, max_iter=NEAR_AXIS_MAX_ITER)


# -- Marchenko-Pastur scalar oracle (all-ones profile) -----------------------

def mp_stieltjes_root(z: complex, c: float) -> complex:
    """Upper-half-plane root of c z m^2 + (z + c - 1) m + 1 = 0 via np.roots."""
    roots = np.roots([c * z, z + c - 1.0, 1.0])
    upper = [r for r in roots if r.imag > 0]
    assert len(upper) == 1, f"expected exactly one upper root, got {roots}"
    return complex(upper[0])


def mp_density_c1(x: float) -> float:
    """Closed-form density (1/(2 pi x)) sqrt(x (4 - x)) on (0, 4], ratio 1."""
    if x <= 0 or x >= 4:
        return 0.0
    return math.sqrt(x * (4.0 - x)) / (2.0 * math.pi * x)


def mp_cdf_c1(x: float) -> float:
    if x <= 0:
        return 0.0
    if x >= 4:
        return 1.0
    s = math.sqrt(x * (4.0 - x))
    return 0.5 + s / (2.0 * math.pi) + math.atan((x - 2.0) / s) / math.pi


# -- truncated entry moments --------------------------------------------------

def truncated_normal_moments(T: float):
    """(mean, variance) of x I(|x| <= T), x standard normal, by quadrature."""
    phi = lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    mean = integrate.quad(lambda x: x * phi(x), -T, T)[0]
    m2 = integrate.quad(lambda x: x * x * phi(x), -T, T)[0]
    return mean, m2 - mean**2


def truncated_uniform_moments(T: float):
    """(mean, variance) of x I(|x| <= T), x uniform on [-sqrt(3), sqrt(3)]."""
    a = math.sqrt(3.0)
    lo, hi = -min(T, a), min(T, a)
    mean = integrate.quad(lambda x: x / (2 * a), lo, hi)[0]
    m2 = integrate.quad(lambda x: x * x / (2 * a), lo, hi)[0]
    return mean, m2 - mean**2


def truncated_complex_gaussian_m2(T: float) -> float:
    """E |x|^2 I(|x| <= T) for complex standard x, by 2-d polar quadrature."""
    # parts are N(0, 1/2): density of r = |x| is 2 r exp(-r^2)
    return integrate.quad(lambda r: r * r * 2 * r * math.exp(-r * r), 0.0, T)[0]


def truncated_complex_uniform_m2(T: float) -> float:
    """E |x|^2 I(|x| <= T), parts uniform on [-sqrt(3/2), sqrt(3/2)].

    Polar quadrature over one symmetry wedge with the square/disk crossover
    angle declared as a breakpoint.
    """
    b = math.sqrt(1.5)
    if T >= b * math.sqrt(2.0):
        return 1.0

    def integrand(theta):
        r = min(T, b / math.cos(theta))
        return r**4 / 4.0

    pieces = [math.acos(b / T)] if T > b else None
    wedge = integrate.quad(integrand, 0.0, math.pi / 4.0, points=pieces, limit=200)[0]
    return 8.0 * wedge / (4.0 * b * b)


# -- tightness brute force -----------------------------------------------------

def brute_force_min_M(entries: np.ndarray, budget: int) -> float:
    """Optimal max surviving entry over all row/column subsets within budget."""
    n, N = entries.shape
    best = float(entries.max())
    for r_size in range(min(budget, n) + 1):
        for rows in itertools.combinations(range(n), r_size):
            row_ok = np.ones(n, bool)
            row_ok[list(rows)] = False
            c_budget = min(budget - r_size, N)
            sub = entries[row_ok, :]
            if sub.size == 0:
                best = 0.0
                continue
            # columns sorted by their max; removing the c_budget largest-max
            # columns is optimal once rows are fixed
            col_max = sub.max(axis=0)
            order = np.argsort(col_max)
            for k in range(c_budget + 1):
                keep = order[: N - k]
                cand = float(col_max[keep].max()) if keep.size else 0.0
                best = min(best, cand)
    return best


# -- greedy planner by full rescan -------------------------------------------

def _masked_max(entries, row_ok, col_ok) -> float:
    sub = entries[np.ix_(row_ok, col_ok)]
    return float(sub.max()) if sub.size else 0.0


def greedy_plan_rescan(profile, epsilon: float):
    """Reference greedy planner: scores every surviving line by rescanning
    the whole masked matrix, O(budget * (n + N) * n * N).  The fast
    hadspec.tightness.plan_truncation must return the same plan; only the
    TruncationPlan container is shared with the code under test.

    Greedy line peeling under the budget floor(eps * n).

    Each step removes the single row or column whose removal most reduces
    the maximum surviving entry; when the current maximum is spread over
    several lines so that no single removal lowers it, the line covering
    the most maximum-attaining entries is peeled instead (rows before
    columns, lower index first on ties).  Removals past the last strict
    drop of the maximum are rolled back, so an already-flat profile removes
    nothing.
    """
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    budget = int(np.floor(epsilon * profile.n))
    entries = profile.entries
    row_ok = np.ones(profile.n, dtype=bool)
    col_ok = np.ones(profile.N, dtype=bool)
    removals: list[tuple[str, int]] = []   # trajectory in removal order
    last_drop = 0                          # removals needed for the best M seen

    while len(removals) < budget:
        current = _masked_max(entries, row_ok, col_ok)
        if current <= 0:
            break
        best = (current, None, None)
        for i in np.nonzero(row_ok)[0]:
            row_ok[i] = False
            cand = _masked_max(entries, row_ok, col_ok)
            row_ok[i] = True
            if cand < best[0]:
                best = (cand, "row", int(i))
        for k in np.nonzero(col_ok)[0]:
            col_ok[k] = False
            cand = _masked_max(entries, row_ok, col_ok)
            col_ok[k] = True
            if cand < best[0]:
                best = (cand, "col", int(k))
        if best[1] is None:
            # maximum is attained on several lines: peel the best cover
            at_max = (entries >= current) & row_ok[:, None] & col_ok[None, :]
            row_hits = at_max.sum(axis=1)
            col_hits = at_max.sum(axis=0)
            i = int(np.argmax(row_hits))
            k = int(np.argmax(col_hits))
            if row_hits[i] >= col_hits[k]:
                best = (current, "row", i)
            else:
                best = (current, "col", k)
        kind, idx = best[1], best[2]
        if kind == "row":
            row_ok[idx] = False
        else:
            col_ok[idx] = False
        removals.append((kind, idx))
        if _masked_max(entries, row_ok, col_ok) < current:
            last_drop = len(removals)

    # roll back peels past the last strict improvement
    for kind, idx in removals[last_drop:]:
        if kind == "row":
            row_ok[idx] = True
        else:
            col_ok[idx] = True
    removals = removals[:last_drop]

    rows = tuple(idx for kind, idx in removals if kind == "row")
    cols = tuple(idx for kind, idx in removals if kind == "col")
    M = _masked_max(entries, row_ok, col_ok)
    return TruncationPlan(epsilon=epsilon, M=M, rows_removed=rows,
                          cols_removed=cols, budget=budget)


# -- interval mass by adaptive quadrature over scalar solves ------------------

def cdf_interval_quad(profile, a: float, b: float, eta,
                      solver_cfg: SolverConfig | None = None) -> float:
    """Reference interval mass: scipy.integrate.quad over per-node solve_e0.
    hadspec.stieltjes.cdf_interval (Gauss panels on batched sweeps) must
    agree with it.

    Smoothed mass (1/pi) int_a^b Im G(xi + i eta) d xi by adaptive quadrature.

    eta may be a single height or a descending schedule; a schedule is
    Richardson-extrapolated to the real axis from its two smallest heights.
    """
    if np.iterable(eta):
        etas = sorted((float(e) for e in eta), reverse=True)
        if len(etas) < 2:
            return cdf_interval_quad(profile, a, b, etas[0], solver_cfg)
        eta1, eta2 = etas[-2], etas[-1]
        m1 = cdf_interval_quad(profile, a, b, eta1, solver_cfg)
        m2 = cdf_interval_quad(profile, a, b, eta2, solver_cfg)
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


# -- direct test-function metric (independent scratch implementation) ---------

def scratch_test_functions(count: int):
    """Re-derive the frozen enumeration directly from its statement."""
    out = []
    seen = set()
    m = 1
    while len(out) < count:
        pairs = []
        for p in range(-m * m, m * m + 1):
            for q in range(max(1, math.ceil(abs(p) / m)), m + 1):
                pairs.append((p, q))
        for (pa, qa) in pairs:
            for (pb, qb) in pairs:
                a, b = Fraction(pa, qa), Fraction(pb, qb)
                if a >= b or (m, a, b) in seen:
                    continue
                seen.add((m, a, b))
                out.append((m, a, b))
        m += 1
    return out[:count]


def scratch_tf_value(m: int, a: Fraction, b: Fraction, x: float) -> float:
    w = 1.0 / m
    a, b = float(a), float(b)
    if x <= a - w or x >= b + w:
        return 0.0
    if a <= x <= b:
        return w
    if x < a:
        return w * (x - (a - w)) / w
    return w * ((b + w) - x) / w


def scratch_d_metric_atoms(xs, ys, i_max: int) -> float:
    """Direct sum over the enumeration for two atomic distributions."""
    fs = scratch_test_functions(i_max)
    total = 0.0
    for i, (m, a, b) in enumerate(fs, start=1):
        fa = np.mean([scratch_tf_value(m, a, b, x) for x in xs])
        fb = np.mean([scratch_tf_value(m, a, b, y) for y in ys])
        total += abs(fa - fb) * 2.0 ** (-i)
    return total


# -- misc ---------------------------------------------------------------------

def ks_empirical_vs_function(evals: np.ndarray, cdf_fn) -> float:
    evals = np.sort(np.asarray(evals, dtype=float))
    n = len(evals)
    G = np.array([cdf_fn(t) for t in evals])
    hi = np.max(np.abs(np.arange(1, n + 1) / n - G))
    lo = np.max(np.abs(np.arange(0, n) / n - G))
    return float(max(hi, lo))
