"""Independent oracles used to freeze expected test values.

Everything here is implemented from scratch against closed forms or brute
force, never by calling the code under test.  The exceptions are former
implementations kept as references for their faster rewrites: the rescan
planner, which shares only the TruncationPlan container; the one-pass
planner without its early stop; the adaptive
quadrature of interval masses, which solves node by node where the
rewrite runs batched sweeps; the column-major Anderson kernel, which
shares the reduced map and the mixing constants with its rewrite; the
np.unique-based construction of ReducedProfile; and the per-function
integral of a test function, which calls TestFunctionIndex.  The
full-size maps (iterate_e, evaluate_G, cross_contraction_matrix) build on
the package's row_denominators, and sample_matrix on its entry sampler.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
from scipy import integrate

from hadspec.core import DensityCurve, EmpiricalDistribution, ReducedProfile
from hadspec.fixed_point import (_DEPTH, _REG, SolverConfig, _map, batch_G, row_denominators,
                                 solve_batch)
from hadspec.random_spectra import _draw
from hadspec.metrics import TestFunctionIndex
from hadspec.stieltjes import QuadratureStallError
from hadspec.tightness import TruncationPlan


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


def _times_linear(q, lo, hi):
    """q(e) (lo + hi e) for coefficient arrays q of shape (degree + 1, points), lowest first."""
    zero = np.zeros_like(q[:1])
    return np.concatenate([q * lo, zero]) + np.concatenate([zero, q * hi])


def one_column_law(profile, points: int = 40_001):
    """The exact law of a profile whose columns are all equal: (s_edges, cdf).

    With levels a_l = d_l^2 on a share p_l of the rows, e = sum_l p_l a_l t /
    (a_l - x t) with t = 1 + c e: at each real x, e prod_l (a_l - x t) =
    sum_l p_l a_l t prod_{m != l} (a_m - x t), of degree L + 1 in e.  Its
    root with Im e > 0 gives the density (1/pi) Im sum_l p_l t / (a_l - x t);
    no such root, none.  The density is integrated in s = sqrt(x) by the
    midpoint rule on `points` cells up to past the support's end, and the
    atom at 0 is the mass it leaves.  cdf holds the law at x = s_edges^2,
    its first entry the atom.
    """
    levels, counts = np.unique(profile.squared[:, 0], return_counts=True)
    shares, c = counts / profile.n, profile.c
    edges = np.linspace(0.0, 1.01 * math.sqrt(levels.max()) * (1.0 + math.sqrt(c)), points + 1)
    xs = ((edges[1:] + edges[:-1]) / 2.0) ** 2
    poly = _times_linear(np.ones((1, points)), 0.0, 1.0)          # e
    rhs = np.zeros((len(levels) + 1, points))
    for l, a in enumerate(levels):
        poly = _times_linear(poly, a - xs, -c * xs)
        others = np.ones((1, points))
        for m, b in enumerate(levels):
            if m != l:
                others = _times_linear(others, b - xs, -c * xs)
        rhs += shares[l] * a * _times_linear(others, 1.0, c)
    poly[:-1] -= rhs
    d = len(poly) - 1
    companion = np.zeros((points, d, d))
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    companion[:, :, -1] = -(poly[:-1] / poly[-1]).T
    e = np.linalg.eigvals(companion)
    e = e[np.arange(points), np.argmax(e.imag, axis=1)]
    t = 1.0 + c * e[:, None]
    g = (shares * t / (levels - xs[:, None] * t)).sum(axis=1)
    density = np.where(e.imag > 0, g.imag / math.pi, 0.0)
    cont = np.cumsum(2.0 * np.sqrt(xs) * density * np.diff(edges))
    atom = 1.0 - cont[-1]
    return edges, np.concatenate([[atom], atom + cont])


# -- full-size fixed-point maps -----------------------------------------------

def iterate_e(profile, e, z) -> np.ndarray:
    """One application of the full-size fixed-point map; preserves the upper half-plane."""
    denom = row_denominators(profile, e, z)
    return profile.squared.T @ (1.0 / denom) / profile.n


def evaluate_G(profile, sol, strict: bool = True) -> complex:
    """Stieltjes transform G(z) = (1/n) sum_i 1/denom_i at a solved point."""
    if strict and not sol.converged:
        raise ValueError("solution is not converged; pass strict=False to evaluate anyway")
    denom = row_denominators(profile, sol.e0, sol.z.z)
    return complex(np.mean(1.0 / denom))


def cross_contraction_matrix(profile, e, e_bar, z) -> np.ndarray:
    """Matrix A coupling two candidate solutions at the same z.

    Satisfies e - e_bar = A (e - e_bar) for exact solutions; Cauchy-Schwarz
    bounds |A| entrywise by the geometric mean of the two C0 matrices.
    """
    e = np.asarray(e, dtype=complex)
    e_bar = np.asarray(e_bar, dtype=complex)
    denom = row_denominators(profile, e, z)
    denom_bar = row_denominators(profile, e_bar, z)
    d2 = profile.squared
    c = profile.c
    core = (d2 / (denom * denom_bar)[:, None]).T @ d2            # (N, N)
    scale = 1.0 / ((1.0 + c * e_bar) * (1.0 + c * e))
    return core / profile.N**2 * scale[None, :]


# -- random matrices and their matched-sample distance ------------------------

def sample_matrix(n: int, N: int, sampler, seed: int) -> np.ndarray:
    """Reproducible n x N matrix of iid standardized entries."""
    if n < 1 or N < 1:
        raise ValueError("need n, N >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _draw(rng, n, N, sampler)


def wasserstein_sq_bound(xs, ys) -> float:
    """sqrt((1/n) sum (x_j - y_j)^2): upper bound certificate for the metric.

    For empirical distributions on matched ascending samples this dominates
    the test-function metric.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("inputs must be 1-d sequences of equal length")
    if np.any(np.diff(xs) < 0) or np.any(np.diff(ys) < 0):
        raise ValueError("inputs must be ascending")
    return float(np.sqrt(np.mean((xs - ys) ** 2)))


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


def plan_truncation_full_loop(profile, epsilon: float):
    """The one-pass greedy planner without its early stop: it spends the whole
    budget of peels and then rolls back past the last strict drop.
    hadspec.tightness.plan_truncation, which stops once the peels left cannot
    clear every maximum, must return the same plan.
    """
    if not (0 < epsilon < 1):
        raise ValueError("epsilon must lie in (0, 1)")
    budget = int(np.floor(epsilon * profile.n))
    entries = profile.entries
    work = entries.copy()                  # peeled lines hold -inf
    removals: list[tuple[str, int]] = []
    last_drop = 0

    while len(removals) < budget:
        row_max = work.max(axis=1)
        current = row_max.max()
        if not current > 0:
            break
        hit_rows = np.flatnonzero(row_max == current)
        at_max = work[hit_rows] == current
        row_hits = at_max.sum(axis=1)
        col_hits = at_max.sum(axis=0)
        total = int(row_hits.sum())
        j = int(np.argmax(row_hits))
        i, k = int(hit_rows[j]), int(np.argmax(col_hits))
        if row_hits[j] >= col_hits[k]:
            kind, idx, hits = "row", i, row_hits[j]
        else:
            kind, idx, hits = "col", k, col_hits[k]
        if total == 1 and (np.delete(work.max(axis=0), k).max(initial=0.0)
                           < np.delete(row_max, i).max(initial=0.0)):
            kind, idx = "col", k
        if kind == "row":
            work[idx, :] = -np.inf
        else:
            work[:, idx] = -np.inf
        removals.append((kind, idx))
        if hits == total:
            last_drop = len(removals)

    removals = removals[:last_drop]
    rows = tuple(idx for kind, idx in removals if kind == "row")
    cols = tuple(idx for kind, idx in removals if kind == "col")
    kept = np.delete(np.delete(entries, rows, axis=0), cols, axis=1)
    return TruncationPlan(epsilon=epsilon, M=float(kept.max(initial=0.0)),
                          rows_removed=rows, cols_removed=cols, budget=budget)


# -- interval mass by adaptive quadrature over scalar solves ------------------

def cdf_interval_quad(profile, a: float, b: float, eta,
                      solver_cfg: SolverConfig | None = None) -> float:
    """Reference interval mass: scipy.integrate.quad over one solve_batch per node.
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
    scfg = solver_cfg or SolverConfig()

    cache: list[tuple[float, np.ndarray]] = []

    def im_g(x: float) -> float:
        # continue from the nearest converged node's reduced solution
        warm = None
        if cache:
            warm = min(cache, key=lambda item: abs(item[0] - x))[1]
        e_red, res, _ = solve_batch(profile, [x], eta, scfg, warm=warm)
        if res[0] <= scfg.tol:
            cache.append((x, e_red))
        return batch_G(profile, e_red, [x], eta)[0].imag / np.pi

    interior = [x for x in (0.0,) if a < x < b]
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, _ = integrate.quad(im_g, a, b, epsabs=1e-6, epsrel=1e-6,
                                      limit=200, points=interior or None)
        except integrate.IntegrationWarning as exc:
            raise QuadratureStallError(str(exc)) from exc
    return float(value)


# -- Anderson kernel with mask compaction and a full Gram matrix per step ----

def anderson_reference(red, c, e, zs, cfg: SolverConfig):
    """Reference Anderson kernel: hadspec.fixed_point._anderson before its
    points-major rewrite.  The rewrite must give the same per-column
    iteration counts and G to rounding.

    Type-II Anderson mixing of the reduced map, each column at its own z.

    Column p keeps the last _DEPTH differences dR of its residual
    r = T(e) - e and dT of its map value T(e); gamma_p minimises
    |r - dR gamma| (normal equations, regularised by 1e-14 trace) and the
    next iterate is T(e) - dT gamma (Walker and Ni, SINUM 2011).  A
    candidate with a component outside C+ is replaced by the plain step
    T(e), which lies in C+ (the averaged step of Helton, Rashidi Far and
    Speicher, IMRN 2007, at weight 1), and its column's history is reset.
    A column freezes once its residual max|T(e) - e| reaches tol or it has
    used max_iter map applications, and it ends on its best iterate.
    Working arrays shrink to the running columns when some freeze; history
    memory is O(depth x unique columns x P), the depth min(_DEPTH, unique
    columns) as in the rewrite.  Overwrites e; returns (e, residuals, map
    applications per column).
    """
    P = e.shape[1]
    depth = min(_DEPTH, e.shape[0])
    res_out, iters_out = np.empty(P), np.empty(P, dtype=int)
    live, zl, x = np.arange(P), zs, e
    fx = _map(red, c, x, zl)
    r = fx - x
    res = abs(r).max(axis=0)
    dR = np.zeros((depth,) + x.shape, dtype=complex)
    dT = np.zeros_like(dR)
    best_x, best_res = np.empty_like(x), np.full(P, np.inf)
    diag = (slice(None),) + np.diag_indices(depth)
    k = 1                                   # map applications of every running column
    while True:
        done = res <= cfg.tol if k < cfg.max_iter else np.ones(len(live), dtype=bool)
        if done.any():
            cols, use = live[done], best_res[done] < res[done]
            e[:, cols] = np.where(use, best_x[:, done], x[:, done])
            res_out[cols] = np.where(use, best_res[done], res[done])
            iters_out[cols] = k
            if done.all():
                return e, res_out, iters_out
            run = ~done
            live, zl, x, fx, r, res = live[run], zl[run], x[:, run], fx[:, run], r[:, run], res[run]
            dR, dT, best_x, best_res = dR[:, :, run], dT[:, :, run], best_x[:, run], best_res[run]
        # empty history slots have a zero diagonal: unit weight there pins gamma to 0
        dRc = dR.conj()
        gram = np.einsum("inp,jnp->pij", dRc, dR)
        d = gram[diag].real
        gram[diag] += np.where(d > 0, _REG * d.sum(axis=1, keepdims=True), 1.0)
        gamma = np.linalg.solve(gram, np.einsum("inp,np->pi", dRc, r)[..., None])[..., 0]
        cand = fx - np.einsum("inp,pi->np", dT, gamma)
        bad = ~(cand.imag > 0).all(axis=0)
        if bad.any():
            cand[:, bad] = fx[:, bad]
            dR[:, :, bad] = dT[:, :, bad] = 0.0
        fc = _map(red, c, cand, zl)
        rc = fc - cand
        res_c = abs(rc).max(axis=0)
        # the iterate before a residual increase may be its column's best
        keep = (res_c > res) & (res < best_res)
        if keep.any():
            best_x[:, keep], best_res[keep] = x[:, keep], res[keep]
        slot = k % depth
        dR[slot], dT[slot] = rc - r, fc - fx
        x, fx, r, res = cand, fc, rc, res_c
        k += 1


# -- ReducedProfile through np.unique's structured sort -----------------------

def reduced_profile_reference(profile) -> ReducedProfile:
    """WeightProfile.reduced as built by np.unique(axis=0) on rows, then columns."""
    rows, row_mult = np.unique(profile.squared, axis=0, return_counts=True)
    cols, col_inverse, col_mult = np.unique(rows.T, axis=0, return_inverse=True,
                                            return_counts=True)
    cols, col_inverse = cols.T, col_inverse.reshape(-1)
    row_mult, col_mult = row_mult.astype(float), col_mult.astype(float)
    return ReducedProfile(
        d2=np.ascontiguousarray(cols), row_mult=row_mult, col_mult=col_mult,
        col_inverse=col_inverse, inner=np.ascontiguousarray(cols * col_mult / profile.N),
        outer=np.ascontiguousarray((cols * row_mult[:, None]).T / profile.n))


# -- test-function integrals, one function at a time ---------------------------

def integrate_test_function(F, tf) -> float:
    """int f dF: exact atom sum for empirical F, the curve's own rule for a curve."""
    if isinstance(F, EmpiricalDistribution):
        return float(np.mean(tf(F.atoms)))
    if isinstance(F, DensityCurve):
        # trapezoid in s = sqrt(x) of 2 f(s^2) rho_s from s = 0, rho_s held at
        # its first value on [0, s_1], one interval at a time, left to right
        nodes = np.concatenate([[0.0], F.xs])
        s = np.sqrt(nodes)
        y = 2.0 * tf(nodes) * np.concatenate([F.rho_s[:1], F.rho_s])
        total = 0.0
        for k in range(len(F.xs)):
            total += (s[k + 1] - s[k]) * (y[k + 1] + y[k]) / 2.0
        return float(total) + F.atom_at_zero * float(tf(0.0))
    raise TypeError(f"cannot integrate against {type(F).__name__}")


def d_metric_reference(F, G, i_max: int) -> float:
    """The truncated metric as a per-function loop over integrate_test_function."""
    total = 0.0
    for i in range(1, i_max + 1):
        tf = TestFunctionIndex.from_index(i)
        total += abs(integrate_test_function(F, tf) - integrate_test_function(G, tf)) * 2.0 ** (-i)
    return total


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
