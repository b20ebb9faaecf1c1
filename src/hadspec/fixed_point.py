"""Coupled fixed-point solver for e0(z) with uniqueness/stability certificates.

The iteration map sends e in (C+)^N to

    T(e)_j = (1/n) sum_i d_ij^2 / ( (1/N) sum_k d_ik^2 / (1 + (n/N) e_k) - z ),

whose unique fixed point in the upper half-plane defines the deterministic
equivalent's Stieltjes transform G(z) = (1/n) sum_i 1/denom_i.

Identical rows and columns of the variance profile carry identical
denominators and solution components, so every solve runs on the
deduplicated (reduced) system and expands afterwards; results are identical
up to floating-point grouping.  One kernel, ``_anderson``, iterates the
reduced map on a block of P points, each at its own z, with type-II
Anderson mixing (Walker and Ni, SINUM 2011) batched over the block, of
depth 3 or the number of unique columns if that is smaller (a deeper
history of differences in C^nc is rank-deficient).  Near the real axis
the plain map contracts at rate rho(C0) ~ 1 - O(Im z) and needs about
1/(1 - rho) applications; Anderson mixing needs tens, so one iteration
budget serves every height.  A mixed candidate that leaves C+
falls back to the plain map step, which never does (the averaged iteration
of Helton, Rashidi Far and Speicher, IMRN 2007, at weight 1).  The kernel's
state is points-major: each point's history of differences is
contiguous, its Gram matrix is updated by one row per step, and the
normal equations of all points are solved at once by an unrolled Cholesky
factorisation (``_hermitian_solve``).  One matrix-free
certificate, ``_certify``, applies C0 once to e2 = Im e on the block: the
product gives the imaginary-part identity defect and the Collatz-Wielandt
bound max_j (C0 e2)_j / e2_j >= rho(C0), and ``certified`` (residual <= tol
and that bound < 1: uniqueness and local stability) defines converged on
every path.
``solve_grid`` solves a grid as one cold-started block, ``solve_e0`` one
point; ``solve_batch`` is the bare kernel on a horizontal line, evaluated
by ``batch_G`` and ``batch_certificate``.

The full-size maps (row_denominators, iterate_e, build_certificate,
cross_contraction_matrix) are the spec surface and the reference the
reduced kernel is tested against; build_certificate and
spectral_radius_nonneg estimate rho(C0) itself by power iteration on the
assembled C0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FixedPointSolution, SpectralPoint, WeightProfile, ZGrid

# Anderson history length, capped at the number of unique profile columns;
# 5 and 8 cost more per step than they save
_DEPTH = 3
_REG = 1e-14        # normal-equation regularisation, relative to the trace
# power iteration of the full-matrix oracle spectral_radius_nonneg
_POWER_TOL = 1e-12
_POWER_CAP = 50_000
_POWER_STALL = 1e-10


class NonpositiveImaginaryInputError(ValueError):
    """An input vector left the open upper half-plane."""


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point solver knobs: the residual target and the map-application budget."""

    tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class ContractionDiagnostics:
    """Certificate data at a solution: e2 = C0 e2 + v b0 and rho(C0) < 1.

    rho is the power-iteration estimate of rho(C0) (power_stalled flags an
    estimate still moving at the cap); rho_bound = max_j (C0 e2)_j / e2_j
    is the Collatz-Wielandt upper bound on it that the solve paths certify.
    """

    C0: np.ndarray
    b0: np.ndarray
    e2: np.ndarray
    rho: float
    rho_bound: float
    identity_defect: float
    power_stalled: bool = False

    def __post_init__(self):
        if np.any(self.C0 < 0):
            raise ValueError("C0 must be entrywise nonnegative")
        if np.any(self.b0 <= 0):
            raise ValueError("b0 must be entrywise positive")
        if np.any(self.e2 <= 0):
            raise ValueError("e2 must be entrywise positive")


def _as_z(z) -> complex:
    if isinstance(z, SpectralPoint):
        return z.z
    z = complex(z)
    if not z.imag > 0:
        raise ValueError(f"z must lie in the open upper half-plane, got {z}")
    return z


def _check_upper(e: np.ndarray) -> None:
    if np.any(e.imag <= 0):
        raise NonpositiveImaginaryInputError("every component must have positive imaginary part")


# ---------------------------------------------------------------------------
# elementary maps (full-size, spec surface)
# ---------------------------------------------------------------------------

def row_denominators(profile: WeightProfile, e, z) -> np.ndarray:
    """Inner denominators (1/N) sum_k d_ik^2 / (1 + (n/N) e_k) - z, length n.

    For e in (C+)^N each denominator has imaginary part <= -Im z, so the
    outer sums in the iteration map never blow up.
    """
    z = _as_z(z)
    e = np.asarray(e, dtype=complex)
    _check_upper(e)
    w = 1.0 / (1.0 + profile.c * e)
    return profile.squared @ w / profile.N - z


def iterate_e(profile: WeightProfile, e, z) -> np.ndarray:
    """One application of the fixed-point map; preserves the upper half-plane."""
    denom = row_denominators(profile, e, z)
    return profile.squared.T @ (1.0 / denom) / profile.n


def evaluate_G(profile: WeightProfile, sol: FixedPointSolution, strict: bool = True) -> complex:
    """Stieltjes transform G(z) = (1/n) sum_i 1/denom_i at a solved point."""
    if strict and not sol.converged:
        raise ValueError("solution is not converged; pass strict=False to evaluate anyway")
    denom = row_denominators(profile, sol.e0, sol.z)
    return complex(np.mean(1.0 / denom))


# ---------------------------------------------------------------------------
# reduced-system kernel: e_red has shape (unique columns, P points)
# ---------------------------------------------------------------------------

def _real_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # real @ complex as one real product on the (re, im) pairs
    return (a @ np.ascontiguousarray(b).view(float)).view(complex)


def _denominators(red, c, e, zs) -> np.ndarray:
    """Inner denominators on the unique rows, one column per z."""
    return _real_times(red.inner, 1.0 / (1.0 + c * e)) - zs


def _map(red, c, e, zs) -> np.ndarray:
    return _real_times(red.outer, 1.0 / _denominators(red, c, e, zs))


def _reduced_G(profile: WeightProfile, denom: np.ndarray) -> np.ndarray:
    return (profile.reduced.row_mult @ (1.0 / denom)) / profile.n


def _cold_start(profile: WeightProfile, v) -> np.ndarray:
    # exact large-v asymptote: e_j ~ i t_j / v, t_j the column masses
    red = profile.reduced
    t_red = (red.row_mult @ red.d2) / profile.n
    return 1j * (t_red[:, None] / np.atleast_1d(v))


def _expand(red, e_red: np.ndarray) -> np.ndarray:
    return e_red[red.col_inverse]


def _restrict(red, e_full: np.ndarray) -> np.ndarray:
    # representative value per group: first original column in each group
    _, first = np.unique(red.col_inverse, return_index=True)
    return np.asarray(e_full, dtype=complex)[first]


def _map_points(red, c, x, zs) -> np.ndarray:
    # the reduced map on points-major iterates x (P, nc), through the (nc, P) product
    return np.ascontiguousarray(_map(red, c, np.ascontiguousarray(x.T), zs).T)


def _hermitian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a x = b for a stack a (n, m, m) of Hermitian positive-definite matrices.

    Unrolled Cholesky a = L L^H, then forward and back substitution, each
    entry vectorised over the stack; reads a's lower triangle and the real
    part of its diagonal.  A non-positive or NaN pivot turns its matrix's
    whole row of x into NaN, silently.
    """
    m = b.shape[1]
    L, Lc, y, diag = {}, {}, [], []         # L[i, j] for i > j, Lc its conjugate
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(m):
            piv = a[:, j, j].real
            for k in range(j):
                piv = piv - (L[j, k] * Lc[j, k]).real
            diag.append(np.sqrt(np.where(piv > 0, piv, np.nan)))
            for i in range(j + 1, m):
                s = a[:, i, j]
                for k in range(j):
                    s = s - L[i, k] * Lc[j, k]
                L[i, j] = s / diag[j]
                Lc[i, j] = L[i, j].conj()
            s = b[:, j]
            for k in range(j):
                s = s - L[j, k] * y[k]
            y.append(s / diag[j])
        x = [None] * m
        for j in reversed(range(m)):
            s = y[j]
            for k in range(j + 1, m):
                s = s - Lc[k, j] * x[k]
            x[j] = s / diag[j]
    return np.stack(x, axis=1)


def _anderson(red, c, e, zs, cfg: SolverConfig):
    """Type-II Anderson mixing of the reduced map, each column at its own z.

    Column p keeps the last m = min(_DEPTH, nc) differences dR of its
    residual r = T(e) - e and dT of its map value T(e), nc the number of
    unique profile columns (more than nc differences in C^nc are linearly
    dependent, and their Gram matrix would be singular but for the ridge);
    gamma_p minimises |r - dR gamma| (normal equations, regularised by
    1e-14 trace) and the next iterate is T(e) - dT gamma (Walker and Ni,
    SINUM 2011).  A candidate with a component outside C+ (or NaN, as from
    a failed Cholesky pivot) is replaced by the plain step T(e), which lies
    in C+ (the averaged step of Helton, Rashidi Far and Speicher, IMRN
    2007, at weight 1), and its column's history is reset.  A column
    freezes once its residual max|T(e) - e| reaches tol or it has used
    max_iter map applications, and it ends on its best iterate.

    State is points-major: iterates (P, nc), history (P, m, nc) and a
    Gram matrix (P, m, m) kept across steps, of which each step
    recomputes only the row of the slot it overwrites; the normal equations
    are solved by _hermitian_solve.  Running columns occupy the first n
    slots: a freezing column's slot is refilled by a trailing running
    column, so compaction moves only O(frozen) data.  Returns the solutions
    (nc, P), their residuals and the map applications per column.
    """
    P = e.shape[1]
    x = np.array(e.T, order="C")            # a copy: slots are swapped in place
    x_out, res_out, iters_out = np.empty_like(x), np.empty(P), np.empty(P, dtype=int)
    cols, z = np.arange(P), np.array(zs)        # slot i runs column cols[i] at z[i]
    fx = _map_points(red, c, x, z)
    r = fx - x
    res = abs(r).max(axis=1)
    depth = min(_DEPTH, x.shape[1])
    dR = np.zeros((P, depth, x.shape[1]), dtype=complex)
    dT = np.zeros_like(dR)
    gram = np.zeros((P, depth, depth), dtype=complex)
    best_x, best_res = np.empty_like(x), np.full(P, np.inf)
    diag = (slice(None),) + np.diag_indices(depth)
    n, k = P, 1                             # running columns; map applications of each
    while n:
        done = res <= cfg.tol if k < cfg.max_iter else np.ones(n, dtype=bool)
        if done.any():
            idx = np.flatnonzero(done)
            use, out = best_res[idx] < res[idx], cols[idx]
            x_out[out] = np.where(use[:, None], best_x[idx], x[idx])
            res_out[out] = np.where(use, best_res[idx], res[idx])
            iters_out[out] = k
            n -= len(idx)
            if not n:
                break
            holes, movers = idx[idx < n], n + np.flatnonzero(~done[n:])
            for state in (cols, z, x, fx, r, res, dR, dT, gram, best_x, best_res):
                state[holes] = state[movers]
            x, fx, r, res = x[:n], fx[:n], r[:n], res[:n]
        H, T, G = dR[:n], dT[:n], gram[:n]
        # empty history slots have a zero diagonal: unit weight there pins gamma to 0
        a = G.copy()
        d = a[diag].real
        a[diag] = d + np.where(d > 0, _REG * d.sum(axis=1, keepdims=True), 1.0)
        gamma = _hermitian_solve(a, (H @ r.conj()[:, :, None])[:, :, 0].conj())
        cand = fx - (gamma[:, None, :] @ T)[:, 0]
        bad = ~(cand.imag > 0).all(axis=1)
        if bad.any():
            cand[bad] = fx[bad]
            H[bad] = T[bad] = G[bad] = 0.0
        fc = _map_points(red, c, cand, z[:n])
        rc = fc - cand
        res_c = abs(rc).max(axis=1)
        # the iterate before a residual increase may be its column's best
        keep = (res_c > res) & (res < best_res[:n])
        if keep.any():
            best_x[:n][keep], best_res[:n][keep] = x[keep], res[keep]
        slot = k % depth
        np.subtract(rc, r, out=H[:, slot])
        np.subtract(fc, fx, out=T[:, slot])
        row = (H @ H[:, slot].conj()[:, :, None])[:, :, 0]      # <dR_slot, dR_j> for every j
        G[:, slot], G[:, :, slot] = row, row.conj()
        x, fx, r, res = cand, fc, rc, res_c
        k += 1
    return np.ascontiguousarray(x_out.T), res_out, iters_out


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def spectral_radius_nonneg(C: np.ndarray, start: np.ndarray,
                           rel_tol: float = _POWER_TOL, cap: int = _POWER_CAP):
    """Perron eigenvalue of a nonnegative matrix by power iteration.

    Returns (rho, stalled); stalled is set when the relative eigenvalue
    change still exceeds 1e-10 at the iteration cap.
    """
    x = np.asarray(start, dtype=float)
    norm = x.max()
    if norm <= 0:
        raise ValueError("start vector must be entrywise positive")
    x = x / norm
    rho = prev = 0.0
    for _ in range(cap):
        y = C @ x
        prev, rho = rho, float(y.max())
        if rho <= 0.0:
            return 0.0, False
        x = y / rho
        if abs(rho - prev) <= rel_tol * rho:
            return rho, False
    return rho, abs(rho - prev) > _POWER_STALL * rho


def _certify(profile: WeightProfile, e_red: np.ndarray, denom: np.ndarray, v):
    """Upper bound on rho(C0) and the identity defect per column, from one product.

    denom holds the inner denominators of e_red's columns; v is their height.
    Nonzero eigenvectors of C0 are constant on groups of identical columns,
    so C0 acts through the collapsed matrix
    outer diag(1/|den|^2) inner diag(c/|1 + c e|^2), applied once to
    e2 = Im e > 0 without forming it.  The Collatz-Wielandt bound (Horn and
    Johnson, Matrix Analysis, Thm 8.1.26) makes max_j (C0 e2)_j / e2_j an
    upper bound on rho(C0); at a fixed point C0 e2 = e2 - v b0 with b0 > 0,
    so the bound is 1 - min_j v b0_j / e2_j < 1, the paper's uniqueness
    argument as a number.
    """
    red = profile.reduced
    inv_abs2 = 1.0 / np.abs(denom) ** 2                         # (nr, P)
    col_w = profile.c / np.abs(1.0 + profile.c * e_red) ** 2    # (nc, P)
    e2 = e_red.imag
    c0_e2 = red.outer @ (inv_abs2 * (red.inner @ (col_w * e2)))
    defect = np.abs(e2 - c0_e2 - np.asarray(v) * (red.outer @ inv_abs2)).max(axis=0)
    return (c0_e2 / e2).max(axis=0), defect


def certified(res, rho, tol: float):
    """The one definition of converged: residual <= tol and rho < 1.

    The solve paths pass _certify's upper bound on rho(C0) as rho.
    """
    return (res <= tol) & (rho < 1.0)


def build_certificate(profile: WeightProfile, sol: FixedPointSolution) -> ContractionDiagnostics:
    """Assemble C0, b0, the identity defect and both rho(C0) figures at a solution."""
    z = sol.z.z
    e = np.asarray(sol.e0, dtype=complex)
    denom = row_denominators(profile, e, z)
    d2 = profile.squared
    inv_abs2 = 1.0 / np.abs(denom) ** 2                          # (n,)
    wcol = 1.0 / np.abs(1.0 + profile.c * e) ** 2                # (N,)
    C0 = ((d2 * inv_abs2[:, None]).T @ d2) / profile.N**2 * wcol[None, :]
    b0 = d2.T @ inv_abs2 / profile.n
    e2 = e.imag
    c0_e2 = C0 @ e2
    defect = float(np.max(np.abs(e2 - c0_e2 - z.imag * b0)))
    rho, stalled = spectral_radius_nonneg(C0, b0)
    return ContractionDiagnostics(C0=C0, b0=b0, e2=e2, rho=rho,
                                  rho_bound=float(np.max(c0_e2 / e2)),
                                  identity_defect=defect, power_stalled=stalled)


def cross_contraction_matrix(profile: WeightProfile, e, e_bar, z) -> np.ndarray:
    """Matrix A coupling two candidate solutions at the same z.

    Satisfies e - e_bar = A (e - e_bar) for exact solutions; Cauchy-Schwarz
    bounds |A| entrywise by the geometric mean of the two C0 matrices.
    """
    z = _as_z(z)
    e = np.asarray(e, dtype=complex)
    e_bar = np.asarray(e_bar, dtype=complex)
    denom = row_denominators(profile, e, z)
    denom_bar = row_denominators(profile, e_bar, z)
    d2 = profile.squared
    c = profile.c
    core = (d2 / (denom * denom_bar)[:, None]).T @ d2            # (N, N)
    scale = 1.0 / ((1.0 + c * e_bar) * (1.0 + c * e))
    return core / profile.N**2 * scale[None, :]


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _solve(profile: WeightProfile, points, cfg: SolverConfig, e=None) -> list:
    """Iterate every point in one block from e (default: cold start), then certify."""
    red = profile.reduced
    zs = np.array([p.z for p in points])
    if e is None:
        e = _cold_start(profile, zs.imag)
    e, res, iters = _anderson(red, profile.c, e, zs, cfg)
    denom = _denominators(red, profile.c, e, zs)
    rho, defect = _certify(profile, e, denom, zs.imag)
    ok = certified(res, rho, cfg.tol)
    g = _reduced_G(profile, denom)
    return [FixedPointSolution(
                z=pt, e0=_expand(red, e[:, p]), residual=float(res[p]), rho_C0=float(rho[p]),
                identity_defect=float(defect[p]), iterations=int(iters[p]), g=complex(g[p]),
                converged=bool(ok[p]))
            for p, pt in enumerate(points)]


def solve_e0(profile: WeightProfile, z, cfg: SolverConfig | None = None,
             warm_start=None) -> FixedPointSolution:
    """Solve the coupled system at one point of the upper half-plane.

    solve_grid at one point.  Cold start is the exact large-v asymptote
    e_j = i t_j / v with t_j = (1/n) sum_i d_ij^2.  The iterate never leaves
    the upper half-plane; on hitting max_iter the best iterate is returned
    with converged=False rather than raising.  A warm start that differs
    across identical profile columns is collapsed to its first-column
    representatives (the fixed point is column-symmetric).
    """
    point = SpectralPoint.of(_as_z(z))
    e = None
    if warm_start is not None:
        e = _restrict(profile.reduced, warm_start)[:, None]
        _check_upper(e)
    return _solve(profile, [point], cfg or SolverConfig(), e)[0]


def solve_grid(profile: WeightProfile, grid: ZGrid, cfg: SolverConfig | None = None):
    """Solve every grid point, each at its own z, as one cold-started block.

    Each point follows solve_e0's rule and is certified as solve_e0 would
    do it alone; unconverged points are recorded in place, never raised.
    A converged point agrees with solve_e0 to rounding.  An unconverged
    point may not: BLAS rounds the block-wide products differently from
    a single column's, and far from the fixed point the map and the
    Anderson step amplify that (G differs by 9e-11 on rand_profile at
    3.5 + 0.01i with max_iter=15, residual 0.06).
    """
    return _solve(profile, list(grid), cfg or SolverConfig())


def solve_batch(profile: WeightProfile, xs, v: float, cfg: SolverConfig | None = None,
                warm: np.ndarray | None = None):
    """Solve all points x + iv simultaneously (data-parallel Anderson mixing).

    Grid points are independent; each column follows the update rule of
    solve_e0 and freezes once its residual reaches tol.  A column that
    hits max_iter is not an error: its residual stays above tol.  Returns
    (e_red, residuals, iterations) with e_red of shape
    (unique columns, len(xs)).
    """
    cfg = cfg or SolverConfig()
    zs = np.asarray(xs, dtype=float) + 1j * v
    if warm is not None:
        e = np.array(warm, dtype=complex, order="C")
        _check_upper(e)
    else:
        e = _cold_start(profile, np.full(len(zs), float(v)))
    return _anderson(profile.reduced, profile.c, e, zs, cfg)


def batch_G(profile: WeightProfile, e_red: np.ndarray, xs, v: float) -> np.ndarray:
    """G(x + iv) for every batch column from the reduced solutions."""
    zs = np.asarray(xs, dtype=float) + 1j * v
    return _reduced_G(profile, _denominators(profile.reduced, profile.c, e_red, zs))


def batch_certificate(profile: WeightProfile, e_red: np.ndarray, xs, v: float):
    """(upper bound on rho(C0), identity defect) for every batch column, see _certify."""
    zs = np.asarray(xs, dtype=float) + 1j * v
    return _certify(profile, e_red, _denominators(profile.reduced, profile.c, e_red, zs), v)
