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
factorisation (``_hermitian_solve``).

Every solve path ends in one tail, ``_finish``: it forms the block's
denominators once and returns G, the certificate and the certified mask.
The certificate, ``_certify``, applies C0 once to e2 = Im e on the block:
the product gives the imaginary-part identity defect and the
Collatz-Wielandt bound max_j (C0 e2)_j / e2_j >= rho(C0), and ``certified``
(residual <= tol and that bound < 1: uniqueness and local stability)
defines converged on every path.  Every path enters the kernel through
``_iterate``, from ``_cold_start`` or from the one warm start, ``solve_batch``'s
reduced block, checked to lie in C+.  ``solve_grid`` solves a grid as one
cold-started block, and ``solve_e0`` is solve_grid at one point;
``solve_batch`` is the bare kernel on a horizontal line, which the inversions
in ``stieltjes`` finish with ``_finish`` and ``batch_G`` evaluates.

``row_denominators``, ``build_certificate`` and ``spectral_radius_nonneg``
are the full-size reference for the tests and the benchmark, not a solve
path: build_certificate assembles C0 and estimates rho(C0) by power
iteration.  They move to tests/_oracles.py once the benchmark stops calling them.
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

    rho is the power-iteration estimate of rho(C0); power_stalled flags an
    estimate still moving at the cap.  The solve paths certify the
    Collatz-Wielandt upper bound max_j (C0 e2)_j / e2_j on it instead.
    """

    C0: np.ndarray
    b0: np.ndarray
    e2: np.ndarray
    rho: float
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
    z = complex(z)
    if not z.imag > 0:
        raise ValueError(f"z must lie in the open upper half-plane, got {z}")
    return z


def _check_upper(e: np.ndarray) -> None:
    if np.any(e.imag <= 0):
        raise ValueError("every component must have positive imaginary part")


# ---------------------------------------------------------------------------
# full-size denominators, the reference for the reduced kernel
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


def _cold_start(profile: WeightProfile, zs) -> np.ndarray:
    """Where a solve without a warm start begins: one reduced column per point of zs.

    The rule is e_j = i t_j / Im z, with t_j = (1/n) sum_i d_ij^2 the column
    masses: the exact asymptote of e0_j(z) as Im z grows, in C+ at every z.
    """
    red = profile.reduced
    t_red = (red.row_mult @ red.d2) / profile.n
    return 1j * (t_red[:, None] / np.atleast_1d(zs).imag)


def _expand(red, e_red: np.ndarray) -> np.ndarray:
    return e_red[red.col_inverse]


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

def spectral_radius_nonneg(C: np.ndarray, start: np.ndarray, cap: int = _POWER_CAP):
    """Perron eigenvalue of a nonnegative matrix by power iteration (a reference).

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
        if abs(rho - prev) <= _POWER_TOL * rho:
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
    with np.errstate(over="ignore"):        # |denom|^2 overflows to inf for |z| > 1e154
        inv_abs2 = 1.0 / np.abs(denom) ** 2                     # (nr, P)
    col_w = profile.c / np.abs(1.0 + profile.c * e_red) ** 2    # (nc, P)
    e2 = e_red.imag
    c0_e2 = red.outer @ (inv_abs2 * (red.inner @ (col_w * e2)))
    defect = np.abs(e2 - c0_e2 - v * (red.outer @ inv_abs2)).max(axis=0)
    return (c0_e2 / e2).max(axis=0), defect


def certified(res, rho, tol: float):
    """The one definition of converged: residual <= tol and rho < 1.

    The solve paths pass _certify's upper bound on rho(C0) as rho.
    """
    return (res <= tol) & (rho < 1.0)


def _finish(profile: WeightProfile, e_red: np.ndarray, zs: np.ndarray, res, tol: float):
    """The tail of every solve path: (G, rho bound, identity defect, certified) per column.

    Column p of e_red is solved at zs[p] with residual res[p]; its
    denominators are formed once and feed both G and _certify.  A point so
    far out that Im e or Im G (about Im z / |z|^2) underflows to 0 is refused.
    """
    denom = _denominators(profile.reduced, profile.c, e_red, zs)
    g = _reduced_G(profile, denom)
    lost = (e_red.imag <= 0).any(axis=0) | (g.imag <= 0)
    if lost.any():
        raise ValueError(f"z = {complex(zs[lost][0])}: Im e0(z) or Im G(z), of order Im z / |z|^2, "
                         "underflows to 0 in double precision")
    rho, defect = _certify(profile, e_red, denom, zs.imag)
    return g, rho, defect, certified(res, rho, tol)


def build_certificate(profile: WeightProfile, sol: FixedPointSolution) -> ContractionDiagnostics:
    """Assemble C0, b0, the identity defect and the power estimate of rho(C0) at a solution.

    The full-size reference for the tests and the benchmark; solves certify with _certify.
    """
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
    return ContractionDiagnostics(C0=C0, b0=b0, e2=e2, rho=rho, identity_defect=defect,
                                  power_stalled=stalled)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _iterate(profile: WeightProfile, zs: np.ndarray, cfg: SolverConfig, e=None):
    """_anderson on every z from the cold start, or from e, one reduced column per z in C+."""
    if e is None:
        e = _cold_start(profile, zs)
    elif e.shape != (len(profile.reduced.col_mult), len(zs)):
        raise ValueError(f"a warm start holds one reduced column per point, got shape {e.shape}")
    _check_upper(e)
    return _anderson(profile.reduced, profile.c, e, zs, cfg)


def solve_e0(profile: WeightProfile, z, cfg: SolverConfig | None = None) -> FixedPointSolution:
    """solve_grid at the one point z of the upper half-plane."""
    z = _as_z(z)
    return solve_grid(profile, ZGrid((SpectralPoint(z.real, z.imag),)), cfg)[0]


def solve_grid(profile: WeightProfile, grid: ZGrid, cfg: SolverConfig | None = None):
    """Solve every grid point, each at its own z, as one cold-started block, then certify.

    Unconverged points are recorded in place, never raised.  A converged
    point agrees with solve_e0 at its z to rounding; an unconverged one may
    not, as BLAS rounds block-wide products differently and far from the
    fixed point the iteration amplifies that (G differs by 9e-11 on
    rand_profile at 3.5 + 0.01i with max_iter=15, residual 0.06).
    """
    cfg = cfg or SolverConfig()
    zs = np.array([p.z for p in grid])
    e, res, iters = _iterate(profile, zs, cfg)
    g, rho, defect, ok = _finish(profile, e, zs, res, cfg.tol)
    return [FixedPointSolution(
                z=pt, e0=_expand(profile.reduced, e[:, p]), residual=float(res[p]),
                rho_C0=float(rho[p]), identity_defect=float(defect[p]),
                iterations=int(iters[p]), g=complex(g[p]), converged=bool(ok[p]))
            for p, pt in enumerate(grid)]


def solve_batch(profile: WeightProfile, xs, v: float | np.ndarray,
                cfg: SolverConfig | None = None, warm: np.ndarray | None = None):
    """Solve all points x + iv simultaneously (data-parallel Anderson mixing).

    v is one height or one height per point of xs.  Grid points are
    independent; each column follows the update rule of solve_e0 and
    freezes once its residual reaches tol.  A column that hits max_iter is
    not an error: its residual stays above tol.  Returns (e_red, residuals,
    iterations) with e_red of shape (unique columns, len(xs)).
    """
    zs = np.asarray(xs, dtype=float) + 1j * v
    e = None if warm is None else np.asarray(warm, dtype=complex)
    return _iterate(profile, zs, cfg or SolverConfig(), e)


def batch_G(profile: WeightProfile, e_red: np.ndarray, xs, v: float | np.ndarray) -> np.ndarray:
    """G(x + iv) for every batch column from the reduced solutions; v as in solve_batch."""
    zs = np.asarray(xs, dtype=float) + 1j * v
    return _reduced_G(profile, _denominators(profile.reduced, profile.c, e_red, zs))
