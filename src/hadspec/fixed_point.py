"""Coupled fixed-point solver for e0(z) with uniqueness/stability certificates.

The iteration map sends e in (C+)^N to

    T(e)_j = (1/n) sum_i d_ij^2 / ( (1/N) sum_k d_ik^2 / (1 + (n/N) e_k) - z ),

whose unique fixed point in the upper half-plane defines the deterministic
equivalent's Stieltjes transform G(z) = (1/n) sum_i 1/denom_i.

Identical rows and columns of the variance profile carry identical
denominators and solution components, so every solve runs on the
deduplicated (reduced) system and expands afterwards; results are identical
up to floating-point grouping.  One kernel, ``_damped``, iterates the reduced
map on a block of P points at once with the averaged iteration
e <- e + alpha (T(e) - e) of Helton, Rashidi Far and Speicher (IMRN 2007),
which never leaves C+.  Plain iteration converges only locally, so each
point adapts its own alpha (see SolverConfig).  ``solve_e0`` is that kernel
at P = 1 plus the certificate: the spectral radius rho(C0) < 1 and the
imaginary-part identity defect, which together certify uniqueness and local
stability.  ``solve_batch`` is the kernel on a horizontal line of points;
``batch_G`` and ``batch_rho`` evaluate G and rho(C0) on its result.

The full-size maps (row_denominators, iterate_e, build_certificate,
cross_contraction_matrix) are the spec surface and the reference the
reduced kernel is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FixedPointSolution, SpectralPoint, WeightProfile, ZGrid

_MIN_DAMPING = 1.0 / 64.0
_POWER_TOL = 1e-12
_POWER_CAP = 50_000
_POWER_STALL = 1e-10

# Horizontal sweeps close to the real axis converge at rate 1 - O(eta);
# the generic solver default of 10k map applications is not enough there.
NEAR_AXIS_MAX_ITER = 300_000


class NonpositiveImaginaryInputError(ValueError):
    """An input vector left the open upper half-plane."""


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point solver knobs.

    damping is the initial mixing weight alpha in e <- (1-alpha) e + alpha T(e);
    it is halved (floor 1/64) whenever the residual increases or a step would
    leave the upper half-plane, and restored after 10 consecutive decreases.
    """

    tol: float = 1e-12
    max_iter: int = 10_000
    damping: float = 1.0

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class ContractionDiagnostics:
    """Certificate data at a solution: e2 = C0 e2 + v b0 and rho(C0) < 1."""

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


def _damped(red, c, e, zs, cfg: SolverConfig):
    """Damped iteration of the reduced map, each column at its own z.

    Column p steps e <- e + alpha_p (T(e) - e).  alpha_p halves (floor
    1/64) when the residual max|T(e) - e| grows and returns to cfg.damping
    after 10 consecutive decreases.  A candidate with a component outside
    C+ cannot occur for alpha in (0, 1] in exact arithmetic; against
    underflow it is rejected, never projected: the iterate stays, alpha_p
    halves and the step counts toward max_iter.  A column freezes once its
    residual reaches tol or it has used max_iter map applications, and it
    ends on its best iterate.  Overwrites e; returns (e, residuals,
    map applications per column).
    """
    P = e.shape[1]
    fe = _map(red, c, e, zs)
    res = abs(fe - e).max(axis=0)
    iters = np.ones(P, dtype=int)
    alpha = np.full(P, cfg.damping)
    restore_at = np.zeros(P, dtype=int)     # k at which alpha returns to cfg.damping
    best_e, best_res = np.empty_like(e), np.full(P, np.inf)
    active = res > cfg.tol
    k = 1                                   # map applications of every running column
    while k < cfg.max_iter and (count := np.count_nonzero(active)):
        # basic slices while every column runs; compact once some froze
        idx = slice(None) if count == P else np.flatnonzero(active)
        ea, fea, ra = e[:, idx], fe[:, idx], res[idx]
        cand = ea + alpha[idx] * (fea - ea)
        bad = (cand.imag <= 0).any(axis=0)
        if bad.any():
            cand[:, bad] = ea[:, bad]
        fc = _map(red, c, cand, zs[idx])
        res_c = abs(fc - cand).max(axis=0)
        worse = (res_c > ra) | bad
        if worse.any():
            cols = np.arange(P)[idx][worse]
            # the iterate before a residual increase may be its column's best
            keep = ra[worse] < best_res[cols]
            best_e[:, cols[keep]] = ea[:, worse][:, keep]
            best_res[cols[keep]] = ra[worse][keep]
            alpha[cols] = np.maximum(alpha[cols] / 2.0, _MIN_DAMPING)
            restore_at[cols] = k + 11     # after 10 consecutive decreases
        e[:, idx], fe[:, idx], res[idx] = cand, fc, res_c
        iters += active
        k += 1
        alpha[restore_at == k] = cfg.damping
        active = res > cfg.tol
    use = best_res < res
    if use.any():
        e[:, use], res[use] = best_e[:, use], best_res[use]
    return e, res, iters


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
    rho = 0.0
    for _ in range(cap):
        y = C @ x
        new = float(y.max())
        if new <= 0.0:
            return 0.0, False
        x = y / new
        if abs(new - rho) <= rel_tol * max(new, 1e-300):
            return new, False
        rho = new
    stalled = abs(new - rho) > _POWER_STALL * max(new, 1e-300)
    return new, stalled


def _certificate_reduced(profile: WeightProfile, v, e_red, denom_red):
    """rho(C0) and the identity defect at one point via the group-collapsed system.

    Nonzero eigenvectors of C0 are constant on groups of identical columns,
    so the Perron value of the nc x nc collapsed matrix equals rho(C0).
    """
    red = profile.reduced
    c = profile.c
    inv_abs2 = 1.0 / np.abs(denom_red) ** 2                     # (nr,)
    wcol = 1.0 / np.abs(1.0 + c * e_red) ** 2                   # (nc,)
    C_red = (red.outer * (c * inv_abs2)) @ (red.inner * wcol)  # (nc, nc)
    b_red = red.outer @ inv_abs2                                # (nc,)
    e2 = e_red.imag
    defect = float(np.max(np.abs(e2 - C_red @ e2 - v * b_red)))
    rho, stalled = spectral_radius_nonneg(C_red, b_red)
    return rho, defect, stalled


def build_certificate(profile: WeightProfile, sol: FixedPointSolution) -> ContractionDiagnostics:
    """Assemble C0, b0 and the imaginary-part identity defect at a solution."""
    z = sol.z.z
    e = np.asarray(sol.e0, dtype=complex)
    denom = row_denominators(profile, e, z)
    d2 = profile.squared
    inv_abs2 = 1.0 / np.abs(denom) ** 2                          # (n,)
    wcol = 1.0 / np.abs(1.0 + profile.c * e) ** 2                # (N,)
    C0 = ((d2 * inv_abs2[:, None]).T @ d2) / profile.N**2 * wcol[None, :]
    b0 = d2.T @ inv_abs2 / profile.n
    e2 = e.imag
    defect = float(np.max(np.abs(e2 - C0 @ e2 - z.imag * b0)))
    rho, stalled = spectral_radius_nonneg(C0, b0)
    return ContractionDiagnostics(C0=C0, b0=b0, e2=e2, rho=rho,
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

def solve_e0(profile: WeightProfile, z, cfg: SolverConfig | None = None,
             warm_start=None) -> FixedPointSolution:
    """Solve the coupled system at one point of the upper half-plane.

    Cold start is the exact large-v asymptote e_j = i t_j / v with
    t_j = (1/n) sum_i d_ij^2.  The iterate never leaves the upper
    half-plane; on hitting max_iter the best iterate is returned with
    converged=False rather than raising.  A warm start that differs across
    identical profile columns is collapsed to its first-column
    representatives (the fixed point is column-symmetric).
    """
    cfg = cfg or SolverConfig()
    zc = _as_z(z)
    red = profile.reduced
    if warm_start is not None:
        e = _restrict(red, warm_start)[:, None]
        _check_upper(e)
    else:
        e = _cold_start(profile, zc.imag)
    zs = np.array([zc])
    e, res, iters = _damped(red, profile.c, e, zs, cfg)
    denom = _denominators(red, profile.c, e, zs)
    rho, defect, stalled = _certificate_reduced(profile, zc.imag, e[:, 0], denom[:, 0])
    # a solution is only "converged" when the residual target is met AND the
    # uniqueness certificate holds
    converged = bool(res[0] <= cfg.tol) and rho < 1.0
    point = z if isinstance(z, SpectralPoint) else SpectralPoint.of(zc)
    return FixedPointSolution(
        z=point, e0=_expand(red, e[:, 0]), residual=float(res[0]), rho_C0=rho,
        identity_defect=defect, iterations=int(iters[0]),
        g=complex(_reduced_G(profile, denom)[0]), converged=converged, rho_stalled=stalled,
    )


def solve_grid(profile: WeightProfile, grid: ZGrid, cfg: SolverConfig | None = None):
    """Solve every grid point, warm-starting from the nearest solved point.

    Failures (unconverged points) are recorded in place and excluded from
    the warm-start pool; the sweep never aborts.
    """
    cfg = cfg or SolverConfig()
    solutions = []
    solved_pts: list[tuple[complex, np.ndarray]] = []
    for point in grid:
        warm = None
        if solved_pts:
            dists = [abs(point.z - zc) for zc, _ in solved_pts]
            warm = solved_pts[int(np.argmin(dists))][1]
        sol = solve_e0(profile, point, cfg, warm_start=warm)
        solutions.append(sol)
        if sol.converged:
            solved_pts.append((point.z, sol.e0))
    return solutions


def solve_batch(profile: WeightProfile, xs, v: float, cfg: SolverConfig | None = None,
                warm: np.ndarray | None = None):
    """Solve all points x + iv simultaneously (data-parallel damped iteration).

    Grid points are independent; each column follows the damped update rule
    of solve_e0 and freezes once its residual reaches tol.  A column that
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
    return _damped(profile.reduced, profile.c, e, zs, cfg)


def batch_G(profile: WeightProfile, e_red: np.ndarray, xs, v: float) -> np.ndarray:
    """G(x + iv) for every batch column from the reduced solutions."""
    zs = np.asarray(xs, dtype=float) + 1j * v
    return _reduced_G(profile, _denominators(profile.reduced, profile.c, e_red, zs))


def batch_rho(profile: WeightProfile, e_red: np.ndarray, xs, v: float) -> np.ndarray:
    """rho(C0) for every batch column from the reduced solutions."""
    zs = np.asarray(xs, dtype=float) + 1j * v
    denom = _denominators(profile.reduced, profile.c, e_red, zs)
    return np.array([_certificate_reduced(profile, v, e_red[:, p], denom[:, p])[0]
                     for p in range(e_red.shape[1])])
