"""Shared domain types: weight profiles, spectral points, solutions, distributions.

All types are immutable and safe to share across threads; complex arithmetic
is double precision, and tolerances live with the operations.  A profile is
read from CSV with WeightProfile.from_csv.  Both distribution types integrate
by their own rule (integrate) and share one CDF interface: knots, where the
CDF may jump or bend, and its value (cdf_at) and left limit (cdf_left).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


# ---------------------------------------------------------------------------
# validation errors
# ---------------------------------------------------------------------------

class ProfileValidationError(ValueError):
    """A weight profile violates one of its construction invariants."""


class EmptyMatrixError(ProfileValidationError):
    def __init__(self):
        super().__init__("weight profile must have at least one row and one column")


class NegativeEntryError(ProfileValidationError):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = int(i), int(j), float(value)
        super().__init__(f"negative weight {self.value!r} at row {i}, column {j} (0-based)")


class NonFiniteEntryError(ProfileValidationError):
    def __init__(self, i, j):
        self.i, self.j = int(i), int(j)
        super().__init__(f"non-finite weight at row {i}, column {j} (0-based)")


class ZeroColumnError(ProfileValidationError):
    def __init__(self, k):
        self.k = int(k)
        super().__init__(f"column {k} (0-based) has no positive weight; every column must be nonzero")


# ---------------------------------------------------------------------------
# weight profile
# ---------------------------------------------------------------------------

def _readonly(a: np.ndarray) -> np.ndarray:
    """a, contiguous and read-only; pass a fresh array, since the flag is set on it."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WeightProfile:
    """Validated n x N matrix of nonnegative weights d_ij.

    Use :func:`validate_profile` instead of the raw constructor;
    construction does not re-run validation.
    """

    entries: np.ndarray
    n: int
    N: int
    max_entry: float

    @property
    def c(self) -> float:
        return self.n / self.N

    @cached_property
    def squared(self) -> np.ndarray:
        """Entrywise d_ij^2, the variance profile of D o X."""
        return _readonly(self.entries ** 2)

    @cached_property
    def column_masses(self) -> np.ndarray:
        """t_j = (1/n) sum_i d_ij^2, the total mass of the measure behind e0_j."""
        return _readonly(self.squared.mean(axis=0))

    @cached_property
    def reduced(self) -> "ReducedProfile":
        """Grouping of identical rows/columns of the variance profile.

        Columns with identical weights carry identical e0 components (the
        fixed point is unique and invariant under the induced permutation
        symmetry), so iteration can run on the reduced system exactly.
        Unique rows and columns come in ascending lexicographic order.
        """
        rows, _, row_mult = _unique_rows(self.squared)
        cols, col_inverse, col_mult = _unique_rows(rows.T)
        cols = cols.T
        row_mult, col_mult = row_mult.astype(float), col_mult.astype(float)
        return ReducedProfile(
            d2=_readonly(cols),
            row_mult=_readonly(row_mult),
            col_mult=_readonly(col_mult),
            col_inverse=_readonly(col_inverse),
            inner=_readonly(cols * col_mult / self.N),
            outer=_readonly((cols * row_mult[:, None]).T / self.n),
        )

    @classmethod
    def from_csv(cls, path) -> "WeightProfile":
        """Read a CSV of n rows x N columns; 17 significant digits round-trip exactly."""
        raw = np.loadtxt(path, delimiter=",", ndmin=2)
        return validate_profile(raw)


@dataclass(frozen=True)
class ReducedProfile:
    """Unique rows/columns of a variance profile with multiplicities."""

    d2: np.ndarray            # (nr, nc) unique rows x unique columns
    row_mult: np.ndarray      # (nr,) float multiplicities, sums to n
    col_mult: np.ndarray      # (nc,) float multiplicities, sums to N
    col_inverse: np.ndarray   # (N,) index of each original column in d2
    # the reduced fixed-point map is e -> outer @ 1 / (inner @ 1/(1 + c e) - z)
    inner: np.ndarray         # (nr, nc) d2 * col_mult / N
    outer: np.ndarray         # (nc, nr) (d2 * row_mult).T / n


def _unique_rows(a: np.ndarray):
    """np.unique(a, axis=0, return_inverse=True, return_counts=True) for a >= 0.

    Without np.unique's structured sort: the rows are sorted once as opaque
    byte strings of their big-endian values, whose byte order is the
    numeric order for nonnegative doubles (a squared profile holds no -0.0
    and no NaN).
    """
    key = np.ascontiguousarray(a, dtype=">f8")
    key = key.view(np.dtype((np.void, key.strides[0])))[:, 0]
    _, index, inverse, counts = np.unique(key, return_index=True, return_inverse=True,
                                          return_counts=True)
    return a[index], inverse, counts


def validate_profile(entries) -> WeightProfile:
    """Validate a raw matrix and wrap it as a WeightProfile.

    Raises the first violated invariant as a structured error:
    EmptyMatrixError, NonFiniteEntryError, NegativeEntryError (row-major
    first offender), or ZeroColumnError (lowest offending column).
    Indices in errors are 0-based.
    """
    arr = np.array(entries, dtype=float, copy=True)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ProfileValidationError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    if arr.size == 0:
        raise EmptyMatrixError()
    bad = ~np.isfinite(arr)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteEntryError(i, j)
    neg = arr < 0
    if neg.any():
        i, j = np.argwhere(neg)[0]
        raise NegativeEntryError(i, j, arr[i, j])
    zero_cols = ~(arr > 0).any(axis=0)
    if zero_cols.any():
        raise ZeroColumnError(np.argmax(zero_cols))
    n, N = arr.shape
    return WeightProfile(entries=_readonly(arr), n=n, N=N, max_entry=float(arr.max()))


# ---------------------------------------------------------------------------
# spectral evaluation points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralPoint:
    """Evaluation point z = x + iv strictly inside the upper half-plane."""

    x: float
    v: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.v)):
            raise ValueError("spectral point must be finite")
        if self.v <= 0:
            raise ValueError(f"Im z must be positive, got v={self.v}")

    @property
    def z(self) -> complex:
        return complex(self.x, self.v)


@dataclass(frozen=True)
class ZGrid:
    """Ordered evaluation points; solvers return one result per point, in this order."""

    points: tuple

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("grid must contain at least one point")

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @classmethod
    def product(cls, xs, vs) -> "ZGrid":
        """All (x, v) pairs, descending v within each x."""
        vs = sorted(set(float(v) for v in vs), reverse=True)
        pts = [SpectralPoint(float(x), v) for x in xs for v in vs]
        return cls(tuple(pts))


# ---------------------------------------------------------------------------
# solver output
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointSolution:
    """Solution vector e0(z) with convergence and certificate diagnostics.

    residual is the sup-norm fixed-point defect ||e - T(e)||_inf, rho_C0 the
    certified upper bound max_j (C0 e2)_j / e2_j on the spectral radius of
    the nonnegative contraction matrix C0 (Collatz-Wielandt), and
    identity_defect the sup-norm residual of the imaginary-part identity
    e2 = C0 e2 + v b0.
    """

    z: SpectralPoint
    e0: np.ndarray
    residual: float
    rho_C0: float
    identity_defect: float
    iterations: int
    g: complex
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "e0", _readonly(np.array(self.e0, dtype=complex)))
        if np.any(self.e0.imag <= 0):
            raise ValueError("all components of e0 must lie in the open upper half-plane")
        if not (self.g.imag > 0):
            raise ValueError("G(z) must lie in the upper half-plane")


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalDistribution:
    """Atoms of equal mass 1/len defining a right-continuous step CDF."""

    atoms: np.ndarray

    def __post_init__(self):
        a = np.array(self.atoms, dtype=float)
        if a.ndim != 1 or a.size == 0 or not np.isfinite(a).all():
            raise ValueError("atom list must be a nonempty 1-d sequence of finite values")
        if np.any(np.diff(a) < 0):
            raise ValueError("atoms must be ascending")
        object.__setattr__(self, "atoms", _readonly(a))

    def __len__(self):
        return len(self.atoms)

    @property
    def knots(self) -> np.ndarray:
        """Where the CDF may jump: the atoms."""
        return self.atoms

    def cdf_at(self, x) -> np.ndarray:
        """Right-continuous CDF, mass #{atoms <= x} / len."""
        return np.searchsorted(self.atoms, np.asarray(x, dtype=float), side="right") / len(self)

    def cdf_left(self, x) -> np.ndarray:
        return np.searchsorted(self.atoms, np.asarray(x, dtype=float), side="left") / len(self)

    def integrate(self, f):
        """int f dF, the mean of f over the atoms; f's leading axes carry through."""
        return np.asarray(f(self.atoms), dtype=float).mean(axis=-1)


@dataclass(frozen=True)
class DensityCurve:
    """Grid representation of the deterministic-equivalent distribution on [0, inf).

    rho_s is the s-density at the positive abscissae xs, s = sqrt(x).  The
    curve's one rule: int f dF is atom_at_zero f(0) plus the trapezoid rule in
    s of 2 f(s^2) rho_s over (0, s_1, ..., s_P), rho_s held at its first value
    on [0, s_1] (it is even in s), and 0 across a step holding a point of
    failed_xs (abscissae the solver failed at, absent from xs: the curve is
    partial).  cdf is the rule's running sum, density the x-density rho_s / s.
    """

    xs: np.ndarray
    rho_s: np.ndarray
    eta_used: tuple
    atom_at_zero: float = 0.0
    failed_xs: tuple = field(default_factory=tuple)

    def __post_init__(self):
        xs = _readonly(np.array(self.xs, dtype=float))
        rho = _readonly(np.array(self.rho_s, dtype=float))
        if len(xs) != len(rho):
            raise ValueError("xs and rho_s must have equal lengths")
        if not (np.isfinite(np.r_[xs, rho]).all() and 0 <= self.atom_at_zero < np.inf):
            raise ValueError("xs, rho_s and atom_at_zero must be finite, atom_at_zero nonnegative")
        if np.any(xs <= 0) or np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be positive and strictly ascending")
        if np.any(rho < 0):
            raise ValueError("rho_s must be nonnegative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "rho_s", rho)

    def _running(self, f) -> np.ndarray:
        """The rule's running sums of 2 f rho_s; f holds a weight at the nodes
        (0, xs) on its last axis."""
        s = np.sqrt(np.concatenate([[0.0], self.xs]))
        y = 2.0 * f * np.concatenate([self.rho_s[:1], self.rho_s])
        steps = np.diff(s) * (y[..., 1:] + y[..., :-1]) / 2.0
        after = np.searchsorted(self.xs, self.failed_xs)
        steps[..., after[after < len(self.xs)]] = 0.0
        return np.cumsum(steps, axis=-1)

    @cached_property
    def cdf(self) -> np.ndarray:
        """atom_at_zero plus the rule's running sums, at the xs."""
        return _readonly(self.atom_at_zero + self._running(1.0))

    def integrate(self, f):
        """int f dF: the last running sum plus atom_at_zero f(0), as cdf ends,
        so f = 1 gives total_mass bit for bit.  f maps the nodes (0, xs) to an
        array whose last axis runs over them; leading axes carry through."""
        fx = np.asarray(f(np.concatenate([[0.0], self.xs])), dtype=float)
        return self._running(fx)[..., -1] + self.atom_at_zero * fx[..., 0]

    @cached_property
    def density(self) -> np.ndarray:
        """The x-density rho_s / sqrt(x) at the xs."""
        return _readonly(self.rho_s / np.sqrt(self.xs))

    @property
    def partial(self) -> bool:
        return len(self.failed_xs) > 0

    @property
    def total_mass(self) -> float:
        return float(self.cdf[-1])

    @cached_property
    def knots(self) -> np.ndarray:
        """Where the CDF's rule changes: 0 (the atom's jump), then the xs."""
        return _readonly(np.r_[0.0, self.xs])

    def cdf_at(self, x) -> np.ndarray:
        """The CDF, linear in sqrt(x) between the knots; 0 below 0, flat past the grid."""
        x = np.asarray(x, dtype=float)
        inside = np.interp(np.sqrt(np.maximum(x, 0.0)), np.sqrt(self.knots),
                           np.r_[self.atom_at_zero, self.cdf])
        return np.where(x < 0.0, 0.0, inside)

    def cdf_left(self, x) -> np.ndarray:
        """The left limit of the CDF: 0 at and below 0, cdf_at elsewhere."""
        return np.where(np.asarray(x, dtype=float) <= 0.0, 0.0, self.cdf_at(x))

    def write_csv(self, fh) -> None:
        eta = ";".join("%.17g" % e for e in self.eta_used)
        fh.write("x,density,cdf,eta_used\n")
        for x, d, c in zip(self.xs, self.density, self.cdf):
            fh.write("%.17g,%.17g,%.17g,%s\n" % (x, d, c, eta))
