"""Shared domain types: weight profiles, spectral points, distributions.

All types are immutable after construction and safe to share across threads.
Complex arithmetic is double precision throughout; per-operation tolerances
live with the operations, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
        super().__init__(f"negative weight {value!r} at row {i}, column {j} (0-based)")


class NonFiniteEntryError(ProfileValidationError):
    def __init__(self, i, j):
        self.i, self.j = int(i), int(j)
        super().__init__(f"non-finite weight at row {i}, column {j} (0-based)")


class ZeroColumnError(ProfileValidationError):
    def __init__(self, k):
        self.k = int(k)
        super().__init__(f"column {k} (0-based) has no positive weight; every column must be nonzero")


class DimensionMismatchError(ValueError):
    """Matrix dimensions do not agree with the weight profile."""


class LengthMismatchError(ValueError):
    """Paired sequences must have equal length."""


# ---------------------------------------------------------------------------
# weight profile
# ---------------------------------------------------------------------------

def _readonly(a: np.ndarray) -> np.ndarray:
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
    def ratio(self) -> Fraction:
        """The aspect ratio c = n/N as an exact rational."""
        return Fraction(self.n, self.N)

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

    def scaled(self, s: float) -> "WeightProfile":
        """Profile with every weight multiplied by s > 0."""
        if s <= 0:
            raise ProfileValidationError("scale factor must be positive")
        return validate_profile(self.entries * s)

    # -- serialization: CSV of n rows x N columns, 17 significant digits ----

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.write_csv(fh)

    def write_csv(self, fh) -> None:
        np.savetxt(fh, self.entries, fmt="%.17g", delimiter=",")

    @classmethod
    def from_csv(cls, path) -> "WeightProfile":
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

    @classmethod
    def of(cls, z: complex) -> "SpectralPoint":
        return cls(float(z.real), float(z.imag))


@dataclass(frozen=True)
class ZGrid:
    """Ordered evaluation points; v descends within runs of equal x.

    Solvers return one result per point, in this order.
    """

    points: tuple

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("grid must contain at least one point")
        for p, q in zip(self.points, self.points[1:]):
            if p.x == q.x and q.v > p.v:
                raise ValueError("points sharing x must have descending v")

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @classmethod
    def single(cls, x: float, v: float) -> "ZGrid":
        return cls((SpectralPoint(x, v),))

    @classmethod
    def vertical(cls, x: float, vs) -> "ZGrid":
        vs = sorted(set(float(v) for v in vs), reverse=True)
        return cls(tuple(SpectralPoint(x, v) for v in vs))

    @classmethod
    def horizontal(cls, xs, v: float) -> "ZGrid":
        return cls(tuple(SpectralPoint(float(x), float(v)) for x in xs))

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
        object.__setattr__(self, "e0", _readonly(np.asarray(self.e0, dtype=complex)))
        if np.any(self.e0.imag <= 0):
            raise ValueError("all components of e0 must lie in the open upper half-plane")
        if not (self.g.imag > 0):
            raise ValueError("G(z) must lie in the upper half-plane")

    def to_record(self) -> dict:
        """Flat export record; complex data split into re/im parts."""
        return {
            "x": self.z.x,
            "v": self.z.v,
            "residual": self.residual,
            "rho_C0": self.rho_C0,
            "identity_defect": self.identity_defect,
            "iterations": self.iterations,
            "converged": self.converged,
            "g_re": self.g.real,
            "g_im": self.g.imag,
            "e0_re": self.e0.real.tolist(),
            "e0_im": self.e0.imag.tolist(),
        }


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmpiricalDistribution:
    """Atoms of equal mass 1/len defining a right-continuous step CDF."""

    atoms: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.atoms, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("atom list must be a nonempty 1-d sequence")
        if np.any(np.diff(a) < 0):
            raise ValueError("atoms must be ascending")
        object.__setattr__(self, "atoms", _readonly(a))

    @classmethod
    def from_values(cls, values) -> "EmpiricalDistribution":
        return cls(np.sort(np.asarray(values, dtype=float)))

    def __len__(self):
        return len(self.atoms)

    def cdf(self, x) -> np.ndarray:
        """Right-continuous CDF, mass #{atoms <= x} / len."""
        return np.searchsorted(self.atoms, np.asarray(x, dtype=float), side="right") / len(self)

    def cdf_left(self, x) -> np.ndarray:
        return np.searchsorted(self.atoms, np.asarray(x, dtype=float), side="left") / len(self)


@dataclass(frozen=True)
class DensityCurve:
    """Grid representation of the deterministic-equivalent distribution.

    density holds (1/pi) times the eta->0 extrapolation of Im G(x + i eta),
    clamped at zero; cdf accumulates it by the trapezoid rule plus any
    detected point mass at zero. failed_xs lists grid abscissae where the
    solver failed; those points are absent from xs and the curve is partial.
    """

    xs: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    eta_used: tuple
    atom_at_zero: float = 0.0
    failed_xs: tuple = field(default_factory=tuple)

    def __post_init__(self):
        xs = _readonly(np.asarray(self.xs, dtype=float))
        de = _readonly(np.asarray(self.density, dtype=float))
        cd = _readonly(np.asarray(self.cdf, dtype=float))
        if not (len(xs) == len(de) == len(cd)):
            raise LengthMismatchError("xs, density and cdf must align")
        if np.any(np.diff(xs) <= 0):
            raise ValueError("xs must be strictly ascending")
        if np.any(de < 0):
            raise ValueError("density must be nonnegative")
        if np.any(np.diff(cd) < -1e-12):
            raise ValueError("cdf must be nondecreasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "density", de)
        object.__setattr__(self, "cdf", cd)

    @property
    def partial(self) -> bool:
        return len(self.failed_xs) > 0

    @property
    def total_mass(self) -> float:
        return float(self.cdf[-1])

    def cdf_at(self, x) -> np.ndarray:
        """Piecewise-linear interpolation of the CDF; clamped outside the grid."""
        return np.interp(np.asarray(x, dtype=float), self.xs, self.cdf,
                         left=0.0, right=float(self.cdf[-1]))

    def write_csv(self, fh) -> None:
        eta = ";".join("%.17g" % e for e in self.eta_used)
        fh.write("x,density,cdf,eta_used\n")
        for x, d, c in zip(self.xs, self.density, self.cdf):
            fh.write("%.17g,%.17g,%.17g,%s\n" % (x, d, c, eta))
