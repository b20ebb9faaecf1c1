"""Distances between spectral distributions.

The main tool is a metric on sub-probability distribution functions built
from a countable family of trapezoid test functions: f takes the constant
value 1/m on [a, b] (a, b rational), ramps linearly to zero over [a - 1/m, a]
and [b, b + 1/m], and vanishes outside.  The metric is
sum_i |int f_i dF - int f_i dG| 2^{-i}; d_metric truncates at I_MAX = 24
terms, which leaves a tail of at most TAIL_BOUND = 2^{1 - I_MAX} since
every term is bounded by 2: the true value lies in [d, d + TAIL_BOUND].

Enumeration freeze: index i runs over tuples (m, p_a, q_a, p_b, q_b) with
1 <= q <= m, |p| <= m q, a = p_a/q_a < b = p_b/q_b, ordered by m then
lexicographically, deduplicated on the rational values (m, a, b), 1-based.
Any enumeration induces the same topology; a fixed one makes reported
values reproducible.  Reported metric values are enumeration-relative.

d_metric evaluates its I_MAX test functions at once, as one (I_MAX, points)
array built from a cached table of 1/m, a and b by TestFunctionIndex's
formula and integrated by the distribution's own integrate (core).
TestIntegrals holds one distribution's integrals for reuse.  The weighted
differences are summed in ascending i as Python floats, as a per-function
loop would, so the value is the loop's bit for bit.  ks_distance reads any
two distributions through their one CDF interface (knots, cdf_at,
cdf_left): one exact formula, with no branch on their types.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DensityCurve, EmpiricalDistribution

I_MAX = 24                        # terms of the truncated metric
TAIL_BOUND = 2.0 ** (1 - I_MAX)   # 2^-23 ~ 1.2e-7, below every comparison tolerance


def _trapezoid_fn(x, w, a, b):
    """Plateau w on [a, b], linear ramps of width w on either side; broadcasts."""
    rise = (x - (a - w)) / w
    fall = ((b + w) - x) / w
    return w * np.clip(np.minimum(rise, fall), 0.0, 1.0)


@dataclass(frozen=True)
class TestFunctionIndex:
    """The i-th trapezoid test function: plateau 1/m on [a, b]."""

    __test__ = False  # domain type, not a pytest class

    i: int
    m: int
    a: Fraction
    b: Fraction

    def __call__(self, x):
        return _trapezoid_fn(np.asarray(x, dtype=float), 1.0 / self.m, float(self.a), float(self.b))

    @classmethod
    def from_index(cls, i: int) -> "TestFunctionIndex":
        if i < 1:
            raise ValueError("indices are 1-based")
        start, m = 0, 1
        while i > start + len(_level(m)):
            start, m = start + len(_level(m)), m + 1
        a, b = _level(m)[i - start - 1]
        return cls(i, m, a, b)


def _rational_pairs(m: int):
    """(p, q) with 1 <= q <= m and |p| <= m q, ascending lexicographically."""
    for p in range(-m * m, m * m + 1):
        q_min = max(1, math.ceil(abs(p) / m))
        for q in range(q_min, m + 1):
            yield p, q


@functools.cache
def _level(m: int) -> tuple:
    """The (a, b) of plateau 1/m in the frozen order: pairs of _rational_pairs(m)
    with a < b, each pair of values at its first occurrence."""
    ends = [Fraction(p, q) for p, q in _rational_pairs(m)]
    return tuple(dict.fromkeys((a, b) for a in ends for b in ends if a < b))


@functools.cache
def _table():
    """(1/m, a, b) of the first I_MAX test functions, each a read-only (I_MAX, 1) column."""
    fs = [TestFunctionIndex.from_index(i) for i in range(1, I_MAX + 1)]
    cols = [np.array(col)[:, None] for col in zip(*((1.0 / f.m, float(f.a), float(f.b)) for f in fs))]
    for col in cols:
        col.setflags(write=False)
    return tuple(cols)


def _integrals(F):
    """int f_i dF for i = 1..I_MAX, by F's own integrate: the (I_MAX, points)
    table of f_i goes through in one call."""
    if isinstance(F, TestIntegrals):
        return F.values
    if not isinstance(F, (EmpiricalDistribution, DensityCurve)):
        raise TypeError(f"cannot integrate against {type(F).__name__}")
    return F.integrate(lambda x: _trapezoid_fn(x, *_table())).tolist()


@dataclass(frozen=True)
class TestIntegrals:
    """int f_i dF for i = 1..I_MAX of one distribution, evaluated once.

    d_metric takes it in place of the distribution, so a curve compared
    with many spectra has its (I_MAX, points) integrals evaluated once,
    not once per call; the metric's value is the same bit for bit.
    """

    __test__ = False  # domain type, not a pytest class

    values: tuple

    @classmethod
    def of(cls, F) -> "TestIntegrals":
        return cls(tuple(_integrals(F)))


def d_metric(F, G) -> float:
    """Truncated test-function metric; the true value lies in [d, d + TAIL_BOUND].

    F and G are distributions, or their TestIntegrals.
    """
    total = 0.0
    for i, (f, g) in enumerate(zip(_integrals(F), _integrals(G)), start=1):
        total += abs(f - g) * 2.0 ** (-i)
    return total


def ks_distance(F, G) -> float:
    """Sup-norm distance between two distributions, exact for any pair of them.

    Each is a step function or linear in sqrt(x) between its knots, so
    |F - G| is monotone between the union of their knots and its sup is
    read there from both sides: cdf_at and cdf_left.
    """
    if not all(isinstance(D, (EmpiricalDistribution, DensityCurve)) for D in (F, G)):
        raise TypeError(f"cannot compare {type(F).__name__} with {type(G).__name__}")
    pts = np.union1d(F.knots, G.knots)
    hi = np.max(np.abs(F.cdf_at(pts) - G.cdf_at(pts)))
    lo = np.max(np.abs(F.cdf_left(pts) - G.cdf_left(pts)))
    return float(max(hi, lo))
