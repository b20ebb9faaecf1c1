"""Distances between spectral distributions.

The main tool is a metric on sub-probability distribution functions built
from a countable family of trapezoid test functions: f takes the constant
value 1/m on [a, b] (a, b rational), ramps linearly to zero over [a - 1/m, a]
and [b, b + 1/m], and vanishes outside.  The metric is
sum_i |int f_i dF - int f_i dG| 2^{-i}; truncating at i_max leaves a tail of
at most 2^{1 - i_max} since every term is bounded by 2.

Enumeration freeze: index i runs over tuples (m, p_a, q_a, p_b, q_b) with
1 <= q <= m, |p| <= m q, a = p_a/q_a < b = p_b/q_b, ordered by m then
lexicographically, deduplicated on the rational values (m, a, b), 1-based.
Any enumeration induces the same topology; a fixed one makes reported
values reproducible.  Reported metric values are enumeration-relative.

d_metric evaluates its i_max test functions at once, as one (i_max, points)
array built from a cached table of 1/m, a and b by the formula that
TestFunctionIndex.__call__ applies to one function: an empirical integral
is a row mean, a curve integral a row trapezoid plus the atom term.  A
partial curve's trapezoids add nothing across its gaps, the rule of its
CDF.  TestIntegrals holds one distribution's integrals for reuse.  The
weighted differences are summed in ascending i as Python floats, as a
per-function loop would, so the value is the loop's bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import DensityCurve, EmpiricalDistribution
from .stieltjes import _trapezoid_steps

DEFAULT_I_MAX = 24   # tail 2^-23 ~ 1.2e-7, below every comparison tolerance


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
        _extend_enumeration(i)
        return _ENUMERATION[i - 1]


_ENUMERATION: list[TestFunctionIndex] = []
_SEEN: set = set()
_NEXT_M = 1


def _rational_pairs(m: int):
    """(p, q) with 1 <= q <= m and |p| <= m q, ascending lexicographically."""
    for p in range(-m * m, m * m + 1):
        q_min = max(1, math.ceil(abs(p) / m))
        for q in range(q_min, m + 1):
            yield p, q


def _extend_enumeration(upto: int) -> None:
    global _NEXT_M
    while len(_ENUMERATION) < upto:
        m = _NEXT_M
        pairs = list(_rational_pairs(m))
        for p_a, q_a in pairs:
            a = Fraction(p_a, q_a)
            for p_b, q_b in pairs:
                b = Fraction(p_b, q_b)
                if not a < b:
                    continue
                key = (m, a, b)
                if key in _SEEN:
                    continue
                _SEEN.add(key)
                _ENUMERATION.append(TestFunctionIndex(len(_ENUMERATION) + 1, m, a, b))
        _NEXT_M += 1


@functools.cache
def _table(i_max: int):
    """(1/m, a, b) of the first i_max test functions, each a read-only (i_max, 1) column."""
    fs = [TestFunctionIndex.from_index(i) for i in range(1, i_max + 1)]
    cols = [np.array(col)[:, None] for col in zip(*((1.0 / f.m, float(f.a), float(f.b)) for f in fs))]
    for col in cols:
        col.setflags(write=False)
    return tuple(cols)


def _integrals(F, i_max: int):
    """int f_i dF for i = 1..i_max: exact atom means for empirical F, trapezoid for a curve.

    Row i of each (i_max, points) array holds f_i at every point.  A curve
    integrates by its own CDF's rule, adding nothing across a gap.
    """
    if isinstance(F, TestIntegrals):
        if len(F.values) != i_max:
            raise ValueError(f"integrals of {len(F.values)} test functions, not i_max = {i_max}")
        return F.values
    table = _table(i_max)
    if isinstance(F, EmpiricalDistribution):
        return _trapezoid_fn(F.atoms, *table).mean(axis=1).tolist()
    if isinstance(F, DensityCurve):
        y = _trapezoid_fn(F.xs, *table) * F.density
        vals = _trapezoid_steps(F.xs, y, F.failed_xs).sum(axis=1).tolist()
        if F.atom_at_zero:
            at_zero = _trapezoid_fn(0.0, *table)[:, 0].tolist()
            vals = [v + F.atom_at_zero * f0 for v, f0 in zip(vals, at_zero)]
        return vals
    raise TypeError(f"cannot integrate against {type(F).__name__}")


@dataclass(frozen=True)
class TestIntegrals:
    """int f_i dF for i = 1..i_max of one distribution, evaluated once.

    d_metric takes it in place of the distribution, so a curve compared
    with many spectra has its (i_max, points) integrals evaluated once,
    not once per call; the metric's value is the same bit for bit.
    """

    __test__ = False  # domain type, not a pytest class

    values: tuple

    @classmethod
    def of(cls, F, i_max: int = DEFAULT_I_MAX) -> "TestIntegrals":
        return cls(tuple(_integrals(F, i_max)))


@dataclass(frozen=True)
class DMetricResult:
    value: float
    tail_bound: float


def d_metric(F, G, i_max: int = DEFAULT_I_MAX) -> DMetricResult:
    """Truncated test-function metric; the true value lies in [value, value + tail].

    F and G are distributions, or their TestIntegrals for this i_max.
    """
    if i_max < 1:
        raise ValueError("i_max must be at least 1")
    total = 0.0
    for i, (f, g) in enumerate(zip(_integrals(F, i_max), _integrals(G, i_max)), start=1):
        total += abs(f - g) * 2.0 ** (-i)
    return DMetricResult(value=total, tail_bound=2.0 ** (1 - i_max))


def ks_distance(F: EmpiricalDistribution, G) -> float:
    """Sup-norm distance, evaluated from both sides at every atom."""
    if not isinstance(F, EmpiricalDistribution):
        raise TypeError("first argument must be an EmpiricalDistribution")
    if isinstance(G, EmpiricalDistribution):
        pts = np.union1d(F.atoms, G.atoms)
        diffs = [np.abs(F.cdf(pts) - G.cdf(pts)), np.abs(F.cdf_left(pts) - G.cdf_left(pts))]
        return float(max(np.max(d) for d in diffs))
    if isinstance(G, DensityCurve):
        pts = np.union1d(F.atoms, G.xs)
        gv = G.cdf_at(pts)
        hi = np.max(np.abs(F.cdf(pts) - gv))
        lo = np.max(np.abs(F.cdf_left(pts) - gv))
        return float(max(hi, lo))
    raise TypeError(f"cannot compare against {type(G).__name__}")
