from fractions import Fraction

import numpy as np
import pytest

from hadspec import (
    DensityCurve,
    EmpiricalDistribution,
    TestFunctionIndex,
    d_metric,
    ks_distance,
)
from hadspec import SolverConfig, validate_profile
from hadspec.core import LengthMismatchError
from hadspec.metrics import TestIntegrals
from hadspec.stieltjes import InversionConfig, density_curve, edge_refined_grid

from _oracles import (
    d_metric_reference,
    integrate_test_function,
    mp_density_c1,
    scratch_d_metric_atoms,
    scratch_test_functions,
    wasserstein_sq_bound,
)


def delta(x: float) -> EmpiricalDistribution:
    return EmpiricalDistribution(np.array([x]))


class TestEnumeration:
    def test_first_ten_frozen(self):
        expected = [
            (1, Fraction(-1), Fraction(0)),
            (1, Fraction(-1), Fraction(1)),
            (1, Fraction(0), Fraction(1)),
            (2, Fraction(-2), Fraction(-3, 2)),
            (2, Fraction(-2), Fraction(-1)),
            (2, Fraction(-2), Fraction(-1, 2)),
            (2, Fraction(-2), Fraction(0)),
            (2, Fraction(-2), Fraction(1)),
            (2, Fraction(-2), Fraction(1, 2)),
            (2, Fraction(-2), Fraction(2)),
        ]
        got = [(tf.m, tf.a, tf.b) for tf in map(TestFunctionIndex.from_index, range(1, 11))]
        assert got == expected

    def test_matches_scratch_enumeration(self):
        scratch = scratch_test_functions(40)
        got = [(tf.m, tf.a, tf.b) for tf in map(TestFunctionIndex.from_index, range(1, 41))]
        assert got == scratch

    def test_one_based(self):
        with pytest.raises(ValueError):
            TestFunctionIndex.from_index(0)


class TestTestFunction:
    def test_plateau_value(self):
        tf = TestFunctionIndex(i=1, m=2, a=Fraction(-1), b=Fraction(1))
        assert tf(0.0) == pytest.approx(0.5)
        assert integrate_test_function(delta(0.0), tf) == pytest.approx(1 / 2)

    def test_zero_at_outer_ramp_end(self):
        tf = TestFunctionIndex(i=1, m=3, a=Fraction(0), b=Fraction(1))
        assert tf(1 + Fraction(1, 3)) == 0.0
        assert integrate_test_function(delta(1 + 1 / 3), tf) == 0.0

    def test_ramp_midpoint_half_height(self):
        m = 4
        tf = TestFunctionIndex(i=1, m=m, a=Fraction(0), b=Fraction(1))
        mid = 1 + 1 / (2 * m)
        assert integrate_test_function(delta(mid), tf) == pytest.approx(1 / (2 * m))

    def test_curve_integration_includes_atom(self):
        xs = np.linspace(-0.5, 1.5, 401)
        dens = np.where((xs >= 0) & (xs <= 1), 1.0, 0.0)
        cdf = np.clip(xs, 0, 1) * 0.5 + 0.5 * (xs >= 0)
        curve = DensityCurve(xs=xs, density=dens * 0.5, cdf=cdf,
                             eta_used=(1e-2,), atom_at_zero=0.5)
        tf = TestFunctionIndex(i=1, m=1, a=Fraction(-1), b=Fraction(2))
        # plateau covers everything: the atom contributes tf(0) * mass on
        # top of the trapezoid integral of the density part
        expected = np.trapezoid(tf(xs) * curve.density, xs) + 0.5 * tf(0.0)
        got = integrate_test_function(curve, tf)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.0, abs=5e-3)


class TestDMetric:
    def test_identity_zero(self):
        F = EmpiricalDistribution(np.array([0.1, 0.7, 2.0]))
        res = d_metric(F, F)
        assert res.value == 0.0
        assert res.tail_bound == pytest.approx(2.0 ** (1 - 24))

    def test_global_bound(self):
        res = d_metric(delta(-50.0), delta(50.0), i_max=12)
        assert res.value <= 2.0

    def test_cross_check_against_scratch_enumeration(self):
        res = d_metric(delta(0.0), delta(1.0), i_max=20)
        direct = scratch_d_metric_atoms([0.0], [1.0], 20)
        assert res.value == pytest.approx(direct, abs=1e-15)
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(-2, 2, 6))
        ys = np.sort(rng.uniform(-2, 2, 6))
        res2 = d_metric(EmpiricalDistribution(xs), EmpiricalDistribution(ys), i_max=20)
        assert res2.value == pytest.approx(scratch_d_metric_atoms(xs, ys, 20), abs=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        F = EmpiricalDistribution(np.sort(rng.uniform(-1, 3, 8)))
        G = EmpiricalDistribution(np.sort(rng.uniform(-1, 3, 8)))
        assert d_metric(F, G).value == d_metric(G, F).value

    def test_triangle_inequality_with_tail_slack(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            F, G, H = (EmpiricalDistribution(np.sort(rng.uniform(-2, 2, 5)))
                       for _ in range(3))
            fh = d_metric(F, H, i_max=16)
            fg = d_metric(F, G, i_max=16)
            gh = d_metric(G, H, i_max=16)
            assert fh.value <= fg.value + gh.value + fh.tail_bound + 1e-15

    def test_eq_11_ordering_chain(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            xs = np.sort(rng.uniform(-3, 3, 7))
            ys = np.sort(rng.uniform(-3, 3, 7))
            value = d_metric(EmpiricalDistribution(xs), EmpiricalDistribution(ys), i_max=20).value
            l1 = np.mean(np.abs(xs - ys))
            l2 = wasserstein_sq_bound(xs, ys)
            assert value <= l1 + 1e-12
            assert l1 <= l2 + 1e-12

    def test_ks_dominates_d(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            F = EmpiricalDistribution(np.sort(rng.uniform(-2, 2, 9)))
            G = EmpiricalDistribution(np.sort(rng.uniform(-2, 2, 4)))
            res = d_metric(F, G)
            assert res.value <= 2 * ks_distance(F, G) + res.tail_bound


def _mp_curve(atom: float) -> DensityCurve:
    # Marchenko-Pastur c = 1 density scaled to mass 1 - atom, plus an atom at 0
    xs = np.concatenate([np.linspace(-0.5, 0.0, 11)[:-1], np.linspace(0.0, 4.5, 232)])
    dens = (1.0 - atom) * np.array([mp_density_c1(x) if x > 0 else 0.0 for x in xs])
    dens[xs == 0.0] = dens[xs > 0][0]
    cdf = np.concatenate([[0.0], np.cumsum(np.diff(xs) * (dens[1:] + dens[:-1]) / 2.0)])
    return DensityCurve(xs=xs, density=dens, cdf=cdf + atom * (xs >= 0.0),
                        eta_used=(1e-2,), atom_at_zero=atom)


class TestDMetricMatchesPerFunctionLoop:
    """d_metric's one-array evaluation against the per-function reference loop."""

    @pytest.mark.parametrize("i_max", [1, 24, 40])
    def test_bit_identical(self, i_max):
        rng = np.random.default_rng(17)
        F = EmpiricalDistribution(np.sort(rng.uniform(-0.2, 4.2, 128)))
        G = EmpiricalDistribution(np.sort(rng.uniform(0.0, 4.0, 176)))
        curve, curve_atom = _mp_curve(0.0), _mp_curve(0.3)
        for A, B in [(F, G), (F, curve), (curve_atom, F), (curve, curve_atom), (G, G)]:
            assert d_metric(A, B, i_max).value == d_metric_reference(A, B, i_max)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            d_metric(delta(0.0), np.array([0.0, 1.0]))
        with pytest.raises(TypeError):
            d_metric([0.0, 1.0], delta(0.0))


def _partial_ones_curve(max_iter: int = 7) -> DensityCurve:
    # ones 16x16 under a 7-step budget: 0.073 of mass left between gaps,
    # one beside the spike at 0 spanning x = 0.04 to 4.0
    ones = validate_profile(np.ones((16, 16)))
    cfg = InversionConfig(x_grid=edge_refined_grid(-0.5, 4.5, n_uniform=41, n_edge=10))
    return density_curve(ones, cfg, SolverConfig(max_iter=max_iter))


class TestCurveIntegrals:
    def test_partial_curve_adds_nothing_across_gaps(self):
        curve = _partial_ones_curve()
        assert curve.partial and curve.total_mass == pytest.approx(0.073, abs=5e-4)
        # every test function is at most 1: no integral exceeds the curve's
        # mass (test function 2 once gave 3.252 by spanning the gaps)
        vals = TestIntegrals.of(curve, 24).values
        assert vals[1] <= curve.total_mass
        assert max(vals) <= curve.total_mass

    @pytest.mark.parametrize("i_max", [1, 24, 40])
    def test_reused_integrals_bit_identical(self, i_max):
        rng = np.random.default_rng(23)
        spectra = [EmpiricalDistribution(np.sort(rng.uniform(-0.2, 4.2, k))) for k in (16, 128)]
        for G in (_mp_curve(0.0), _mp_curve(0.3), _partial_ones_curve(), spectra[0]):
            cached = TestIntegrals.of(G, i_max)
            for F in spectra:
                assert d_metric(F, cached, i_max) == d_metric(F, G, i_max)
                assert d_metric(cached, F, i_max) == d_metric(G, F, i_max)

    def test_i_max_must_match(self):
        cached = TestIntegrals.of(_mp_curve(0.0), 24)
        with pytest.raises(ValueError, match="i_max"):
            d_metric(delta(1.0), cached, 12)


class TestKSDistance:
    def test_identical_atoms(self):
        F = EmpiricalDistribution(np.array([0.0, 1.0, 2.0]))
        assert ks_distance(F, F) == 0.0

    def test_separated_deltas(self):
        assert ks_distance(delta(0.0), delta(1.0)) == 1.0

    def test_both_sides_at_atoms(self):
        # interleaved atoms: sup attained approaching an atom from the left
        F = EmpiricalDistribution(np.array([0.0, 1.0]))
        G = EmpiricalDistribution(np.array([0.5, 1.5]))
        assert ks_distance(F, G) == pytest.approx(0.5)

    def test_empirical_vs_interpolating_curve(self):
        atoms = np.linspace(0.05, 0.95, 10)
        F = EmpiricalDistribution(atoms)
        xs = np.linspace(-0.2, 1.2, 201)
        curve = DensityCurve(xs=xs, density=np.zeros_like(xs), cdf=F.cdf(xs),
                             eta_used=(1e-2,))
        # interpolation bound: largest cdf increment between grid nodes
        bound = np.max(np.diff(curve.cdf))
        assert ks_distance(F, curve) <= bound + 1e-12


class TestWassersteinBound:
    def test_identical(self):
        assert wasserstein_sq_bound([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert wasserstein_sq_bound([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_bounds_d_metric_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            xs = np.sort(rng.uniform(-2, 2, 6))
            ys = np.sort(rng.uniform(-2, 2, 6))
            res = d_metric(EmpiricalDistribution(xs), EmpiricalDistribution(ys), i_max=20)
            assert res.value <= wasserstein_sq_bound(xs, ys) + res.tail_bound

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            wasserstein_sq_bound([1.0], [1.0, 2.0])

    def test_ascending_required(self):
        with pytest.raises(ValueError):
            wasserstein_sq_bound([2.0, 1.0], [1.0, 2.0])
