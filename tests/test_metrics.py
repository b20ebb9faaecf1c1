import ast
from fractions import Fraction

import numpy as np
import pytest

from hadspec import (
    DensityCurve,
    EmpiricalDistribution,
    d_metric,
    ks_distance,
)
from hadspec import EntrySampler, empirical_spectrum, make_profile, validate_profile
from hadspec.experiments import default_x_grid
from hadspec import metrics
from hadspec.metrics import I_MAX, TAIL_BOUND, TestFunctionIndex, TestIntegrals
from hadspec.stieltjes import InversionConfig, density_curve

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
        # mass 0.5 uniform on [0, 1] in x (x-density 0.5, so rho_s = 0.5 s)
        xs = (np.sqrt(1.5) * (np.arange(400) + 0.5) / 400) ** 2
        curve = DensityCurve(xs=xs, rho_s=np.where(xs <= 1, 0.5 * np.sqrt(xs), 0.0),
                             eta_used=(1e-2,), atom_at_zero=0.5)
        tf = TestFunctionIndex(i=1, m=1, a=Fraction(-1), b=Fraction(2))
        # plateau covers everything: the atom contributes tf(0) * mass on
        # top of the trapezoid integral in s = sqrt(x) of 2 tf(s^2) rho_s,
        # rho_s held at its first value on [0, s_1]
        s = np.sqrt(xs)
        rho = curve.rho_s
        y = 2.0 * tf(np.r_[0.0, xs]) * np.r_[rho[0], rho]
        expected = np.trapezoid(y, np.r_[0.0, s]) + 0.5 * tf(0.0)
        got = integrate_test_function(curve, tf)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.0, abs=5e-3)


class TestDMetric:
    def test_identity_zero(self):
        F = EmpiricalDistribution(np.array([0.1, 0.7, 2.0]))
        assert d_metric(F, F) == 0.0
        assert TAIL_BOUND == pytest.approx(2.0 ** (1 - 24))

    def test_global_bound(self):
        assert d_metric(delta(-50.0), delta(50.0)) <= 2.0

    def test_cross_check_against_scratch_enumeration(self):
        direct = scratch_d_metric_atoms([0.0], [1.0], I_MAX)
        assert d_metric(delta(0.0), delta(1.0)) == pytest.approx(direct, abs=1e-15)
        rng = np.random.default_rng(3)
        xs = np.sort(rng.uniform(-2, 2, 6))
        ys = np.sort(rng.uniform(-2, 2, 6))
        value = d_metric(EmpiricalDistribution(xs), EmpiricalDistribution(ys))
        assert value == pytest.approx(scratch_d_metric_atoms(xs, ys, I_MAX), abs=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        F = EmpiricalDistribution(np.sort(rng.uniform(-1, 3, 8)))
        G = EmpiricalDistribution(np.sort(rng.uniform(-1, 3, 8)))
        assert d_metric(F, G) == d_metric(G, F)

    def test_triangle_inequality_with_tail_slack(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            F, G, H = (EmpiricalDistribution(np.sort(rng.uniform(-2, 2, 5)))
                       for _ in range(3))
            fh, fg, gh = d_metric(F, H), d_metric(F, G), d_metric(G, H)
            assert fh <= fg + gh + TAIL_BOUND + 1e-15

    def test_eq_11_ordering_chain(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            xs = np.sort(rng.uniform(-3, 3, 7))
            ys = np.sort(rng.uniform(-3, 3, 7))
            value = d_metric(EmpiricalDistribution(xs), EmpiricalDistribution(ys))
            l1 = np.mean(np.abs(xs - ys))
            l2 = wasserstein_sq_bound(xs, ys)
            assert value <= l1 + 1e-12
            assert l1 <= l2 + 1e-12

    def test_ks_dominates_d(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            F = EmpiricalDistribution(np.sort(rng.uniform(-2, 2, 9)))
            G = EmpiricalDistribution(np.sort(rng.uniform(-2, 2, 4)))
            assert d_metric(F, G) <= 2 * ks_distance(F, G) + TAIL_BOUND


def _mp_curve(atom: float) -> DensityCurve:
    # Marchenko-Pastur c = 1 density scaled to mass 1 - atom, plus an atom at 0,
    # on 242 points uniform in s = sqrt(x)
    xs = (np.sqrt(4.5) * (np.arange(242) + 0.5) / 242) ** 2
    rho = (1.0 - atom) * np.array([mp_density_c1(x) for x in xs]) * np.sqrt(xs)
    return DensityCurve(xs=xs, rho_s=rho, eta_used=(1e-2,), atom_at_zero=atom)


class TestDMetricMatchesPerFunctionLoop:
    """d_metric's one-array evaluation against the per-function reference loop."""

    def test_bit_identical(self):
        rng = np.random.default_rng(17)
        F = EmpiricalDistribution(np.sort(rng.uniform(-0.2, 4.2, 128)))
        G = EmpiricalDistribution(np.sort(rng.uniform(0.0, 4.0, 176)))
        curve, curve_atom = _mp_curve(0.0), _mp_curve(0.3)
        for A, B in [(F, G), (F, curve), (curve_atom, F), (curve, curve_atom), (G, G)]:
            assert d_metric(A, B) == d_metric_reference(A, B, I_MAX)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            d_metric(delta(0.0), np.array([0.0, 1.0]))
        with pytest.raises(TypeError):
            d_metric([0.0, 1.0], delta(0.0))


ONES_GRID = default_x_grid(validate_profile(np.ones((16, 16))), 4.5, 59)
# grid points left uncertified: three near the hard edge at 0, then every
# point from x = 0.24 to 3.7, so one step spans x = 0.18 to 3.8
ONES_GAPS = ONES_GRID[np.r_[12:15, 18:54]]


@pytest.fixture
def ones_curves(uncertify) -> tuple:
    """The ones 16x16 curve on ONES_GRID with ONES_GAPS uncertified, and in full."""
    ones, cfg = validate_profile(np.ones((16, 16))), InversionConfig(x_grid=ONES_GRID)
    full = density_curve(ones, cfg)
    uncertify({5e-3: ONES_GAPS})
    return density_curve(ones, cfg), full


class TestCurveIntegrals:
    def test_partial_curve_adds_nothing_across_gaps(self, ones_curves):
        curve, full = ones_curves
        kept = ~np.isin(ONES_GRID, ONES_GAPS)
        kept_mass = full.cdf[0] + np.diff(full.cdf)[kept[1:] & kept[:-1]].sum()
        assert curve.partial and curve.total_mass == pytest.approx(kept_mass, rel=1e-12)
        # every test function is at most 1: no integral exceeds the curve's
        # mass (test function 2 once gave 3.252 by spanning the gaps)
        vals = TestIntegrals.of(curve).values
        assert vals[1] <= curve.total_mass
        assert max(vals) <= curve.total_mass

    def test_reused_integrals_bit_identical(self, ones_curves):
        rng = np.random.default_rng(23)
        spectra = [EmpiricalDistribution(np.sort(rng.uniform(-0.2, 4.2, k))) for k in (16, 128)]
        for G in (_mp_curve(0.0), _mp_curve(0.3), ones_curves[0], spectra[0]):
            cached = TestIntegrals.of(G)
            for F in spectra:
                assert d_metric(F, cached) == d_metric(F, G)
                assert d_metric(cached, F) == d_metric(G, F)


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
        # the uniform law on [0, 1] (rho_s = s there), which lies exactly
        # 0.05 from F's atoms at the centres of the tenths
        xs = (np.sqrt(1.2) * (np.arange(200) + 0.5) / 200) ** 2
        curve = DensityCurve(xs=xs, rho_s=np.where(xs <= 1.0, np.sqrt(xs), 0.0),
                             eta_used=(1e-2,))
        # interpolation bound: largest cdf increment between grid nodes
        bound = np.max(np.diff(curve.cdf))
        assert abs(ks_distance(F, curve) - 0.05) <= bound

    @pytest.mark.parametrize("gen,n,N", [("constant", 48, 48), ("iid_uniform:0,2", 48, 48),
                                         ("block:0.5,1.5", 48, 48), ("iid_uniform:0,2", 64, 32)])
    def test_negative_mass_is_a_floor(self, gen, n, N):
        # the curve has no mass below 0, so a spectrum's mass there, and its
        # mismatch with the curve's atom at 0, are floors under their KS
        profile = make_profile(gen, n, N, seed=5)
        curve = density_curve(profile, InversionConfig(x_grid=default_x_grid(profile)))
        assert curve.cdf_at(-1e-300) == 0.0
        for spectrum in empirical_spectrum(profile, EntrySampler("gaussian"), trials=3, seed=9):
            floor = max(spectrum.cdf_left(0.0), abs(spectrum.cdf_at(0.0) - curve.atom_at_zero))
            assert floor < 1e-6
            assert ks_distance(spectrum, curve) >= floor - 1e-12

    def test_left_limits_at_the_atom(self):
        # atom 0.5 at 0 and mass 0.5 uniform on (0, 1]: a spectrum half of
        # exact zeros matches both sides of the jump; comparing its left
        # limit 0 with the curve's value 0.5 at 0 would read KS 0.5
        xs = (np.arange(2000) + 0.5) / 2000
        curve = DensityCurve(xs=xs, rho_s=0.5 * np.sqrt(xs), eta_used=(1e-2,),
                             atom_at_zero=0.5)
        half = EmpiricalDistribution(np.r_[np.zeros(100), (np.arange(100) + 0.5) / 100])
        assert ks_distance(half, curve) <= 0.006
        # a spectrum with no zero misses the whole jump, which 0 need not be an atom to show
        none = EmpiricalDistribution((np.arange(100) + 0.5) / 100)
        assert ks_distance(none, curve) >= 0.5


class TestKSAnyPair:
    """ks_distance is one formula for any two distributions."""

    @staticmethod
    def _pairs():
        rng = np.random.default_rng(31)
        spectrum = EmpiricalDistribution(np.sort(np.r_[np.zeros(20), rng.uniform(-0.1, 4.4, 80)]))
        curve, curve_atom = _mp_curve(0.0), _mp_curve(0.3)
        # the uniform law on [0, 1] (rho_s = s there) on knots of its own
        xs = (np.sqrt(1.2) * (np.arange(157) + 0.5) / 157) ** 2
        uniform = DensityCurve(xs=xs, rho_s=np.where(xs <= 1.0, np.sqrt(xs), 0.0),
                               eta_used=(1e-2,))
        return [(curve, curve_atom), (curve, uniform), (uniform, curve_atom),
                (curve, spectrum), (curve_atom, spectrum), (spectrum, spectrum)]

    def test_symmetric(self):
        for F, G in self._pairs():
            assert ks_distance(F, G) == ks_distance(G, F)

    def test_no_grid_point_exceeds_it(self):
        # 10^5 points uniform in sign(x) sqrt|x| on [-5, 5], 0 among them
        s = np.linspace(-np.sqrt(5.0), np.sqrt(5.0), 100_001)
        x = np.sign(s) * s ** 2
        assert 0.0 in x
        for F, G in self._pairs():
            ks = ks_distance(F, G)
            seen = np.max(np.abs(F.cdf_at(x) - G.cdf_at(x)))
            assert seen <= ks + 1e-15
            assert seen >= 0.99 * ks

    def test_unsupported_type_raises(self):
        for F, G in [(np.array([0.0]), delta(0.0)), (_mp_curve(0.0), [0.0, 1.0])]:
            with pytest.raises(TypeError, match="cannot compare"):
                ks_distance(F, G)


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
            value = d_metric(EmpiricalDistribution(xs), EmpiricalDistribution(ys))
            assert value <= wasserstein_sq_bound(xs, ys) + TAIL_BOUND

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="inputs must be 1-d sequences of equal length"):
            wasserstein_sq_bound([1.0], [1.0, 2.0])

    def test_ascending_required(self):
        with pytest.raises(ValueError):
            wasserstein_sq_bound([2.0, 1.0], [1.0, 2.0])


def test_metrics_imports_from_core_only():
    # a distribution integrates by its own rule (core), so metrics reads no
    # other module of the package
    with open(metrics.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    package = [name for name in imported if name.startswith((".", "hadspec"))]
    assert package == [".core"]
