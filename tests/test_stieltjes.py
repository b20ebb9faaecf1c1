import numpy as np
import pytest

from hadspec import InversionConfig, SolverConfig, edge_refined_grid, make_profile, validate_profile
from hadspec.stieltjes import (
    MassCheckReport,
    QuadratureStallError,
    cdf_interval,
    density_curve,
    mass_check,
)

from hadspec.experiments import default_x_grid

from _oracles import cdf_interval_quad, mp_density_c1, mp_cdf_c1


@pytest.fixture(scope="module")
def mp_curve(ones16):
    grid = edge_refined_grid(-0.5, 5.2, n_uniform=141)
    cfg = InversionConfig(x_grid=grid)
    curve, diag = density_curve(ones16, cfg, with_diagnostics=True)
    return curve, diag


class TestDensityCurve:
    def test_matches_closed_form_density_inside_support(self, mp_curve):
        curve, _ = mp_curve
        i = np.argmin(np.abs(curve.xs - 1.0))
        assert curve.density[i] == pytest.approx(np.sqrt(3) / (2 * np.pi), abs=5e-3)
        # a sweep of interior points against the closed form
        for x0 in (0.5, 1.5, 2.0, 3.0):
            j = np.argmin(np.abs(curve.xs - x0))
            assert curve.density[j] == pytest.approx(mp_density_c1(curve.xs[j]), abs=5e-3)

    def test_vanishes_outside_support(self, mp_curve):
        curve, _ = mp_curve
        i = np.argmin(np.abs(curve.xs - 5.0))
        assert curve.density[i] <= 5e-3

    def test_mass_and_monotone_cdf(self, mp_curve):
        curve, _ = mp_curve
        assert np.all(curve.density >= 0)
        assert np.all(np.diff(curve.cdf) >= -1e-15)
        assert 0.995 <= curve.total_mass <= 1.005
        assert curve.atom_at_zero == 0.0
        assert not curve.partial

    def test_cdf_against_closed_form(self, mp_curve):
        # eta-smoothed curve tracks the exact CDF within the hard-edge bias
        curve, _ = mp_curve
        exact = np.array([mp_cdf_c1(x) for x in curve.xs])
        assert np.max(np.abs(curve.cdf - exact)) <= 0.03

    def test_diagnostics_certify(self, mp_curve):
        curve, diag = mp_curve
        assert diag.residual_max <= 1e-12
        assert diag.rho_max < 1.0

    def test_per_level_diagnostics(self, rand_profile):
        cfg = InversionConfig(x_grid=np.linspace(-0.5, 4.0, 31))
        curve, diag = density_curve(rand_profile, cfg, with_diagnostics=True)
        assert tuple(lv.eta for lv in diag.levels) == cfg.eta_sequence
        assert sum(lv.iterations for lv in diag.levels) == diag.iterations_total
        assert diag.rho_max == max(lv.rho_max for lv in diag.levels) < 1.0
        assert diag.residual_max == max(lv.residual_max for lv in diag.levels) <= 1e-12
        assert all(lv.unconverged == 0 and 0 <= lv.defect_max <= 1e-10 for lv in diag.levels)
        # the same input gives the same records
        assert density_curve(rand_profile, cfg, with_diagnostics=True)[1] == diag
        # a short budget: counted per level, and the curve's gaps are the
        # points uncertified at either of its two finest levels
        _, short = density_curve(rand_profile, cfg, SolverConfig(max_iter=8), with_diagnostics=True)
        counts = [lv.unconverged for lv in short.levels]
        assert counts[0] == 31 and 0 < counts[2] < counts[1] == len(short.unconverged)
        assert short.levels[0].iterations == 31 * 8

    def test_certificate_does_not_use_the_power_iteration(self, rand_profile, monkeypatch):
        # a two-step power-iteration cap once left every point's rho(C0)
        # estimate unsettled, yet certified; the sweep's bound needs no
        # iteration, so the cap changes nothing
        import hadspec.fixed_point as fp
        cfg = InversionConfig(x_grid=np.linspace(-0.5, 4.0, 31))
        curve, diag = density_curve(rand_profile, cfg, with_diagnostics=True)
        monkeypatch.setattr(fp, "_POWER_CAP", 2)
        capped, capped_diag = density_curve(rand_profile, cfg, with_diagnostics=True)
        assert capped_diag == diag
        for name in ("xs", "density", "cdf"):
            assert np.array_equal(getattr(capped, name), getattr(curve, name))
        assert (capped.eta_used, capped.atom_at_zero, capped.failed_xs) == \
            (curve.eta_used, curve.atom_at_zero, curve.failed_xs)

    def test_scale_equivariance(self, rand_profile):
        # rescaling weights by s maps x -> s^2 x, eta -> s^2 eta exactly
        grid1 = edge_refined_grid(-0.3, 8.0, n_uniform=161)
        cfg1 = InversionConfig(x_grid=grid1)
        c1 = density_curve(rand_profile, cfg1)
        s = 2.0
        cfg2 = InversionConfig(x_grid=grid1 * s**2,
                               eta_sequence=tuple(e * s**2 for e in cfg1.eta_sequence))
        c2 = density_curve(validate_profile(rand_profile.entries * s), cfg2)
        assert np.max(np.abs(c2.density - c1.density / s**2)) <= 1e-8
        assert c2.total_mass == pytest.approx(c1.total_mass, abs=1e-8)

    def test_atom_at_zero_detected_when_n_exceeds_N(self):
        # n = 2N: half the eigenvalues of B are exactly zero, so the
        # equivalent carries mass 1/2 at the origin.  On a grid too coarse
        # to resolve the eta-width spike the detector books it as an atom;
        # an edge-refined grid instead integrates the resolved spike, and
        # either way total mass is conserved.
        p = validate_profile(np.ones((32, 16)))
        hi = 1.25 * (1 + np.sqrt(2)) ** 2 + 0.5
        coarse = density_curve(p, InversionConfig(x_grid=edge_refined_grid(
            -0.5, hi, n_uniform=141, n_edge=0)))
        # trapezoid cells adjacent to 0 still skim a sliver of the spike,
        # so the booked atom sits slightly below the exact 1/2
        assert coarse.atom_at_zero == pytest.approx(0.5, abs=0.08)
        assert 0.99 <= coarse.total_mass <= 1.01
        refined = density_curve(p, InversionConfig(x_grid=edge_refined_grid(
            -0.5, hi, n_uniform=141)))
        assert 0.99 <= refined.total_mass <= 1.01

    def test_partial_curve_records_gaps(self, ones16):
        cfg = InversionConfig(x_grid=np.linspace(-1.0, 5.0, 25), eta_sequence=(0.5, 0.25))
        # an 8-step budget leaves 7 gaps; 9 steps already leave none
        curve = density_curve(ones16, cfg, SolverConfig(max_iter=8))
        assert curve.partial
        assert len(curve.failed_xs) > 0
        assert len(curve.xs) + len(curve.failed_xs) == 25

    def test_partial_curve_books_no_atom(self):
        # c = 1: no atom.  45 of 59 points fail under a 6-step budget; their
        # lost mass (total 0.003 remains) must stay missing, not be booked as
        # an atom at zero
        ones = validate_profile(np.ones((16, 16)))
        grid = edge_refined_grid(-0.5, 4.5, n_uniform=41, n_edge=10)
        curve = density_curve(ones, InversionConfig(x_grid=grid), SolverConfig(max_iter=6))
        assert len(grid) == 59 and len(curve.failed_xs) == 45
        assert curve.partial
        assert curve.atom_at_zero == 0.0
        assert curve.total_mass < 0.5

    @pytest.mark.parametrize("max_iter", [6, 7, 8, 9])
    def test_partial_curve_adds_no_mass_across_gaps(self, max_iter):
        # trapezoids across the gaps once gave masses 0.106, 3.258, 1.483 and
        # 1.0087 at these budgets, beside the full curve's 1.0077: one step
        # beside the spike at 0 spanned x = 0.04 to 4.0
        ones = validate_profile(np.ones((16, 16)))
        cfg = InversionConfig(x_grid=edge_refined_grid(-0.5, 4.5, n_uniform=41, n_edge=10))
        full = density_curve(ones, cfg)
        curve = density_curve(ones, cfg, SolverConfig(max_iter=max_iter))
        assert curve.partial and not full.partial
        assert curve.total_mass <= full.total_mass
        across = np.diff(np.searchsorted(cfg.x_grid, curve.xs)) > 1
        assert across.any()
        assert np.all(np.diff(curve.cdf)[across] == 0.0)

    def test_default_grid_column_iterations(self):
        # 242 points x 3 eta levels at rho(C0) ~ 0.998: an iteration that
        # needs ~1/(1 - rho) map applications per point spends about 358 000
        # column-iterations here; Anderson mixing needs tens per point
        profile = make_profile("iid_uniform:0,2", 128, 128, seed=3)
        cfg = InversionConfig(x_grid=default_x_grid(profile))
        curve, diag = density_curve(profile, cfg, with_diagnostics=True)
        assert not curve.partial
        assert diag.iterations_total < 20_000

    def test_one_unique_column_column_iterations(self):
        # block:0.5,1.5 collapses to one unique column: the Anderson history
        # is capped at depth 1, where depth 3 spent 6 391 column-iterations
        profile = make_profile("block:0.5,1.5", 128, 128)
        assert profile.reduced.d2.shape[1] == 1
        cfg = InversionConfig(x_grid=default_x_grid(profile))
        curve, diag = density_curve(profile, cfg, with_diagnostics=True)
        assert not curve.partial
        assert diag.iterations_total < 5_800

    def test_large_weights_no_failed_points_no_atom(self):
        # constant:30 at c = 0.6 has no atom.  At the default etas its large
        # weights put rho(C0) so close to 1 that a ~1/(1 - rho) iteration
        # leaves 105 of 242 points unconverged, and their deficit once
        # became a false atom of 0.9999
        profile = make_profile("constant:30", 6, 10)
        curve = density_curve(profile, InversionConfig(x_grid=default_x_grid(profile)))
        assert not curve.partial
        assert curve.atom_at_zero == 0.0

    def test_all_failed_raises(self, ones16):
        cfg = InversionConfig(x_grid=np.linspace(0.0, 4.0, 10), eta_sequence=(1e-2, 5e-3))
        with pytest.raises(QuadratureStallError):
            density_curve(ones16, cfg, SolverConfig(max_iter=2))


class TestInversionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            InversionConfig(x_grid=np.array([]))
        with pytest.raises(ValueError):
            InversionConfig(x_grid=np.array([0.0, 0.0]))
        for etas in [(1e-3, 1e-2), (), (1e-2, 1e-2), (1e-2, np.nan), (np.inf, 1e-2), (1e-2, 0.0)]:
            with pytest.raises(ValueError):
                InversionConfig(x_grid=np.array([0.0, 1.0]), eta_sequence=etas)

    def test_edge_refined_grid(self):
        g = edge_refined_grid(-0.5, 4.5, n_uniform=51, n_edge=20)
        assert np.all(np.diff(g) > 0)
        assert g[0] == -0.5 and g[-1] == 4.5
        assert 0.0 in g
        near = g[np.abs(g) < 0.05]
        assert len(near) > 5  # refinement concentrates points at the edge


class TestCdfInterval:
    def test_empty_interval_is_zero(self, ones16):
        assert cdf_interval(ones16, 1.0, 1.0, 1e-2) == 0.0

    def test_total_mass_with_schedule(self):
        ones8 = validate_profile(np.ones((8, 8)))
        mass = cdf_interval(ones8, -1.0, 5.0, (1e-2, 5e-3))
        assert mass == pytest.approx(1.0, abs=1e-2)

    def test_off_support_mass_negligible(self):
        ones8 = validate_profile(np.ones((8, 8)))
        assert abs(cdf_interval(ones8, 5.0, 6.0, 1e-2)) <= 1e-2

    def test_monotone_in_interval(self):
        ones8 = validate_profile(np.ones((8, 8)))
        m1 = cdf_interval(ones8, -1.0, 2.0, 1e-2)
        m2 = cdf_interval(ones8, -1.0, 3.0, 1e-2)
        assert m1 <= m2 + 1e-12

    def test_nesting_consistency_with_density_curve(self, rand_profile):
        # same smoothing height on both sides: differences are pure quadrature
        a, b, eta = 0.5, 2.0, 1e-2
        xs = np.linspace(a, b, 301)
        cfg = InversionConfig(x_grid=xs, eta_sequence=(eta,))
        curve = density_curve(rand_profile, cfg)
        trap = float(np.trapezoid(curve.density, curve.xs))
        quad = cdf_interval(rand_profile, a, b, eta)
        assert abs(trap - quad) <= 2e-6

    def test_invalid_inputs(self, ones16):
        with pytest.raises(ValueError):
            cdf_interval(ones16, 2.0, 1.0, 1e-2)
        with pytest.raises(ValueError):
            cdf_interval(ones16, 0.0, 1.0, -1e-2)
        for a, b in [(0.5, np.nan), (np.nan, 1.5), (-np.inf, 1.5), (0.5, np.inf)]:
            with pytest.raises(ValueError, match="finite"):
                cdf_interval(ones16, a, b, 1e-2)
        with pytest.raises(ValueError, match="strictly descending"):
            cdf_interval(ones16, 0.5, 1.5, (1e-2, 1e-2))

    def test_schedule_order_does_not_matter(self, rand_profile):
        fwd = cdf_interval(rand_profile, 0.5, 1.0, (2e-2, 1e-2))
        assert cdf_interval(rand_profile, 0.5, 1.0, (1e-2, 2e-2)) == fwd

    def test_unconverged_nodes_raise(self):
        # three map applications cannot converge; integrating the stale
        # iterates would report ~0.009 where the mass is ~0.287
        ones8 = validate_profile(np.ones((8, 8)))
        with pytest.raises(QuadratureStallError, match=r"\d+ of \d+ quadrature nodes"):
            cdf_interval(ones8, 0.5, 1.5, 1e-2, SolverConfig(max_iter=3))

    @pytest.mark.parametrize("case", ["rand_profile", "iid_uniform_8x8"])
    def test_matches_adaptive_quadrature_oracle(self, case, rand_profile):
        if case == "rand_profile":
            profile, a, b, eta = rand_profile, 0.5, 2.0, 1e-2
        else:
            profile = make_profile("iid_uniform:0,2", 8, 8, seed=21)
            a, b, eta = 0.5, 1.5, (1e-2, 5e-3)
        assert abs(cdf_interval(profile, a, b, eta) - cdf_interval_quad(profile, a, b, eta)) <= 1e-9


class TestMassCheck:
    def test_ones_profile_defects(self, ones16):
        report = mass_check(ones16)
        assert isinstance(report, MassCheckReport)
        assert report.g_defect[1e4] <= 1e-3
        assert report.e_defect[1e4] <= 1e-3   # (1/n) tr D_k^2 = 1 here
        assert report.max_e_defect / report.mass_scale <= 1e-3 * 10  # coarsest height dominates

    def test_scaled_profile_mass_target(self, ones16):
        # weights doubled: target mass per component becomes 4
        scaled = validate_profile(ones16.entries * 2.0)
        report = mass_check(scaled)
        assert report.mass_scale == pytest.approx(4.0)
        assert report.e_defect[1e4] <= 1e-3 * report.mass_scale

    def test_im_g_positive_on_solved_points(self, rand_profile):
        from hadspec import solve_e0
        for z in (0.2 + 0.05j, 1.0 + 0.01j, 3.0 + 1.0j, -2.0 + 0.5j):
            sol = solve_e0(rand_profile, z)
            assert sol.g.imag > 0
