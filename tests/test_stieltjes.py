import numpy as np
import pytest

from hadspec import InversionConfig, SolverConfig, make_profile, validate_profile
from hadspec.stieltjes import (
    MassCheckReport,
    QuadratureStallError,
    cdf_interval,
    density_curve,
    mass_check,
)
from hadspec.fixed_point import batch_G, solve_batch, solve_e0

from hadspec import stieltjes
from hadspec.experiments import default_x_grid

from _oracles import cdf_interval_quad, mp_density_c1, mp_cdf_c1, one_column_law


# gaps by index into the 59-point grid ONES_GRID on ones 16x16: one wide
# gap from x = 0.14 to 4.0; one from 0.18 to 3.8 after a narrow one; one
# from 0.8 to 3.8; and five narrow ones
ONES_GRID = default_x_grid(validate_profile(np.ones((16, 16))), 4.5, 59)
GAPS = {
    "6": np.r_[10:55],
    "7": np.r_[12:15, 18:54],
    "8": np.r_[25:54],
    "9": np.r_[29:31, 41:45, 46:48, 49, 51:53],
}


def _default_grid(generator, n, N, hi=None, points=182):
    profile = make_profile(generator, n, N, seed=1)
    return profile, default_x_grid(profile, hi, points)


# (profile, grid) builders: three grids that cut the support and a coarse
# one, then the default grids of a square, a tall and a wide shape
MASS_CASES = {
    "ones_64x64_xmax_2": lambda: _default_grid("ones", 64, 64, hi=2.0),
    "ones_8x8_xmax_0.5": lambda: _default_grid("ones", 8, 8, hi=0.5),
    "ones_32x16_xmax_2": lambda: _default_grid("ones", 32, 16, hi=2.0),
    "constant_32x64_points_7": lambda: _default_grid("constant", 32, 64, points=7),
    "iid_uniform_16x16": lambda: _default_grid("iid_uniform:0,2", 16, 16),
    "constant_32x16": lambda: _default_grid("constant", 32, 16),
    "block_16x32": lambda: _default_grid("block:0.5,1.5", 16, 32),
}


@pytest.fixture(scope="module")
def mp_curve(ones16):
    cfg = InversionConfig(x_grid=default_x_grid(ones16, 5.2, 141))
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
        assert curve.atom_at_zero < 1e-6
        assert not curve.partial

    def test_cdf_against_closed_form(self, mp_curve):
        # the curve inverted in sqrt(x) tracks the exact CDF up to the hard edge
        curve, _ = mp_curve
        exact = np.array([mp_cdf_c1(x) for x in curve.xs])
        assert np.max(np.abs(curve.cdf - exact)) <= 0.03

    # (profile, n, N, seed): default curves against the closed-form moments
    MOMENT_CASES = [("constant", 256, 256, 0), ("constant", 256, 128, 0),
                    ("constant", 128, 256, 0), ("block:0.5,1.5", 256, 256, 0),
                    ("block:0.5,1.5", 256, 128, 0), ("iid_uniform:0,2", 256, 256, 3)]

    @pytest.mark.parametrize("gen,n,N,seed", MOMENT_CASES)
    def test_curve_moments(self, gen, n, N, seed):
        # DensityCurve.integrate on default curves, against the closed forms
        # m1 = (1/n) sum_i r_i and m2 = (1/n) sum_i r_i^2 + (n/N^2) sum_k t_k^2,
        # with r_i = (1/N) sum_k d_ik^2 and t_k = (1/n) sum_i d_ik^2.  Measured
        # relative errors, at most 4.1e-4 on m1 and 8.8e-4 on m2: m1 -3.6e-5,
        # +1.1e-4, -2.1e-5, +2.6e-4, -4.1e-4, -1.9e-4; m2 -6.2e-5, +2.5e-4,
        # +9.9e-6, +5.3e-4, -8.8e-4, -3.8e-4 (in the order of MOMENT_CASES)
        profile = make_profile(gen, n, N, seed=seed)
        curve = density_curve(profile, InversionConfig(x_grid=default_x_grid(profile)))
        r, t = profile.squared.mean(axis=1), profile.column_masses
        m1 = r.mean()
        m2 = (r ** 2).mean() + n / N ** 2 * (t ** 2).sum()
        assert abs(curve.integrate(lambda x: x) / m1 - 1.0) <= 1e-3
        assert abs(curve.integrate(lambda x: x ** 2) / m2 - 1.0) <= 2e-3
        assert curve.integrate(lambda x: x ** 0) == curve.total_mass

    def test_diagnostics_certify(self, mp_curve):
        curve, diag = mp_curve
        assert diag.residual_max <= 1e-12
        assert diag.rho_max < 1.0

    def test_per_level_diagnostics(self, rand_profile, uncertify):
        cfg = InversionConfig(x_grid=np.linspace(0.125, 4.0, 32)[1:])
        curve, diag = density_curve(rand_profile, cfg, with_diagnostics=True)
        assert tuple(lv.eta for lv in diag.levels) == cfg.eta_sequence
        assert diag.rho_max == max(lv.rho_max for lv in diag.levels) < 1.0
        assert diag.residual_max == max(lv.residual_max for lv in diag.levels) <= 1e-12
        assert all(lv.unconverged == 0 and 0 <= lv.defect_max <= 1e-10 for lv in diag.levels)
        # the same input gives the same records
        assert density_curve(rand_profile, cfg, with_diagnostics=True)[1] == diag
        # uncertified points are counted per level, and the curve's gaps are
        # the points uncertified at either of its two finest levels
        xs = cfg.x_grid
        top, mid, low = cfg.eta_sequence
        uncertify({top: xs, mid: xs[4:16], low: xs[12:17]})
        partial, short = density_curve(rand_profile, cfg, with_diagnostics=True)
        assert [lv.unconverged for lv in short.levels] == [31, 12, 5]
        assert partial.failed_xs == tuple(xs[4:17])
        # one map application certifies nothing on a non-constant profile,
        # and each level spends exactly its budget on every point
        _, ok, budget = stieltjes._sweep(rand_profile, lambda eta: (np.sqrt(xs) + 1j * eta) ** 2,
                                         cfg.eta_sequence, SolverConfig(max_iter=1))
        assert not ok.any()
        assert all(lv.unconverged == 31 and lv.iterations == 31 for lv in budget)

    def test_certificate_does_not_use_the_power_iteration(self, rand_profile, monkeypatch):
        # a two-step power-iteration cap once left every point's rho(C0)
        # estimate unsettled, yet certified; the sweep's bound needs no
        # iteration, so the cap changes nothing
        import hadspec.fixed_point as fp
        cfg = InversionConfig(x_grid=np.linspace(0.125, 4.0, 32)[1:])
        curve, diag = density_curve(rand_profile, cfg, with_diagnostics=True)
        monkeypatch.setattr(fp, "_POWER_CAP", 2)
        capped, capped_diag = density_curve(rand_profile, cfg, with_diagnostics=True)
        assert capped_diag == diag
        for name in ("xs", "density", "cdf"):
            assert np.array_equal(getattr(capped, name), getattr(curve, name))
        assert (capped.eta_used, capped.atom_at_zero, capped.failed_xs) == \
            (curve.eta_used, curve.atom_at_zero, curve.failed_xs)

    def test_scale_equivariance(self, rand_profile):
        # rescaling weights by s maps x -> s^2 x and eta, a height in sqrt(x), -> s eta
        grid1 = default_x_grid(rand_profile, 8.0, 161)
        cfg1 = InversionConfig(x_grid=grid1)
        c1 = density_curve(rand_profile, cfg1)
        s = 2.0
        cfg2 = InversionConfig(x_grid=grid1 * s**2,
                               eta_sequence=tuple(e * s for e in cfg1.eta_sequence))
        c2 = density_curve(validate_profile(rand_profile.entries * s), cfg2)
        assert np.max(np.abs(c2.density - c1.density / s**2)) <= 1e-8
        assert c2.total_mass == pytest.approx(c1.total_mass, abs=1e-8)

    @pytest.mark.parametrize("n, N", [(32, 16), (64, 32), (24, 8)])
    def test_atom_booked_when_n_exceeds_N(self, n, N):
        # n > N: n - N eigenvalues of B are exactly zero, so the law carries
        # mass 1 - N/n at the origin; the curve books it as the CDF's jump at 0
        p = validate_profile(np.ones((n, N)))
        curve = density_curve(p, InversionConfig(x_grid=default_x_grid(p)))
        assert abs(curve.atom_at_zero - (1.0 - N / n)) <= 1e-6
        assert curve.cdf_at(0.0) == curve.atom_at_zero
        assert curve.cdf_at(-1e-300) == 0.0
        assert abs(curve.total_mass - 1.0) <= 1e-3

    @pytest.mark.parametrize("case", list(MASS_CASES))
    def test_total_mass_is_what_the_grid_integrates(self, case):
        # the atom is measured, never the mass the grid misses past its end:
        # the total is the atom plus the trapezoid rule in s of 2 rho_s,
        # rho_s held at its first value on [0, s_1]
        profile, grid = MASS_CASES[case]()
        curve = density_curve(profile, InversionConfig(x_grid=grid))
        assert not curve.partial
        want_atom = max(0.0, 1.0 - profile.N / profile.n)
        assert abs(curve.atom_at_zero - want_atom) <= 1e-6
        s = np.sqrt(curve.xs)
        y = 2.0 * curve.density * s
        grid_mass = np.trapezoid(np.r_[y[0], y], np.r_[0.0, s])
        assert curve.total_mass == pytest.approx(curve.atom_at_zero + grid_mass, rel=1e-12)

    def test_partial_curve_records_gaps(self, ones16, uncertify):
        cfg = InversionConfig(x_grid=np.linspace(0.2, 5.0, 25), eta_sequence=(0.5, 0.25))
        xs = cfg.x_grid
        uncertify({0.5: xs[[3, 9, 10]], 0.25: xs[[10, 17, 18, 20]]})
        curve = density_curve(ones16, cfg)
        assert curve.partial
        assert curve.failed_xs == tuple(xs[[3, 9, 10, 17, 18, 20]])
        assert len(curve.xs) + len(curve.failed_xs) == 25

    def test_partial_curve_books_no_atom(self, uncertify):
        # c = 1: no atom.  With 45 of 59 points uncertified the trapezoids
        # left hold 0.25 of mass; the lost mass must stay missing, not be
        # booked as an atom at zero
        ones = validate_profile(np.ones((16, 16)))
        uncertify({5e-3: ONES_GRID[GAPS["6"]]})
        curve = density_curve(ones, InversionConfig(x_grid=ONES_GRID))
        assert len(ONES_GRID) == 59 and len(curve.failed_xs) == 45
        assert curve.partial
        assert curve.atom_at_zero < 1e-6
        assert curve.total_mass < 0.5

    @pytest.mark.parametrize("gaps", list(GAPS))
    def test_partial_curve_adds_no_mass_across_gaps(self, gaps, uncertify):
        # a trapezoid across a gap would join its two ends: in x, one step
        # beside the spike at 0 once spanned x = 0.04 to 4.0 and the mass
        # came to 3.258.  The gaps are split between the two levels the curve uses
        ones = validate_profile(np.ones((16, 16)))
        cfg = InversionConfig(x_grid=ONES_GRID)
        full = density_curve(ones, cfg)
        gap = cfg.x_grid[GAPS[gaps]]
        uncertify({5e-3: gap[::2], 2.5e-3: gap[1::2]})
        curve = density_curve(ones, cfg)
        assert curve.partial and not full.partial
        assert curve.failed_xs == tuple(gap)
        assert curve.total_mass <= full.total_mass
        across = np.diff(np.searchsorted(cfg.x_grid, curve.xs)) > 1
        assert across.any()
        assert np.all(np.diff(curve.cdf)[across] == 0.0)
        # every other trapezoid, the first from s = 0 included, is the full curve's
        kept = ~np.isin(cfg.x_grid, gap)
        assert curve.total_mass == pytest.approx(
            full.cdf[0] + np.diff(full.cdf)[kept[1:] & kept[:-1]].sum(), rel=1e-12)

    def test_default_grid_column_iterations(self):
        # 182 points x 3 eta levels at rho(C0) ~ 0.998: an iteration that
        # needs ~1/(1 - rho) map applications per point spends hundreds of
        # thousands of column-iterations here; Anderson mixing needs tens per point
        profile = make_profile("iid_uniform:0,2", 128, 128, seed=3)
        cfg = InversionConfig(x_grid=default_x_grid(profile))
        curve, diag = density_curve(profile, cfg, with_diagnostics=True)
        assert not curve.partial
        assert sum(lv.iterations for lv in diag.levels) < 20_000

    def test_one_unique_column_column_iterations(self):
        # block:0.5,1.5 collapses to one unique column: the Anderson history
        # is capped at depth 1, where depth 3 spent 6 391 column-iterations
        profile = make_profile("block:0.5,1.5", 128, 128)
        assert profile.reduced.d2.shape[1] == 1
        cfg = InversionConfig(x_grid=default_x_grid(profile))
        curve, diag = density_curve(profile, cfg, with_diagnostics=True)
        assert not curve.partial
        assert sum(lv.iterations for lv in diag.levels) < 5_800

    def test_large_weights_no_failed_points_no_atom(self):
        # constant:30 at c = 0.6 has no atom.  At the default etas its large
        # weights put rho(C0) so close to 1 that a ~1/(1 - rho) iteration
        # once left 105 of 242 points unconverged, and their deficit once
        # became a false atom of 0.9999
        profile = make_profile("constant:30", 6, 10)
        curve = density_curve(profile, InversionConfig(x_grid=default_x_grid(profile)))
        assert not curve.partial
        assert curve.atom_at_zero < 1e-6

    @pytest.mark.parametrize("generator", ["constant", "iid_uniform:0,2"])
    def test_every_point_extrapolated(self, generator):
        # one eta -> 0 rule at every grid point, inside the support and out;
        # Im[w G(w^2) + a/w] at w = sqrt(x) + i eta from a sweep of its own
        # down the default schedule
        profile = make_profile(generator, 48, 48, seed=5)
        xs = default_x_grid(profile)
        curve = density_curve(profile, InversionConfig(x_grid=xs))
        assert not curve.partial
        e_red, im = None, []
        for eta in stieltjes.DEFAULT_ETAS:
            w = np.sqrt(xs) + 1j * eta
            e_red, _, _ = solve_batch(profile, (w * w).real, (w * w).imag, warm=e_red)
            im.append((w * batch_G(profile, e_red, (w * w).real, (w * w).imag)
                       + curve.atom_at_zero / w).imag)
        want = np.maximum(stieltjes._richardson(stieltjes.DEFAULT_ETAS, np.array(im[-2:])), 0.0)
        np.testing.assert_allclose(curve.density, want / np.pi / np.sqrt(xs), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("generator", ["constant", "iid_uniform:0,2", "block:0.5,1.5"])
    def test_no_mass_below_zero_on_square_shapes(self, generator):
        # inverted in x, the eta-smoothed hard edge leaked 1.2-2% of the mass
        # below 0; in sqrt(x) the curve is 0 there and its atom is measured as 0
        profile = make_profile(generator, 48, 48, seed=5)
        curve = density_curve(profile, InversionConfig(x_grid=default_x_grid(profile)))
        assert curve.xs[0] > 0.0 and curve.cdf_at(-1e-300) == 0.0
        assert curve.atom_at_zero < 1e-6

    def test_all_failed_raises(self, rand_profile):
        # one map application certifies nothing on a non-constant profile
        cfg = InversionConfig(x_grid=np.linspace(0.4, 4.0, 10), eta_sequence=(1e-2, 5e-3))
        with pytest.raises(QuadratureStallError):
            density_curve(rand_profile, cfg, SolverConfig(max_iter=1))


class TestAtom:
    """The atom at 0, measured from y Im G(iy) at two heights in units of mean(d^2)."""

    @pytest.mark.parametrize("spec, n, N", [("ones", 64, 32), ("ones", 256, 128),
                                            ("constant", 96, 32), ("iid_uniform:0,2", 48, 16),
                                            ("iid_uniform:0,2", 256, 128)])
    def test_tall_shapes_carry_one_minus_N_over_n(self, spec, n, N):
        profile = make_profile(spec, n, N, seed=2)
        assert abs(stieltjes._atom(profile, SolverConfig()) - (1.0 - N / n)) <= 1e-6

    def test_independent_of_the_eta_schedule(self):
        # at heights in sqrt(x) far below the default the atom is the same
        profile = validate_profile(np.ones((64, 32)))
        cfg = InversionConfig(x_grid=default_x_grid(profile), eta_sequence=(1e-5, 5e-6))
        curve = density_curve(profile, cfg)
        assert abs(curve.atom_at_zero - 0.5) <= 1e-6
        assert abs(curve.total_mass - 1.0) <= 1e-3

    @pytest.mark.parametrize("n, N, want", [(8, 8, 0.25), (10, 8, 0.2)])
    def test_zero_rows(self, n, N, want):
        # two zero rows of D are two zero rows of B: rank at most min(n - 2, N)
        entries = np.ones((n, N))
        entries[:2] = 0.0
        assert abs(stieltjes._atom(validate_profile(entries), SolverConfig()) - want) <= 1e-6

    @pytest.mark.parametrize("spec, n, N", [("ones", 32, 32), ("iid_uniform:0,2", 48, 48),
                                            ("block:0.5,1.5", 128, 128), ("spiked:6,20", 64, 64),
                                            ("block:0.5,1.5", 48, 96), ("iid_uniform:0,2", 20, 40),
                                            ("constant:1e-3", 64, 64), ("constant:1", 64, 64),
                                            ("constant:30", 64, 64)])
    def test_none_on_square_and_wide_shapes(self, spec, n, N):
        # a hard edge leaks C sqrt(y) into y Im G(iy), which the extrapolation
        # in sqrt(y) cancels whatever the units of D
        profile = make_profile(spec, n, N, seed=2)
        assert 0.0 <= stieltjes._atom(profile, SolverConfig()) < 1e-6

    def test_uncertified_atom_raises(self):
        profile = make_profile("iid_uniform:0,2", 8, 8, seed=2)
        with pytest.raises(QuadratureStallError, match="atom"):
            stieltjes._atom(profile, SolverConfig(max_iter=2))


def _ks_to_law(curve, law):
    """Sup |curve - law| over x: both are linear in sqrt(x) between their nodes."""
    edges, cdf = law
    x = np.union1d(edges[1:] ** 2, curve.xs)
    inside = np.abs(curve.cdf_at(x) - np.interp(np.sqrt(x), edges, cdf)).max()
    return max(inside, abs(curve.atom_at_zero - cdf[0]))


class TestExactLaw:
    """density_curve against the exact law of one-column profiles (tests/_oracles)."""

    def test_oracle_is_marchenko_pastur_at_c_1(self):
        edges, cdf = one_column_law(validate_profile(np.ones((8, 8))))
        assert abs(cdf[0]) <= 1e-6
        want = np.array([mp_cdf_c1(x) for x in edges[::97] ** 2])
        assert np.max(np.abs(cdf[::97] - want)) <= 1e-6

    @pytest.mark.parametrize("spec", ["constant", "block:0.5,1.5"])
    def test_oracle_atom_on_tall_shapes(self, spec):
        assert abs(one_column_law(make_profile(spec, 96, 32))[1][0] - 2.0 / 3.0) <= 1e-6

    # bounds just above the KS measured on the default grid and schedule;
    # inverted in x these read 0.0134, 0.0199, 0.0006, 0.0054, 0.246, 0.246
    @pytest.mark.parametrize("spec, n, N, bound", [
        ("constant", 256, 256, 2.0e-4), ("block:0.5,1.5", 256, 256, 2.6e-4),
        ("constant", 128, 256, 5.2e-4), ("block:0.5,1.5", 128, 256, 2.1e-3),
        ("constant", 256, 128, 2.4e-4), ("block:0.5,1.5", 256, 128, 7.8e-4)])
    def test_ks_to_the_exact_law(self, spec, n, N, bound):
        profile = make_profile(spec, n, N)
        curve = density_curve(profile, InversionConfig(x_grid=default_x_grid(profile)))
        assert _ks_to_law(curve, one_column_law(profile)) <= bound


class TestInversionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            InversionConfig(x_grid=np.array([]))
        with pytest.raises(ValueError):
            InversionConfig(x_grid=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="x_grid must hold at least 2 points"):
            InversionConfig(x_grid=np.array([0.5]))
        for etas in [(1e-3, 1e-2), (), (1e-2, 1e-2), (1e-2, np.nan), (np.inf, 1e-2), (1e-2, 0.0)]:
            with pytest.raises(ValueError):
                InversionConfig(x_grid=np.array([0.5, 1.0]), eta_sequence=etas)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_grid_refused(self, bad):
        # NaN passes the ascending test, and would spend the whole budget at every level
        grid = np.append(ONES_GRID, bad)
        with pytest.raises(ValueError, match="x_grid must be finite and positive"):
            InversionConfig(x_grid=grid)
        with pytest.raises(ValueError, match="xmax must be finite and positive"):
            default_x_grid(validate_profile(np.ones((4, 4))), bad)

    @pytest.mark.parametrize("x0", [0.0, -0.5])
    def test_grid_at_or_below_zero_refused(self, x0):
        # the law has no density below 0, and its atom at 0 is measured apart
        with pytest.raises(ValueError, match="x_grid must be finite and positive"):
            InversionConfig(x_grid=np.r_[x0, ONES_GRID])

    def test_default_x_grid_is_uniform_in_sqrt_x(self):
        # midpoints x_k = (sqrt(hi) (k + 1/2) / P)^2: every point lies at x > 0
        profile = validate_profile(np.ones((32, 16)))
        hi = 1.25 * (1.0 + np.sqrt(2.0)) ** 2 + 0.1
        g = default_x_grid(profile)
        assert len(g) == 182 and g[0] > 0.0 and g[-1] < hi
        np.testing.assert_allclose(np.sqrt(g), np.sqrt(hi) * (np.arange(182) + 0.5) / 182,
                                   rtol=1e-15)
        assert np.array_equal(default_x_grid(profile, 4.0, 4), [0.0625, 0.5625, 1.5625, 3.0625])
        for hi in (0.0, -1.0):
            with pytest.raises(ValueError, match="xmax"):
                default_x_grid(profile, hi)


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
        # both inversions estimate the same law, one in x and one in sqrt(x):
        # their masses of [a, b] agree to their eta -> 0 extrapolation error
        a, b, etas = 0.5, 2.0, (1e-2, 5e-3)
        curve = density_curve(rand_profile, InversionConfig(x_grid=np.linspace(a, b, 301),
                                                            eta_sequence=etas))
        quad = cdf_interval(rand_profile, a, b, etas)
        assert abs(curve.total_mass - curve.cdf[0] - quad) <= 5e-5   # 2.3e-5 measured

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

    def test_ascending_schedule_refused(self, ones16):
        # the one rule of InversionConfig, ExperimentSpec and --eta: no reordering
        with pytest.raises(ValueError, match="strictly descending"):
            cdf_interval(ones16, 0.5, 1.0, (1e-2, 2e-2))

    def test_unconverged_nodes_raise(self, uncertify):
        # a node uncertified at a height the result uses is never integrated;
        # one uncertified only above the two smallest heights is not used
        ones8 = validate_profile(np.ones((8, 8)))
        etas = (2e-2, 1e-2, 5e-3)
        seen = uncertify({})
        mass = cdf_interval(ones8, 0.5, 1.5, etas)
        nodes = seen[-1].real
        uncertify({2e-2: nodes[:7]})
        assert cdf_interval(ones8, 0.5, 1.5, etas) == mass
        uncertify({2e-2: nodes[:7], 1e-2: nodes[[5, 40]], 5e-3: nodes[[40, 77]]})
        with pytest.raises(QuadratureStallError, match=f"^3 of {len(nodes)} quadrature nodes"):
            cdf_interval(ones8, 0.5, 1.5, etas)

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
        assert max(report.e_defect.values()) / ones16.column_masses.max() <= 1e-3 * 10  # coarsest height dominates

    def test_scaled_profile_mass_target(self, ones16):
        # weights doubled: target mass per component becomes 4
        scaled = validate_profile(ones16.entries * 2.0)
        report = mass_check(scaled)
        assert scaled.column_masses.max() == pytest.approx(4.0)
        assert report.e_defect[1e4] <= 1e-3 * scaled.column_masses.max()

    def test_im_g_positive_on_solved_points(self, rand_profile):
        for z in (0.2 + 0.05j, 1.0 + 0.01j, 3.0 + 1.0j, -2.0 + 0.5j):
            sol = solve_e0(rand_profile, z)
            assert sol.g.imag > 0
