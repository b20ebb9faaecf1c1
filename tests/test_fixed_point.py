import numpy as np
import pytest

from hadspec import (
    FixedPointSolution,
    InversionConfig,
    SolverConfig,
    SpectralPoint,
    ZGrid,
    build_certificate,
    cross_contraction_matrix,
    evaluate_G,
    iterate_e,
    row_denominators,
    solve_e0,
    solve_grid,
    validate_profile,
)
import hadspec.fixed_point as fp
from hadspec.experiments import make_profile
from hadspec.stieltjes import _GAUSS_X
from hadspec.fixed_point import (
    NonpositiveImaginaryInputError,
    _certify,
    _denominators,
    _expand,
    _hermitian_solve,
    _map,
    batch_certificate,
    batch_G,
    certified,
    solve_batch,
    spectral_radius_nonneg,
)

from _oracles import anderson_reference, mp_stieltjes_root


def random_upper(rng, N, scale=1.0):
    return rng.uniform(-scale, scale, N) + 1j * rng.uniform(1e-3, scale, N)


class TestRowDenominators:
    def test_scalar_hand_value(self):
        p = validate_profile([[1.0]])
        d = row_denominators(p, np.array([1j]), 1j)
        assert d[0] == pytest.approx(0.5 - 1.5j, abs=1e-15)

    def test_two_by_two_hand_value(self):
        p = validate_profile(np.ones((2, 2)))
        d = row_denominators(p, np.array([1j, 1j]), 2j)
        assert np.allclose(d, 0.5 - 2.5j, atol=1e-15)

    def test_imag_bounded_by_minus_v(self, rand_profile):
        rng = np.random.default_rng(0)
        for v in (0.05, 0.4, 3.0):
            e = random_upper(rng, rand_profile.N)
            d = row_denominators(rand_profile, e, 0.7 + v * 1j)
            assert np.all(d.imag <= -v + 1e-14)

    def test_rejects_nonpositive_imag(self, ones16):
        e = np.full(16, 1.0 + 0.0j)
        with pytest.raises(NonpositiveImaginaryInputError):
            row_denominators(ones16, e, 1j)


class TestIterateE:
    def test_scalar_hand_value(self):
        p = validate_profile([[1.0]])
        out = iterate_e(p, np.array([1j]), 1j)
        assert out[0] == pytest.approx(0.2 + 0.6j, abs=1e-15)

    def test_positivity_preserved_randomized(self, rand_profile):
        rng = np.random.default_rng(42)
        for _ in range(25):
            e = random_upper(rng, rand_profile.N, scale=rng.uniform(0.1, 5.0))
            z = complex(rng.uniform(-2, 4), rng.uniform(0.02, 3.0))
            out = iterate_e(rand_profile, e, z)
            assert np.all(out.imag > 0)

    def test_output_bounded(self, rand_profile):
        rng = np.random.default_rng(1)
        v = 0.3
        e = random_upper(rng, rand_profile.N)
        out = iterate_e(rand_profile, e, 1.0 + v * 1j)
        assert np.all(np.abs(out) <= rand_profile.max_entry**2 / v + 1e-12)

    def test_fixed_point_is_fixed(self, rand_profile):
        sol = solve_e0(rand_profile, 0.8 + 0.5j)
        defect = np.max(np.abs(iterate_e(rand_profile, sol.e0, 0.8 + 0.5j) - sol.e0))
        assert defect <= 1e-12


class TestSolveE0:
    def test_matches_quadratic_oracle(self, ones16):
        sol = solve_e0(ones16, 1j)
        oracle = mp_stieltjes_root(1j, 1.0)
        assert sol.converged
        assert np.max(np.abs(sol.e0 - oracle)) <= 1e-10
        # all components collapse to the same scalar
        assert np.max(np.abs(sol.e0 - sol.e0[0])) == 0.0
        assert abs(oracle - (0.3003 + 0.6248j)) < 5e-4  # sanity vs quoted value

    def test_oracle_match_across_points(self, ones16):
        for z in (0.5 + 0.3j, 2.0 + 0.1j, -1.0 + 0.05j, 3.9 + 1.0j):
            sol = solve_e0(ones16, z)
            assert sol.converged
            assert abs(sol.g - mp_stieltjes_root(z, 1.0)) <= 1e-10

    def test_large_v_asymptote(self, rand_profile):
        v = 1e6
        sol = solve_e0(rand_profile, v * 1j)
        target = 1j * rand_profile.column_masses / v
        rel = np.max(np.abs(sol.e0 - target) / np.abs(target))
        assert rel <= 1e-4

    def test_warm_start_from_solution_is_instant(self, rand_profile):
        z = 1.2 + 0.4j
        sol = solve_e0(rand_profile, z)
        again = solve_e0(rand_profile, z, warm_start=sol.e0)
        assert again.converged
        assert again.iterations <= 2
        assert again.residual <= 1e-12

    def test_bound_on_solution(self, rand_profile):
        for z in (0.5 + 0.2j, 2.0 + 1.0j):
            sol = solve_e0(rand_profile, z)
            assert np.all(np.abs(sol.e0) <= rand_profile.max_entry**2 / z.imag + 1e-12)

    def test_never_leaves_upper_half_plane(self, rand_profile):
        sol = solve_e0(rand_profile, 0.1 + 0.05j)
        assert np.all(sol.e0.imag > 0)

    def test_unconverged_flagged_not_raised(self, rand_profile):
        cfg = SolverConfig(tol=1e-15, max_iter=3)
        sol = solve_e0(rand_profile, 1.0 + 0.05j, cfg)
        assert not sol.converged
        assert sol.iterations <= 3
        assert np.all(sol.e0.imag > 0)

    def test_default_config_converges_near_axis(self):
        # c = 1 Marchenko-Pastur at Im z = 1e-3, where rho(C0) ~ 0.999: the
        # plain map needs more than the default 10 000 applications
        sol = solve_e0(validate_profile(np.ones((8, 8))), 1 + 1e-3j)
        assert sol.converged
        assert sol.iterations <= 100
        assert abs(sol.g - mp_stieltjes_root(1 + 1e-3j, 1.0)) <= 1e-10

    def test_warm_start_must_lie_in_upper_half_plane(self, rand_profile):
        bad = np.full(rand_profile.N, 1.0 - 0.1j)
        with pytest.raises(NonpositiveImaginaryInputError):
            solve_e0(rand_profile, 1j, warm_start=bad)

    def test_converged_implies_certified(self, rand_profile):
        sol = solve_e0(rand_profile, 0.5 + 0.1j)
        assert sol.converged
        assert sol.rho_C0 < 1.0

    def test_uniqueness_probe_quick(self, rand_profile):
        rng = np.random.default_rng(11)
        z = 0.5 + 0.2j
        sols = []
        for _ in range(5):
            warm = random_upper(rng, rand_profile.N, scale=2.0)
            sols.append(solve_e0(rand_profile, z, warm_start=warm).e0)
        base = sols[0]
        for s in sols[1:]:
            assert np.max(np.abs(s - base)) <= 1e-8

    def test_continuity_in_z(self, rand_profile):
        z = 1.0 + 0.3j
        dz = 1e-6
        sol = solve_e0(rand_profile, z)
        sol2 = solve_e0(rand_profile, z + dz, warm_start=sol.e0)
        A = cross_contraction_matrix(rand_profile, sol.e0, sol.e0, z)
        denom = row_denominators(rand_profile, sol.e0, z)
        b = rand_profile.squared.T @ (1.0 / denom**2) / rand_profile.n
        K = np.max(np.abs(np.linalg.solve(np.eye(rand_profile.N) - A, b)))
        assert np.max(np.abs(sol2.e0 - sol.e0)) <= 1.1 * K * dz


class TestEvaluateG:
    def test_collapses_to_scalar_equation(self, ones16):
        sol = solve_e0(ones16, 1j)
        g = evaluate_G(ones16, sol)
        assert abs(g - sol.e0[0]) <= 1e-10   # ones profile: G == e0
        assert abs(g - mp_stieltjes_root(1j, 1.0)) <= 1e-10

    def test_stieltjes_bound(self, rand_profile):
        for z in (0.3 + 0.08j, 1.5 + 1.0j):
            sol = solve_e0(rand_profile, z)
            g = evaluate_G(rand_profile, sol)
            assert g.imag > 0
            assert abs(g) <= 1.0 / z.imag + 1e-12

    def test_large_z_mass(self, rand_profile):
        z = 1e4j
        sol = solve_e0(rand_profile, z)
        assert abs(z * sol.g + 1.0) <= 1e-3

    def test_tiny_profile_resolvent_limit(self):
        # d -> 0 gives G -> -1/z
        p = validate_profile([[1e-6]])
        z = 0.7 + 0.9j
        sol = solve_e0(p, z)
        assert abs(sol.g - (-1.0 / z)) <= 1e-9

    def test_strict_requires_convergence(self, rand_profile):
        sol = solve_e0(rand_profile, 1.0 + 0.5j, SolverConfig(tol=1e-15, max_iter=2))
        with pytest.raises(ValueError):
            evaluate_G(rand_profile, sol)
        evaluate_G(rand_profile, sol, strict=False)


class TestCertificate:
    def test_identity_defect_at_oracle_root_scalar(self):
        # direct evaluation of the displayed formulas at the quadratic root
        z = 1j
        e_star = mp_stieltjes_root(z, 1.0)
        denom = 1.0 / (1.0 + e_star) - z
        c00 = 1.0 / (abs(1.0 + e_star) ** 2 * abs(denom) ** 2)
        b0 = 1.0 / abs(denom) ** 2
        defect = abs(e_star.imag - c00 * e_star.imag - z.imag * b0)
        assert defect <= 1e-10
        # package certificate at the solved point agrees
        p = validate_profile([[1.0]])
        sol = solve_e0(p, z)
        diag = build_certificate(p, sol)
        assert diag.identity_defect <= 1e-10
        assert diag.rho == pytest.approx(c00, rel=1e-9)

    def test_rho_below_one_on_desk_instances(self, rand_profiles_50x100):
        for p in rand_profiles_50x100[:3]:
            sol = solve_e0(p, 0.8 + 0.2j)
            assert sol.converged
            assert sol.rho_C0 < 1.0
            diag = build_certificate(p, sol)
            assert diag.rho < 1.0
            assert not diag.power_stalled
            assert np.all(diag.C0 >= 0)
            assert np.all(diag.b0 > 0)

    def test_rho_decays_like_v_squared(self, rand_profile):
        # entries of C0 scale as 1/|denom|^2 <= 1/v^2
        sol = solve_e0(rand_profile, 100j)
        assert sol.rho_C0 < 0.01

    def test_reduced_certificate_matches_full(self, ones16):
        sol = solve_e0(ones16, 0.7 + 0.4j)
        diag = build_certificate(ones16, sol)
        assert sol.rho_C0 == pytest.approx(diag.rho, rel=1e-10)
        assert sol.identity_defect == pytest.approx(diag.identity_defect, rel=1e-6, abs=1e-15)

    @pytest.mark.parametrize("name", ["rand_profile", "repeated_profile"])
    def test_matrix_free_certificate_matches_full(self, name, request):
        profile = request.getfixturevalue(name)
        red = profile.reduced
        xs, v = np.array([-0.3, 0.4, 1.0, 2.5]), 0.1
        zs = xs + 1j * v
        e_red, res, _ = solve_batch(profile, xs, v)
        assert np.all(res <= 1e-12)
        rho, defect = _certify(profile, e_red, _denominators(red, profile.c, e_red, zs), v)
        for p, z in enumerate(zs):
            sol = solve_e0(profile, z)
            full = build_certificate(profile, sol)
            assert rho[p] == pytest.approx(full.rho_bound, rel=1e-10)
            # the Collatz-Wielandt bound lies above the power iteration's rho(C0)
            assert rho[p] >= full.rho * (1 - 1e-12)
            # defects are rounding-level, so compare them on that scale
            assert defect[p] == pytest.approx(full.identity_defect, rel=1e-6, abs=1e-15)

    def test_certified_is_residual_and_rho(self):
        res = np.array([1e-13, 1e-13, 1e-11, 1e-12])
        rho = np.array([0.5, 1.0, 0.5, 0.999])
        assert certified(res, rho, 1e-12).tolist() == [True, False, False, True]
        assert not certified(0.0, np.nan, 1e-12)

    def test_power_iteration_flags_stall(self):
        # true rho is 1; after three steps the estimate (1.279) still moves
        rho, stalled = spectral_radius_nonneg(np.array([[1.0, 1.0], [0.0, 0.9]]), np.ones(2), cap=3)
        assert rho == pytest.approx(1.279, abs=1e-3)
        assert stalled

    def test_power_iteration_matches_dense_eigensolver(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            C = rng.uniform(0, 1, (12, 12))
            rho_dense = np.max(np.abs(np.linalg.eigvals(C)))
            rho_power, stalled = spectral_radius_nonneg(C, np.ones(12))
            assert not stalled
            assert rho_power == pytest.approx(rho_dense, rel=1e-9)


class TestCrossContraction:
    def test_cauchy_schwarz_entrywise_and_spectral(self, rand_profile):
        z = 0.9 + 0.25j
        sol = solve_e0(rand_profile, z)
        rng = np.random.default_rng(5)
        warm = sol.e0 * (1 + 0.001 * rng.uniform(-1, 1, rand_profile.N))
        sol_bar = solve_e0(rand_profile, z, warm_start=warm)
        A = cross_contraction_matrix(rand_profile, sol.e0, sol_bar.e0, z)
        diag = build_certificate(rand_profile, sol)
        diag_bar = build_certificate(rand_profile, sol_bar)
        geom = np.sqrt(diag.C0 * diag_bar.C0)
        assert np.all(np.abs(A) <= geom + 1e-12)
        rho_A = np.max(np.abs(np.linalg.eigvals(A)))
        assert rho_A <= np.sqrt(diag.rho * diag_bar.rho) + 1e-10
        assert rho_A < 1.0

    def test_fixed_point_difference_relation(self, rand_profile):
        # e - e_bar = A (e - e_bar) holds when both are exact solutions;
        # at residual 1e-12 the relation holds to matching precision
        z = 1.1 + 0.4j
        sol = solve_e0(rand_profile, z)
        rng = np.random.default_rng(9)
        sol_bar = solve_e0(rand_profile, z + 1e-4,
                           warm_start=random_upper(rng, rand_profile.N))
        A = cross_contraction_matrix(rand_profile, sol.e0, sol_bar.e0, z)
        # same z pair: use two random starts at identical z
        sol2 = solve_e0(rand_profile, z, warm_start=random_upper(rng, rand_profile.N))
        A2 = cross_contraction_matrix(rand_profile, sol.e0, sol2.e0, z)
        diff = sol.e0 - sol2.e0
        assert np.max(np.abs(diff - A2 @ diff)) <= 1e-10


class TestLocalContraction:
    def test_monotone_error_decay_undamped(self, ones16, rand_profile):
        for profile, z in ((ones16, 1.0 + 0.35j), (rand_profile, 0.8 + 0.35j)):
            sol = solve_e0(profile, z)
            e = sol.e0 + 1e-3 * (1 + 1j) / np.sqrt(2)
            errs = [np.max(np.abs(e - sol.e0))]
            for _ in range(200):
                e = iterate_e(profile, e, z)
                errs.append(np.max(np.abs(e - sol.e0)))
                if errs[-1] <= 1e-10:
                    break
            assert errs[-1] <= 1e-10
            tail = errs[1:]
            assert all(b < a for a, b in zip(tail, tail[1:]))


class TestSolveGrid:
    def test_single_point_equals_solve_e0(self, rand_profile):
        z = 0.6 + 0.7j
        grid = ZGrid.single(0.6, 0.7)
        lone = solve_grid(rand_profile, grid)[0]
        direct = solve_e0(rand_profile, z)
        assert np.array_equal(lone.e0, direct.e0)
        assert lone.iterations == direct.iterations

    def test_duplicate_point_bitwise_identical(self, rand_profile):
        grid = ZGrid((SpectralPoint(1.0, 0.5), SpectralPoint(1.0, 0.5)))
        a, b = solve_grid(rand_profile, grid)
        assert np.array_equal(a.e0, b.e0)
        # the same grid solved twice is fully deterministic
        again = solve_grid(rand_profile, grid)
        assert all(np.array_equal(s.e0, t.e0) and s.iterations == t.iterations
                   for s, t in zip((a, b), again))
        # and re-solving with the same warm start is fully deterministic
        s1 = solve_e0(rand_profile, 1.0 + 0.5j, warm_start=a.e0)
        s2 = solve_e0(rand_profile, 1.0 + 0.5j, warm_start=a.e0)
        assert np.array_equal(s1.e0, s2.e0)
        assert s1.iterations == s2.iterations

    def test_two_point_continuation_measured(self, ones16):
        """solve_grid cold-starts every point; only near-duplicate warm starts pay.

        Measured fact: from z=10i to z=i a warm and a cold solve both take
        ~20 iterations because the local contraction rate (~0.23), not the
        start error, sets the count, so solve_grid no longer warm-starts
        from solved neighbours and its z=i point is the cold solve.  A warm
        start halves the cost only when it lands within sqrt(tol) of the
        target, as with near-duplicate points.
        """
        grid = ZGrid((SpectralPoint(0.0, 10.0), SpectralPoint(0.0, 1.0)))
        first, second = solve_grid(ones16, grid)
        cold = solve_e0(ones16, 1j)
        warm = solve_e0(ones16, 1j, warm_start=first.e0)
        assert second.converged and cold.converged and warm.converged
        assert second.iterations == cold.iterations
        assert warm.iterations <= cold.iterations + 2
        print(f"\ncontinuation 10i->i: warm {warm.iterations} vs cold {cold.iterations}")
        # near-duplicate points: the one regime where warm starts halve the cost
        near = solve_e0(ones16, 1e-9 + 1j, warm_start=cold.e0)
        assert near.iterations <= cold.iterations / 2

    def test_mixed_grid_matches_per_point_solve_e0(self, rand_profile):
        # x and v both vary; the budget leaves two near-axis points
        # unconverged but already contracting (residual <= 2.2e-6).  Stopped
        # farther out (max_iter=15, residual 0.06) the map amplifies the
        # rounding gap between block and single BLAS products to ~1e-9
        cfg = SolverConfig(max_iter=20)
        grid = ZGrid.product([-0.5, 0.3, 1.2, 3.5], [2.0, 0.2, 0.01])
        sols = solve_grid(rand_profile, grid, cfg)
        assert 0 < sum(s.converged for s in sols) < len(grid)
        for sol, point in zip(sols, grid):
            ref = solve_e0(rand_profile, point, cfg)
            assert sol.z == point
            assert abs(sol.g - ref.g) <= 10 * cfg.tol
            assert sol.converged == ref.converged
            assert sol.iterations == ref.iterations

    def test_failures_recorded_not_fatal(self, rand_profile):
        cfg = SolverConfig(tol=1e-15, max_iter=2)
        grid = ZGrid.vertical(0.5, [2.0, 1.0])
        sols = solve_grid(rand_profile, grid, cfg)
        assert len(sols) == 2
        assert not any(s.converged for s in sols)


class TestSolveBatch:
    @pytest.mark.parametrize("name", ["rand_profile", "repeated_profile"])
    def test_matches_per_point_solve_e0(self, name, request):
        profile = request.getfixturevalue(name)
        cfg = SolverConfig()
        xs = np.linspace(-0.5, 4.0, 7)
        v = 0.05
        e_red, res, iters = solve_batch(profile, xs, v, cfg)
        g = batch_G(profile, e_red, xs, v)
        rho, _ = batch_certificate(profile, e_red, xs, v)
        assert np.all(res <= cfg.tol)
        for k, x in enumerate(xs):
            sol = solve_e0(profile, complex(x, v), cfg)
            assert abs(g[k] - sol.g) <= 10 * cfg.tol
            assert iters[k] == sol.iterations
            assert rho[k] == pytest.approx(sol.rho_C0, rel=1e-10)

    def test_reduced_map_expands_to_iterate_e(self, repeated_profile):
        red = repeated_profile.reduced
        assert red.d2.shape == (3, 3)
        rng = np.random.default_rng(7)
        e_red = random_upper(rng, red.d2.shape[1])
        z = 0.7 + 0.2j
        full = iterate_e(repeated_profile, _expand(red, e_red), z)
        reduced = _expand(red, _map(red, repeated_profile.c, e_red[:, None], np.array([z]))[:, 0])
        assert np.max(np.abs(reduced - full)) <= 1e-14 * np.max(np.abs(full))

    @pytest.mark.parametrize("name", ["rand_profile", "repeated_profile"])
    def test_fixed_point_expands_to_full_size_fixed_point(self, name, request):
        # the Anderson fixed point, expanded, is a fixed point of iterate_e
        profile = request.getfixturevalue(name)
        cfg = SolverConfig()
        xs, v = np.linspace(-0.5, 4.0, 7), 1e-3
        e_red, res, _ = solve_batch(profile, xs, v, cfg)
        assert np.all(res <= cfg.tol)
        for k, x in enumerate(xs):
            e = _expand(profile.reduced, e_red[:, k])
            assert np.max(np.abs(iterate_e(profile, e, complex(x, v)) - e)) <= 10 * cfg.tol

    def test_empty_line(self, repeated_profile):
        e_red, res, iters = solve_batch(repeated_profile, [], 0.1)
        assert e_red.shape == (3, 0) and res.shape == iters.shape == (0,)

    def test_max_iter_flagged_not_raised(self, rand_profile):
        cfg = SolverConfig(tol=1e-15, max_iter=3)
        e_red, res, iters = solve_batch(rand_profile, np.linspace(0.2, 3.0, 5), 0.05, cfg)
        assert np.all(res > cfg.tol)
        assert np.all(iters == 3)
        assert np.all(e_red.imag > 0)


def _gauss_nodes(a, b, width):
    # the nodes of cdf_interval's 8-point Gauss-Legendre panels on [a, b]
    edges = np.linspace(a, b, int(np.ceil((b - a) / width)) + 1)
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half + half * _GAUSS_X).ravel()


def _two_unique_columns():
    base = np.array([[0.5, 1.5], [2.0, 0.3], [1.0, 1.2]])
    profile = validate_profile(np.repeat(np.repeat(base, [2, 1, 3], axis=0), [4, 5], axis=1))
    assert profile.reduced.d2.shape == (3, 2)
    return profile


KERNEL_GRIDS = {
    "rand_profile": lambda request: (request.getfixturevalue("rand_profile"),
                                     np.linspace(-0.5, 4.0, 37)),
    "repeated_profile": lambda request: (request.getfixturevalue("repeated_profile"),
                                         np.linspace(-0.5, 5.0, 23)),
    "iid_8x8_gauss": lambda request: (make_profile("iid_uniform:0,2", 8, 8, seed=5),
                                      _gauss_nodes(0.5, 1.5, 1e-2)),
    # two unique columns: the history depth is capped at 2
    "two_unique_columns": lambda request: (_two_unique_columns(), np.linspace(-0.5, 5.0, 23)),
}


class TestAndersonKernel:
    """The points-major kernel against the column-major reference it replaced."""

    ETAS = (1e-2, 5e-3, 2.5e-3)

    @staticmethod
    def _sweep(profile, xs, etas):
        e, out = None, []
        for eta in etas:
            e, res, iters = solve_batch(profile, xs, eta, warm=e)
            out.append((batch_G(profile, e, xs, eta), res, iters))
        return out

    def _both(self, profile, xs, monkeypatch):
        new = self._sweep(profile, xs, self.ETAS)
        monkeypatch.setattr(fp, "_anderson", anderson_reference)
        return zip(new, self._sweep(profile, xs, self.ETAS))

    @pytest.mark.parametrize("name", list(KERNEL_GRIDS))
    def test_matches_reference_kernel(self, name, request, monkeypatch):
        profile, xs = KERNEL_GRIDS[name](request)
        for (g, res, iters), (g_ref, res_ref, iters_ref) in self._both(profile, xs, monkeypatch):
            assert np.all(res <= 1e-12) and np.all(res_ref <= 1e-12)
            assert np.array_equal(iters, iters_ref)
            assert np.max(np.abs(g - g_ref)) <= 1e-13

    def test_one_unique_column_matches_reference_to_tolerance(self, monkeypatch):
        # the history depth is capped at the number of unique columns, so
        # with one unique column the Gram matrix is a positive scalar and
        # Cholesky and LU solve it alike (a depth-3 history would be
        # singular but for the 1e-14 trace ridge, and the two solves would
        # draw different rounding noise in its null space)
        profile = make_profile("block:0.5,1.5", 24, 36)
        assert profile.reduced.d2.shape == (2, 1)
        xs = np.linspace(-0.5, 3.5, 41)
        for (g, res, iters), (g_ref, res_ref, iters_ref) in self._both(profile, xs, monkeypatch):
            assert np.all(res <= 1e-12) and np.all(res_ref <= 1e-12)
            assert np.array_equal(iters, iters_ref)
            assert np.max(np.abs(g - g_ref)) <= 1e-13

    def test_column_order_does_not_matter(self, rand_profile):
        # freezing columns swap slots, which must not couple them
        rng = np.random.default_rng(4)
        xs = np.linspace(-0.5, 4.0, 41)
        perm = rng.permutation(len(xs))
        for v in (0.5, 1e-2):
            e, res, iters = solve_batch(rand_profile, xs, v)
            e_p, res_p, iters_p = solve_batch(rand_profile, xs[perm], v)
            assert np.all(res <= 1e-12) and np.all(res_p <= 1e-12)
            assert np.array_equal(iters_p, iters[perm])
            g, g_p = batch_G(rand_profile, e, xs, v), batch_G(rand_profile, e_p, xs[perm], v)
            assert np.max(np.abs(g_p - g[perm])) <= 10 * 1e-12

    def test_failed_pivot_takes_plain_step_and_clears_history(self, rand_profile, monkeypatch):
        # a negative regularisation makes every stored slot a negative pivot:
        # each mixed candidate is NaN, so every step is the plain map step
        # and the history never holds more than the slot just written
        grams = []

        def recording_solve(a, b):
            grams.append(a.copy())
            return _hermitian_solve(a, b)

        monkeypatch.setattr(fp, "_REG", -2.0)
        monkeypatch.setattr(fp, "_hermitian_solve", recording_solve)
        xs, v, steps = np.array([0.3, 1.1, 2.5]), 1.0, 6
        e_red, res, iters = solve_batch(rand_profile, xs, v, SolverConfig(tol=1e-15, max_iter=steps))
        assert np.all(iters == steps) and np.all(res > 1e-15)
        zs = xs + 1j * v
        e = fp._cold_start(rand_profile, np.full(len(xs), v))
        for _ in range(steps - 1):
            e = _map(rand_profile.reduced, rand_profile.c, e, zs)
        assert np.max(np.abs(e_red - e)) <= 1e-15 * np.max(np.abs(e))
        assert len(grams) == steps - 1
        for a in grams:
            filled = np.diagonal(a, axis1=1, axis2=2).real != 1.0
            assert np.all(filled.sum(axis=1) <= 1)


def _oracle_certificates(profile, e_red, xs, v):
    # build_certificate (full-size C0, power iteration) at each batch column
    return [build_certificate(profile, FixedPointSolution(
                z=SpectralPoint.of(complex(x, v)), e0=_expand(profile.reduced, e_red[:, p]),
                residual=0.0, rho_C0=0.0, identity_defect=0.0, iterations=0, g=1j,
                converged=False))
            for p, x in enumerate(xs)]


class TestCollatzWielandtBound:
    """_certify's one-product bound against the full-matrix power iteration."""

    # every level of the default schedule, then 1e-4
    ETAS = InversionConfig(x_grid=np.linspace(0.0, 1.0, 5)).eta_sequence + (1e-4,)

    @pytest.mark.parametrize("name", list(KERNEL_GRIDS))
    def test_certifies_the_oracle_points(self, name, request):
        profile, xs = KERNEL_GRIDS[name](request)
        e_red = None
        for eta in self.ETAS:
            e_red, res, _ = solve_batch(profile, xs, eta, warm=e_red)
            bound, _ = batch_certificate(profile, e_red, xs, eta)
            rho = np.array([d.rho for d in _oracle_certificates(profile, e_red, xs, eta)])
            assert np.array_equal(certified(res, bound, 1e-12), certified(res, rho, 1e-12))
            assert np.all(bound >= rho * (1 - 1e-12))

    @pytest.mark.parametrize("profile", [validate_profile(np.ones((16, 16))),
                                         make_profile("block:0.5,1.5", 24, 36)])
    def test_exact_on_one_unique_column(self, profile):
        # C0 has rank one, so the bound is its one nonzero eigenvalue
        assert profile.reduced.d2.shape[1] == 1
        xs = np.linspace(-0.5, 4.5, 11)
        for eta in (1.0, 1e-2, 1e-4):
            e_red, res, _ = solve_batch(profile, xs, eta)
            assert np.all(res <= 1e-12)
            bound, _ = batch_certificate(profile, e_red, xs, eta)
            for p, diag in enumerate(_oracle_certificates(profile, e_red, xs, eta)):
                assert bound[p] == pytest.approx(diag.rho, rel=1e-14)


def _regularised_gram(dR):
    # the kernel's normal equations: Gram matrix, 1e-14 trace ridge, unit empty slots
    gram = np.einsum("pin,pjn->pij", dR.conj(), dR)
    d = np.diagonal(gram, axis1=1, axis2=2).real
    idx = np.arange(dR.shape[1])
    gram[:, idx, idx] += np.where(d > 0, 1e-14 * d.sum(axis=1, keepdims=True), 1.0)
    return gram


class TestHermitianSolve:
    def _stack(self, rng, P=64, m=3, n=20):
        return rng.standard_normal((P, m, n)) + 1j * rng.standard_normal((P, m, n))

    def test_matches_linalg_solve(self):
        rng = np.random.default_rng(1)
        for m in (1, 2, 3, 5):
            dR = self._stack(rng, m=m)
            dR[:8, m - 1] = 0.0                       # empty slots: unit diagonal
            dR[8:12] = 0.0                            # a cleared history
            a = _regularised_gram(dR)
            b = rng.standard_normal((64, m)) + 1j * rng.standard_normal((64, m))
            b[:8, m - 1] = b[8:12] = 0.0
            x = _hermitian_solve(a, b)
            ref = np.linalg.solve(a, b[..., None])[..., 0]
            assert np.allclose(x, ref, rtol=1e-12, atol=1e-14)
            assert np.all(x[:8, m - 1] == 0.0) and np.all(x[8:12] == 0.0)

    def test_near_singular_gram(self):
        # two slots equal to 1e-10: only the ridge keeps the Gram matrix
        # definite (condition ~1e14), so gamma itself is ill-determined but
        # the fitted residual dR gamma is not
        rng = np.random.default_rng(2)
        dR = self._stack(rng)
        dR[:, 2] = dR[:, 1] * (1 + 1e-10 * rng.standard_normal((64, 1)))
        a = _regularised_gram(dR)
        r = self._stack(rng, m=1)[:, 0]
        b = np.einsum("pin,pn->pi", dR.conj(), r)
        x = _hermitian_solve(a, b)
        ref = np.linalg.solve(a, b[..., None])[..., 0]
        assert np.all(np.isfinite(x))
        assert np.max(np.abs(np.einsum("pi,pin->pn", x - ref, dR))) <= 1e-12 * np.abs(r).max()
        backward = np.abs(np.einsum("pij,pj->pi", a, x) - b).max(axis=1)
        assert np.all(backward <= 1e-14 * np.abs(a).max(axis=(1, 2)) * np.abs(x).max(axis=1))

    def test_bad_pivot_gives_nan_row_without_warning(self):
        a = np.tile(np.eye(3, dtype=complex), (4, 1, 1))
        a[1, 1, 1] = -1.0                             # negative pivot
        a[2, 2, 2] = np.nan                           # NaN pivot
        a[3, 1, 0] = a[3, 0, 1] = 1.0                 # singular: second pivot is 0
        b = np.tile(np.array([1.0, 2.0, 3.0], dtype=complex), (4, 1))
        x = _hermitian_solve(a, b)
        assert np.array_equal(x[0], b[0])
        assert np.all(np.isnan(x[1:]))


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
