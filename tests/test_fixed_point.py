import numpy as np
import pytest

from hadspec import (
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
from hadspec.fixed_point import (
    NonpositiveImaginaryInputError,
    _expand,
    _map,
    batch_G,
    batch_rho,
    solve_batch,
    spectral_radius_nonneg,
)

from _oracles import mp_stieltjes_root


def random_upper(rng, N, scale=1.0):
    return rng.uniform(-scale, scale, N) + 1j * rng.uniform(1e-3, scale, N)


@pytest.fixture(scope="module")
def repeated_profile():
    """Block profile whose 6 rows and 9 columns collapse to 3 x 3 unique ones."""
    base = np.array([[0.5, 1.5, 1.0], [2.0, 0.3, 1.0], [1.0, 1.0, 0.2]])
    return validate_profile(np.repeat(np.repeat(base, [2, 1, 3], axis=0), [3, 2, 4], axis=1))


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
        # the duplicate warm-starts from the first solution and stays put
        assert b.iterations <= 2
        assert np.array_equal(a.e0, b.e0)
        # and re-solving with the same warm start is fully deterministic
        s1 = solve_e0(rand_profile, 1.0 + 0.5j, warm_start=a.e0)
        s2 = solve_e0(rand_profile, 1.0 + 0.5j, warm_start=a.e0)
        assert np.array_equal(s1.e0, s2.e0)
        assert s1.iterations == s2.iterations

    def test_two_point_continuation_measured(self, ones16):
        """Continuation never hurts; near-duplicate warm starts dominate.

        Measured fact: from z=10i to z=i the warm and cold solves both take
        ~20 iterations because the local contraction rate (~0.23), not the
        start error, sets the count.  The halving the original claim
        expected only materializes when the warm start lands within
        sqrt(tol) of the target, as with near-duplicate points.
        """
        grid = ZGrid((SpectralPoint(0.0, 10.0), SpectralPoint(0.0, 1.0)))
        first, second = solve_grid(ones16, grid)
        cold = solve_e0(ones16, 1j)
        assert second.converged and cold.converged
        assert second.iterations <= cold.iterations + 2
        print(f"\ncontinuation 10i->i: warm {second.iterations} vs cold {cold.iterations}")
        # near-duplicate points: the one regime where warm starts halve the cost
        near = solve_e0(ones16, 1e-9 + 1j, warm_start=cold.e0)
        assert near.iterations <= cold.iterations / 2

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
        rho = batch_rho(profile, e_red, xs, v)
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

    def test_max_iter_flagged_not_raised(self, rand_profile):
        cfg = SolverConfig(tol=1e-15, max_iter=3)
        e_red, res, iters = solve_batch(rand_profile, np.linspace(0.2, 3.0, 5), 0.05, cfg)
        assert np.all(res > cfg.tol)
        assert np.all(iters == 3)
        assert np.all(e_red.imag > 0)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(damping=0.0)
        with pytest.raises(ValueError):
            SolverConfig(damping=1.5)
