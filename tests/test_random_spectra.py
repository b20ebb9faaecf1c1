import math

import numpy as np
import pytest

from hadspec import EntrySampler, empirical_spectrum, ks_distance, validate_profile
from hadspec.experiments import make_profile
from hadspec.random_spectra import (_draw, build_B, hermitian_eigenvalues, truncate_center_rescale,
                                    truncated_moments)

from _oracles import (
    sample_matrix,
    truncated_complex_gaussian_m2,
    truncated_complex_uniform_m2,
    truncated_normal_moments,
    truncated_uniform_moments,
)


class TestSampleMatrix:
    def test_rademacher_support(self):
        X = sample_matrix(20, 30, EntrySampler("rademacher"), 1)
        assert set(np.unique(X)) <= {-1.0, 1.0}

    def test_deterministic_given_seed(self):
        s = EntrySampler("gaussian")
        assert np.array_equal(sample_matrix(10, 10, s, 42), sample_matrix(10, 10, s, 42))
        assert not np.array_equal(sample_matrix(10, 10, s, 42), sample_matrix(10, 10, s, 43))

    def test_gaussian_variance_clt_window(self):
        X = sample_matrix(200, 200, EntrySampler("gaussian"), 7)
        assert 0.95 < X.var() < 1.05

    def test_standardization_all_families(self):
        for fam in ("rademacher", "uniform_pm", "gaussian", "two_point_asym"):
            for cplx in (False, True):
                X = sample_matrix(120, 130, EntrySampler(fam, complex_entries=cplx), 3)
                tol = 5.0 / math.sqrt(X.size)
                assert abs(X.mean()) <= tol
                assert abs(np.mean(np.abs(X) ** 2) - 1.0) <= tol
                if cplx:
                    assert abs(X.real.var() - 0.5) <= tol

    def test_two_point_atoms(self):
        X = sample_matrix(100, 100, EntrySampler("two_point_asym"), 5)
        vals = set(np.round(np.unique(X), 12))
        assert vals == {round(1 / 3, 12), -3.0}

    def test_uniform_bounded(self):
        X = sample_matrix(50, 50, EntrySampler("uniform_pm"), 2)
        assert np.max(np.abs(X)) <= math.sqrt(3.0)

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError):
            EntrySampler("cauchy")


class TestTruncatedMoments:
    def test_gaussian_matches_quadrature_oracle(self):
        for T in (0.8, 2.0, 3.5):
            mom = truncated_moments(EntrySampler("gaussian"), T)
            mean_o, var_o = truncated_normal_moments(T)
            assert mom.mean == pytest.approx(mean_o, abs=1e-12)
            assert mom.sigma2 == pytest.approx(var_o, abs=1e-10)

    def test_uniform_matches_quadrature_oracle(self):
        for T in (0.5, 1.5, 5.0):
            mom = truncated_moments(EntrySampler("uniform_pm"), T)
            mean_o, var_o = truncated_uniform_moments(T)
            assert mom.mean == pytest.approx(mean_o, abs=1e-12)
            assert mom.sigma2 == pytest.approx(var_o, abs=1e-10)

    def test_two_point_hand_enumeration(self):
        # clip level between the atoms removes only the -3 atom
        mom = truncated_moments(EntrySampler("two_point_asym"), 1.0)
        assert mom.mean == pytest.approx(0.9 / 3)          # 0.9 * (1/3)
        assert mom.sigma2 == pytest.approx(0.9 / 9 - (0.3) ** 2)

    def test_complex_gaussian_matches_oracle(self):
        for T in (0.7, 1.5, 3.0):
            mom = truncated_moments(EntrySampler("gaussian", complex_entries=True), T)
            assert mom.mean == 0.0
            assert mom.sigma2 == pytest.approx(truncated_complex_gaussian_m2(T), abs=1e-10)

    def test_complex_uniform_matches_dblquad_oracle(self):
        for T in (0.9, 1.4):
            mom = truncated_moments(EntrySampler("uniform_pm", complex_entries=True), T)
            assert mom.sigma2 == pytest.approx(truncated_complex_uniform_m2(T), abs=1e-7)

    def test_complex_uniform_past_the_corner_keeps_everything(self):
        # the square of side 2 sqrt(3/2) lies inside the disk once T >= its half-diagonal sqrt(3)
        sampler = EntrySampler("uniform_pm", complex_entries=True)
        for T in (math.sqrt(3.0), 2.0, 10.0):
            mom = truncated_moments(sampler, T)
            assert mom.mean == 0.0
            assert mom.sigma2 == 1.0
        # the wedge formula just inside the corner meets it
        below = truncated_moments(sampler, math.sqrt(3.0) * (1.0 - 1e-9))
        assert below.sigma2 == pytest.approx(1.0, abs=1e-8)

    def test_complex_rademacher_modulus_one(self):
        mom = truncated_moments(EntrySampler("rademacher", complex_entries=True), 1.5)
        assert mom.sigma2 == pytest.approx(1.0)


class TestTruncateCenterRescale:
    def test_identity_for_bounded_family_above_threshold(self):
        sampler = EntrySampler("rademacher")
        X = sample_matrix(30, 40, sampler, 11)
        matrix, mask = truncate_center_rescale(X, 1.5 / math.sqrt(30), sampler)
        assert np.array_equal(matrix, X)
        assert not mask.any()

    def test_gaussian_bound_from_truncated_normal_oracle(self):
        n = 200
        sampler = EntrySampler("gaussian")
        X = sample_matrix(n, n, sampler, 13)
        matrix, mask = truncate_center_rescale(X, 2.0 / math.sqrt(n), sampler)   # T = 2
        _, var_o = truncated_normal_moments(2.0)
        bound = 2.0 / math.sqrt(var_o)          # ~2.2737, the derived bound
        assert np.max(np.abs(matrix)) <= bound + 1e-12
        assert mask.sum() > 0                   # T=2 clips a visible fraction
        # the mean is 0, so every kept entry is x / sigma
        sigma = X[~mask] / matrix[~mask]
        assert sigma == pytest.approx(np.full(sigma.shape, math.sqrt(var_o)), abs=1e-12)

    def test_degenerate_constant_matrix(self):
        # threshold 0.5 clips both rademacher atoms: the truncated sigma is
        # 0, and a clip that would give the zero matrix is refused
        sampler = EntrySampler("rademacher")
        X = sample_matrix(6, 7, sampler, 5)
        with pytest.raises(ValueError, match="clip level 0.5 leaves rademacher entries"):
            truncate_center_rescale(X, 0.5 / math.sqrt(6), sampler)

    @pytest.mark.parametrize("eta_n", [0.0, -1.0, math.nan])
    def test_nonpositive_eta_n_refused(self, eta_n):
        sampler = EntrySampler("rademacher")
        with pytest.raises(ValueError, match="eta_n must be positive"):
            truncate_center_rescale(sample_matrix(6, 7, sampler, 5), eta_n, sampler)

    def test_centering_uses_exact_family_moments(self):
        # two_point with the -3 atom clipped: exact mean 0.3 is subtracted
        # and the exact standard deviation 0.1 divides
        sampler = EntrySampler("two_point_asym")
        X = sample_matrix(50, 50, sampler, 17)
        matrix, _ = truncate_center_rescale(X, 1.0 / math.sqrt(50), sampler)
        clipped = np.where(np.abs(X) > 1.0, 0.0, X)
        assert np.allclose(matrix, (clipped - 0.3) / 0.1)


class TestBuildB:
    def test_scalar_case(self):
        p = validate_profile([[2.0]])
        B = build_B(p, np.array([[3.0]]))
        assert B[0, 0] == 36.0

    def test_zero_matrix(self, rand_profile):
        B = build_B(rand_profile, np.zeros((rand_profile.n, rand_profile.N)))
        assert np.all(B == 0)

    def test_hermitian_and_psd(self, rand_profile):
        X = sample_matrix(rand_profile.n, rand_profile.N, EntrySampler("gaussian", complex_entries=True), 5)
        B = build_B(rand_profile, X)
        scale = np.max(np.abs(B))
        assert np.max(np.abs(B - B.conj().T)) <= 1e-14 * max(scale, 1.0)
        evals = hermitian_eigenvalues(B)
        assert evals[0] >= -1e-10 * scale

    def test_trace_identity_exact(self, rand_profile):
        X = sample_matrix(rand_profile.n, rand_profile.N, EntrySampler("gaussian"), 6)
        B = build_B(rand_profile, X)
        expected = np.sum(rand_profile.squared * np.abs(X) ** 2) / rand_profile.N
        assert np.trace(B) == pytest.approx(expected, rel=1e-12)

    def test_ones_profile_reduces_to_xxstar(self):
        p = validate_profile(np.ones((8, 12)))
        X = sample_matrix(8, 12, EntrySampler("uniform_pm"), 9)
        B = build_B(p, X)
        assert np.allclose(B, X @ X.T / 12, atol=1e-15)
        assert np.trace(B) == pytest.approx(np.sum(np.abs(X) ** 2) / 12, rel=1e-13)

    def test_dimension_mismatch(self, rand_profile):
        with pytest.raises(ValueError, match="does not match profile"):
            build_B(rand_profile, np.zeros((3, 3)))


class TestHermitianEigenvalues:
    def test_diagonal(self):
        assert np.array_equal(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])

    def test_two_by_two_characteristic_polynomial(self):
        evals = hermitian_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(evals, [1.0, 3.0], atol=1e-14)

    def test_trace_consistency(self, rand_profile):
        X = sample_matrix(rand_profile.n, rand_profile.N, EntrySampler("gaussian"), 8)
        B = build_B(rand_profile, X)
        evals = hermitian_eigenvalues(B)
        scale = np.max(np.abs(B))
        assert abs(evals.sum() - np.trace(B)) <= 1e-9 * rand_profile.n * scale

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestEmpiricalSpectrum:
    def test_single_atom_scalar(self):
        p = validate_profile([[1.0]])
        (dist,) = empirical_spectrum(p, EntrySampler("rademacher"), trials=1, seed=0)
        assert dist.atoms[0] == pytest.approx(1.0)

    def test_deterministic_given_seed(self, rand_profile):
        s = EntrySampler("gaussian")
        a = empirical_spectrum(rand_profile, s, trials=3, seed=12)
        b = empirical_spectrum(rand_profile, s, trials=3, seed=12)
        for da, db in zip(a, b):
            assert np.array_equal(da.atoms, db.atoms)

    def test_trials_order_independent(self, rand_profile):
        s = EntrySampler("gaussian")
        full = empirical_spectrum(rand_profile, s, trials=3, seed=12)
        # trial 2 alone reproduces the third spectrum of the batch:
        # substreams hash (master, index), not the call sequence
        lone = empirical_spectrum(rand_profile, s, trials=3, seed=12)[2]
        assert np.array_equal(full[2].atoms, lone.atoms)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_tall_spectrum_holds_exact_zeros(self, complex_entries):
        # n > N: eigvalsh(B) returns B's null space as +-1e-16 (129 of the 256
        # on ones 512x256 came out negative); the spectrum holds n - N exact
        # zeros and the eigenvalues of the N x N companion
        profile = make_profile("iid_uniform:0,2", 48, 20, seed=1)
        sampler = EntrySampler("gaussian", complex_entries)
        (dist,) = empirical_spectrum(profile, sampler, trials=1, seed=3)
        assert np.count_nonzero(dist.atoms == 0.0) == 28 and np.all(dist.atoms[:28] == 0.0)
        X = _draw(np.random.default_rng(np.random.SeedSequence([3, 0])), 48, 20, sampler)
        full = hermitian_eigenvalues(build_B(profile, X))
        np.testing.assert_allclose(dist.atoms[28:], full[28:], rtol=1e-12)

    def test_tall_spectrum_below_rank_N_stays_ascending(self):
        # 3 zero rows of 10 leave Y*Y (8 x 8) rank 7: its null direction
        # comes out of eigvalsh as -5.1e-17 on this draw, below the n - N zeros
        entries = np.ones((10, 8))
        entries[:3] = 0.0
        (dist,) = empirical_spectrum(validate_profile(entries), EntrySampler("gaussian"),
                                     trials=1, seed=0)
        assert np.all(np.diff(dist.atoms) >= 0.0)
        assert np.count_nonzero(np.abs(dist.atoms) < 1e-12) == 3

    def test_mp_edge_range_at_desk_scale(self):
        p = validate_profile(np.ones((256, 256)))
        spectra = empirical_spectrum(p, EntrySampler("rademacher"), trials=5, seed=2024)
        for dist in spectra:
            assert 3.6 < dist.atoms[-1] < 4.6


class TestPerturbationLemmas:
    def test_ks_bound_rows_with_truncated_entries(self, rand_profile):
        # clipping at T changes only rows containing clipped entries
        n = rand_profile.n
        sampler = EntrySampler("gaussian")
        X = sample_matrix(n, rand_profile.N, sampler, 31)
        _, mask = truncate_center_rescale(X, 2.4 / math.sqrt(n), sampler)
        assert mask.any()
        rows_touched = int(mask.any(axis=1).sum())
        F = empirical_spectrum_like(rand_profile, X)
        G = empirical_spectrum_like(rand_profile, np.where(mask, 0.0, X))
        assert ks_distance(F, G) <= rows_touched / n + 1e-12

    def test_singular_value_chain(self, rand_profile):
        n, N = rand_profile.n, rand_profile.N
        sampler = EntrySampler("gaussian")
        X = sample_matrix(n, N, sampler, 37)
        clipped = np.where(truncate_center_rescale(X, 2.0 / math.sqrt(n), sampler)[1], 0.0, X)
        mom = truncated_moments(sampler, 2.0)
        centered = clipped - mom.mean.real
        hat = centered / math.sqrt(mom.sigma2)
        A = rand_profile.entries * hat / math.sqrt(N)
        Bm = rand_profile.entries * centered / math.sqrt(N)
        sa = np.linalg.svd(A, compute_uv=False)
        sb = np.linalg.svd(Bm, compute_uv=False)
        lhs = np.sum((np.sort(sa)[::-1] - np.sort(sb)[::-1]) ** 2)
        rhs = np.sum(np.abs(A - Bm) ** 2)
        assert lhs <= rhs + 1e-12


def empirical_spectrum_like(profile, X):
    from hadspec import EmpiricalDistribution
    return EmpiricalDistribution(hermitian_eigenvalues(build_B(profile, X)))
