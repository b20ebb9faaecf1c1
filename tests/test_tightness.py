import numpy as np
import pytest

from hadspec import (
    EmpiricalDistribution,
    EntrySampler,
    build_B,
    hermitian_eigenvalues,
    ks_distance,
    plan_truncation,
    truncate_profile,
    validate_profile,
)
from hadspec.experiments import make_profile
from hadspec.tightness import ZeroColumnAfterTruncationError

from _oracles import (brute_force_min_M, greedy_plan_rescan, plan_truncation_full_loop,
                      sample_matrix)


def spiked_profile(rng, n, N, k, height):
    entries = rng.uniform(0.5, 1.5, (n, N))
    pos = rng.choice(n * N, size=k, replace=False)
    entries.flat[pos] = height
    return validate_profile(entries), entries


class TestPlanTruncation:
    def test_flat_profile_removes_nothing(self):
        p = validate_profile(np.full((10, 12), 3.0))
        plan = plan_truncation(p, 0.5)
        assert plan.rows_removed == () and plan.cols_removed == ()
        assert plan.M == 3.0

    def test_single_spike_row_removed(self):
        entries = np.ones((8, 8))
        entries[3, :] = 100.0
        plan = plan_truncation(validate_profile(entries), 0.2)  # budget 1
        assert plan.rows_removed == (3,)
        assert plan.cols_removed == ()
        assert plan.M == 1.0

    def test_budget_zero_reports_global_max(self):
        entries = np.ones((5, 5))
        entries[0, 0] = 9.0
        plan = plan_truncation(validate_profile(entries), 0.1)  # floor(0.5) = 0
        assert plan.budget == 0
        assert plan.M == 9.0
        assert plan.lines_used == 0

    def test_matches_brute_force_on_small_spiked_instances(self):
        rng = np.random.default_rng(99)
        for trial in range(12):
            n, N = rng.integers(3, 9), rng.integers(3, 9)
            k = int(rng.integers(1, 4))
            p, entries = spiked_profile(rng, n, N, k, 50.0)
            eps = float(rng.uniform(0.2, 0.9))
            plan = plan_truncation(p, eps)
            opt = brute_force_min_M(entries, plan.budget)
            background = entries[entries < 50.0].max()
            assert plan.M >= opt - 1e-12
            # greedy equals the optimum, or its gap stays below the
            # largest non-spike entry
            assert plan.M == pytest.approx(opt, abs=1e-12) or plan.M - opt <= background

    def test_invariants_on_randomized_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            n, N = int(rng.integers(4, 30)), int(rng.integers(4, 30))
            k = int(rng.integers(0, 5))
            entries = rng.uniform(0.1, 2.0, (n, N))
            if k:
                entries.flat[rng.choice(n * N, size=k, replace=False)] = rng.uniform(5, 50)
            p = validate_profile(entries)
            eps = float(rng.uniform(0.05, 0.95))
            plan = plan_truncation(p, eps)
            assert plan.lines_used <= eps * n
            row_ok = np.ones(n, bool)
            row_ok[list(plan.rows_removed)] = False
            col_ok = np.ones(N, bool)
            col_ok[list(plan.cols_removed)] = False
            surviving = entries[np.ix_(row_ok, col_ok)]
            if surviving.size:
                assert surviving.max() <= plan.M + 1e-12

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(7)
        p, _ = spiked_profile(rng, 12, 12, 4, 25.0)
        eps = [0.1, 0.2, 0.4, 0.8]
        Ms = [plan_truncation(p, e).M for e in eps]
        assert all(a >= b - 1e-12 for a, b in zip(Ms, Ms[1:]))

    def test_epsilon_domain(self):
        p = validate_profile(np.ones((3, 3)))
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                plan_truncation(p, bad)


def _oracle_instances(rng, count):
    """Small seeded profiles spread over the planner's decision paths."""
    kinds = ("continuous", "small_int", "constant", "block", "spike",
             "full_row", "one_row", "one_col", "narrow")
    for t in range(count):
        kind = kinds[t % len(kinds)]
        n, N = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        if kind == "one_row":
            n = 1
        elif kind == "one_col":
            N = 1
        elif kind == "narrow":   # N <= budget: every column can be peeled
            n, N = int(rng.integers(6, 16)), int(rng.integers(1, 4))
        if kind in ("continuous", "one_row", "one_col", "narrow"):
            entries = rng.uniform(0.1, 2.0, (n, N))
        elif kind == "small_int":
            entries = rng.integers(0, 4, (n, N)).astype(float)
            entries[0] = np.maximum(entries[0], 1.0)   # no zero column
        elif kind == "constant":
            entries = np.full((n, N), float(rng.integers(1, 4)))
        elif kind == "block":
            levels = rng.integers(1, 4, size=int(rng.integers(1, 4)))
            entries = make_profile("block:" + ",".join(map(str, levels)), n, N).entries
        elif kind == "spike":
            entries = np.ones((n, N))
            entries.flat[rng.integers(n * N)] = 10.0
        else:   # a row whose entries are all maximal, over small-integer ties
            entries = rng.integers(1, 3, (n, N)).astype(float)
            entries[rng.integers(n)] = 3.0
        eps = float(rng.uniform(0.5, 0.95)) if kind == "narrow" else float(rng.uniform(0.05, 0.95))
        yield validate_profile(entries), eps


def test_matches_rescan_oracle():
    rng = np.random.default_rng(2024)
    cases = list(_oracle_instances(rng, 1080))
    cases += [(make_profile("block:0.5,1.5", 64, 64), 0.25),
              (make_profile("iid_uniform:0,2", 64, 64, seed=5), 0.25)]
    all_peeled = peeled = 0
    for p, eps in cases:
        plan = plan_truncation(p, eps)
        assert plan == greedy_plan_rescan(p, eps), (p.entries, eps)
        all_peeled += len(plan.cols_removed) == p.N
        peeled += plan.lines_used > 0
    # the instances reach the all-columns-peeled (M = 0) and peeling paths
    assert all_peeled >= 20 and peeled >= 300


class TestEarlyStop:
    """The planner stops once the peels left cannot clear every maximum;
    its plans are those of the loop that spends the whole budget."""

    @staticmethod
    def same_plan(p, eps):
        plan = plan_truncation(p, eps)
        assert plan.to_record() == plan_truncation_full_loop(p, eps).to_record()
        return plan

    @pytest.mark.parametrize("generator", ["constant:2", "block:0.5,1.5", "block:1,3,2",
                                           "iid_uniform:0,2", "spiked:5,9", "spiked:40,9"])
    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.6])
    def test_generators(self, generator, eps):
        self.same_plan(make_profile(generator, 40, 48, seed=3), eps)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_diagonal_maximum(self, k):
        # k maxima, one per line: budget 4 clears up to 4 of them
        entries = np.ones((16, 16))
        entries[np.arange(k), np.arange(k)] = 5.0
        plan = self.same_plan(validate_profile(entries), 0.25)
        assert plan.lines_used == (k if k <= 4 else 0)
        assert plan.M == (1.0 if k <= 4 else 5.0)

    @pytest.mark.parametrize("eps, lines", [(0.25, 2), (0.2, 0)])
    def test_boundary_ceil_equals_peels_left(self, eps, lines):
        # 8 maxima, at most 4 on a line: ceil(8 / 4) = 2.  With 2 peels left
        # the loop goes on and its second peel drops the maximum; with 1 it stops
        entries = np.ones((8, 8))
        entries[0:2, 0:4] = 5.0
        plan = self.same_plan(validate_profile(entries), eps)
        assert plan.rows_removed == (0, 1)[:lines] and plan.cols_removed == ()
        assert plan.M == (1.0 if lines else 5.0)

    def test_random_instances(self):
        rng = np.random.default_rng(77)
        for p, eps in _oracle_instances(rng, 540):
            self.same_plan(p, eps)


class TestTruncateProfile:
    def test_identity_when_all_below(self):
        p = validate_profile(np.full((4, 5), 2.0))
        q = truncate_profile(p, 2.0)
        assert np.array_equal(q.entries, p.entries)

    def test_single_entry_zeroed(self):
        entries = np.ones((4, 4))
        entries[1, 2] = 100.0
        q = truncate_profile(validate_profile(entries), 1.0)
        assert q.entries[1, 2] == 0.0
        assert q.entries.sum() == 15.0

    def test_nan_level_rejected(self):
        p = validate_profile(np.ones((3, 3)))
        for bad in (float("nan"), -1.0):
            with pytest.raises(ValueError, match="nonnegative"):
                truncate_profile(p, bad)

    def test_zero_column_surfaced(self):
        entries = np.ones((3, 3))
        entries[:, 1] = 50.0
        with pytest.raises(ZeroColumnAfterTruncationError) as err:
            truncate_profile(validate_profile(entries), 1.0)
        assert err.value.columns == (1,)
        assert err.value.k == 1

    def test_rank_bound_for_removed_lines(self):
        rng = np.random.default_rng(17)
        p, entries = spiked_profile(rng, 16, 20, 5, 40.0)
        plan = plan_truncation(p, 0.5)
        truncated = truncate_profile(p, plan.M)
        X = sample_matrix(16, 20, EntrySampler("gaussian"), 1)
        diff = (p.entries - truncated.entries) * X
        rank = np.linalg.matrix_rank(diff)
        assert rank <= plan.lines_used

    def test_spectra_within_epsilon_after_truncation(self):
        # rank chain: KS between the two spectra is at most
        # (removed rows + cols)/n <= epsilon
        rng = np.random.default_rng(23)
        n, N = 128, 160
        p, entries = spiked_profile(rng, n, N, 6, 30.0)
        eps = 0.1
        plan = plan_truncation(p, eps)
        truncated = truncate_profile(p, plan.M)
        X = sample_matrix(n, N, EntrySampler("rademacher"), 3)
        F = EmpiricalDistribution(hermitian_eigenvalues(build_B(p, X)))
        G = EmpiricalDistribution(hermitian_eigenvalues(build_B(truncated, X)))
        assert ks_distance(F, G) <= eps + 1e-12
