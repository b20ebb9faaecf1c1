import io

import numpy as np
import pytest

from hadspec import EntrySampler, ExperimentSpec, make_profile, run_experiment
from hadspec.experiments import default_x_grid


def small_spec(generator="constant", sizes=((24, 24),), trials=2, epsilon=0.25, seed=5,
               etas=(2e-2, 1e-2, 5e-3)):
    return ExperimentSpec(
        profile_generator=generator,
        sizes=sizes,
        sampler=EntrySampler("rademacher"),
        epsilon=epsilon,
        trials=trials,
        master_seed=seed,
        eta_sequence=etas,
    )


class TestMakeProfile:
    def test_generators(self):
        assert make_profile("ones", 4, 6).entries.sum() == 24
        assert make_profile("constant:2.5", 2, 2).max_entry == 2.5
        block = make_profile("block:1,3", 6, 4)
        assert set(np.unique(block.entries)) == {1.0, 3.0}
        uni = make_profile("iid_uniform:0.5,1.5", 10, 10, seed=3)
        assert uni.entries.min() >= 0.5 and uni.entries.max() <= 1.5
        spiked = make_profile("spiked:3,9.0", 10, 10, seed=3)
        assert (spiked.entries == 9.0).sum() == 3

    def test_deterministic_per_size(self):
        a = make_profile("iid_uniform:0,2", 8, 8, seed=1)
        b = make_profile("iid_uniform:0,2", 8, 8, seed=1)
        assert np.array_equal(a.entries, b.entries)
        c = make_profile("iid_uniform:0,2", 8, 8, seed=2)
        assert not np.array_equal(a.entries, c.entries)

    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            make_profile("fractal", 4, 4)

    def test_default_grid_covers_spectrum(self):
        p = make_profile("ones", 16, 16)
        g = default_x_grid(p)
        assert g[0] < 0 < 4 < g[-1]


class TestExperimentSpec:
    @pytest.mark.parametrize("etas", [(1e-2, 1e-2), (1e-2, np.nan), (5e-3, 1e-2), ()])
    def test_rejects_invalid_eta_schedule(self, etas):
        # every cell would fail later; reject the schedule up front
        with pytest.raises(ValueError, match="eta_sequence"):
            small_spec(etas=etas)


class TestRunExperiment:
    def test_small_run_produces_trusted_rows(self):
        report = run_experiment(small_spec())
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.error == ""
            assert row.trusted
            assert 0 <= row.ks <= 1
            assert row.d_value <= 2 * row.ks + row.d_tail
        assert (24, 24) in report.medians
        assert 0.9 <= report.curve_mass[(24, 24)] <= 1.1

    def test_determinism_modulo_runtime(self):
        a = run_experiment(small_spec())
        b = run_experiment(small_spec())
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.n, ra.N, ra.trial) == (rb.n, rb.N, rb.trial)
            assert ra.d_value == rb.d_value
            assert ra.ks == rb.ks
            assert ra.rho_max == rb.rho_max
        buf_a, buf_b = io.StringIO(), io.StringIO()
        a.write_csv(buf_a)
        b.write_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_spiked_with_covering_budget_matches_background(self):
        # removing all spikes makes the spiked run's comparison match the
        # unspiked background's within the rank-perturbation scale
        sizes = ((32, 32),)
        spiked = run_experiment(small_spec("spiked:2,20.0", sizes=sizes, trials=3,
                                           epsilon=0.25))
        plain = run_experiment(small_spec("iid_uniform:0.5,1.5", sizes=sizes, trials=3,
                                          epsilon=0.25))
        ks_a = spiked.medians[(32, 32)]["ks"]
        ks_b = plain.medians[(32, 32)]["ks"]
        assert abs(ks_a - ks_b) <= 2 / 32 + 0.05

    def test_failed_cells_recorded(self):
        # a column of spikes that truncation zeroes out: cells report errors
        spec = small_spec("spiked:60,30.0", sizes=((6, 10),), trials=2, epsilon=0.3)
        report = run_experiment(spec)
        assert len(report.rows) == 2
        assert all("ZeroColumn" in r.error or r.error == "" for r in report.rows)

    def test_manifest_round_trip(self):
        report = run_experiment(small_spec())
        m = report.to_manifest()
        assert m["generator"] == "constant"
        assert "24x24" in m["medians"]


class TestTrendProperty:
    @pytest.mark.parametrize("generator", ["constant", "block:0.8,1.2"])
    def test_median_d_nonincreasing_in_most_steps(self, generator):
        # stochastic trend: allow one re-run on a fresh seed before failing
        def steps_ok(seed):
            spec = small_spec(generator, sizes=((16, 16), (32, 32), (64, 64), (128, 128)),
                              trials=3, seed=seed, etas=(1e-2, 5e-3, 2.5e-3))
            rep = run_experiment(spec)
            med = [rep.medians[s]["d_value"] for s in spec.sizes]
            drops = sum(a >= b for a, b in zip(med, med[1:]))
            return drops >= 2

        assert steps_ok(5) or steps_ok(6)
