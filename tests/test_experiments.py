import io

import numpy as np
import pytest

from hadspec import EntrySampler, ExperimentSpec, experiments, make_profile, run_experiment
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


class TestInversionReuse:
    """One inversion per distinct reduced map within a run."""

    @staticmethod
    def count_inversions(monkeypatch):
        calls = []
        real = experiments.density_curve

        def counting(profile, *args, **kwargs):
            calls.append((profile.n, profile.N))
            return real(profile, *args, **kwargs)

        monkeypatch.setattr(experiments, "density_curve", counting)
        return calls

    @pytest.mark.parametrize("generator, inversions", [("block:0.5,1.5", 1),
                                                       ("constant", 1),
                                                       ("iid_uniform:0,2", 2)])
    def test_inversions_per_sweep(self, monkeypatch, generator, inversions):
        calls = self.count_inversions(monkeypatch)
        report = run_experiment(small_spec(generator, sizes=((64, 64), (96, 96))))
        assert len(calls) == inversions
        reused = report.stages[(96, 96)]["curve_reused_from"]
        assert reused == ("64x64" if inversions == 1 else None)
        assert report.stages[(64, 64)]["curve_reused_from"] is None
        assert all(r.error == "" and r.trusted for r in report.rows)

    def test_every_run_starts_empty(self, monkeypatch):
        calls = self.count_inversions(monkeypatch)
        for _ in range(2):
            run_experiment(small_spec("block:0.5,1.5", sizes=((64, 64), (96, 96))))
        assert len(calls) == 2

    def test_other_shape_or_bands_invert_again(self, monkeypatch):
        # 96x48 has another aspect ratio; block:1,3,2 splits 64 and 96
        # rows into unequal band weights (22/21/21 against 32/32/32)
        calls = self.count_inversions(monkeypatch)
        run_experiment(small_spec("block:0.5,1.5", sizes=((64, 64), (96, 48))))
        run_experiment(small_spec("block:1,3,2", sizes=((64, 64), (96, 96))))
        assert len(calls) == 4

    @pytest.mark.parametrize("generator", ["block:0.5,1.5", "constant"])
    def test_reused_size_matches_standalone_run(self, generator):
        sweep = run_experiment(small_spec(generator, sizes=((64, 64), (96, 96)), trials=3))
        alone = run_experiment(small_spec(generator, sizes=((96, 96),), trials=3))
        assert sweep.stages[(96, 96)]["curve_reused_from"] == "64x64"
        reused = [r for r in sweep.rows if (r.n, r.N) == (96, 96)]
        assert len(reused) == len(alone.rows) == 3
        for a, b in zip(reused, alone.rows):
            assert a.ks == b.ks and a.trusted == b.trusted
            # the same curve up to rounding: G sums (row_mult @ x) / n
            assert a.d_value == pytest.approx(b.d_value, rel=0, abs=1e-15)

    def test_stage_times_add_up(self):
        trace = run_experiment(small_spec("constant", sizes=((16, 16), (24, 24)))).to_trace()
        stages = ("plan_s", "invert_s", "simulate_s", "compare_s")
        times = [rec[k] for rec in trace["cells"].values() for k in stages]
        assert len(times) == 8 and min(times) >= 0
        assert sum(times) <= trace["total_runtime_s"]


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
