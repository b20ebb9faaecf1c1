import csv
import io
import json
import re

import numpy as np
import pytest

from hadspec import (EntrySampler, ExperimentSpec, cli, experiments, make_profile,
                     run_experiment, stieltjes)
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

    @pytest.mark.parametrize("spec", ["constant:1,5", "ones:7", "iid_uniform:0,2,9",
                                      "iid_uniform:1", "spiked:3,9,1", "spiked:2.5,9"])
    def test_refuses_arguments_it_does_not_read(self, spec):
        # a run records its spec, so the spec must be the profile it builds:
        # no argument is dropped and no spike count truncated
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            make_profile(spec, 8, 8)

    @pytest.mark.parametrize("spec", ["ones", "constant", "constant:2", "iid_uniform",
                                      "iid_uniform:0,2", "spiked", "spiked:3", "spiked:3.0,9",
                                      "block", "block:1", "block:1,2,3"])
    def test_accepts_every_argument_count_it_reads(self, spec):
        profile = make_profile(spec, 8, 8)
        assert (profile.n, profile.N) == (8, 8)

    @pytest.mark.parametrize("spec, n, N", [("spiked:-1", 4, 4), ("spiked:100,9", 4, 4),
                                            ("spiked:17,9", 4, 4), ("block:1,2,3", 2, 4),
                                            ("block", 1, 4), ("iid_uniform:2,0", 4, 4)])
    def test_refuses_what_the_shape_cannot_hold(self, spec, n, N):
        # spiked:100,9 on 4x4 once planted 16 spikes, spiked:-1 and
        # iid_uniform:2,0 failed in numpy, and block:1,2,3 on 2 rows was block:1,2
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            make_profile(spec, n, N)

    def test_extreme_counts_that_fit(self):
        assert make_profile("spiked:0,9", 4, 4).max_entry < 9.0
        assert (make_profile("spiked:16,9", 4, 4).entries == 9.0).all()
        assert np.array_equal(make_profile("block:1,2,3", 3, 2).entries[:, 0], [1.0, 2.0, 3.0])

    def test_default_grid_covers_spectrum(self):
        # from just above the hard edge at 0 to past the soft edge at 4
        p = make_profile("ones", 16, 16)
        g = default_x_grid(p)
        assert 0 < g[0] < 1e-3 and 4 < g[-1]


class TestExperimentSpec:
    @pytest.mark.parametrize("etas", [(1e-2, 1e-2), (1e-2, np.nan), (5e-3, 1e-2), ()])
    def test_rejects_invalid_eta_schedule(self, etas):
        # every cell would fail later; reject the schedule up front
        with pytest.raises(ValueError, match="eta_sequence"):
            small_spec(etas=etas)

    def test_rejects_repeated_size(self):
        # a repeated size would be run twice and reported as one size
        with pytest.raises(ValueError, match="size 8x8 is given twice"):
            small_spec(sizes=((8, 8), (16, 16), (8, 8)))


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
        # at 2x2 the one-line budget removes the spike's column, and
        # truncating at the plan's M zeroes it; at 4x4 a column keeps an
        # entry below M and the cells run clean
        spec = small_spec("spiked:1,30", sizes=((2, 2), (4, 4)), trials=2, epsilon=0.5, seed=0)
        report = run_experiment(spec)
        failed = [r for r in report.rows if (r.n, r.N) == (2, 2)]
        assert len(failed) == 2
        assert all(r.error.startswith("ZeroColumnError: ") for r in failed)
        assert all(r.error == "" for r in report.rows if (r.n, r.N) == (4, 4))
        cells = report.to_trace()["cells"]
        assert cells["2x2"] == {"curve_reused_from": None, "failed_stage": "plan",
                                "error_type": "ZeroColumnError"}
        assert "failed_stage" not in cells["4x4"] and "error_type" not in cells["4x4"]
        # medians are read off the trusted rows; a size without one is absent
        good = [r for r in report.rows if (r.n, r.N) == (4, 4) and r.trusted]
        assert list(report.medians) == [(4, 4)]
        assert report.medians[(4, 4)] == {"ks": float(np.median([r.ks for r in good])),
                                          "d_value": float(np.median([r.d_value for r in good]))}

    def test_unbuildable_size_is_recorded(self):
        # a size whose profile cannot be built fails its own cells only
        report = run_experiment(small_spec(sizes=((8, 8), (0, 8)), trials=1))
        good, bad = report.rows
        assert (good.n, good.N, good.error) == (8, 8, "") and good.trusted
        assert (bad.n, bad.N) == (0, 8) and bad.error.startswith("EmptyMatrixError: ")
        assert list(report.medians) == [(8, 8)]
        assert report.to_trace()["cells"]["0x8"] == {
            "curve_reused_from": None, "failed_stage": "plan", "error_type": "EmptyMatrixError"}

    def test_gap_at_a_read_level_untrusts_the_size(self, uncertify):
        # two points uncertified at the finest level leave gaps in the curve:
        # every row of the size is untrusted, with no error, and the size
        # has no median, though every solved residual and rho is in bounds
        xs = default_x_grid(make_profile("constant", 24, 24))
        uncertify({5e-3: xs[[3, 40]]})
        report = run_experiment(small_spec())
        assert len(report.rows) == 2
        for row in report.rows:
            assert row.error == "" and not row.trusted
            assert row.residual_max <= report.spec.solver.tol and row.rho_max < 1.0
        assert report.medians == {}

    def test_failure_at_the_top_level_only_keeps_the_size(self, monkeypatch):
        # the top eta level only warm-starts the next, and the estimate does
        # not read it: a residual above tol there leaves the curve whole, the
        # rows trusted and the size in the medians; residual_max records it
        solve_batch, calls = stieltjes.solve_batch, []

        def top_level_fails(*args, **kwargs):
            e_red, res, iters = solve_batch(*args, **kwargs)
            if not calls:
                res = res.copy()
                res[0] = 1.0
            calls.append(1)
            return e_red, res, iters

        monkeypatch.setattr(stieltjes, "solve_batch", top_level_fails)
        report = run_experiment(small_spec())
        assert len(calls) == 3
        assert len(report.rows) == 2
        assert all(r.error == "" and r.trusted and r.residual_max == 1.0 for r in report.rows)
        assert list(report.medians) == [(24, 24)]

    def test_error_field_quoted(self, monkeypatch):
        # a message with a comma stays one CSV field
        def fail(profile, epsilon):
            raise ValueError("a, b")

        monkeypatch.setattr(experiments, "plan_truncation", fail)
        buf = io.StringIO()
        run_experiment(small_spec()).write_csv(buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(rows) == 2
        for row in rows:
            assert len(row) == 10 and None not in row
            assert row["error"] == "ValueError: a, b"

    def test_manifest_round_trip(self, tmp_path):
        # compare's manifest holds the run's medians and curve masses, read back as written
        report = run_experiment(small_spec())
        prefix = str(tmp_path / "report")
        assert cli.main(["compare", "--generator", "constant", "--sizes", "24x24", "--trials", "2",
                         "--seed", "5", "--eta", "2e-2,1e-2,5e-3", "-o", prefix]) == 0
        with open(prefix + ".manifest.json") as fh:
            options = json.load(fh)["options"]
        assert options["generator"] == "constant"
        assert options["medians"] == {"24x24": report.medians[(24, 24)]}
        assert options["curve_mass"] == {"24x24": report.curve_mass[(24, 24)]}


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
            assert a.trusted == b.trusted
            # the same curve up to rounding: G sums (row_mult @ x) / n
            assert a.ks == pytest.approx(b.ks, rel=0, abs=1e-15)
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
