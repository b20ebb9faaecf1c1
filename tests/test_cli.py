import argparse
import csv
import json
import os
import shlex

import numpy as np
import pytest

from hadspec import cli
from hadspec.cli import atomic_write, build_parser, main, parse_sizes, parse_z
from hadspec.experiments import default_x_grid, make_profile
from hadspec.stieltjes import InversionConfig, density_curve

from _oracles import mp_cdf_c1


def run_cli(args, capsys=None):
    return main(args)


def read_text(path):
    with open(path) as fh:
        return fh.read()


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestParsers:
    def test_parse_z(self):
        assert parse_z("0+1i") == 1j
        assert parse_z("-0.5+2.5e-3i") == complex(-0.5, 2.5e-3)

    def test_parse_z_rejects_lower_half(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_z("1-2i")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_z("nonsense")

    @pytest.mark.parametrize("command", ["solve", "mp-check"])
    @pytest.mark.parametrize("z", ["nan+1i", "inf+1i", "-inf+1i", "1+nani"])
    def test_nonfinite_z_exits_2(self, tmp_path, monkeypatch, capsys, command, z):
        monkeypatch.chdir(tmp_path)
        argv = [command, f"--z={z}"]
        if command == "solve":
            argv += ["--profile", "ones", "--n", "4", "--N", "4"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{z!r} must be finite" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_parse_sizes(self):
        assert parse_sizes("64x64,128x256") == ((64, 64), (128, 256))


class TestMpCheck:
    def test_matches_quadratic_oracle(self, capsys):
        status = run_cli(["mp-check", "--c", "1", "--z", "0+1i", "--z", "2+0.1i"])
        out = capsys.readouterr().out
        assert status == 0
        assert "max |diff|" in out

    def test_nonunit_ratio(self):
        assert run_cli(["mp-check", "--c", "0.5", "--N", "64", "--z", "1+0.5i"]) == 0

    def test_bad_ratio_is_usage_error(self, capsys):
        status = run_cli(["mp-check", "--c", "0.33", "--N", "10", "--z", "0+1i"])
        assert status == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--c=inf", "--c=1e308", "--c=nan", "--c=0", "--c=-1", "--N=0"])
    def test_degenerate_instance_is_usage_error(self, capsys, flag):
        # each asks for an empty, NaN- or infinite-sized instance: refused
        # before one is built, with no traceback
        assert run_cli(["mp-check", flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["mp-check", "--c", "1e6", "--N", "1000"],
    ["solve", "--profile", "ones", "--n", "4", "--N", "4", "--z", "0+1i"],
    ["density", "--profile", "ones", "--n", "4", "--N", "4"],
    ["simulate", "--profile", "ones", "--n", "4", "--N", "4"],
    ["truncate", "--profile", "ones", "--n", "4", "--N", "4"]], ids=lambda argv: argv[0])
def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    # an instance too large to build (mp-check --c 1e6 --N 1000 asks numpy
    # for 7.28 TiB) exits 1 with one error line; the allocation is faked
    message = "Unable to allocate 7.28 TiB for an array"

    def huge(*args):
        raise MemoryError(message)
    monkeypatch.setattr(cli, "make_profile", huge)
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"error: MemoryError: {message}\n"
    assert os.listdir(tmp_path) == []


class TestDensityCommand:
    def test_csv_mass_in_window(self, tmp_path, capsys):
        out = str(tmp_path / "density.csv")
        status = run_cli(["density", "--profile", "ones", "--n", "128", "--N", "128",
                          "--xmax", "4.5", "-o", out])
        assert status == 0
        rows = read_text(out).strip().splitlines()
        assert rows[0] == "x,density,cdf,eta_used"
        final_cdf = float(rows[-1].split(",")[2])
        assert 0.99 <= final_cdf <= 1.01
        manifest = read_json(out + ".manifest.json")
        assert manifest["command"] == "density"
        assert manifest["outputs"] == [out]
        # stdout states the curve's atom at 0 next to its total mass
        profile = make_profile("ones", 128, 128)
        curve = density_curve(profile, InversionConfig(default_x_grid(profile, 4.5)))
        assert capsys.readouterr().out == (
            f"wrote {out} (mass {curve.total_mass:.6f}, atom {curve.atom_at_zero:.6f})\n")
        assert curve.atom_at_zero < 1e-6

    @pytest.mark.parametrize("argv, tol, atom", [
        (["ones", "--n", "64", "--N", "32", "--eta", "1e-5,5e-6"], 1e-3, "0.500000"),
        (["ones", "--n", "256", "--N", "128"], 1e-3, "0.500000"),
        (["spiked:6,20", "--n", "128", "--N", "128", "--seed", "3"], 1e-2, "0.000000"),
        (["constant:1e-3", "--n", "128", "--N", "128"], 1e-3, "0.000000")],
        ids=["ones_64x32_small_eta", "ones_256x128", "spiked_128", "constant_1e-3_128"])
    def test_mass_at_the_hard_edge(self, tmp_path, capsys, argv, tol, atom):
        # inverted in x these read mass 6.229950, 1.007673, 1.602253 and 1.001088
        out = str(tmp_path / "density.csv")
        assert run_cli(["density", "--profile"] + argv + ["-o", out]) == 0
        stdout = capsys.readouterr().out
        assert stdout.endswith(f", atom {atom})\n")
        assert float(stdout.split("(mass ")[1].split(",")[0]) == pytest.approx(1.0, abs=tol)

    def test_no_partial_files_left(self, tmp_path):
        out = str(tmp_path / "density.csv")
        run_cli(["density", "--profile", "ones", "--n", "16", "--N", "16",
                 "--xmax", "4.5", "--points", "31",
                 "--eta", "2e-2,1e-2", "-o", out])
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    def test_single_eta_level(self, tmp_path):
        # one height is used as it is; there is nothing to extrapolate from
        out = str(tmp_path / "density.csv")
        status = run_cli(["density", "--profile", "ones", "--n", "16", "--N", "16",
                          "--points", "31", "--eta", "0.01", "-o", out])
        assert status == 0
        assert read_json(out + ".manifest.json")["options"]["eta"] == [0.01]

    def test_default_grid_is_compares(self, tmp_path):
        # with no --xmax the command inverts on default_x_grid, as compare does
        out = str(tmp_path / "density.csv")
        assert run_cli(["density", "--profile", "iid_uniform:0,2", "--n", "12", "--N", "16",
                        "--seed", "4", "--eta", "2e-2", "-o", out]) == 0
        xs = np.loadtxt(out, delimiter=",", skiprows=1, usecols=0)
        grid = default_x_grid(make_profile("iid_uniform:0,2", 12, 16, seed=4))
        assert np.array_equal(xs, grid)
        options = read_json(out + ".manifest.json")["options"]
        assert options["xmax"] is None and options["points"] == len(grid) == 182
        assert "xmin" not in options

    def test_xmax_zero_is_refused(self, tmp_path, monkeypatch, capsys):
        # only a missing --xmax means the default; 0 is a value, and a grid
        # on (0, 0] has no point
        monkeypatch.chdir(tmp_path)
        assert run_cli(["density", "--profile", "ones", "--n", "8", "--N", "8",
                        "--xmax", "0", "--eta", "2e-2"]) == 1
        assert "ValueError: xmax must be finite and positive, got 0.0" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_xmin_is_refused(self, tmp_path, monkeypatch, capsys):
        # the grid starts above 0 by construction; --xmin is no option
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(["density", "--profile", "ones", "--n", "8", "--N", "8", "--xmin", "-0.5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --xmin" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_grid_cutting_the_support_books_no_atom(self, tmp_path, capsys):
        # the grid ends at 2, short of the edge at 4: the mass above 2 is
        # missing from the total, and the atom at 0 is measured, not a deficit
        out = str(tmp_path / "density.csv")
        assert run_cli(["density", "--profile", "ones", "--n", "64", "--N", "64",
                        "--xmax", "2", "-o", out]) == 0
        stdout = capsys.readouterr().out
        assert stdout.endswith(", atom 0.000000)\n")
        mass = float(stdout.split("(mass ")[1].split(",")[0])
        # the last midpoint is (sqrt(2) 181.5 / 182)^2 = 1.989, where the law holds 0.8166
        x_last = np.loadtxt(out, delimiter=",", skiprows=1, usecols=0)[-1]
        assert mass == pytest.approx(mp_cdf_c1(x_last), abs=1e-4)
        manifest = read_json(out + ".manifest.json")
        assert manifest["options"]["total_mass"] < 0.82
        assert manifest["options"]["atom_at_zero"] < 1e-6

    def test_one_point_grid_refused(self, tmp_path, monkeypatch, capsys):
        # one point integrates no density: a usage fault, not a stalled quadrature
        monkeypatch.chdir(tmp_path)
        assert run_cli(["density", "--profile", "ones", "--n", "8", "--N", "8",
                        "--points", "1"]) == 1
        assert "ValueError: x_grid must hold at least 2 points" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_manifest_trace_holds_the_level_records(self, tmp_path):
        # one solver record per eta level, under the unhashed trace
        args = ["density", "--profile", "iid_uniform:0,2", "--n", "12", "--N", "16",
                "--seed", "4"]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(args + ["-o", a]) == 0 and run_cli(args + ["-o", b]) == 0
        ma, mb = read_json(a + ".manifest.json"), read_json(b + ".manifest.json")
        levels = ma["trace"]["levels"]
        assert [lv["eta"] for lv in levels] == [1e-2, 5e-3, 2.5e-3]
        assert all(lv["unconverged"] == 0 and lv["rho_max"] < 1.0 for lv in levels)
        assert mb["trace"]["levels"] == levels
        assert "levels" not in ma["options"] and ma["config_hash"] == mb["config_hash"]

    def test_unread_generator_argument_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["density", "--profile", "constant:1,5", "--n", "16", "--N", "16"]) == 1
        assert "ValueError: profile generator 'constant:1,5'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag", [["--xmax", "nan"], ["--xmax", "inf"]])
    def test_nonfinite_grid_refused(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["density", "--profile", "iid_uniform:0,2", "--n", "8", "--N", "8"]
                       + flag) == 1
        assert "ValueError: xmax must be finite and positive" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_more_block_levels_than_rows_refused(self, tmp_path, monkeypatch, capsys):
        # array_split once gave the third level an empty band: block:1,2 in disguise
        monkeypatch.chdir(tmp_path)
        assert run_cli(["density", "--profile", "block:1,2,3", "--n", "2", "--N", "4"]) == 1
        assert "ValueError: profile generator 'block:1,2,3': 3 levels for 2 rows" in \
            capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_byte_identical_reruns(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        args = ["density", "--profile", "ones", "--n", "16", "--N", "16",
                "--xmax", "4.5", "--points", "31",
                "--eta", "2e-2,1e-2"]
        run_cli(args + ["-o", a])
        run_cli(args + ["-o", b])
        assert read_text(a) == read_text(b)
        ma = read_json(a + ".manifest.json")
        mb = read_json(b + ".manifest.json")
        assert ma["config_hash"] == mb["config_hash"]


class TestSolveCommand:
    def test_writes_records(self, tmp_path):
        out = str(tmp_path / "solve.csv")
        status = run_cli(["solve", "--profile", "ones", "--n", "4", "--N", "4",
                          "--z", "0+1i", "--z", "1+0.5i", "-o", out])
        assert status == 0
        lines = read_text(out).strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["x", "v"]
        assert "e0_re_3" in header and "e0_im_3" in header
        assert len(lines) == 3
        # every row carries its certificate
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["converged"] == "1"
            assert float(row["rho_C0"]) < 1.0
            assert float(row["identity_defect"]) <= 1e-9

    def test_negative_real_part_joined_with_equals(self, tmp_path):
        # a separate -0.5+2.5e-3i reads as an option; --z= keeps it a value
        out = str(tmp_path / "solve.csv")
        assert run_cli(["solve", "--profile", "ones", "--n", "4", "--N", "4",
                        "--z=-0.5+2.5e-3i", "-o", out]) == 0
        header, row = (line.split(",") for line in read_text(out).strip().splitlines())
        assert float(dict(zip(header, row))["x"]) == -0.5

    def test_far_point_is_solved_or_refused_in_one_line(self, tmp_path, monkeypatch, capsys):
        # Im G ~ Im z / |z|^2 underflows to 0 at 1e300 and is subnormal at 1e160
        monkeypatch.chdir(tmp_path)
        argv = ["solve", "--profile", "ones", "--n", "4", "--N", "4", "--z"]
        assert run_cli(argv + ["1e300+1i"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: z = (1e+300+1j): ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []
        assert run_cli(argv + ["1e160+1i"]) == 0

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--profile", "ones", "--n", "4", "--N", "4"])
        assert exc.value.code == 2
        assert "--z" in capsys.readouterr().err


class TestSimulateCommand:
    def test_trial_files_and_manifest(self, tmp_path):
        prefix = str(tmp_path / "spectra")
        status = run_cli(["simulate", "--profile", "ones", "--n", "8", "--N", "8",
                          "--family", "rademacher", "--trials", "2", "--seed", "9",
                          "-o", prefix])
        assert status == 0
        for t in range(2):
            atoms = [float(line) for line in read_text(f"{prefix}.trial{t}.csv").splitlines()]
            assert len(atoms) == 8
            assert atoms == sorted(atoms)
        manifest = read_json(prefix + ".manifest.json")
        assert manifest["options"]["family"] == "rademacher"
        assert manifest["options"]["seed"] == 9

    def test_seed_reproducibility(self, tmp_path):
        args = ["simulate", "--profile", "ones", "--n", "8", "--N", "8",
                "--family", "gaussian", "--trials", "1", "--seed", "3"]
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        run_cli(args + ["-o", a])
        run_cli(args + ["-o", b])
        assert read_text(a + ".trial0.csv") == read_text(b + ".trial0.csv")

    def test_degenerate_clip_refused(self, tmp_path, monkeypatch, capsys):
        # threshold 0.1 sqrt(16) = 0.4 clips both rademacher atoms
        monkeypatch.chdir(tmp_path)
        status = run_cli(["simulate", "--profile", "ones", "--n", "16", "--N", "16",
                          "--family", "rademacher", "--pipeline-eta", "0.1"])
        assert status == 1
        assert "clip level 0.4 leaves rademacher entries" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_nonpositive_pipeline_eta_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        status = run_cli(["simulate", "--profile", "ones", "--n", "4", "--N", "4",
                          "--pipeline-eta", "0"])
        assert status == 1
        assert "eta_n must be positive" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestCertifyTruncate:
    def test_truncate_plan_json(self, tmp_path):
        out = str(tmp_path / "plan.json")
        status = run_cli(["truncate", "--profile", "spiked:2,30", "--n", "16",
                          "--N", "16", "--epsilon", "0.25", "--seed", "4", "-o", out])
        assert status == 0
        rec = read_json(out)
        assert rec["epsilon"] == 0.25
        assert rec["M"] < 30.0
        assert len(rec["rows"]) + len(rec["cols"]) <= rec["budget"]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    # each command of the README's CLI block, run as written
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line.split("#")[0]) for line in block.replace("\\\n", " ").splitlines()]
    assert [line[1] for line in lines] == ["mp-check", "solve", "density", "density", "simulate",
                                           "compare", "truncate"]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert line[0] == "hadspec"
        assert run_cli(line[1:]) == 0, line


def test_readme_quick_tour_runs(tmp_path, monkeypatch):
    # the README's Python quick tour, run as written
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        tour = fh.read().split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    assert "hs.solve_grid" in code
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md quick tour", "exec"), {})


class ReadRecorder(argparse.Namespace):
    """A namespace that records the attributes read once recording is on.

    argparse reads every dest while it parses, so recording starts only
    after parse_args returns.
    """

    def __getattribute__(self, name):
        if not name.startswith("_") and object.__getattribute__(self, "__dict__").get("_on"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


# one representative argv per subcommand, each option given
EVERY_OPTION = {
    "solve": ["--profile", "iid_uniform:0,2", "--n", "4", "--N", "5", "--seed", "2",
              "--tol", "1e-11", "--max-iter", "500", "--z", "0.5+0.5i", "-o", "s.csv"],
    "density": ["--profile", "iid_uniform:0,2", "--n", "6", "--N", "6", "--seed", "2",
                "--tol", "1e-11", "--max-iter", "2000", "--xmax", "4",
                "--points", "21", "--eta", "2e-2", "-o", "d.csv"],
    "simulate": ["--profile", "iid_uniform:0,2", "--n", "6", "--N", "6", "--seed", "2",
                 "--family", "gaussian", "--trials", "1", "--complex", "--pipeline-eta", "0.5",
                 "-o", "spectra"],
    "compare": ["--generator", "constant", "--sizes", "8x8", "--family", "rademacher",
                "--trials", "1", "--epsilon", "0.25", "--complex", "--eta", "2e-2",
                "--seed", "2", "--tol", "1e-11", "--max-iter", "2000", "--jobs", "1",
                "-o", "report"],
    "truncate": ["--profile", "spiked:2,30", "--n", "8", "--N", "8", "--seed", "2",
                 "--epsilon", "0.25", "-o", "plan.json"],
    "mp-check": ["--c", "1", "--N", "16", "--z", "0+1i", "--tol", "1e-11", "--max-iter", "500"],
}


def declared_options(parser, command):
    return {action.dest for action in parser._subparsers._group_actions[0]
            .choices[command]._actions if action.dest != "help"}


@pytest.mark.parametrize("command", sorted(EVERY_OPTION))
def test_every_option_is_read(tmp_path, monkeypatch, command):
    # config is read by main, and compare's --jobs is accepted and has no effect
    parser = build_parser()
    declared = declared_options(parser, command)
    monkeypatch.chdir(tmp_path)
    ns = ReadRecorder(_read=set())
    parser.parse_args([command] + EVERY_OPTION[command], namespace=ns)
    ns._on = True
    assert ns.func(ns) == 0
    assert declared - {"config", "jobs"} - ns._read == set()


@pytest.mark.parametrize("command", sorted(set(EVERY_OPTION) - {"mp-check"}))
def test_manifest_records_every_option(tmp_path, monkeypatch, command):
    # options are the parsed options under their dest names, as JSON holds them
    parser = build_parser()
    declared = declared_options(parser, command)
    argv = [command] + EVERY_OPTION[command]
    parsed = vars(parser.parse_args(argv))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    options = read_json(parsed["out"] + ".manifest.json")["options"]
    recorded = declared - {"config", "out", "jobs"}
    assert {dest: options.get(dest) for dest in recorded} == {
        dest: json.loads(json.dumps(parsed[dest], default=str)) for dest in recorded}
    assert not {"config", "out", "jobs", "func", "command"} & set(options)


def test_atomic_write_cleans_up_after_a_failed_writer(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def fail(fh):
        fh.write("partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        atomic_write(str(target), fail)
    assert os.listdir(tmp_path) == ["out.csv"]
    assert target.read_text() == "old\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--profile", "ones", "--n", "4", "--N", "4", "--tol", "1e-9"],
    ["simulate", "--profile", "ones", "--n", "4", "--N", "4", "--max-iter", "10"],
    ["truncate", "--profile", "ones", "--n", "4", "--N", "4", "--tol", "1e-9"],
    ["truncate", "--profile", "ones", "--n", "4", "--N", "4", "--max-iter", "10"],
    ["mp-check", "--seed", "3"],
    ["mp-check", "-o", "out.csv"],
])
def test_removed_options_exit_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert os.listdir(tmp_path) == []


class TestCompareCommand:
    def test_small_compare(self, tmp_path, capsys):
        prefix = str(tmp_path / "report")
        status = run_cli(["compare", "--generator", "constant", "--sizes", "16x16",
                          "--family", "rademacher", "--trials", "2", "--seed", "1",
                          "--eta", "2e-2,1e-2,5e-3", "--jobs", "1", "-o", prefix])
        assert status == 0
        rows = read_text(prefix + ".csv").strip().splitlines()
        assert rows[0].startswith("n,N,trial")
        assert len(rows) == 3
        assert "median ks" in capsys.readouterr().out

    def test_failed_cells_exit_1_and_are_written(self, tmp_path, capsys):
        # one map application certifies no grid point, so every cell fails
        prefix = str(tmp_path / "report")
        assert run_cli(["compare", "--sizes", "8x8", "--trials", "3", "--max-iter", "1",
                        "-o", prefix]) == 1
        assert capsys.readouterr().err == "3 cells failed\n"
        rows = read_text(prefix + ".csv").strip().splitlines()[1:]
        assert len(rows) == 3
        assert all(",0,QuadratureStallError: " in row for row in rows)
        manifest = read_json(prefix + ".manifest.json")
        assert manifest["options"]["max_iter"] == 1
        assert manifest["options"]["medians"] == {} == manifest["options"]["curve_mass"]
        assert manifest["trace"]["cells"]["8x8"]["failed_stage"] == "invert"

    def test_unbuildable_size_fails_alone(self, tmp_path, capsys):
        # 0x8 has no rows; its cell fails at the plan stage, 8x8 still runs
        prefix = str(tmp_path / "report")
        assert run_cli(["compare", "--sizes=8x8,0x8", "--trials", "1", "-o", prefix]) == 1
        assert capsys.readouterr().err == "1 cells failed\n"
        with open(prefix + ".csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n"], r["N"]) for r in rows] == [("8", "8"), ("0", "8")]
        assert rows[0]["error"] == "" and rows[0]["trusted"] == "1"
        assert rows[1]["error"].startswith("EmptyMatrixError: ")
        cell = read_json(prefix + ".manifest.json")["trace"]["cells"]["0x8"]
        assert (cell["failed_stage"], cell["error_type"]) == ("plan", "EmptyMatrixError")

    @pytest.mark.parametrize("generator", ["fractal", "constant:1,5"])
    def test_bad_generator_fails_its_cells(self, tmp_path, capsys, generator):
        prefix = str(tmp_path / "report")
        assert run_cli(["compare", "--generator", generator, "--sizes", "8x8", "--trials", "1",
                        "-o", prefix]) == 1
        with open(prefix + ".csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["error"].startswith("ValueError: ")

    def test_repeated_size_refused(self, tmp_path, capsys):
        prefix = str(tmp_path / "report")
        assert run_cli(["compare", "--sizes=8x8,8x8", "--trials", "1", "-o", prefix]) == 1
        assert "size 8x8 is given twice" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCompareManifest:
    def test_identical_runs_share_config_hash(self, tmp_path):
        # wall times and curve reuse go to the unhashed trace block, not the options
        args = ["compare", "--generator", "constant", "--sizes", "16x16,24x24", "--trials", "2",
                "--seed", "1", "--jobs", "1"]
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(args + ["-o", a]) == 0
        assert run_cli(args + ["-o", b]) == 0
        ma, mb = read_json(a + ".manifest.json"), read_json(b + ".manifest.json")
        assert ma["config_hash"] == mb["config_hash"]
        assert "total_runtime_s" not in ma["options"] and "cells" not in ma["options"]
        assert ma["trace"]["total_runtime_s"] > 0
        assert ma["options"]["curve_mass"] == mb["options"]["curve_mass"]
        cells = ma["trace"]["cells"]
        assert cells["16x16"]["curve_reused_from"] is None
        assert cells["24x24"]["curve_reused_from"] == "16x16"   # a constant sweep inverts once
        for rec in cells.values():
            assert all(rec[k] >= 0 for k in ("plan_s", "invert_s", "simulate_s", "compare_s"))
        # each size's measured atom at 0: a square constant profile has none
        assert cells["16x16"]["atom_at_zero"] == cells["24x24"]["atom_at_zero"] < 1e-6
        # the inverting size carries one solver record per eta level; the reusing one none
        assert [lv["eta"] for lv in cells["16x16"]["levels"]] == [1e-2, 5e-3, 2.5e-3]
        assert mb["trace"]["cells"]["16x16"]["levels"] == cells["16x16"]["levels"]
        assert "levels" not in cells["24x24"]
        assert all("negative_mass" not in rec for rec in cells.values())


def config_matches_flags(tmp_path, command, keys, payload):
    """Run command with keys given as flags, then as a config file.

    Asserts that the two payloads are the same bytes; returns the options
    of the two manifests.
    """
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[run]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
    as_flags = [tok for k, v in keys.items() for tok in (f"--{k.replace('_', '-')}", v)]
    a, b = str(tmp_path / "flags"), str(tmp_path / "config")
    assert run_cli([command] + as_flags + ["-o", a]) == 0
    assert run_cli([command, "--config", str(cfg), "-o", b]) == 0
    assert read_text(payload(a)) == read_text(payload(b))
    return read_json(a + ".manifest.json")["options"], read_json(b + ".manifest.json")["options"]


class TestConfigAndEnv:
    def test_density_config_equals_flags(self, tmp_path):
        keys = {"profile": "iid_uniform:0,2", "n": "12", "N": "16", "seed": "5",
                "tol": "1e-11", "max_iter": "5000", "xmax": "5.0",
                "points": "31", "eta": "2e-2,1e-2"}
        flags, config = config_matches_flags(tmp_path, "density", keys, lambda out: out)
        assert flags == config
        assert config["eta"] == [2e-2, 1e-2] and config["points"] == 31
        assert config["profile"] == "iid_uniform:0,2" and config["seed"] == 5

    def test_compare_config_equals_flags(self, tmp_path):
        keys = {"generator": "iid_uniform:0.5,1.5", "sizes": "12x12,16x16", "seed": "4",
                "family": "gaussian", "trials": "2", "epsilon": "0.3", "jobs": "2",
                "tol": "1e-11", "max_iter": "5000", "eta": "2e-2,1e-2"}
        flags, config = config_matches_flags(tmp_path, "compare", keys, lambda out: out + ".csv")
        assert flags == config
        assert config["sizes"] == [[12, 12], [16, 16]] and config["family"] == "gaussian"

    def test_foreign_config_key_is_not_recorded(self, tmp_path):
        # truncate has no --trials or --generator: a shared config's keys for them are ignored
        cfg = tmp_path / "shared.ini"
        cfg.write_text("[run]\nseed = 7\ntrials = 4\ngenerator = block\n")
        argv = ["truncate", "--profile", "ones", "--n", "8", "--N", "8"]
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run_cli(argv + ["--config", str(cfg), "-o", a]) == 0
        assert run_cli(argv + ["--seed", "7", "-o", b]) == 0
        ma, mb = read_json(a + ".manifest.json"), read_json(b + ".manifest.json")
        assert ma["options"] == mb["options"] and ma["config_hash"] == mb["config_hash"]
        assert ma["options"]["seed"] == 7 and "trials" not in ma["options"]

    def test_config_run_builds_the_parser_once(self, tmp_path, monkeypatch):
        # the config's defaults go on the parser already built, which parses again
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        cfg = tmp_path / "mp.ini"
        cfg.write_text("[mp]\nc = 0.5\nN = 32\n")
        assert run_cli(["mp-check", "--z", "1+0.5i", "--config", str(cfg)]) == 0
        assert len(built) == 1

    def test_mp_check_reads_c_and_N(self, tmp_path, capsys):
        cfg = tmp_path / "mp.ini"
        cfg.write_text("[mp]\nc = 0.5\nN = 32\n")
        assert run_cli(["mp-check", "--z", "1+0.5i", "--config", str(cfg)]) == 0
        cfg.write_text("[mp]\nc = 0.33\nN = 10\n")
        assert run_cli(["mp-check", "--config", str(cfg)]) == 2
        assert "--c 0.33 with --N 10" in capsys.readouterr().err

    def test_malformed_config_value_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\ntrials = x\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--profile", "ones", "--n", "4", "--N", "4",
                  "--config", str(cfg)])
        assert exc.value.code == 2

    def test_config_merged_under_flags(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[run]\nseed = 7\n\n[profile]\nn = 8\nN = 8\n")
        out = str(tmp_path / "a")
        status = run_cli(["simulate", "--profile", "ones", "--family", "rademacher",
                          "--trials", "1", "--config", str(cfg), "-o", out])
        assert status == 0
        manifest = read_json(out + ".manifest.json")
        assert manifest["options"]["seed"] == 7
        assert manifest["options"]["n"] == 8

    def test_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[run]\nseed = 7\n")
        out = str(tmp_path / "b")
        run_cli(["simulate", "--profile", "ones", "--n", "8", "--N", "8",
                 "--family", "rademacher", "--trials", "1",
                 "--seed", "11", "--config", str(cfg), "-o", out])
        manifest = read_json(out + ".manifest.json")
        assert manifest["options"]["seed"] == 11

    def test_env_seed_overrides_all(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HS_SEED", "99")
        out = str(tmp_path / "c")
        run_cli(["simulate", "--profile", "ones", "--n", "8", "--N", "8",
                 "--family", "rademacher", "--trials", "1", "--seed", "11", "-o", out])
        manifest = read_json(out + ".manifest.json")
        assert manifest["options"]["seed"] == 99

    def test_malformed_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HS_SEED", "abc")
        monkeypatch.chdir(tmp_path)
        assert run_cli(["simulate", "--profile", "ones", "--n", "4", "--N", "4"]) == 2
        assert capsys.readouterr().err == "usage error: HS_SEED='abc' is not an integer\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["density", "compare"])
    @pytest.mark.parametrize("eta, rule", [("1e-3,1e-2", "strictly descending"),
                                           ("-1", "positive, finite"),
                                           ("abc", "could not convert")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_invalid_eta_schedule_exits_2(self, tmp_path, monkeypatch, capsys,
                                          command, eta, rule, source):
        monkeypatch.chdir(tmp_path)
        argv = [command] + (["--profile", "ones", "--n", "4", "--N", "4"]
                            if command == "density" else ["--sizes", "4x4"])
        if source == "flag":
            argv += ["--eta", eta]
        else:
            (tmp_path / "eta.ini").write_text(f"[run]\neta = {eta}\n")
            argv += ["--config", "eta.ini"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert rule in capsys.readouterr().err.splitlines()[-1]
        assert os.listdir(tmp_path) == ([] if source == "flag" else ["eta.ini"])

    @pytest.mark.parametrize("text", ["seed = 3\n",                       # no [section]
                                      "[run]\nseed = 3\n[run]\nseed = 4\n",  # section twice
                                      "[run]\nseed 3\n"])                  # no '='
    def test_unparsable_config_is_usage_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert run_cli(["mp-check", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --config {cfg}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_config_is_usage_error(self, capsys):
        status = run_cli(["simulate", "--profile", "ones", "--n", "4", "--N", "4",
                          "--config", "/nonexistent.ini"])
        assert status == 2

    def test_profile_csv_round_trip(self, tmp_path):
        # a CSV profile solves to the same bytes as the generator it was written from
        entries = make_profile("iid_uniform:0,2", 5, 7, seed=3).entries
        csv_path = str(tmp_path / "prof.csv")
        np.savetxt(csv_path, entries, fmt="%.17g", delimiter=",")
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["solve", "--z", "0.5+0.5i", "--z", "1+0.01i"]
        assert run_cli(args + ["--profile", csv_path, "-o", a]) == 0
        assert run_cli(args + ["--profile", "iid_uniform:0,2", "--n", "5", "--N", "7",
                               "--seed", "3", "-o", b]) == 0
        assert read_text(a) == read_text(b)
        assert read_json(a + ".manifest.json")["options"]["N"] == 7
