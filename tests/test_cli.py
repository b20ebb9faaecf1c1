import json
import os

import numpy as np
import pytest

from hadspec.cli import main, parse_sizes, parse_z


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


class TestDensityCommand:
    def test_csv_mass_in_window(self, tmp_path, capsys):
        out = str(tmp_path / "density.csv")
        status = run_cli(["density", "--profile", "ones", "--n", "128", "--N", "128",
                          "--xmin", "-0.5", "--xmax", "4.5", "-o", out])
        assert status == 0
        rows = read_text(out).strip().splitlines()
        assert rows[0] == "x,density,cdf,eta_used"
        final_cdf = float(rows[-1].split(",")[2])
        assert 0.99 <= final_cdf <= 1.01
        manifest = read_json(out + ".manifest.json")
        assert manifest["command"] == "density"
        assert manifest["outputs"] == [out]

    def test_no_partial_files_left(self, tmp_path):
        out = str(tmp_path / "density.csv")
        run_cli(["density", "--profile", "ones", "--n", "16", "--N", "16",
                 "--xmin", "-0.5", "--xmax", "4.5", "--points", "31",
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

    def test_byte_identical_reruns(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        args = ["density", "--profile", "ones", "--n", "16", "--N", "16",
                "--xmin", "-0.5", "--xmax", "4.5", "--points", "31",
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


class TestCertifyTruncate:
    def test_certify_json(self, tmp_path):
        out = str(tmp_path / "cert.json")
        status = run_cli(["certify", "--profile", "ones", "--n", "8", "--N", "8",
                          "--z", "0.5+0.5i", "-o", out])
        assert status == 0
        rec = read_json(out)
        assert rec["converged"] is True
        assert rec["rho_C0"] < 1.0
        assert rec["identity_defect"] <= 1e-9

    def test_certify_reports_rho_bound(self, tmp_path):
        # the README's certify example: the power estimate lies under the
        # bound; on this one-column profile the two agree up to rounding
        out = str(tmp_path / "cert.json")
        status = run_cli(["certify", "--profile", "ones", "--n", "32", "--N", "32",
                          "--z", "0.5+0.5i", "-o", out])
        assert status == 0
        rec = read_json(out)
        assert rec["rho_power"] <= rec["rho_C0"] * (1 + 1e-12)
        assert rec["rho_C0"] == pytest.approx(rec["rho_power"], rel=1e-12)
        assert rec["rho_C0"] < 1.0
        assert rec["power_stalled"] is False

    def test_certify_rho_is_the_solve_bound(self, tmp_path):
        # rho_C0 names one figure: the bound solve writes, not the power
        # estimate (0.594 against 0.742 on this profile)
        args = ["--profile", "spiked:6,20", "--n", "48", "--N", "48", "--seed", "3",
                "--z", "0.5+0.5i"]
        solve_out, cert_out = str(tmp_path / "solve.csv"), str(tmp_path / "cert.json")
        assert run_cli(["solve"] + args + ["-o", solve_out]) == 0
        assert run_cli(["certify"] + args + ["-o", cert_out]) == 0
        header, row = (line.split(",") for line in read_text(solve_out).splitlines())
        rec = read_json(cert_out)
        assert float(row[header.index("rho_C0")]) == rec["rho_C0"]
        assert rec["rho_power"] < rec["rho_C0"] - 0.1

    def test_truncate_plan_json(self, tmp_path):
        out = str(tmp_path / "plan.json")
        status = run_cli(["truncate", "--profile", "spiked:2,30", "--n", "16",
                          "--N", "16", "--epsilon", "0.25", "--seed", "4", "-o", out])
        assert status == 0
        rec = read_json(out)
        assert rec["epsilon"] == 0.25
        assert rec["M"] < 30.0
        assert len(rec["rows"]) + len(rec["cols"]) <= rec["budget"]


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
                "tol": "1e-11", "max_iter": "5000", "xmin": "-0.4", "xmax": "5.0",
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
        from hadspec import validate_profile
        p = validate_profile(np.ones((4, 4)))
        csv_path = str(tmp_path / "prof.csv")
        p.to_csv(csv_path)
        out = str(tmp_path / "cert.json")
        status = run_cli(["certify", "--profile", csv_path, "--z", "0+1i", "-o", out])
        assert status == 0
        assert read_json(out)["n"] == 4
