"""Command-line surface: batch solves, density export, simulation, comparison.

Every file-writing command writes atomically (temp file + rename) and drops
a JSON manifest next to each output recording the resolved options, their
hash, the seed, and the package version.  Identical argv + config produce
byte-identical CSV payloads; manifests differ at most in their timestamp.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import tempfile
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .core import SpectralPoint, WeightProfile, ZGrid
from .experiments import ExperimentSpec, default_xmax, make_profile, run_experiment
from .fixed_point import SolverConfig, build_certificate, solve_e0, solve_grid
from .random_spectra import EntrySampler, FAMILIES, TruncationPipelineConfig, empirical_spectrum
from .stieltjes import DEFAULT_ETAS, InversionConfig, density_curve, edge_refined_grid
from .tightness import plan_truncation

SEED_ENV = "HS_SEED"


class UsageError(Exception):
    """Bad invocation detected after argparse; exits with status 2."""


# ---------------------------------------------------------------------------
# small parsers and IO helpers
# ---------------------------------------------------------------------------

def parse_z(text: str) -> complex:
    """Parse 'x+vi' with v > 0, e.g. 0+1i, -0.5+2.5e-3i."""
    try:
        z = complex(text.replace("i", "j").replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as x+vi") from exc
    if not z.imag > 0:
        raise argparse.ArgumentTypeError(f"{text!r} must have positive imaginary part")
    return z


def parse_sizes(text: str):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        n, _, N = tok.partition("x")
        out.append((int(n), int(N)))
    if not out:
        raise argparse.ArgumentTypeError("no sizes given")
    return tuple(out)


def parse_floats(text: str):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def atomic_write(path: str, writer) -> None:
    """Write via temp file + rename so interrupted runs leave no partial files."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(path: str, command: str, options: dict, outputs) -> None:
    canonical = json.dumps(options, sort_keys=True, default=str)
    manifest = {
        "command": command,
        "options": options,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "outputs": list(outputs),
    }
    atomic_write(path, lambda fh: json.dump(manifest, fh, indent=2, sort_keys=True, default=str))


def _fmt(x: float) -> str:
    return "%.17g" % x


# ---------------------------------------------------------------------------
# option resolution: explicit flag > config file > built-in default
# ---------------------------------------------------------------------------

def load_config(path: str | None) -> dict:
    if not path:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"--config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep case: n and N are distinct keys
    parser.read(path)
    flat: dict = {}
    for section in parser.sections():
        flat.update(dict(parser.items(section)))
    return flat


def resolve(args, config: dict, key: str, default, cast, config_key: str | None = None):
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    ck = config_key or key
    if ck in config:
        return cast(config[ck])
    return default


def resolve_seed(args, config: dict) -> int:
    if os.environ.get(SEED_ENV):
        return int(os.environ[SEED_ENV])
    return resolve(args, config, "seed", 0, int)


def load_profile(args, config: dict, seed: int) -> WeightProfile:
    spec = resolve(args, config, "profile", None, str)
    if spec is None:
        raise UsageError("missing --profile (generator spec or CSV path)")
    if os.path.exists(spec) or spec.endswith(".csv"):
        return WeightProfile.from_csv(spec)
    n = resolve(args, config, "n", None, int)
    N = resolve(args, config, "bign", None, int, config_key="N")
    if n is None or N is None:
        raise UsageError("generator profiles need --n and --N")
    return make_profile(spec, int(n), int(N), seed)


def solver_from(args, config: dict) -> SolverConfig:
    default = SolverConfig()
    return SolverConfig(
        tol=float(resolve(args, config, "tol", default.tol, float)),
        max_iter=int(resolve(args, config, "max_iter", default.max_iter, int)),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(args, config) -> int:
    seed = resolve_seed(args, config)
    profile = load_profile(args, config, seed)
    cfg = solver_from(args, config)
    pts = sorted(args.z, key=lambda z: (z.real, -z.imag))
    grid = ZGrid(tuple(SpectralPoint(z.real, z.imag) for z in pts))
    sols = solve_grid(profile, grid, cfg)
    out = args.out or "solve.csv"

    def write(fh):
        records = [s.to_record() for s in sols]
        head = []
        for key, val in records[0].items():
            head += [f"{key}_{k}" for k in range(len(val))] if isinstance(val, list) else [key]
        fh.write(",".join(head) + "\n")
        for record in records:
            row = []
            for val in record.values():
                if isinstance(val, list):
                    row += [_fmt(x) for x in val]
                else:
                    # integers (iterations) and flags (converged) print as integers
                    row.append(str(int(val)) if isinstance(val, int) else _fmt(val))
            fh.write(",".join(row) + "\n")

    atomic_write(out, write)
    options = {"profile": args.profile, "n": profile.n, "N": profile.N, "seed": seed,
               "z": [str(z) for z in pts], "tol": cfg.tol, "max_iter": cfg.max_iter}
    write_manifest(out + ".manifest.json", "solve", options, [out])
    print(f"wrote {out} ({len(sols)} points, "
          f"{sum(s.converged for s in sols)} converged)")
    return 0 if all(s.converged for s in sols) else 1


def cmd_density(args, config) -> int:
    seed = resolve_seed(args, config)
    profile = load_profile(args, config, seed)
    scfg = solver_from(args, config)
    xmin = float(resolve(args, config, "xmin", -0.5, float))
    xmax = float(resolve(args, config, "xmax", None, float) or default_xmax(profile))
    points = int(resolve(args, config, "points", 141, int))
    etas = args.eta or parse_floats(config.get("eta", "")) or DEFAULT_ETAS
    grid = edge_refined_grid(xmin, xmax, n_uniform=points,
                             width=min(0.25 * (xmax - xmin), 0.3))
    cfg = InversionConfig(x_grid=grid, eta_sequence=tuple(etas))
    curve = density_curve(profile, cfg, scfg)
    out = args.out or "density.csv"
    atomic_write(out, curve.write_csv)
    options = {"profile": args.profile, "n": profile.n, "N": profile.N, "seed": seed,
               "xmin": xmin, "xmax": xmax, "points": points, "eta": list(etas),
               "atom_at_zero": curve.atom_at_zero, "total_mass": curve.total_mass,
               "partial": curve.partial}
    write_manifest(out + ".manifest.json", "density", options, [out])
    print(f"wrote {out} (mass {curve.total_mass:.6f}, atom {curve.atom_at_zero:.6f})")
    return 1 if curve.partial else 0


def cmd_simulate(args, config) -> int:
    seed = resolve_seed(args, config)
    profile = load_profile(args, config, seed)
    family = resolve(args, config, "family", "rademacher", str)
    trials = int(resolve(args, config, "trials", 1, int))
    sampler = EntrySampler(family=family, seed=seed, complex_entries=bool(args.complex))
    pipeline = None
    if args.pipeline_eta is not None:
        pipeline = TruncationPipelineConfig(eta_n=args.pipeline_eta)
    spectra = empirical_spectrum(profile, sampler, pipeline, trials, seed=seed)
    prefix = args.out or "spectra"
    outputs = []
    for t, dist in enumerate(spectra):
        path = f"{prefix}.trial{t}.csv"
        atomic_write(path, lambda fh, d=dist: fh.writelines(_fmt(x) + "\n" for x in d.atoms))
        outputs.append(path)
    options = {"profile": args.profile, "n": profile.n, "N": profile.N,
               "family": family, "seed": seed, "trials": trials,
               "complex_entries": bool(args.complex),
               "pipeline_eta": args.pipeline_eta}
    write_manifest(prefix + ".manifest.json", "simulate", options, outputs)
    print(f"wrote {len(outputs)} spectra under {prefix}.*")
    return 0


def cmd_compare(args, config) -> int:
    seed = resolve_seed(args, config)
    generator = resolve(args, config, "generator", "constant", str)
    sizes = args.sizes or (parse_sizes(config["sizes"]) if "sizes" in config else ((64, 64),))
    family = resolve(args, config, "family", "rademacher", str)
    trials = int(resolve(args, config, "trials", 3, int))
    epsilon = float(resolve(args, config, "epsilon", 0.25, float))
    jobs = int(resolve(args, config, "jobs", 0, int)) or (os.cpu_count() or 1)
    etas = args.eta or parse_floats(config.get("eta", "")) or DEFAULT_ETAS
    spec = ExperimentSpec(
        profile_generator=generator, sizes=sizes,
        sampler=EntrySampler(family=family, seed=seed, complex_entries=bool(args.complex)),
        epsilon=epsilon, trials=trials, master_seed=seed,
        eta_sequence=tuple(etas), solver=solver_from(args, config),
    )
    report = run_experiment(spec, workers=jobs)
    prefix = args.out or "report"
    csv_path = prefix + ".csv"
    atomic_write(csv_path, report.write_csv)
    manifest = report.to_manifest()
    write_manifest(prefix + ".manifest.json", "compare", manifest, [csv_path])
    for (n, N), med in report.medians.items():
        print(f"{n}x{N}: median ks={med['ks']:.4f} d={med['d_value']:.6f}")
    failures = [r for r in report.rows if r.error]
    if failures:
        print(f"{len(failures)} cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_certify(args, config) -> int:
    seed = resolve_seed(args, config)
    profile = load_profile(args, config, seed)
    cfg = solver_from(args, config)
    z = args.z[0] if args.z else complex(0, 1)
    sol = solve_e0(profile, z, cfg)
    diag = build_certificate(profile, sol)
    record = {
        "x": z.real, "v": z.imag, "n": profile.n, "N": profile.N,
        "residual": sol.residual, "iterations": sol.iterations,
        "converged": sol.converged, "rho_C0": sol.rho_C0, "rho_power": diag.rho,
        "identity_defect": diag.identity_defect, "power_stalled": diag.power_stalled,
    }
    if args.full:
        record["C0"] = diag.C0.tolist()
        record["b0"] = diag.b0.tolist()
        record["e2"] = diag.e2.tolist()
    out = args.out or "certificate.json"
    atomic_write(out, lambda fh: json.dump(record, fh, indent=2, sort_keys=True))
    options = {"profile": args.profile, "n": profile.n, "N": profile.N,
               "seed": seed, "z": str(z), "tol": cfg.tol}
    write_manifest(out + ".manifest.json", "certify", options, [out])
    print(f"rho_C0={sol.rho_C0:.6g} rho_power={diag.rho:.6g} "
          f"identity_defect={diag.identity_defect:.3g} residual={sol.residual:.3g}")
    return 0 if sol.converged else 1


def cmd_truncate(args, config) -> int:
    seed = resolve_seed(args, config)
    profile = load_profile(args, config, seed)
    epsilon = float(resolve(args, config, "epsilon", 0.25, float))
    plan = plan_truncation(profile, epsilon)
    out = args.out or "plan.json"
    atomic_write(out, lambda fh: json.dump(plan.to_record(), fh, indent=2, sort_keys=True))
    options = {"profile": args.profile, "n": profile.n, "N": profile.N,
               "seed": seed, "epsilon": epsilon}
    write_manifest(out + ".manifest.json", "truncate", options, [out])
    print(f"M={plan.M:.6g} rows={list(plan.rows_removed)} cols={list(plan.cols_removed)}")
    return 0


def _mp_root(z: complex, c: float) -> complex:
    disc = np.sqrt(complex(z + c - 1) ** 2 - 4 * c * z)
    r1 = (-(z + c - 1) + disc) / (2 * c * z)
    r2 = (-(z + c - 1) - disc) / (2 * c * z)
    return r1 if r1.imag > 0 else r2


def cmd_mp_check(args, config) -> int:
    c = float(resolve(args, config, "c", 1.0, float))
    N = int(resolve(args, config, "bign", 64, int, config_key="N"))
    n = c * N
    if abs(n - round(n)) > 1e-9:
        raise UsageError(f"--c {c} with --N {N} gives non-integer n = c*N")
    profile = make_profile("ones", int(round(n)), N, 0)
    cfg = solver_from(args, config)
    zs = args.z or [complex(0, 1)]
    worst = 0.0
    for z in zs:
        sol = solve_e0(profile, z, cfg)
        oracle = _mp_root(z, c)
        diff = abs(sol.g - oracle)
        worst = max(worst, diff)
        print(f"z={z}: solver G={sol.g:.12g} closed-form={oracle:.12g} |diff|={diff:.3g}")
    print(f"max |diff| = {worst:.3g}")
    return 0 if worst <= 1e-10 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hadspec",
        description="Deterministic-equivalent spectra for Hadamard-weighted covariance matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, profile=True):
        p.add_argument("--config", help="INI config file merged under explicit flags")
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (env {SEED_ENV} overrides)")
        p.add_argument("--tol", type=float, default=None, help="solver residual target")
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        p.add_argument("-o", "--out", default=None, help="output path or prefix")
        if profile:
            p.add_argument("--profile", default=None,
                           help="generator spec (ones, constant:v, block:..., iid_uniform:lo,hi, spiked:k,h) or CSV path")
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--N", dest="bign", type=int, default=None)

    p = sub.add_parser("solve", help="solve e0 on a z grid, export records")
    common(p)
    p.add_argument("--z", type=parse_z, action="append", required=True,
                   help="evaluation point x+vi (repeatable)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("density", help="invert G into a density/CDF CSV")
    common(p)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--eta", type=parse_floats, default=None,
                   help="descending eta schedule, comma separated")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("simulate", help="sample random spectra to CSV")
    common(p)
    p.add_argument("--family", choices=FAMILIES, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--complex", action="store_true")
    p.add_argument("--pipeline-eta", dest="pipeline_eta", type=float, default=None,
                   help="apply the truncation pipeline with this eta_n")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="simulate vs deterministic equivalent, full report")
    common(p, profile=False)
    p.add_argument("--generator", default=None)
    p.add_argument("--sizes", type=parse_sizes, default=None, help="e.g. 64x64,128x256")
    p.add_argument("--family", choices=FAMILIES, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--complex", action="store_true")
    p.add_argument("--eta", type=parse_floats, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("certify", help="contraction certificate at one point")
    common(p)
    p.add_argument("--z", type=parse_z, action="append")
    p.add_argument("--full", action="store_true", help="include C0, b0, e2 in the JSON")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("truncate", help="plan exceptional-line removal")
    common(p)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("mp-check", help="solver vs closed-form quadratic root")
    common(p, profile=False)
    p.add_argument("--c", type=float, default=None, help="aspect ratio n/N")
    p.add_argument("--N", dest="bign", type=int, default=None,
                   help="columns of the all-ones instance (n = c*N)")
    p.add_argument("--z", type=parse_z, action="append")
    p.set_defaults(func=cmd_mp_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
