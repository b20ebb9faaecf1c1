"""Command-line surface: batch solves, density export, simulation, comparison.

build_parser declares every option once, with its default.  A --config file
replaces those defaults (main parses argv a second time), so an explicit
flag beats the config file, which beats the built-in default; HS_SEED
overrides the seed from any source.

Every file-writing command writes atomically (temp file + rename) and drops
a JSON manifest next to each output recording the resolved options, their
hash, the seed, and the package version.  Identical argv + config produce
byte-identical CSV payloads and the same config_hash; manifests differ at
most in their timestamp and their trace block (compare's stage wall times).
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


def write_manifest(path: str, command: str, options: dict, outputs, trace=None) -> None:
    """options are hashed into config_hash; created and trace (run records) are not."""
    canonical = json.dumps(options, sort_keys=True, default=str)
    manifest = {
        "command": command,
        "options": options,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "trace": trace,
        "outputs": list(outputs),
    }
    atomic_write(path, lambda fh: json.dump(manifest, fh, indent=2, sort_keys=True, default=str))


def _fmt(x: float) -> str:
    return "%.17g" % x


# ---------------------------------------------------------------------------
# config files: values become the subcommand's defaults, under explicit flags
# ---------------------------------------------------------------------------

# the keys a config file may set; each names the dest of an option
CONFIG_KEYS = frozenset(("seed", "jobs", "tol", "max_iter", "n", "N", "profile", "family",
                         "trials", "epsilon", "generator", "sizes", "xmin", "xmax", "points",
                         "eta", "c"))


def load_config(path: str) -> dict:
    """Flat key -> string map of an INI file, restricted to CONFIG_KEYS.

    A missing or unparsable file is a usage error.
    """
    if not os.path.exists(path):
        raise UsageError(f"--config file not found: {path}")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep case: n and N are distinct keys
    try:
        parser.read(path)
    except configparser.Error as exc:
        # configparser's messages span lines; the usage error is one
        raise UsageError(f"--config {path}: {' '.join(str(exc).split())}") from exc
    flat: dict = {}
    for section in parser.sections():
        flat.update(dict(parser.items(section)))
    return {key: val for key, val in flat.items() if key in CONFIG_KEYS}


def load_profile(args) -> WeightProfile:
    spec = args.profile
    if spec is None:
        raise UsageError("missing --profile (generator spec or CSV path)")
    if os.path.exists(spec) or spec.endswith(".csv"):
        return WeightProfile.from_csv(spec)
    if args.n is None or args.N is None:
        raise UsageError("generator profiles need --n and --N")
    return make_profile(spec, args.n, args.N, args.seed)


def solver_from(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iter=args.max_iter)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    profile = load_profile(args)
    cfg = solver_from(args)
    pts = sorted(args.z, key=lambda z: (z.real, -z.imag))
    grid = ZGrid(tuple(SpectralPoint(z.real, z.imag) for z in pts))
    sols = solve_grid(profile, grid, cfg)

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

    atomic_write(args.out, write)
    options = {"profile": args.profile, "n": profile.n, "N": profile.N, "seed": args.seed,
               "z": [str(z) for z in pts], "tol": cfg.tol, "max_iter": cfg.max_iter}
    write_manifest(args.out + ".manifest.json", "solve", options, [args.out])
    print(f"wrote {args.out} ({len(sols)} points, "
          f"{sum(s.converged for s in sols)} converged)")
    return 0 if all(s.converged for s in sols) else 1


def cmd_density(args) -> int:
    profile = load_profile(args)
    xmax = args.xmax or default_xmax(profile)
    grid = edge_refined_grid(args.xmin, xmax, n_uniform=args.points,
                             width=min(0.25 * (xmax - args.xmin), 0.3))
    cfg = InversionConfig(x_grid=grid, eta_sequence=args.eta)
    curve = density_curve(profile, cfg, solver_from(args))
    atomic_write(args.out, curve.write_csv)
    options = {"profile": args.profile, "n": profile.n, "N": profile.N, "seed": args.seed,
               "xmin": args.xmin, "xmax": xmax, "points": args.points, "eta": list(args.eta),
               "atom_at_zero": curve.atom_at_zero, "total_mass": curve.total_mass,
               "partial": curve.partial}
    write_manifest(args.out + ".manifest.json", "density", options, [args.out])
    print(f"wrote {args.out} (mass {curve.total_mass:.6f}, atom {curve.atom_at_zero:.6f})")
    return 1 if curve.partial else 0


def cmd_simulate(args) -> int:
    profile = load_profile(args)
    sampler = EntrySampler(family=args.family, complex_entries=args.complex)
    pipeline = None
    if args.pipeline_eta is not None:
        pipeline = TruncationPipelineConfig(eta_n=args.pipeline_eta)
    spectra = empirical_spectrum(profile, sampler, pipeline, args.trials, seed=args.seed)
    outputs = []
    for t, dist in enumerate(spectra):
        path = f"{args.out}.trial{t}.csv"
        atomic_write(path, lambda fh, d=dist: fh.writelines(_fmt(x) + "\n" for x in d.atoms))
        outputs.append(path)
    options = {"profile": args.profile, "n": profile.n, "N": profile.N,
               "family": args.family, "seed": args.seed, "trials": args.trials,
               "complex_entries": args.complex,
               "pipeline_eta": args.pipeline_eta}
    write_manifest(args.out + ".manifest.json", "simulate", options, outputs)
    print(f"wrote {len(outputs)} spectra under {args.out}.*")
    return 0


def cmd_compare(args) -> int:
    spec = ExperimentSpec(
        profile_generator=args.generator, sizes=args.sizes,
        sampler=EntrySampler(family=args.family, complex_entries=args.complex),
        epsilon=args.epsilon, trials=args.trials, master_seed=args.seed,
        eta_sequence=args.eta, solver=solver_from(args),
    )
    report = run_experiment(spec)
    csv_path = args.out + ".csv"
    atomic_write(csv_path, report.write_csv)
    write_manifest(args.out + ".manifest.json", "compare", report.to_manifest(), [csv_path],
                   trace=report.to_trace())
    for (n, N), med in report.medians.items():
        print(f"{n}x{N}: median ks={med['ks']:.4f} d={med['d_value']:.6f}")
    failures = [r for r in report.rows if r.error]
    if failures:
        print(f"{len(failures)} cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_certify(args) -> int:
    profile = load_profile(args)
    cfg = solver_from(args)
    z = args.z
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
    atomic_write(args.out, lambda fh: json.dump(record, fh, indent=2, sort_keys=True))
    options = {"profile": args.profile, "n": profile.n, "N": profile.N,
               "seed": args.seed, "z": str(z), "tol": cfg.tol}
    write_manifest(args.out + ".manifest.json", "certify", options, [args.out])
    print(f"rho_C0={sol.rho_C0:.6g} rho_power={diag.rho:.6g} "
          f"identity_defect={diag.identity_defect:.3g} residual={sol.residual:.3g}")
    return 0 if sol.converged else 1


def cmd_truncate(args) -> int:
    profile = load_profile(args)
    plan = plan_truncation(profile, args.epsilon)
    atomic_write(args.out, lambda fh: json.dump(plan.to_record(), fh, indent=2, sort_keys=True))
    options = {"profile": args.profile, "n": profile.n, "N": profile.N,
               "seed": args.seed, "epsilon": args.epsilon}
    write_manifest(args.out + ".manifest.json", "truncate", options, [args.out])
    print(f"M={plan.M:.6g} rows={list(plan.rows_removed)} cols={list(plan.cols_removed)}")
    return 0


def _mp_root(z: complex, c: float) -> complex:
    disc = np.sqrt(complex(z + c - 1) ** 2 - 4 * c * z)
    r1 = (-(z + c - 1) + disc) / (2 * c * z)
    r2 = (-(z + c - 1) - disc) / (2 * c * z)
    return r1 if r1.imag > 0 else r2


def cmd_mp_check(args) -> int:
    c, N = args.c, args.N
    n = c * N
    if abs(n - round(n)) > 1e-9:
        raise UsageError(f"--c {c} with --N {N} gives non-integer n = c*N")
    profile = make_profile("ones", int(round(n)), N, 0)
    cfg = solver_from(args)
    # an appended option extends its default, so the fallback point lives here
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

def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The one declaration of every option and its default.

    config (from load_config) replaces the defaults of the options it names;
    argparse converts a string default through the option's type, just as it
    converts a flag's value.
    """
    parser = argparse.ArgumentParser(
        prog="hadspec",
        description="Deterministic-equivalent spectra for Hadamard-weighted covariance matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    solver = SolverConfig()

    def common(p, out, profile=True):
        p.add_argument("--config", help="INI config file merged under explicit flags")
        p.add_argument("--seed", type=int, default=0,
                       help=f"master seed (env {SEED_ENV} overrides)")
        p.add_argument("--tol", type=float, default=solver.tol, help="solver residual target")
        p.add_argument("--max-iter", dest="max_iter", type=int, default=solver.max_iter)
        p.add_argument("-o", "--out", default=out, help="output path or prefix")
        if profile:
            p.add_argument("--profile",
                           help="generator spec (ones, constant:v, block:..., iid_uniform:lo,hi, spiked:k,h) or CSV path")
            p.add_argument("--n", type=int)
            p.add_argument("--N", type=int)

    p = sub.add_parser("solve", help="solve e0 on a z grid, export records")
    common(p, "solve.csv")
    p.add_argument("--z", type=parse_z, action="append", required=True,
                   help="evaluation point x+vi (repeatable)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("density", help="invert G into a density/CDF CSV")
    common(p, "density.csv")
    p.add_argument("--xmin", type=float, default=-0.5)
    p.add_argument("--xmax", type=float, help="default: 1.25 x the spectral-edge bound + 0.1")
    p.add_argument("--points", type=int, default=141)
    p.add_argument("--eta", type=parse_floats, default=DEFAULT_ETAS,
                   help="descending eta schedule, comma separated")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("simulate", help="sample random spectra to CSV")
    common(p, "spectra")
    p.add_argument("--family", choices=FAMILIES, default="rademacher")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--complex", action="store_true")
    p.add_argument("--pipeline-eta", dest="pipeline_eta", type=float,
                   help="apply the truncation pipeline with this eta_n")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="simulate vs deterministic equivalent, full report")
    common(p, "report", profile=False)
    p.add_argument("--generator", default="constant")
    p.add_argument("--sizes", type=parse_sizes, default="64x64", help="e.g. 64x64,128x256")
    p.add_argument("--family", choices=FAMILIES, default="rademacher")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--complex", action="store_true")
    p.add_argument("--eta", type=parse_floats, default=DEFAULT_ETAS)
    p.add_argument("--jobs", type=int, help="accepted for old command lines; has no effect")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("certify", help="contraction certificate at one point")
    common(p, "certificate.json")
    p.add_argument("--z", type=parse_z, default="0+1i")
    p.add_argument("--full", action="store_true", help="include C0, b0, e2 in the JSON")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("truncate", help="plan exceptional-line removal")
    common(p, "plan.json")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("mp-check", help="solver vs closed-form quadratic root")
    common(p, None, profile=False)
    p.add_argument("--c", type=float, default=1.0, help="aspect ratio n/N")
    p.add_argument("--N", type=int, default=64,
                   help="columns of the all-ones instance (n = c*N)")
    p.add_argument("--z", type=parse_z, action="append")
    p.set_defaults(func=cmd_mp_check)

    for p in sub.choices.values():
        p.set_defaults(**(config or {}))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(load_config(args.config)).parse_args(argv)
        if os.environ.get(SEED_ENV):
            args.seed = int(os.environ[SEED_ENV])
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
