"""Command-line surface: batch solves, density export, simulation, comparison.

solve writes each point's certificate (rho_C0, identity_defect, converged)
with its solution; density inverts on compare's grid, default_x_grid.
Commands that write files take --seed and -o; commands that solve take --tol
and --max-iter; compare's --jobs is accepted and has no effect.

build_parser declares every option once, with its default.  A --config file
replaces the defaults of the options the command declares (main parses argv
a second time, with the same parser), so an explicit flag beats the config
file, which beats the built-in default; HS_SEED overrides the seed from any
source.

Every file-writing command writes atomically (temp file + rename) and drops
a JSON manifest next to its outputs: the options the command parsed, under
their dest names, with what it resolved from them (see write_manifest),
their hash, and the package version.  Identical argv + config produce
byte-identical CSV payloads and the same config_hash; manifests differ at
most in their timestamp and their trace block (solver records, wall times).
"""

from __future__ import annotations

import argparse
import cmath
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
from .experiments import ExperimentSpec, default_x_grid, make_profile, run_experiment
from .fixed_point import SolverConfig, solve_grid
from .random_spectra import EntrySampler, FAMILIES, empirical_spectrum
from .stieltjes import DEFAULT_ETAS, InversionConfig, _eta_schedule, density_curve
from .tightness import plan_truncation

SEED_ENV = "HS_SEED"
Z_HELP = "evaluation point x+vi (repeatable); write x < 0 as --z=-0.5+2.5e-3i"


class UsageError(Exception):
    """Bad invocation detected after argparse; exits with status 2."""


# ---------------------------------------------------------------------------
# small parsers and IO helpers
# ---------------------------------------------------------------------------

def parse_z(text: str) -> complex:
    """Parse 'x+vi', finite with v > 0, e.g. 0+1i, -0.5+2.5e-3i."""
    compact = text.replace(" ", "")
    try:
        z = complex(compact[:-1] + "j" if compact.endswith("i") else compact)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as x+vi") from exc
    if not (cmath.isfinite(z) and z.imag > 0):
        raise argparse.ArgumentTypeError(f"{text!r} must be finite with positive imaginary part")
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


def parse_etas(text: str) -> tuple:
    """A comma-separated eta schedule, valid by stieltjes._eta_schedule's rule."""
    try:
        return _eta_schedule(tok for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc


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


# namespace entries that are no setting of the run: func and command name it,
# config is folded into the other options, out's paths are the outputs, and
# jobs is read by nothing (so --jobs leaves the hash alone)
UNRECORDED = frozenset(("func", "command", "config", "out", "jobs"))


def write_manifest(args, outputs, trace=None, **resolved) -> None:
    """Write args.out + ".manifest.json": its options are vars(args) less
    UNRECORDED, overlaid with what the command resolved or produced; they are
    hashed into config_hash, while created and trace (run records) are not."""
    options = {key: val for key, val in vars(args).items() if key not in UNRECORDED}
    options.update(resolved)
    canonical = json.dumps(options, sort_keys=True, default=str)
    manifest = {
        "command": args.command,
        "options": options,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "trace": trace,
        "outputs": list(outputs),
    }
    atomic_write(args.out + ".manifest.json",
                 lambda fh: json.dump(manifest, fh, indent=2, sort_keys=True, default=str))


def _fmt(x: float) -> str:
    return "%.17g" % x


# ---------------------------------------------------------------------------
# config files: values become the subcommand's defaults, under explicit flags
# ---------------------------------------------------------------------------

# the keys a config file may set; each names the dest of an option
CONFIG_KEYS = frozenset(("seed", "tol", "max_iter", "n", "N", "profile", "family", "trials",
                         "epsilon", "generator", "sizes", "xmax", "points", "eta", "c"))


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
        head = ["x", "v", "residual", "rho_C0", "identity_defect", "iterations", "converged",
                "g_re", "g_im"]
        head += [f"e0_{part}_{k}" for part in ("re", "im") for k in range(profile.N)]
        fh.write(",".join(head) + "\n")
        for sol in sols:
            row = [_fmt(x) for x in (sol.z.x, sol.z.v, sol.residual, sol.rho_C0,
                                     sol.identity_defect)]
            row += ["%d" % sol.iterations, "%d" % sol.converged]
            row += [_fmt(x) for x in (sol.g.real, sol.g.imag, *sol.e0.real, *sol.e0.imag)]
            fh.write(",".join(row) + "\n")

    atomic_write(args.out, write)
    write_manifest(args, [args.out], n=profile.n, N=profile.N, z=[str(z) for z in pts])
    print(f"wrote {args.out} ({len(sols)} points, "
          f"{sum(s.converged for s in sols)} converged)")
    return 0 if all(s.converged for s in sols) else 1


def cmd_density(args) -> int:
    profile = load_profile(args)
    grid = default_x_grid(profile, args.xmax, args.points)
    cfg = InversionConfig(x_grid=grid, eta_sequence=args.eta)
    curve, diag = density_curve(profile, cfg, solver_from(args), with_diagnostics=True)
    atomic_write(args.out, curve.write_csv)
    write_manifest(args, [args.out], trace={"levels": [vars(lv) for lv in diag.levels]},
                   n=profile.n, N=profile.N, atom_at_zero=curve.atom_at_zero,
                   total_mass=curve.total_mass, partial=curve.partial)
    print(f"wrote {args.out} (mass {curve.total_mass:.6f}, atom {curve.atom_at_zero:.6f})")
    return 1 if curve.partial else 0


def cmd_simulate(args) -> int:
    profile = load_profile(args)
    sampler = EntrySampler(family=args.family, complex_entries=args.complex)
    spectra = empirical_spectrum(profile, sampler, args.pipeline_eta, args.trials, seed=args.seed)
    outputs = []
    for t, dist in enumerate(spectra):
        path = f"{args.out}.trial{t}.csv"
        atomic_write(path, lambda fh, d=dist: fh.writelines(_fmt(x) + "\n" for x in d.atoms))
        outputs.append(path)
    write_manifest(args, outputs, n=profile.n, N=profile.N)
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
    medians = report.medians
    write_manifest(args, [csv_path], trace=report.to_trace(),
                   medians={f"{n}x{N}": med for (n, N), med in medians.items()},
                   curve_mass={f"{n}x{N}": m for (n, N), m in report.curve_mass.items()})
    for (n, N), med in medians.items():
        print(f"{n}x{N}: median ks={med['ks']:.4f} d={med['d_value']:.6f}")
    failures = [r for r in report.rows if r.error]
    if failures:
        print(f"{len(failures)} cells failed", file=sys.stderr)
        return 1
    return 0


def cmd_truncate(args) -> int:
    profile = load_profile(args)
    plan = plan_truncation(profile, args.epsilon)
    atomic_write(args.out, lambda fh: json.dump(plan.to_record(), fh, indent=2, sort_keys=True))
    write_manifest(args, [args.out], n=profile.n, N=profile.N)
    print(f"M={plan.M:.6g} rows={list(plan.rows_removed)} cols={list(plan.cols_removed)}")
    return 0


def _mp_root(z: complex, c: float) -> complex:
    disc = np.sqrt(complex(z + c - 1) ** 2 - 4 * c * z)
    r1 = (-(z + c - 1) + disc) / (2 * c * z)
    r2 = (-(z + c - 1) - disc) / (2 * c * z)
    return r1 if r1.imag > 0 else r2


def cmd_mp_check(args) -> int:
    c, N = args.c, args.N
    if N < 1:
        raise UsageError(f"--N {N} must be at least 1")
    n = c * N
    if not 0.0 < n < np.inf:
        raise UsageError(f"--c {c} with --N {N} gives n = c*N = {n}, not finite and positive")
    if abs(n - round(n)) > 1e-9:
        raise UsageError(f"--c {c} with --N {N} gives non-integer n = c*N")
    profile = make_profile("ones", int(round(n)), N, 0)
    cfg = solver_from(args)
    # an appended option extends its default, so the fallback point lives here
    zs = args.z or [complex(0, 1)]
    sols = solve_grid(profile, ZGrid(tuple(SpectralPoint(z.real, z.imag) for z in zs)), cfg)
    worst = 0.0
    for z, sol in zip(zs, sols):
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
    """The one declaration of every option and its default."""
    parser = argparse.ArgumentParser(
        prog="hadspec",
        description="Deterministic-equivalent spectra for Hadamard-weighted covariance matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    solver = SolverConfig()

    def common(p, out=None, solves=False, profile=True):
        """--seed and -o for commands that write out, --tol and --max-iter for those that solve."""
        p.add_argument("--config", help="INI config file merged under explicit flags")
        if out is not None:
            p.add_argument("--seed", type=int, default=0,
                           help=f"master seed (env {SEED_ENV} overrides)")
            p.add_argument("-o", "--out", default=out, help="output path or prefix")
        if solves:
            p.add_argument("--tol", type=float, default=solver.tol, help="solver residual target")
            p.add_argument("--max-iter", dest="max_iter", type=int, default=solver.max_iter)
        if profile:
            p.add_argument("--profile",
                           help="generator spec (ones, constant:v, block:..., iid_uniform:lo,hi, spiked:k,h) or CSV path")
            p.add_argument("--n", type=int)
            p.add_argument("--N", type=int)

    p = sub.add_parser("solve", help="solve e0 on a z grid, export records")
    common(p, "solve.csv", solves=True)
    p.add_argument("--z", type=parse_z, action="append", required=True, help=Z_HELP)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("density", help="invert G into a density/CDF CSV")
    common(p, "density.csv", solves=True)
    p.add_argument("--xmax", type=float, help="end of the grid, uniform in sqrt(x) on (0, xmax); "
                   "default: 1.25 x the spectral-edge bound + 0.1")
    p.add_argument("--points", type=int, default=182)
    p.add_argument("--eta", type=parse_etas, default=DEFAULT_ETAS,
                   help="descending eta schedule of heights in sqrt(x), comma separated")
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
    common(p, "report", solves=True, profile=False)
    p.add_argument("--generator", default="constant")
    p.add_argument("--sizes", type=parse_sizes, default="64x64", help="e.g. 64x64,128x256")
    p.add_argument("--family", choices=FAMILIES, default="rademacher")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--complex", action="store_true")
    p.add_argument("--eta", type=parse_etas, default=DEFAULT_ETAS)
    p.add_argument("--jobs", type=int, help="accepted for old command lines; has no effect")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("truncate", help="plan exceptional-line removal")
    common(p, "plan.json")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("mp-check", help="solver vs closed-form quadratic root")
    common(p, solves=True, profile=False)
    p.add_argument("--c", type=float, default=1.0, help="aspect ratio n/N")
    p.add_argument("--N", type=int, default=64,
                   help="columns of the all-ones instance (n = c*N)")
    p.add_argument("--z", type=parse_z, action="append", help=Z_HELP)
    p.set_defaults(func=cmd_mp_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become defaults, which argparse converts by type
            config = load_config(args.config)
            for p in parser._subparsers._group_actions[0].choices.values():
                own = {action.dest for action in p._actions}
                p.set_defaults(**{key: val for key, val in config.items() if key in own})
            args = parser.parse_args(argv)
        if "seed" in args and os.environ.get(SEED_ENV):
            try:
                args.seed = int(os.environ[SEED_ENV])
            except ValueError:
                raise UsageError(f"{SEED_ENV}={os.environ[SEED_ENV]!r} is not an integer") from None
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
