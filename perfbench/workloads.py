"""The benchmark's four workloads: inputs, set-up, one timed pass, checks.

Each workload is a closed loop driven from one process: one caller, and the
next library call starts only after the previous one returns.  Inputs are
made here from the workload seed; the library only sees the generated
arrays (and, for ``compare``, the command line built from them).

The random profiles are one fixed ``iid_uniform:0,2`` draw whose rows and
columns the seed permutes.  Every seed then gives different arrays but the
same solver work: permuting lines leaves the fixed-point map and the
x grid unchanged, whereas independent 128x128 draws move ``points``'
solve_e0 iteration count by up to +-15% (18136 to 24317 over ten seeds),
which the ten-seed spread would read as noise.

Every library function is reached through its module attribute at call
time (``stieltjes.density_curve``, not a bound name), so the traced run's
wrappers see the calls and the untraced run calls unpatched code.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from hadspec import cli, core, experiments, fixed_point, stieltjes
from hadspec.core import ZGrid

ETAS = (1e-2, 5e-3, 2.5e-3)          # default inversion schedule
POINTS_XS = np.linspace(0.25, 4.0, 8)
POINTS_VS = (1.0, 1e-1, 1e-2, 1e-3)
INTERVAL = (0.5, 1.5, (1e-2, 5e-3))  # cdf_interval(a, b, eta schedule)
MP_XS = (0.5, 1.0, 2.0, 3.0, 3.5)    # interior abscissae of the c = 1 law
MP_REL_TOL = 1e-3                    # eta -> 0 extrapolation error in the bulk
TOL = 1e-12                          # residual target every certificate refers to
G_AGREE_TOLS = 10.0                  # solve_e0 vs solve_batch, in units of TOL
BASE_DRAW_SEED = 0                   # the one draw every workload seed permutes
# Largest size 176, not 256: the planner's cost grows as n^4, so at 256 one
# pass takes ~13 s (two or three passes a run), and on a shared 2-vCPU host
# plan_truncation's per-call spread at 256 is 1.5x that at 128 and 176.
COMPARE_ARGS = ("compare", "--generator", "block:0.5,1.5", "--sizes", "128x128,176x176",
                "--trials", "8", "--family", "rademacher", "--epsilon", "0.25",
                "--jobs", "1")


@dataclass
class PassResult:
    attempted: int
    certified: int
    out: dict = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def _permuted_uniform(seed: int, stream: int, shape: tuple) -> np.ndarray:
    """The fixed uniform(0, 2) draw of ``stream``, rows and columns permuted by ``seed``."""
    base = _rng(BASE_DRAW_SEED, stream).uniform(0.0, 2.0, shape)
    rng = _rng(seed, stream)
    return base[rng.permutation(shape[0])][:, rng.permutation(shape[1])]


def _block(n: int, N: int, levels) -> np.ndarray:
    entries = np.empty((n, N))
    for band, level in zip(np.array_split(np.arange(n), len(levels)), levels):
        entries[band, :] = level
    return entries


# ---------------------------------------------------------------------------
# inputs: plain arrays and strings, a function of the seed only
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int) -> dict:
    if workload == "density_dense":
        return {"iid_uniform:0,2 128x128": _permuted_uniform(seed, 1, (128, 128))}
    if workload == "density_collapsed":
        # deduplicates to 1 or 2 unique columns; nothing here is random
        return {"constant:1 512x512": np.ones((512, 512)),
                "block:0.5,1.5 512x512": _block(512, 512, (0.5, 1.5)),
                "constant:3 60x100": np.full((60, 100), 3.0)}
    if workload == "points":
        return {"iid_uniform:0,2 128x128": _permuted_uniform(seed, 2, (128, 128)),
                "iid_uniform:0,2 8x8": _permuted_uniform(seed, 3, (8, 8))}
    if workload == "compare":
        return {"argv": list(COMPARE_ARGS) + ["--seed", str(int(seed))]}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("density_dense", "density_collapsed", "points", "compare")


# ---------------------------------------------------------------------------
# set-up: profiles, grids, one BLAS warm-up product
# ---------------------------------------------------------------------------

def _warm_blas() -> None:
    a = np.ones((128, 128))
    b = np.ones((128, 242), dtype=complex)
    (a @ b).sum()


def setup(workload: str, inputs: dict, workdir: str) -> dict:
    state: dict = {"workload": workload}
    if workload in ("density_dense", "density_collapsed"):
        curves = []
        for name, entries in inputs.items():
            profile = core.validate_profile(entries)
            profile.reduced
            cfg = stieltjes.InversionConfig(x_grid=experiments.default_x_grid(profile),
                                            eta_sequence=ETAS)
            curves.append((name, profile, cfg))
        state["curves"] = curves
    elif workload == "points":
        big = core.validate_profile(inputs["iid_uniform:0,2 128x128"])
        small = core.validate_profile(inputs["iid_uniform:0,2 8x8"])
        big.reduced
        small.reduced
        state.update(profile=big, small=small, grid=ZGrid.product(POINTS_XS, POINTS_VS),
                     cfg=fixed_point.SolverConfig(tol=TOL))
    else:
        state.update(argv=list(inputs["argv"]), workdir=workdir)
    _warm_blas()
    return state


# ---------------------------------------------------------------------------
# one pass of the workload
# ---------------------------------------------------------------------------

def run_pass(state: dict, k: int) -> PassResult:
    workload = state["workload"]
    if workload in ("density_dense", "density_collapsed"):
        return _density_pass(state)
    if workload == "points":
        return _points_pass(state)
    return _compare_pass(state, k)


def _density_pass(state) -> PassResult:
    attempted = certified = 0
    curves = []
    for name, profile, cfg in state["curves"]:
        curve, diag = stieltjes.density_curve(profile, cfg, with_diagnostics=True)
        attempted += len(cfg.x_grid) * len(cfg.eta_sequence)
        certified += len(curve.xs) * len(cfg.eta_sequence)
        curves.append((name, curve, diag))
    return PassResult(attempted, certified, {"curves": curves})


def _mass_check_ok(profile, report) -> bool:
    # |zG(z) + 1| <= m1 / v at z = iv, with m1 = mean(d^2) the first moment
    m1 = float(profile.squared.mean())
    return all(d <= m1 / v * (1 + 1e-6) + 1e-12 for v, d in report.g_defect.items())


def _points_pass(state) -> PassResult:
    profile = state["profile"]
    sols = fixed_point.solve_grid(profile, state["grid"], state["cfg"])
    certs = [fixed_point.build_certificate(profile, s) for s in sols]
    report = stieltjes.mass_check(profile)
    a, b, eta = INTERVAL
    mass = stieltjes.cdf_interval(state["small"], a, b, eta)
    certified = sum(s.converged and c.rho < 1.0 for s, c in zip(sols, certs))
    certified += _mass_check_ok(profile, report)
    certified += 0.0 <= mass <= 1.0
    # keep the identity defects, not the N x N certificate matrices
    return PassResult(len(sols) + 2, int(certified),
                      {"sols": sols, "defects": [c.identity_defect for c in certs]})


def _compare_pass(state, k) -> PassResult:
    prefix = os.path.join(state["workdir"], f"pass{k}", "report")
    os.makedirs(os.path.dirname(prefix), exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(state["argv"] + ["-o", prefix])
    with open(prefix + ".csv", "rb") as fh:
        payload = fh.read()
    with open(prefix + ".manifest.json") as fh:
        manifest = json.load(fh)
    rows = list(csv.DictReader(io.StringIO(payload.decode())))
    bad = sum(1 for r in rows if r["error"] or r["trusted"] != "1")
    return PassResult(len(rows), len(rows) - bad,
                      {"rc": rc, "payload": payload, "rows": rows,
                       "curve_mass": manifest["options"]["curve_mass"]})


# ---------------------------------------------------------------------------
# output checks (fail the run) and quality figures
# ---------------------------------------------------------------------------

def mp_density(x: float, c: float = 1.0) -> float:
    """Closed-form Marchenko-Pastur density via the quadratic root of G."""
    z = complex(x, 1e-14)
    disc = np.sqrt(complex(z + c - 1) ** 2 - 4 * c * z)
    roots = ((-(z + c - 1) + disc) / (2 * c * z), (-(z + c - 1) - disc) / (2 * c * z))
    g = roots[0] if roots[0].imag > 0 else roots[1]
    return g.imag / np.pi


def check(state: dict, results: list[PassResult]) -> tuple[list[str], dict]:
    """Return (failed checks, quality figures) for the passes of one run."""
    workload = state["workload"]
    errors: list[str] = []
    quality: dict = {}
    for k, r in enumerate(results):
        if r.certified != r.attempted:
            errors.append(f"pass {k}: {r.attempted - r.certified} of {r.attempted} "
                          "operations not certified")
    last = results[-1].out
    if workload in ("density_dense", "density_collapsed"):
        for k, r in enumerate(results):
            for name, curve, diag in r.out["curves"]:
                if curve.failed_xs:
                    errors.append(f"pass {k}, {name}: {len(curve.failed_xs)} failed points")
                if not diag.rho_max < 1.0:
                    errors.append(f"pass {k}, {name}: rho_max {diag.rho_max} >= 1")
                if not diag.residual_max <= TOL:
                    errors.append(f"pass {k}, {name}: residual_max {diag.residual_max} > {TOL}")
        quality["mass_err"] = max(abs(1.0 - c.total_mass) for _, c, _ in last["curves"])
        if workload == "density_collapsed":
            errors += _check_mp(last["curves"][0][1])
    elif workload == "points":
        errors += _check_points(state, last)
        quality["defect_max"] = max(last["defects"])
    else:
        quality["mass_err"] = max(abs(1.0 - m) for m in last["curve_mass"].values())
        ks = [float(r["ks"]) for r in last["rows"] if r["trusted"] == "1"]
        quality["ks_median"] = float(np.median(ks)) if ks else 0.0
        for k, r in enumerate(results):
            if r.out["rc"] != 0:
                errors.append(f"pass {k}: hadspec compare exited {r.out['rc']}")
            if r.out["payload"] != results[0].out["payload"]:
                errors.append(f"pass {k}: CSV payload differs from pass 0 (same seed)")
        if len(results) < 2:
            errors.append("compare needs two passes to check byte-identical payloads")
    return errors, quality


def _check_mp(curve) -> list[str]:
    errors = []
    for x0 in MP_XS:
        i = int(np.argmin(np.abs(curve.xs - x0)))
        x = float(curve.xs[i])
        want = mp_density(x)
        if not abs(curve.density[i] - want) <= MP_REL_TOL * want:
            errors.append(f"constant:1 density at x={x:.6g} is {curve.density[i]:.12g}, "
                          f"Marchenko-Pastur gives {want:.12g}")
    return errors


def _check_points(state, out) -> list[str]:
    """solve_e0 and solve_batch + batch_G agree at every shared z."""
    profile = state["profile"]
    batch_cfg = fixed_point.SolverConfig(tol=TOL, max_iter=300_000)
    errors = []
    for v in POINTS_VS:
        sols = [s for s in out["sols"] if s.z.v == v]
        xs = np.array([s.z.x for s in sols])
        e_red, res, _ = fixed_point.solve_batch(profile, xs, v, batch_cfg)
        g = fixed_point.batch_G(profile, e_red, xs, v)
        diff = float(np.max(np.abs(g - np.array([s.g for s in sols]))))
        if not diff <= G_AGREE_TOLS * TOL or not res.max() <= TOL:
            errors.append(f"v={v}: solve_e0 and solve_batch differ by {diff:.3g} "
                          f"(batch residual {res.max():.3g})")
    return errors
