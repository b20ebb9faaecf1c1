"""End-to-end comparison of simulated spectra against deterministic equivalents.

One experiment cell = (matrix size, trial): build the weight profile, plan
and apply the epsilon-truncation, solve and invert the deterministic
equivalent once per size (it is nonrandom), simulate the random spectrum
per trial, and compare.  The cells run one after another in one thread.
Medians across trials per size, read off the report's rows, are the
finite-n evidence for the vanishing-distance statement.  A size's rows are
trusted, and enter the medians, when its curve has no gap (stieltjes._sweep's
mask at the eta levels the estimate reads); their rho_max and residual_max
are maxima over every point and every level of the sweep.

The inversion reads the truncated profile only through its reduced map,
its aspect ratio and its row weights row_mult / n, so a later size whose
truncated profile matches an earlier one on all of them, and on the grid,
reuses that size's curve, diagnostics and test-function integrals
instead of inverting again (constant and block profiles: one inversion
per run).  The reused curve is the same mathematical curve; its rounding
can differ from a fresh inversion's in the last digit, since G sums
(row_mult @ x) / n.  The record lives for one run only.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .core import WeightProfile, validate_profile
from .fixed_point import SolverConfig
from .metrics import TAIL_BOUND, TestIntegrals, d_metric, ks_distance
from .random_spectra import EntrySampler, empirical_spectrum
from .stieltjes import DEFAULT_ETAS, InversionConfig, _eta_schedule, density_curve
from .tightness import plan_truncation, truncate_profile

GENERATORS = ("constant", "ones", "block", "iid_uniform", "spiked")
# the argument counts each generator reads; block reads any number of levels
_ARG_COUNTS = {"ones": (0,), "constant": (0, 1), "iid_uniform": (0, 2), "spiked": (0, 1, 2)}


def make_profile(generator: str, n: int, N: int, seed: int = 0) -> WeightProfile:
    """Build a weight profile from an inline generator spec.

    Specs: "constant[:value]", "ones", "block:l1,l2,...", "iid_uniform:lo,hi",
    "spiked:k,height".  Arguments left out take their defaults (iid_uniform's
    two together); an argument count the generator does not read, more
    block levels than rows, an iid_uniform range with lo > hi, or a spike
    count that is not an integer in [0, n N], is refused.
    Random generators derive their stream from (seed, n, N) so every size
    is reproducible independently.
    """
    name, _, argstr = generator.partition(":")
    args = [float(tok) for tok in argstr.split(",") if tok] if argstr else []
    if name in _ARG_COUNTS and len(args) not in _ARG_COUNTS[name]:
        raise ValueError(f"profile generator {generator!r}: {name} takes "
                         f"{' or '.join(map(str, _ARG_COUNTS[name]))} arguments, not {len(args)}")
    if name == "spiked" and args and not (args[0].is_integer() and 0 <= args[0] <= n * N):
        raise ValueError(f"profile generator {generator!r}: the spike count must be an "
                         f"integer in [0, {n * N}]")
    if name == "iid_uniform" and args and not args[0] <= args[1]:
        raise ValueError(f"profile generator {generator!r}: iid_uniform needs lo <= hi")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(n), int(N)]))
    if name == "ones":
        return validate_profile(np.ones((n, N)))
    if name == "constant":
        value = args[0] if args else 1.0
        return validate_profile(np.full((n, N), value))
    if name == "block":
        levels = args or [0.5, 1.5]
        if len(levels) > n:
            raise ValueError(f"profile generator {generator!r}: {len(levels)} levels for {n} rows")
        bands = np.array_split(np.arange(n), len(levels))
        entries = np.empty((n, N))
        for band, level in zip(bands, levels):
            entries[band, :] = level
        return validate_profile(entries)
    if name == "iid_uniform":
        lo, hi = args or (0.0, 2.0)
        return validate_profile(rng.uniform(lo, hi, (n, N)))
    if name == "spiked":
        k = int(args[0]) if args else max(1, n // 16)
        height = args[1] if len(args) > 1 else 10.0
        entries = rng.uniform(0.5, 1.5, (n, N))
        flat = rng.choice(n * N, size=k, replace=False)
        entries.flat[flat] = height
        return validate_profile(entries)
    raise ValueError(f"unknown profile generator {generator!r}; choose from {GENERATORS}")


def default_x_grid(profile: WeightProfile, hi: float | None = None,
                   points: int = 182) -> np.ndarray:
    """The inversion grid x_k = (sqrt(hi) (k + 1/2) / points)^2: midpoints uniform in sqrt(x).

    hi defaults to 1.25 times the spectral-edge bound max_entry^2 (1 + sqrt c)^2,
    plus 0.1; only None means the default, and any other hi (the CLI's
    --xmax) must be finite and positive.
    """
    if hi is None:
        hi = 1.25 * profile.max_entry**2 * (1.0 + np.sqrt(profile.c)) ** 2 + 0.1
    if not 0.0 < hi < np.inf:
        raise ValueError(f"xmax must be finite and positive, got {hi}")
    return (np.sqrt(hi) * (np.arange(points) + 0.5) / points) ** 2


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a comparison run needs, reproducible from the seed."""

    profile_generator: str
    sizes: tuple
    sampler: EntrySampler
    epsilon: float = 0.25
    trials: int = 1
    master_seed: int = 0
    eta_sequence: tuple = DEFAULT_ETAS
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        sizes = tuple((int(n), int(N)) for n, N in self.sizes)
        if not sizes:
            raise ValueError("sizes must be nonempty")
        for i, (n, N) in enumerate(sizes):
            if (n, N) in sizes[:i]:
                raise ValueError(f"size {n}x{N} is given twice")
        object.__setattr__(self, "sizes", sizes)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        object.__setattr__(self, "eta_sequence", _eta_schedule(self.eta_sequence))


@dataclass(frozen=True)
class CellResult:
    n: int
    N: int
    trial: int
    d_value: float = np.nan
    d_tail: float = np.nan
    ks: float = np.nan
    rho_max: float = np.nan
    residual_max: float = np.nan
    trusted: bool = False
    error: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    spec: ExperimentSpec
    rows: tuple
    curve_mass: dict       # (n, N) -> total mass of the inverted curve
    total_runtime: float
    stages: dict           # (n, N) -> stage wall times in s, curve_reused_from,
                           # atom_at_zero, failure

    @property
    def medians(self) -> dict:
        """(n, N) -> median ks and d_value over the size's trusted rows, in
        spec.sizes order; a size without a trusted row is absent."""
        out = {}
        for size in self.spec.sizes:
            good = [r for r in self.rows if (r.n, r.N) == size and r.trusted]
            if good:
                out[size] = {"ks": float(np.median([r.ks for r in good])),
                             "d_value": float(np.median([r.d_value for r in good]))}
        return out

    def write_csv(self, fh) -> None:
        # total_runtime lives in the manifest's trace: payloads must be byte-reproducible
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(("n", "N", "trial", "d_value", "d_tail", "ks", "rho_max", "residual_max",
                      "trusted", "error"))
        for r in self.rows:
            out.writerow((r.n, r.N, r.trial,
                          *("%.17g" % x for x in (r.d_value, r.d_tail, r.ks, r.rho_max,
                                                  r.residual_max)),
                          int(r.trusted), r.error))

    def to_trace(self) -> dict:
        """How the run went, for the manifest's unhashed trace block: wall
        times in seconds per size and stage (plan_s includes building the
        profile, invert_s the curve's test-function integrals), the size
        whose curve a size reused (None when it inverted its own), the
        curve's atom_at_zero, an inverting size's LevelDiagnostics per eta
        level (levels), and a failed size's failed_stage and error_type."""
        return {
            "total_runtime_s": self.total_runtime,
            "cells": {f"{n}x{N}": rec for (n, N), rec in self.stages.items()},
        }


def _size_seed(master_seed: int, n: int, N: int) -> int:
    return int(np.random.SeedSequence([int(master_seed), int(n), int(N)]).generate_state(1)[0])


def _inversion_key(profile: WeightProfile, xs: np.ndarray) -> tuple:
    """What an inversion on grid xs depends on: c, the reduced map, the row
    weights that sum G, and xs; arrays compare as exact bytes."""
    red = profile.reduced
    return (profile.c, red.inner.shape, red.inner.tobytes(), red.outer.tobytes(),
            (red.row_mult / profile.n).tobytes(), xs.tobytes())


def _lap(stage: dict, name: str, since: float) -> float:
    """Book the wall time since `since` as stage[name]; return the time now."""
    now = time.perf_counter()
    stage[name] = now - since
    return now


def run_experiment(spec: ExperimentSpec) -> ComparisonReport:
    """Execute every (size, trial) cell; failures are recorded, never fatal.

    A size whose truncated profile and grid give an earlier size's
    inversion key reuses that inversion (see the module docstring).
    """
    t_start = time.perf_counter()
    rows: list[CellResult] = []
    curve_mass: dict = {}
    stages: dict = {}
    inversions: dict = {}   # inversion key -> (size, curve, diag, curve integrals)
    for n, N in spec.sizes:
        stage = stages[(n, N)] = {"curve_reused_from": None}
        t = time.perf_counter()
        try:
            profile = make_profile(spec.profile_generator, n, N, spec.master_seed)
            plan = plan_truncation(profile, spec.epsilon)
            truncated = truncate_profile(profile, plan.M)
            t = _lap(stage, "plan_s", t)
            xs = default_x_grid(truncated)
            key = _inversion_key(truncated, xs)
            if key in inversions:
                stage["curve_reused_from"] = inversions[key][0]
            else:
                cfg = InversionConfig(x_grid=xs, eta_sequence=spec.eta_sequence)
                curve, diag = density_curve(truncated, cfg, spec.solver, with_diagnostics=True)
                stage["levels"] = [vars(lv) for lv in diag.levels]
                inversions[key] = (f"{n}x{N}", curve, diag, TestIntegrals.of(curve))
            _, curve, diag, curve_integrals = inversions[key]
            t = _lap(stage, "invert_s", t)
        except (ValueError, RuntimeError) as exc:
            stage["failed_stage"] = "invert" if "plan_s" in stage else "plan"
            stage["error_type"] = type(exc).__name__
            rows.extend(CellResult(n=n, N=N, trial=trial, error=f"{type(exc).__name__}: {exc}")
                        for trial in range(spec.trials))
            continue
        curve_mass[(n, N)] = curve.total_mass
        stage["atom_at_zero"] = curve.atom_at_zero
        seed = _size_seed(spec.master_seed, n, N)
        spectra = empirical_spectrum(profile, spec.sampler, None, spec.trials, seed=seed)
        t = _lap(stage, "simulate_s", t)
        rows.extend(CellResult(
            n=n, N=N, trial=trial, d_value=d_metric(spectrum, curve_integrals),
            d_tail=TAIL_BOUND, ks=ks_distance(spectrum, curve), rho_max=diag.rho_max,
            residual_max=diag.residual_max, trusted=not curve.partial)
            for trial, spectrum in enumerate(spectra))
        _lap(stage, "compare_s", t)
    return ComparisonReport(spec=spec, rows=tuple(rows), curve_mass=curve_mass,
                            total_runtime=time.perf_counter() - t_start, stages=stages)
