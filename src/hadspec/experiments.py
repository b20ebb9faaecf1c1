"""End-to-end comparison of simulated spectra against deterministic equivalents.

One experiment cell = (matrix size, trial): build the weight profile, plan
and apply the epsilon-truncation, solve and invert the deterministic
equivalent once per size (it is nonrandom), simulate the random spectrum
per trial, and compare.  Medians across trials per size are the finite-n
evidence for the vanishing-distance statement; rows failing the residual or
spectral-radius certificate are excluded from trend statistics.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import WeightProfile, validate_profile
from .fixed_point import SolverConfig, certified
from .metrics import d_metric, ks_distance
from .random_spectra import EntrySampler, empirical_spectrum
from .stieltjes import (DEFAULT_ETAS, InversionConfig, _eta_schedule, density_curve,
                        edge_refined_grid)
from .tightness import ZeroColumnAfterTruncationError, plan_truncation, truncate_profile

GENERATORS = ("constant", "ones", "block", "iid_uniform", "spiked")


def make_profile(generator: str, n: int, N: int, seed: int = 0) -> WeightProfile:
    """Build a weight profile from an inline generator spec.

    Specs: "constant[:value]", "ones", "block:l1,l2,...", "iid_uniform:lo,hi",
    "spiked:k,height".  Random generators derive their stream from
    (seed, n, N) so every size is reproducible independently.
    """
    name, _, argstr = generator.partition(":")
    args = [float(tok) for tok in argstr.split(",") if tok] if argstr else []
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(n), int(N)]))
    if name == "ones":
        return validate_profile(np.ones((n, N)))
    if name == "constant":
        value = args[0] if args else 1.0
        return validate_profile(np.full((n, N), value))
    if name == "block":
        levels = args or [0.5, 1.5]
        bands = np.array_split(np.arange(n), len(levels))
        entries = np.empty((n, N))
        for band, level in zip(bands, levels):
            entries[band, :] = level
        return validate_profile(entries)
    if name == "iid_uniform":
        lo, hi = (args + [0.0, 2.0])[:2]
        return validate_profile(rng.uniform(lo, hi, (n, N)))
    if name == "spiked":
        k = int(args[0]) if args else max(1, n // 16)
        height = args[1] if len(args) > 1 else 10.0
        entries = rng.uniform(0.5, 1.5, (n, N))
        flat = rng.choice(n * N, size=min(k, n * N), replace=False)
        entries.flat[flat] = height
        return validate_profile(entries)
    raise ValueError(f"unknown profile generator {generator!r}; choose from {GENERATORS}")


def default_xmax(profile: WeightProfile) -> float:
    """Right end of the inversion grid: 1.25 times the spectral-edge bound, plus 0.1."""
    return 1.25 * profile.max_entry**2 * (1.0 + np.sqrt(profile.c)) ** 2 + 0.1


def default_x_grid(profile: WeightProfile) -> np.ndarray:
    """Inversion grid sized to the profile's spectral scale, edge-refined at 0."""
    hi = default_xmax(profile)
    lo = -0.05 * hi - 0.1
    return edge_refined_grid(lo, hi, n_uniform=141, n_edge=50, width=min(0.25 * hi, 0.3))


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
    runtime: float = 0.0
    trusted: bool = False
    error: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    spec: ExperimentSpec
    rows: tuple
    medians: dict          # (n, N) -> {"ks": ..., "d_value": ...} over trusted rows
    curve_mass: dict       # (n, N) -> total mass of the inverted curve
    total_runtime: float

    def write_csv(self, fh) -> None:
        # runtime lives in the manifest: payloads must be byte-reproducible
        fh.write("n,N,trial,d_value,d_tail,ks,rho_max,residual_max,trusted,error\n")
        for r in self.rows:
            fh.write("%d,%d,%d,%.17g,%.17g,%.17g,%.17g,%.17g,%d,%s\n" % (
                r.n, r.N, r.trial, r.d_value, r.d_tail, r.ks,
                r.rho_max, r.residual_max, int(r.trusted), r.error))

    def to_manifest(self) -> dict:
        return {
            "generator": self.spec.profile_generator,
            "sizes": list(map(list, self.spec.sizes)),
            "family": self.spec.sampler.family,
            "complex_entries": self.spec.sampler.complex_entries,
            "epsilon": self.spec.epsilon,
            "trials": self.spec.trials,
            "master_seed": self.spec.master_seed,
            "medians": {f"{n}x{N}": vals for (n, N), vals in self.medians.items()},
            "curve_mass": {f"{n}x{N}": m for (n, N), m in self.curve_mass.items()},
            "total_runtime_s": self.total_runtime,
        }


def _size_seed(master_seed: int, n: int, N: int) -> int:
    return int(np.random.SeedSequence([int(master_seed), int(n), int(N)]).generate_state(1)[0])


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ComparisonReport:
    """Execute every (size, trial) cell; failures are recorded, never fatal."""
    t_start = time.perf_counter()
    rows: list[CellResult] = []
    medians: dict = {}
    curve_mass: dict = {}
    for n, N in spec.sizes:
        profile = make_profile(spec.profile_generator, n, N, spec.master_seed)
        try:
            plan = plan_truncation(profile, spec.epsilon)
            truncated = truncate_profile(profile, max(plan.M, np.finfo(float).tiny))
            cfg = InversionConfig(x_grid=default_x_grid(truncated), eta_sequence=spec.eta_sequence)
            curve, diag = density_curve(truncated, cfg, spec.solver, with_diagnostics=True)
        except (ZeroColumnAfterTruncationError, ValueError, RuntimeError) as exc:
            rows.extend(CellResult(n=n, N=N, trial=t, error=f"{type(exc).__name__}: {exc}")
                        for t in range(spec.trials))
            continue
        curve_mass[(n, N)] = curve.total_mass
        trusted_cell = certified(diag.residual_max, diag.rho_max, spec.solver.tol)
        seed = _size_seed(spec.master_seed, n, N)
        spectra = empirical_spectrum(profile, spec.sampler, None, spec.trials, seed=seed)

        def one_trial(t: int) -> CellResult:
            t0 = time.perf_counter()
            dm = d_metric(spectra[t], curve)
            ks = ks_distance(spectra[t], curve)
            return CellResult(n=n, N=N, trial=t, d_value=dm.value, d_tail=dm.tail_bound,
                              ks=ks, rho_max=diag.rho_max, residual_max=diag.residual_max,
                              runtime=time.perf_counter() - t0, trusted=trusted_cell)

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                cell_rows = list(pool.map(one_trial, range(spec.trials)))
        else:
            cell_rows = [one_trial(t) for t in range(spec.trials)]
        rows.extend(cell_rows)
        good = [r for r in cell_rows if r.trusted]
        if good:
            medians[(n, N)] = {
                "ks": float(np.median([r.ks for r in good])),
                "d_value": float(np.median([r.d_value for r in good])),
            }
    return ComparisonReport(spec=spec, rows=tuple(rows), medians=medians,
                            curve_mass=curve_mass,
                            total_runtime=time.perf_counter() - t_start)
