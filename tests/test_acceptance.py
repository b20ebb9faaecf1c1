"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins.
"""

import math
import time

import numpy as np
import pytest

from hadspec import (
    EmpiricalDistribution,
    EntrySampler,
    ExperimentSpec,
    InversionConfig,
    ZGrid,
    d_metric,
    ks_distance,
    make_profile,
    plan_truncation,
    run_experiment,
    solve_grid,
    validate_profile,
)
from hadspec.experiments import default_x_grid
from hadspec.fixed_point import SolverConfig, _finish, solve_batch, solve_e0
from hadspec.metrics import TAIL_BOUND
from hadspec.random_spectra import (build_B, hermitian_eigenvalues, truncate_center_rescale,
                                    truncated_moments)
from hadspec.stieltjes import density_curve, mass_check

from _oracles import brute_force_min_M, iterate_e, mp_stieltjes_root, sample_matrix


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def test_profiles(rand_profiles_50x100):
    """The canonical acceptance profile set: varied shape, scale, and ratio."""
    return {
        "ones_16x16": validate_profile(np.ones((16, 16))),
        "ones_32x16": validate_profile(np.ones((32, 16))),
        "block_24x48": make_profile("block:0.5,1.5", 24, 48),
        "uniform_20x40": make_profile("iid_uniform:0,2", 20, 40, seed=20240831),
        "uniform_50x100": rand_profiles_50x100[0],
    }


def test_criterion_1_mp_oracle_equivalence():
    """All-ones c=1: solver G matches the scalar quadratic root to 1e-10."""
    t0 = time.perf_counter()
    profile = validate_profile(np.ones((16, 16)))
    xs = np.linspace(-1.0, 5.0, 25)
    grid = ZGrid.product(xs, [0.1])
    sols = solve_grid(profile, grid)
    worst = max(abs(s.g - mp_stieltjes_root(complex(s.z.x, 0.1), 1.0)) for s in sols)
    elapsed = time.perf_counter() - t0
    report("criterion 1 (MP oracle equivalence)",
           worst <= 1e-10 and elapsed < 5.0,
           f"max |G - oracle| = {worst:.2e} over 25 points, {elapsed:.2f}s")


def test_criterion_2_residual_and_certificates(rand_profiles_50x100):
    """10 seeded bounded profiles: residual, rho(C0), identity defect."""
    t0 = time.perf_counter()
    grid = ZGrid.product([0.0, 0.5, 1.5, 3.0], [1.0, 0.3, 0.05])
    worst_res, worst_rho, worst_defect = 0.0, 0.0, 0.0
    for profile in rand_profiles_50x100:
        for sol in solve_grid(profile, grid):
            worst_res = max(worst_res, sol.residual)
            worst_rho = max(worst_rho, sol.rho_C0)
            worst_defect = max(worst_defect, sol.identity_defect)
    elapsed = time.perf_counter() - t0
    report("criterion 2 (residuals and certificates)",
           worst_res <= 1e-12 and worst_rho < 1.0 and worst_defect <= 1e-9
           and elapsed < 60.0,
           f"residual<= {worst_res:.2e}, rho<= {worst_rho:.6f}, "
           f"defect<= {worst_defect:.2e}, {elapsed:.1f}s for 120 points")


def test_criterion_3_mass_and_asymptotics(test_profiles):
    """|z G + 1| and |z e0_j + t_j| at z = 1e4 i on every test profile."""
    worst_g, worst_e = 0.0, 0.0
    for name, profile in test_profiles.items():
        rep = mass_check(profile, exponents=[4])
        worst_g = max(worst_g, rep.g_defect[1e4])
        worst_e = max(worst_e, rep.e_defect[1e4] / profile.column_masses.max())
    report("criterion 3 (mass and asymptotics)",
           worst_g <= 1e-3 and worst_e <= 1e-3,
           f"|zG+1| <= {worst_g:.2e}, relative e-mass defect <= {worst_e:.2e}")


def test_criterion_4_density_validity(test_profiles):
    """Every inverted curve: density >= 0, monotone CDF, unit mass."""
    details = []
    ok = True
    for name, profile in test_profiles.items():
        grid = default_x_grid(profile)
        if name == "ones_16x16":
            grid = np.union1d(grid, [1.0])   # evaluate exactly at x = 1
        curve = density_curve(profile, InversionConfig(x_grid=grid))
        total = curve.total_mass
        ok &= bool(np.all(curve.density >= 0))
        ok &= bool(np.all(np.diff(curve.cdf) >= -1e-12))
        ok &= 0.99 <= total <= 1.01
        ok &= not curve.partial
        details.append(f"{name}: mass {total:.4f}")
        if name == "ones_16x16":
            i = int(np.searchsorted(curve.xs, 1.0))
            assert curve.xs[i] == 1.0
            err = abs(curve.density[i] - math.sqrt(3) / (2 * math.pi))
            ok &= err <= 5e-3
            details.append(f"density(1.0) err {err:.1e}")
    report("criterion 4 (density validity)", ok, "; ".join(details))


def test_criterion_5_monte_carlo_agreement():
    """Constant profile at n = 64/128/256: median KS decreases and stays small."""
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        profile_generator="constant",
        sizes=((64, 64), (128, 128), (256, 256)),
        sampler=EntrySampler("rademacher"),
        epsilon=0.25,
        trials=5,
        master_seed=20240831,
        eta_sequence=(2.5e-3, 1.25e-3, 6.25e-4),
    )
    rep = run_experiment(spec)
    meds = [rep.medians[s]["ks"] for s in spec.sizes]
    med_d = [rep.medians[s]["d_value"] for s in spec.sizes]
    decreasing = all(a > b for a, b in zip(meds, meds[1:]))
    dominated = all(r.d_value <= 2 * r.ks + r.d_tail for r in rep.rows if not r.error)
    dominated &= all(d <= 2 * k + TAIL_BOUND for d, k in zip(med_d, meds))
    elapsed = time.perf_counter() - t0
    report("criterion 5 (Monte Carlo agreement)",
           decreasing and meds[-1] <= 0.06 and dominated and elapsed < 300.0,
           f"median KS {[round(m, 4) for m in meds]}, d<=2ks+tail {dominated}, "
           f"{elapsed:.1f}s")


def test_criterion_6_uniqueness_probe(rand_profiles_50x100):
    """20 random upper-half-plane starts all land on the same fixed point."""
    profile = rand_profiles_50x100[1]
    z = np.full(20, 0.5 + 0.2j)
    rng = np.random.default_rng(606)
    shape = (profile.reduced.d2.shape[1], 20)       # one reduced start per point
    warm = rng.uniform(-2, 2, shape) + 1j * rng.uniform(1e-3, 3.0, shape)
    e_red, res, _ = solve_batch(profile, z.real, z.imag, warm=warm)
    converged = _finish(profile, e_red, z, res, SolverConfig().tol)[3].all()
    spread = np.max(np.abs(e_red - e_red[:, :1]))
    report("criterion 6 (uniqueness probe)",
           converged and spread <= 1e-8,
           f"20 starts, sup-distance spread {spread:.2e}")


def test_criterion_7_perturbation_lemmas():
    """Truncation KS bound and the singular-value chain, per gaussian trial."""
    n, N = 128, 160
    profile = make_profile("iid_uniform:0.2,1.8", n, N, seed=77)
    ok = True
    details = []
    for trial in range(5):
        sampler = EntrySampler("gaussian")
        X = sample_matrix(n, N, sampler, trial)
        T = 3.5   # clips a handful of entries, so the row bound has teeth
        _, mask = truncate_center_rescale(X, T / math.sqrt(n), sampler)
        clipped = np.where(mask, 0.0, X)
        rows_touched = int(mask.any(axis=1).sum())
        F = EmpiricalDistribution(hermitian_eigenvalues(build_B(profile, X)))
        G = EmpiricalDistribution(hermitian_eigenvalues(build_B(profile, clipped)))
        ks = ks_distance(F, G)
        ok &= ks <= rows_touched / n + 1e-12

        mom = truncated_moments(sampler, T)
        centered = clipped - mom.mean.real
        hat = centered / math.sqrt(mom.sigma2)
        A = profile.entries * hat / math.sqrt(N)
        Bm = profile.entries * centered / math.sqrt(N)
        sa = np.sort(np.linalg.svd(A, compute_uv=False))[::-1]
        sb = np.sort(np.linalg.svd(Bm, compute_uv=False))[::-1]
        q = len(sa)
        lhs = float(np.sum((sa - sb) ** 2))
        fro = float(np.sum(np.abs(A - Bm) ** 2))
        ok &= lhs <= fro + 1e-12
        dm = d_metric(EmpiricalDistribution(np.sort(sa)), EmpiricalDistribution(np.sort(sb)))
        chain_mid = float(np.mean(np.abs(sa - sb)))
        rms = math.sqrt(lhs / q)
        ok &= dm <= chain_mid + 1e-12 <= rms + 1e-12
        details.append(f"t{trial}: ks {ks:.3f} <= {rows_touched}/{n}")
    report("criterion 7 (perturbation lemmas)", ok, "; ".join(details))


def test_criterion_8_tightness_planner():
    """Greedy vs brute force on small spiked instances; invariants at scale."""
    rng = np.random.default_rng(808)
    ok = True
    worst_gap = 0.0
    for _ in range(10):
        n, N = int(rng.integers(3, 9)), int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        entries = rng.uniform(0.2, 1.8, (n, N))
        entries.flat[rng.choice(n * N, size=k, replace=False)] = 40.0
        profile = validate_profile(entries)
        eps = float(rng.uniform(0.2, 0.9))
        plan = plan_truncation(profile, eps)
        opt = brute_force_min_M(entries, plan.budget)
        gap = plan.M - opt
        background = entries[entries < 40.0].max()
        ok &= gap >= -1e-12 and (abs(gap) <= 1e-12 or gap <= background)
        worst_gap = max(worst_gap, gap)
    for _ in range(100):
        n, N = int(rng.integers(4, 40)), int(rng.integers(4, 40))
        entries = rng.uniform(0.1, 2.0, (n, N))
        k = int(rng.integers(0, 5))
        if k:
            entries.flat[rng.choice(n * N, size=k, replace=False)] = rng.uniform(5, 50)
        profile = validate_profile(entries)
        eps = float(rng.uniform(0.05, 0.95))
        plan = plan_truncation(profile, eps)
        ok &= plan.lines_used <= eps * n
        row_ok = np.ones(n, bool)
        row_ok[list(plan.rows_removed)] = False
        col_ok = np.ones(N, bool)
        col_ok[list(plan.cols_removed)] = False
        surviving = entries[np.ix_(row_ok, col_ok)]
        ok &= surviving.size == 0 or surviving.max() <= plan.M + 1e-12
    report("criterion 8 (tightness planner)", ok,
           f"brute-force gap <= {worst_gap:.3g}; invariants held on 100 instances")


def test_criterion_9_local_contraction(test_profiles):
    """Undamped iteration contracts monotonically from a 1e-3 perturbation."""
    ok = True
    worst_iters = 0
    for name, profile in test_profiles.items():
        for z in (1.0 + 0.35j, 0.5 + 0.2j, 1.0 + 0.1j):
            sol = solve_e0(profile, z)
            e = sol.e0 + 1e-3 * (1 + 1j) / math.sqrt(2)
            errs = [float(np.max(np.abs(e - sol.e0)))]
            for _ in range(200):
                e = iterate_e(profile, e, z)
                errs.append(float(np.max(np.abs(e - sol.e0))))
                if errs[-1] <= 1e-10:
                    break
            tail = errs[1:]
            ok &= errs[-1] <= 1e-10
            ok &= all(b < a for a, b in zip(tail, tail[1:]))
            worst_iters = max(worst_iters, len(errs) - 1)
    report("criterion 9 (local contraction of the iteration)", ok,
           f"monotone decay to 1e-10 within {worst_iters} <= 200 iterations")
