import dataclasses
import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

from hadspec import (
    DensityCurve,
    EmpiricalDistribution,
    EmptyMatrixError,
    FixedPointSolution,
    InversionConfig,
    NegativeEntryError,
    SpectralPoint,
    WeightProfile,
    ZeroColumnError,
    ZGrid,
    validate_profile,
)
from hadspec.core import NonFiniteEntryError, ReducedProfile
from hadspec.experiments import make_profile

import hadspec

from _oracles import reduced_profile_reference


def _tied_first_column(request):
    # rows tie on the first column and are told apart by later ones
    entries = make_profile("iid_uniform:0,2", 40, 30, seed=2).entries.copy()
    entries[:, 0] = 1.0
    entries[::2, 1] = 0.5
    return validate_profile(entries)


def _integers_with_zeros(request):
    entries = np.random.default_rng(6).integers(0, 3, (30, 40)).astype(float)
    entries[0] = 1.0                                     # no zero column
    return validate_profile(entries)


REDUCED_CASES = {
    "iid": lambda request: make_profile("iid_uniform:0,2", 40, 60, seed=1),
    "iid_tied_first_column": _tied_first_column,
    "block": lambda request: make_profile("block:0.5,1.5", 24, 36),
    "constant": lambda request: make_profile("constant:30", 6, 10),
    "integers_with_zeros": _integers_with_zeros,
    "repeated_profile": lambda request: request.getfixturevalue("repeated_profile"),
    "row": lambda request: make_profile("iid_uniform:0,2", 1, 12, seed=3),
    "column": lambda request: make_profile("iid_uniform:0,2", 12, 1, seed=3),
}


def test_import_loads_no_scipy():
    # scipy.integrate alone adds about 0.5 s and 50 MB to the import
    src = os.path.dirname(os.path.dirname(hadspec.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hadspec; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_root_exports_the_user_api_only():
    # one public solve (solve_grid); reference oracles, benchmark-only
    # checks and empirical_spectrum's internals stay in their modules
    names = {name for name, value in vars(hadspec).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == {
        "DensityCurve", "EmpiricalDistribution", "EmptyMatrixError", "FixedPointSolution",
        "NegativeEntryError", "ProfileValidationError", "SpectralPoint", "WeightProfile",
        "ZGrid", "ZeroColumnError", "validate_profile", "SolverConfig", "solve_grid",
        "InversionConfig", "density_curve", "EntrySampler", "empirical_spectrum", "d_metric",
        "ks_distance", "plan_truncation", "truncate_profile", "ExperimentSpec", "make_profile",
        "run_experiment"}


class TestValidateProfile:
    def test_all_ones_valid(self):
        p = validate_profile(np.ones((2, 2)))
        assert p.n == p.N == 2
        assert p.max_entry == 1.0

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroColumnError) as err:
            validate_profile([[1.0, 0.0], [1.0, 0.0]])
        assert err.value.k == 1  # 0-based second column

    def test_negative_entry_rejected(self):
        # the message shows the float, not numpy's np.float64(-0.5)
        with pytest.raises(NegativeEntryError,
                           match=r"^negative weight -0\.5 at row 0, column 0 ") as err:
            validate_profile([[-0.5, 1.0], [1.0, 1.0]])
        assert (err.value.i, err.value.j) == (0, 0)
        assert err.value.value == -0.5

    def test_empty_rejected(self):
        with pytest.raises(EmptyMatrixError):
            validate_profile(np.zeros((0, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteEntryError):
            validate_profile([[1.0, np.nan], [1.0, 1.0]])

    def test_first_violation_reported(self):
        # row-major first offender
        with pytest.raises(NegativeEntryError) as err:
            validate_profile([[1.0, -1.0], [-2.0, 1.0]])
        assert (err.value.i, err.value.j) == (0, 1)

    def test_row_vector_accepted(self):
        p = validate_profile([1.0, 2.0, 3.0])
        assert (p.n, p.N) == (1, 3)


class TestWeightProfile:
    def test_aspect_ratio(self):
        assert validate_profile(np.ones((50, 100))).c == 0.5

    def test_entries_read_only(self):
        p = validate_profile(np.ones((2, 3)))
        with pytest.raises(ValueError):
            p.entries[0, 0] = 5.0

    def test_csv_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        raw = rng.uniform(0, 2, (5, 7))
        raw[0, 0] = 1.0 / 3.0
        raw[1, 1] = 1e-300
        raw[2, 2] = 12345.678901234567
        p = validate_profile(raw)
        path = os.path.join(tmp_path, "profile.csv")
        np.savetxt(path, p.entries, fmt="%.17g", delimiter=",")
        q = WeightProfile.from_csv(path)
        assert np.array_equal(p.entries, q.entries)
        assert (p.n, p.N) == (q.n, q.N)

    def test_column_masses(self):
        p = validate_profile([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(p.column_masses, [(1 + 9) / 2, (4 + 16) / 2])

    def test_reduced_groups_identical_columns(self):
        p = validate_profile([[1.0, 1.0, 2.0], [1.0, 1.0, 2.0]])
        red = p.reduced
        assert red.d2.shape == (1, 2)
        assert sorted(red.col_mult.tolist()) == [1.0, 2.0]
        assert red.row_mult.sum() == 2
        # expansion indices cover every original column
        assert sorted(red.col_inverse.tolist()) in ([0, 0, 1], [0, 1, 1])

    @pytest.mark.parametrize("name", list(REDUCED_CASES))
    def test_reduced_matches_np_unique_construction(self, name, request):
        profile = REDUCED_CASES[name](request)
        red, ref = profile.reduced, reduced_profile_reference(profile)
        for f in dataclasses.fields(ReducedProfile):
            got, want = getattr(red, f.name), getattr(ref, f.name)
            assert got.dtype == want.dtype, f.name
            assert np.array_equal(got, want), f.name


class TestSpectralPoint:
    def test_upper_half_plane_enforced(self):
        with pytest.raises(ValueError):
            SpectralPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            SpectralPoint(0.0, -1.0)

    def test_z_accessor(self):
        assert SpectralPoint(0.5, 0.2).z == 0.5 + 0.2j


class TestZGrid:
    def test_nonempty(self):
        with pytest.raises(ValueError):
            ZGrid(())

    def test_descending_v_within_equal_x(self):
        # the order ZGrid.product gives; a grid itself takes any order
        g = ZGrid.product([0.0], [1e-2, 1e-1, 1.0])
        assert [p.v for p in g] == [1.0, 1e-1, 1e-2]
        assert len(ZGrid((SpectralPoint(0, 1), SpectralPoint(0, 2)))) == 2

    def test_product_ordering(self):
        g = ZGrid.product([0.0, 1.0], [0.1, 1.0])
        assert [(p.x, p.v) for p in g] == [(0, 1), (0, 0.1), (1, 1), (1, 0.1)]


class TestEmpiricalDistribution:
    def test_sorted_required(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(np.array([2.0, 1.0]))

    def test_cdf_step(self):
        d = EmpiricalDistribution(np.array([1.0, 2.0, 3.0]))
        assert d.cdf_at(0.5) == 0.0
        assert d.cdf_at(1.0) == pytest.approx(1 / 3)
        assert d.cdf_left(1.0) == 0.0
        assert d.cdf_at(10.0) == 1.0

    @pytest.mark.parametrize("atoms", [[0.0, np.nan, 1.0], [np.inf], [-np.inf, 0.0]])
    def test_nonfinite_refused(self, atoms):
        with pytest.raises(ValueError, match="finite values"):
            EmpiricalDistribution(np.array(atoms))


class TestDensityCurve:
    @pytest.mark.parametrize("xs, rho_s, atom", [
        ([0.25, np.nan], [1.0, 1.0], 0.0), ([0.25, np.inf], [1.0, 1.0], 0.0),
        ([0.25, 1.0], [np.nan, 1.0], 0.0), ([0.25, 1.0], [1.0, np.inf], 0.0),
        ([0.25, 1.0], [1.0, 1.0], np.nan), ([0.25, 1.0], [1.0, 1.0], np.inf),
        ([0.25, 1.0], [1.0, 1.0], -3.0)])
    def test_nonfinite_or_negative_atom_refused(self, xs, rho_s, atom):
        # an atom of -3 once gave total_mass -0.17
        with pytest.raises(ValueError, match="must be finite, atom_at_zero nonnegative"):
            DensityCurve(xs=np.array(xs), rho_s=np.array(rho_s), eta_used=(1e-2,),
                         atom_at_zero=atom)

    def test_invariants_enforced(self):
        xs = np.array([0.25, 1.0])
        with pytest.raises(ValueError, match="rho_s must be nonnegative"):
            DensityCurve(xs=xs, rho_s=np.array([-1.0, 0.0]), eta_used=(1e-2,))
        with pytest.raises(ValueError, match="equal lengths"):
            DensityCurve(xs=xs, rho_s=np.array([1.0]), eta_used=(1e-2,))

    def test_negative_mass(self):
        # a curve holds no mass below 0 by construction: its grid points
        # are positive, and cdf_at is 0 below 0 and the atom at 0
        for xs in ([0.0, 1.0], [-0.5, 1.0]):
            with pytest.raises(ValueError, match="xs must be positive and strictly ascending"):
                DensityCurve(xs=np.array(xs), rho_s=np.array([1.0, 1.0]), eta_used=(1e-2,))
        c = DensityCurve(xs=np.array([1e-8, 1.0]), rho_s=np.array([0.25, 0.25]),
                         eta_used=(1e-2,), atom_at_zero=0.5)
        assert c.cdf_at(-1e-300) == 0.0 and c.cdf_at(0.0) == 0.5

    def test_cdf_interp_clamps(self):
        # linear in sqrt(x) from (0, atom_at_zero); 0 below 0, flat past the grid.
        # The rule puts 0.25 on s in [0, 0.5] and 0.5 on [0.5, 1]
        c = DensityCurve(xs=np.array([0.25, 1.0]), rho_s=np.array([0.25, 0.75]),
                         eta_used=(1e-2,), atom_at_zero=0.25)
        assert np.array_equal(c.cdf, [0.5, 1.0])
        assert c.cdf_at(-5.0) == 0.0
        assert c.cdf_at(0.0) == 0.25
        assert c.cdf_at(0.0625) == pytest.approx(0.375)   # s = 0.25, halfway to s = 0.5
        assert c.cdf_at(0.5625) == pytest.approx(0.75)    # s = 0.75
        assert c.cdf_at(5.0) == 1.0
        assert np.array_equal(c.cdf_at([-1.0, 0.25, 1.0]), [0.0, 0.5, 1.0])
        assert not c.partial

    def test_derived_arrays_are_read_only(self):
        c = DensityCurve(xs=np.array([0.25, 1.0]), rho_s=np.array([1.0, 0.5]), eta_used=(1e-2,))
        assert np.array_equal(c.density, [2.0, 0.5])
        for name in ("cdf", "density"):
            assert not getattr(c, name).flags.writeable
            with pytest.raises(AttributeError):
                setattr(c, name, np.zeros(2))

    def test_cdf_is_the_trapezoid_rule_on_a_partial_curve(self):
        # atom plus the trapezoid rule in s of 2 rho_s from s = 0, rho_s held
        # at its first value on [0, s_1], and no mass across a step holding a
        # failed point (here 0.5, between 0.3 and 0.8)
        xs, rho = np.array([0.1, 0.3, 0.8, 1.2]), np.array([0.4, 0.3, 0.2, 0.1])
        c = DensityCurve(xs=xs, rho_s=rho, eta_used=(1e-2,), atom_at_zero=0.2,
                         failed_xs=(0.5,))
        s, y = np.sqrt(np.r_[0.0, xs]), 2.0 * np.r_[rho[0], rho]
        steps = np.diff(s) * (y[1:] + y[:-1]) / 2.0
        steps[2] = 0.0
        np.testing.assert_allclose(c.cdf, 0.2 + np.cumsum(steps), rtol=1e-15, atol=0.0)
        assert c.partial and c.integrate(np.ones_like) == c.total_mass


class TestIntegrate:
    def test_empirical_is_the_atom_mean(self):
        d = EmpiricalDistribution(np.array([0.0, 1.0, 2.0, 5.0]))
        assert d.integrate(lambda x: x ** 2) == 7.5
        table = d.integrate(lambda x: np.array([x, x ** 2]))
        assert table.shape == (2,) and np.array_equal(table, [2.0, 7.5])

    def test_curve_rows_are_single_integrals(self):
        c = DensityCurve(xs=np.array([0.25, 1.0, 2.0]), rho_s=np.array([0.3, 0.2, 0.1]),
                         eta_used=(1e-2,), atom_at_zero=0.25)
        table = c.integrate(lambda x: np.array([np.ones_like(x), x, np.cos(x)]))
        assert table.shape == (3,)
        assert table[0] == c.total_mass == c.integrate(np.ones_like)
        assert table[1] == c.integrate(lambda x: x)
        assert table[2] == c.integrate(np.cos)


def _empirical():
    atoms = np.array([1.0, 2.0, 3.0])
    return EmpiricalDistribution(atoms), {"atoms": atoms}


def _curve():
    arrays = {"xs": np.array([0.5, 1.0]), "rho_s": np.array([1.0, 1.0])}
    return DensityCurve(eta_used=(1e-2,), **arrays), arrays


def _solution():
    e0 = np.array([1j, 2j])
    return FixedPointSolution(z=SpectralPoint(0.0, 1.0), e0=e0, residual=0.0, rho_C0=0.5,
                              identity_defect=0.0, iterations=1, g=1j, converged=True), {"e0": e0}


def _inversion_config():
    grid = np.linspace(0.5, 2.5, 5)
    return InversionConfig(x_grid=grid), {"x_grid": grid}


@pytest.mark.parametrize("build", [_empirical, _curve, _solution, _inversion_config],
                         ids=["EmpiricalDistribution", "DensityCurve", "FixedPointSolution",
                              "InversionConfig"])
def test_constructor_copies_the_callers_array(build):
    # the caller's array stays writeable and its own; the object holds a
    # read-only copy that editing the caller's array does not reach
    obj, given = build()
    for name, arr in given.items():
        held = getattr(obj, name)
        before = held.copy()
        assert arr.flags.writeable, name
        assert not held.flags.writeable, name
        assert not np.shares_memory(arr, held), name
        arr[0] = -9.0
        assert np.array_equal(held, before), name
