import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from hadspec import (
    DensityCurve,
    EmpiricalDistribution,
    EmptyMatrixError,
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
        with pytest.raises(NegativeEntryError) as err:
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
    def test_ratio_exact_rational(self):
        p = validate_profile(np.ones((50, 100)))
        assert p.ratio == Fraction(1, 2)
        assert p.c == 0.5

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
        p.to_csv(path)
        q = WeightProfile.from_csv(path)
        assert np.array_equal(p.entries, q.entries)
        assert (p.n, p.N) == (q.n, q.N)

    def test_column_masses(self):
        p = validate_profile([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(p.column_masses, [(1 + 9) / 2, (4 + 16) / 2])

    def test_scaled(self):
        p = validate_profile(np.ones((2, 2)))
        assert p.scaled(2.0).max_entry == 2.0

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
        with pytest.raises(ValueError):
            ZGrid((SpectralPoint(0, 1), SpectralPoint(0, 2)))
        g = ZGrid.vertical(0.0, [1e-2, 1e-1, 1.0])
        assert [p.v for p in g] == [1.0, 1e-1, 1e-2]
        # exact duplicates are legal (continuation determinism is tested on them)
        ZGrid((SpectralPoint(0, 1), SpectralPoint(0, 1)))

    def test_product_ordering(self):
        g = ZGrid.product([0.0, 1.0], [0.1, 1.0])
        assert [(p.x, p.v) for p in g] == [(0, 1), (0, 0.1), (1, 1), (1, 0.1)]


class TestEmpiricalDistribution:
    def test_sorted_required(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(np.array([2.0, 1.0]))

    def test_cdf_step(self):
        d = EmpiricalDistribution.from_values([3.0, 1.0, 2.0])
        assert d.cdf(0.5) == 0.0
        assert d.cdf(1.0) == pytest.approx(1 / 3)
        assert d.cdf_left(1.0) == 0.0
        assert d.cdf(10.0) == 1.0


class TestDensityCurve:
    def test_invariants_enforced(self):
        xs = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            DensityCurve(xs=xs, density=np.array([-1.0, 0.0]), cdf=np.array([0.0, 1.0]),
                         eta_used=(1e-2,))
        with pytest.raises(ValueError):
            DensityCurve(xs=xs, density=np.array([1.0, 0.0]), cdf=np.array([1.0, 0.0]),
                         eta_used=(1e-2,))

    def test_cdf_interp_clamps(self):
        c = DensityCurve(xs=np.array([0.0, 1.0]), density=np.array([1.0, 1.0]),
                         cdf=np.array([0.0, 1.0]), eta_used=(1e-2,))
        assert c.cdf_at(-5.0) == 0.0
        assert c.cdf_at(5.0) == 1.0
        assert c.cdf_at(0.5) == pytest.approx(0.5)
        assert not c.partial
