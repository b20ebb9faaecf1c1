import numpy as np
import pytest

from hadspec import stieltjes, validate_profile


@pytest.fixture(scope="session")
def ones16():
    return validate_profile(np.ones((16, 16)))


@pytest.fixture(scope="session")
def rand_profile():
    """Bounded random profile, entries iid uniform[0, 2], aspect 1/2."""
    rng = np.random.default_rng(20240831)
    return validate_profile(rng.uniform(0.0, 2.0, (20, 40)))


@pytest.fixture(scope="session")
def rand_profiles_50x100():
    """The ten seeded bounded profiles used by the certificate criteria."""
    out = []
    for k in range(10):
        rng = np.random.default_rng(1000 + k)
        out.append(validate_profile(rng.uniform(0.0, 2.0, (50, 100))))
    return out


@pytest.fixture(scope="session")
def repeated_profile():
    """Block profile whose 6 rows and 9 columns collapse to 3 x 3 unique ones."""
    base = np.array([[0.5, 1.5, 1.0], [2.0, 0.3, 1.0], [1.0, 1.0, 0.2]])
    return validate_profile(np.repeat(np.repeat(base, [2, 1, 3], axis=0), [3, 2, 4], axis=1))


@pytest.fixture
def uncertify(monkeypatch):
    """Leave chosen points of the inversion sweeps uncertified, whatever their solve did.

    uncertify({eta: abscissae, ...}) wraps stieltjes._finish so that every
    point of level eta at one of the abscissae x given for it comes back
    with certified False: cdf_interval's node x + i eta, or density_curve's
    point (sqrt(x) + i eta)^2.  G, the certificate, the iterates and every
    other point are left as solved.  A later call replaces the pattern.
    Returns the list of the zs that _finish has seen, one array per level
    of each sweep, in order; the atom's solve_grid block is not among them.
    """
    finish, seen = stieltjes._finish, []

    def install(pattern):
        marked = np.zeros(0, dtype=complex)
        for eta, xs in pattern.items():
            xs = np.asarray(xs, dtype=float)
            marked = np.concatenate([marked, xs + 1j * eta, (np.sqrt(xs.clip(0.0)) + 1j * eta) ** 2])

        def cleared(profile, e_red, zs, res, tol):
            seen.append(zs)
            g, rho, defect, ok = finish(profile, e_red, zs, res, tol)
            hit = np.isclose(zs[:, None], marked[None, :], rtol=1e-12, atol=0.0).any(axis=1)
            return g, rho, defect, ok & ~hit

        monkeypatch.setattr(stieltjes, "_finish", cleared)
        return seen

    return install
