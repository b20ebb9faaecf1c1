import numpy as np
import pytest

from hadspec import validate_profile


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
