from hypothesis import settings
import numpy as np
import pytest

# property tests draw the same examples on every run and are not timed
settings.register_profile("absq", derandomize=True, deadline=None)
settings.load_profile("absq")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def bits(x):
    """The bytes of x as an array, for bitwise comparisons."""
    return np.asarray(x).tobytes()
