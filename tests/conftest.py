"""Fixtures and the sampling, reconstruction and majorization helpers that
only the tests use; the library itself never samples."""

from hypothesis import settings
import numpy as np
import pytest

from absq.bloch import BlochBipartite, BlochTripartite, _augmented
from absq.errors import AbsqError, DimensionMismatch
from absq.states import DensityMatrix

# property tests draw the same examples on every run and are not timed
settings.register_profile("absq", derandomize=True, deadline=None)
settings.load_profile("absq")

# majorizes: the gap allowed between totals, and between prefix sums
MAJORIZATION_SUM_TOL = 1e-10
MAJORIZATION_PREFIX_TOL = 1e-12


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(n, rng):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2.0


def bits(x):
    """The bytes of x as an array, for bitwise comparisons."""
    return np.asarray(x).tobytes()


def random_density(dims, seed) -> DensityMatrix:
    """Full-rank random state: G G^dagger / Tr(G G^dagger) with complex
    Gaussian G."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(list(dims)))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, tuple(dims))


def haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R diagonal phase-corrected.  Deterministic for a given seed; seed may
    be an int or a numpy Generator (caller-owned state)."""
    if dim < 1:
        raise DimensionMismatch(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diag(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def reconstruct_bipartite(bb: BlochBipartite) -> np.ndarray:
    """(I x I + sum a_m s_m x I + sum b_n I x s_n + sum t_mn s_m x s_n) / d^2,
    contracted over the augmented basis the decomposition used."""
    d = bb.d
    c = np.empty((d * d, d * d))
    c[0, 0], c[1:, 0], c[0, 1:], c[1:, 1:] = 1.0, bb.a, bb.b, bb.t
    full = _augmented(d)
    m = np.einsum("mn,mac,nbd->abcd", c / (d * d), full, full, optimize=True)
    return m.reshape(d * d, d * d)


def reconstruct_tripartite(bt: BlochTripartite) -> np.ndarray:
    """I/d^3 + (1/(2d^2)) sum t_i s_i x I x I + ... + (1/8) sum t_ijk s_i x s_j x s_k."""
    d = bt.d
    c = np.empty((d * d,) * 3)
    c[0, 0, 0] = 1.0 / d**3
    c[1:, 0, 0], c[0, 1:, 0], c[0, 0, 1:] = (t / (2 * d * d) for t in (bt.t1, bt.t2, bt.t3))
    c[1:, 1:, 0], c[1:, 0, 1:], c[0, 1:, 1:] = (t / (4 * d) for t in (bt.t12, bt.t13, bt.t23))
    c[1:, 1:, 1:] = bt.t123 / 8.0
    full = _augmented(d)
    m = np.einsum("ijk,iad,jbe,kcf->abcdef", c, full, full, full, optimize=True)
    return m.reshape(d**3, d**3)


class SumMismatch(AbsqError):
    """Vectors compared under majorization have different totals."""


def majorizes(r, s) -> bool:
    """True when r majorizes s: equal totals and every prefix sum of the
    non-increasing rearrangement of r dominates that of s."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if r.shape != s.shape or r.ndim != 1:
        raise DimensionMismatch(f"vectors must share one shape, got {r.shape} and {s.shape}")
    if abs(float(np.sum(r) - np.sum(s))) > MAJORIZATION_SUM_TOL:
        raise SumMismatch(f"totals differ: {np.sum(r):.12g} vs {np.sum(s):.12g}")
    rd = np.sort(r)[::-1]
    sd = np.sort(s)[::-1]
    prefix = np.cumsum(rd) - np.cumsum(sd)
    return bool(np.all(prefix >= -MAJORIZATION_PREFIX_TOL))
