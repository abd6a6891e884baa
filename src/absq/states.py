"""Validated density matrices and factories for every named state used here.

Basis ordering is big-endian throughout: |abc> sits at index 4a + 2b + c for
qubits and the analogous radix-d rule for qudits.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import warnings

import numpy as np

from .errors import DimensionMismatch, InvalidState, NotNormalized, OutOfRange
from .linalg import (
    _check_hermitian,
    _hermitian_defect,
    _require_square,
    eigvals_hermitian,
    partial_trace,
)
from .tolerances import BETA_SLACK, HERMITICITY_TOL, PSD_FLOOR, TRACE_TOL


def _factorizes(h: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class DensityMatrix:
    """A quantum state: Hermitian, unit-trace, positive-semidefinite matrix
    together with its subsystem dimensions (e.g. (2, 2) for two qubits)."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        dims = tuple(self.dims)
        if not all(isinstance(d, (int, np.integer)) and d >= 1 for d in dims):
            raise DimensionMismatch(f"subsystem dims must be integers >= 1, got {dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        if m.ndim != 2:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        _require_square(m, self.dims)
        self.validate(m)

    @staticmethod
    def validate(m: np.ndarray) -> None:
        """Check that every member of a stack (..., n, n) of matrices is a
        density matrix: finite entries, Hermitian, unit trace, smallest
        eigenvalue at least PSD_FLOOR.

        The checks run once over the whole stack.  A rejected stack raises
        what validating its first rejected member alone raises: InvalidState
        or NotHermitian, with that member's message.
        """
        m = np.asarray(m, dtype=complex)
        n = _require_square(m)
        members = m.reshape(-1, n, n)
        # NaN slips through every comparison below, so it is tested first
        finite = np.isfinite(members).all(axis=(1, 2))
        traces = np.trace(members, axis1=1, axis2=2)
        off = traces - 1.0
        hermitian = _hermitian_defect(members) <= HERMITICITY_TOL
        # np.hypot, not np.abs: it rounds as Python's abs(complex) does
        failed = ~(finite & hermitian & (np.hypot(off.real, off.imag) <= TRACE_TOL))
        rejected = failed.any()
        # lambda_min >= PSD_FLOOR iff H - PSD_FLOOR I is positive definite
        # (up to roundoff); only a failed factorization pays for a spectrum
        picked = members[~failed] if rejected else members
        shifted = (picked + np.swapaxes(picked.conj(), 1, 2)) / 2.0 - PSD_FLOOR * np.eye(n)
        lowest = {}
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            refused = [i for i, h in zip(np.flatnonzero(~failed), shifted) if not _factorizes(h)]
            for i, lo in zip(refused, eigvals_hermitian(members[refused])[:, -1]):
                if lo < PSD_FLOOR:
                    failed[i] = True
                    lowest[i] = lo
                    rejected = True
        if not rejected:
            return
        first = int(np.argmax(failed))
        if not finite[first]:
            raise InvalidState("density matrix has a non-finite entry")
        _check_hermitian(members[first])
        if abs(complex(traces[first]) - 1.0) > TRACE_TOL:
            raise InvalidState(f"trace = {complex(traces[first]):.12g}, expected 1")
        raise InvalidState(f"negative eigenvalue {lowest[first]:.3e} below PSD floor")

    def marginal(self, keep) -> "DensityMatrix":
        """Reduced state on the kept subsystems."""
        keep = sorted(set(keep))
        reduced = partial_trace(self.matrix, list(self.dims), keep)
        return DensityMatrix(reduced, tuple(self.dims[i] for i in keep))


def _local_dim(rho: DensityMatrix) -> int:
    """d of a bipartite d x d state; any other dims raise DimensionMismatch."""
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise DimensionMismatch(f"expected equal bipartite dims, got {rho.dims}")
    return rho.dims[0]


def _require_two_qubit(rho: DensityMatrix, name: str) -> None:
    """Any dims of the state called name other than (2, 2) raise DimensionMismatch."""
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"{name}: expected a (2, 2) state, got dims {rho.dims}")


def _unit_interval(ps) -> np.ndarray:
    """ps as a flat float array, each p checked to lie in [0, 1]."""
    ps = np.asarray(ps, dtype=float).reshape(-1)
    outside = ~((0 <= ps) & (ps <= 1))  # NaN is outside too
    if outside.any():
        raise OutOfRange(f"p={float(ps[np.argmax(outside)])} outside [0, 1]")
    return ps


def _projector(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


def _schmidt_ket(theta: float) -> np.ndarray:
    if not (0 <= theta <= math.pi / 2):
        raise OutOfRange(f"theta={theta} outside [0, pi/2]")
    if theta in (0.0, math.pi / 2):
        warnings.warn("theta at an endpoint gives a product (unentangled) state")
    vec = np.zeros(4, dtype=complex)
    vec[0] = math.cos(theta)
    vec[3] = math.sin(theta)
    return vec


def pure_schmidt(theta: float) -> DensityMatrix:
    """Two-qubit pure state cos(theta)|00> + sin(theta)|11>.

    theta at 0 or pi/2 is accepted but yields a product state, which is
    flagged with a warning.
    """
    return DensityMatrix(_projector(_schmidt_ket(theta)), (2, 2))


def depolarized_schmidt(theta: float, p: float) -> DensityMatrix:
    """Globally depolarized pure Schmidt state, parameterized by the
    surviving state weight: p |psi(theta)><psi(theta)| + (1 - p) I/4.

    Its eigenvalues are (1 + 3p)/4 and (1 - p)/4 (three-fold), independent
    of theta.
    """
    return DensityMatrix(depolarized_schmidt_stack([theta], [p])[0], (2, 2))


def depolarized_schmidt_stack(thetas, ps) -> np.ndarray:
    """The matrices of depolarized_schmidt(thetas[i], ps[i]) as one
    (len(ps), 4, 4) array, not yet validated: check them as one stack with
    DensityMatrix.validate, or hand them to a function that does, such as
    swap.retrieval_grid.  Out-of-range arguments raise as
    depolarized_schmidt does, p first."""
    ps = _unit_interval(ps)
    kets = np.array([_schmidt_ket(theta) for theta in thetas])
    if kets.shape != (ps.size, 4):
        raise DimensionMismatch(f"{len(kets)} values of theta for {ps.size} values of p")
    # mixing weight 1 - p of the identity, rounded as in global_depolarize
    mixed = (1.0 - ps)[:, None, None]
    return (1.0 - mixed) * (kets[:, :, None] * kets.conj()[:, None, :]) + (mixed / 4) * np.eye(4)


def acin_two_param(lam: float, theta: float) -> DensityMatrix:
    """Two-parameter 4x4 mixed family: corner weights (1-lam)/2 and a
    rank-one central block of trace lam."""
    if not 0 < lam < 1:
        raise OutOfRange(f"lambda={lam} outside (0, 1)")
    if not 0 < theta < math.pi / 2:
        raise OutOfRange(f"theta={theta} outside (0, pi/2)")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = (1.0 - lam) / 2.0
    m[1, 1] = lam * math.sin(theta) ** 2
    m[2, 2] = lam * math.cos(theta) ** 2
    m[1, 2] = m[2, 1] = lam * math.sin(theta) * math.cos(theta)
    return DensityMatrix(m, (2, 2))


def max_entangled(d: int) -> np.ndarray:
    """Ket of the maximally entangled state sum_i |ii> / sqrt(d)."""
    vec = np.zeros(d * d, dtype=complex)
    for i in range(d):
        vec[i * d + i] = 1.0
    return vec / math.sqrt(d)


def _check_isotropic(d: int, beta: float) -> None:
    """d >= 2 and beta in the admissible range [-1/(d^2 - 1), 1]."""
    if not (d >= 2):
        raise OutOfRange(f"d={d} must be >= 2")
    lo = -1 / (d * d - 1)  # int division: exact where d * d is beyond a float
    if not (lo - BETA_SLACK <= beta <= 1 + BETA_SLACK):
        raise OutOfRange(f"beta={beta} outside [{lo}, 1]")


def isotropic(d: int, beta: float) -> DensityMatrix:
    """Isotropic two-qudit state beta |psi+><psi+| + (1 - beta) I / d^2.

    Its spectrum is isotropic_spectrum(d, beta).  A d whose d^2 x d^2
    matrix numpy cannot address raises MemoryError before any allocation.
    """
    _check_isotropic(d, beta)
    n = d * d
    if 16 * n * n > np.iinfo(np.intp).max:  # bytes of a complex n x n matrix
        raise MemoryError(f"d={d}: the {n} x {n} matrix of the state is too big to allocate")
    m = beta * _projector(max_entangled(d)) + (1.0 - beta) * np.eye(n) / n
    return DensityMatrix(m, (d, d))


def isotropic_spectrum(d: int, beta: float) -> np.ndarray:
    """The non-increasing spectrum of isotropic(d, beta) in closed form:
    (1 + beta (d^2 - 1)) / d^2 once and (1 - beta) / d^2 with multiplicity
    d^2 - 1, the single eigenvalue last for beta < 0.  No matrix is built."""
    _check_isotropic(d, beta)
    n = d * d
    eigs = np.full(n, (1.0 - beta) / n)
    eigs[0 if beta >= 0 else -1] = (1.0 + beta * (n - 1)) / n
    return eigs


def acin_tripartite(x, theta: float) -> DensityMatrix:
    """Three-qubit pure state
    x0|000> + x1 e^{i theta}|100> + x2|101> + x3|110> + x4|111>.

    The amplitudes must already be normalized; sum(x_i^2) is checked, not
    silently fixed.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (5,):
        raise DimensionMismatch(f"expected 5 amplitudes, got shape {x.shape}")
    if not (0 <= theta <= math.pi):
        raise OutOfRange(f"theta={theta} outside [0, pi]")
    with np.errstate(over="ignore"):  # an overflowing square is refused below as inf
        norm2 = float(np.sum(x * x))
    if abs(norm2 - 1.0) > TRACE_TOL:  # the trace of its projector
        raise NotNormalized(f"sum(x_i^2) = {norm2:.12g}, expected 1")
    vec = np.zeros(8, dtype=complex)
    vec[0] = x[0]
    vec[4] = x[1] * np.exp(1j * theta)
    vec[5] = x[2]
    vec[6] = x[3]
    vec[7] = x[4]
    return DensityMatrix(_projector(vec), (2, 2, 2))


def ghz_w_mix(p: float) -> DensityMatrix:
    """Mixture p |GHZ><GHZ| + (1 - p) |W><W| on three qubits."""
    if not (0 <= p <= 1):
        raise OutOfRange(f"p={p} outside [0, 1]")
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2)
    w = np.zeros(8, dtype=complex)
    w[1] = w[2] = w[4] = 1.0 / math.sqrt(3)
    m = p * _projector(ghz) + (1.0 - p) * _projector(w)
    return DensityMatrix(m, (2, 2, 2))


# Bell convention: indices 0..3 are psi+, psi-, phi+, phi- with
# psi+- = (|00> +- |11>)/sqrt(2) and phi+- = (|01> +- |10>)/sqrt(2).
_BELL_VECTORS = (
    (1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, 1, 1, 0),
    (0, 1, -1, 0),
)


def bell_state(index: int) -> DensityMatrix:
    """Projector onto one of the four Bell states (see module convention)."""
    if index not in (0, 1, 2, 3):
        raise OutOfRange(f"Bell index must be 0..3, got {index}")
    vec = np.array(_BELL_VECTORS[index], dtype=complex) / math.sqrt(2)
    return DensityMatrix(_projector(vec), (2, 2))


def random_density(dims, seed) -> DensityMatrix:
    """Full-rank random state: G G^dagger / Tr(G G^dagger) with complex
    Gaussian G.  Used by tests and sampling checks."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(list(dims)))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, tuple(dims))

