"""Kraus-operator noise channels and their action on states.

The flip channels use the completeness-consistent normalization
K0 = sqrt(1-p) I, K1 = sqrt(p) sigma; every constructed channel is checked
against sum(K_i^dagger K_i) = I at build time.

Each channel carries its transfer tensor
S[a, a', c, c'] = sum_k K_k[a, c] conj(K_k[a', c']), computed once, so that
(E rho)[a, a'] = sum_{c, c'} S[a, a', c, c'] rho[c, c'].  Reshaped to a
d^2 x d^2 matrix it is sum_k K_k (x) conj(K_k) acting on row-major vec(rho).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import CompletenessViolation, DimensionMismatch, OutOfRange
from .states import DensityMatrix
from .tolerances import HERMITICITY_TOL

_I2 = np.eye(2, dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

CHANNEL_NAMES = (
    "phase_flip",
    "bit_flip",
    "phase_damping",
    "amplitude_damping",
    "depolarizing",
)


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by its Kraus operators, with the transfer tensor
    built from them (see the module docstring)."""

    name: str
    parameter: float
    kraus_ops: tuple
    transfer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        object.__setattr__(self, "kraus_ops", ops)
        stack = np.stack(ops)
        s = np.einsum("kac,kbd->abcd", stack, stack.conj())
        object.__setattr__(self, "transfer", s)
        dim = ops[0].shape[0]
        # tracing S over (a, a') gives (sum K^dagger K) transposed
        err = float(np.max(np.abs(np.einsum("aacd->cd", s) - np.eye(dim))))
        if not err <= HERMITICITY_TOL:  # NaN fails too
            raise CompletenessViolation(
                f"sum K^dagger K deviates from identity by {err:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def make_channel(name: str, p: float) -> KrausChannel:
    """Single-qubit channel by name with parameter p in [0, 1]."""
    if not (0 <= p <= 1):
        raise OutOfRange(f"p={p} outside [0, 1]")
    sp = math.sqrt(p)
    sq = math.sqrt(1.0 - p)
    if name == "phase_flip":
        ops = (sq * _I2, sp * _SZ)
    elif name == "bit_flip":
        ops = (sq * _I2, sp * _SX)
    elif name == "phase_damping":
        ops = (
            np.array([[1, 0], [0, sq]], dtype=complex),
            np.array([[0, 0], [0, sp]], dtype=complex),
        )
    elif name == "amplitude_damping":
        ops = (
            np.array([[1, 0], [0, sq]], dtype=complex),
            np.array([[0, sp], [0, 0]], dtype=complex),
        )
    elif name == "depolarizing":
        s3 = math.sqrt(p / 3.0)
        ops = (sq * _I2, s3 * _SX, s3 * _SY, s3 * _SZ)
    else:
        raise OutOfRange(f"unknown channel {name!r}; expected one of {CHANNEL_NAMES}")
    return KrausChannel(name, p, ops)


def apply(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_i K_i rho K_i^dagger on a state of matching dimension."""
    if ch.dim != rho.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} != state dim {rho.dim}")
    out = np.einsum("abcd,cd->ab", ch.transfer, rho.matrix)
    return DensityMatrix(out, rho.dims)


def double_apply(ch_a: KrausChannel, ch_b: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply ch_a to subsystem A and ch_b to subsystem B of a two-qubit state."""
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"expected a (2, 2) state, got dims {rho.dims}")
    if ch_a.dim != 2 or ch_b.dim != 2:
        raise DimensionMismatch("double_apply needs single-qubit channels")
    # reshuffle rho[(a b), (a' b')] into R[(a a'), (b b')]; then the product
    # channel acts as S_a R S_b^T with S_x the 4x4 transfer matrices
    r = _reshuffle(rho.matrix)
    out = ch_a.transfer.reshape(4, 4) @ r @ ch_b.transfer.reshape(4, 4).T
    return DensityMatrix(_reshuffle(out), rho.dims)


def _reshuffle(m: np.ndarray) -> np.ndarray:
    # an involution on 4x4 matrices: m[(a b), (a' b')] <-> m[(a a'), (b b')]
    return m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def global_depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """(1 - p) rho + p I / d^2 on a bipartite d x d state."""
    if not (0 <= p <= 1):
        raise OutOfRange(f"p={p} outside [0, 1]")
    if len(rho.dims) != 2 or rho.dims[0] != rho.dims[1]:
        raise DimensionMismatch(f"expected equal bipartite dims, got {rho.dims}")
    n = rho.dim
    out = (1.0 - p) * rho.matrix + (p / n) * np.eye(n)
    return DensityMatrix(out, rho.dims)


def global_depolarize_spectrum(eigs: np.ndarray, p: float) -> np.ndarray:
    """Spectrum of global_depolarize(rho, p) from the spectrum of rho.

    Mixing with the identity shifts every eigenvalue alike, so the map is
    (1 - p) eigs + p / n in the order given; no matrix is formed.
    """
    if not (0 <= p <= 1):
        raise OutOfRange(f"p={p} outside [0, 1]")
    eigs = np.asarray(eigs, dtype=float)
    return (1.0 - p) * eigs + p / eigs.size
