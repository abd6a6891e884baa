"""Kraus-operator noise channels and their action on states.

The flip channels use the completeness-consistent normalization
K0 = sqrt(1-p) I, K1 = sqrt(p) sigma; every constructed channel is checked
against sum(K_i^dagger K_i) = I at build time.

Each channel carries its transfer tensor
S[a, a', c, c'] = sum_k K_k[a, c] conj(K_k[a', c']), computed once, so that
(E rho)[a, a'] = sum_{c, c'} S[a, a', c, c'] rho[c, c'].  Reshaped to a
d^2 x d^2 matrix it is sum_k K_k (x) conj(K_k) acting on row-major vec(rho).
transfer_stack builds the tensors of one channel over a whole vector of
parameters at once, and double_apply_stack applies them to stacks of states;
make_channel and double_apply are their cases of one.  A channel on one side
only is the same channel at p = 0 on the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CompletenessViolation, DimensionMismatch, OutOfRange
from .states import DensityMatrix, _local_dim, _require_two_qubit, _unit_interval
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


def _transfer(kraus: np.ndarray) -> np.ndarray:
    """Transfer tensors S[..., a, a', c, c'] of a stack (..., k, d, d) of
    Kraus sets, after checking every set's completeness: tracing S over
    (a, a') gives (sum K^dagger K) transposed."""
    s = np.einsum("...kac,...kbd->...abcd", kraus, kraus.conj())
    dim = kraus.shape[-1]
    err = np.abs(np.einsum("...aacd->...cd", s) - np.eye(dim)).max(axis=(-2, -1))
    bad = ~(err <= HERMITICITY_TOL)  # NaN fails too
    if bad.any():
        raise CompletenessViolation(
            f"sum K^dagger K deviates from identity by {float(err.flat[np.argmax(bad)]):.3e}"
        )
    return s


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
        object.__setattr__(self, "transfer", _transfer(np.stack(ops)))

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def _kraus_stack(name: str, ps) -> np.ndarray:
    """Kraus operators of the named channel at every p of ps, as a
    (len(ps), k, 2, 2) array."""
    ps = _unit_interval(ps)
    sp = np.sqrt(ps)[:, None, None]
    sq = np.sqrt(1.0 - ps)[:, None, None]
    if name == "phase_flip":
        ops = (sq * _I2, sp * _SZ)
    elif name == "bit_flip":
        ops = (sq * _I2, sp * _SX)
    elif name in ("phase_damping", "amplitude_damping"):
        k0 = np.zeros((ps.size, 2, 2), dtype=complex)
        k1 = np.zeros((ps.size, 2, 2), dtype=complex)
        k0[:, 0, 0] = 1.0
        k0[:, 1, 1] = sq[:, 0, 0]
        if name == "phase_damping":
            k1[:, 1, 1] = sp[:, 0, 0]
        else:
            k1[:, 0, 1] = sp[:, 0, 0]
        ops = (k0, k1)
    elif name == "depolarizing":
        s3 = np.sqrt(ps / 3.0)[:, None, None]
        ops = (sq * _I2, s3 * _SX, s3 * _SY, s3 * _SZ)
    else:
        raise OutOfRange(f"unknown channel {name!r}; expected one of {CHANNEL_NAMES}")
    return np.stack(ops, axis=1)


def make_channel(name: str, p: float) -> KrausChannel:
    """Single-qubit channel by name with parameter p in [0, 1]."""
    return KrausChannel(name, p, tuple(_kraus_stack(name, [p])[0]))


def transfer_stack(name: str, ps) -> np.ndarray:
    """Transfer tensors of the named channel at every p of the vector ps, as
    one (len(ps), 2, 2, 2, 2) array: entry i is make_channel(name, ps[i])
    .transfer, and completeness is checked on the whole stack."""
    return _transfer(_kraus_stack(name, ps))


def double_apply(ch_a: KrausChannel, ch_b: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply ch_a to subsystem A and ch_b to subsystem B of a two-qubit state."""
    _require_two_qubit(rho, "rho")
    if ch_a.dim != 2 or ch_b.dim != 2:
        raise DimensionMismatch("double_apply needs single-qubit channels")
    return DensityMatrix(_sandwich(ch_a.transfer, ch_b.transfer, rho.matrix), rho.dims)


def double_apply_stack(s_a: np.ndarray, s_b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """double_apply on stacks: single-qubit transfer tensors s_a and s_b
    (..., 2, 2, 2, 2), as transfer_stack returns them, act on subsystems A
    and B of the two-qubit density matrices m (..., 4, 4).  The three
    leading shapes broadcast.  The result is not validated: check it as one
    stack with DensityMatrix.validate, or hand it to a function that does,
    such as swap.retrieval_grid."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4) or s_a.shape[-4:] != (2, 2, 2, 2) or s_b.shape[-4:] != (2, 2, 2, 2):
        raise DimensionMismatch(
            f"expected two-qubit matrices and single-qubit transfer tensors, got shapes "
            f"{m.shape}, {s_a.shape} and {s_b.shape}"
        )
    return _sandwich(s_a, s_b, m)


def _sandwich(s_a: np.ndarray, s_b: np.ndarray, m: np.ndarray) -> np.ndarray:
    # reshuffle rho[(a b), (a' b')] into R[(a a'), (b b')]; then the product
    # channel acts as S_a R S_b^T with S_x the 4x4 transfer matrices
    s_a = s_a.reshape(s_a.shape[:-4] + (4, 4))
    s_b = s_b.reshape(s_b.shape[:-4] + (4, 4))
    return _reshuffle(s_a @ _reshuffle(m) @ np.swapaxes(s_b, -1, -2))


def _reshuffle(m: np.ndarray) -> np.ndarray:
    # an involution on (stacks of) 4x4 matrices: m[(a b), (a' b')] <-> m[(a a'), (b b')]
    lead = m.shape[:-2]
    return m.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(lead + (4, 4))


def global_depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """(1 - p) rho + p I / d^2 on a bipartite d x d state."""
    if not (0 <= p <= 1):
        raise OutOfRange(f"p={p} outside [0, 1]")
    n = _local_dim(rho) ** 2
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
