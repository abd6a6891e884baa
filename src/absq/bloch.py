"""Bloch-Fano decompositions over the generalized Gell-Mann basis.

Basis ordering is fixed as symmetric pairs, antisymmetric pairs, then
diagonal matrices; correlation norms are ordering-invariant so all the
criteria built on them are unaffected by this choice.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .states import DensityMatrix, _local_dim


@dataclass(frozen=True)
class BlochBipartite:
    """Local Bloch vectors a, b and correlation matrix t of a d x d state."""

    d: int
    a: np.ndarray
    b: np.ndarray
    t: np.ndarray


@dataclass(frozen=True)
class BlochTripartite:
    """One-, two- and three-body correlation tensors of a d x d x d state.

    All entries are raw operator traces; the dimension-dependent prefactors
    live in the formulas that read them, such as marginal_purity.
    """

    d: int
    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
    t12: np.ndarray
    t13: np.ndarray
    t23: np.ndarray
    t123: np.ndarray


def gell_mann_basis(d: int) -> np.ndarray:
    """The d^2 - 1 generalized Gell-Mann matrices for local dimension d,
    stacked as a (d^2 - 1, d, d) array; Tr(s_m s_n) = 2 delta_mn.

    For d = 2 this is exactly (sigma_x, sigma_y, sigma_z).
    """
    if d < 2:
        raise OutOfRange(f"d={d} must be >= 2")
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    h = len(pairs)
    basis = np.zeros((d * d - 1, d, d), dtype=complex)
    for n, (j, k) in enumerate(pairs):
        basis[n, j, k] = basis[n, k, j] = 1.0
        basis[h + n, j, k], basis[h + n, k, j] = -1j, 1j
    for l in range(1, d):
        scale = math.sqrt(2.0 / (l * (l + 1)))
        basis[2 * h + l - 1, range(l), range(l)] = scale
        basis[2 * h + l - 1, l, l] = -l * scale
    return basis


def _augmented(d: int) -> np.ndarray:
    """F = [I, s_1, ..., s_{d^2-1}] as one (d^2, d, d) array: each
    decomposition is one einsum of rho against copies of F, read off in
    slices."""
    return np.concatenate([np.eye(d, dtype=complex)[None], gell_mann_basis(d)])


def decompose_bipartite(rho: DensityMatrix) -> BlochBipartite:
    """Coefficients a_m, b_n, t_mn of the identity/Gell-Mann expansion: with
    C_mn = Tr(rho F_m x F_n) over F = [I, s_1, ...] (one einsum) and
    Tr(s_m s_n) = 2 delta_mn, a = (d/2) C[1:, 0], b = (d/2) C[0, 1:] and
    t = (d^2/4) C[1:, 1:]."""
    d = _local_dim(rho)
    full = _augmented(d)
    r = rho.matrix.reshape(d, d, d, d)
    c = np.real(np.einsum("abcd,mca,ndb->mn", r, full, full))
    return BlochBipartite(d, (d / 2.0) * c[1:, 0], (d / 2.0) * c[0, 1:], (d * d / 4.0) * c[1:, 1:])


def _norm2(x: np.ndarray) -> float:
    """Squared norm sum(x * x) of a Bloch vector or correlation tensor; the
    same float for a strided view as for its contiguous copy (np.dot is not).
    Every Bloch purity formula and criterion takes its norms here."""
    return float(np.sum(x * x))


def purity_from_bloch(bb: BlochBipartite) -> float:
    """Tr(rho^2) expressed through the Bloch data:
    (d^2 + 2d ||a||^2 + 2d ||b||^2 + 4 ||t||^2) / d^4."""
    d = bb.d
    return (d * d + 2 * d * _norm2(bb.a) + 2 * d * _norm2(bb.b) + 4 * _norm2(bb.t)) / d**4


def decompose_tripartite(rho: DensityMatrix) -> BlochTripartite:
    """Raw correlation tensors t1 = C[1:, 0, 0], t12 = C[1:, 1:, 0], ...,
    t123 = C[1:, 1:, 1:] of C_ijk = Tr(rho F_i x F_j x F_k) over
    F = [I, s_1, ...] (one einsum)."""
    if len(rho.dims) != 3 or len(set(rho.dims)) != 1:
        raise DimensionMismatch(f"expected three equal dims, got {rho.dims}")
    d = rho.dims[0]
    full = _augmented(d)
    r = rho.matrix.reshape(d, d, d, d, d, d)
    c = np.real(np.einsum("abcdef,ida,jeb,kfc->ijk", r, full, full, full))
    return BlochTripartite(
        d, c[1:, 0, 0], c[0, 1:, 0], c[0, 0, 1:], c[1:, 1:, 0], c[1:, 0, 1:], c[0, 1:, 1:], c[1:, 1:, 1:]
    )


MARGINAL_PAIRS = ("23", "13", "12")

_PAIR_FIELDS = {
    "23": ("t2", "t3", "t23"),
    "13": ("t1", "t3", "t13"),
    "12": ("t1", "t2", "t12"),
}


def pair_tensors(bt: BlochTripartite, pair: str):
    """The (t_x, t_y, t_xy) tensors describing one retained pair."""
    if pair not in _PAIR_FIELDS:
        raise OutOfRange(f"pair must be one of {MARGINAL_PAIRS}, got {pair!r}")
    return tuple(getattr(bt, f) for f in _PAIR_FIELDS[pair])


def marginal_purity(bt: BlochTripartite, pair: str) -> float:
    """Purity of the two-party marginal assembled from Bloch data:
    1/d^2 + (||t_x||^2 + ||t_y||^2) / (2d) + ||t_xy||^2 / 4."""
    tx, ty, txy = pair_tensors(bt, pair)
    d = bt.d
    return 1.0 / (d * d) + (_norm2(tx) + _norm2(ty)) / (2 * d) + _norm2(txy) / 4.0
