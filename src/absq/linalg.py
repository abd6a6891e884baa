"""Hermitian eigenvalues and partial traces for operators up to a few dozen
dimensions, on one matrix or on a stack (..., n, n) of them.

Every absolute-class verdict depends only on a spectrum, so the module
computes eigenvalues and never eigenvectors, through the one entry point
eigvals_hermitian.  It picks the algorithm member by member: a 4x4 X-matrix
(every state table2 and swap-scan build is one) has its spectrum in closed
form, any other member goes to a cyclic Jacobi iteration with complex plane
rotations (for the <= 64x64 matrices handled here robustness and
determinism matter more than speed).
"""

from __future__ import annotations

import itertools
import math
import string

import numpy as np

from .errors import DimensionMismatch, NotConverged, NotHermitian
from .tolerances import HERMITICITY_TOL, JACOBI_OFFDIAG_TOL

_MAX_SWEEPS = 100


def _require_square(m: np.ndarray, dims=None) -> int:
    """Side n of a square matrix or of a stack (..., n, n) of them; given
    subsystem dims, their product must be n."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[-1]
    if dims is not None and math.prod(dims) != n:
        raise DimensionMismatch(f"prod(dims)={math.prod(dims)} != matrix dim {n}")
    return n


def _hermitian_defect(m: np.ndarray) -> np.ndarray:
    """max |M - M^dagger| of each member of a stack (..., n, n); NaN for a
    member with a NaN entry, and NaN or inf for one with an infinite entry."""
    with np.errstate(invalid="ignore"):  # inf - inf, a NaN defect: no warning
        diff = m - np.swapaxes(m.conj(), -1, -2)
    return np.abs(diff).max(axis=(-2, -1), initial=0.0)


def _check_hermitian(m: np.ndarray) -> None:
    """Raise NotHermitian when a member of the stack m (..., n, n) has a
    defect above the tolerance or a non-finite entry; the message names the
    first such member's defect."""
    asym = _hermitian_defect(m)
    bad = ~(asym <= HERMITICITY_TOL)  # NaN fails too
    if bad.any():
        worst = float(asym.flat[np.argmax(bad)])
        raise NotHermitian(f"max |M - M^dagger| = {worst:.3e} exceeds {HERMITICITY_TOL}")


def _jacobi_rotate(a: np.ndarray, p: int, q: int) -> None:
    # One two-sided rotation A <- J^dagger A J zeroing A[p, q].  With
    # A[p,q] = r e^{i phi} the rotation is J[p,p] = J[q,q] = c,
    # J[p,q] = s e^{i phi}, J[q,p] = -s e^{-i phi}, tan(2 theta) = 2r / (A[q,q] - A[p,p]).
    apq = a[p, q]
    r = abs(apq)
    phase = apq / r
    app = a[p, p].real
    aqq = a[q, q].real
    tau = (aqq - app) / (2.0 * r)  # app == aqq gives tau = +0.0 and so t = 1
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    s_ph = s * phase
    s_ph_conj = s * phase.conjugate()

    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - s_ph_conj * col_q
    a[:, q] = s_ph * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s_ph * row_q
    a[q, :] = s_ph_conj * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real


def _jacobi_rotate_stack(a: np.ndarray, p: int, q: int, r: np.ndarray) -> None:
    # _jacobi_rotate on every member of the stack a (k, n, n) at once, bit for
    # bit, given r = |a[:, p, q]| as np.hypot of its parts (which rounds as
    # abs of a complex scalar does; np.abs of a complex array does not)
    phase = a[:, p, q] / r
    tau = ((a[:, q, q].real - a[:, p, p].real) / (2.0 * r)).tolist()
    # math.hypot as in _jacobi_rotate (np.hypot rounds differently near |tau| = 1)
    t = np.array([math.copysign(1.0, x) / (abs(x) + math.hypot(1.0, x)) for x in tau])
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    s_ph = (s * phase)[:, None]
    s_ph_conj = (s * phase.conjugate())[:, None]
    # c + 0j: the cast each product with a real c would make
    c = c.astype(complex)[:, None]

    col_p = a[:, :, p].copy()
    col_q = a[:, :, q].copy()
    a[:, :, p] = c * col_p - s_ph_conj * col_q
    a[:, :, q] = s_ph * col_p + c * col_q
    row_p = a[:, p, :].copy()
    row_q = a[:, q, :].copy()
    a[:, p, :] = c * row_p - s_ph * row_q
    a[:, q, :] = s_ph_conj * row_p + c * row_q
    a[:, p, q] = 0.0
    a[:, q, p] = 0.0
    a[:, p, p] = a[:, p, p].real
    a[:, q, q] = a[:, q, q].real


def _jacobi_step(a: np.ndarray, p: int, q: int, floors: np.ndarray) -> None:
    """Step (p, q) of a cyclic sweep over the stack a (k, n, n), in place:
    the members whose |a[p, q]| exceeds their floor are rotated together, the
    others are left as they are."""
    apq = a[:, p, q]
    r = np.hypot(apq.real, apq.imag)
    hit = r > floors
    count = np.count_nonzero(hit)
    if count == len(a):
        _jacobi_rotate_stack(a, p, q, r)
    elif count:
        rows = np.flatnonzero(hit)
        picked = a[rows]
        _jacobi_rotate_stack(picked, p, q, r[rows])
        a[rows] = picked


def _frobenius(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm of every member of a stack (k, n, n), bit for bit: the
    same two dot products per member, over the real and imaginary parts."""
    flat = a.reshape(len(a), a.shape[-1] ** 2)
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _eigvals_jacobi(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of every member of a Hermitian stack (..., n, n), unsorted,
    by cyclic Jacobi sweeps until each member's off-diagonal Frobenius norm
    falls below its threshold.  Before each sweep one vectorized test picks
    the members still above it, so a member that starts diagonal is never
    swept; two or more such members sweep in lockstep, one stacked rotation
    per (p, q) for those whose |a_pq| is above their skip level, and a lone
    one is swept by the scalar rotation.  The stacked
    rotation is the scalar one bit for bit, so a member's eigenvalues do not
    depend on its stack."""
    n = m.shape[-1]
    a = m.reshape(-1, n, n)
    a = (a + np.swapaxes(a.conj(), 1, 2)) / 2.0
    target = JACOBI_OFFDIAG_TOL * np.maximum(1.0, _frobenius(a))
    # elements below skip never push the off-diagonal norm back above target
    skip = target / (2.0 * n)
    floors = skip.tolist()
    pairs = list(itertools.combinations(range(n), 2))  # the cyclic order
    off_diagonal = 1.0 - np.eye(n)
    for _ in range(_MAX_SWEEPS):
        converged = (_frobenius(a * off_diagonal) <= target).tolist()
        rotating = [i for i, done in enumerate(converged) if not done]
        if not rotating:
            break
        if len(rotating) == 1:
            member, floor = a[rotating[0]], floors[rotating[0]]
            for p, q in pairs:
                # item() gives a Python complex: the same abs, sooner
                if abs(member.item(p, q)) > floor:
                    _jacobi_rotate(member, p, q)
        else:
            swept, swept_floors = a[rotating], skip[rotating]
            for p, q in pairs:
                _jacobi_step(swept, p, q, swept_floors)
            a[rotating] = swept
    else:  # cyclic Jacobi converges long before this
        raise NotConverged("Jacobi iteration failed to converge")
    return np.diagonal(a, axis1=1, axis2=2).real.reshape(m.shape[:-1])


def _eigvals_x(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of every member of a Hermitian stack (..., 4, 4) of
    X-matrices, unsorted: the direct sum of the blocks on {0, 3} and {1, 2},
    where [[a, b], [b*, d]] has (a + d)/2 +- hypot((a - d)/2, |b|) (Yu and
    Eberly, Quantum Inf. Comput. 7, 459, 2007).  Only the real diagonal and
    the upper anti-diagonal are read."""
    diag = np.diagonal(m, axis1=-2, axis2=-1).real
    top, bottom = diag[..., [0, 1]], diag[..., [3, 2]]  # blocks {0, 3} and {1, 2}
    coherence = m[..., [0, 1], [3, 2]]
    mean = (top + bottom) / 2.0
    radius = np.hypot((top - bottom) / 2.0, np.hypot(coherence.real, coherence.imag))
    return np.concatenate([mean + radius, mean - radius], axis=-1)


# the entries of a 4x4 matrix off its diagonal and anti-diagonal
_OFF_X = (np.add.outer(np.arange(4), np.arange(4)) != 3) & ~np.eye(4, dtype=bool)


def eigvals_hermitian(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of every member of a stack
    (..., n, n) of them, sorted non-increasing along the last axis.

    A 4x4 member zero off its diagonal and anti-diagonal (an X-matrix) is
    solved in closed form, any other member by Jacobi sweeps; either way a
    member gets the bits it would get alone, whatever its stack.  Raises
    NotHermitian when some member has max |M - M^dagger| above the
    Hermiticity tolerance or a non-finite entry.
    """
    m = np.asarray(m, dtype=complex)
    n = _require_square(m)
    _check_hermitian(m)
    x = ~(m[..., _OFF_X] != 0).any(axis=-1) if n == 4 else np.False_
    if np.all(x):
        eigs = _eigvals_x(m)
    elif not np.any(x):
        eigs = _eigvals_jacobi(m)
    else:
        eigs = np.empty(m.shape[:-1])
        eigs[x] = _eigvals_x(m[x])
        eigs[~x] = _eigvals_jacobi(m[~x])
    return np.sort(eigs, axis=-1)[..., ::-1]



def partial_trace(m: np.ndarray, dims: list[int] | tuple[int, ...], keep) -> np.ndarray:
    """Trace out every subsystem not listed in keep.

    dims lists the subsystem dimensions of the square matrix m, or of each
    member of a stack (..., n, n) of them (their product must equal the
    side n); keep is a nonempty collection of subsystem indices, and the
    result acts on those subsystems in their original order.
    """
    m = np.asarray(m, dtype=complex)
    dims = list(dims)
    _require_square(m, dims)
    keep = sorted(set(keep))
    if not keep or keep[0] < 0 or keep[-1] >= len(dims):
        raise DimensionMismatch(f"keep={keep} invalid for {len(dims)} subsystems")
    k = len(dims)
    letters = string.ascii_lowercase
    row = list(letters[:k])
    col = list(letters[k : 2 * k])
    for i in range(k):
        if i not in keep:
            col[i] = row[i]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    lead = m.shape[:-2]
    reduced = np.einsum(
        f"...{''.join(row)}{''.join(col)}->...{out}", m.reshape(lead + tuple(dims + dims))
    )
    d_keep = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(lead + (d_keep, d_keep))

