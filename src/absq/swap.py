"""Entanglement-swapping network between three parties.

Two two-qubit states rho_AB and rho_BC are shared along a chain; the middle
party measures its pair (B1, B2) in the Bell basis and broadcasts the
outcome, leaving the outer parties in one of four conditional states.  The
retrieval predicate asks whether states inside the absolute
conditional-entropy class can be steered back out of it this way: both
inputs must satisfy S >= 1 while at least one conditional state does not.

Outcome labels follow the Bell convention fixed in states.bell_state:
(00, 01, 10, 11) <-> (psi+, psi-, phi+, phi-).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import _acvenn
from .errors import DimensionMismatch
from .linalg import eigvals_hermitian
from .states import _BELL_VECTORS, DensityMatrix, _require_two_qubit
from .tolerances import PROB_FLOOR

OUTCOME_LABELS = ("00", "01", "10", "11")

# Bell amplitudes as _BELL[k, b1, b2]; all real, so no conjugation is needed
_BELL = np.array(_BELL_VECTORS, dtype=float).reshape(4, 2, 2) / np.sqrt(2.0)


@dataclass(frozen=True)
class SwapOutcome:
    """One Bell-measurement branch: its label, probability, and the state
    Alice and Charlie share afterwards (None below the probability floor)."""

    label: str
    probability: float
    conditional_state: DensityMatrix | None


@dataclass(frozen=True)
class RetrievalReport:
    """Everything the retrieval predicate looked at."""

    input_entropies: tuple
    outcomes: tuple
    conditional_entropies: tuple
    reason: str


@dataclass(frozen=True)
class RetrievalGrid:
    """The retrieval rule on every input pair (i, j) = (rho_ab[i], rho_bc[j])
    of two stacks of two-qubit states; entropies are in bits and Bell
    branches are indexed as OUTCOME_LABELS."""

    entropy_ab: np.ndarray  # (m,) S(rho_ab[i])
    member_ab: np.ndarray  # (m,) rho_ab[i] in ACVENN
    entropy_bc: np.ndarray  # (n,)
    member_bc: np.ndarray  # (n,)
    probabilities: np.ndarray  # (m, n, 4)
    conditional_entropies: np.ndarray  # (m, n, 4); NaN below PROB_FLOOR
    success: np.ndarray  # (m, n)


# Input pairs per block of the grid: a pair's Bell blocks and conditional
# states, with the validator's and the eigensolver's temporaries, take a
# few KB, so a block's working set stays near 1 MB whatever the grid; a
# block already holds enough pairs that the per-call overhead is small
_BLOCK_PAIRS = 256


def _branches(ab: np.ndarray, bc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities (..., 4) and conditional states (..., 4, 4, 4) of the
    four Bell branches for the two-qubit matrices ab and bc (..., 4, 4),
    whose leading shapes broadcast.  A branch at or below PROB_FLOOR has no
    conditional state and keeps zeros.

    For each Bell projector P on (B1, B2): probability = Tr[(I x P x I) rho]
    and conditional = Tr_{B1 B2}[(I x P x I) rho (I x P x I)] / probability,
    with rho = rho_AB (x) rho_BC.  The traced sandwich equals the partial
    inner product <Bell_k| rho |Bell_k> on (B1, B2), so all four come from
    one contraction of the two (..., 2, 2, 2, 2) input tensors.
    """
    # ab[a x, b u] and bc[y c, v d]: the Bell ket pairs (x y), the bra
    # (u v); the result is indexed [pair, k, (a c), (b d)].  With the pair
    # axis innermost in memory, einsum loops along it: the arithmetic of
    # each pair is unchanged, and its loop overhead is paid once per stack.
    lead = np.broadcast_shapes(ab.shape[:-2], bc.shape[:-2])
    blocks = np.einsum(
        "kxy,kuv,paxbu,pycvd->pkacbd",
        _BELL,
        _BELL,
        _pairs_innermost(ab, lead),
        _pairs_innermost(bc, lead),
    )
    blocks = blocks.reshape(lead + (4, 4, 4))
    probs = np.trace(blocks, axis1=-2, axis2=-1).real
    live = probs > PROB_FLOOR
    conds = blocks / np.where(live, probs, 1.0)[..., None, None]
    conds[~live] = 0.0
    return probs, conds


def _pairs_innermost(x: np.ndarray, lead: tuple) -> np.ndarray:
    """x broadcast to lead + (4, 4), as a (pairs, 2, 2, 2, 2) view whose
    pair axis has the smallest stride."""
    flat = np.broadcast_to(x, lead + (4, 4)).reshape(-1, 16)
    return np.ascontiguousarray(flat.T).T.reshape(-1, 2, 2, 2, 2)


def swap_conditionals(rho_ab: DensityMatrix, rho_bc: DensityMatrix) -> list[SwapOutcome]:
    """The four post-measurement states of the outer pair (A, C); see
    _branches for how they are computed."""
    _require_two_qubit(rho_ab, "rho_ab")
    _require_two_qubit(rho_bc, "rho_bc")
    probs, conds = _branches(rho_ab.matrix, rho_bc.matrix)
    return [
        SwapOutcome(label, float(p), DensityMatrix(c, (2, 2)) if p > PROB_FLOOR else None)
        for label, p, c in zip(OUTCOME_LABELS, probs, conds)
    ]


def _retrieved(member_ab, member_bc, left):
    """The retrieval rule: both inputs inside ACVENN, some live Bell branch
    outside it (left, along its last axis; a dead branch is False or absent)."""
    return member_ab & member_bc & left.any(axis=-1)


def retrieval_grid(rho_ab: np.ndarray, rho_bc: np.ndarray) -> RetrievalGrid:
    """The retrieval rule on the grid of every pair of the stacks rho_ab
    (m, 4, 4) and rho_bc (n, 4, 4) of two-qubit density matrices: a pair
    succeeds when both inputs are inside ACVENN and the conditional state
    of some Bell branch above PROB_FLOOR is not (_retrieved).

    Each input stack is validated once and diagonalized in one
    eigvals_hermitian call.  The conditional states are formed, validated
    and diagonalized a block of rows of the grid at a time, one call each
    per block of about _BLOCK_PAIRS pairs, so that memory beyond the
    returned arrays does not grow with the grid.
    """
    ab = np.asarray(rho_ab, dtype=complex)
    bc = np.asarray(rho_bc, dtype=complex)
    for name, x in (("rho_ab", ab), ("rho_bc", bc)):
        if x.ndim != 3 or x.shape[1:] != (4, 4):
            raise DimensionMismatch(f"{name} must be a stack of 4x4 matrices, got shape {x.shape}")
        DensityMatrix.validate(x)
    member_ab, entropy_ab = _acvenn(eigvals_hermitian(ab), 2)
    member_bc, entropy_bc = _acvenn(eigvals_hermitian(bc), 2)
    shape = (len(ab), len(bc), 4)
    probs = np.empty(shape)
    entropies = np.full(shape, np.nan)
    left = np.zeros(shape, dtype=bool)
    rows = max(1, _BLOCK_PAIRS // max(1, len(bc)))
    for lo in range(0, len(ab), rows):
        block = slice(lo, lo + rows)
        probs[block], conds = _branches(ab[block, None], bc[None, :])
        live = probs[block] > PROB_FLOOR
        states = conds[live]
        DensityMatrix.validate(states)
        member, entropy = _acvenn(eigvals_hermitian(states), 2)
        entropies[block][live] = entropy
        left[block][live] = ~member
    success = _retrieved(member_ab[:, None], member_bc[None, :], left)
    return RetrievalGrid(entropy_ab, member_ab, entropy_bc, member_bc, probs, entropies, success)


def retrieval_success(rho_ab: DensityMatrix, rho_bc: DensityMatrix) -> tuple[bool, RetrievalReport]:
    """Probabilistic retrieval out of the absolute regime.

    Succeeds when both inputs are inside the absolute conditional-entropy
    class (S >= 1) yet some Bell branch leaves the outer pair outside it:
    the rule of retrieval_grid (_retrieved) on one pair.  The Bell branches
    are formed once, by swap_conditionals, which validates each live
    conditional state; their spectra come from one eigensolver call.
    """
    _require_two_qubit(rho_ab, "rho_ab")
    _require_two_qubit(rho_bc, "rho_bc")
    member, entropy = _acvenn(eigvals_hermitian(np.stack([rho_ab.matrix, rho_bc.matrix])), 2)
    inputs = (float(entropy[0]), float(entropy[1]))
    if not member.all():  # then _retrieved is False whatever the branches
        return False, RetrievalReport(inputs, (), (), "input not in the absolute class")
    outcomes = tuple(swap_conditionals(rho_ab, rho_bc))
    live = [o.conditional_state.matrix for o in outcomes if o.conditional_state is not None]
    stayed, entropy = _acvenn(eigvals_hermitian(np.array(live)), 2)
    each = iter(entropy.tolist())
    entropies = tuple(None if o.conditional_state is None else next(each) for o in outcomes)
    success = bool(_retrieved(*member, ~stayed))
    reason = (
        "some conditional state left the absolute class"
        if success
        else "every conditional state stayed inside the absolute class"
    )
    return success, RetrievalReport(inputs, outcomes, entropies, reason)
