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

# The four Bell projectors as one matrix P[(x u), (k y v)] = <x y|k><k|u v>,
# with kets (x y) and bras (u v) on (B1, B2); the amplitudes are real and
# +-1/sqrt(2) or 0, so each entry is exactly 0 or +-1/2
_KETS = np.array(_BELL_VECTORS, dtype=complex).reshape(4, 2, 2)  # [k, x, y], times sqrt(2)
_PROJECTOR = (
    (_KETS[:, :, None, :, None] * _KETS[:, None, :, None, :] / 2)  # [k, x, u, y, v]
    .transpose(1, 2, 0, 3, 4)
    .reshape(4, 16)
)
del _KETS


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
    """Probabilities (m, n, 4) and conditional states (m, n, 4, 4, 4) of
    the four Bell branches for every pair (ab[i], bc[j]) of the stacks ab
    (m, 4, 4) and bc (n, 4, 4) of two-qubit matrices.  A branch at or below
    PROB_FLOOR has no conditional state and keeps zeros.

    For each Bell projector on (B1, B2): probability = Tr[(I x P x I) rho]
    and conditional = Tr_{B1 B2}[(I x P x I) rho (I x P x I)] / probability,
    with rho = rho_AB (x) rho_BC.  The traced sandwich is the partial inner
    product <Bell_k| rho |Bell_k> on (B1, B2), so all four blocks of all
    pairs come from two matrix products: ab as [(i a b), (x u)] times
    _PROJECTOR [(x u), (k y v)], then that as [(i k a b), (y v)] times bc as
    [(y v), (j c d)].  Each entry of either product is a sum of four terms
    whatever the stacks around it, so a pair gets the bits it gets alone
    (tests/test_stacks.py checks this up to a full block of the grid).
    """
    m, n = len(ab), len(bc)
    # ab[i, (a x), (b u)] and bc[j, (y c), (v d)]
    left = ab.reshape(m, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(4 * m, 4)
    half = (left @ _PROJECTOR).reshape(m, 2, 2, 4, 4).transpose(0, 3, 1, 2, 4)
    right = bc.reshape(n, 2, 2, 2, 2).transpose(1, 3, 0, 2, 4).reshape(4, 4 * n)
    full = (half.reshape(16 * m, 4) @ right).reshape(m, 4, 2, 2, n, 2, 2)
    # [i, k, a, b, j, c, d] -> [i, j, k, (a c), (b d)]: a copy, normalized in place
    blocks = full.transpose(0, 4, 1, 2, 5, 3, 6).reshape(m, n, 4, 4, 4)
    probs = blocks.reshape(m, n, 4, 16)[..., ::5].real.sum(axis=-1)  # the traces
    live = probs > PROB_FLOOR
    blocks /= np.where(live, probs, 1.0)[..., None, None]
    blocks[~live] = 0.0
    return probs, blocks


def swap_conditionals(rho_ab: DensityMatrix, rho_bc: DensityMatrix) -> list[SwapOutcome]:
    """The four post-measurement states of the outer pair (A, C); see
    _branches for how they are computed."""
    _require_two_qubit(rho_ab, "rho_ab")
    _require_two_qubit(rho_bc, "rho_bc")
    probs, conds = _branches(rho_ab.matrix[None], rho_bc.matrix[None])
    return [
        SwapOutcome(label, float(p), DensityMatrix(c, (2, 2)) if p > PROB_FLOOR else None)
        for label, p, c in zip(OUTCOME_LABELS, probs[0, 0], conds[0, 0])
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

    The two input stacks are validated as one stack and diagonalized in
    one eigvals_hermitian call; a member's spectrum does not depend on the
    stack around it, and a rejection names the first bad member, rho_ab's
    before rho_bc's.  The conditional states are formed (_branches),
    validated and diagonalized a block of rows of the grid at a time, one
    call each per block of about _BLOCK_PAIRS pairs, so that memory beyond
    the returned arrays does not grow with the grid.  An empty input stack
    gives an empty grid.
    """
    ab = np.asarray(rho_ab, dtype=complex)
    bc = np.asarray(rho_bc, dtype=complex)
    for name, x in (("rho_ab", ab), ("rho_bc", bc)):
        if x.ndim != 3 or x.shape[1:] != (4, 4):
            raise DimensionMismatch(f"{name} must be a stack of 4x4 matrices, got shape {x.shape}")
    inputs = np.concatenate([ab, bc])
    DensityMatrix.validate(inputs)
    member, entropy = _acvenn(eigvals_hermitian(inputs), 2)
    m = len(ab)
    shape = (m, len(bc), 4)
    probs = np.empty(shape)
    entropies = np.full(shape, np.nan)
    left = np.zeros(shape, dtype=bool)
    rows = max(1, _BLOCK_PAIRS // max(1, len(bc)))
    for lo in range(0, m, rows):
        block = slice(lo, lo + rows)
        probs[block], conds = _branches(ab[block], bc)
        live = probs[block] > PROB_FLOOR
        states = conds[live]
        DensityMatrix.validate(states)
        stayed, entropy_block = _acvenn(eigvals_hermitian(states), 2)
        entropies[block][live] = entropy_block
        left[block][live] = ~stayed
    success = _retrieved(member[:m, None], member[None, m:], left)
    return RetrievalGrid(entropy[:m], member[:m], entropy[m:], member[m:], probs, entropies, success)


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
