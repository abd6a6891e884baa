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

from .classify import is_acvenn
from .errors import DimensionMismatch
from .states import _BELL_VECTORS, DensityMatrix
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


def _require_two_qubit(rho: DensityMatrix, name: str) -> None:
    if rho.dims != (2, 2):
        raise DimensionMismatch(f"{name} must have dims (2, 2), got {rho.dims}")


def swap_conditionals(rho_ab: DensityMatrix, rho_bc: DensityMatrix) -> list[SwapOutcome]:
    """The four post-measurement states of the outer pair (A, C).

    For each Bell projector P on (B1, B2): probability = Tr[(I x P x I) rho]
    and conditional = Tr_{B1 B2}[(I x P x I) rho (I x P x I)] / probability,
    with rho = rho_AB (x) rho_BC.  The traced sandwich equals the partial
    inner product <Bell_k| rho |Bell_k> on (B1, B2), so all four come from
    one contraction of the two (2, 2, 2, 2) input tensors.
    """
    _require_two_qubit(rho_ab, "rho_ab")
    _require_two_qubit(rho_bc, "rho_bc")
    # rho_ab[a x, b u] and rho_bc[y c, v d]: the Bell ket pairs (x y), the
    # bra (u v); the result is indexed [k, (a c), (b d)]
    unnormalised = np.einsum(
        "kxy,kuv,axbu,ycvd->kacbd",
        _BELL,
        _BELL,
        rho_ab.matrix.reshape(2, 2, 2, 2),
        rho_bc.matrix.reshape(2, 2, 2, 2),
    ).reshape(4, 4, 4)
    outcomes = []
    for label, block in zip(OUTCOME_LABELS, unnormalised):
        prob = float(np.real(np.trace(block)))
        if prob > PROB_FLOOR:
            cond = DensityMatrix(block / prob, (2, 2))
        else:
            cond = None
        outcomes.append(SwapOutcome(label, prob, cond))
    return outcomes


def retrieval_branches(
    rho_ab: DensityMatrix, rho_bc: DensityMatrix, in_ab: bool, in_bc: bool
) -> tuple[bool, list[SwapOutcome], tuple]:
    """The retrieval rule, given the is_acvenn verdicts of the two inputs:
    success when both are members and the conditional state of some Bell
    branch is not.

    Also returns the four outcomes and the is_acvenn verdict (member,
    entropy) of each branch, None for a branch below the probability floor.
    """
    outcomes = swap_conditionals(rho_ab, rho_bc)
    verdicts = tuple(
        is_acvenn(o.conditional_state) if o.conditional_state is not None else None
        for o in outcomes
    )
    success = in_ab and in_bc and any(v is not None and not v[0] for v in verdicts)
    return success, outcomes, verdicts


def retrieval_success(rho_ab: DensityMatrix, rho_bc: DensityMatrix) -> tuple[bool, RetrievalReport]:
    """Probabilistic retrieval out of the absolute regime.

    Succeeds when both inputs are inside the absolute conditional-entropy
    class (S >= 1) yet some Bell branch leaves the outer pair outside it;
    see retrieval_branches.
    """
    in_ab, s_ab = is_acvenn(rho_ab)
    in_bc, s_bc = is_acvenn(rho_bc)
    if not (in_ab and in_bc):
        report = RetrievalReport((s_ab, s_bc), (), (), "input not in the absolute class")
        return False, report
    success, outcomes, verdicts = retrieval_branches(rho_ab, rho_bc, in_ab, in_bc)
    entropies = tuple(v[1] if v is not None else None for v in verdicts)
    reason = (
        "some conditional state left the absolute class"
        if success
        else "every conditional state stayed inside the absolute class"
    )
    return success, RetrievalReport((s_ab, s_bc), tuple(outcomes), entropies, reason)
