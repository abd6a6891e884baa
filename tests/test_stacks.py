"""Stacks against their members, and the channels' complete positivity.

Every function that takes a stack gives each member bitwise what it gives
that member alone: the eigensolver, the density-matrix validator, the
transfer tensors, the spectral functionals and verdicts, and the Bell
projection of the swapping grid.  The CPTP check reads each channel's Choi
matrix off its transfer tensors over the whole parameter range.
"""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from absq.channels import (
    CHANNEL_NAMES,
    double_apply,
    double_apply_stack,
    make_channel,
    transfer_stack,
)
from absq.classify import _acre2nn, _acrenn, _acvenn, _afef, is_acvenn
from absq.entropy import spectrum_entropy, spectrum_power, spectrum_series_flat
from absq.errors import AbsqError
from absq import linalg
from absq.linalg import eigvals_hermitian
from absq.states import _BELL_VECTORS, DensityMatrix, bell_state
from absq import swap
from absq.swap import _branches, retrieval_grid, retrieval_success, swap_conditionals
from absq.tolerances import PROB_FLOOR, PSD_FLOOR

from conftest import haar_unitary, random_density, random_hermitian

PROPERTY = settings(max_examples=20)
SEEDS = st.integers(0, 2**32 - 1)


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _hermitian_member(n: int, rng) -> np.ndarray:
    """A dense, rank-deficient, exactly diagonal or X-type Hermitian matrix:
    the diagonal ones have converged before the first sweep, and the X-type
    ones (diagonal plus anti-diagonal) after one rotation per anti-diagonal
    pair; at n = 4 both have their spectrum in closed form instead."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return random_hermitian(n, rng)
    if kind == 1:  # repeated eigenvalues behind a rotation
        u = haar_unitary(n, rng)
        return u @ np.diag(rng.integers(0, 2, size=n).astype(float)) @ u.conj().T
    m = np.diag(rng.normal(size=n)).astype(complex)
    if kind == 3:
        i = np.arange(n // 2)
        m[i, n - 1 - i] = rng.normal(size=i.size) + 1j * rng.normal(size=i.size)
        m[n - 1 - i, i] = m[i, n - 1 - i].conj()
    return m


@PROPERTY
@given(n=st.integers(1, 5), lead=st.sampled_from([(1,), (4,), (2, 3)]), seed=SEEDS)
def test_eigvals_stack_equals_members(n, lead, seed):
    rng = np.random.default_rng(seed)
    stack = np.empty(lead + (n, n), dtype=complex)
    for idx in np.ndindex(*lead):
        stack[idx] = _hermitian_member(n, rng)
    eigs = eigvals_hermitian(stack)
    assert eigs.shape == lead + (n,)
    for idx in np.ndindex(*lead):
        assert _same(eigs[idx], eigvals_hermitian(stack[idx]))


def _rotations(m) -> tuple[int, int]:
    """Jacobi rotations eigvals_hermitian makes on m: those of the scalar
    rotation, and those of the stacked rotation, one per member it rotates."""
    calls = [0, 0]
    rotate, rotate_stack = linalg._jacobi_rotate, linalg._jacobi_rotate_stack

    def counted(a, p, q):
        calls[0] += 1
        rotate(a, p, q)

    def counted_stack(a, p, q, r):
        calls[1] += len(a)
        rotate_stack(a, p, q, r)

    with mock.patch.object(linalg, "_jacobi_rotate", counted), mock.patch.object(
        linalg, "_jacobi_rotate_stack", counted_stack
    ):
        eigvals_hermitian(m)
    return calls[0], calls[1]


@PROPERTY
@given(n=st.integers(2, 6), count=st.integers(2, 8), seed=SEEDS)
def test_stack_rotates_as_often_as_its_members_alone(n, count, seed):
    # a converged member is never rotated again, and one that starts
    # diagonal is never rotated at all; a member alone is rotated by the
    # scalar rotation, and two or more that rotate sweep in lockstep
    rng = np.random.default_rng(seed)
    stack = np.array([_hermitian_member(n, rng) for _ in range(count)])
    alone = [_rotations(m) for m in stack]
    assert all(stacked == 0 for _, stacked in alone)
    together = _rotations(stack)
    assert sum(together) == sum(scalar for scalar, _ in alone)
    assert (together[1] > 0) == (sum(scalar > 0 for scalar, _ in alone) >= 2)
    for m, (rotations, _) in zip(stack, alone):
        if not np.any(m - np.diag(np.diag(m))):
            assert rotations == 0


def _step_member(n: int, p: int, q: int, floor: float, kind: str, rng) -> np.ndarray:
    """A dense Hermitian matrix shaped at (p, q) for one case of the
    rotation: equal diagonal entries, a real or an imaginary a_pq, or an
    a_pq at or below the floor, which the step skips."""
    m = random_hermitian(n, rng)
    if kind == "equal-diagonal":
        m[q, q] = m[p, p]
    elif kind == "real":
        m[p, q] = m[p, q].real
    elif kind == "imaginary":
        m[p, q] = 1j * m[p, q].imag
    elif kind == "skipped":
        m[p, q] = floor * rng.uniform() * np.exp(1j * rng.uniform(0, 2 * np.pi))
    elif kind == "zero":
        m[p, q] = 0.0
    m[q, p] = np.conj(m[p, q])
    return m


STEP_KINDS = ["dense", "equal-diagonal", "real", "imaginary", "skipped", "zero"]


@PROPERTY
@given(
    n=st.integers(2, 7),
    kinds=st.lists(st.sampled_from(STEP_KINDS), min_size=1, max_size=8),
    seed=SEEDS,
)
def test_stacked_step_equals_scalar_rotation(n, kinds, seed):
    # one (p, q) step over a stack rotates each member whose |a_pq| is above
    # its floor bit for bit as _jacobi_rotate does alone, and leaves the
    # others untouched
    rng = np.random.default_rng(seed)
    p, q = sorted(rng.choice(n, size=2, replace=False).tolist())
    floors = rng.uniform(1e-3, 1e-1, size=len(kinds))
    stack = np.array([_step_member(n, p, q, f, kind, rng) for f, kind in zip(floors, kinds)])
    expected = stack.copy()
    for member, floor in zip(expected, floors):
        if abs(member.item(p, q)) > floor:
            linalg._jacobi_rotate(member, p, q)
    linalg._jacobi_step(stack, p, q, floors)
    for got, want in zip(stack, expected):
        assert _same(got, want)


def test_members_converging_at_different_sweeps():
    # a diagonal member is an X-matrix and never swept, one with two
    # disjoint off-diagonal pairs off the X converges after one sweep, a
    # rank-deficient one after two, and the dense ones go on together until
    # the last of them sweeps alone; each member comes out as when it is
    # solved alone
    rng = np.random.default_rng(2)
    dense = [random_hermitian(4, rng) for _ in range(3)]
    two_pairs = np.diag([0.3, -1.2, 0.8, 2.0]).astype(complex)
    two_pairs[[0, 2], [1, 3]] = [0.5 + 0.2j, -0.3j]
    two_pairs[[1, 3], [0, 2]] = np.conj(two_pairs[[0, 2], [1, 3]])
    u = haar_unitary(4, 5)
    rank_two = u @ np.diag([1.0, 1.0, 0.0, 0.0]) @ u.conj().T
    stack = np.array([np.diag([1.0, 3.0, 2.0, 0.0]), two_pairs, rank_two, *dense])
    sizes, lone = [], []
    step, rotate = linalg._jacobi_step, linalg._jacobi_rotate

    def recorded_step(a, p, q, floors):
        sizes.append(len(a))
        step(a, p, q, floors)

    def recorded_rotate(a, p, q):
        lone.append((p, q))
        rotate(a, p, q)

    with mock.patch.object(linalg, "_jacobi_step", recorded_step), mock.patch.object(
        linalg, "_jacobi_rotate", recorded_rotate
    ):
        eigs = eigvals_hermitian(stack)
    assert sizes[0] == len(stack) - 1  # all but the diagonal member, solved in closed form
    assert sorted(set(sizes)) == [3, 4, 5]
    assert lone  # the last dense member's final sweep
    for m, e in zip(stack, eigs):
        assert _same(e, eigvals_hermitian(m))


def _candidate(kind: str, rng) -> np.ndarray:
    """A 4x4 matrix that the validator accepts or rejects for one reason."""
    m = random_density((2, 2), rng).matrix.copy()
    if kind == "nan":
        m[1, 2] = math.nan
    elif kind == "inf":
        m[0, 0] = math.inf
    elif kind == "non-hermitian":
        m[0, 3] += 1e-6
    elif kind == "trace":
        m *= 1.01
    elif kind in ("negative", "near-floor"):
        u = haar_unitary(4, rng)
        low = -1e-6 if kind == "negative" else 0.5 * PSD_FLOOR
        m = u @ np.diag([0.5, 0.3, 0.2 - low, low]) @ u.conj().T
    return m


def _verdict(validate, m):
    try:
        validate(m)
    except AbsqError as exc:
        return type(exc), str(exc)
    return None


KINDS = ["valid", "valid", "near-floor", "nan", "inf", "non-hermitian", "trace", "negative"]


@PROPERTY
@given(kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6), seed=SEEDS)
def test_validator_stack_equals_members(kinds, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([_candidate(kind, rng) for kind in kinds])
    alone = [_verdict(lambda m: DensityMatrix(m, (2, 2)), m) for m in stack]
    rejected = [v for v in alone if v is not None]
    # the stack is rejected iff a member is, with the first rejection's message
    assert _verdict(DensityMatrix.validate, stack) == (rejected[0] if rejected else None)


@PROPERTY
@given(
    name=st.sampled_from(CHANNEL_NAMES),
    ps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    seed=SEEDS,
)
def test_transfer_stack_equals_make_channel(name, ps, seed):
    ps = [0.0, *ps, 1.0]
    stack = transfer_stack(name, ps)
    rho = random_density((2, 2), seed)
    states = double_apply_stack(stack, stack[::-1], rho.matrix)
    for i, p in enumerate(ps):
        ch = make_channel(name, p)
        assert _same(stack[i], ch.transfer)
        reverse = make_channel(name, ps[len(ps) - 1 - i])
        assert _same(states[i], double_apply(ch, reverse, rho).matrix)


def _spectra(n: int, count: int, rng) -> np.ndarray:
    out = np.zeros((count, n))
    for row in out:
        rank = rng.integers(1, n + 1)
        row[:rank] = np.sort(rng.dirichlet(np.ones(rank)))[::-1]
        if rank < n and rng.uniform() < 0.5:
            row[-1] = -1e-12  # roundoff that the functionals clamp
    return out


@PROPERTY
@given(d=st.sampled_from([2, 3, 4]), count=st.integers(1, 6), seed=SEEDS)
def test_spectral_functionals_stack_equals_members(d, count, seed):
    eigs = _spectra(d * d, count, np.random.default_rng(seed))
    functionals = [
        spectrum_entropy,
        lambda e: spectrum_power(e, 0.5),
        lambda e: spectrum_power(e, 2.0),
        lambda e: spectrum_series_flat(e, 10),
        lambda e: _afef(e, d),
        lambda e: _acvenn(e, d),
        lambda e: _acrenn(e, d, 0.5),
        lambda e: _acrenn(e, d, 3.0),
        lambda e: _acre2nn(e, d),
    ]
    for f in functionals:
        stacked = f(eigs)
        for i, row in enumerate(eigs):
            one = f(row)
            if isinstance(one, tuple):  # (verdict, witness)
                assert type(one[0]) is bool and type(one[1]) is float
                assert bool(stacked[0][i]) is one[0] and _same(stacked[1][i], one[1])
            else:
                assert type(one) is float and _same(stacked[i], one)


@PROPERTY
@given(
    sizes=st.lists(st.sampled_from([1, 4, 9, 16, 25, 36]), min_size=1, max_size=6),
    terms=st.integers(1, 20),
    seed=SEEDS,
)
def test_zero_padding_drops_out(sizes, terms, seed):
    # spectra of mixed lengths as the rows of one stack, zero-padded to the
    # longest, as the isotropic tables evaluate their witnesses
    rng = np.random.default_rng(seed)
    rows = [_spectra(n, 1, rng)[0] for n in sizes]
    padded = np.zeros((len(rows), max(sizes)))
    for out, row in zip(padded, rows):
        out[: row.size] = row
    for f in (spectrum_entropy, lambda e: spectrum_series_flat(e, terms)):
        stacked = f(padded)
        for i, row in enumerate(rows):
            assert _same(stacked[i], f(row))


def _two_qubit(rng) -> np.ndarray:
    kind = rng.integers(0, 3)
    if kind == 0:  # pure: some Bell branches carry no probability
        return bell_state(int(rng.integers(0, 4))).matrix
    if kind == 1:
        return random_density((2, 2), rng).matrix
    return 0.5 * random_density((2, 2), rng).matrix + 0.5 * np.eye(4) / 4


@settings(max_examples=12)
@given(m=st.integers(1, 3), n=st.integers(1, 2), seed=SEEDS)
def test_bell_grid_equals_swap_conditionals(m, n, seed):
    rng = np.random.default_rng(seed)
    ab = np.array([_two_qubit(rng) for _ in range(m)])
    bc = np.array([_two_qubit(rng) for _ in range(n)])
    grid = retrieval_grid(ab, bc)
    conds = _branches(ab, bc)[1]
    for i in range(m):
        for j in range(n):
            rho_ab, rho_bc = DensityMatrix(ab[i], (2, 2)), DensityMatrix(bc[j], (2, 2))
            for k, outcome in enumerate(swap_conditionals(rho_ab, rho_bc)):
                assert outcome.probability == grid.probabilities[i, j, k]
                if outcome.conditional_state is None:
                    assert math.isnan(grid.conditional_entropies[i, j, k])
                else:
                    assert _same(outcome.conditional_state.matrix, conds[i, j, k])
                    entropy = is_acvenn(outcome.conditional_state)[1]
                    assert _same(entropy, grid.conditional_entropies[i, j, k])
            assert retrieval_success(rho_ab, rho_bc)[0] == grid.success[i, j]


def _einsum_branches(ab, bc):
    """The reference Bell projection: one einsum of two Bell tensors and the
    (2, 2, 2, 2) tensors of every pair (ab[i], bc[j]), then the traces and
    the normalized blocks, as _branches returns them."""
    bell = np.array(_BELL_VECTORS, dtype=float).reshape(4, 2, 2) / np.sqrt(2.0)
    blocks = np.einsum(
        "kxy,kuv,iaxbu,jycvd->ijkacbd",
        bell,
        bell,
        ab.reshape(-1, 2, 2, 2, 2),
        bc.reshape(-1, 2, 2, 2, 2),
    ).reshape(len(ab), len(bc), 4, 4, 4)
    probs = np.trace(blocks, axis1=-2, axis2=-1).real
    live = probs > PROB_FLOOR
    conds = blocks / np.where(live, probs, 1.0)[..., None, None]
    conds[~live] = 0.0
    return probs, conds


# _branches against _einsum_branches: the two sum the same products in
# another order (measured: at most 2.2e-16 on the probabilities and 3.3e-16
# on the conditional states, over 300 random grids up to 39 x 19)
BELL_REFERENCE_TOL = 4 * np.finfo(float).eps


@PROPERTY
@given(m=st.integers(1, 40), n=st.integers(1, 20), seed=SEEDS)
def test_branches_match_the_einsum_reference(m, n, seed):
    rng = np.random.default_rng(seed)
    ab = np.array([_two_qubit(rng) for _ in range(m)])
    bc = np.array([_two_qubit(rng) for _ in range(n)])
    probs, conds = _branches(ab, bc)
    ref_probs, ref_conds = _einsum_branches(ab, bc)
    assert probs.shape == (m, n, 4) and conds.shape == (m, n, 4, 4, 4)
    assert np.array_equal(probs > PROB_FLOOR, ref_probs > PROB_FLOOR)
    assert np.abs(probs - ref_probs).max() <= BELL_REFERENCE_TOL
    assert np.abs(conds - ref_conds).max() <= BELL_REFERENCE_TOL


@pytest.mark.parametrize(
    "m,n",
    [(1, 1), (2, 3), (7, 5), (23, 11), (16, 16), (3, 85), (64, 4), (1, 256), (256, 1)],
)
def test_branches_give_each_pair_what_it_gets_alone(m, n):
    # up to a full block of the grid (_BLOCK_PAIRS = 256 pairs): a pair's
    # probabilities and conditional states do not depend on the stacks
    rng = np.random.default_rng(m * 1000 + n)
    ab = np.array([_two_qubit(rng) for _ in range(m)])
    bc = np.array([_two_qubit(rng) for _ in range(n)])
    probs, conds = _branches(ab, bc)
    for i in range(m):
        for j in range(n):
            p, c = _branches(ab[i : i + 1], bc[j : j + 1])
            assert _same(probs[i, j], p[0, 0]) and _same(conds[i, j], c[0, 0]), (i, j)


@pytest.mark.parametrize("block", [1, 4, 7])
def test_grid_blocks_bound_the_stacks_and_leave_the_grid_unchanged(block, monkeypatch):
    rng = np.random.default_rng(block)
    ab = np.array([_two_qubit(rng) for _ in range(5)])
    bc = np.array([_two_qubit(rng) for _ in range(3)])
    whole = retrieval_grid(ab, bc)
    solved = []
    solve = swap.eigvals_hermitian

    def counted(m):
        solved.append(len(m))
        return solve(m)

    monkeypatch.setattr(swap, "_BLOCK_PAIRS", block)
    monkeypatch.setattr(swap, "eigvals_hermitian", counted)
    blocked = retrieval_grid(ab, bc)
    # the two input stacks as one, then the live branches of at most
    # max(block, 3) pairs at a time, each pair with up to four branches
    rows = max(1, block // 3)
    assert solved[:1] == [8]
    assert len(solved) == 1 + -(-5 // rows)
    assert max(solved[1:]) <= 4 * 3 * rows
    for field in vars(whole):
        assert _same(getattr(blocked, field), getattr(whole, field)), field


@pytest.mark.parametrize("name", CHANNEL_NAMES)
def test_choi_matrix_is_cptp(name):
    # J[(a c), (a' c')] = S[a, a', c, c'] = sum_k K[a, c] conj(K[a', c'])
    ps = np.linspace(0.0, 1.0, 101)
    choi = transfer_stack(name, ps).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    assert np.max(np.abs(choi - choi.conj().transpose(0, 2, 1))) <= 1e-15
    assert np.all(np.linalg.eigvalsh(choi)[:, 0] >= PSD_FLOOR)
    # tracing out the output a leaves the identity on the input c
    traced = np.einsum("pacad->pcd", choi.reshape(-1, 2, 2, 2, 2))
    assert np.max(np.abs(traced - np.eye(2))) <= 1e-15
