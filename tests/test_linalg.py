import math
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from absq.entropy import trace_power
from absq.errors import DimensionMismatch, NotHermitian
from absq import linalg
from absq.linalg import _OFF_X, eigvals_hermitian, haar_unitary, partial_trace
from absq.channels import double_apply_stack, transfer_stack
from absq.states import (
    DensityMatrix,
    bell_state,
    depolarized_schmidt_stack,
    ghz_w_mix,
    isotropic,
    pure_schmidt,
    random_density,
)

from conftest import bits, random_hermitian


class TestEigHermitian:
    def test_identity(self):
        np.testing.assert_allclose(eigvals_hermitian(np.eye(4)), np.ones(4))

    def test_depolarized_schmidt_closed_form(self):
        # eigenvalues (1+3p)/4 and (1-p)/4 (x3), independent of theta
        p = 0.5
        for theta in (0.3, math.pi / 4, 1.2):
            rho = p * pure_schmidt(theta).matrix + (1 - p) * np.eye(4) / 4
            np.testing.assert_allclose(
                eigvals_hermitian(rho), [(1 + 3 * p) / 4] + [(1 - p) / 4] * 3, atol=1e-12
            )

    def test_trace_moments_random(self, rng):
        # oracle: sum of eigenvalues vs direct trace of M and M @ M
        m = random_hermitian(6, rng)
        w = eigvals_hermitian(m)
        assert abs(np.sum(w) - np.trace(m).real) < 1e-9
        assert abs(np.sum(w**2) - np.trace(m @ m).real) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 36, 64, "degenerate"])
    def test_matches_lapack(self, n, rng):
        # oracle: LAPACK's eigvalsh, reversed to non-increasing order; the
        # degenerate case hides repeated eigenvalues behind a Haar rotation
        if n == "degenerate":
            u = haar_unitary(6, seed=3)
            m = u @ np.diag([2.0, 2.0, 2.0, 1.0, 1.0, 0.0]) @ u.conj().T
        else:
            m = random_hermitian(n, rng)
        w = eigvals_hermitian(m)
        assert np.max(np.abs(w - np.linalg.eigvalsh(m)[::-1])) <= 1e-10 * np.linalg.norm(m)

    def test_degenerate_spectrum(self):
        w = eigvals_hermitian(np.diag([2.0, 2.0, 1.0, 2.0]))
        np.testing.assert_allclose(w, [2, 2, 2, 1], atol=1e-12)

    def test_size_ceiling(self, rng):
        # the largest operators handled anywhere here are 64-dimensional
        m = random_hermitian(64, rng)
        w = eigvals_hermitian(m)
        assert np.all(np.diff(w) <= 0)
        assert abs(np.sum(w) - np.trace(m).real) < 1e-9
        assert abs(np.sum(w**2) - np.trace(m @ m).real) < 1e-8

    def test_deterministic(self, rng):
        m = random_hermitian(5, rng)
        np.testing.assert_array_equal(eigvals_hermitian(m), eigvals_hermitian(m))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitian, match="max"):
            eigvals_hermitian(m)

    def test_sweep_cap_raises_for_any_member(self, rng, monkeypatch):
        # one sweep is enough for a diagonal member, not for a dense one,
        # whether it sweeps alone or in lockstep with other dense members
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        diagonal = np.diag([3.0, 2.0, 1.0])
        np.testing.assert_array_equal(eigvals_hermitian(np.stack([diagonal] * 2)), [[3, 2, 1]] * 2)
        dense = [random_hermitian(3, rng) for _ in range(3)]
        for stack in ([diagonal, dense[0]], [diagonal, *dense], dense[1:]):
            with pytest.raises(RuntimeError, match="failed to converge"):
                eigvals_hermitian(np.stack(stack))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "where", [[(1, 1)], [(0, 2)], [(0, 2), (2, 0)]], ids=["diagonal", "one-sided", "pair"]
    )
    def test_rejects_non_finite(self, value, where, rng):
        # on the diagonal, on one off-diagonal entry, and on a Hermitian
        # pair of them; alone and between good members of a stack
        good = [random_density((3,), rng).matrix for _ in range(2)]
        bad = good[0].copy()
        for idx in where:
            bad[idx] = value
        for m in (bad, np.stack([good[0], bad, good[1]])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(NotHermitian, match=r"= (nan|inf) exceeds"):
                    eigvals_hermitian(m)
            assert caught == []  # inf - inf in the defect is not reported


class TestOraclesWithoutLapack:
    # identities and closed-form spectra that check eigvals_hermitian on
    # stacks without going through another eigensolver

    @pytest.mark.parametrize("n", [2, 3, 4, 9, 16])
    def test_trace_and_frobenius_identities_on_stacks(self, n, rng):
        # sum(lambda) = Tr M and sum(lambda^2) = ||M||_F^2, member by member
        m = np.stack([random_hermitian(n, rng) for _ in range(6)]).reshape(2, 3, n, n)
        w = eigvals_hermitian(m)
        assert w.shape == (2, 3, n)
        assert np.all(np.diff(w, axis=-1) <= 0)
        scale = np.sum(np.abs(m) ** 2, axis=(-2, -1))
        trace = np.trace(m, axis1=-2, axis2=-1).real
        assert np.max(np.abs(w.sum(axis=-1) - trace)) <= 1e-12 * n * np.sqrt(scale.max())
        assert np.max(np.abs(np.sum(w**2, axis=-1) - scale)) <= 1e-12 * n * scale.max()

    def test_depolarized_schmidt_stack_closed_form(self):
        # (1 + 3p)/4 once and (1 - p)/4 three times, whatever theta
        thetas = np.repeat([0.1, 0.4, math.pi / 4, 1.3], 5)
        ps = np.tile(np.linspace(0.0, 1.0, 5), 4)
        w = eigvals_hermitian(depolarized_schmidt_stack(thetas, ps))
        expected = np.stack([(1 + 3 * ps) / 4] + [(1 - ps) / 4] * 3, axis=1)
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_isotropic_stack_closed_form(self, d):
        # (1 + beta (d^2 - 1)) / d^2 once and (1 - beta) / d^2 for the rest,
        # the single one last for beta < 0
        betas = np.linspace(-1.0 / (d * d - 1), 1.0, 7)
        w = eigvals_hermitian(np.stack([isotropic(d, beta).matrix for beta in betas]))
        n = d * d
        expected = np.stack([(1 + betas * (n - 1)) / n] + [(1 - betas) / n] * (n - 1), axis=1)
        expected = -np.sort(-expected)
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-14)

    def test_amplitude_damped_stack_closed_form(self):
        # (|00> + |11>)/sqrt2 after damping p on A and q on B: a 2x2 block on
        # {|00>, |11>} with diagonal (1 + pq, (1-p)(1-q))/2 and off-diagonal
        # sqrt((1-p)(1-q))/2, and p(1-q)/2, (1-p)q/2 on |10> and |01>
        ps = np.linspace(0.0, 1.0, 6)
        damping = transfer_stack("amplitude_damping", ps)
        rho = double_apply_stack(damping[:, None], damping[None, :], pure_schmidt(math.pi / 4).matrix)
        w = eigvals_hermitian(rho)
        p, q = np.meshgrid(ps, ps, indexing="ij")
        a, b = 1 + p * q, (1 - p) * (1 - q)
        mid, half = (a + b) / 2, np.sqrt(((a - b) / 2) ** 2 + b)
        expected = -np.sort(-np.stack([mid + half, mid - half, p * (1 - q), (1 - p) * q], axis=-1) / 2)
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-14)


def _x_block(kind: int, scale: float, rng) -> tuple[float, float, complex]:
    """Diagonal entries a, d and coherence b of one 2x2 block of an X-matrix."""
    a, d = scale * rng.normal(size=2)
    b = scale * complex(*rng.normal(size=2))
    if kind == 1:  # rank deficient: a d = |b|^2, so one eigenvalue is 0
        a, d = abs(a), abs(d)
        b = math.sqrt(a * d) * b / abs(b)
    elif kind == 2:  # no coherence: the diagonal itself
        b = 0j
    elif kind == 3:  # a multiple of the identity: a double eigenvalue
        d, b = a, 0j
    return a, d, b


def _x_member(rng) -> np.ndarray:
    """A Hermitian 4x4 X-matrix; its two blocks may be equal."""
    scale = 10.0 ** rng.integers(-3, 4)
    outer = _x_block(rng.integers(0, 4), scale, rng)
    inner = outer if rng.integers(0, 4) == 0 else _x_block(rng.integers(0, 4), scale, rng)
    m = np.zeros((4, 4), dtype=complex)
    for (i, j), (a, d, b) in (((0, 3), outer), ((1, 2), inner)):
        m[i, i], m[j, j], m[i, j], m[j, i] = a, d, b, b.conjugate()
    return m


class TestEigvalsX:
    # eigvals_hermitian takes the closed form for a 4x4 member with nothing
    # off the X and the Jacobi sweeps for every other member
    @settings(max_examples=60)
    @given(count=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_solvers_per_member(self, count, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([_x_member(rng) for _ in range(count)])
        w = eigvals_hermitian(stack)
        assert w.shape == (count, 4)
        assert np.all(np.diff(w, axis=-1) <= 0)
        assert bits(w) == bits(np.sort(linalg._eigvals_x(stack))[:, ::-1])
        # in units of eps max(1, ||M||_F), against a 40-digit reference over
        # 18,000 such members, the closed form erred by up to 0.9, the
        # Jacobi solver by 2.3 and LAPACK's zheevd by 4.7
        scale = np.finfo(float).eps * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
        assert np.all(np.abs(w - np.sort(linalg._eigvals_jacobi(stack))[:, ::-1]).max(axis=1) <= 4 * scale)
        assert np.all(np.abs(w - np.linalg.eigvalsh(stack)[:, ::-1]).max(axis=1) <= 8 * scale)
        for member, eigs in zip(stack, w):
            assert bits(eigvals_hermitian(member)) == bits(eigs)

    @pytest.mark.parametrize("entry", [tuple(int(i) for i in pq) for pq in np.argwhere(_OFF_X)])
    @pytest.mark.parametrize("value", [1e-300, -2.5, 1j, math.nan])
    def test_refuses_an_entry_off_the_x(self, entry, value):
        # the closed form refuses a member with an entry (and its mirror)
        # off the X: that member alone goes to Jacobi, with the bits it has
        # alone, and the X members beside it keep the closed form; a NaN is
        # refused by the Hermiticity check
        stack = np.stack([np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)] * 3)
        stack[1, [0, 1], [3, 2]] = [0.05j, -0.1]
        stack[1, [3, 2], [0, 1]] = np.conj(stack[1, [0, 1], [3, 2]])
        stack[2][entry] = value
        stack[2][entry[::-1]] = np.conj(value)
        if value != value:  # NaN
            with pytest.raises(NotHermitian, match="= nan exceeds"):
                eigvals_hermitian(stack)
            return
        w = eigvals_hermitian(stack)
        assert bits(w[2]) == bits(np.sort(linalg._eigvals_jacobi(stack[2]))[::-1])
        assert bits(w[2]) == bits(eigvals_hermitian(stack[2]))
        assert bits(w[:2]) == bits(np.sort(linalg._eigvals_x(stack[:2]))[:, ::-1])

    @pytest.mark.parametrize("shape", [(3, 3), (2, 5, 5), (4, 3), (4,), (2, 2)])
    def test_refuses_a_shape_other_than_4x4(self, shape, monkeypatch):
        # the closed form never sees a shape other than (..., 4, 4): a square
        # one goes to Jacobi, any other is refused in one line
        def refuse(m):
            raise AssertionError(f"closed form called on {m.shape}")

        monkeypatch.setattr(linalg, "_eigvals_x", refuse)
        m = np.zeros(shape, dtype=complex)
        if len(shape) > 1 and shape[-1] == shape[-2]:
            n = shape[-1]
            m[..., range(n), range(n)] = np.arange(n, 0, -1)
            assert bits(eigvals_hermitian(m)) == bits(np.sort(linalg._eigvals_jacobi(m))[..., ::-1])
            return
        with pytest.raises(DimensionMismatch) as caught:
            eigvals_hermitian(m)
        assert "\n" not in str(caught.value)


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        red = partial_trace(bell_state(0).matrix, [2, 2], keep=[1])
        np.testing.assert_allclose(red, np.eye(2) / 2, atol=1e-12)

    def test_ghz_w_marginal_entries(self):
        # reduced state after dropping one qubit: diagonal corners (2+p)/6
        # and p/2, central block filled with (1-p)/3
        p = 0.4
        red = partial_trace(ghz_w_mix(p).matrix, [2, 2, 2], keep=[1, 2])
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = (2 + p) / 6
        expected[1, 1] = expected[2, 2] = expected[1, 2] = expected[2, 1] = (1 - p) / 3
        expected[3, 3] = p / 2
        np.testing.assert_allclose(red, expected, atol=1e-12)

    def test_product_rule(self, rng):
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        # oracle: summation over the traced index
        joint = np.kron(a, b)
        expected = np.zeros((2, 2), dtype=complex)
        for i in range(3):
            expected += joint[i * 2 : (i + 1) * 2, i * 2 : (i + 1) * 2]
        got = partial_trace(joint, [3, 2], keep=[1])
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, np.trace(a) * b, atol=1e-12)

    def test_composes(self, rng):
        rho = random_density((2, 2, 2), rng).matrix
        joint = partial_trace(rho, [2, 2, 2], keep=[2])
        stepwise = partial_trace(
            partial_trace(rho, [2, 2, 2], keep=[1, 2]), [2, 2], keep=[1]
        )
        assert np.max(np.abs(joint - stepwise)) <= 1e-12

    def test_trace_preserved(self, rng):
        rho = random_density((2, 3), rng).matrix
        red = partial_trace(rho, [2, 3], keep=[0])
        assert abs(np.trace(red) - 1) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), [2, 3], keep=[0])
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), [2, 2], keep=[])

    def test_one_dims_check_for_states_and_partial_traces(self):
        # a state and a partial trace refuse bad shapes and dims alike
        for m, dims, message in (
            (np.eye(4) / 4, (2, 3), r"^prod\(dims\)=6 != matrix dim 4$"),
            (np.ones((2, 3)) / 2, (2,), r"^expected a square matrix, got shape \(2, 3\)$"),
        ):
            for build in (lambda: DensityMatrix(m, dims), lambda: partial_trace(m, dims, keep=[0])):
                with pytest.raises(DimensionMismatch, match=message):
                    build()


class TestTracePower:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert trace_power(rho, 2) == pytest.approx(0.25, abs=1e-12)

    def test_pure_state(self):
        for n in (1, 2, 5):
            assert trace_power(pure_schmidt(0.7), n) == pytest.approx(1.0, abs=1e-10)

    def test_matches_repeated_product(self, rng):
        rho = random_density((2, 2), rng)
        direct = np.trace(rho.matrix @ rho.matrix @ rho.matrix).real
        assert trace_power(rho, 3) == pytest.approx(direct, abs=1e-10)

    def test_unit_trace(self, rng):
        assert trace_power(random_density((3, 3), rng), 1) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_bad_power(self, rng):
        with pytest.raises(ValueError):
            trace_power(random_density((2,), rng), 0)


class TestHaarUnitary:
    def test_scalar_is_phase(self):
        u = haar_unitary(1, seed=5)
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_unitary(self):
        for seed in range(5):
            u = haar_unitary(4, seed=seed)
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(haar_unitary(3, seed=11), haar_unitary(3, seed=11))
        assert not np.allclose(haar_unitary(3, seed=11), haar_unitary(3, seed=12))

    def test_first_entry_moment(self):
        # Haar moment E|U_ij|^2 = 1/dim
        rng = np.random.default_rng(99)
        total = 0.0
        draws = 10_000
        for _ in range(draws):
            total += abs(haar_unitary(4, rng)[0, 0]) ** 2
        assert total / draws == pytest.approx(0.25, abs=0.01)
