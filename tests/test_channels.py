import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from absq.channels import (
    CHANNEL_NAMES,
    KrausChannel,
    double_apply,
    global_depolarize,
    global_depolarize_spectrum,
    make_channel,
)
from absq.errors import CompletenessViolation, DimensionMismatch, OutOfRange
from absq.linalg import eigvals_hermitian
from absq.states import DensityMatrix, isotropic, pure_schmidt, random_density


def on_a(ch, rho):
    """ch on subsystem A of a two-qubit state, the identity on B: the same
    channel at p = 0 is the identity for every channel name."""
    return double_apply(ch, make_channel(ch.name, 0.0), rho)


def amp_damped(theta, p1, p2):
    return double_apply(
        make_channel("amplitude_damping", p1),
        make_channel("amplitude_damping", p2),
        pure_schmidt(theta),
    )


def phase_damped(theta, p1, p2):
    return double_apply(
        make_channel("phase_damping", p1),
        make_channel("phase_damping", p2),
        pure_schmidt(theta),
    )


class TestMakeChannel:
    @pytest.mark.parametrize("name", CHANNEL_NAMES)
    @pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 1.0])
    def test_completeness(self, name, p):
        ch = make_channel(name, p)
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-10

    def test_phase_damping_p0_is_identity(self, rng):
        ch = make_channel("phase_damping", 0.0)
        rho = random_density((2, 2), rng)
        np.testing.assert_allclose(double_apply(ch, ch, rho).matrix, rho.matrix, atol=1e-12)

    def test_amplitude_damping_p1_pumps_ground(self):
        # |11> decays to |00> when both qubits are fully damped
        ch = make_channel("amplitude_damping", 1.0)
        excited = DensityMatrix(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex), (2, 2))
        np.testing.assert_allclose(
            double_apply(ch, ch, excited).matrix, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-12
        )

    def test_depolarizing_weights(self):
        ch = make_channel("depolarizing", 0.9)
        assert len(ch.kraus_ops) == 4
        # (1-p) + 3 * p/3 = 1 exactly
        total = sum(np.trace(k.conj().T @ k).real for k in ch.kraus_ops)
        assert total == pytest.approx(2.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRange):
            make_channel("bit_flip", 1.5)
        with pytest.raises(OutOfRange):
            make_channel("nonsense", 0.5)

    @pytest.mark.parametrize("name", CHANNEL_NAMES)
    def test_rejects_nan(self, name):
        with pytest.raises(OutOfRange):
            make_channel(name, math.nan)


class TestApply:
    # one channel on subsystem A of a two-qubit state, through double_apply

    def test_flip_p0_identity(self, rng):
        rho = random_density((2, 2), rng)
        for name in ("phase_flip", "bit_flip"):
            out = on_a(make_channel(name, 0.0), rho)
            np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_phase_flip_half_dephases_plus(self):
        # oracle: explicit 2x2 Kraus sum, (|+><+| + Z|+><+|Z)/2 = I/2, on A of |+0>
        zero = np.diag([1.0, 0.0])
        rho = DensityMatrix(np.kron(np.full((2, 2), 0.5), zero).astype(complex), (2, 2))
        out = on_a(make_channel("phase_flip", 0.5), rho)
        np.testing.assert_allclose(out.matrix, np.kron(np.eye(2) / 2, zero), atol=1e-12)

    def test_trace_preserved(self, rng):
        for name in CHANNEL_NAMES:
            rho = random_density((2, 2), rng)
            out = on_a(make_channel(name, 0.37), rho)
            assert abs(np.trace(out.matrix) - 1) <= 1e-12

    def test_dimension_guard(self, rng):
        ch = make_channel("bit_flip", 0.5)
        with pytest.raises(DimensionMismatch, match="expected a \\(2, 2\\) state"):
            double_apply(ch, ch, random_density((2,), rng))
        qutrit = KrausChannel("qutrit identity", 0.0, (np.eye(3),))
        with pytest.raises(DimensionMismatch, match="single-qubit channels"):
            double_apply(qutrit, ch, random_density((2, 2), rng))


class TestDoubleApply:
    def test_p0_is_identity(self):
        rho = pure_schmidt(0.9)
        ch = make_channel("amplitude_damping", 0.0)
        np.testing.assert_allclose(double_apply(ch, ch, rho).matrix, rho.matrix, atol=1e-12)

    def test_amplitude_damping_matrix(self, rng):
        # nonzero entries: diagonal populations and the (00, 11) coherence
        for _ in range(5):
            theta = rng.uniform(0.1, math.pi / 2 - 0.1)
            p1, p2 = rng.uniform(0, 1, size=2)
            c, s = math.cos(theta), math.sin(theta)
            expected = np.zeros((4, 4), dtype=complex)
            expected[0, 0] = c * c + p1 * p2 * s * s
            expected[1, 1] = p1 * (1 - p2) * s * s
            expected[2, 2] = p2 * (1 - p1) * s * s
            expected[3, 3] = (1 - p1) * (1 - p2) * s * s
            expected[0, 3] = expected[3, 0] = math.sqrt((1 - p1) * (1 - p2)) * c * s
            np.testing.assert_allclose(
                amp_damped(theta, p1, p2).matrix, expected, atol=1e-12
            )

    def test_amplitude_damping_spectrum_closed_form(self):
        # at equal parameters and theta = pi/4:
        # {(1 + p^2 - p +- sqrt(1 + 2p^2 - 2p)) / 2, (p - p^2)/2 twice}
        for p in np.linspace(0.0, 1.0, 21):
            eigs = eigvals_hermitian(amp_damped(math.pi / 4, p, p).matrix)
            root = math.sqrt(1 + 2 * p * p - 2 * p)
            expected = sorted(
                [
                    (1 + p * p - p + root) / 2,
                    (1 + p * p - p - root) / 2,
                    (p - p * p) / 2,
                    (p - p * p) / 2,
                ],
                reverse=True,
            )
            np.testing.assert_allclose(eigs, expected, atol=1e-10)

    def test_phase_damping_structure(self, rng):
        # dephasing keeps the populations of |00> and |11> and shrinks the
        # coherence between them by sqrt((1-p1)(1-p2))
        theta = rng.uniform(0.1, math.pi / 2 - 0.1)
        p1, p2 = rng.uniform(0, 1, size=2)
        out = phase_damped(theta, p1, p2).matrix
        c, s = math.cos(theta), math.sin(theta)
        assert out[0, 0] == pytest.approx(c * c, abs=1e-12)
        assert out[3, 3] == pytest.approx(s * s, abs=1e-12)
        assert out[0, 3] == pytest.approx(math.sqrt((1 - p1) * (1 - p2)) * c * s, abs=1e-12)
        assert abs(out[1, 1]) + abs(out[2, 2]) <= 1e-12

    def test_phase_damping_spectrum_closed_form(self):
        # {0, 0, (2 -+ sqrt(2) sqrt(2 - 2p + p^2 + 2p cos 4theta - p^2 cos 4theta)) / 4}
        for theta in np.linspace(0.1, math.pi / 2 - 0.1, 7):
            for p in np.linspace(0.0, 1.0, 11):
                eigs = eigvals_hermitian(phase_damped(theta, p, p).matrix)
                c4 = math.cos(4 * theta)
                root = math.sqrt(2.0) * math.sqrt(2 - 2 * p + p * p + 2 * p * c4 - p * p * c4)
                expected = sorted([0.0, 0.0, (2 - root) / 4, (2 + root) / 4], reverse=True)
                np.testing.assert_allclose(eigs, expected, atol=1e-10)

    def test_outputs_are_valid_states(self, rng):
        # DensityMatrix construction re-validates; spot-check PSD and trace
        for name in CHANNEL_NAMES:
            rho = random_density((2, 2), rng)
            out = double_apply(
                make_channel(name, 0.3), make_channel(name, 0.8), rho
            ).matrix
            assert abs(np.trace(out) - 1) <= 1e-12
            assert eigvals_hermitian(out)[-1] >= -1e-9


def kraus_sum(ops, m):
    return sum(k @ m @ k.conj().T for k in ops)


class TestTransferTensor:
    # the transfer-tensor kernels against sum_k K rho K^dagger written out

    @pytest.mark.parametrize("name", CHANNEL_NAMES)
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_apply_matches_kraus_sum(self, name, p, rng):
        # one side only: the Kraus operators are K (x) I
        ch = make_channel(name, p)
        ops = [np.kron(k, np.eye(2)) for k in ch.kraus_ops]
        for _ in range(5):
            rho = random_density((2, 2), rng)
            expected = kraus_sum(ops, rho.matrix)
            np.testing.assert_allclose(on_a(ch, rho).matrix, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", CHANNEL_NAMES)
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_double_apply_matches_kraus_sum(self, name, p, rng):
        ch_a = make_channel(name, p)
        ch_b = make_channel(name, 0.55)
        ops = [np.kron(ka, kb) for ka in ch_a.kraus_ops for kb in ch_b.kraus_ops]
        for _ in range(5):
            rho = random_density((2, 2), rng)
            expected = kraus_sum(ops, rho.matrix)
            out = double_apply(ch_a, ch_b, rho).matrix
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)

    def test_mixed_channels_on_each_side(self, rng):
        ch_a = make_channel("amplitude_damping", 0.3)
        ch_b = make_channel("depolarizing", 0.7)
        ops = [np.kron(ka, kb) for ka in ch_a.kraus_ops for kb in ch_b.kraus_ops]
        rho = random_density((2, 2), rng)
        np.testing.assert_allclose(
            double_apply(ch_a, ch_b, rho).matrix, kraus_sum(ops, rho.matrix), rtol=0, atol=1e-14
        )

    def test_completeness_violation_reported(self):
        with pytest.raises(CompletenessViolation, match="deviates from identity by 2.500e-01"):
            KrausChannel("half", 0.0, (np.eye(2) * math.sqrt(0.75),))

    def test_non_finite_kraus_rejected(self):
        with pytest.raises(CompletenessViolation):
            KrausChannel("nan", 0.0, (np.full((2, 2), math.nan),))


class TestGlobalDepolarize:
    def test_pure_schmidt_family(self):
        # weight convention: global_depolarize(rho, p) keeps rho with
        # weight 1 - p, so the corner coherence is (1 - p) cos sin
        theta, p = 0.6, 0.3
        out = global_depolarize(pure_schmidt(theta), p)
        c, s = math.cos(theta), math.sin(theta)
        assert out.matrix[0, 3] == pytest.approx((1 - p) * c * s, abs=1e-12)
        assert out.matrix[1, 1] == pytest.approx(p / 4, abs=1e-12)

    def test_eigenvalues_theta_independent(self):
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 9):
            for p in np.linspace(0, 1, 9):
                eigs = eigvals_hermitian(global_depolarize(pure_schmidt(theta), p).matrix)
                w = 1 - p
                expected = [(1 + 3 * w) / 4] + [(1 - w) / 4] * 3
                np.testing.assert_allclose(eigs, expected, atol=1e-10)

    def test_isotropic_stays_isotropic(self):
        d, beta, lam = 3, 0.8, 0.4
        out = global_depolarize(isotropic(d, beta), lam)
        expected = isotropic(d, (1 - lam) * beta)
        np.testing.assert_allclose(out.matrix, expected.matrix, atol=1e-12)

    def test_full_mixing(self):
        out = global_depolarize(pure_schmidt(0.8), 1.0)
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    def test_range_check(self):
        with pytest.raises(OutOfRange):
            global_depolarize(pure_schmidt(0.5), -0.1)

    def test_rejects_nan(self):
        with pytest.raises(OutOfRange):
            global_depolarize(pure_schmidt(0.5), math.nan)


class TestGlobalDepolarizeSpectrum:
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_matches_eigensolve(self, p, rng):
        pool = [isotropic(d, 0.8) for d in range(2, 7)]
        pool += [random_density((d, d), rng) for d in (2, 3) for _ in range(3)]
        for rho in pool:
            mapped = global_depolarize_spectrum(eigvals_hermitian(rho.matrix), p)
            direct = eigvals_hermitian(global_depolarize(rho, p).matrix)
            np.testing.assert_allclose(mapped, direct, rtol=0, atol=1e-14)

    @settings(max_examples=20)
    @given(d=st.integers(2, 4), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_matches_eigensolve_property(self, d, p, seed):
        rho = random_density((d, d), seed)
        mapped = global_depolarize_spectrum(eigvals_hermitian(rho.matrix), p)
        direct = eigvals_hermitian(global_depolarize(rho, p).matrix)
        np.testing.assert_allclose(mapped, direct, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_range_check(self, p):
        with pytest.raises(OutOfRange):
            global_depolarize_spectrum(np.array([1.0, 0.0, 0.0, 0.0]), p)
