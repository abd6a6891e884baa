import math
import warnings

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from absq.entropy import trace_power
from absq.errors import DimensionMismatch, InvalidState, NotNormalized, OutOfRange
from absq.linalg import eigvals_hermitian, haar_unitary, partial_trace
from absq.states import (
    DensityMatrix,
    acin_tripartite,
    acin_two_param,
    bell_state,
    depolarized_schmidt,
    depolarized_schmidt_stack,
    ghz_w_mix,
    isotropic,
    isotropic_spectrum,
    pure_schmidt,
    random_density,
)
from absq.tolerances import PSD_FLOOR


def test_pure_schmidt_bell_point():
    rho = pure_schmidt(math.pi / 4)
    for keep in ([0], [1]):
        np.testing.assert_allclose(
            partial_trace(rho.matrix, [2, 2], keep), np.eye(2) / 2, atol=1e-12
        )


def test_pure_schmidt_marginal_weights():
    rho = pure_schmidt(math.pi / 6)
    diag = np.diag(partial_trace(rho.matrix, [2, 2], keep=[0])).real
    np.testing.assert_allclose(diag, [0.75, 0.25], atol=1e-12)


def test_pure_schmidt_purity():
    for theta in (0.2, 0.9, 1.4):
        assert trace_power(pure_schmidt(theta), 2) == pytest.approx(1.0, abs=1e-10)


def test_pure_schmidt_endpoint_warns():
    with pytest.warns(UserWarning, match="product"):
        pure_schmidt(0.0)


def test_depolarized_schmidt_eigenvalues():
    rho = depolarized_schmidt(0.7, 0.3)
    np.testing.assert_allclose(
        eigvals_hermitian(rho.matrix), [(1 + 0.9) / 4] + [(1 - 0.3) / 4] * 3, atol=1e-12
    )


def test_acin_two_param_matrix_layout():
    lam, theta = 0.9, math.pi / 4
    m = acin_two_param(lam, theta).matrix
    assert m[0, 0] == pytest.approx((1 - lam) / 2)
    assert m[3, 3] == pytest.approx((1 - lam) / 2)
    assert m[1, 2] == pytest.approx(lam / 2 * math.sin(2 * theta))


def test_acin_two_param_spectrum():
    # central block is rank one with trace lambda
    eigs = eigvals_hermitian(acin_two_param(0.9, math.pi / 4).matrix)
    np.testing.assert_allclose(eigs, [0.9, 0.05, 0.05, 0.0], atol=1e-12)


def test_acin_two_param_near_unit_weight_is_bell_like():
    # as lambda -> 1 the state approaches the pure Bell state living on the
    # central block
    rho = acin_two_param(1 - 1e-9, math.pi / 4)
    np.testing.assert_allclose(rho.matrix, bell_state(2).matrix, atol=1e-8)


def test_acin_two_param_rejects_endpoints():
    with pytest.raises(OutOfRange):
        acin_two_param(1.0, 0.5)
    with pytest.raises(OutOfRange):
        acin_two_param(0.5, 0.0)


def test_isotropic_limits():
    d = 3
    np.testing.assert_allclose(isotropic(d, 0.0).matrix, np.eye(9) / 9, atol=1e-12)
    assert trace_power(isotropic(d, 1.0), 2) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_isotropic_closed_form_spectrum(d):
    for beta in (-1.0 / (d * d - 1), 0.1, 0.8, 1.0):
        eigs = eigvals_hermitian(isotropic(d, beta).matrix)
        expected = sorted(
            [(1 + beta * (d * d - 1)) / d**2] + [(1 - beta) / d**2] * (d * d - 1),
            reverse=True,
        )
        np.testing.assert_allclose(eigs, expected, atol=1e-11)


# interior Schmidt angles: the endpoints are product states and warn
THETAS = st.floats(1e-6, math.pi / 2 - 1e-6)


class TestClosedFormSpectra:
    """Solver spectra against the closed forms, within 1e-14."""

    @settings(max_examples=40)
    @given(theta=THETAS, p=st.floats(0.0, 1.0))
    def test_depolarized_schmidt(self, theta, p):
        eigs = eigvals_hermitian(depolarized_schmidt(theta, p).matrix)
        np.testing.assert_allclose(eigs, [(1 + 3 * p) / 4] + [(1 - p) / 4] * 3, rtol=0, atol=1e-14)

    @settings(max_examples=30)
    @given(d=st.integers(2, 5), t=st.floats(0.0, 1.0))
    def test_isotropic(self, d, t):
        lo = -1.0 / (d * d - 1)
        beta = lo + t * (1.0 - lo)
        eigs = eigvals_hermitian(isotropic(d, beta).matrix)
        rest = (1 - beta) / d**2
        expected = sorted([beta + rest] + [rest] * (d * d - 1), reverse=True)
        np.testing.assert_allclose(eigs, expected, rtol=0, atol=1e-14)

    @settings(max_examples=30)
    @given(d=st.integers(2, 6), t=st.floats(0.0, 1.0))
    def test_isotropic_spectrum(self, d, t):
        # the closed form itself: non-increasing for every admissible beta,
        # negative ones included, and the solver's spectrum within 1e-15
        lo = -1.0 / (d * d - 1)
        beta = lo + t * (1.0 - lo)
        eigs = isotropic_spectrum(d, beta)
        assert eigs.shape == (d * d,)
        assert (np.diff(eigs) <= 0).all()
        np.testing.assert_allclose(eigs, eigvals_hermitian(isotropic(d, beta).matrix), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("beta", [0.8, 1.0])
    def test_isotropic_spectrum_at_the_tables_weights(self, d, beta):
        eigs = eigvals_hermitian(isotropic(d, beta).matrix)
        assert np.abs(isotropic_spectrum(d, beta) - eigs).max() <= 5.6e-16

    @settings(max_examples=20)
    @given(members=st.lists(st.tuples(THETAS, st.floats(0.0, 1.0)), min_size=1, max_size=6))
    def test_depolarized_schmidt_stack_equals_members(self, members):
        thetas, ps = zip(*members)
        stack = depolarized_schmidt_stack(thetas, ps)
        assert stack.shape == (len(members), 4, 4)
        for m, (theta, p) in zip(stack, members):
            assert m.tobytes() == depolarized_schmidt(theta, p).matrix.tobytes()


def test_isotropic_lambda_max_example():
    assert eigvals_hermitian(isotropic(3, 0.8).matrix)[0] == pytest.approx(
        0.822222, abs=1e-6
    )


def test_isotropic_range_check():
    with pytest.raises(OutOfRange):
        isotropic(3, -0.2)


@pytest.mark.parametrize(
    "d,beta,message",
    [(3, -0.2, "beta=-0.2 outside"), (3, 1.5, "beta=1.5 outside"), (3, math.nan, "beta=nan outside"),
     (1, 0.5, "d=1 must be >= 2")],
)
def test_isotropic_spectrum_shares_the_range_check(d, beta, message):
    for factory in (isotropic, isotropic_spectrum):
        with pytest.raises(OutOfRange, match=message):
            factory(d, beta)


def test_acin_tripartite_basis_cases():
    ket000 = acin_tripartite([1, 0, 0, 0, 0], 0.0).matrix
    assert ket000[0, 0] == pytest.approx(1.0)
    assert np.sum(np.abs(ket000)) == pytest.approx(1.0)

    s = 1 / math.sqrt(2)
    ghz = acin_tripartite([s, 0, 0, 0, s], 0.0).matrix
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[7, 7] = expected[0, 7] = expected[7, 0] = 0.5
    np.testing.assert_allclose(ghz, expected, atol=1e-12)


def test_acin_tripartite_reduced_matches_formula(rng):
    # dropping the first qubit leaves a rank-<=2 matrix whose entries are
    # quadratic in the amplitudes
    for _ in range(5):
        x = np.abs(rng.normal(size=5))
        x /= np.linalg.norm(x)
        theta = rng.uniform(0, math.pi)
        red = partial_trace(acin_tripartite(x, theta).matrix, [2, 2, 2], keep=[1, 2])
        ph = np.exp(1j * theta)
        expected = np.array(
            [
                [x[0] ** 2 + x[1] ** 2, ph * x[1] * x[2], ph * x[1] * x[3], ph * x[1] * x[4]],
                [np.conj(ph) * x[1] * x[2], x[2] ** 2, x[2] * x[3], x[2] * x[4]],
                [np.conj(ph) * x[1] * x[3], x[2] * x[3], x[3] ** 2, x[3] * x[4]],
                [np.conj(ph) * x[1] * x[4], x[2] * x[4], x[3] * x[4], x[4] ** 2],
            ]
        )
        np.testing.assert_allclose(red, expected, atol=1e-12)


def test_acin_tripartite_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        acin_tripartite([1, 1, 0, 0, 0], 0.0)
    # an amplitude whose square overflows is refused as such, without
    # numpy's overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotNormalized, match=r"= inf, expected 1"):
            acin_tripartite([0.7854, 3, 9, 9, 1e308], 0.0)


def test_ghz_w_endpoints():
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(
        ghz_w_mix(1.0).matrix, acin_tripartite([s, 0, 0, 0, s], 0.0).matrix, atol=1e-12
    )
    w = ghz_w_mix(0.0).matrix
    assert w[1, 1] == pytest.approx(1 / 3)
    assert w[1, 2] == pytest.approx(1 / 3)


@pytest.mark.parametrize("p", [0.0, 0.3, 1 / 13, 0.9])
def test_ghz_w_marginal_spectrum(p):
    red = DensityMatrix(
        partial_trace(ghz_w_mix(p).matrix, [2, 2, 2], keep=[0, 1]), (2, 2)
    )
    eigs = eigvals_hermitian(red.matrix)
    expected = sorted([0.0, 2 * (1 - p) / 3, p / 2, (2 + p) / 6], reverse=True)
    np.testing.assert_allclose(eigs, expected, atol=1e-10)


def test_bell_states_complete_and_orthogonal():
    projectors = [bell_state(i).matrix for i in range(4)]
    np.testing.assert_allclose(sum(projectors), np.eye(4), atol=1e-12)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert np.max(np.abs(projectors[i] @ projectors[j])) <= 1e-12


def test_bell_convention():
    # index 0 is (|00> + |11>)/sqrt(2)
    m = bell_state(0).matrix
    assert m[0, 0] == pytest.approx(0.5)
    assert m[0, 3] == pytest.approx(0.5)
    m = bell_state(2).matrix
    assert m[1, 1] == pytest.approx(0.5)
    assert m[1, 2] == pytest.approx(0.5)


def test_bell_index_range():
    with pytest.raises(OutOfRange):
        bell_state(4)


def test_factory_outputs_validate(rng):
    # construction itself runs the DensityMatrix checks; verify a sample of
    # invariants explicitly
    for rho in (
        pure_schmidt(0.4),
        acin_two_param(0.3, 1.0),
        isotropic(4, 0.5),
        ghz_w_mix(0.6),
        random_density((2, 2), rng),
    ):
        m = rho.matrix
        assert abs(np.trace(m) - 1) < 1e-10
        assert np.max(np.abs(m - m.conj().T)) < 1e-10
        assert eigvals_hermitian(m)[-1] >= -1e-9


@pytest.mark.parametrize(
    "factory",
    [
        lambda: pure_schmidt(math.nan),
        lambda: depolarized_schmidt(0.3, math.nan),
        lambda: isotropic(3, math.nan),
        lambda: ghz_w_mix(math.nan),
        lambda: acin_tripartite([1, 0, 0, 0, 0], math.nan),
    ],
    ids=["pure_schmidt", "depolarized_schmidt", "isotropic", "ghz_w_mix", "acin_tripartite"],
)
def test_factories_reject_nan(factory):
    with pytest.raises(OutOfRange):
        factory()


@pytest.mark.parametrize(
    "matrix, dims",
    [
        (np.eye(4) / 2, (2, 2)),  # trace 2
        (np.diag([1.5, -0.5]), (2,)),  # negative eigenvalue
        (np.full((2, 2), math.nan), (2,)),  # non-finite
    ],
    ids=["trace", "psd", "non_finite"],
)
def test_density_matrix_failures_are_invalid_state(matrix, dims):
    with pytest.raises(InvalidState):
        DensityMatrix(matrix.astype(complex), dims)


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 2, (2, 2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex), (2,))  # negative eigenvalue


class TestSubsystemDims:
    def test_rejects_negative_dims(self):
        with pytest.raises(DimensionMismatch, match="integers >= 1"):
            DensityMatrix(np.eye(4) / 4, (-2, -2))

    def test_rejects_fractional_dims(self):
        with pytest.raises(DimensionMismatch, match="integers >= 1"):
            DensityMatrix(np.eye(4) / 4, (2.7, 2))

    def test_accepts_trivial_subsystem(self):
        assert DensityMatrix(np.eye(4) / 4, (1, 4)).dims == (1, 4)


def _with_smallest_eigenvalue(lam_min, seed=7):
    # Haar-rotated 4x4 state with spectrum (0.5 - lam_min, 0.3, 0.2, lam_min)
    u = haar_unitary(4, seed)
    spectrum = np.array([0.5 - lam_min, 0.3, 0.2, lam_min])
    return (u * spectrum) @ u.conj().T


class TestPsdValidation:
    def test_accepts_just_above_floor(self):
        DensityMatrix(_with_smallest_eigenvalue(0.99 * PSD_FLOOR), (2, 2))

    def test_rejects_just_below_floor(self):
        with pytest.raises(ValueError, match="negative eigenvalue -1.010e-09 below PSD floor"):
            DensityMatrix(_with_smallest_eigenvalue(1.01 * PSD_FLOOR), (2, 2))

    def test_accepts_singular_state(self):
        DensityMatrix(_with_smallest_eigenvalue(0.0), (2, 2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(m, (2, 2))

    def test_rejects_all_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(np.full((2, 2), math.nan, dtype=complex), (2,))
