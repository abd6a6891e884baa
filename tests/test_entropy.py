import math
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from absq.entropy import (
    _clamp,
    conditional_renyi,
    conditional_von_neumann,
    renyi,
    series_estimate,
    series_estimate_flat,
    spectrum_entropy,
    spectrum_renyi,
    spectrum_series_flat,
    trace_power,
    von_neumann,
)
from absq.errors import AlphaOutOfDomain, InvalidState, OutOfRange
from absq.linalg import eigvals_hermitian
from absq.states import (
    DensityMatrix,
    bell_state,
    depolarized_schmidt,
    isotropic,
    pure_schmidt,
)
from absq.tolerances import EIG_ZERO, ENTROPY_FLOOR, PSD_FLOOR

from conftest import bits, haar_unitary, random_density


def _bracket_series(eigs: np.ndarray, terms: int) -> np.ndarray:
    """spectrum_series_flat as sums of brackets: the power sums R_n over the
    positive entries, every g(k) in the order of its own terms, then g(k)/k
    added one k after the other."""
    eigs = np.where(eigs < 0, 0.0, eigs)
    r = np.stack([np.sum(eigs**n, axis=-1, where=eigs > 0) for n in range(2, terms + 2)], axis=-1)
    ks = np.arange(1.0, terms + 1)
    g = 1.0 + (-1.0) ** ks * r  # g[..., k - 1] = g(k); r[..., n - 2] = R_n
    for m in range(1, terms):
        g[..., m:] += (-1.0) ** m * ks[m:] * r[..., m - 1 : m]  # + (-1)^m k R_{m+1}
    total = 0.0
    for k in range(terms):
        total += g[..., k] / ks[k]
    return total


def _horner_series(eigs: np.ndarray, terms: int) -> np.ndarray:
    """spectrum_series_flat with its polynomial P written out as a Horner
    loop, in place, highest coefficient first."""
    eigs = np.where(eigs < EIG_ZERO, 0.0, eigs)
    m = np.arange(1, terms + 1)
    coefficients = np.zeros(terms + 2)
    coefficients[2:] = (-1.0) ** m * (1.0 / m + (terms - m))
    poly = np.zeros_like(eigs)
    for c in coefficients[::-1]:
        poly *= eigs
        poly += c
    return np.sum(1.0 / m) + np.sum(poly, axis=-1, where=eigs > 0)


def random_product_state(da: int, db: int, seed) -> DensityMatrix:
    """rho_A (x) rho_B with independent random factors."""
    rng = np.random.default_rng(seed)
    a = random_density((da,), rng)
    b = random_density((db,), rng)
    return DensityMatrix(np.kron(a.matrix, b.matrix), (da, db))


def diag_state(*probs, dims=None):
    probs = np.array(probs, dtype=float)
    dims = dims or (len(probs),)
    return DensityMatrix(np.diag(probs).astype(complex), dims)


class TestVonNeumann:
    def test_maximally_mixed(self):
        assert von_neumann(diag_state(0.25, 0.25, 0.25, 0.25, dims=(2, 2))) == pytest.approx(2.0)

    def test_pure(self):
        assert von_neumann(pure_schmidt(0.8)) == pytest.approx(0.0, abs=1e-12)

    def test_membership_boundary_weight(self):
        # at surviving weight 0.747614 the depolarized Bell state sits on
        # the S = 1 boundary
        rho = depolarized_schmidt(math.pi / 4, 0.747614)
        assert von_neumann(rho) == pytest.approx(1.0, abs=1e-4)

    def test_unitary_invariance(self):
        rho = depolarized_schmidt(0.5, 0.4)
        s0 = von_neumann(rho)
        for seed in range(100):
            u = haar_unitary(4, seed)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
            assert von_neumann(rotated) == pytest.approx(s0, abs=1e-9)


def _pure_states():
    for theta in (0.3, math.pi / 4, 1.1):
        yield pure_schmidt(theta)
    for index in range(4):
        yield bell_state(index)
    for d in (2, 3, 4):
        for seed in range(3):
            ket = haar_unitary(d * d, seed)[:, 0]
            yield DensityMatrix(np.outer(ket, ket.conj()), (d, d))


class TestRoundoffZeros:
    # a solver's roundoff on a zero eigenvalue, about 1e-17, is 4e-4 when
    # raised to the power 0.2; _clamp maps it to an exact zero
    @pytest.mark.parametrize("alpha", [0.2, 0.5])
    def test_trace_power_of_pure_states_is_one(self, alpha):
        for rho in _pure_states():
            assert abs(trace_power(rho, alpha) - 1.0) <= 8 * np.finfo(float).eps

    def test_entropy_of_pure_states_is_zero(self):
        for rho in _pure_states():
            assert bits(von_neumann(rho)) == bits(0.0)  # not -0.0

    def test_clamp_maps_roundoff_to_zero_and_refuses_below_the_floor(self):
        eigs = np.array([[1.0, EIG_ZERO, 0.99 * EIG_ZERO, PSD_FLOOR], [1.0, 0.0, -0.0, 0.0]])
        assert bits(_clamp(eigs)) == bits(np.array([[1.0, EIG_ZERO, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]))
        with pytest.raises(InvalidState, match="below the PSD clamp floor"):
            _clamp(np.array([1.0, 1.01 * PSD_FLOOR]))

    def test_entropy_below_the_floor_is_zero(self):
        # -x log2 x of one small eigenvalue beside 1 - x, around the floor
        xs = np.array([1e-16, 1e-15, 1e-13])
        eigs = np.stack([1.0 - xs, xs], axis=-1)
        s = spectrum_entropy(eigs)
        exact = -(eigs * np.log2(eigs)).sum(axis=-1)
        assert np.array_equal(s == 0.0, exact < ENTROPY_FLOOR)
        assert s[-1] == exact[-1] > ENTROPY_FLOOR


class TestConditionalVonNeumann:
    def test_bell(self):
        assert conditional_von_neumann(bell_state(0)) == pytest.approx(-1.0, abs=1e-10)

    def test_product_state_nonnegative(self, rng):
        rho = random_product_state(2, 2, rng)
        s_a = von_neumann(rho.marginal([0]))
        assert conditional_von_neumann(rho) == pytest.approx(s_a, abs=1e-10)
        assert conditional_von_neumann(rho) >= -1e-10

    def test_maximally_mixed(self):
        assert conditional_von_neumann(
            diag_state(0.25, 0.25, 0.25, 0.25, dims=(2, 2))
        ) == pytest.approx(1.0)


class TestRenyi:
    def test_alpha2_maximally_mixed(self):
        d = 3
        rho = DensityMatrix(np.eye(d * d) / (d * d), (d, d))
        assert renyi(rho, 2) == pytest.approx(2 * math.log2(d), abs=1e-10)

    def test_alpha2_pure(self):
        assert renyi(pure_schmidt(0.3), 2) == pytest.approx(0.0, abs=1e-10)

    def test_half_order_hand_value(self):
        # (1/(1-1/2)) log2(2 sqrt(1/2)) = 1
        rho = diag_state(0.5, 0.5, 0.0, 0.0, dims=(2, 2))
        assert renyi(rho, 0.5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "alpha, spectrum, expected",
        [
            # S_1 to 17 digits; log2(sum lambda^alpha) / (1 - alpha) would
            # divide the power sum's roundoff by 1 - alpha = -2^-52
            (1 + 2**-52, [0.8125, 0.0625, 0.0625, 0.0625], 0.9933927290103626),
            # S_inf = -log2(lambda_max); alpha log2(lambda_max) overflows here
            (1e308, [0.25, 0.25, 0.25, 0.25], 2.0),
        ],
        ids=["one-plus-ulp", "1e308"],
    )
    def test_orders_at_the_ends_reach_their_limits(self, alpha, spectrum, expected):
        assert spectrum_renyi(np.array(spectrum), alpha) == pytest.approx(expected, abs=1e-14)

    def test_alpha_domain(self):
        rho = pure_schmidt(0.4)
        for bad in (0.0, -1.0, 1.0):
            with pytest.raises(AlphaOutOfDomain):
                renyi(rho, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_alpha(self, bad):
        rho = pure_schmidt(0.4)
        with pytest.raises(AlphaOutOfDomain):
            renyi(rho, bad)
        with pytest.raises(OutOfRange):
            trace_power(rho, bad)

    def test_unitary_invariance(self, rng):
        rho = random_density((2, 2), rng)
        for alpha in (0.5, 2.0, 3.0):
            base = renyi(rho, alpha)
            for seed in range(100):
                u = haar_unitary(4, seed)
                rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
                assert renyi(rotated, alpha) == pytest.approx(base, abs=1e-9)

    def test_schur_concavity_on_majorized_spectra(self, rng):
        # mixing a spectrum with permutations produces a majorized one;
        # Renyi entropy must not decrease
        for alpha in (0.5, 2.0, 3.0):
            for _ in range(20):
                r = rng.dirichlet(np.ones(4))
                weights = rng.dirichlet(np.ones(3))
                mixed = sum(w * rng.permutation(r) for w in weights)
                s_r = renyi(diag_state(*r, dims=(2, 2)), alpha)
                s_m = renyi(diag_state(*mixed, dims=(2, 2)), alpha)
                assert s_r <= s_m + 1e-12

    def test_upper_bound(self, rng):
        for _ in range(20):
            rho = random_density((2, 2), rng)
            for alpha in (0.5, 2.0, 5.0):
                assert renyi(rho, alpha) <= 2.0 + 1e-9
            assert von_neumann(rho) <= 2.0 + 1e-9


class TestConditionalRenyi:
    def test_bell_alpha2(self):
        assert conditional_renyi(bell_state(0), 2) == pytest.approx(-1.0, abs=1e-10)

    def test_maximally_mixed(self):
        rho = diag_state(0.25, 0.25, 0.25, 0.25, dims=(2, 2))
        assert conditional_renyi(rho, 2) == pytest.approx(1.0, abs=1e-10)

    def test_additive_on_products(self, rng):
        for alpha in (0.5, 2.0, 3.5):
            rho = random_product_state(2, 3, rng)
            s_a = renyi(rho.marginal([0]), alpha)
            assert conditional_renyi(rho, alpha) == pytest.approx(s_a, abs=1e-10)


class TestSeriesEstimate:
    def test_pure_state_vanishes_at_any_truncation(self):
        for terms in (1, 3, 10, 25):
            assert series_estimate(pure_schmidt(0.7), terms) == pytest.approx(0.0, abs=1e-12)

    def test_matches_binomial_trace_power_sum(self, rng):
        # oracle: the literal alternating-binomial sum over trace powers
        rho = random_density((2, 2), rng)
        for terms in (1, 4, 9, 12):
            total = 0.0
            for k in range(1, terms + 1):
                g = sum(
                    (-1) ** m * math.comb(k, m) * trace_power(rho, m + 1)
                    for m in range(k + 1)
                )
                total += g / k
            assert series_estimate(rho, terms) == pytest.approx(
                total / math.log(2), abs=1e-12
            )

    def test_truncation_error_shrinks(self, rng):
        rho = random_density((2, 2), rng)
        s = von_neumann(rho)
        errors = [abs(series_estimate(rho, t) - s) for t in (10, 40)]
        assert errors[1] <= errors[0]
        assert errors[1] < 0.15

    def test_monotone_from_below(self, rng):
        # every term of the series is nonnegative, so truncations increase
        # monotonically toward the exact entropy
        for seed in range(5):
            rho = random_density((2, 2), seed)
            s = von_neumann(rho)
            est10 = series_estimate(rho, 10)
            est40 = series_estimate(rho, 40)
            assert est10 <= est40 <= s + 1e-12

    def test_known_truncation_gap_on_isotropic_family(self):
        # the 10-term truncation underestimates heavily when small
        # eigenvalues are present; at the depolarized isotropic state
        # (d = 3, beta = 1) mixed down to weight ~0.235 the gap is ~0.24
        # bits, which is exactly why the surrogate boundary tables sit far
        # from the exact ones
        rho = isotropic(3, 0.234651)
        gap = von_neumann(rho) - series_estimate(rho, 10)
        assert 0.1 < gap < 0.3


class TestSeriesEstimateFlat:
    def test_matches_literal_uniform_sum(self, rng):
        rho = random_density((2, 2), rng)
        for terms in (1, 2, 5, 10):
            total = 0.0
            for k in range(1, terms + 1):
                g = 1.0 + (-1) ** k * trace_power(rho, k + 1)
                g += sum((-1) ** m * k * trace_power(rho, m + 1) for m in range(1, k))
                total += g / k
            assert series_estimate_flat(rho, terms) == pytest.approx(total, abs=1e-12)

    def test_agrees_with_binomial_up_to_three_terms(self, rng):
        # uniform and binomial interior weights only differ from k = 4 on
        rho = random_density((2, 2), rng)
        for terms in (1, 2, 3):
            assert series_estimate_flat(rho, terms) == pytest.approx(
                series_estimate(rho, terms) * math.log(2), abs=1e-12
            )

    def test_not_an_entropy_on_pure_states(self):
        # the surrogate deliberately keeps the reference uniform weights,
        # under which pure states do not map to zero
        assert series_estimate_flat(pure_schmidt(0.7), 10) != pytest.approx(0.0, abs=1e-3)

    def test_spectrum_level_helper_is_the_same_path(self, rng):
        for rho in (random_density((2, 2), rng), isotropic(3, 0.6), pure_schmidt(0.7)):
            for terms in (1, 4, 10):
                assert spectrum_series_flat(eigvals_hermitian(rho.matrix), terms) == series_estimate_flat(
                    rho, terms
                )

    @pytest.mark.parametrize("terms", [1, 10, 12, 2000])
    def test_polyval_is_the_horner_loop_bit_for_bit(self, terms, rng):
        # spectra of 1 to 36 eigenvalues, zero-padded to an (8, 36) stack
        eigs = np.zeros((8, 36))
        for row, n in zip(eigs, (1, 2, 4, 9, 16, 25, 36, 36)):
            row[:n] = -np.sort(-rng.dirichlet(np.ones(n)))
        assert bits(spectrum_series_flat(eigs, terms)) == bits(_horner_series(eigs, terms))

    @settings(max_examples=60)
    @given(
        n=st.sampled_from([1, 2, 4, 9, 36]),
        terms=st.integers(1, 60),
        concentration=st.sampled_from([0.1, 1.0, 10.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_bracket_sums(self, n, terms, concentration, seed):
        # the same linear form of the power sums in another order: within 8
        # eps of its sum of absolute terms, sum_k 1/k + sum_i sum_m |w_m| lambda_i^{m+1}
        eigs = -np.sort(-np.random.default_rng(seed).dirichlet(np.full(n, concentration), size=5))
        m = np.arange(1, terms + 1)
        weights = np.abs(1.0 / m + (terms - m))
        size = np.sum(1.0 / m) + np.sum(weights * eigs[..., None] ** (m + 1), axis=(-2, -1))
        gap = np.abs(spectrum_series_flat(eigs, terms) - _bracket_series(eigs, terms))
        assert np.all(gap <= 8 * np.finfo(float).eps * size)

    def test_memory_does_not_grow_with_terms(self, rng):
        # one Horner pass keeps a few arrays of the stack's shape and a few
        # of length terms: its peak stays under a tenth of one rows x terms
        # x n array (4.6 MB here)
        rows, n, terms = 8, 36, 2000
        eigs = -np.sort(-rng.dirichlet(np.ones(n), size=rows))
        spectrum_series_flat(eigs, terms)  # warm-up: numpy's own first-call allocations
        tracemalloc.start()
        try:
            spectrum_series_flat(eigs, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * terms * n * 8 // 10
