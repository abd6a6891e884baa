import math

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from absq.bloch import decompose_bipartite, decompose_tripartite
from absq.channels import double_apply, global_depolarize, make_channel
from absq.classify import (
    _acrenn,
    acre2nn_bloch,
    classification_report,
    is_acre2nn,
    is_acrenn,
    is_acvenn,
    is_afef,
    majorizes,
    marginal_acre2nn,
)
from absq.entropy import renyi, spectrum_power, spectrum_renyi, trace_power
from absq.errors import AlphaOutOfDomain, DimensionMismatch, SumMismatch
from absq.linalg import eigvals_hermitian, haar_unitary
from absq.states import (
    DensityMatrix,
    acin_tripartite,
    bell_state,
    depolarized_schmidt,
    ghz_w_mix,
    pure_schmidt,
    random_density,
)
from absq.tolerances import CLASS_MARGIN

from conftest import bits


def phase_damped_pi4(p):
    ch = make_channel("phase_damping", p)
    return double_apply(ch, ch, pure_schmidt(math.pi / 4))


class TestAfef:
    def test_maximally_mixed(self):
        ok, lam = is_afef(DensityMatrix(np.eye(4) / 4, (2, 2)))
        assert ok and lam == pytest.approx(0.25)

    def test_depolarized_schmidt_threshold(self):
        # member exactly up to surviving weight 1/3
        for p, want in ((0.2, True), (1 / 3, True), (0.34, False), (0.9, False)):
            ok, lam = is_afef(depolarized_schmidt(math.pi / 4, p))
            assert ok is want
            assert lam == pytest.approx((1 + 3 * p) / 4, abs=1e-12)

    def test_phase_damped_boundary_state(self):
        ok, lam = is_afef(phase_damped_pi4(1.0))
        assert lam == pytest.approx(0.5, abs=1e-10)
        assert ok  # boundary is inclusive


class TestAcvenn:
    def test_maximally_mixed(self):
        ok, s = is_acvenn(DensityMatrix(np.eye(4) / 4, (2, 2)))
        assert ok and s == pytest.approx(2.0)

    def test_amplitude_damped_interval(self):
        def amp(p):
            ch = make_channel("amplitude_damping", p)
            return double_apply(ch, ch, pure_schmidt(math.pi / 4))

        assert is_acvenn(amp(0.5))[0]
        assert is_acvenn(amp(0.27))[0]
        assert not is_acvenn(amp(0.26))[0]
        assert not is_acvenn(amp(0.74))[0]

    def test_phase_damped_never_member(self):
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 8):
            for p in np.linspace(0, 1, 8):
                ch = make_channel("phase_damping", p)
                rho = double_apply(ch, ch, pure_schmidt(theta))
                ok, s = is_acvenn(rho)
                assert not ok and s < 1.0


class TestAcrenn:
    def test_maximally_mixed_alpha2(self):
        ok, w = is_acrenn(DensityMatrix(np.eye(4) / 4, (2, 2)), 2)
        assert ok and w == pytest.approx(0.25)

    def test_pure_state_rejected(self):
        for alpha in (1.5, 2.0, 5.0):
            ok, w = is_acrenn(pure_schmidt(0.8), alpha)
            assert not ok and w == pytest.approx(1.0, abs=1e-9)

    def test_alpha_domain(self):
        with pytest.raises(AlphaOutOfDomain):
            is_acrenn(bell_state(0), 1.0)

    def test_equivalent_to_renyi_threshold(self):
        # trace-power comparison against d^(1-alpha) must agree with the
        # entropy comparison against log2 d on every sampled state; the
        # states are one stack, solved in one call, and the first, an
        # interior and the last member are checked bitwise against
        # is_acrenn and renyi
        rhos = [random_density((2, 2), seed) for seed in range(200)]
        eigs = eigvals_hermitian(np.array([rho.matrix for rho in rhos]))
        for alpha in (0.3, 0.7, 2.0, 5.0):
            by_entropy = _acrenn(eigs, 2, alpha)[0]
            power = spectrum_power(eigs, alpha)
            bound = 2.0 ** (1.0 - alpha)
            by_trace = power >= bound - 1e-9 if alpha < 1 else power <= bound + 1e-9
            assert np.array_equal(by_entropy, by_trace)
            # renyi's arithmetic on the whole stack
            entropies = spectrum_renyi(eigs, alpha)
            assert np.array_equal(by_entropy, entropies >= 1.0 - CLASS_MARGIN)
            assert np.allclose(entropies, np.log2(power) / (1.0 - alpha), rtol=0, atol=1e-12)
            for i in (0, 100, len(rhos) - 1):
                ok, witness = is_acrenn(rhos[i], alpha)
                assert ok == by_entropy[i] and bits(witness) == bits(power[i])
                assert bits(renyi(rhos[i], alpha)) == bits(entropies[i])


class TestAcrennLargeOrder:
    """At a large order Tr rho^alpha and d^(1 - alpha) both fall below
    CLASS_MARGIN, or underflow to 0; the verdict is still S_alpha >= log2 d."""

    @pytest.mark.parametrize("alpha", [200.0, 2000.0, 1e10])
    def test_depolarized_bell_state_stays_outside(self, alpha):
        rho = global_depolarize(bell_state(0), 0.3)  # lambda_max = 0.775
        s = renyi(rho, alpha)
        assert math.isfinite(s) and s < 1.0
        ok, witness = is_acrenn(rho, alpha)
        assert ok is False and witness < CLASS_MARGIN
        assert classification_report(rho, (alpha,)).acrenn[alpha] == (ok, witness)

    def test_renyi_tends_to_the_min_entropy(self):
        rho = global_depolarize(bell_state(0), 0.3)
        assert renyi(rho, 2000.0) == pytest.approx(0.368, abs=1e-3)
        assert trace_power(rho, 1e10) == 0.0  # underflows
        assert renyi(rho, 1e10) == pytest.approx(-math.log2(0.775), abs=1e-9)

    def test_mixed_enough_state_stays_inside(self):
        rho = depolarized_schmidt(0.5, 0.3)  # lambda_max = 0.475
        assert renyi(rho, 1e10) == pytest.approx(-math.log2(0.475), abs=1e-9)
        assert is_acrenn(rho, 1e10)[0] is True

    @settings(max_examples=200)
    @given(
        d=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
        mix=st.floats(0.0, 1.0),
        alpha=st.one_of(st.floats(1e-6, 1e10), st.sampled_from([0.5, 2.0, 41.0, 1e10])),
    )
    def test_verdict_is_renyi_against_log2_d(self, d, seed, mix, alpha):
        assume(alpha != 1.0)
        # a random state pulled toward the maximally mixed one, so that the
        # drawn states fall on both sides of the boundary at every order
        noisy = random_density((d, d), seed).matrix
        rho = DensityMatrix((1.0 - mix) * noisy + mix * np.eye(d * d) / (d * d), (d, d))
        s = renyi(rho, alpha)
        assert math.isfinite(s)
        assert is_acrenn(rho, alpha)[0] == (s >= math.log2(d) - CLASS_MARGIN)


class TestAcre2nn:
    def test_bell_state(self):
        ok, purity = is_acre2nn(bell_state(0))
        assert not ok and purity == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self):
        ok, purity = is_acre2nn(DensityMatrix(np.eye(4) / 4, (2, 2)))
        assert ok and purity == pytest.approx(0.25)

    def test_ghz_w_marginal_threshold(self):
        # marginal purity (13 p^2 - 14 p + 10)/18 <= 1/2 iff p >= 1/13
        for p, want in ((0.05, False), (1 / 13, True), (0.2, True), (1.0, True)):
            marg = ghz_w_mix(p).marginal([1, 2])
            assert is_acre2nn(marg)[0] is want


class TestAcre2nnBloch:
    def test_weyl_threshold(self):
        # vanishing local vectors push the bound to d^2 (d-1)/4, i.e. 1 at d=2
        bb = decompose_bipartite(bell_state(0))
        ok, tnorm = acre2nn_bloch(bb)
        assert tnorm == pytest.approx(3.0, abs=1e-10)
        assert not ok  # 3 > 1

    def test_matches_purity_criterion(self):
        for seed in range(200):
            d = 2 if seed % 2 else 3
            rho = random_density((d, d), seed)
            assert acre2nn_bloch(decompose_bipartite(rho))[0] == is_acre2nn(rho)[0]


class TestMarginalAcre2nn:
    def test_fully_mixed(self):
        bt = decompose_tripartite(DensityMatrix(np.eye(8) / 8, (2, 2, 2)))
        ok, w = marginal_acre2nn(bt, "23")
        assert ok and w == pytest.approx(0.0, abs=1e-12)

    def test_three_qubit_pure_state_purity_condition(self, rng):
        # dropping the first qubit: membership iff
        # x0^4 + 2 x0^2 x1^2 + (1 - x0^2)^2 <= 1/2
        for _ in range(20):
            x = np.abs(rng.normal(size=5))
            x /= np.linalg.norm(x)
            theta = rng.uniform(0, math.pi)
            rho = acin_tripartite(x, theta)
            bt = decompose_tripartite(rho)
            purity = x[0] ** 4 + 2 * x[0] ** 2 * x[1] ** 2 + (1 - x[0] ** 2) ** 2
            assert marginal_acre2nn(bt, "23")[0] == (purity <= 0.5 + 1e-12)

    def test_matches_direct_marginal(self):
        for seed in range(60):
            rho = random_density((2, 2, 2), seed)
            bt = decompose_tripartite(rho)
            for pair, keep in (("23", [1, 2]), ("13", [0, 2]), ("12", [0, 1])):
                direct = is_acre2nn(rho.marginal(keep))[0]
                assert marginal_acre2nn(bt, pair)[0] == direct


class TestMajorizes:
    def test_extreme_points(self):
        assert majorizes([1, 0, 0, 0], [0.25, 0.25, 0.25, 0.25])
        assert not majorizes([0.25, 0.25, 0.25, 0.25], [1, 0, 0, 0])

    def test_reflexive(self):
        assert majorizes([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])

    def test_unsorted_inputs(self):
        assert majorizes([0.0, 1.0], [0.5, 0.5])

    def test_birkhoff_mixing(self, rng):
        # any convex mixture of permutations of r is majorized by r
        for _ in range(50):
            r = rng.dirichlet(np.ones(5))
            weights = rng.dirichlet(np.ones(4))
            s = sum(w * rng.permutation(r) for w in weights)
            assert majorizes(r, s)

    def test_sum_mismatch(self):
        with pytest.raises(SumMismatch):
            majorizes([1, 0], [0.5, 0.6])
        with pytest.raises(DimensionMismatch):
            majorizes([1, 0], [1, 0, 0])


class TestSchurTransfer:
    def test_acrenn_transfers_down_majorization(self, rng):
        # if spectrum(rho) majorizes spectrum(rho') and rho is a member, the more
        # mixed state must be one too
        for alpha in (0.5, 2.0, 5.0):
            checked = 0
            for _ in range(200):
                r = rng.dirichlet(np.ones(4) * 0.7)
                weights = rng.dirichlet(np.ones(3))
                s = sum(w * rng.permutation(r) for w in weights)
                rho_r = DensityMatrix(np.diag(r).astype(complex), (2, 2))
                rho_s = DensityMatrix(np.diag(s).astype(complex), (2, 2))
                if is_acrenn(rho_r, alpha)[0]:
                    checked += 1
                    assert is_acrenn(rho_s, alpha)[0]
            assert checked > 0


def test_classification_report_fields():
    report = classification_report(depolarized_schmidt(math.pi / 4, 0.5), alphas=(0.5, 2.0))
    assert not report.afef
    assert report.lambda_max == pytest.approx(0.625, abs=1e-12)
    assert report.acvenn
    assert set(report.acrenn) == {0.5, 2.0}
    assert report.thresholds["lambda_max"] == pytest.approx(0.5)
    assert report.thresholds["entropy_bits"] == pytest.approx(1.0)


def test_classification_report_matches_predicates():
    # one spectrum per report must give exactly the per-predicate values
    states = [random_density((d, d), seed) for d in (2, 3, 4) for seed in range(5)]
    states += [depolarized_schmidt(0.4, p) for p in (0.0, 1 / 3, 0.9)]
    states += [bell_state(1), DensityMatrix(np.eye(4) / 4, (2, 2))]
    alphas = (0.5, 2.0, 3.0)
    for rho in states:
        report = classification_report(rho, alphas)
        assert (report.afef, report.lambda_max) == is_afef(rho)
        assert (report.acvenn, report.entropy_bits) == is_acvenn(rho)
        assert (report.acre2nn, report.purity) == is_acre2nn(rho)
        for alpha in alphas:
            assert report.acrenn[alpha] == is_acrenn(rho, alpha)


def test_classification_report_rejects_bad_alpha():
    with pytest.raises(AlphaOutOfDomain):
        classification_report(depolarized_schmidt(0.4, 0.5), alphas=(0.5, 1.0))


def test_dimension_guards():
    with pytest.raises(DimensionMismatch):
        is_afef(random_density((2, 3), 0))
    with pytest.raises(DimensionMismatch):
        is_acvenn(random_density((8,), 0))


def _spectrum(d: int):
    # every eigenvalue >= 1e-3/n: Tr rho^alpha for alpha < 1 is not Lipschitz
    # at 0, so a zero eigenvalue moved by roundoff would move the witness
    n = d * d
    floor = 1e-3 / n
    weights = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)
    return weights.map(lambda w: floor + (1.0 - n * floor) * np.array(w) / sum(w))


def _verdicts(report):
    """(verdict, witness, threshold) for every class in a report."""
    thr = report.thresholds
    rows = [
        (report.afef, report.lambda_max, thr["lambda_max"]),
        (report.acvenn, report.entropy_bits, thr["entropy_bits"]),
        (report.acre2nn, report.purity, thr["purity"]),
    ]
    for alpha, (ok, witness) in report.acrenn.items():
        rows.append((ok, witness, thr[f"trace_power[{alpha:g}]"]))
    return rows


class TestUnitaryInvariance:
    # every verdict is a function of the spectrum, so a global unitary
    # changes no witness beyond roundoff
    @settings(max_examples=50)
    @given(data=st.data(), d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
    def test_report_matches_diagonal(self, data, d, seed):
        lam = data.draw(_spectrum(d))
        u = haar_unitary(d * d, seed)
        rotated = classification_report(DensityMatrix(u @ np.diag(lam) @ u.conj().T, (d, d)), (0.5, 2.0))
        diagonal = classification_report(DensityMatrix(np.diag(lam), (d, d)), (0.5, 2.0))
        assert rotated.thresholds == diagonal.thresholds
        for (ok_u, w_u, thr), (ok, w, _) in zip(_verdicts(rotated), _verdicts(diagonal)):
            assert abs(w_u - w) <= 1e-12
            if abs(w - thr) > 1e-9:
                assert ok_u == ok


# every class is closed downward in the majorization order: r in a class
# and r majorizing s puts s in the same class
@pytest.mark.parametrize("d", [2, 3])
@settings(max_examples=40)
@given(data=st.data())
def test_majorized_spectrum_keeps_every_verdict(data, d):
    n = d * d
    r = data.draw(_spectrum(d))
    perms = data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=len(perms), max_size=len(perms)))
    s = sum(w * r[list(p)] for w, p in zip(weights, perms)) / sum(weights)
    assert majorizes(r, s)
    alphas = (0.3, 0.5, 2.0, 5.0)
    reports = [classification_report(DensityMatrix(np.diag(x), (d, d)), alphas) for x in (r, s)]
    for (ok_r, _, _), (ok_s, _, _) in zip(*map(_verdicts, reports)):
        assert ok_s or not ok_r


class TestAbsolutelySeparableSpectra:
    # lambda_1 <= lambda_3 + 2 sqrt(lambda_2 lambda_4) makes every two-qubit
    # state of that spectrum separable, and a separable state has
    # S(A|B) >= 0 and a fully entangled fraction of at most 1/2
    @settings(max_examples=50)
    @given(lam=_spectrum(2), t=st.floats(0.0, 1.0))
    def test_absolutely_separable_spectra_pass_acvenn_and_afef(self, lam, t):
        # pulled toward I/4 by a drawn weight, so the condition often holds
        l1, l2, l3, l4 = sorted(t * lam + (1.0 - t) / 4, reverse=True)
        assume(l1 <= l3 + 2.0 * math.sqrt(l2 * l4))
        report = classification_report(DensityMatrix(np.diag([l1, l2, l3, l4]), (2, 2)))
        assert report.acvenn and report.afef


def _renyi_bits(lam: np.ndarray, alpha: float) -> float:
    """S_alpha of a spectrum in bits, straight from its definition, with
    S_1 the von Neumann entropy and S_inf = -log2 lambda_max."""
    if alpha == 1:
        return float(-np.sum(lam * np.log2(lam)))
    if alpha == math.inf:
        return float(-np.log2(lam.max()))
    return float(np.log2(np.sum(lam**alpha)) / (1.0 - alpha))


class TestKnownInclusions:
    # S_alpha does not increase with alpha, and AFEF, ACRE2NN, ACVENN and
    # ACRENN(alpha) are S_inf, S_2, S_1 and S_alpha >= log2 d: so
    # AFEF implies ACRENN(beta), which implies ACRENN(alpha) for alpha < beta,
    # ACRE2NN is ACRENN(2), and ACRENN(alpha > 1) implies ACVENN, which implies
    # ACRENN(alpha < 1); wherever no S_alpha sits on the threshold
    ALPHAS = (0.3, 0.5, 0.9, 1.5, 2.0, 3.0, 10.0)

    @settings(max_examples=150)
    @given(data=st.data(), d=st.sampled_from([2, 3, 4]), k=st.floats(1.0, 8.0))
    def test_verdicts_follow_the_renyi_order(self, data, d, k):
        # sharpened by a drawn power k, so verdicts of both signs occur, and
        # kept above EIG_ZERO, so the verdicts read the spectrum as drawn
        n = d * d
        lam = data.draw(_spectrum(d)) ** k
        lam = (1.0 - 1e-6) * lam / lam.sum() + 1e-6 / n
        orders = (*self.ALPHAS, 1, math.inf)
        assume(all(abs(_renyi_bits(lam, a) - math.log2(d)) > 1e-9 for a in orders))
        report = classification_report(DensityMatrix(np.diag(lam), (d, d)), self.ALPHAS)
        chain = [report.afef] + [report.acrenn[a][0] for a in sorted(self.ALPHAS, reverse=True)]
        for stronger, weaker in zip(chain, chain[1:]):
            assert weaker or not stronger
        assert report.acre2nn == report.acrenn[2.0][0]
        for alpha in self.ALPHAS:
            if alpha > 1:
                assert report.acvenn or not report.acrenn[alpha][0]
            else:
                assert report.acrenn[alpha][0] or not report.acvenn
