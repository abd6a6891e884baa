import dataclasses
import math

import numpy as np
import pytest

from absq.bloch import (
    MARGINAL_PAIRS,
    _norm2,
    decompose_bipartite,
    decompose_tripartite,
    gell_mann_basis,
    marginal_purity,
    pair_tensors,
    purity_from_bloch,
    reconstruct_bipartite,
    reconstruct_tripartite,
)
from absq.classify import acre2nn_bloch, marginal_acre2nn
from absq.entropy import trace_power
from absq.errors import DimensionMismatch, OutOfRange
from absq.linalg import partial_trace
from absq.states import (
    DensityMatrix,
    acin_tripartite,
    acin_two_param,
    bell_state,
    depolarized_schmidt,
    ghz_w_mix,
    isotropic,
    random_density,
)

from conftest import bits

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


class TestGellMannBasis:
    def test_qubit_case_is_paulis(self):
        mats = gell_mann_basis(2)
        np.testing.assert_allclose(mats[0], SX)
        np.testing.assert_allclose(mats[1], SY)
        np.testing.assert_allclose(mats[2], SZ)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthogonality_and_tracelessness(self, d):
        mats = gell_mann_basis(d)
        assert mats.shape == (d * d - 1, d, d)
        for i, a in enumerate(mats):
            assert abs(np.trace(a)) <= 1e-12
            assert np.max(np.abs(a - a.conj().T)) <= 1e-12
            for j, b in enumerate(mats):
                want = 2.0 if i == j else 0.0
                assert np.trace(a @ b).real == pytest.approx(want, abs=1e-12)

    def test_expands_traceless_hermitian(self, rng):
        # completeness oracle: direct expansion recovers the matrix
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = (g + g.conj().T) / 2
        m -= np.trace(m) * np.eye(3) / 3
        mats = gell_mann_basis(3)
        rebuilt = sum(np.trace(m @ s).real / 2 * s for s in mats)
        np.testing.assert_allclose(rebuilt, m, atol=1e-12)

    def test_rejects_d1(self):
        with pytest.raises(OutOfRange):
            gell_mann_basis(1)


class TestBipartite:
    def test_maximally_mixed_has_no_correlations(self):
        bb = decompose_bipartite(DensityMatrix(np.eye(9) / 9, (3, 3)))
        assert np.max(np.abs(bb.a)) <= 1e-12
        assert np.max(np.abs(bb.b)) <= 1e-12
        assert np.max(np.abs(bb.t)) <= 1e-12

    def test_bell_state_tensor(self):
        # oracle: direct traces of rho (sigma_m x sigma_n)
        rho = bell_state(0)
        bb = decompose_bipartite(rho)
        assert np.max(np.abs(bb.a)) <= 1e-12
        assert np.max(np.abs(bb.b)) <= 1e-12
        np.testing.assert_allclose(bb.t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        for m, sm in enumerate(gell_mann_basis(2)):
            for n, sn in enumerate(gell_mann_basis(2)):
                direct = np.trace(rho.matrix @ np.kron(sm, sn)).real
                assert bb.t[m, n] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_round_trip(self, d, rng):
        for _ in range(10):
            rho = random_density((d, d), rng)
            rebuilt = reconstruct_bipartite(decompose_bipartite(rho))
            assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_purity_formula(self, d, rng):
        for _ in range(100):
            rho = random_density((d, d), rng)
            bb = decompose_bipartite(rho)
            assert purity_from_bloch(bb) == pytest.approx(
                trace_power(rho, 2), abs=1e-10
            )

    def test_bell_purity(self):
        assert purity_from_bloch(decompose_bipartite(bell_state(0))) == pytest.approx(1.0)

    def test_maximally_mixed_purity(self):
        bb = decompose_bipartite(DensityMatrix(np.eye(9) / 9, (3, 3)))
        assert purity_from_bloch(bb) == pytest.approx(1 / 9, abs=1e-12)

    def test_dimension_guard(self, rng):
        with pytest.raises(DimensionMismatch):
            decompose_bipartite(random_density((2, 3), rng))


class TestTripartite:
    def test_maximally_mixed_vanishes(self):
        bt = decompose_tripartite(DensityMatrix(np.eye(8) / 8, (2, 2, 2)))
        for field in ("t1", "t2", "t3", "t12", "t13", "t23", "t123"):
            assert np.max(np.abs(getattr(bt, field))) <= 1e-12

    def test_ghz_pair_correlations(self):
        # oracle: Tr(rho sz x sz x I) = 1 for GHZ, and likewise each pair
        bt = decompose_tripartite(ghz_w_mix(1.0))
        for t2 in (bt.t12, bt.t13, bt.t23):
            assert t2[2, 2] == pytest.approx(1.0, abs=1e-12)  # zz entry
            assert t2[0, 0] == pytest.approx(0.0, abs=1e-12)  # xx needs 3 bodies
        assert bt.t123[0, 0, 0] == pytest.approx(1.0, abs=1e-12)  # xxx entry

    def test_round_trip(self, rng):
        for _ in range(5):
            rho = random_density((2, 2, 2), rng)
            rebuilt = reconstruct_tripartite(decompose_tripartite(rho))
            assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-10

    def test_round_trip_qutrits(self, rng):
        rho = random_density((3, 3, 3), rng)
        rebuilt = reconstruct_tripartite(decompose_tripartite(rho))
        assert np.max(np.abs(rebuilt - rho.matrix)) <= 1e-10

    def test_reduced_state_assembly(self, rng):
        # assembling the pair-(2,3) reduction from (t2, t3, t23) equals the
        # partial trace over the first subsystem
        for _ in range(5):
            rho = random_density((2, 2, 2), rng)
            bt = decompose_tripartite(rho)
            mats = gell_mann_basis(2)
            eye = np.eye(2, dtype=complex)
            built = np.eye(4, dtype=complex) / 4
            for j, s in enumerate(mats):
                built += bt.t2[j] * np.kron(s, eye) / 4
                built += bt.t3[j] * np.kron(eye, s) / 4
            for j, sj in enumerate(mats):
                for k, sk in enumerate(mats):
                    built += bt.t23[j, k] * np.kron(sj, sk) / 4
            direct = partial_trace(rho.matrix, [2, 2, 2], keep=[1, 2])
            assert np.max(np.abs(built - direct)) <= 1e-10

    @pytest.mark.parametrize("pair,keep", [("23", [1, 2]), ("13", [0, 2]), ("12", [0, 1])])
    def test_marginal_purity(self, pair, keep, rng):
        for _ in range(30):
            rho = random_density((2, 2, 2), rng)
            bt = decompose_tripartite(rho)
            direct = trace_power(rho.marginal(keep), 2)
            assert marginal_purity(bt, pair) == pytest.approx(direct, abs=1e-10)

    def test_marginal_purity_product_of_mixed(self):
        bt = decompose_tripartite(DensityMatrix(np.eye(8) / 8, (2, 2, 2)))
        assert marginal_purity(bt, "23") == pytest.approx(0.25, abs=1e-12)

    def test_ghz_marginal_purity(self):
        bt = decompose_tripartite(ghz_w_mix(1.0))
        assert marginal_purity(bt, "23") == pytest.approx(0.5, abs=1e-12)

    def test_pair_validation(self):
        bt = decompose_tripartite(ghz_w_mix(0.5))
        with pytest.raises(OutOfRange):
            pair_tensors(bt, "21")


# The expansion one einsum per correlation block: the reference for the one
# contraction over [I, s_1, ...] that the decompositions make.


def per_block_bipartite(rho):
    d = rho.dims[0]
    basis = gell_mann_basis(d)
    r = rho.matrix.reshape(d, d, d, d)
    a = (d / 2.0) * np.real(np.einsum("abcb,mca->m", r, basis))
    b = (d / 2.0) * np.real(np.einsum("abad,ndb->n", r, basis))
    t = (d * d / 4.0) * np.real(np.einsum("abcd,mca,ndb->mn", r, basis, basis))
    return {"a": a, "b": b, "t": t}


def per_block_tripartite(rho):
    d = rho.dims[0]
    basis = gell_mann_basis(d)
    r = rho.matrix.reshape(d, d, d, d, d, d)
    return {
        "t1": np.real(np.einsum("abcdbc,ida->i", r, basis)),
        "t2": np.real(np.einsum("abcaec,jeb->j", r, basis)),
        "t3": np.real(np.einsum("abcabf,kfc->k", r, basis)),
        "t12": np.real(np.einsum("abcdec,ida,jeb->ij", r, basis, basis)),
        "t13": np.real(np.einsum("abcdbf,ida,kfc->ik", r, basis, basis)),
        "t23": np.real(np.einsum("abcaef,jeb,kfc->jk", r, basis, basis)),
        "t123": np.real(np.einsum("abcdef,ida,jeb,kfc->ijk", r, basis, basis, basis)),
    }


def bipartite_states():
    yield from (bell_state(k) for k in range(4))
    for d in (2, 3, 4):
        yield from (isotropic(d, beta) for beta in (0.0, 0.3, 1.0))
    yield from (depolarized_schmidt(theta, p) for theta in (0.2, 0.9) for p in (0.0, 0.5, 1.0))
    yield acin_two_param(0.9, math.pi / 4)
    for d in (2, 3, 4, 5):
        yield from (random_density((d, d), seed) for seed in range(10))


def tripartite_states():
    x = np.array([0.5, 0.4, 0.3, 0.5, 0.5])
    yield from (acin_tripartite(x, theta) for theta in (0.0, 1.1, math.pi))
    yield from (ghz_w_mix(p) for p in np.linspace(0.0, 1.0, 5))
    yield DensityMatrix(np.eye(8) / 8, (2, 2, 2))
    yield DensityMatrix(np.diag([1.0] + [0.0] * 7), (2, 2, 2))
    yield from (random_density((2, 2, 2), seed) for seed in range(20))
    yield from (random_density((3, 3, 3), seed) for seed in range(3))


class TestOneContraction:
    def test_bipartite_equals_per_block_einsums(self):
        for rho in bipartite_states():
            bb = decompose_bipartite(rho)
            for field, want in per_block_bipartite(rho).items():
                assert bits(getattr(bb, field)) == bits(want), (rho.dims, field)

    def test_tripartite_equals_per_block_einsums(self):
        for rho in tripartite_states():
            bt = decompose_tripartite(rho)
            for field, want in per_block_tripartite(rho).items():
                assert bits(getattr(bt, field)) == bits(want), (rho.dims, field)

    @pytest.mark.parametrize(
        "decompose,rho",
        [(decompose_bipartite, bell_state(0)), (decompose_tripartite, ghz_w_mix(0.5))],
    )
    def test_one_einsum_call(self, decompose, rho, monkeypatch):
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args, **kw: calls.append(args[0]) or einsum(*args, **kw))
        decompose(rho)
        assert len(calls) == 1


def random_pure(dims, seed) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    ket = rng.normal(size=n) + 1j * rng.normal(size=n)
    ket /= np.linalg.norm(ket)
    return DensityMatrix(np.outer(ket, ket.conj()), dims)


class TestLayoutFreeNorms:
    # every Bloch witness is a function of the field values alone: the same
    # float on a strided view as on its contiguous copy (pure states, whose
    # large Bloch vectors let a last-bit change in a norm reach the result)

    def test_tripartite_fields_strided_or_contiguous(self):
        for seed in range(60):
            bt = decompose_tripartite(random_pure((3, 3, 3), seed))
            assert not bt.t1.flags.c_contiguous
            tensors = [f.name for f in dataclasses.fields(bt) if f.name != "d"]
            copied = dataclasses.replace(bt, **{f: np.ascontiguousarray(getattr(bt, f)) for f in tensors})
            for f in tensors:
                assert bits(_norm2(getattr(bt, f))) == bits(_norm2(getattr(copied, f)))
            for pair in MARGINAL_PAIRS:
                assert bits(marginal_purity(bt, pair)) == bits(marginal_purity(copied, pair))
                assert bits(marginal_acre2nn(bt, pair)) == bits(marginal_acre2nn(copied, pair))

    def test_bipartite_fields_strided_or_contiguous(self):
        for seed in range(60):
            bb = decompose_bipartite(random_pure((3, 3), seed))
            # a and b as every other entry of a longer vector
            strided = dataclasses.replace(bb, **{f: np.repeat(getattr(bb, f), 2)[::2] for f in ("a", "b")})
            assert bits(purity_from_bloch(strided)) == bits(purity_from_bloch(bb))
            assert bits(acre2nn_bloch(strided)) == bits(acre2nn_bloch(bb))
