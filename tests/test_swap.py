import math
from pathlib import Path

import numpy as np
import pytest

from absq.channels import double_apply, make_channel
from absq.entropy import trace_power, von_neumann
from absq.errors import DimensionMismatch, InvalidState
from absq.linalg import partial_trace
from absq.states import DensityMatrix, bell_state, depolarized_schmidt, pure_schmidt, random_density
from absq import swap
from absq.swap import OUTCOME_LABELS, retrieval_grid, retrieval_success, swap_conditionals
from absq.sweep import format_number

from conftest import bits

GOLDEN = Path(__file__).parent / "golden"


def amp_damped(theta, p1, p2):
    return double_apply(
        make_channel("amplitude_damping", p1),
        make_channel("amplitude_damping", p2),
        pure_schmidt(theta),
    )


class TestSwapConditionals:
    def test_two_bell_pairs(self):
        # textbook swapping: every outcome equally likely, every conditional
        # state pure and maximally entangled
        outcomes = swap_conditionals(bell_state(0), bell_state(0))
        assert [o.label for o in outcomes] == list(OUTCOME_LABELS)
        for o in outcomes:
            assert o.probability == pytest.approx(0.25, abs=1e-12)
            assert trace_power(o.conditional_state, 2) == pytest.approx(1.0, abs=1e-10)
            marg = o.conditional_state.marginal([0])
            np.testing.assert_allclose(marg.matrix, np.eye(2) / 2, atol=1e-10)

    def test_oracle_direct_sixteen_dim(self, rng):
        # independent reconstruction of every outcome from the raw 16x16 kron:
        # I (x) P_k (x) I sandwich, then the partial trace over (B1, B2)
        eye = np.eye(2)
        for _ in range(10):
            rho_ab = random_density((2, 2), rng)
            rho_bc = random_density((2, 2), rng)
            joint = np.kron(rho_ab.matrix, rho_bc.matrix)
            for k, o in enumerate(swap_conditionals(rho_ab, rho_bc)):
                proj = np.kron(np.kron(eye, bell_state(k).matrix), eye)
                sand = proj @ joint @ proj
                prob = np.trace(sand).real
                cond = partial_trace(sand, [2, 2, 2, 2], keep=[0, 3]) / prob
                assert abs(o.probability - prob) <= 1e-14
                np.testing.assert_allclose(o.conditional_state.matrix, cond, rtol=0, atol=1e-14)

    def test_maximally_mixed_inputs(self):
        mixed = DensityMatrix(np.eye(4) / 4, (2, 2))
        for o in swap_conditionals(mixed, mixed):
            assert o.probability == pytest.approx(0.25, abs=1e-12)
            np.testing.assert_allclose(o.conditional_state.matrix, np.eye(4) / 4, atol=1e-12)

    def test_probabilities_normalize(self, rng):
        for _ in range(10):
            outcomes = swap_conditionals(random_density((2, 2), rng), random_density((2, 2), rng))
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)
            for o in outcomes:
                assert abs(np.trace(o.conditional_state.matrix) - 1) <= 1e-10

    def test_entropy_degeneracy_on_depolarized_family(self, rng):
        # S(rho^00) = S(rho^01) and S(rho^10) = S(rho^11)
        for _ in range(8):
            th1, th2 = rng.uniform(0.05, math.pi / 2 - 0.05, size=2)
            p1, p2 = rng.uniform(0, 1, size=2)
            outcomes = swap_conditionals(
                depolarized_schmidt(th1, p1), depolarized_schmidt(th2, p2)
            )
            s = [von_neumann(o.conditional_state) for o in outcomes]
            assert s[0] == pytest.approx(s[1], abs=1e-9)
            assert s[2] == pytest.approx(s[3], abs=1e-9)

    def test_dimension_guard(self, rng):
        with pytest.raises(DimensionMismatch):
            swap_conditionals(random_density((2,), rng), bell_state(0))

    def test_one_two_qubit_check_names_the_state(self, rng):
        # swapping and double-sided channels refuse other dims alike
        three = random_density((2, 2, 2), rng)
        ch = make_channel("bit_flip", 0.1)
        for name, call in (
            ("rho_bc", lambda: swap_conditionals(bell_state(0), three)),
            ("rho_ab", lambda: retrieval_success(three, bell_state(0))),
            ("rho", lambda: double_apply(ch, ch, three)),
        ):
            message = rf"^{name}: expected a \(2, 2\) state, got dims \(2, 2, 2\)$"
            with pytest.raises(DimensionMismatch, match=message):
                call()


@pytest.mark.parametrize("empty", ["rho_ab", "rho_bc"])
def test_retrieval_grid_of_an_empty_stack(empty):
    # an empty side gives an empty grid, not a division by its length
    full = np.array([bell_state(0).matrix, depolarized_schmidt(0.3, 0.8).matrix])
    none = np.zeros((0, 4, 4), dtype=complex)
    grid = retrieval_grid(none, full) if empty == "rho_ab" else retrieval_grid(full, none)
    shape = (0, 2) if empty == "rho_ab" else (2, 0)
    assert grid.probabilities.shape == grid.conditional_entropies.shape == shape + (4,)
    assert grid.success.shape == shape
    assert (len(grid.member_ab), len(grid.member_bc)) == shape


@pytest.mark.parametrize(
    "bad_ab,bad_bc,message",
    [
        (True, True, r"^trace = 2\+0j, expected 1$"),
        (False, True, r"^negative eigenvalue -2\.500e-01 below PSD floor$"),
    ],
)
def test_retrieval_grid_names_the_first_bad_input(bad_ab, bad_bc, message):
    # the two input stacks are validated as one, rho_ab's members first
    ab = np.array([bell_state(0).matrix, bell_state(1).matrix])
    bc = np.array([bell_state(2).matrix, depolarized_schmidt(0.3, 0.8).matrix])
    if bad_ab:
        ab[1] = 2 * ab[1]
    if bad_bc:
        bc[0] = np.diag([1.25, -0.25, 0.0, 0.0])
    with pytest.raises(InvalidState, match=message):
        retrieval_grid(ab, bc)


class TestRetrievalSuccess:
    def test_bell_inputs_fail_membership(self):
        ok, report = retrieval_success(bell_state(0), bell_state(0))
        assert not ok
        assert "not in the absolute class" in report.reason
        assert report.outcomes == ()

    def test_maximally_mixed_never_succeeds(self):
        mixed = DensityMatrix(np.eye(4) / 4, (2, 2))
        ok, report = retrieval_success(mixed, mixed)
        assert not ok
        assert all(s == pytest.approx(2.0, abs=1e-9) for s in report.conditional_entropies)

    def test_depolarized_family_success_point(self):
        # the reference operating point: second weight 0.705882 admits
        # parameters where both inputs are members but a conditional is not
        rho_ab = depolarized_schmidt(0.15, 0.72)
        rho_bc = depolarized_schmidt(0.15, 0.705882)
        ok, report = retrieval_success(rho_ab, rho_bc)
        assert report.input_entropies[0] >= 1.0
        assert report.input_entropies[1] >= 1.0
        assert ok
        assert min(s for s in report.conditional_entropies if s is not None) < 1.0

    def test_amplitude_damped_success_point(self):
        rho_ab = amp_damped(math.pi / 4, 0.68, 0.28)
        rho_bc = amp_damped(math.pi / 4, 0.40, 0.714286)
        ok, report = retrieval_success(rho_ab, rho_bc)
        assert ok, report

    def test_report_probabilities(self, rng):
        rho = depolarized_schmidt(0.8, 0.5)
        ok, report = retrieval_success(rho, rho)
        assert sum(o.probability for o in report.outcomes) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "pair",
    [
        (depolarized_schmidt(0.15, 0.72), depolarized_schmidt(0.15, 0.705882)),
        (amp_damped(math.pi / 4, 0.68, 0.28), amp_damped(math.pi / 4, 0.40, 0.714286)),
        (DensityMatrix(np.eye(4) / 4, (2, 2)), depolarized_schmidt(0.8, 0.5)),
    ],
    ids=["depolarized", "amplitude-damped", "mixed"],
)
def test_retrieval_report_from_one_branch_call(pair, monkeypatch):
    # the Bell branches are formed once and each live conditional state is
    # validated once; the report is bitwise swap_conditionals' outcomes and
    # the retrieval grid's entropies and verdict on the pair
    rho_ab, rho_bc = pair
    branches, validated = [], []
    form, validate = swap._branches, DensityMatrix.validate

    def formed(ab, bc):
        branches.append(1)
        return form(ab, bc)

    def checked(m):
        validated.append(np.shape(m))
        return validate(m)

    monkeypatch.setattr(swap, "_branches", formed)
    monkeypatch.setattr(DensityMatrix, "validate", staticmethod(checked))
    ok, report = retrieval_success(rho_ab, rho_bc)
    monkeypatch.undo()
    outcomes = swap_conditionals(rho_ab, rho_bc)
    live = [o.conditional_state is not None for o in outcomes]
    assert branches == [1]
    assert validated == [(4, 4)] * sum(live)
    assert [(o.label, bits(o.probability)) for o in report.outcomes] == [
        (o.label, bits(o.probability)) for o in outcomes
    ]
    for got, want in zip(report.outcomes, outcomes):
        assert (got.conditional_state is None) == (want.conditional_state is None)
        if want.conditional_state is not None:
            assert bits(got.conditional_state.matrix) == bits(want.conditional_state.matrix)
    grid = retrieval_grid(rho_ab.matrix[None], rho_bc.matrix[None])
    assert bits(report.input_entropies) == bits([grid.entropy_ab[0], grid.entropy_bc[0]])
    assert [s is None for s in report.conditional_entropies] == [not k for k in live]
    assert bits([s for s in report.conditional_entropies if s is not None]) == bits(
        grid.conditional_entropies[0, 0][live]
    )
    assert ok == grid.success[0, 0]


class TestRetrievalMatchesSwapScan:
    """retrieval_success and the swap-scan command apply one predicate:
    every row of the r = 4 goldens, rebuilt from its grid coordinates,
    gets the row's success flag from the library."""

    def _check(self, golden, points):
        rows = [line.split(",") for line in (GOLDEN / golden).read_text().splitlines()[1:]]
        assert len(rows) == len(points)
        for row, (coords, rho_ab, rho_bc) in zip(rows, points):
            assert row[:3] == [format_number(x) for x in coords]
            ok, _ = retrieval_success(rho_ab, rho_bc)
            assert ok == (row[-1] == "true"), row

    def test_global_depolarizing(self):
        # grid and fixed --p2 of `absq swap-scan --family global-depolarizing`
        p1s = np.linspace(0.0, 1.0, 4)
        thetas = np.linspace(0.05, math.pi / 2 - 0.05, 4)
        points = [
            ((p1, th1, th2), depolarized_schmidt(th1, p1), depolarized_schmidt(th2, 0.705882))
            for p1 in p1s
            for th1 in thetas
            for th2 in thetas
        ]
        self._check("swap_scan_global_depolarizing_r4.csv", points)

    def test_amplitude_damping(self):
        # grid and fixed --p4 of `absq swap-scan --family amplitude-damping`
        ps = np.linspace(0.0, 1.0, 4)
        points = [
            ((p1, p2, p3), amp_damped(math.pi / 4, p1, p2), amp_damped(math.pi / 4, p3, 0.714286))
            for p1 in ps
            for p2 in ps
            for p3 in ps
        ]
        self._check("swap_scan_amplitude_damping_r4.csv", points)
