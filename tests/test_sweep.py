import math

import numpy as np
import pytest

from absq.entropy import series_estimate, series_estimate_flat, von_neumann
from absq.errors import NoSignChange
from absq.linalg import eigvals_hermitian
from absq.states import acin_two_param, depolarized_schmidt, isotropic
from absq.channels import double_apply, global_depolarize, make_channel
from absq.sweep import Interval, find_boundary, intervals, write_csv_rows


# witnesses for intervals: each maps an array of p to its values

def acin_bitflip_entropy(ps):
    rho = acin_two_param(0.9, math.pi / 4)
    chs = [make_channel("bit_flip", p) for p in ps]
    return np.array([von_neumann(double_apply(ch, ch, rho)) for ch in chs])


def acin_phaseflip_lmax(ps):
    rho = acin_two_param(0.9, math.pi / 4)
    chs = [make_channel("phase_flip", p) for p in ps]
    return np.array([eigvals_hermitian(double_apply(ch, ch, rho).matrix)[0] for ch in chs])


class TestFindBoundary:
    def test_linear_function(self):
        assert find_boundary(lambda x: x, (0, 1), 0.5) == pytest.approx(0.5, abs=1e-7)

    def test_orientation_independent(self):
        a = find_boundary(lambda x: x * x, (0, 2), 2.0)
        b = find_boundary(lambda x: x * x, (2, 0), 2.0)
        assert a == pytest.approx(b, abs=1e-7)
        assert a == pytest.approx(math.sqrt(2), abs=1e-6)

    def test_entropy_boundary_of_depolarized_family(self):
        # S = 1 at surviving weight 0.747614
        f = lambda p: von_neumann(depolarized_schmidt(math.pi / 4, p))
        assert find_boundary(f, (0, 1), 1.0) == pytest.approx(0.747614, abs=1e-4)

    def test_lambda_max_boundary(self):
        f = lambda p: float(
            eigvals_hermitian(depolarized_schmidt(math.pi / 4, p).matrix)[0]
        )
        assert find_boundary(f, (0, 1), 0.5) == pytest.approx(1 / 3, abs=1e-7)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_boundary(lambda x: x, (0, 1), 5.0)


class TestIntervals:
    def test_bit_flip_membership_interval(self):
        found = intervals(acin_bitflip_entropy, 0, 1, 1.0, ">=", points=801)
        assert len(found) == 1
        assert found[0].lo == pytest.approx(0.0890506, abs=1e-4)
        assert found[0].hi == pytest.approx(0.910949, abs=1e-4)

    def test_phase_flip_lambda_interval(self):
        found = intervals(acin_phaseflip_lmax, 0, 1, 0.5, "<=", points=801)
        assert len(found) == 1
        assert found[0].lo == pytest.approx(1 / 3, abs=1e-4)
        assert found[0].hi == pytest.approx(2 / 3, abs=1e-4)

    def test_constant_below_target(self):
        assert intervals(np.zeros_like, 0, 1, 1.0, ">=", points=51) == []

    def test_endpoint_witnesses(self):
        found = intervals(lambda x: x, 0, 1, 0.25, ">=", points=101)
        assert len(found) == 1
        assert found[0].witness_lo == pytest.approx(0.25, abs=1e-6)
        assert found[0].hi == 1.0

    def test_stable_under_grid_refinement(self):
        coarse = intervals(acin_bitflip_entropy, 0, 1, 1.0, ">=", points=401)
        fine = intervals(acin_bitflip_entropy, 0, 1, 1.0, ">=", points=1601)
        assert abs(coarse[0].lo - fine[0].lo) < 1e-6
        assert abs(coarse[0].hi - fine[0].hi) < 1e-6

    def test_multiple_intervals(self):
        found = intervals(lambda x: np.sin(2 * math.pi * x), 0, 1, 0.5, ">=", points=401)
        assert len(found) == 1
        found = intervals(lambda x: np.cos(2 * math.pi * x), 0, 1, 0.5, ">=", points=401)
        assert len(found) == 2

    def test_grid_values_are_not_reevaluated(self):
        # one interior crossing: one call on the 51-point grid, then one
        # call on an array of one x per bisection midpoint and one for the
        # refined endpoint's witness; the bracket ends and the grid-edge
        # endpoint reuse their grid values
        calls = []

        def f(x):
            calls.append(len(x))
            return 1.0 - x * x

        found = intervals(f, 0.0, 1.0, 0.5, ">=", points=51)
        xs = np.linspace(0.0, 1.0, 51)
        evaluated = []

        def g(x):
            evaluated.append(x)
            return 1.0 - x * x

        right = find_boundary(g, (xs[35], xs[36]), 0.5)
        steps = len(evaluated) - 2  # find_boundary evaluates the bracket ends too
        assert steps > 0
        assert calls == [51] + [1] * (steps + 1)
        assert found == [Interval(0.0, right, "", 1.0, 1.0 - right * right)]


class TestScans:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_estimated_membership_region_nonempty(self, d):
        # somewhere on the (beta, lambda) grid the 10-term estimate clears
        # log2(d); heavy mixing always suffices
        values = [
            series_estimate(global_depolarize(isotropic(d, beta), lam))
            for beta in np.linspace(0, 1, 3)
            for lam in (0.9, 1.0)
        ]
        assert max(values) >= math.log2(d)

    @pytest.mark.parametrize("d", [7, 8, 9, 10])
    def test_estimated_region_nonempty_large_d(self, d):
        rho = global_depolarize(isotropic(d, 0.5), 0.95)
        assert series_estimate(rho) >= math.log2(d)

    def test_flat_surrogate_region_empty_for_qubits(self):
        # the uniform-coefficient surrogate tops out below 1 bit on two
        # qubits, which is why the reference surrogate table has no d = 2 row
        top = series_estimate_flat(global_depolarize(isotropic(2, 0.0), 1.0))
        assert top < 1.0


class TestEmitCsv:
    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        write_csv_rows(path, ["x", "value"], [[1 / 3, 2 / 3]])
        line = path.read_text(encoding="utf-8").splitlines()[1]
        assert line == "0.333333333,0.666666667"

    def test_newline_terminated(self, tmp_path):
        path = tmp_path / "nl.csv"
        write_csv_rows(path, ["predicate", "lo"], [])
        assert path.read_text(encoding="utf-8").endswith("\n")
