import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from absq.entropy import series_estimate, series_estimate_flat, von_neumann
from absq.errors import NoSignChange, OutOfRange
from absq.linalg import eigvals_hermitian
from absq.states import acin_two_param, depolarized_schmidt, isotropic
from absq.channels import double_apply, global_depolarize, make_channel
from absq.sweep import (
    Interval,
    _bisection,
    _side_by_side,
    find_boundary,
    intervals,
    write_csv_rows,
)


def one_criterion(f, lo, hi, target, sense, points):
    """intervals on one criterion whose witness f maps an array of x to
    its values."""
    (found,) = intervals(lambda which, xs: f(xs), [("", target, sense)], lo, hi, points=points)
    return found


# witnesses for one_criterion: each maps an array of p to its values

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
        found = one_criterion(acin_bitflip_entropy, 0, 1, 1.0, ">=", points=801)
        assert len(found) == 1
        assert found[0].lo == pytest.approx(0.0890506, abs=1e-4)
        assert found[0].hi == pytest.approx(0.910949, abs=1e-4)

    def test_phase_flip_lambda_interval(self):
        found = one_criterion(acin_phaseflip_lmax, 0, 1, 0.5, "<=", points=801)
        assert len(found) == 1
        assert found[0].lo == pytest.approx(1 / 3, abs=1e-4)
        assert found[0].hi == pytest.approx(2 / 3, abs=1e-4)

    def test_constant_below_target(self):
        assert one_criterion(np.zeros_like, 0, 1, 1.0, ">=", points=51) == []

    def test_endpoint_witnesses(self):
        # the witness x crosses the target at the refined lower end; the
        # upper end is the grid's edge
        found = one_criterion(lambda x: x, 0, 1, 0.25, ">=", points=101)
        assert len(found) == 1
        assert found[0].lo == pytest.approx(0.25, abs=1e-6)
        assert found[0].hi == 1.0

    def test_stable_under_grid_refinement(self):
        coarse = one_criterion(acin_bitflip_entropy, 0, 1, 1.0, ">=", points=401)
        fine = one_criterion(acin_bitflip_entropy, 0, 1, 1.0, ">=", points=1601)
        assert abs(coarse[0].lo - fine[0].lo) < 1e-6
        assert abs(coarse[0].hi - fine[0].hi) < 1e-6

    def test_multiple_intervals(self):
        found = one_criterion(lambda x: np.sin(2 * math.pi * x), 0, 1, 0.5, ">=", points=401)
        assert len(found) == 1
        found = one_criterion(lambda x: np.cos(2 * math.pi * x), 0, 1, 0.5, ">=", points=401)
        assert len(found) == 2

    @pytest.mark.parametrize("points", [0, 1])
    def test_rejects_a_grid_of_fewer_than_two_points(self, points):
        calls = []
        with pytest.raises(OutOfRange, match=f"points must be >= 2, got {points}$"):
            one_criterion(lambda x: calls.append(x) or x, 0.0, 1.0, 0.5, ">=", points=points)
        assert calls == []

    def test_grid_values_are_not_reevaluated(self):
        # one interior crossing: one call on the 51-point grid, then one
        # call on the midpoint of the one bracket per bisection step; the
        # bracket ends reuse their grid values and the grid-edge end is
        # its grid x
        calls = []

        def f(which, x):
            calls.append((which.tolist(), len(x)))
            return 1.0 - x * x

        (found,) = intervals(f, [("", 0.5, ">=")], 0.0, 1.0, points=51)
        xs = np.linspace(0.0, 1.0, 51)
        evaluated = []

        def g(x):
            evaluated.append(x)
            return 1.0 - x * x

        right = find_boundary(g, (xs[35], xs[36]), 0.5)
        steps = len(evaluated) - 2  # find_boundary evaluates the bracket ends too
        assert steps > 0
        assert calls == [([0] * 51, 51)] + [([0], 1)] * steps
        assert found == [Interval(0.0, right)]

    def test_grid_value_on_the_target_is_not_reevaluated(self):
        # 1 - x equals the target exactly at the grid point x = 0.5, where
        # the bisection stops before its first step: that end is the grid
        # point, so the grid call is the only call
        calls = []

        def f(which, x):
            calls.append(x.tolist())
            return 1.0 - x

        (found,) = intervals(f, [("", 0.5, ">=")], 0.0, 1.0, points=11)
        assert calls == [np.linspace(0.0, 1.0, 11).tolist()]
        assert found == [Interval(0.0, 0.5)]

    def test_midpoint_on_the_target_is_not_reevaluated(self):
        # 1 - x equals the target exactly at the first midpoint, 0.5, where
        # the bisection stops: its one step is the last call
        calls = []

        def f(which, x):
            calls.append(x.tolist())
            return 1.0 - x

        (found,) = intervals(f, [("", 0.5, ">=")], 0.0, 1.0, points=2)
        assert calls == [[0.0, 1.0], [0.5]]
        assert found == [Interval(0.0, 0.5)]


def _polynomial(roots, scale):
    """x -> scale * prod(x - r) over the roots, with the same roundings on a
    float and on each element of an array."""

    def g(x):
        out = scale + 0.0 * x
        for r in roots:
            out = out * (x - r)
        return out

    return g


def _alone(g, xs, target, sense):
    """intervals of one criterion as one bisection at a time would find
    them: each run of grid points that hold, its inner ends refined by
    find_boundary on their bracket."""
    values = g(xs)
    ok = values >= target if sense == ">=" else values <= target
    found, i = [], 0
    while i < len(xs):
        if not ok[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(xs) and ok[j + 1]:
            j += 1
        ends = []
        for outside, inner in ((i - 1, i), (j + 1, j)):
            if outside < 0 or outside == len(xs):
                ends.append(float(xs[inner]))
            else:
                ends.append(find_boundary(g, (float(xs[outside]), float(xs[inner])), target))
        found.append(Interval(*ends))
        i = j + 1
    return found


def _bits(found):
    return [(np.float64(iv.lo).tobytes(), np.float64(iv.hi).tobytes()) for iv in found]


# a root anywhere, on grid point k, or on the first midpoint of the
# bracket between grid points k and k + 1
ROOTS = st.one_of(
    st.tuples(st.just("free"), st.floats(-0.2, 1.2)),
    st.tuples(st.sampled_from(["grid", "midpoint"]), st.integers(0, 10**6)),
)
CRITERIA = st.lists(
    st.tuples(
        st.lists(ROOTS, max_size=4),
        st.floats(0.5, 3.0),
        st.sampled_from([-1.0, 1.0]),
        st.sampled_from([">=", "<="]),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=40)
@given(points=st.integers(3, 30), criteria=CRITERIA, bad=st.integers(0, 10**6))
@example(  # two crossings on one criterion, one of them on grid point 3
    points=11, criteria=[([("grid", 3), ("free", 0.77)], 1.0, 1.0, ">=")], bad=0
)
@example(  # a crossing on a bracket's first midpoint
    points=11, criteria=[([("midpoint", 6)], 2.0, -1.0, "<=")], bad=1
)
def test_side_by_side_refinement_equals_each_bracket_alone(points, criteria, bad):
    xs = np.linspace(0.0, 1.0, points)
    specs, witnesses = [], []
    for n, (roots, size, sign, sense) in enumerate(criteria):
        placed = [
            r if kind == "free"
            else float(xs[r % points]) if kind == "grid"
            else 0.5 * (float(xs[r % (points - 1)]) + float(xs[r % (points - 1) + 1]))
            for kind, r in roots
        ]
        specs.append((f"c{n}", 0.0, sense))
        witnesses.append(_polynomial(placed, sign * size))
    # and a criterion that never holds: -(x - 2)(x - 3) < 0 on [0, 1]
    specs.append(("never", 0.0, ">="))
    witnesses.append(_polynomial([2.0, 3.0], -1.0))

    def f(which, x):
        out = np.empty_like(x)
        for c, g in enumerate(witnesses):
            out[which == c] = g(x[which == c])
        return out

    found = intervals(f, specs, 0.0, 1.0, points=points)
    assert found[-1] == []
    for (_, target, sense), g, got in zip(specs, witnesses, found):
        assert _bits(got) == _bits(_alone(g, xs, target, sense))

    # a bracket whose ends have the same sign, here on the criterion that
    # never holds, fails as it does alone, and before any step is taken
    # for the brackets beside it
    g = witnesses[-1]
    a, b = sorted(float(x) for x in xs[[bad % points, (bad // points) % points]])
    with pytest.raises(NoSignChange) as alone:
        find_boundary(g, (a, b), 0.0)
    calls = []
    bisections = [
        (0, _bisection(0.0, 1.0, -1.0, 1.0, 0.0, 1e-7)),
        (1, _bisection(a, b, g(a), g(b), 0.0, 1e-7)),
    ]
    with pytest.raises(NoSignChange) as together:
        _side_by_side(lambda keys, x: calls.append(x) or [0.0] * len(x), bisections)
    assert str(together.value) == str(alone.value)
    assert calls == []


class TestNanWitness:
    # a NaN value of the witness is an error, never a boundary or the end
    # of an interval

    def test_find_boundary_at_a_nan_midpoint(self):
        with pytest.raises(NoSignChange, match="NaN at 0.5$"):
            find_boundary(lambda x: math.nan if 0.4 < x < 0.6 else x, (0, 1), 0.5)

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_find_boundary_at_a_nan_end(self, end):
        calls = []

        def f(x):
            calls.append(x)
            return math.nan if x == end else x

        with pytest.raises(NoSignChange, match=f"NaN at {end}$"):
            find_boundary(f, (0, 1), 0.5)
        assert calls == [0.0, 1.0]

    def test_intervals_at_a_nan_grid_value(self):
        calls = []

        def f(xs):
            calls.append(len(xs))
            return np.where(np.abs(xs - 0.5) < 0.01, math.nan, xs)

        with pytest.raises(NoSignChange, match="witness of '' is NaN at 0.5$"):
            one_criterion(f, 0.0, 1.0, 0.3, ">=", points=11)
        assert calls == [11]  # before any bisection

    def test_intervals_at_a_nan_midpoint(self):
        # the grid values are finite; the first midpoint of the bracket
        # (0.3, 0.4) is not
        f = lambda xs: np.where((xs > 0.31) & (xs < 0.39), math.nan, xs)
        with pytest.raises(NoSignChange, match="NaN at 0.35"):
            one_criterion(f, 0.0, 1.0, 0.35, ">=", points=11)


def test_side_by_side_examples_reach_every_exit():
    # the explicit examples above end a bisection in each way: on a
    # bracket end that sits on the target (grid point 3), at the width
    # tolerance (the crossing at 0.77), and on a midpoint that hits it
    xs = np.linspace(0.0, 1.0, 11)
    g = _polynomial([float(xs[3]), 0.77], 1.0)
    found = one_criterion(g, 0.0, 1.0, 0.0, ">=", points=11)
    assert [(iv.lo, iv.hi) for iv in found[:1]] == [(0.0, float(xs[3]))]
    assert len(found) == 2 and found[1].hi == 1.0
    assert 0 < abs(found[1].lo - 0.77) <= 1e-7
    mid = 0.5 * (float(xs[6]) + float(xs[7]))
    g = _polynomial([mid], -2.0)
    assert one_criterion(g, 0.0, 1.0, 0.0, "<=", points=11) == [Interval(mid, 1.0)]


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
