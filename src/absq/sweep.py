"""Boundary finding, interval extraction, and CSV emission.

Boundaries are always located on continuous scalar witnesses (entropy minus
its threshold, largest eigenvalue minus 1/d, ...) rather than on booleans,
which removes grid aliasing from the reported endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoSignChange, OutOfRange
from .tolerances import BISECTION_TOL


@dataclass(frozen=True)
class Interval:
    """A maximal parameter range [lo, hi] on which a criterion holds; an
    end inside the grid is where its witness crosses the target, refined
    to BISECTION_TOL, an end on the grid's edge that edge."""

    lo: float
    hi: float


def find_boundary(f, bracket, target: float, tol: float = BISECTION_TOL) -> float:
    """Bisect f(x) = target inside the bracket.

    The bracket endpoints must produce values on opposite sides of the
    target (an endpoint sitting exactly on it is returned directly);
    orientation of the bracket does not matter.  A NaN value of f raises
    NoSignChange.
    """
    a, b = sorted((float(bracket[0]), float(bracket[1])))
    bisection = _bisection(a, b, f(a), f(b), target, tol)
    (x,) = _side_by_side(lambda _, xs: [f(x) for x in xs], [(None, bisection)])
    return x


def _bisection(a: float, b: float, f_a: float, f_b: float, target: float, tol: float):
    """The bisection of f(x) = target on an ordered bracket whose end values
    are known, as a generator: it yields each midpoint, is sent the value of
    f there, and returns the boundary.  A NaN value of f, at an end or at a
    midpoint, raises NoSignChange naming its x.  _side_by_side drives every
    bisection: those of find_boundary, intervals and the isotropic tables."""
    fa = f_a - target
    fb = f_b - target
    for x, value in ((a, fa), (b, fb)):
        if value != value:
            raise NoSignChange(f"f - target is NaN at {x}")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChange(f"f - target has the same sign at {a} and {b}")
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = (yield mid) - target
        if fm != fm:
            raise NoSignChange(f"f - target is NaN at {mid}")
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def _side_by_side(f, bisections) -> list[float]:
    """The boundaries of (key, _bisection) pairs, run in lockstep: each step
    is one call f(keys, xs) on the midpoints the open bisections ask for
    (each x of the witness its key names), one stack for f.  The first
    bracket without a sign change raises NoSignChange before any step."""
    found = [0.0] * len(bisections)
    asking = []

    def advance(n, key, steps, value):
        try:
            asking.append((n, key, steps, steps.send(value)))
        except StopIteration as end:
            found[n] = end.value

    for n, (key, steps) in enumerate(bisections):
        advance(n, key, steps, None)
    while asking:
        step, asking = asking, []
        values = f([key for _, key, _, _ in step], [x for _, _, _, x in step])
        for (n, key, steps, _), value in zip(step, values):
            advance(n, key, steps, value)
    return found


def intervals(f, criteria, lo: float, hi: float, points: int = 2001) -> list[list[Interval]]:
    """Maximal sub-intervals of [lo, hi] on which each criterion holds,
    endpoints refined by bisection to BISECTION_TOL.

    criteria is a sequence of (name, target, sense): the criterion holds
    where its witness is >= target (sense ">=") or <= target (sense
    "<=").  f(which, xs) maps an int array which, naming for each x of the
    array xs the index of its criterion, to the array of the witnesses'
    values.  f is called once on the grids of all criteria together, then
    the brackets of all criteria are bisected side by side, one call per
    step on the midpoints still to refine, and never again.  Every
    bisection starts from the grid values already at hand, so an end at a
    grid point whose witness equals the target costs no call.  Returns one
    list of Interval per criterion, empty where the criterion never holds
    on the grid.  A NaN witness, on the grid or at a midpoint, raises
    NoSignChange; fewer than 2 points, OutOfRange.
    """
    if points < 2:
        raise OutOfRange(f"points must be >= 2, got {points}")
    criteria = list(criteria)
    for _, _, sense in criteria:
        if sense not in (">=", "<="):
            raise OutOfRange(f'sense must be ">=" or "<=", got {sense!r}')
    xs = np.linspace(lo, hi, points)
    which = np.repeat(np.arange(len(criteria)), points)
    vals = np.asarray(f(which, np.tile(xs, len(criteria))), dtype=float).reshape(-1, points)
    nan = np.isnan(vals)
    if nan.any():
        c, k = np.argwhere(nan)[0]
        raise NoSignChange(f"the witness of {criteria[c][0]!r} is NaN at {float(xs[k])}")

    def values(keys, x):
        return np.asarray(f(np.array(keys, dtype=int), np.array(x, dtype=float)), dtype=float)

    # each run of grid points where a criterion holds, as (criterion, left
    # end, right end); an end on the grid's edge is its x, any other end
    # the index of its bisection
    runs = []
    bisections = []

    def end(c: int, k: int, inner: int):
        # the end between grid points k (outside the run) and inner
        if k < 0 or k == points:
            return float(xs[inner])
        a, b = sorted((k, inner), key=lambda n: (xs[n], n))
        f_a, f_b, target = vals[c, a], vals[c, b], criteria[c][1]
        bisections.append((c, _bisection(float(xs[a]), float(xs[b]), f_a, f_b, target, BISECTION_TOL)))
        return len(bisections) - 1

    for c, (_, target, sense) in enumerate(criteria):
        ok = vals[c] >= target if sense == ">=" else vals[c] <= target
        flips = np.flatnonzero(np.diff(np.concatenate(([False], ok, [False]))))
        for i, j in zip(flips[0::2].tolist(), (flips[1::2] - 1).tolist()):
            runs.append((c, end(c, i - 1, i), end(c, j + 1, j)))

    refined = _side_by_side(values, bisections)
    found: list[list[Interval]] = [[] for _ in criteria]
    for c, left, right in runs:
        found[c].append(Interval(*(refined[e] if isinstance(e, int) else e for e in (left, right))))
    return found


def format_number(x: float) -> str:
    """Decimal rendering at 9 significant digits, shared by all CSV output."""
    return f"{float(x):.9g}"


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_number(value)


def write_csv_rows(path, header, rows) -> None:
    """The one CSV writer: text is written as given, a bool as true/false,
    and any other value through format_number."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(c) for c in row) + "\n")

