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
    end inside the grid is where its witness crosses the target, found by
    _bisection to within BISECTION_TOL, an end on the grid's edge that edge."""

    lo: float
    hi: float


def find_boundary(f, bracket, target: float, tol: float = BISECTION_TOL) -> float:
    """The x where f(x) = target inside the bracket, to within tol (see
    _bisection).

    The bracket endpoints must produce values on opposite sides of the
    target (an endpoint sitting exactly on it is returned directly);
    orientation of the bracket does not matter.  A NaN value of f raises
    NoSignChange, and a tol that is not > 0 OutOfRange before f is called.
    """
    if not tol > 0:
        raise OutOfRange(f"tol must be > 0, got {tol}")
    a, b = sorted((float(bracket[0]), float(bracket[1])))
    bisection = _bisection(a, b, f(a), f(b), target, tol)
    (x,) = _side_by_side(lambda _, xs: [f(x) for x in xs], [(None, bisection)])
    return x


def _bisection(a: float, b: float, f_a: float, f_b: float, target: float, tol: float):
    """The root of f(x) = target on an ordered bracket whose end values are
    known, as a generator: it yields each point to evaluate, is sent the
    value of f there, and returns the boundary as a float.

    The steps are ITP (interpolate, truncate, project; Oliveira and
    Takahashi, ACM TOMS 47(1), 2020) with kappa1 = 0.2 / (b - a), kappa2 = 2,
    n0 = 1 and epsilon = tol / 2: each point moves from the regula-falsi
    point toward the midpoint, and stays close enough to the midpoint that
    the bracket is no wider than tol after ceil(log2((b - a) / tol)) + 1
    steps, one more than bisection, however f behaves.  On a smooth f it
    converges superlinearly.  The steps stop once the bracket is at most
    tol wide, after that many steps at most (roundoff may leave the last
    bracket a few ulps wider), or when no float lies strictly inside the
    bracket (a tol below the float spacing); the boundary is then the
    bracket's midpoint.  A point whose value equals the target is the
    boundary itself.

    A NaN value of f, at an end or at a point, raises NoSignChange naming
    its x.  _side_by_side drives every bisection: those of find_boundary,
    intervals and the isotropic tables."""
    fa = float(f_a) - target
    fb = float(f_b) - target
    for x, value in ((a, fa), (b, fb)):
        if value != value:
            raise NoSignChange(f"f - target is NaN at {x}")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChange(f"f - target has the same sign at {a} and {b}")
    kappa = 0.2 / (b - a)
    # reach = epsilon 2^(n_1/2 + n0 - j) at step j: the point lies within
    # reach - (b - a) / 2 of the midpoint, so the bracket after the step is
    # at most reach wide; the last step is the one with reach = tol
    reach = tol
    while reach < b - a:
        reach *= 2.0
    while b - a > tol and reach >= tol:
        mid = 0.5 * (a + b)
        falsi = (fb * a - fa * b) / (fb - fa)
        toward = 1.0 if mid > falsi else -1.0
        delta = kappa * (b - a) ** 2
        x = falsi + toward * delta if delta <= abs(mid - falsi) else mid
        radius = reach - 0.5 * (b - a)
        if not abs(x - mid) <= radius:
            x = mid - toward * radius
        if not a < x < b:  # rounded onto an end
            if not a < mid < b:  # no float lies strictly inside
                break
            x = mid
        fx = float((yield x)) - target
        if fx != fx:
            raise NoSignChange(f"f - target is NaN at {x}")
        if fx == 0.0:
            return x
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        reach *= 0.5
    return 0.5 * (a + b)


def _side_by_side(f, bisections) -> list[float]:
    """The boundaries of (key, _bisection) pairs, run in lockstep: each step
    is one call f(keys, xs) on the points the open bisections ask for
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
    each end inside the grid found by _bisection (ITP steps) to within
    BISECTION_TOL.

    criteria is a sequence of (name, target, sense): the criterion holds
    where its witness is >= target (sense ">=") or <= target (sense
    "<=").  f(which, xs) maps an int array which, naming for each x of the
    array xs the index of its criterion, to the array of the witnesses'
    values.  f is called once on the grids of all criteria together, then
    the brackets of all criteria are bisected side by side, one call per
    step on the points of the brackets still open, and never again.  Every
    bisection starts from the grid values already at hand, so an end at a
    grid point whose witness equals the target costs no call.  Returns one
    list of Interval per criterion, empty where the criterion never holds
    on the grid.  A NaN witness, on the grid or at a step's point, raises
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


# The one spec of a number cell: 9 significant digits
_NUMBER = "%.9g"


def format_number(x: float) -> str:
    """Decimal rendering at 9 significant digits, shared by all CSV output."""
    return _NUMBER % float(x)


def write_csv_rows(path, header, rows) -> None:
    """The one CSV writer: text is written as given, a bool as true/false,
    and any other value as format_number renders it.

    Each row is rendered by one %-template built from the kinds of the
    first row's cells: %s for text and for a bool (mapped to its text
    first), _NUMBER for a number.  Every row holds cells of those kinds."""
    template = None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = list(row)
            if template is None:
                template = ",".join("%s" if isinstance(c, (str, bool)) else _NUMBER for c in cells) + "\n"
                flags = [k for k, c in enumerate(cells) if isinstance(c, bool)]
            for k in flags:
                cells[k] = "true" if cells[k] else "false"
            fh.write(template % tuple(cells))
