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
    """A maximal parameter range on which a predicate holds; the witness
    equals its threshold at the refined endpoints (up to bisection width)."""

    lo: float
    hi: float
    predicate_name: str
    witness_lo: float
    witness_hi: float


def find_boundary(f, bracket, target: float, tol: float = BISECTION_TOL) -> float:
    """Bisect f(x) = target inside the bracket.

    The bracket endpoints must produce values on opposite sides of the
    target (an endpoint sitting exactly on it is returned directly);
    orientation of the bracket does not matter.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if a > b:
        a, b = b, a
    return _bisect(f, a, b, f(a), f(b), target, tol)


def _bisect(f, a: float, b: float, f_a: float, f_b: float, target: float, tol: float) -> float:
    """find_boundary on an ordered bracket whose end values are known."""
    fa = f_a - target
    fb = f_b - target
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise NoSignChange(f"f - target has the same sign at {a} and {b}")
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = f(mid) - target
        if fm == 0.0:
            return mid
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def intervals(
    f,
    lo: float,
    hi: float,
    target: float,
    sense: str,
    points: int = 2001,
    tol: float = BISECTION_TOL,
    name: str = "",
) -> list[Interval]:
    """Maximal sub-intervals of [lo, hi] where f >= target (sense ">=") or
    f <= target (sense "<="), endpoints refined by bisection.

    f maps an array of x to the array of its values.  It is called once on
    the whole grid, and bisection calls it on arrays of one x, starting
    from the grid values it already has; an endpoint on the grid's edge
    reports its grid value as its witness.  Returns an empty list when the
    predicate never holds on the grid.
    """
    if sense not in (">=", "<="):
        raise OutOfRange(f'sense must be ">=" or "<=", got {sense!r}')
    xs = np.linspace(lo, hi, points)
    vals = np.asarray(f(xs), dtype=float)

    def at(x):
        return float(f(np.array([x]))[0])

    ok = vals >= target if sense == ">=" else vals <= target

    def edge(k: int, inner: int):
        # (endpoint, witness) between grid points k (outside) and inner
        if k < 0 or k == points:
            return xs[inner], vals[inner]
        a, b = sorted((k, inner), key=lambda n: (xs[n], n))
        x = _bisect(at, float(xs[a]), float(xs[b]), vals[a], vals[b], target, tol)
        return x, at(x)

    found: list[Interval] = []
    i = 0
    while i < points:
        if not ok[i]:
            i += 1
            continue
        j = i
        while j + 1 < points and ok[j + 1]:
            j += 1
        left, w_left = edge(i - 1, i)
        right, w_right = edge(j + 1, j)
        found.append(Interval(float(left), float(right), name, float(w_left), float(w_right)))
        i = j + 1
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

