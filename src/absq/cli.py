"""Command-line front end.

Subcommands reproduce the package's reference boundary tables as CSV,
classify ad-hoc states, and scan the swapping network for retrieval
regions.  All numeric output uses 9 significant digits; reference values
are carried in separate comparison columns, never silently asserted.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import warnings

import numpy as np

from . import bloch, channels, classify, entropy, states, swap, sweep
from .errors import AbsqError, NoSignChange, UsageError
from .linalg import eigvals_hermitian
from .sweep import format_number, write_csv_rows
from .tolerances import BISECTION_TOL

USAGE_ERROR = 2
COMPUTATION_ERROR = 1


class SpecError(UsageError):
    pass


def _finite_float(text: str) -> float:
    """text as a finite float, else argparse.ArgumentTypeError: the type of
    --p2 and --p4 (a usage error, exit 2), and the parse of a spec value."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _numbers(text: str) -> list[float] | None:
    """The comma-separated floats of text, or None if some part is not one."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        return None


def parse_spec(text: str) -> tuple[str, dict]:
    """Parse the `name:key=value,key=value` mini-grammar.

    Errors report the offending position and what was expected there.
    """
    name, sep, rest = text.partition(":")
    if not name:
        raise SpecError(f"empty name at position 0 in {text!r}; expected an identifier")
    params: dict[str, float] = {}
    if not sep:
        return name, params
    pos = len(name) + 1
    for field in rest.split(","):
        key, eq, value = field.partition("=")
        if not eq or not key:
            raise SpecError(
                f"expected key=value at position {pos} in {text!r}, got {field!r}"
            )
        if key in params:
            raise SpecError(f"repeated key {key!r} at position {pos} in {text!r}")
        try:
            params[key] = _finite_float(value)
        except argparse.ArgumentTypeError:
            raise SpecError(
                f"expected a finite number at position {pos + len(key) + 1} in {text!r}, "
                f"got {value!r}"
            ) from None
        pos += len(field) + 1
    return name, params


def _take(params: dict, spec_name: str, *keys, defaults=()):
    missing = [k for k in keys if k not in params and k not in dict(defaults)]
    if missing:
        raise SpecError(f"{spec_name} needs parameters {missing}")
    merged = dict(defaults)
    merged.update(params)
    extra = set(merged) - set(keys)
    if extra:
        raise SpecError(f"{spec_name} got unknown parameters {sorted(extra)}")
    return [merged[k] for k in keys]


def _integer(value: float, spec_name: str, key: str) -> int:
    if not value.is_integer():
        raise SpecError(f"expected an integer for {spec_name} parameter {key}, got {value!r}")
    return int(value)


def build_state(spec: str) -> states.DensityMatrix:
    name, params = parse_spec(spec)
    if name == "pure-schmidt":
        (theta,) = _take(params, name, "theta")
        return states.pure_schmidt(theta)
    if name == "depolarized-schmidt":
        theta, p = _take(params, name, "theta", "p")
        return states.depolarized_schmidt(theta, p)
    if name == "acin":
        lam, theta = _take(params, name, "lambda", "theta")
        return states.acin_two_param(lam, theta)
    if name == "iso":
        d, beta = _take(params, name, "d", "beta")
        return states.isotropic(_integer(d, name, "d"), beta)
    if name == "acin3":
        vals = _take(params, name, "x0", "x1", "x2", "x3", "x4", "theta", defaults=(("theta", 0.0),))
        return states.acin_tripartite(vals[:5], vals[5])
    if name == "ghzw":
        (p,) = _take(params, name, "p")
        return states.ghz_w_mix(p)
    if name == "bell":
        (index,) = _take(params, name, "index")
        return states.bell_state(_integer(index, name, "index"))
    raise SpecError(f"unknown state {name!r}")


_CHANNEL_ALIASES = {name.replace("_", "-"): name for name in channels.CHANNEL_NAMES}


def apply_channel(spec: str, rho: states.DensityMatrix) -> states.DensityMatrix:
    name, params = parse_spec(spec)
    if name == "global-depolarizing":
        (p,) = _take(params, name, "p")
        return channels.global_depolarize(rho, p)
    if name not in _CHANNEL_ALIASES:
        raise SpecError(
            f"unknown channel {name!r}; expected one of "
            f"{sorted(_CHANNEL_ALIASES) + ['global-depolarizing']}"
        )
    base = _CHANNEL_ALIASES[name]
    if "p" in params:
        p1 = p2 = params.pop("p")
        if params:
            raise SpecError(f"{name} got unknown parameters {sorted(params)}")
    else:
        p1, p2 = _take(params, name, "p1", "p2")
    if rho.dims != (2, 2):
        raise SpecError(f"channel {name} needs a two-qubit state, got dims {rho.dims}")
    return channels.double_apply(
        channels.make_channel(base, p1), channels.make_channel(base, p2), rho
    )


def cmd_classify(args) -> int:
    rho = build_state(args.state)
    if args.channel:
        rho = apply_channel(args.channel, rho)
    if args.alpha is None:
        alphas = (0.5, 2.0)
    else:
        alphas = _numbers(args.alpha)
        if alphas is None:
            raise SpecError(f"--alpha expects comma-separated numbers, got {args.alpha!r}")
        repeated = [a for i, a in enumerate(alphas) if a in alphas[:i]]
        if repeated:
            raise SpecError(f"--alpha repeats the order {repeated[0]:g} in {args.alpha!r}")
    lines = [f"state: {args.state}" + (f" after {args.channel}" if args.channel else "")]
    if args.marginal:
        if len(rho.dims) != 3:
            raise SpecError("--marginal needs a tripartite state")
        bt = bloch.decompose_tripartite(rho)
        ok_bloch, tnorm = classify.marginal_acre2nn(bt, args.marginal)
        keep = [int(c) - 1 for c in args.marginal]
        ok_direct, purity = classify.is_acre2nn(rho.marginal(keep))
        lines.append(
            f"marginal {args.marginal}: ACRE2NN {ok_bloch} "
            f"(||T||^2 = {format_number(tnorm)}; purity = {format_number(purity)}, "
            f"direct verdict {ok_direct})"
        )
        rows = [("marginal_acre2nn", ok_bloch, tnorm), ("marginal_purity", ok_direct, purity)]
    else:
        report = classify.classification_report(rho, alphas)
        # (criterion, verdict, witness, its key in report.thresholds)
        entries = [
            ("afef", report.afef, report.lambda_max, "lambda_max"),
            ("acvenn", report.acvenn, report.entropy_bits, "entropy_bits"),
            *(
                (f"acrenn[{alpha:g}]", ok, witness, f"trace_power[{alpha:g}]")
                for alpha, (ok, witness) in report.acrenn.items()
            ),
            ("acre2nn", report.acre2nn, report.purity, "purity"),
        ]
        for criterion, ok, witness, key in entries:
            name, bracket, order = criterion.partition("[")
            label = name.upper() + bracket + order  # the order keeps its case: acrenn[1e+10]
            lines.append(
                f"{label:<8} {ok}  {key.partition('[')[0]} = {format_number(witness)}"
                f" (threshold {format_number(report.thresholds[key])})"
            )
        rows = [(criterion, ok, witness) for criterion, ok, witness, _ in entries]
    print("\n".join(lines))
    if args.csv:
        write_csv_rows(args.csv, ["criterion", "member", "witness"], rows)
    return 0


# Reference endpoints the table commands compare against.  "--" cells in
# the source table carry None and are always reported as computed.
TABLE2_REFERENCE = {
    ("bit_flip", "ac"): (0.0890506, 0.910949),
    ("bit_flip", "af"): (0.378732, 0.621268),
    ("phase_flip", "ac"): (0.0545493, 0.945451),
    ("phase_flip", "af"): (0.333333, 0.666667),
    ("depolarizing", "ac"): None,
    ("depolarizing", "af"): (0.271286, 1.0),
    ("phase_damping", "ac"): (0.206295, 1.0),
    ("phase_damping", "af"): (0.888889, 1.0),
}

TABLE2_CHANNELS = ("bit_flip", "phase_flip", "depolarizing", "phase_damping")

TABLE3_REFERENCE = {2: 0.0654827, 3: 0.108858, 4: 0.136226, 5: 0.15533}

TABLE4_REFERENCE = {3: 0.765349, 4: 0.7806, 5: 0.831004, 6: 0.907309}


def table2_rows(points: int = 2001):
    """One row per table cell: computed AC/AF interval endpoints on the
    two-qubit mixed family under each double-sided channel, with reference
    values and deltas.  The depolarizing row is also reported under the
    single-sided reading since its reference cell does not state one.

    It reaches into channels for _kraus_stack and _transfer: it
    pads the Kraus sets of several channels to four operators and makes
    one _transfer call on all of them per witness call, a stack that no
    public channels entry builds.
    """
    base = states.acin_two_param(0.9, math.pi / 4).matrix
    ident = channels.make_channel("depolarizing", 0.0).transfer  # the identity map
    scans = [
        (channel, sides)
        for channel in TABLE2_CHANNELS
        for sides in ((2, 1) if channel == "depolarizing" else (2,))
    ]
    # criterion 2k is AC and 2k + 1 is AF on scan k
    tests = (("ac", 1.0, ">="), ("af", 0.5, "<="))
    criteria = [
        (f"{channel}/{crit}", target, sense) for channel, _ in scans for crit, target, sense in tests
    ]
    # every call of the witness, on the grids of all scans or on one step
    # of all open brackets, is one stack of states built, validated and
    # read off at once; each distinct (scan, p) of a call is built once,
    # so the AC and AF scans share their states (no state recurs from one
    # call to a later one)

    def witness(which, ps):
        keys = list(zip((which // 2).tolist(), ps.tolist()))
        todo = sorted(set(keys))  # scan order, so by channel
        # every Kraus set padded to four by zero operators, which add nothing
        kraus = np.zeros((len(todo), 4, 2, 2), dtype=complex)
        start = 0
        for channel, group in itertools.groupby(todo, key=lambda key: scans[key[0]][0]):
            ops = channels._kraus_stack(channel, [p for _, p in group])
            kraus[start : start + len(ops), : ops.shape[1]] = ops
            start += len(ops)
        s = channels._transfer(kraus)
        one_sided = np.array([scans[k][1] == 1 for k, _ in todo])[:, None, None, None, None]
        rho = channels.double_apply_stack(s, np.where(one_sided, ident, s), base)
        states.DensityMatrix.validate(rho)
        spectra = dict(zip(todo, eigvals_hermitian(rho)))
        spec = np.array([spectra[key] for key in keys])
        values = spec[:, 0]  # AF: the largest eigenvalue
        ac = which % 2 == 0
        values[ac] = entropy.spectrum_entropy(spec[ac])
        return values

    found = sweep.intervals(witness, criteria, 0.0, 1.0, points=points)
    rows = []
    for n, (channel, sides) in enumerate(scans):
        for m, (crit, _, _) in enumerate(tests):
            cell = found[2 * n + m]
            ref = TABLE2_REFERENCE[(channel, crit)]
            lo, hi = (cell[0].lo, cell[0].hi) if cell else (math.nan, math.nan)
            ref_lo, ref_hi = ref if ref else (math.nan, math.nan)
            rows.append(
                {
                    "channel": channel,
                    "criterion": crit,
                    "sides": sides,
                    "empty": not cell,
                    "lo": lo,
                    "hi": hi,
                    "ref_lo": ref_lo,
                    "ref_hi": ref_hi,
                    "delta_lo": abs(lo - ref_lo) if ref and cell else math.nan,
                    "delta_hi": abs(hi - ref_hi) if ref and cell else math.nan,
                }
            )
    return rows


def _isotropic_boundaries(beta: float, dims, functional, what: str) -> list[float]:
    """The lambda in [0, 1] where functional(spectrum) = log2(d) after global
    depolarizing of the isotropic state, for each d of dims, found side by
    side by sweep._bisection to within BISECTION_TOL.  Each d's spectrum is
    the closed form states.isotropic_spectrum, so nothing is diagonalized,
    and each witness call (the 2k ends, then one per step) runs functional
    once on the depolarized spectra as the rows of a zero-padded stack.  A d
    without a crossing raises, naming d and what."""
    eigs = [states.isotropic_spectrum(d, beta) for d in dims]

    def witness(keys, lams):
        stack = np.zeros((len(keys), max(e.size for e in eigs)))
        for row, n, lam in zip(stack, keys, lams):
            row[: eigs[n].size] = channels.global_depolarize_spectrum(eigs[n], lam)
        return functional(stack).tolist()

    def bisection(d, f_0, f_1):
        try:
            return (yield from sweep._bisection(0.0, 1.0, f_0, f_1, math.log2(d), BISECTION_TOL))
        except NoSignChange:
            raise NoSignChange(f"d = {d}: the {what} does not cross log2({d}) = "
                               f"{format_number(math.log2(d))} for lambda in [0, 1]") from None

    ends = witness([n for n in range(len(dims)) for _ in (0, 1)], [0.0, 1.0] * len(dims))
    return sweep._side_by_side(
        witness, [(n, bisection(d, *ends[2 * n : 2 * n + 2])) for n, d in enumerate(dims)]
    )


def table3_rows():
    """Exact-entropy membership boundary of the depolarized isotropic
    family at beta = 0.8, for local dimensions 2..5."""
    found = _isotropic_boundaries(0.8, TABLE3_REFERENCE, entropy.spectrum_entropy, "entropy")
    return [
        {"d": d, "beta": 0.8, "lambda_lo": lam, "ref": ref, "delta": abs(lam - ref)}
        for (d, ref), lam in zip(TABLE3_REFERENCE.items(), found)
    ]


def table4_rows(terms: int = 10):
    """Series-surrogate membership boundary of the depolarized isotropic
    family, local dimensions 3..6.

    The boundary is taken at beta = 1 (the binding case over the whole
    admissible beta range) using the uniform-coefficient surrogate compared
    directly against log2(d); see entropy.series_estimate_flat.
    """
    series = lambda stack: entropy.spectrum_series_flat(stack, terms)
    found = _isotropic_boundaries(1.0, TABLE4_REFERENCE, series, f"{terms}-term series surrogate")
    return [
        {"d": d, "beta_lo": -1.0 / (d * d - 1), "beta_hi": 1.0, "lambda_lo": lam, "ref": ref,
         "delta": abs(lam - ref)}
        for (d, ref), lam in zip(TABLE4_REFERENCE.items(), found)
    ]


def write_table(path, rows) -> int:
    """table2, table3 and table4: one CSV line per row dict, the columns
    named by its keys."""
    write_csv_rows(path, list(rows[0]), [r.values() for r in rows])
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def cmd_swap_scan(args) -> int:
    n = args.resolution
    # the two input stacks: r^2 states rho_ab, one per pair of grid
    # coordinates, and r states rho_bc
    if args.family == "global-depolarizing":
        p1s = np.linspace(0.0, 1.0, n)
        thetas = np.linspace(0.05, math.pi / 2 - 0.05, n)
        firsts = [(p1, th1) for p1 in p1s for th1 in thetas]
        rho_ab = states.depolarized_schmidt_stack(np.tile(thetas, n), np.repeat(p1s, n))
        seconds = thetas
        rho_bc = states.depolarized_schmidt_stack(thetas, np.full(n, args.p2))
        header = ["p1", "theta1", "theta2", "S_ab", "S_bc", "S00", "S01", "S10", "S11", "success"]
    elif args.family == "amplitude-damping":
        ps = np.linspace(0.0, 1.0, n)
        base = states.pure_schmidt(math.pi / 4).matrix
        damping = channels.transfer_stack("amplitude_damping", ps)
        fourth = channels.transfer_stack("amplitude_damping", [args.p4])
        firsts = [(p1, p2) for p1 in ps for p2 in ps]
        rho_ab = channels.double_apply_stack(damping[:, None], damping[None, :], base)
        rho_ab = rho_ab.reshape(-1, 4, 4)
        seconds = ps
        rho_bc = channels.double_apply_stack(damping, fourth, base)
        header = ["p1", "p2", "p3", "S_ab", "S_bc", "S00", "S01", "S10", "S11", "success"]
    else:
        raise UsageError(
            "phase-damping leaves every state outside the absolute "
            "conditional-entropy class, so there is nothing for the swapping "
            "network to retrieve; no scan is produced."
        )
    grid = swap.retrieval_grid(rho_ab, rho_bc)
    s_ab = grid.entropy_ab.tolist()
    s_bc = grid.entropy_bc.tolist()
    # each row of the grid is formatted as the file is written
    rows = (
        [x1, x2, x3, s_ab[i], s_bc[j], *conds, ok]
        for i, (x1, x2) in enumerate(firsts)
        for j, (x3, conds, ok) in enumerate(
            zip(seconds, grid.conditional_entropies[i].tolist(), grid.success[i].tolist())
        )
    )
    write_csv_rows(args.out, header, rows)
    successes = int(np.count_nonzero(grid.success))
    print(f"wrote {grid.success.size} rows to {args.out} ({successes} success points)")
    return 0


def _int_at_least(lo: int):
    """argparse type: an integer >= lo, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absq",
        description="Classify quantum states against absolute entropic classes "
        "and reproduce the package's reference boundary tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a state, optionally after a channel")
    p.add_argument("--state", required=True, help="state spec, e.g. pure-schmidt:theta=0.7854")
    p.add_argument("--channel", help="channel spec, e.g. global-depolarizing:p=0.5")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--alpha", help="comma-separated Renyi orders (default 0.5,2)")
    which.add_argument("--marginal", choices=bloch.MARGINAL_PAIRS, help="classify a tripartite marginal")
    p.add_argument("--csv", help="also write the report as CSV")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table2", help="AC/AF intervals for the noisy two-qubit mixed family")
    p.add_argument("--out", default="table2.csv")
    p.add_argument("--points", type=_int_at_least(2), default=2001, help="coarse grid size per scan")
    p.set_defaults(func=lambda a: write_table(a.out, table2_rows(points=a.points)))

    p = sub.add_parser("table3", help="exact isotropic membership boundaries (beta = 0.8)")
    p.add_argument("--out", default="table3.csv")
    p.set_defaults(func=lambda a: write_table(a.out, table3_rows()))

    p = sub.add_parser("table4", help="series-surrogate isotropic membership boundaries")
    p.add_argument("--out", default="table4.csv")
    p.add_argument("--terms", type=_int_at_least(1), default=10)
    p.set_defaults(func=lambda a: write_table(a.out, table4_rows(terms=a.terms)))

    p = sub.add_parser("swap-scan", help="scan the swapping network for retrieval regions")
    p.add_argument(
        "--family",
        required=True,
        choices=("global-depolarizing", "amplitude-damping", "phase-damping"),
    )
    p.add_argument("--resolution", type=_int_at_least(1), default=15, help="grid points per axis")
    p.add_argument("--p2", type=_finite_float, default=0.705882, help="fixed second-state weight (global-depolarizing)")
    p.add_argument("--p4", type=_finite_float, default=0.714286, help="fixed fourth damping parameter (amplitude-damping)")
    p.add_argument("--out", default="swap_scan.csv")
    p.set_defaults(func=cmd_swap_scan)
    return parser


# built once at import and never changed: parse_args leaves a parser as it
# was, and the table commands look their row functions up when they run
PARSER = build_parser()


def _attach_negative_values(argv: list[str]) -> list[str]:
    """`--opt -1e-3` as `--opt=-1e-3`: argparse reads a token that starts with
    '-' as an option unless it looks like -N or -N.N, so -inf, -nan, -1e3 or
    -0.5,2 would end in "expected one argument" before any value check."""
    out: list[str] = []
    for token in argv:
        option = out and out[-1].startswith("--") and "=" not in out[-1]
        if option and token.startswith("-") and _numbers(token) is not None:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    args = PARSER.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    # a library warning is one `warning:` line after a success, none after an error
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.func(args)
        except (AbsqError, MemoryError) as exc:  # numpy names the allocation it refused
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return USAGE_ERROR if isinstance(exc, UsageError) else COMPUTATION_ERROR
        except OSError as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return COMPUTATION_ERROR
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
