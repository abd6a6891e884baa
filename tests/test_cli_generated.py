"""Generated command lines against the CLI's exit-code contract.

Command lines are built from the spec grammar: every state and channel name
and an unknown one, with keys missing, repeated or unknown, and values drawn
from edge literals (NaN, infinities, -0, overflowing and subnormal numbers,
hex and underscore forms, the empty string, fractions where an integer is
expected).  Whatever the line, no exception escapes `main`, the exit code is
0, 1 or 2, and stderr holds one line: nothing on success but the one
`warning:` line of a product state, one `error:` (or `io error:`) line on
exit 1, and on exit 2 one `error:` line or argparse's usage and its error
line.  Grids stay tiny, so every generated run takes milliseconds.
"""

import contextlib
import io
import math

from hypothesis import given, settings, strategies as st

from absq.cli import main

EDGES = ["nan", "-nan", "inf", "-inf", "-0", "0", "1", "-1", "1e308", "1e400", "1e-320",
         "0x10", "1_0", "", "abc", "0.5", "2.5"]
# the integers an option takes: none above 10, so no grid grows
COUNTS = ["0", "1", "2", "3", "-1", "1.5", "nan", "inf", "1e308", "0x10", "1_0", "", " 2"]

STATE_KEYS = {
    "pure-schmidt": {"theta": ["0.3", "0.7854", "1.5707963267948966"]},
    "depolarized-schmidt": {"theta": ["0.7854"], "p": ["0.3", "1"]},
    "acin": {"lambda": ["0.9", "0.2"], "theta": ["0.7854", "3.2"]},
    "iso": {"d": ["2", "3", "1e20"], "beta": ["0.2", "-0.125", "1"]},
    "acin3": {f"x{i}": ["0.4", "0.6", "0.7854", "9"] for i in range(5)} | {"theta": ["0.9"]},
    "ghzw": {"p": ["0.3", "0.8"]},
    "bell": {"index": ["0", "3", "4"]},
    "nope": {"p": ["0.5"]},
}
CHANNEL_KEYS = {
    name: {"p": ["0.2"], "p1": ["0.3"], "p2": ["0.7"]}
    for name in ("bit-flip", "phase-flip", "depolarizing", "phase-damping", "amplitude-damping", "nope")
} | {"global-depolarizing": {"p": ["0.2", "0.9"]}}


@st.composite
def specs(draw, grammar):
    """name:key=value,... with the name's keys, some dropped, repeated or
    unknown, and each value a plausible one or an edge literal."""
    name = draw(st.sampled_from(sorted(grammar)))
    keys = [k for k in grammar[name] if draw(st.integers(0, 5))]  # sometimes missing
    keys += draw(st.lists(st.sampled_from(sorted(grammar[name]) + ["zz"]), max_size=2))
    fields = []
    for key in keys:
        values = grammar[name].get(key, ["1"])
        if draw(st.booleans()):
            values = values + EDGES
        fields.append(f"{key}={draw(st.sampled_from(values))}")
    return name + (":" + ",".join(fields) if fields else "")


@st.composite
def classify_lines(draw):
    argv = ["classify", "--state", draw(specs(STATE_KEYS))]
    if draw(st.booleans()):
        argv += ["--channel", draw(specs(CHANNEL_KEYS))]
    which = draw(st.sampled_from(["", "alpha", "marginal"]))
    if which == "alpha":
        orders = draw(st.lists(st.sampled_from(["0.5", "2", "0.3", "1e10"] + EDGES), min_size=1, max_size=3))
        argv += ["--alpha", ",".join(orders)]
    elif which == "marginal":
        argv += ["--marginal", draw(st.sampled_from(["12", "13", "23", "14", ""]))]
    return argv + ["--csv"]


@st.composite
def table_and_scan_lines(draw):
    kind = draw(st.sampled_from(["table2", "table3", "table4", "swap-scan"]))
    if kind == "table2":
        return ["table2", "--points", draw(st.sampled_from(COUNTS)), "--out"]
    if kind == "table4":
        return ["table4", "--terms", draw(st.sampled_from(COUNTS)), "--out"]
    if kind == "table3":
        return ["table3", "--out"]
    family = draw(st.sampled_from(["global-depolarizing", "amplitude-damping", "phase-damping", "nope"]))
    argv = ["swap-scan", "--family", family, "--resolution", draw(st.sampled_from(COUNTS))]
    for option in ("--p2", "--p4"):
        if draw(st.booleans()):
            argv += [option, draw(st.sampled_from(["0.3", "0.714286"] + EDGES))]
    return argv + ["--out"]


def check_one_line(argv, tmp_path_factory):
    argv = argv + [str(tmp_path_factory.mktemp("cli") / "out.csv")]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    err = stderr.getvalue()
    lines = err.splitlines()
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert lines in ([], [PRODUCT_WARNING]), (argv, err)
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith(("error: ", "io error: ")), (argv, err)
    elif lines[0].startswith("usage: "):
        assert [i for i, line in enumerate(lines) if ": error: " in line] == [len(lines) - 1], (argv, err)
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)


PRODUCT_WARNING = "warning: theta at an endpoint gives a product (unentangled) state"


@settings(max_examples=700)
@given(argv=classify_lines())
def test_classify_exits_with_one_line(argv, tmp_path_factory):
    check_one_line(argv, tmp_path_factory)


@settings(max_examples=150)
@given(argv=table_and_scan_lines())
def test_tables_and_scan_exit_with_one_line(argv, tmp_path_factory):
    check_one_line(argv, tmp_path_factory)


def test_product_state_warns_in_one_line(capsys):
    # pure-schmidt at theta = 0 or pi/2 is a product state: the CLI classifies
    # it (exit 0) and says so in one `warning:` line, not in a Python warning
    for theta in (0, math.pi / 2):
        assert main(["classify", "--state", f"pure-schmidt:theta={theta!r}"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("state: pure-schmidt")
        assert err == PRODUCT_WARNING + "\n"
