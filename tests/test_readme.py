"""The README's Python examples run as written and print what their
comments say: each `print(...)` line of a block ends in `# <its output>`.
Every absq name the README points to exists."""

import contextlib
import functools
import io
import re
from pathlib import Path

import absq
import absq.cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.S | re.M)
MODULES = ("absq", "linalg", "states", "channels", "entropy", "bloch", "classify", "swap", "sweep",
           "tolerances", "errors", "cli")
# the dotted name at the start of a backticked span, such as `swap._branches`
# or `channels.global_depolarize(rho, p)`
POINTERS = re.findall(rf"`((?:{'|'.join(MODULES)})\.[A-Za-z_][\w.]*)", TEXT)


def test_python_examples_print_their_commented_output():
    assert BLOCKS
    for block in BLOCKS:
        expected = [
            line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected


def test_pointers_resolve():
    assert "states.DensityMatrix.validate" in POINTERS
    missing = []
    for name in sorted(set(POINTERS)):
        parts = name.split(".")
        try:
            functools.reduce(getattr, parts[1:] if parts[0] == "absq" else parts, absq)
        except AttributeError:
            missing.append(name)
    assert missing == []
