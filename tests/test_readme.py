"""The README's Python examples run as written and print what their
comments say: each `print(...)` line of a block ends in `# <its output>`."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


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
