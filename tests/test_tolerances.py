"""Source checks on the tolerance table: a small threshold is written once,
in absq.tolerances, and the class guard band is read by one comparison."""

import ast
from pathlib import Path

import absq

SOURCES = sorted(Path(absq.__file__).parent.glob("*.py"))


def parsed():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES]


def test_small_float_literals_only_in_the_tolerance_table():
    # a literal such as 1e-12 outside tolerances.py is a threshold the
    # table does not name
    found = [
        f"{name}:{node.lineno}: {node.value!r}"
        for name, tree in parsed()
        if name != "tolerances.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-3
    ]
    assert found == []


def test_class_margin_read_by_one_comparison():
    readers = [
        (name, fn.name)
        for name, tree in parsed()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(node, ast.Name) and node.id == "CLASS_MARGIN" for node in ast.walk(fn))
    ]
    assert readers == [("classify.py", "_verdict")]
