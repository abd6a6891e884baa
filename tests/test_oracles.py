"""The CLI's tables and scans against the independent checks of
absq_bench/checks.py, which recompute them with numpy and scipy alone:
Kraus-built boundaries and the paper's values for table2, brentq on the
closed-form isotropic spectra for table3 and table4, closed-form spectra and
an einsum Bell projection for swap-scan.  The goldens catch a change of
output; these catch an error in it.  Sizes are those of the goldens, and
swap-scan also runs at r = 15, past the first block of its grid.
"""

import importlib.util
from pathlib import Path

import pytest

from absq import channels
from absq.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "absq_bench_checks", Path(__file__).resolve().parents[1] / "absq_bench" / "checks.py"
)
checks = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(checks)


def run(argv, tmp_path) -> str:
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def kraus(name, p):
    return channels.make_channel(name, p).kraus_ops


@pytest.mark.parametrize("points", [51, 2001])
def test_table2(points, tmp_path):
    checks.check_table2(run(["table2", "--points", str(points)], tmp_path), kraus)


def test_table3(tmp_path):
    text = run(["table3"], tmp_path)
    checks.check_table3(text)
    # every printed lambda is brentq's root at 9 significant digits
    for line in text.splitlines()[1:]:
        d, _, lam, _, _ = line.split(",")
        assert lam == f"{checks.table3_boundary(int(d)):.9g}"


@pytest.mark.parametrize("terms", [10, 12])
def test_table4(terms, tmp_path):
    text = run(["table4", "--terms", str(terms)], tmp_path)
    checks.check_table4(text, terms)
    for line in text.splitlines()[1:]:
        d, _, _, lam, _, _ = line.split(",")
        assert lam == f"{checks.table4_boundary(int(d), terms):.9g}"


SWAP_FAMILIES = pytest.mark.parametrize(
    "family,flag,fixed",
    [("global-depolarizing", "--p2", "0.705882"), ("amplitude-damping", "--p4", "0.714286")],
)


def scan_and_check(family, flag, fixed, r, tmp_path):
    text = run(["swap-scan", "--family", family, "--resolution", str(r), flag, fixed], tmp_path)
    checks.check_swap_scan(text, family, r, float(fixed), range(r**3))


@SWAP_FAMILIES
def test_swap_scan(family, flag, fixed, tmp_path):
    # r = 4: the 64 pairs of the grid are one block of retrieval_grid
    scan_and_check(family, flag, fixed, 4, tmp_path)


@SWAP_FAMILIES
def test_swap_scan_past_one_block(family, flag, fixed, tmp_path):
    # r = 15: 225 x 15 pairs, in 14 blocks of 17 rows (the last of 4)
    scan_and_check(family, flag, fixed, 15, tmp_path)
