"""Byte-for-byte regression of every CSV command against files in golden/.

Each case names its golden file, the option that gives the command its
output path (`--out` for the tables and the swap scan, `--csv` for
classify) and the command.  A `--csv` case also compares its printed
report with the `.stdout` file of the same name, since classify prints no
path.

The table, swap-scan and table2_points51 files were written by the
implementation that preceded the transfer-tensor channels and the einsum
Bell projection; table2_points2001.csv was written before table2 shared one
spectrum per grid state between its AC and AF scans; table2_points2.csv and
the classify files were written before every CSV went through the one
writer sweep.write_csv_rows; table4_terms12.csv was written while
each d of table4 was still bisected alone.  The endpoint cells of the six
table files, and their delta cells, were amended one by one when boundary
finding moved from bisection at 1e-7 to ITP steps at 1e-12: each new endpoint
is that of a bisection at 1e-14 at 9 digits.  The 26 swap-scan entropy cells
that printed roundoff (-3.2034265e-16, -3.14874944e-16 or -0) were amended
one by one to 0 when the spectral functionals began to read eigenvalues
below EIG_ZERO as zeros and entropies below ENTROPY_FLOOR as 0.  A mismatch
means an output digit moved.  Explain such a change, never regenerate the
files to make this pass.

The swap-scan and classify files are also written with the solver swapped
(LAPACK for the Jacobi sweeps, or the Jacobi sweeps for the closed form of
X-matrices): the outputs read spectra only through the functionals, so they
must not depend on which solver wrote the spectrum.
"""

from pathlib import Path

import numpy as np
import pytest

from absq import linalg
from absq.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "table2_points2.csv": ("--out", ["table2", "--points", "2"]),
    "table2_points51.csv": ("--out", ["table2", "--points", "51"]),
    "table2_points2001.csv": ("--out", ["table2"]),
    "table3.csv": ("--out", ["table3"]),
    "table4.csv": ("--out", ["table4"]),
    "table4_terms12.csv": ("--out", ["table4", "--terms", "12"]),
    "swap_scan_global_depolarizing_r4.csv": (
        "--out", ["swap-scan", "--family", "global-depolarizing", "--resolution", "4"],
    ),
    "swap_scan_amplitude_damping_r4.csv": (
        "--out", ["swap-scan", "--family", "amplitude-damping", "--resolution", "4"],
    ),
    "classify_acin_bit_flip.csv": (
        "--csv", ["classify", "--state", "acin:lambda=0.9,theta=0.7854", "--channel", "bit-flip:p=0.2"],
    ),
    "classify_iso_d3_alpha.csv": (
        "--csv", ["classify", "--state", "iso:d=3,beta=0.2", "--alpha", "0.3,2,5"],
    ),
    "classify_ghzw_marginal23.csv": (
        "--csv", ["classify", "--state", "ghzw:p=0.5", "--marginal", "23"],
    ),
}


def _lapack(m):
    return np.linalg.eigvalsh(m)[..., ::-1]


SOLVERS = {
    "lapack-for-jacobi": ("_eigvals_jacobi", _lapack),
    "jacobi-for-x": ("_eigvals_x", linalg._eigvals_jacobi),
}


def run_case(name, tmp_path, capsys):
    flag, argv = CASES[name]
    out = tmp_path / name
    assert main(argv + [flag, str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
    if flag == "--csv":
        assert printed == (GOLDEN / name).with_suffix(".stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden(name, tmp_path, capsys):
    run_case(name, tmp_path, capsys)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("name", sorted(n for n in CASES if not n.startswith("table")))
def test_golden_does_not_depend_on_the_solver(name, solver, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(linalg, *SOLVERS[solver])
    run_case(name, tmp_path, capsys)
