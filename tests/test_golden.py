"""Byte-for-byte regression of every CSV command against files in golden/.

The golden files were written by the implementation that preceded the
transfer-tensor channels and the einsum Bell projection, except
table2_points2001.csv, which was written before table2 shared one spectrum
per grid state between its AC and AF scans; a mismatch means an output digit
moved.  Explain such a change, never regenerate the files to
make this pass.
"""

from pathlib import Path

import pytest

from absq.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "table2_points51.csv": ["table2", "--points", "51"],
    "table2_points2001.csv": ["table2"],
    "table3.csv": ["table3"],
    "table4.csv": ["table4"],
    "swap_scan_global_depolarizing_r4.csv": [
        "swap-scan", "--family", "global-depolarizing", "--resolution", "4",
    ],
    "swap_scan_amplitude_damping_r4.csv": [
        "swap-scan", "--family", "amplitude-damping", "--resolution", "4",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
