"""Tests of the benchmark itself: every checker rejects a corrupted output,
and span self times are right on a synthetic tree.

    python3 -m pytest absq_bench
"""

import dataclasses
from pathlib import Path
import sys

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import absq  # noqa: E402
import absq.cli  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(work):
    import contextlib
    import io

    work.setup()
    with contextlib.redirect_stdout(io.StringIO()):
        return [(i, op()) for i, op in work.round()]


def _replace_cell(text, row, col, value):
    lines = [line.split(",") for line in text.splitlines()]
    lines[row + 1][col] = value
    return "\n".join(",".join(cells) for cells in lines) + "\n"


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    work = workloads.Tables(absq, tmp_path_factory.mktemp("tables"), seed=0)
    _run(work)
    return work, [p.read_text() for p in work.outputs]


@pytest.fixture(scope="module")
def swap_scan(tmp_path_factory):
    work = workloads.SwapScan(absq, tmp_path_factory.mktemp("swap"), seed=0)
    _run(work)
    return work, [p.read_text() for p in work.outputs]


@pytest.fixture(scope="module")
def classify():
    work = workloads.Classify(absq, None, seed=0)
    return work, _run(work)


def test_seed_outputs_pass(tables, swap_scan, classify):
    for work, texts in (tables, swap_scan):
        work.check_texts(texts)
    work, results = classify
    for i, result in results:
        work.check(i, result)


# row 0 is bit_flip/ac (a paper cell), row 4 depolarizing/ac (boundary only)
@pytest.mark.parametrize("row,col", [(0, 4), (0, 5), (3, 4), (4, 4), (7, 4), (8, 4)])
@pytest.mark.parametrize("shift", [1e-4, -1e-4])
def test_table2_rejects_moved_endpoint(tables, row, col, shift):
    work, texts = tables
    value = float(texts[0].splitlines()[row + 1].split(",")[col]) + shift
    with pytest.raises(checks.CheckError):
        checks.check_table2(_replace_cell(texts[0], row, col, repr(value)), work.kraus)


@pytest.mark.parametrize("table,col", [(1, 2), (2, 3)])
@pytest.mark.parametrize("row", [0, 3])
def test_table3_table4_reject_moved_endpoint(tables, table, col, row):
    _, texts = tables
    value = float(texts[table].splitlines()[row + 1].split(",")[col]) + 1e-4
    corrupted = _replace_cell(texts[table], row, col, repr(value))
    with pytest.raises(checks.CheckError):
        (checks.check_table3 if table == 1 else checks.check_table4)(corrupted)


@pytest.mark.parametrize("family_index", [0, 1])
def test_swap_scan_rejects_flipped_success(swap_scan, family_index):
    work, texts = swap_scan
    family, _, fixed = work.FAMILIES[family_index]
    text = texts[family_index]
    rows = text.splitlines()[1:]
    everything = range(len(rows))
    checks.check_swap_scan(text, family, workloads.SWAP_RESOLUTION, float(fixed), everything)
    flipped = 0
    for i, line in enumerate(rows):
        cells = line.split(",")
        conds = [float(c) for c in cells[5:9]]
        _, ambiguous = checks.expected_success(float(cells[3]), float(cells[4]), conds)
        if ambiguous:
            continue
        corrupted = _replace_cell(text, i, 9, "false" if cells[9] == "true" else "true")
        with pytest.raises(checks.CheckError, match="success flag"):
            checks.check_swap_scan(corrupted, family, workloads.SWAP_RESOLUTION, float(fixed), [i])
        flipped += 1
    assert flipped > len(rows) // 2


def test_swap_scan_rejects_wrong_row_count_and_entropy(swap_scan):
    work, texts = swap_scan
    family, _, fixed = work.FAMILIES[0]
    short = "\n".join(texts[0].splitlines()[:-1]) + "\n"
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_swap_scan(short, family, workloads.SWAP_RESOLUTION, float(fixed), [0])
    value = float(texts[0].splitlines()[6].split(",")[6]) + 1e-5
    with pytest.raises(checks.CheckError, match="S01"):
        checks.check_swap_scan(_replace_cell(texts[0], 5, 6, repr(value)), family,
                               workloads.SWAP_RESOLUTION, float(fixed), [5])


@pytest.mark.parametrize("field", ["lambda_max", "entropy_bits", "purity", "0.5", "2.0"])
def test_classify_rejects_witness_off_by_1e6(classify, field):
    work, results = classify
    rejected = 0
    for i, result in results:
        if work.pool[i][-1]:
            continue
        if field in ("0.5", "2.0"):
            alpha = float(field)
            ok, witness = result.acrenn[alpha]
            bad = dataclasses.replace(result, acrenn={**result.acrenn, alpha: (ok, witness + 1e-6)})
        else:
            bad = dataclasses.replace(result, **{field: getattr(result, field) + 1e-6})
        try:
            work.check(i, bad)
        except checks.CheckError:
            rejected += 1
    # Tr rho^0.5 of a rank-deficient state is only known to ZERO_EIG**0.5
    # per zero eigenvalue, so a 1e-6 error there can pass; everywhere else
    # it must be caught.
    bipartite = sum(1 for i, _ in results if not work.pool[i][-1])
    deficient = sum(1 for dim, kind, n in workloads.POOL if kind == "rank-deficient" and dim != "3q")
    assert rejected >= bipartite - (deficient if field == "0.5" else 0)


def test_classify_rejects_marginal_witness_off_by_1e6(classify):
    work, results = classify
    tripartite = [(i, r) for i, r in results if work.pool[i][-1]]
    assert tripartite
    for i, (bt, verdicts) in tripartite:
        ok, witness = verdicts["12"]
        with pytest.raises(checks.CheckError, match="marginal 12"):
            work.check(i, (bt, {**verdicts, "12": (ok, witness + 1e-6)}))
        with pytest.raises(checks.CheckError):
            work.check(i, (dataclasses.replace(bt, t12=bt.t12 + 1e-6), verdicts))


def test_classify_rejects_flipped_verdict(classify):
    work, results = classify
    i, result = next((i, r) for i, r in results if not work.pool[i][-1])
    with pytest.raises(checks.CheckError, match="afef verdict"):
        work.check(i, dataclasses.replace(result, afef=not result.afef))


def test_self_times_on_synthetic_tree():
    #   0 root [0, 10]
    #   1   a  [1, 4]      2 a.x [2, 3]
    #   3   b  [5, 9]
    #   4   c  [8, 9.5]    overlaps b: the union [5, 9.5] is covered once
    #   5   d  [9.8, 11]   sticks out of root: only [9.8, 10] counts
    start = [0.0, 1.0, 2.0, 5.0, 8.0, 9.8]
    end = [10.0, 4.0, 3.0, 9.0, 9.5, 11.0]
    parent = [-1, 0, 1, 0, 0, 0]
    got = spans.self_times(start, end, parent)
    want = [10 - (3 + 4.5 + 0.2), 2.0, 1.0, 4.0, 1.5, 1.2]
    assert got == pytest.approx(want, abs=1e-12)


def test_instrumentation_counts_and_restores(monkeypatch):
    state = absq.states.depolarized_schmidt(0.3, 0.6)
    original = absq.classify.eigvals_hermitian
    # a name a later version no longer has is skipped
    monkeypatch.delattr(absq.linalg, "eig_hermitian")
    rec = spans.Recorder()
    with spans.Instrumentation(rec):
        assert absq.classify.eigvals_hermitian is not original
        root = rec.begin_op()
        absq.classify.classification_report(state, (0.5, 2.0))
        rec.end_op(root)
    assert absq.classify.eigvals_hermitian is original
    selfs = spans.self_times(rec.start, rec.end, rec.parent)
    m = spans.layer_metrics(rec, selfs, lambda _: True, 0.0)
    assert m["linalg.eig.calls"]["value"] == 5
    assert m["linalg.eig.unique_ratio"]["value"] == pytest.approx(0.2)
    assert m["classify.calls"]["value"] == 6
    assert m["states.factory.calls"]["value"] == 0
    assert sum(selfs) == pytest.approx(rec.end[0] - rec.start[0])


def test_factory_ratio_counts_outermost_calls():
    rec = spans.Recorder()
    with spans.Instrumentation(rec):
        root = rec.begin_op()
        for theta in (0.1, 0.2, 0.1):
            absq.states.depolarized_schmidt(theta, 0.5)
        rec.end_op(root)
    m = spans.layer_metrics(rec, spans.self_times(rec.start, rec.end, rec.parent), lambda _: True, 0.0)
    assert m["states.factory.calls"]["value"] == 3
    assert m["states.factory.unique_ratio"]["value"] == pytest.approx(2 / 3)

