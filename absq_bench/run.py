"""absq benchmark: run one workload in this process and print its metrics.

    python3 absq_bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; absq is imported from its `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the first half of the time runs untraced
and the second half traced, and the metrics are the per-layer ones.  A
fuller record of the run is written to absq_bench/out/.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import absq from this checkout's src/, and from nowhere else."""
    if not (SRC / "absq" / "__init__.py").is_file():
        sys.exit(f"absq_bench: no absq package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import absq

    if Path(absq.__file__).resolve().parent != SRC / "absq":
        sys.exit(f"absq_bench: imported absq from {absq.__file__}, not from {SRC}")
    for name in ("bloch", "channels", "classify", "cli", "entropy", "linalg", "states", "swap", "sweep"):
        __import__(f"absq.{name}")
    return absq


class Phase:
    """Ops of one measured phase: latencies of completed ops, exceptions
    raised, and their outputs for the checks.  Equal outputs of an op are
    kept once with a count, so memory does not grow with the run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.outputs: dict = {}  # (op_id, key) -> [payload, count]
        self.errors = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.errors

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.wall


def run_round(work, phase: Phase, rec=None) -> None:
    for op_id, op in work.round():
        root = rec.begin_op() if rec is not None else None
        t = time.perf_counter()
        try:
            result = op()
        except Exception:
            phase.errors += 1
            if phase.errors == 1:
                traceback.print_exc(file=sys.stderr)
            continue
        else:
            phase.latencies.append(time.perf_counter() - t)
        finally:
            if rec is not None:
                rec.end_op(root)
        key, payload = work.capture(op_id, result)
        seen = phase.outputs.setdefault((op_id, key), [payload, 0])
        seen[1] += 1


def measure(work, seconds: float, rec=None) -> Phase:
    """Whole rounds until `seconds` have passed."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        run_round(work, phase, rec)
        phase.wall = time.perf_counter() - start
        if phase.wall >= seconds:
            return phase


def check_outputs(work, phases) -> int:
    wrong = 0
    for phase in phases:
        for (op_id, _), (payload, count) in phase.outputs.items():
            try:
                work.check(op_id, payload)
            except checks.CheckError as exc:
                wrong += count
                print(f"absq_bench: check failed on op {op_id}: {exc}", file=sys.stderr)
    return wrong


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(phase: Phase, setup_s: float, rss_mb: float) -> dict:
    ms = [1e3 * t for t in phase.latencies] or [float("nan")]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": phase.ops_per_s, "unit": "op/s"},
        "op_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms.p90": {"value": percentile(ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def acvenn_member(matrix) -> bool:
    return checks.entropy_bits(np.linalg.eigvalsh(matrix)) >= 1.0 - checks.CLASS_MARGIN


def main(argv=None) -> int:
    args = parse_args(argv)
    absq = import_program()
    import_s = time.perf_counter() - T0

    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "import_s": import_s}
    with tempfile.TemporaryDirectory(prefix=".absq_bench_", dir=ROOT) as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        work = workloads.WORKLOADS[args.workload](absq, Path(tmp), args.seed)
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            work.setup()
            run_round(work, Phase())
            prepare_s.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(prepare_s)
        record["prepare_s"] = prepare_s
        if args.trace:
            plain = measure(work, args.seconds / 2)
            rec = spans.Recorder()
            with spans.Instrumentation(rec):
                traced = measure(work, args.seconds / 2, rec)
            phases = [plain, traced]
        else:
            phases = [measure(work, args.seconds)]
        rss_mb = peak_rss_mb()  # before the checks, which are not the program's
    wrong = check_outputs(work, phases)

    if args.trace:
        overhead = 100.0 * (plain.ops_per_s / traced.ops_per_s - 1.0) if traced.ops_per_s else 0.0
        selfs = spans.self_times(rec.start, rec.end, rec.parent)
        metrics = spans.layer_metrics(rec, selfs, acvenn_member, overhead)
        record["functions"] = spans.function_table(rec, selfs)
        record["first_op_spans"] = spans.first_op_spans(rec)
        record["spans"] = len(rec.fid)
    else:
        metrics = end_to_end(phases[0], setup_s, rss_mb)
        record["latencies_ms"] = [1e3 * t for t in phases[0].latencies]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.errors for p in phases) + wrong
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
