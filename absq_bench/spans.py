"""Span recorder for the traced benchmark run.

`Instrumentation` wraps the public functions of every absq module from
outside the package.  Each call records one span: function, start, end and
parent, in flat arrays that stay in memory until the run ends.  Layer
metrics (calls, self time, ratios) are computed from them afterwards.

A wrapped function is replaced in every absq namespace that holds it, so a
name imported with `from .linalg import kron` is traced too.  A name that a
later version of absq no longer defines is simply not wrapped, and a new
public function is traced under its module's layer.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
import functools
import inspect
import sys
from time import perf_counter

import numpy as np

MODULES = ("linalg", "states", "channels", "entropy", "bloch", "classify", "swap", "sweep", "cli")

# Layer of every public function of a module, unless LAYER_OF names it.
MODULE_LAYER = {
    "linalg": "linalg",
    "states": "states.factory",
    "channels": "channels.apply",
    "entropy": "entropy",
    "bloch": "bloch",
    "classify": "classify",
    "swap": "swap",
    "sweep": "sweep",
    "cli": "cli",
}

LAYER_OF = {
    ("linalg", "eig_hermitian"): "linalg.eig",
    ("linalg", "eigvals_hermitian"): "linalg.eig",
    ("linalg", "kron"): "linalg.kron",
    ("linalg", "partial_trace"): "linalg.partial_trace",
    ("channels", "make_channel"): "channels.make",
    ("swap", "swap_conditionals"): "swap.conditionals",
    # CSV output lives in sweep but is the CLI's I/O stage.
    ("sweep", "format_number"): "cli.csv",
    ("sweep", "write_csv_rows"): "cli.csv",
    ("sweep", "emit_csv"): "cli.csv",
}

# (module, class, method, layer): methods wrapped on the class itself.
METHODS = (("states", "DensityMatrix", "__post_init__", "states.validate"),)

ROOT_LAYER = "bench.op"


class Recorder:
    """Spans of one traced phase, plus the counters measured at the same
    boundaries.  Ratios whose denominators are per-op (distinct inputs)
    are counted per op and summed when the op ends."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._ids: dict[str, int] = {}
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.op_keys: defaultdict = defaultdict(set)
        self.swap_pairs: list[tuple[int, int]] = []
        self.swap_inputs: dict[int, np.ndarray] = {}
        self.ops = 0
        self.root = self.name_id("op", ROOT_LAYER)

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.fid)
        self.fid.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def inside(self, layer: str) -> bool:
        return any(self.layers[self.fid[j]] == layer for j in self.stack[1:])

    def begin_op(self) -> int:
        self.ops += 1
        return self.open(self.root)

    def end_op(self, i: int) -> None:
        self.close(i)
        for key, seen in self.op_keys.items():
            self.counts[key + ".distinct"] += len(seen)
        self.op_keys.clear()


def _matrix_key(m) -> int:
    m = np.ascontiguousarray(getattr(m, "matrix", m), dtype=complex)
    return hash((m.shape, m.tobytes()))


def _freeze(v):
    if isinstance(v, np.ndarray):
        return (v.shape, v.tobytes())
    if isinstance(v, (list, tuple)):
        return tuple(_freeze(x) for x in v)
    try:
        hash(v)
    except TypeError:
        return repr(v)
    return v


def _eig_hook(rec, name):
    def before(args, kwargs):
        rec.op_keys["linalg.eig"].add(_matrix_key(args[0] if args else kwargs.get("m")))
        return args, kwargs

    return before


def _factory_hook(rec, name):
    # A factory called by another factory is part of building one state.
    def before(args, kwargs):
        if not rec.inside("states.factory"):
            rec.counts["states.factory.outer"] += 1
            rec.op_keys["states.factory"].add((name, _freeze(args), _freeze(sorted(kwargs.items()))))
        return args, kwargs

    return before


def _swap_hook(rec, name):
    def before(args, kwargs):
        pair = []
        for rho in (args + tuple(kwargs.values()))[:2]:
            key = _matrix_key(rho)
            if key not in rec.swap_inputs:
                rec.swap_inputs[key] = np.array(getattr(rho, "matrix", rho), dtype=complex)
            pair.append(key)
        rec.swap_pairs.append(tuple(pair))
        return args, kwargs

    return before


def _witness_hook(rec, name):
    # The scalar function handed to a sweep is the caller's witness: count
    # and time each evaluation as a span of the caller's layer.
    def before(args, kwargs):
        if args and callable(args[0]):
            args = (_counted(rec, args[0]),) + args[1:]
        elif callable(kwargs.get("f")):
            kwargs = dict(kwargs, f=_counted(rec, kwargs["f"]))
        return args, kwargs

    return before


def _counted(rec, f):
    if getattr(f, "_bench_witness", False):
        return f
    module = getattr(f, "__module__", "") or ""
    layer = module.rsplit(".", 1)[-1] if module.startswith("absq.") else "sweep.witness"
    nid = rec.name_id(f"witness[{layer}]", layer)

    def witness(*args, **kwargs):
        rec.counts["sweep.witness_evals"] += 1
        i = rec.open(nid)
        try:
            return f(*args, **kwargs)
        finally:
            rec.close(i)

    witness._bench_witness = True
    return witness


def _rows_hook(rec, name):
    def before(args, kwargs):
        if len(args) >= 3:
            rows = list(args[2])
            args = args[:2] + (rows,) + args[3:]
            rec.counts["cli.csv.rows"] += len(rows)
        elif "rows" in kwargs:
            rows = list(kwargs["rows"])
            kwargs = dict(kwargs, rows=rows)
            rec.counts["cli.csv.rows"] += len(rows)
        return args, kwargs

    return before


LAYER_HOOKS = {"linalg.eig": _eig_hook, "states.factory": _factory_hook, "swap.conditionals": _swap_hook}
FUNCTION_HOOKS = {
    ("sweep", "intervals"): _witness_hook,
    ("sweep", "find_boundary"): _witness_hook,
    ("sweep", "write_csv_rows"): _rows_hook,
}


def _wrap(rec: Recorder, fn, nid: int, before):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        i = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)

    return traced


def _public_functions(mod):
    for name, fn in vars(mod).items():
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield name, fn


class Instrumentation:
    """Context manager: installs the wrappers on entry, restores every
    patched name on exit.  Nothing is installed outside the `with`."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def _hook(self, modname, name, layer):
        make = FUNCTION_HOOKS.get((modname, name)) or LAYER_HOOKS.get(layer)
        return make(self.rec, name) if make else None

    def __enter__(self):
        wrapped = {}
        for modname in MODULES:
            mod = sys.modules.get(f"absq.{modname}")
            if mod is None:
                continue
            for name, fn in list(_public_functions(mod)):
                layer = LAYER_OF.get((modname, name), MODULE_LAYER[modname])
                nid = self.rec.name_id(f"{modname}.{name}", layer)
                wrapped[fn] = _wrap(self.rec, fn, nid, self._hook(modname, name, layer))
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "absq" or mname.startswith("absq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        for modname, clsname, meth, layer in METHODS:
            cls = getattr(sys.modules.get(f"absq.{modname}"), clsname, None)
            fn = getattr(cls, "__dict__", {}).get(meth)
            if inspect.isfunction(fn):
                nid = self.rec.name_id(f"{modname}.{clsname}.{meth}", layer)
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, _wrap(self.rec, fn, nid, None))
        return self.rec

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False


def self_times(start, end, parent) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    out = [e - s for s, e in zip(start, end)]
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    for p, spans in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for s, e in sorted(spans):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if run_hi is None or s > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = s, e
            else:
                run_hi = max(run_hi, e)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


def layer_totals(rec: Recorder, selfs) -> tuple[Counter, dict]:
    """Span count and summed self time (seconds) per layer."""
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    for i, t in enumerate(selfs):
        layer = rec.layers[rec.fid[i]]
        calls[layer] += 1
        self_s[layer] += t
    return calls, self_s


CALL_LAYERS = (
    "linalg.eig", "linalg.kron", "linalg.partial_trace", "states.validate",
    "channels.apply", "channels.make", "entropy", "classify", "bloch", "swap.conditionals",
)
SELF_LAYERS = (
    "linalg.eig", "linalg.kron", "linalg.partial_trace", "states.validate", "channels.apply",
    "entropy", "classify", "bloch", "swap.conditionals", "sweep", "cli.csv", "cli",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, selfs, is_member, overhead_pct: float) -> dict:
    """Per-op layer metrics of a traced phase, given its self_times.

    is_member(matrix) decides whether a swap input lies inside ACVENN; it
    is evaluated once per distinct input after the phase.
    """
    calls, self_s = layer_totals(rec, selfs)
    ops = max(rec.ops, 1)
    m = {}
    for layer in CALL_LAYERS:
        m[f"{layer}.calls"] = (calls[layer] / ops, "calls/op")
    for layer in SELF_LAYERS:
        m[f"{layer}.self_ms"] = (1e3 * self_s[layer] / ops, "ms/op")
    c = rec.counts
    m["linalg.eig.unique_ratio"] = (_ratio(c["linalg.eig.distinct"], calls["linalg.eig"]), "ratio")
    m["states.factory.calls"] = (c["states.factory.outer"] / ops, "calls/op")
    m["states.factory.unique_ratio"] = (
        _ratio(c["states.factory.distinct"], c["states.factory.outer"]), "ratio")
    member = {k: bool(is_member(v)) for k, v in rec.swap_inputs.items()}
    useful = sum(1 for pair in rec.swap_pairs if all(member[k] for k in pair))
    m["swap.useful_ratio"] = (_ratio(useful, len(rec.swap_pairs)), "ratio")
    m["sweep.witness_evals"] = (c["sweep.witness_evals"] / ops, "evals/op")
    m["cli.csv.rows"] = (c["cli.csv.rows"] / ops, "rows/op")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def function_table(rec: Recorder, selfs) -> list[dict]:
    """Calls and self time per traced function, for the trace file."""
    calls: Counter = Counter()
    self_s: dict = defaultdict(float)
    for i, t in enumerate(selfs):
        calls[rec.fid[i]] += 1
        self_s[rec.fid[i]] += t
    rows = [
        {"name": rec.names[f], "layer": rec.layers[f], "calls": calls[f], "self_ms": 1e3 * self_s[f]}
        for f in calls
    ]
    return sorted(rows, key=lambda r: -r["self_ms"])


FIRST_OP_SPANS = 20000


def first_op_spans(rec: Recorder) -> list[list]:
    """Spans of the first traced op as [name, start_ms, end_ms, parent],
    at most FIRST_OP_SPANS of them."""
    roots = [i for i, f in enumerate(rec.fid) if f == rec.root]
    if not roots:
        return []
    lo = roots[0]
    hi = roots[1] if len(roots) > 1 else len(rec.fid)
    t0 = rec.start[lo]
    return [
        [rec.names[rec.fid[i]], 1e3 * (rec.start[i] - t0), 1e3 * (rec.end[i] - t0),
         rec.parent[i] - lo if rec.parent[i] >= lo else -1]
        for i in range(lo, min(hi, lo + FIRST_OP_SPANS))
    ]
