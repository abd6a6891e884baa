"""The benchmark's workloads.

Each workload enters absq only through its stable public entry points
(`cli.main`, `states.DensityMatrix`, `classify.classification_report`,
`bloch.decompose_tripartite`, `classify.marginal_acre2nn`), looked up on
the module at call time so that a traced run sees its wrappers.

Interface used by run.py:
    setup()                 make the inputs from the seed (repeatable)
    round()                 list of (op_id, callable) making one whole round
    capture(op_id, result)  (hashable key, payload) of the op's output, taken
                            after the op's timer; equal keys are checked once
    check(op_id, payload)   raise checks.CheckError on a wrong output
"""

from __future__ import annotations

import dataclasses
import functools
import math
from pathlib import Path

import numpy as np

import checks

TABLE2_POINTS = 51
SWAP_RESOLUTION = 4
SWAP_SAMPLE = 16          # rows checked per family, chosen from the seed
SWAP_P2 = "0.705882"      # the CLI defaults, passed explicitly for the checker
SWAP_P4 = "0.714286"
ALPHAS = (0.5, 2.0)


def exact_key(value):
    """Hashable form of an op's result that is equal only for equal results."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(exact_key(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return tuple((k, exact_key(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(exact_key(v) for v in value)
    return value


class CliWorkload:
    """An op is a fixed sequence of `absq` CLI invocations; its output is
    the bytes of the CSVs they write."""

    def __init__(self, absq, workdir: Path, seed: int):
        self.absq = absq
        self.seed = seed
        self.commands: list[list[str]] = []
        self.outputs: list[Path] = []

    def setup(self) -> None:
        pass

    def round(self):
        return [(0, self.op)]

    def op(self) -> None:
        for argv in self.commands:
            code = self.absq.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"absq {' '.join(argv)} exited with {code}")

    def capture(self, op_id, result):
        data = tuple(path.read_bytes() for path in self.outputs)
        return data, data

    def check(self, op_id, data) -> None:
        self.check_texts([b.decode("utf-8") for b in data])

    def check_texts(self, texts) -> None:
        raise NotImplementedError


class Tables(CliWorkload):
    """table2 on a reduced grid, then table3, then table4."""

    def __init__(self, absq, workdir, seed):
        super().__init__(absq, workdir, seed)
        self.outputs = [workdir / f"table{k}.csv" for k in (2, 3, 4)]
        t2, t3, t4 = (str(p) for p in self.outputs)
        self.commands = [
            ["table2", "--points", str(TABLE2_POINTS), "--out", t2],
            ["table3", "--out", t3],
            ["table4", "--out", t4],
        ]

    def kraus(self, name: str, p: float):
        return [np.asarray(k) for k in self.absq.channels.make_channel(name, p).kraus_ops]

    def check_texts(self, texts) -> None:
        checks.check_table2(texts[0], self.kraus)
        checks.check_table3(texts[1])
        checks.check_table4(texts[2])


class SwapScan(CliWorkload):
    """swap-scan on both families at a small resolution."""

    FAMILIES = (("global-depolarizing", "--p2", SWAP_P2), ("amplitude-damping", "--p4", SWAP_P4))

    def __init__(self, absq, workdir, seed):
        super().__init__(absq, workdir, seed)
        self.outputs = [workdir / f"{family}.csv" for family, _, _ in self.FAMILIES]
        self.commands = [
            ["swap-scan", "--family", family, "--resolution", str(SWAP_RESOLUTION), flag, value,
             "--out", str(out)]
            for (family, flag, value), out in zip(self.FAMILIES, self.outputs)
        ]

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = SWAP_RESOLUTION**3
        self.samples = [sorted(rng.choice(n, size=min(SWAP_SAMPLE, n), replace=False).tolist())
                        for _ in self.FAMILIES]

    def check_texts(self, texts) -> None:
        for text, (family, _, value), sample in zip(texts, self.FAMILIES, self.samples):
            checks.check_swap_scan(text, family, SWAP_RESOLUTION, float(value), sample)


# ------------------------------------------------------------ classify pool

# (local dimension, spectrum kind, count) per round; "3q" is three qubits,
# classified through its Bloch marginals.  An op's cost is set by the
# dimension and the spectrum: degenerate ones (isotropic, depolarized
# Schmidt) take few Jacobi rotations, generic ones (full rank, rank n/2)
# many.  The counts put the median op in the middle of the full-rank 4x4
# reports and the 90th percentile in the middle of the full-rank 16x16
# ones, so neither quantile sits where two kinds of op meet.
POOL = (
    (2, "isotropic", 4), (2, "depolarized-schmidt", 4), (2, "full-rank", 16), (2, "rank-deficient", 2),
    (3, "isotropic", 1), (3, "depolarized-schmidt", 1), (3, "full-rank", 4), (3, "rank-deficient", 3),
    (4, "isotropic", 2), (4, "depolarized-schmidt", 2), (4, "full-rank", 12), (4, "rank-deficient", 3),
    ("3q", "full-rank", 3), ("3q", "rank-deficient", 3),
)


def haar_unitary(n: int, rng) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def unrotated_state(n: int, d: int, kind: str, rng) -> np.ndarray:
    """A density matrix of the given spectrum kind, before any rotation."""
    if kind == "isotropic":
        beta = rng.uniform(-1.0 / (n - 1), 1.0)
        phi = np.eye(d).reshape(n) / math.sqrt(d)
        return beta * np.outer(phi, phi) + (1.0 - beta) * np.eye(n) / n
    if kind == "depolarized-schmidt":
        coeffs = np.sqrt(rng.dirichlet(np.ones(d)))
        psi = np.diag(coeffs).reshape(n)
        p = rng.uniform()
        return p * np.outer(psi, psi) + (1.0 - p) * np.eye(n) / n
    rank = n if kind == "full-rank" else n // 2
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


class Classify:
    """One op classifies one state of a seeded pool of Haar-rotated states;
    a round visits the whole pool in a seeded order."""

    def __init__(self, absq, workdir, seed):
        self.absq = absq
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.pool = []
        for dim, kind, count in POOL:
            d, dims = (2, (2, 2, 2)) if dim == "3q" else (dim, (dim, dim))
            n = int(np.prod(dims))
            for _ in range(count):
                m0 = unrotated_state(n, d, kind, rng)
                u = haar_unitary(n, rng)
                rotated = u @ m0 @ u.conj().T
                rotated = (rotated + rotated.conj().T) / 2.0
                rho = self.absq.states.DensityMatrix(rotated, dims)
                self.pool.append((rho, m0, rotated, d, len(dims) == 3))
        self.order = rng.permutation(len(self.pool)).tolist()

    def round(self):
        return [(i, functools.partial(self.op, i)) for i in self.order]

    def op(self, i):
        rho, _, _, _, tripartite = self.pool[i]
        if tripartite:
            bt = self.absq.bloch.decompose_tripartite(rho)
            return bt, {pair: self.absq.classify.marginal_acre2nn(bt, pair) for pair in checks.PAIRS}
        return self.absq.classify.classification_report(rho, ALPHAS)

    def capture(self, op_id, result):
        return exact_key(result), result

    def check(self, i, result) -> None:
        _, m0, rotated, d, tripartite = self.pool[i]
        if tripartite:
            checks.check_marginals(result[0], result[1], rotated)
        else:
            checks.check_report(result, m0, d, ALPHAS)


WORKLOADS = {"tables": Tables, "swap-scan": SwapScan, "classify": Classify}
