"""Independent checks of absq's outputs, written with numpy and scipy only.

Each check recomputes what the program reported by another route (closed
forms, brentq, an einsum Bell projection, eigvalsh) and raises CheckError
on the first disagreement.  Nothing here calls absq; the one input taken
from the program on purpose is the Kraus operators of a table2 channel,
passed in as `kraus(name, p)`, so that the boundary check follows whatever
parameterization the program uses.
"""

from __future__ import annotations

import math

import numpy as np

# The program's inclusive guard band and outcome floor, restated.
CLASS_MARGIN = 1e-12
PROB_FLOOR = 1e-12

PAPER_TOL = 1e-6      # table2 cells against the paper's values
EDGE = 1e-6           # table2 endpoints must straddle within +-EDGE
LAMBDA_TOL = 1e-6     # table3/table4 endpoints against brentq
ENTROPY_TOL = 1e-6    # swap-scan entropies; CSV coordinates carry 9 digits
WITNESS_TOL = 1e-9    # classify witnesses against the unrotated matrix
# Rounding moves a zero eigenvalue by up to about this much, which moves
# Tr rho^alpha (alpha < 1) by up to ZERO_EIG**alpha per zero eigenvalue.
ZERO_EIG = 1e-14


class CheckError(Exception):
    """An output of the program disagrees with its independent check."""


def _csv(text: str, header: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(header):
        raise CheckError(f"header {lines[:1]} != {header}")
    return [line.split(",") for line in lines[1:]]


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not abs(got - want) <= tol:
        raise CheckError(f"{what}: got {got!r}, expected {want!r} within {tol:g}")


def entropy_bits(eigs) -> float:
    pos = np.asarray(eigs, dtype=float)
    pos = pos[pos > 0]
    return float(-np.sum(pos * np.log2(pos)))


# ---------------------------------------------------------------- table2

TABLE2_HEADER = ["channel", "criterion", "sides", "empty", "lo", "hi",
                 "ref_lo", "ref_hi", "delta_lo", "delta_hi"]
TABLE2_LAYOUT = [
    (channel, crit, sides)
    for channel, sides in (("bit_flip", 2), ("phase_flip", 2), ("depolarizing", 2),
                           ("depolarizing", 1), ("phase_damping", 2))
    for crit in ("ac", "af")
]
# The paper's table 2, minus the depolarizing row (not reproduced).
PAPER_TABLE2 = {
    ("bit_flip", "ac"): (0.0890506, 0.910949),
    ("bit_flip", "af"): (0.378732, 0.621268),
    ("phase_flip", "ac"): (0.0545493, 0.945451),
    ("phase_flip", "af"): (0.333333, 0.666667),
    ("phase_damping", "ac"): (0.206295, 1.0),
    ("phase_damping", "af"): (0.888889, 1.0),
}
TABLE2_THRESHOLD = {"ac": 1.0, "af": 0.5}


def acin_matrix(lam: float = 0.9, theta: float = math.pi / 4) -> np.ndarray:
    s, c = math.sin(theta), math.cos(theta)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = (1.0 - lam) / 2.0
    m[1, 1] = lam * s * s
    m[2, 2] = lam * c * c
    m[1, 2] = m[2, 1] = lam * s * c
    return m


def table2_witness(kraus, channel: str, sides: int, crit: str, p: float) -> float:
    """Entropy (ac) or largest eigenvalue (af) of the base state after the
    channel on both qubits (sides 2) or on the first only (sides 1)."""
    base = acin_matrix()
    ops_a = kraus(channel, p)
    ops_b = ops_a if sides == 2 else kraus(channel, 0.0)
    rho = np.zeros((4, 4), dtype=complex)
    for ka in ops_a:
        for kb in ops_b:
            k = np.kron(ka, kb)
            rho += k @ base @ k.conj().T
    eigs = np.linalg.eigvalsh(rho)
    return entropy_bits(eigs) if crit == "ac" else float(eigs[-1])


def check_table2(text: str, kraus) -> None:
    rows = _csv(text, TABLE2_HEADER)
    layout = [(r[0], r[1], int(r[2])) for r in rows]
    if layout != TABLE2_LAYOUT:
        raise CheckError(f"table2 rows {layout} != {TABLE2_LAYOUT}")
    for row in rows:
        channel, crit, sides, empty = row[0], row[1], int(row[2]), row[3]
        lo, hi = float(row[4]), float(row[5])
        paper = PAPER_TABLE2.get((channel, crit))
        if paper is not None:
            if empty != "false":
                raise CheckError(f"table2 {channel}/{crit} is empty")
            _close(lo, paper[0], PAPER_TOL, f"table2 {channel}/{crit} lo")
            _close(hi, paper[1], PAPER_TOL, f"table2 {channel}/{crit} hi")
        if empty == "true":
            continue
        target = TABLE2_THRESHOLD[crit]
        for x in (lo, hi):
            if not 0.0 < x < 1.0:
                continue
            below = table2_witness(kraus, channel, sides, crit, max(x - EDGE, 0.0)) - target
            above = table2_witness(kraus, channel, sides, crit, min(x + EDGE, 1.0)) - target
            if below * above > 0:
                raise CheckError(
                    f"table2 {channel}/{crit}/{sides} endpoint {x!r} is no boundary: "
                    f"witness - threshold is {below:.3e} and {above:.3e} at +-{EDGE:g}"
                )


# ---------------------------------------------------------- table3, table4

def isotropic_spectrum(d: int, beta: float) -> tuple[float, float, int]:
    """(top eigenvalue, other eigenvalue, its multiplicity) of
    beta |Phi+><Phi+| + (1 - beta) I / d^2."""
    n = d * d
    return (1.0 + beta * (n - 1)) / n, (1.0 - beta) / n, n - 1


def _depolarized_iso(d: int, beta: float, lam: float):
    # (1 - lam) iso(beta) + lam I/d^2 is iso((1 - lam) beta).
    return isotropic_spectrum(d, (1.0 - lam) * beta)


def iso_entropy(d: int, beta: float, lam: float) -> float:
    top, rest, mult = _depolarized_iso(d, beta, lam)
    return entropy_bits([top]) + mult * entropy_bits([rest])


def flat_series(d: int, beta: float, lam: float, terms: int) -> float:
    """sum_k g(k)/k with g(k) = 1 - k R_2 + k R_3 - ... + (-1)^(k-1) k R_k
    + (-1)^k R_(k+1), R_n = Tr rho^n from the closed-form spectrum."""
    top, rest, mult = _depolarized_iso(d, beta, lam)
    r = {n: top**n + mult * rest**n for n in range(1, terms + 2)}
    total = 0.0
    for k in range(1, terms + 1):
        g = 1.0 + (-1) ** k * r[k + 1]
        g += sum((-1) ** m * k * r[m + 1] for m in range(1, k))
        total += g / k
    return total


def _brentq(f) -> float:
    # imported here so that scipy is not resident while ops are measured
    from scipy.optimize import brentq

    return brentq(f, 0.0, 1.0, xtol=1e-14)


def table3_boundary(d: int, beta: float = 0.8) -> float:
    return _brentq(lambda lam: iso_entropy(d, beta, lam) - math.log2(d))


def table4_boundary(d: int, terms: int = 10) -> float:
    return _brentq(lambda lam: flat_series(d, 1.0, lam, terms) - math.log2(d))


def check_table3(text: str) -> None:
    rows = _csv(text, ["d", "beta", "lambda_lo", "ref", "delta"])
    if [int(r[0]) for r in rows] != [2, 3, 4, 5]:
        raise CheckError(f"table3 dimensions {[r[0] for r in rows]}")
    for row in rows:
        d = int(row[0])
        _close(float(row[1]), 0.8, 1e-12, f"table3 d={d} beta")
        _close(float(row[2]), table3_boundary(d), LAMBDA_TOL, f"table3 d={d} lambda")


def check_table4(text: str, terms: int = 10) -> None:
    rows = _csv(text, ["d", "beta_lo", "beta_hi", "lambda_lo", "ref", "delta"])
    if [int(r[0]) for r in rows] != [3, 4, 5, 6]:
        raise CheckError(f"table4 dimensions {[r[0] for r in rows]}")
    for row in rows:
        d = int(row[0])
        _close(float(row[1]), -1.0 / (d * d - 1), 1e-9, f"table4 d={d} beta_lo")
        _close(float(row[2]), 1.0, 1e-12, f"table4 d={d} beta_hi")
        _close(float(row[3]), table4_boundary(d, terms), LAMBDA_TOL, f"table4 d={d} lambda")


# -------------------------------------------------------------- swap-scan

SWAP_HEADER = {
    "global-depolarizing": ["p1", "theta1", "theta2"],
    "amplitude-damping": ["p1", "p2", "p3"],
}
SWAP_TAIL = ["S_ab", "S_bc", "S00", "S01", "S10", "S11", "success"]
# Bell vectors psi+, psi-, phi+, phi- on (B1, B2) as 2x2 amplitude arrays.
BELL = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]]) / math.sqrt(2)


def depolarized_schmidt_matrix(theta: float, p: float) -> np.ndarray:
    psi = np.zeros(4)
    psi[0], psi[3] = math.cos(theta), math.sin(theta)
    return p * np.outer(psi, psi) + (1.0 - p) * np.eye(4) / 4.0


def depolarized_schmidt_spectrum(p: float) -> list[float]:
    return [(1.0 + 3.0 * p) / 4.0] + [(1.0 - p) / 4.0] * 3


def amplitude_damped_matrix(p: float, q: float) -> np.ndarray:
    """(|00> + |11>)/sqrt2 after amplitude damping p on A and q on B."""
    m = np.zeros((4, 4))
    c = math.sqrt((1.0 - p) * (1.0 - q))
    m[0, 0] = 1.0 + p * q
    m[0, 3] = m[3, 0] = c
    m[3, 3] = (1.0 - p) * (1.0 - q)
    m[1, 1] = p * (1.0 - q)
    m[2, 2] = (1.0 - p) * q
    return m / 2.0


def amplitude_damped_spectrum(p: float, q: float) -> list[float]:
    a, b = 1.0 + p * q, (1.0 - p) * (1.0 - q)
    mid, half = (a + b) / 2.0, math.sqrt(((a - b) / 2.0) ** 2 + b)
    return [(mid + half) / 2.0, (mid - half) / 2.0, p * (1.0 - q) / 2.0, (1.0 - p) * q / 2.0]


def bell_conditionals(rho_ab: np.ndarray, rho_bc: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Outcome probabilities and conditional entropies (nan below the
    floor) of a Bell measurement on (B1, B2) of rho_ab (x) rho_bc."""
    ab = rho_ab.reshape(2, 2, 2, 2)   # a, b1, a', b1'
    bc = rho_bc.reshape(2, 2, 2, 2)   # b2, c, b2', c'
    sigma = np.einsum("kxy,axAz,ycwC,kzw->kacAC", BELL, ab, bc, BELL).reshape(4, 4, 4)
    probs = np.real(np.trace(sigma, axis1=1, axis2=2))
    entropies = [
        entropy_bits(np.linalg.eigvalsh(s / pr)) if pr > PROB_FLOOR else math.nan
        for s, pr in zip(sigma, probs)
    ]
    return probs, entropies


def expected_success(s_ab: float, s_bc: float, conds) -> tuple[bool, bool]:
    """(retrieval success, whether a quantity sits within ENTROPY_TOL of
    the threshold 1 so that either flag is accepted)."""
    values = [s_ab, s_bc] + [c for c in conds if not math.isnan(c)]
    ambiguous = any(abs(v - 1.0) <= ENTROPY_TOL for v in values)
    inside = s_ab >= 1.0 - CLASS_MARGIN and s_bc >= 1.0 - CLASS_MARGIN
    return inside and any(c < 1.0 - CLASS_MARGIN for c in conds if not math.isnan(c)), ambiguous


def check_swap_scan(text: str, family: str, resolution: int, fixed: float, sample) -> None:
    """Row count r^3; on the sampled rows, S_ab and S_bc against closed-form
    spectra, S00..S11 against an einsum Bell projection, and the success
    flag derived again from those entropies."""
    rows = _csv(text, SWAP_HEADER[family] + SWAP_TAIL)
    if len(rows) != resolution**3:
        raise CheckError(f"swap-scan {family}: {len(rows)} rows, expected {resolution**3}")
    for i in sample:
        row = rows[i]
        x1, x2, x3 = (float(v) for v in row[:3])
        if family == "global-depolarizing":
            rho_ab, spec_ab = depolarized_schmidt_matrix(x2, x1), depolarized_schmidt_spectrum(x1)
            rho_bc, spec_bc = depolarized_schmidt_matrix(x3, fixed), depolarized_schmidt_spectrum(fixed)
        else:
            rho_ab, spec_ab = amplitude_damped_matrix(x1, x2), amplitude_damped_spectrum(x1, x2)
            rho_bc, spec_bc = amplitude_damped_matrix(x3, fixed), amplitude_damped_spectrum(x3, fixed)
        where = f"swap-scan {family} row {i}"
        s_ab, s_bc = entropy_bits(spec_ab), entropy_bits(spec_bc)
        _close(float(row[3]), s_ab, ENTROPY_TOL, f"{where} S_ab")
        _close(float(row[4]), s_bc, ENTROPY_TOL, f"{where} S_bc")
        _, conds = bell_conditionals(rho_ab, rho_bc)
        for label, got, want in zip(("S00", "S01", "S10", "S11"), row[5:9], conds):
            got = float(got)
            if math.isnan(want) or math.isnan(got):
                if not (math.isnan(want) and math.isnan(got)):
                    raise CheckError(f"{where} {label}: got {got!r}, expected {want!r}")
            else:
                _close(got, want, ENTROPY_TOL, f"{where} {label}")
        success, ambiguous = expected_success(s_ab, s_bc, conds)
        if row[9] not in ("true", "false"):
            raise CheckError(f"{where} success flag {row[9]!r}")
        if not ambiguous and (row[9] == "true") != success:
            raise CheckError(f"{where} success flag {row[9]}, expected {str(success).lower()}")


# --------------------------------------------------------------- classify

def _verdict(name: str, got: bool, member: bool, witness: float, threshold: float, tol: float) -> None:
    if got != member and abs(witness - threshold) > CLASS_MARGIN + tol:
        raise CheckError(f"{name} verdict {got}, expected {member} "
                         f"(witness {witness!r}, threshold {threshold!r})")


def check_report(report, unrotated: np.ndarray, d: int, alphas) -> None:
    """Witnesses of a classification report against eigvalsh of the state
    before its Haar rotation, so every verdict must be rotation invariant.
    Either verdict is accepted within CLASS_MARGIN plus the witness's
    tolerance of its threshold."""
    eigs = np.linalg.eigvalsh(unrotated)
    pos = np.clip(eigs, 0.0, None)
    lam_max, s, purity = float(eigs[-1]), entropy_bits(eigs), float(np.sum(pos**2))
    _close(report.lambda_max, lam_max, WITNESS_TOL, "lambda_max")
    _close(report.entropy_bits, s, WITNESS_TOL, "entropy_bits")
    _close(report.purity, purity, WITNESS_TOL, "purity")
    _verdict("afef", report.afef, lam_max <= 1.0 / d, lam_max, 1.0 / d, WITNESS_TOL)
    _verdict("acvenn", report.acvenn, s >= math.log2(d), s, math.log2(d), WITNESS_TOL)
    _verdict("acre2nn", report.acre2nn, purity <= 1.0 / d, purity, 1.0 / d, WITNESS_TOL)
    zeros = int(np.sum(eigs < ZERO_EIG))
    for alpha in alphas:
        ok, witness = report.acrenn[alpha]
        want = float(np.sum(pos[pos > ZERO_EIG] ** alpha))
        tol = WITNESS_TOL + (zeros * ZERO_EIG**alpha if alpha < 1 else 0.0)
        _close(witness, want, tol, f"trace_power[{alpha:g}]")
        bound = d ** (1.0 - alpha)
        member = want >= bound if alpha < 1 else want <= bound
        _verdict(f"acrenn[{alpha:g}]", ok, member, want, bound, tol)


PAIRS = {"12": ("t1", "t2", "t12", 2), "13": ("t1", "t3", "t13", 1), "23": ("t2", "t3", "t23", 0)}


def marginal_purity(matrix: np.ndarray, traced_out: int) -> float:
    """Tr(rho_xy^2) of a three-qubit state with one qubit traced out."""
    t = matrix.reshape([2] * 6)
    spec = {0: "iabicd->abcd", 1: "aibcid->abcd", 2: "abicdi->abcd"}[traced_out]
    m = np.einsum(spec, t).reshape(4, 4)
    return float(np.real(np.trace(m @ m)))


def check_marginals(bloch, verdicts: dict, matrix: np.ndarray) -> None:
    """For each pair: the Bloch-data purity 1/d^2 + (|t_x|^2 + |t_y|^2)/(2d)
    + |t_xy|^2/4 must equal the partial-trace purity, the reported witness
    must be |t_xy|^2, and the verdict must be purity <= 1/d."""
    d = 2
    for pair, (x, y, xy, traced_out) in PAIRS.items():
        tx, ty, txy = (np.asarray(getattr(bloch, f)) for f in (x, y, xy))
        norm_xy = float(np.sum(txy * txy))
        from_bloch = 1.0 / d**2 + (float(tx @ tx) + float(ty @ ty)) / (2 * d) + norm_xy / 4.0
        direct = marginal_purity(matrix, traced_out)
        _close(from_bloch, direct, WITNESS_TOL, f"marginal {pair} purity")
        ok, witness = verdicts[pair]
        _close(witness, norm_xy, WITNESS_TOL, f"marginal {pair} witness")
        _verdict(f"marginal {pair} acre2nn", ok, direct <= 1.0 / d, direct, 1.0 / d, WITNESS_TOL / 4)
