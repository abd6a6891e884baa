"""Membership predicates for the absolute classes, each returning the
boolean together with the scalar witness it compared.

All threshold comparisons are inclusive with a small guard band, so exact
boundary states classify as members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .bloch import BlochBipartite, BlochTripartite, _norm2, pair_tensors
from .entropy import _per_spectrum, check_alpha, spectrum_entropy, spectrum_power, spectrum_renyi
from .linalg import eigvals_hermitian
from .states import DensityMatrix, _local_dim
from .tolerances import CLASS_MARGIN


def _verdict(witness, sense: str, bound):
    """(verdict, witness) for the class comparison witness >= bound or
    witness <= bound, as sense says, inclusive with the CLASS_MARGIN guard
    band; every class verdict is made here."""
    if sense == ">=":
        return witness >= bound - CLASS_MARGIN, witness
    return witness <= bound + CLASS_MARGIN, witness


# Spectrum-level verdicts: eigs is the non-increasing spectrum of a d x d
# state, or a stack (..., d*d) of them, and each verdict and witness is then
# an array over the leading axes.  The public predicates,
# classification_report and the swapping grid share them.


def _afef(eigs: np.ndarray, d: int) -> tuple[bool, float]:
    return _verdict(_per_spectrum(eigs[..., 0]), "<=", 1.0 / d)


def _acvenn(eigs: np.ndarray, d: int) -> tuple[bool, float]:
    return _verdict(spectrum_entropy(eigs), ">=", math.log2(d))


def _acrenn(eigs: np.ndarray, d: int, alpha: float) -> tuple[bool, float]:
    # decided on S_alpha >= log2 d, which stays finite where Tr rho^alpha and
    # d^(1 - alpha) both fall below the guard band; Tr rho^alpha is the witness
    return _verdict(spectrum_renyi(eigs, alpha), ">=", math.log2(d))[0], spectrum_power(eigs, alpha)


def _acre2nn(eigs: np.ndarray, d: int) -> tuple[bool, float]:
    return _verdict(spectrum_power(eigs, 2), "<=", 1.0 / d)


def is_afef(rho: DensityMatrix) -> tuple[bool, float]:
    """Absolute fully-entangled-fraction class: lambda_max <= 1/d."""
    d = _local_dim(rho)
    return _afef(eigvals_hermitian(rho.matrix), d)


def is_acvenn(rho: DensityMatrix) -> tuple[bool, float]:
    """Absolute nonnegative conditional von Neumann entropy: S >= log2 d."""
    d = _local_dim(rho)
    return _acvenn(eigvals_hermitian(rho.matrix), d)


def is_acrenn(rho: DensityMatrix, alpha: float) -> tuple[bool, float]:
    """Absolute nonnegative conditional Renyi entropy, order alpha.

    Membership means S_alpha >= log2 d (entropy.spectrum_renyi), that is
    Tr(rho^alpha) >= d^(1-alpha) for alpha < 1 and <= d^(1-alpha) for
    alpha > 1; the witness is Tr(rho^alpha).
    """
    check_alpha(alpha)
    d = _local_dim(rho)
    return _acrenn(eigvals_hermitian(rho.matrix), d, alpha)


def is_acre2nn(rho: DensityMatrix) -> tuple[bool, float]:
    """Order-2 case reduces to purity: Tr(rho^2) <= 1/d."""
    d = _local_dim(rho)
    return _acre2nn(eigvals_hermitian(rho.matrix), d)


def acre2nn_bloch(bb: BlochBipartite) -> tuple[bool, float]:
    """Purity criterion restated on Bloch data:
    ||T||^2 <= (d^2 (d - 1) - 2d (||a||^2 + ||b||^2)) / 4."""
    d = bb.d
    bound = (d * d * (d - 1) - 2 * d * (_norm2(bb.a) + _norm2(bb.b))) / 4.0
    return _verdict(_norm2(bb.t), "<=", bound)


def marginal_acre2nn(bt: BlochTripartite, pair: str) -> tuple[bool, float]:
    """Same criterion for a two-party marginal of a tripartite state:
    ||T_xy||^2 <= (4(d - 1) - 2 m d) / d^2 with m = ||T_x||^2 + ||T_y||^2."""
    tx, ty, txy = pair_tensors(bt, pair)
    d = bt.d
    bound = (4.0 * (d - 1) - 2.0 * (_norm2(tx) + _norm2(ty)) * d) / (d * d)
    return _verdict(_norm2(txy), "<=", bound)


@dataclass
class ClassificationReport:
    """All membership verdicts for one state, with their witnesses."""

    afef: bool
    lambda_max: float
    acvenn: bool
    entropy_bits: float
    acre2nn: bool
    purity: float
    acrenn: dict = field(default_factory=dict)  # alpha -> (bool, Tr rho^alpha)
    thresholds: dict = field(default_factory=dict)


def classification_report(rho: DensityMatrix, alphas=(0.5, 2.0)) -> ClassificationReport:
    """Every verdict for one state, all read off a single spectrum."""
    d = _local_dim(rho)
    eigs = eigvals_hermitian(rho.matrix)
    afef, lam = _afef(eigs, d)
    acv, s = _acvenn(eigs, d)
    ac2, pur = _acre2nn(eigs, d)
    report = ClassificationReport(
        afef=afef,
        lambda_max=lam,
        acvenn=acv,
        entropy_bits=s,
        acre2nn=ac2,
        purity=pur,
        thresholds={
            "lambda_max": 1.0 / d,
            "entropy_bits": math.log2(d),
            "purity": 1.0 / d,
        },
    )
    for alpha in alphas:
        check_alpha(alpha)
        report.acrenn[alpha] = _acrenn(eigs, d, alpha)
        report.thresholds[f"trace_power[{alpha:g}]"] = d ** (1.0 - alpha)
    return report
