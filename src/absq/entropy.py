"""Entropy functionals: von Neumann, Renyi, their conditional versions,
trace powers and truncated trace-power series estimators, all read off the
spectrum through one set of spectrum-level functionals.

All values are returned in bits (log base 2) except series_estimate_flat,
which reproduces a reference surrogate and is returned raw; see its
docstring.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlphaOutOfDomain, DimensionMismatch, InvalidState, OutOfRange
from .linalg import eigvals_hermitian
from .states import DensityMatrix
from .tolerances import EIG_ZERO, ENTROPY_FLOOR, PSD_FLOOR


def _clamp(eigs: np.ndarray) -> np.ndarray:
    """Non-increasing spectra (along the last axis) with roundoff, every
    eigenvalue in [PSD_FLOOR, EIG_ZERO), mapped to exact zero, whichever
    solver wrote it.  Every spectral functional clamps here, so roundoff
    never reaches an output: a pure state's Tr rho^0.2 is 1, its entropy 0.

    Anything below PSD_FLOOR is a PSD failure upstream and is
    rejected here rather than silently fixed; the message names the first
    such spectrum's smallest eigenvalue.
    """
    eigs = np.asarray(eigs, dtype=float)
    low = eigs[..., -1]
    bad = low < PSD_FLOOR
    if bad.any():
        raise InvalidState(f"eigenvalue {low.flat[np.argmax(bad)]:.3e} below the PSD clamp floor")
    return np.where(eigs < EIG_ZERO, 0.0, eigs)


def _per_spectrum(x):
    """A reduction over the last axis: a float for one spectrum, the array
    for a stack of them."""
    return float(x) if np.ndim(x) == 0 else x


# Spectrum-level functionals: eigs is the non-increasing spectrum of a
# state, as eigvals_hermitian returns it, or a stack (..., n) of them; each
# clamps its input itself and reduces over the last axis.  The class
# predicates, the table witnesses and the swapping grid call them on
# spectra they already hold.


def spectrum_entropy(eigs: np.ndarray) -> float | np.ndarray:
    """-sum(lambda log2 lambda) over a spectrum, with 0 log 0 = 0; exactly 0
    where its magnitude is below ENTROPY_FLOOR."""
    eigs = _clamp(eigs)
    pos = eigs > 0
    # summing only the positive terms keeps the rounding of a sum over them
    terms = eigs * np.log2(np.where(pos, eigs, 1.0))
    s = -np.sum(terms, axis=-1, where=pos)
    return _per_spectrum(np.where(np.abs(s) < ENTROPY_FLOOR, 0.0, s))


def spectrum_power(eigs: np.ndarray, alpha: float) -> float | np.ndarray:
    """sum(lambda^alpha) over a spectrum, for real alpha > 0."""
    return _per_spectrum(np.sum(_clamp(eigs) ** alpha, axis=-1))


def spectrum_renyi(eigs: np.ndarray, alpha: float) -> float | np.ndarray:
    """Renyi entropy in bits, log2(sum lambda^alpha) / (1 - alpha), over a
    spectrum, for real alpha > 0 other than 1.  The log of the power sum is
    taken as alpha log2(lambda_max) + log2(sum (lambda / lambda_max)^alpha):
    each ratio is at most 1 and the largest is 1, so the sum lies in [1, n]
    and the log is finite at every finite alpha, where sum lambda^alpha
    itself underflows to 0 (alpha = 1e10 for lambda_max = 0.775)."""
    eigs = _clamp(eigs)
    top = eigs[..., :1]  # lambda_max, the first of a non-increasing spectrum
    log_power = alpha * np.log2(top[..., 0]) + np.log2(np.sum((eigs / top) ** alpha, axis=-1))
    return _per_spectrum(log_power / (1.0 - alpha))


def spectrum_series_flat(eigs: np.ndarray, terms: int) -> float | np.ndarray:
    """series_estimate_flat read off a spectrum, in one polynomial pass.

    sum_k g(k)/k is linear in the power sums: R_{m+1} enters g(m) with
    weight (-1)^m and g(m+1) ... g(T) with weight (-1)^m k, so the total is
    sum_k 1/k + sum_i P(lambda_i) with P(x) = sum_m w_m x^{m+1} and
    w_m = (-1)^m (1/m + T - m), m = 1 ... T.  np.polyval evaluates P by
    Horner's rule, one array of the spectrum's shape whatever T is.  The sum
    over the lambda_i, like the one in spectrum_entropy, runs over positive
    terms only, so zero padding drops out."""
    if terms < 1:
        raise OutOfRange(f"terms must be >= 1, got {terms}")
    eigs = _clamp(eigs)
    m = np.arange(1, terms + 1)
    coefficients = np.zeros(terms + 2)  # of x^0 ... x^{T+1}
    coefficients[2:] = (-1.0) ** m * (1.0 / m + (terms - m))
    poly = np.polyval(coefficients[::-1], eigs)
    return _per_spectrum(np.sum(1.0 / m) + np.sum(poly, axis=-1, where=eigs > 0))


def von_neumann(rho: DensityMatrix) -> float:
    """S(rho) = -sum(lambda log2 lambda), with 0 log 0 = 0."""
    return spectrum_entropy(eigvals_hermitian(rho.matrix))


def _marginal_b(rho: DensityMatrix) -> DensityMatrix:
    if len(rho.dims) != 2:
        raise DimensionMismatch(f"conditional entropy needs bipartite dims, got {rho.dims}")
    return rho.marginal([1])


def conditional_von_neumann(rho: DensityMatrix) -> float:
    """S(A|B) = S(rho_AB) - S(rho_B)."""
    return von_neumann(rho) - von_neumann(_marginal_b(rho))


def check_alpha(alpha: float) -> None:
    """Reject a Renyi order outside (0, 1) | (1, inf), NaN and inf included."""
    if not (0 < alpha < math.inf) or alpha == 1:
        raise AlphaOutOfDomain(
            f"alpha={alpha} outside (0,1)|(1,inf); use von_neumann for the alpha->1 limit"
        )


def trace_power(rho: DensityMatrix, alpha: float) -> float:
    """Tr(rho^alpha) for real alpha > 0 (integer powers included), from the
    spectrum."""
    if not (0 < alpha < math.inf):
        raise OutOfRange(f"power must be a positive finite number, got {alpha}")
    return spectrum_power(eigvals_hermitian(rho.matrix), alpha)


def renyi(rho: DensityMatrix, alpha: float) -> float:
    """Renyi entropy of order alpha: log2(Tr rho^alpha) / (1 - alpha), as
    spectrum_renyi takes it."""
    check_alpha(alpha)
    return spectrum_renyi(eigvals_hermitian(rho.matrix), alpha)


def conditional_renyi(rho: DensityMatrix, alpha: float) -> float:
    """S_alpha(A|B) = S_alpha(rho_AB) - S_alpha(rho_B)."""
    check_alpha(alpha)
    return renyi(rho, alpha) - renyi(_marginal_b(rho), alpha)


def series_estimate(rho: DensityMatrix, terms: int = 10) -> float:
    """Truncated trace-power series for the von Neumann entropy, in bits.

    The k-th term is g(k)/k with g(k) = sum_m (-1)^m C(k, m) Tr(rho^{m+1}),
    which telescopes to g(k) = sum_i lambda_i (1 - lambda_i)^k; the factored
    form is used so large-k binomials cannot cancel catastrophically.  The
    raw sum converges to S in nats and is divided by ln 2, keeping the
    result comparable against log2(d) thresholds.
    """
    if terms < 1:
        raise OutOfRange(f"terms must be >= 1, got {terms}")
    eigs = _clamp(eigvals_hermitian(rho.matrix))
    total = 0.0
    for k in range(1, terms + 1):
        total += float(np.sum(eigs * (1.0 - eigs) ** k)) / k
    return total / math.log(2.0)


def series_estimate_flat(rho: DensityMatrix, terms: int = 10) -> float:
    """Entropy-series surrogate with uniform interior coefficients.

    Every interior trace power in the k-th bracket carries coefficient k
    instead of the binomial C(k, m):

        g(k) = 1 - k R_2 + k R_3 - ... -(+) k R_k + (-1)^k R_{k+1}

    with R_n = Tr(rho^n), summed as sum_k g(k)/k and returned raw.  This is
    not a consistent entropy (it does not vanish on pure states) but it is
    the exact formula behind the reference qudit boundary table that the
    CLI reproduces, where it is compared directly against log2(d).
    """
    return spectrum_series_flat(eigvals_hermitian(rho.matrix), terms)
