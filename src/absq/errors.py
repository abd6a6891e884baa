"""Exception types shared across the package.

Every absq exception derives from AbsqError, which is a ValueError, so a
caller can catch the package's failures in one clause.
"""


class AbsqError(ValueError):
    """Base of every exception absq raises on purpose."""


class UsageError(AbsqError):
    """A request the command line refuses; the CLI exits 2 on it, 1 on any other."""


class NotHermitian(AbsqError):
    """Matrix fails the Hermiticity check."""


class InvalidState(AbsqError):
    """Matrix is not a density matrix: a non-finite entry, a trace other
    than one, or an eigenvalue below the PSD floor."""


class DimensionMismatch(AbsqError):
    """Operands have incompatible shapes or subsystem dimensions."""


class OutOfRange(AbsqError):
    """Parameter outside its admissible interval."""


class NotNormalized(AbsqError):
    """State-vector amplitudes do not square-sum to one."""


class CompletenessViolation(AbsqError, RuntimeError):
    """Kraus operators do not resolve the identity."""


class NotConverged(AbsqError, RuntimeError):
    """The eigensolver did not converge."""


class AlphaOutOfDomain(AbsqError):
    """Renyi order outside (0, 1) | (1, inf)."""


class SumMismatch(AbsqError):
    """Vectors compared under majorization have different totals."""


class NoSignChange(AbsqError):
    """Bisection bracket does not straddle the target."""
