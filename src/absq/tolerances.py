"""Central tolerance table.

Library code and the test suite both import these constants so that a
validation threshold is never duplicated with a different value; a test
fails on a float literal below 1e-3 anywhere else in the package.
"""

# Hermiticity: max entrywise |M - M^dagger| accepted as Hermitian.
HERMITICITY_TOL = 1e-10

# Positive semidefiniteness: smallest eigenvalue a density matrix may have.
PSD_FLOOR = -1e-9

# Spectral functionals read eigenvalues in [PSD_FLOOR, EIG_ZERO) as exact
# zeros (solver roundoff: 1e-17 ** 0.2 is 4e-4), and an entropy below
# ENTROPY_FLOOR in magnitude as exactly 0.
EIG_ZERO = 1e-14
ENTROPY_FLOOR = 1e-12

# Unit-trace check for density matrices, and for the squared norm of a ket.
TRACE_TOL = 1e-10

# Jacobi sweeps stop once the off-diagonal Frobenius norm drops below this.
JACOBI_OFFDIAG_TOL = 1e-12

# Guard band for inclusive class-membership comparisons (lambda_max <= 1/d
# and friends); boundary states classify as members.
CLASS_MARGIN = 1e-12

# Slack on the admissible range [-1/(d^2 - 1), 1] of the isotropic weight.
BETA_SLACK = 1e-12

# Bracket width at which boundary finding stops (sweep._bisection), far
# below the 9 significant digits the tables print.
BISECTION_TOL = 1e-12

# Measurement outcomes below this probability carry no conditional state.
PROB_FLOOR = 1e-12
