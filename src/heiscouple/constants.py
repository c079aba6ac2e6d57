"""Shared numeric tolerances and defaults, kept in one place on purpose.

Tightening or loosening a gate should be a one-line diff that reviewers can
see, not a hunt through call sites.
"""

# algebraic identities (group ops are exact arithmetic up to roundoff)
ALGEBRA_TOL = 1e-12

# matrix lemmas: orthonormality of frames, PSD completion, basis changes
MATRIX_TOL = 1e-10

# eigenvalues of I - J J^T may dip this far below zero before we call the
# input invalid rather than clipping
PSD_CLIP = 1e-12

# step-level guard rails for the schemes; excursions beyond these are counted
# as clamps (boundary absorptions are events, not clamps)
CLAMP_TOL = 1e-9
MAX_CLAMP_FRACTION = 1e-4

# default time step for the Euler schemes
DEFAULT_DT = 1e-3

# KS gates in the experiments reject below this p-value
KS_PVALUE_MIN = 1e-3

# Kendall-policy defaults (hysteresis thresholds, see coupling.kendall_policy)
KENDALL_KAPPA = 1.0
KENDALL_EPSILON = 0.5

# success threshold for the adaptive contraction experiment
KENDALL_SUCCESS_DH = 1e-3

# RNG blocking: paths are carved into blocks of this size, each with its own
# counter-based stream keyed (seed, block index).  A thread steps one
# contiguous group of whole blocks as one array, each block's rows drawn from
# its own stream, so output is independent of thread count
RNG_BLOCK = 1024
