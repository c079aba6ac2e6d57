"""Shared numeric tolerances and defaults, kept in one place on purpose.

Tightening or loosening a gate should be a one-line diff that reviewers can
see, not a hunt through call sites.
"""

import math

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

# adaptive contraction runner (simulate.kendall_success_times): success
# threshold, cap on the reflection-phase step, and guard on phase updates
KENDALL_SUCCESS_DH = 1e-3
KENDALL_DT_CAP = 0.05
KENDALL_MAX_ITERS = 20_000_000

# RNG blocking: paths are carved into blocks of this size, each with its own
# counter-based stream keyed (seed, block index).  A thread steps one
# contiguous group of whole blocks as one array, each block's rows drawn from
# its own stream, so output is independent of thread count
RNG_BLOCK = 1024

# exact reflection runner: a step of R/2 from r/2 to rn/2 > 0 over dt crossed 0
# with probability exp(-x), x = r rn / (2 dt).  Past x = 53 ln 2 that is below
# 2**-53, the smallest nonzero value of a 53-bit uniform u in [0, 1), so the rule
# "hit iff u < exp(-x)" can then only fire on u == 0.0.  The runner draws no u
# there and calls the step a miss, changing the law by at most 2**-53 per
# step.  Derived from the uniform's resolution, not a tuning knob.
CROSSING_CUT = 53.0 * math.log(2.0)
