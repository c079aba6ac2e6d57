"""Shared numeric tolerances and defaults, kept in one place on purpose.

Tightening or loosening a gate should be a one-line diff that reviewers can
see, not a hunt through call sites.  Every pass threshold an experiment check
applies has one name here: ALGEBRA_TOL, MATRIX_TOL and KS_PVALUE_MIN, and the
gate block after KS_PVALUE_MIN.  `experiments` writes each check's pass
expression from these names, with no numeric literal but 0 and 1.
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

# the other experiment gates.  A Monte Carlo check passes within SIGMA_GATE
# standard errors.  The blow-up gate is one-sided, ratio + 3 sigma > 10,
# because for reflection the true ratio at T=100 sits essentially on the
# threshold itself
SIGMA_GATE = 3.0
# no co-adapted coupling keeps E d_H^2 bounded: from t = 1 to the horizon it
# grows by an order of magnitude, and so does static-baseline's cost per unit
# offset from offset 1 to its smallest offset
BLOWUP_RATIO_MIN = 10.0
SUCCESS_FRACTION_MIN = 0.8  # kendall-success, final fraction coupled
# reflection: E|Z| grows like t^(1/2) and E|Z|^(1/4) stays flat (fitted
# log-log slopes); the translation baseline's cost grows like offset^(1/2)
EXPONENT_P1_BAND = (0.40, 0.60)
EXPONENT_P025_BAND = (-0.07, 0.07)
BASELINE_SLOPE_BAND = (0.4, 0.6)
TAU_KS_MAX = 0.01  # reflection-hitting, KS statistic of the absorbed times
COST_SPREAD_MAX = 3.0  # static-ratio, max/min cost per unit offset
QUADRATURE_TOL = 1e-8  # mg-lemma, a_p against quadrature
# excursion-moments' rejection oracle, in units of 1/m on its coarse grid:
# the next-order O(1/m) discretization allowance left after Richardson
# extrapolation of the ~1/sqrt(m) positivity bias
EXCURSION_BIAS_ALLOWANCE = 2.0

# Kendall-policy defaults (hysteresis thresholds, see coupling.kendall_policy)
KENDALL_KAPPA = 1.0
KENDALL_EPSILON = 0.5

# adaptive contraction runner (simulate.kendall_success_times): success
# threshold, cap on the reflection-phase step, and guard on phase updates
KENDALL_SUCCESS_DH = 1e-3
KENDALL_DT_CAP = 0.05
KENDALL_MAX_ITERS = 20_000_000

# largest magnitude of an experiment config's float and list entries: the
# largest 10^(10k) at which every experiment runs with all its numbers at
# +-MAX_MAGNITUDE at once without overflow (kendall-success squares kappa r0^2).
# The static couplings accept t in STATIC_T_RANGE = (floor t must exceed,
# largest t); the time-t law's scale sigma^2 ~ t^2 stays a normal float in
# between (it underflows near t = 1e-154 and overflows near 1e154)
MAX_MAGNITUDE = 1e50
STATIC_T_RANGE = (1e-50, MAX_MAGNITUDE)

# work budget of one Euler run in an experiment config: blocks of RNG_BLOCK
# paths (a step's fixed cost dominates a narrow block, so paths count in
# whole blocks) times round(horizon / dt) steps.  Above every default (the
# blow-ups' 10240 x 10^4 ~ 1.0e8 is the largest) and every test size
PATH_STEP_BUDGET = 10**9

# RNG blocking: paths are carved into blocks of this size, each with its own
# counter-based stream keyed (seed, block index).  A thread steps one
# contiguous group of whole blocks as one array, each block's rows drawn from
# its own stream, so output is independent of thread count
RNG_BLOCK = 1024

# fewest RNG blocks per thread-pool group: a run at `threads` > 1 forms
# max(1, min(threads, n_blocks // POOL_MIN_BLOCKS)) groups.  Chosen by
# measurement, not from a benchmark size: the speedup of threads=2 over
# threads=1 for a run of two groups of this many blocks each (reflection
# policy, T = 0.3, dt = 0.01, median of 5 runs per side, 2 shared cores)
#
#     blocks per group   4      8      16     24     32
#     reduced            0.70x  1.01x  1.30x  1.23x  1.52x
#     full               0.67x  1.10x  1.35x  1.46x  1.60x
#     exact runner       0.81x  0.97x  1.23x  1.45x  1.43x
#
# Over three passes 16 blocks read 1.15-1.46x for the Euler engines and
# 0.94-1.23x for the exact runner, and 8 blocks 0.82-1.17x.  A narrower group
# loses more to the per-step cost of its numpy calls, which hold the
# interpreter lock, than its thread gains, so one constant serves every runner
POOL_MIN_BLOCKS = 16

# exact reflection runner: a step of R/2 from r/2 to rn/2 > 0 over dt crossed 0
# with probability exp(-x), x = r rn / (2 dt).  Past x = 53 ln 2 that is below
# 2**-53, the smallest nonzero value of a 53-bit uniform u in [0, 1), so the rule
# "hit iff u < exp(-x)" can then only fire on u == 0.0.  The runner draws no u
# there and calls the step a miss, changing the law by at most 2**-53 per
# step.  Derived from the uniform's resolution, not a tuning knob.
CROSSING_CUT = 53.0 * math.log(2.0)
