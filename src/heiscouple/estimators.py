"""Monte Carlo statistics, exponent fits, transport costs, reference laws.

Everything here is deterministic given its inputs (sampling helpers take
explicit seeds).  Closed forms carry their derivation in the docstring; each
one is cross-checked against an independent quadrature or brute-force oracle
in the test suite before anything downstream is allowed to trust it.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from heiscouple import group as grp
from heiscouple.constants import SIGMA_GATE
from heiscouple.simulate import _check, _check_count, _check_finite, philox_stream


def _linear_sum_assignment(cost):
    """scipy's Hungarian solve; scipy loads on first use, not on import."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


# a public module name, so perfbench's tracer times the solve apart from its caller
linear_sum_assignment = _linear_sum_assignment


def _line_assignment(x, y, cost):
    """Exact assignment of reals x to reals y for a cost concave in |x - y|.

    For such a cost some optimal matching on the line has no crossing arcs:
    uncrossing two arcs never raises it (McCann 1999; Aggarwal et al. 1995).
    Merge x (+1) and y (-1), sort, and take the running sum h.  Inside a
    non-crossing arc the counts balance, so an arc joins two points of one
    level min(h before, h after), and the points of a level alternate in
    sign.  Each level is then its own square problem, solved exactly by
    scipy (a level of one pair needs no solve); the levels together hold an
    optimal matching, the one a dense solve finds when the optimum is unique.

    Args:
        x, y: (m,) finite reals.
        cost: maps an array of distances |x_i - y_j| to costs, elementwise,
            increasing and concave.

    Returns:
        (rows, cols) as `linear_sum_assignment(cost(|x[:, None] - y[None]|))`
        returns them: rows = arange(m), x[i] goes to y[cols[i]].
    """
    m = x.shape[0]
    order = np.argsort(np.concatenate([x, y]), kind="stable")
    is_y = order >= m
    step = np.where(is_y, -1, 1)
    h = np.cumsum(step)
    level = np.minimum(h, h - step)
    # group by level: its k x's, then its k y's, each in line order
    group = np.argsort(2 * level + is_y, kind="stable")
    idx = np.where(is_y, order - m, order)[group]
    lv = level[group]
    start = np.flatnonzero(np.diff(lv, prepend=lv[0] - 1))
    size = np.diff(start, append=2 * m) // 2  # pairs per level
    cols = np.empty(m, dtype=np.intp)
    one = start[size == 1]
    cols[idx[one]] = idx[one + 1]
    for lo, k in zip(start[size > 1].tolist(), size[size > 1].tolist()):
        xi, yj = idx[lo:lo + k], idx[lo + k:lo + 2 * k]
        cols[xi] = yj[_linear_sum_assignment(cost(np.abs(x[xi, None] - y[yj])))[1]]
    return np.arange(m), cols


# largest sample `empirical_wasserstein` solves exactly (an m x m assignment)
_MAX_N = 512

# rows of the group-point distance matrix filled per `grp.quasidistance`
# call: a block's four (rows, m) temporaries stay in L2 at m = 512
_DMAT_ROWS = 64

_CHUNK_NORMALS = 2**20  # per chunk of both excursion samplers, one row at least


@dataclass
class MomentEstimate:
    time: float
    p: float
    estimate: float
    stderr: float
    n_paths: int


@dataclass
class PowerLawFit:
    exponent: float
    intercept: float       # log-prefactor: log E ~ intercept + exponent * log t
    r_squared: float
    window: tuple


def jackknife_stderr(values):
    """Delete-one jackknife stderr of the sample mean.

    For the plain mean this collapses to the classical sqrt(S^2/n); kept as
    an explicit function so every estimate states its error convention.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    if n < 2:
        return float("nan")
    return float(np.sqrt(((x - x.mean()) ** 2).sum() / (n * (n - 1))))


def _moment(v, p, time=1.0):
    """The MomentEstimate of E[v] at `time`, for the samples v of a p-th power."""
    return MomentEstimate(float(time), float(p), float(v.mean()), jackknife_stderr(v), v.size)


def _check_log_axes(t_name, t, y_name, y):
    """Raise ValueError unless t and y are 1-d of one length, finite and positive."""
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError(f"{t_name} and {y_name} must be 1-d of equal length, "
                         f"got shapes {t.shape} and {y.shape}")
    for name, x in ((t_name, t), (y_name, y)):
        bad = x.size - np.count_nonzero(np.isfinite(x) & (x > 0))
        if bad:
            raise ValueError(f"{name} must be finite and positive, got {bad} bad of {x.size} values")


def _check_distinct_times(t):
    """Raise ValueError unless t holds at least 3 distinct times.

    Two times fit either model exactly, and equal times fit neither.
    """
    distinct = np.unique(t).size
    if distinct < 3:
        raise ValueError(f"need at least 3 distinct times, got {distinct}")


def _check_not_nan(name, x):
    """Raise ValueError naming `name` if the array x holds a NaN."""
    bad = np.count_nonzero(np.isnan(x))
    if bad:
        raise ValueError(f"{name} must not be NaN, got {bad} NaN of {x.size} values")


_METRICS = ("r", "abs_z", "d_h")


def estimate_moment(ensemble, p, metric="d_h"):
    """Per-checkpoint estimates of E[metric^p] over a PathEnsemble.

    Args:
        ensemble: PathEnsemble with checkpoint arrays.
        p: moment order, 0 <= p < inf (p = 0 returns exact 1s).
        metric: "r" (horizontal separation R), "abs_z" (|Z|), or "d_h".

    Returns:
        list of MomentEstimate, one per checkpoint time.
    """
    _check(0.0 <= p < math.inf, "moment order p", p, ">= 0 and finite")
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS}")
    if ensemble.n_paths == 0:
        raise ValueError("empty ensemble")
    if metric == "r":
        vals = np.sqrt(ensemble.r2)
    elif metric == "abs_z":
        vals = np.abs(ensemble.z)
    else:
        vals = ensemble.d_h()
    return [_moment(vals[i] ** p, p, t) for i, t in enumerate(ensemble.times)]


def fit_power_law(estimates, window=None):
    """Least squares of log(estimate) on log(time).

    Args:
        estimates: list of MomentEstimate (times > 0 where used).
        window: optional (t_lo, t_hi) inclusive time window.

    Returns:
        PowerLawFit.  Raises ValueError if fewer than 3 distinct times fall
        in the window, or if a time or estimate there is not finite and
        positive.
    """
    pts = [(e.time, e.estimate) for e in estimates
           if window is None or window[0] <= e.time <= window[1]]
    t, y = np.array(pts, dtype=float).reshape(-1, 2).T
    _check_log_axes("times", t, "estimates", y)
    _check_distinct_times(t)
    lx, ly = np.log(t), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (intercept + slope * lx)
    ss_tot = ((ly - ly.mean()) ** 2).sum()
    r2 = 1.0 - float((resid**2).sum() / ss_tot) if ss_tot > 0 else 1.0
    lo = window[0] if window else float(t.min())
    hi = window[1] if window else float(t.max())
    return PowerLawFit(
        exponent=float(slope),
        intercept=float(intercept),
        r_squared=max(min(r2, 1.0), 0.0),
        window=(lo, hi),
    )


def compare_log_vs_power(times, values):
    """Residual comparison of y ~ a + b log t against y ~ A t^c.

    Both models are fitted by least squares (the power law on log-log axes)
    and compared by residual sum of squares in the original y space.  Used to
    recognise the logarithmic growth regime, where a fitted tiny power looks
    deceptively fine on log-log axes.  `times` and `values` must be 1-d of
    equal length, finite and positive, with at least 3 distinct times.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    _check_log_axes("times", t, "values", y)
    _check_distinct_times(t)
    lx = np.log(t)
    b, a = np.polyfit(lx, y, 1)
    rss_log = float(((y - (a + b * lx)) ** 2).sum())
    c, la = np.polyfit(lx, np.log(y), 1)
    rss_pow = float(((y - np.exp(la) * t**c) ** 2).sum())
    return {
        "rss_log": rss_log,
        "rss_power": rss_pow,
        "prefer_log": rss_log < rss_pow,
        "log_slope": float(b),
        "power_exponent": float(c),
    }


def _ks_sample(name, x):
    """x sorted as a float array, or ValueError unless it is 1-d, nonempty and NaN-free."""
    x = np.asarray(x, dtype=float)
    _check(x.ndim == 1 and x.size > 0, name, x.shape, "a nonempty 1-d sample")
    _check_not_nan(name, x)
    return np.sort(x)


def _kolmogorov_sf(x):
    """P(sup |B_t| > x) for a Brownian bridge B: the Kolmogorov limit law's tail.

    The two Jacobi-theta forms of the series (Marsaglia, Tsang & Wang 2003):
    1 - sqrt(2 pi) / x sum_k exp(-(2k-1)^2 pi^2 / (8 x^2)) below x = 1, and
    2 sum_k (-1)^(k-1) exp(-2 k^2 x^2) from x = 1 on, each cut where its next
    term is below 1e-20 of its first.  Below x = 0.1 the tail is 1 - 1e-52 or
    closer to 1, so it is 1.0, as it is for x <= 0.
    """
    if x < 0.1:
        return 1.0
    if x < 1.0:
        c = -(math.pi / x) ** 2 / 8.0
        s = math.exp(c) + math.exp(9.0 * c) + math.exp(25.0 * c)
        return 1.0 - math.sqrt(2.0 * math.pi) * s / x
    c = -2.0 * x * x
    return 2.0 * (math.exp(c) - math.exp(4.0 * c) + math.exp(9.0 * c) - math.exp(16.0 * c))


def ks_two_sample(x, y):
    """(d, p): the two-sided two-sample Kolmogorov-Smirnov statistic and p-value.

    d repeats the arithmetic of scipy 1.17's `ks_2samp`, so it is the same
    float.  With n = round(n1 n2 / (n1 + n2)), `ks_2samp(method="asymp")`
    returns the exact one-sample law at n, and for n > 140 and n d^2 >= 2.2
    evaluates it as p = min(1, 2 smirnov(n, d)).  p is that expression
    there and wherever n <= 140, where it agrees with scipy within 1e-6
    relative for p <= 0.02; the limit law would read the small-n tail
    several times too large.  Only this branch loads `scipy.special`.  In
    the remaining body (n > 140, n d^2 < 2.2, so p > 0.02) p is the limit
    law's tail `_kolmogorov_sf(sqrt(n) d)`, within 1.15 / sqrt(n) relative
    of scipy, in constant time where smirnov's series costs O(n).  n = 0
    (one value each) gives a NaN p.
    """
    x, y = _ks_sample("x", x), _ks_sample("y", y)
    both = np.concatenate([x, y])
    diff = (np.searchsorted(x, both, side="right") / x.size
            - np.searchsorted(y, both, side="right") / y.size)
    # scipy keeps the max unless the min's side is strictly larger, so a tie
    # of 0.0 and -0.0 gives its sign as scipy's does
    d = max(float(diff.max()), float(np.clip(-diff.min(), 0, 1)))
    n = np.round(x.size * y.size / (x.size + y.size))
    if n > 140 and n * d * d < 2.2:
        return d, _kolmogorov_sf(math.sqrt(n) * d)
    from scipy.special import smirnov

    return d, float(np.minimum(1.0, 2.0 * smirnov(n, d)))


def ks_statistic(x, cdf):
    """The two-sided one-sample Kolmogorov-Smirnov distance of x from `cdf`.

    `cdf` maps a sorted array to its CDF values.  The same float as scipy
    1.17's `kstest(x, cdf).statistic`, without the p-value.
    """
    x = _ks_sample("x", x)
    c = cdf(x)
    n = x.size
    return float(max((c - np.arange(0.0, n) / n).max(), (np.arange(1.0, n + 1) / n - c).max()))


def empirical_wasserstein(samples1, samples2, p=1.0):
    """Exact p-Wasserstein between two equal-size empirical measures.

    Cost (sum_i d(x_i, y_sigma(i))^p / m)^(1/p) minimised over permutations
    sigma by the Hungarian assignment solver; exact for every p > 0,
    including the concave range p < 1 where sorted matching is not optimal.
    Reals with p < 1 are solved level by level (`_line_assignment`); p >= 1,
    where optimal matchings can tie, and group points take one dense solve,
    whose quasidistance matrix is filled _DMAT_ROWS rows at a time.
    So sqrt(empirical_wasserstein(x, x + s, p=0.5)) is the exact mean
    sqrt|dx| transport cost between an empirical measure and its shift.

    Args:
        samples1, samples2: finite arrays of one shape, (m,) of reals (d is
            |x - y|) or (m, 2n+1) of group points (d is the quasidistance),
            with 1 <= m <= 512.
        p: cost exponent, positive and finite.

    Returns:
        Nonnegative float.
    """
    x = np.asarray(samples1, dtype=float)
    y = np.asarray(samples2, dtype=float)
    if not (x.ndim == 1 or (x.ndim == 2 and x.shape[1] >= 3 and x.shape[1] % 2)):
        raise ValueError(f"samples must be (m,) reals or (m, 2n+1) points, got shape {x.shape}")
    if x.shape != y.shape:
        raise ValueError("sample arrays must have identical shapes")
    m = x.shape[0]
    if m == 0:
        raise ValueError("samples1 and samples2 must not be empty")
    if m > _MAX_N:
        raise ValueError(f"exact assignment limited to {_MAX_N} samples, got {m}")
    _check(0.0 < p < math.inf, "p", p, "positive and finite")
    _check_finite("samples1", x)
    _check_finite("samples2", y)
    if x.ndim == 1 and p < 1.0:
        # strictly concave: the optimum is unique almost surely, so the
        # level solve gives the dense solve's permutation and cost bits
        _, cols = _line_assignment(x, y, lambda d: d**p)
        matched = np.abs(x - y[cols])
    else:
        dmat = np.abs(x[:, None] - y[None, :]) if x.ndim == 1 else _quasidistance_matrix(x, y)
        rows, cols = linear_sum_assignment(dmat**p)
        matched = dmat[rows, cols]
    return float((matched**p).mean() ** (1.0 / p))


def _quasidistance_matrix(x, y):
    """d_H(x_i, y_j) for (m, 2n+1) points x and y, _DMAT_ROWS rows at a time.

    Bit-identical to grp.quasidistance(x[:, None], y[None]): each entry is
    the same elementwise arithmetic, whatever the block.
    """
    dmat = np.empty((x.shape[0], y.shape[0]))
    for lo in range(0, x.shape[0], _DMAT_ROWS):
        dmat[lo:lo + _DMAT_ROWS] = grp.quasidistance(x[lo:lo + _DMAT_ROWS, None], y[None])
    return dmat


def a_p_constant(p):
    """The interval normal moment a_p = E[|G| ; |G| <= q], q = Phi^-1((1+p)/2).

    Integrating |x| phi(x) over the symmetric interval gives the closed form
    sqrt(2/pi) (1 - exp(-q^2/2)).  Strictly increasing in p with limit
    E|G| = sqrt(2/pi) as p -> 1.  q is the standard library's
    `NormalDist.inv_cdf`, Wichura's AS241 (1988).
    """
    if not 0.0 < p < 1.0:
        raise ValueError("a_p defined for p in (0, 1)")
    q = NormalDist().inv_cdf((1.0 + p) / 2.0)
    return math.sqrt(2.0 / math.pi) * (1.0 - math.exp(-q * q / 2.0))


def hitting_density(u, r0):
    """Density of the time reflection coupling merges the horizontal parts.

    R/2 is a standard BM started at r0/2 and absorbed at 0, so tau follows
    the level-hitting law (r0/2) / sqrt(2 pi u^3) exp(-r0^2 / (8u)), taken
    as one exp of its log so that tiny and infinite u give 0, not NaN.  `r0`
    must be positive and finite and `u` hold no NaN.
    """
    _check(0.0 < r0 < math.inf, "r0", r0, "positive and finite")
    u = np.asarray(u, dtype=float)
    _check_not_nan("u", u)
    if np.any(u <= 0):
        raise ValueError("density evaluated at nonpositive times")
    with np.errstate(over="ignore"):  # r0^2 / (8u) -> inf for subnormal u
        return np.exp(math.log(r0 / 2.0) - 0.5 * math.log(2.0 * math.pi) - 1.5 * np.log(u)
                      - r0 * r0 / (8.0 * u))


def hitting_cdf(t, r0):
    """P(tau <= t) = 2 Phi(-x) = erfc(x / sqrt(2)), x = r0 / (2 sqrt(t)); vectorised in t.

    `r0` must be positive and finite and `t` hold no NaN; t <= 0 gives 0
    and t = +inf gives 1.
    """
    _check(0.0 < r0 < math.inf, "r0", r0, "positive and finite")
    t = np.asarray(t, dtype=float)
    _check_not_nan("t", t)
    out = np.zeros_like(t, dtype=float)
    pos = t > 0
    # the lower tail: 1 - Phi(x) cancels for small t, down to 0.0 at t = 0.01
    # when r0 = 2, where the law gives 1.5e-23; erfc keeps it
    x = r0 / (2.0 * np.sqrt(t[pos]))
    out[pos] = np.fromiter(map(math.erfc, (x * math.sqrt(0.5)).tolist()), float, x.size)
    return out if out.ndim else float(out)


# E Y for Y = int_0^1 X_s^2 ds of a normalized excursion: E X_s^2 = 3 s (1 - s)
EXCURSION_MEAN = 0.5


def excursion_integrals(n_samples, m_steps, seed):
    """(n_samples,) samples of Y = int_0^1 X_s^2 ds for a normalized Brownian
    excursion X, as a 3-d Bessel bridge 0 -> 0 on [0,1] (the norm of three
    independent scalar Brownian bridges), by the midpoint of left/right
    endpoint sums (trapezoid in X^2).

    `n_samples` must be an integer >= 1 and `m_steps` an integer >= 2.  The
    moment E[Y^{p/2}] is `_moment(y ** (p / 2), p)` over the samples y.
    """
    _check_excursion_counts(n_samples, m_steps)
    rng = philox_stream(seed, 0)
    vals = np.empty(n_samples)
    chunk = max(1, _CHUNK_NORMALS // (3 * m_steps))
    s = np.arange(1, m_steps) / m_steps
    for lo in range(0, n_samples, chunk):
        k = min(chunk, n_samples - lo)
        # three independent bridges via increments (interior points only)
        w = np.cumsum(rng.standard_normal((k, 3, m_steps)) / math.sqrt(m_steps), axis=-1)
        br = w[..., :-1] - s * w[..., -1:]
        x2 = (br**2).sum(axis=1)  # squared norm at interior grid points
        # trapezoid with X(0) = X(1) = 0
        vals[lo:lo + k] = x2.sum(axis=-1) / m_steps
    return vals


def _check_excursion_counts(n_samples, m_steps):
    _check_count("n_samples", n_samples)
    _check_count("m_steps", m_steps, 2)


def excursion_moment_rejection(p, n_samples=2048, m_steps=256, seed=0):
    """E[Y^{p/2}] for the Y of `excursion_integrals`: positive bridges by cyclic shift.

    A Gaussian random-walk bridge B of m_steps steps (B_0 = B_m = 0), turned
    cyclically to start at its minimum, has the law of the bridge conditioned
    to stay positive at the interior grid points: a discrete Brownian
    excursion (the cycle lemma; Vervaat 1979).  That is the law rejection
    sampling of positive bridges gives, without rejecting m_steps - 1 of
    every m_steps proposals.  The turn only reorders the values, so each
    sample is sum_{j=1..m} (B_j - min B)^2 / m directly, drawn in chunks of
    at most _CHUNK_NORMALS normals.  Same discretization bias class as the
    Bessel-bridge route only if compared at the same m_steps -- callers
    should match them.  `p` must be positive and finite; the counts are
    checked as in `excursion_integrals`.  Returns a MomentEstimate.
    """
    _check(0.0 < p < math.inf, "p", p, "positive and finite")
    _check_excursion_counts(n_samples, m_steps)
    rng = philox_stream(seed, 1)
    s = np.arange(1, m_steps + 1) / m_steps
    out = np.empty(n_samples)
    chunk = max(1, _CHUNK_NORMALS // m_steps)
    for lo in range(0, n_samples, chunk):
        k = min(chunk, n_samples - lo)
        w = rng.standard_normal((k, m_steps))
        w *= 1.0 / math.sqrt(m_steps)
        np.cumsum(w, axis=-1, out=w)
        w -= s * w[:, -1:]  # the bridge B_1..B_m, B_m = 0
        w -= w.min(axis=-1, keepdims=True)
        np.square(w, out=w)
        out[lo:lo + k] = w.sum(axis=-1) / m_steps
    return _moment(out ** (p / 2.0), p)


@dataclass
class MartingaleBoundCheck:
    ok: bool
    premise_ok: bool
    estimate: float
    stderr: float
    bound: float
    p_hat: float


def martingale_lower_bound_check(terminal, quad_var, beta, p):
    """Check E|N_h| >= a_p sqrt(beta) on empirical martingale data.

    Args:
        terminal: finite samples of N_h, at least 2.
        quad_var: matching finite samples of <N>_h.
        beta: variance threshold, >= 0 and finite.
        p: required lower bound on P(<N>_h >= beta), in (0, 1).

    Returns:
        MartingaleBoundCheck; `premise_ok` reports whether the empirical
        P(<N>_h >= beta) reaches p (a failed premise is reported, not
        raised), and `ok` whether the bound holds within `SIGMA_GATE`
        standard errors.
    """
    nh = np.abs(np.asarray(terminal, dtype=float))
    qv = np.asarray(quad_var, dtype=float)
    if nh.shape != qv.shape:
        raise ValueError("terminal and quadratic-variation samples must align")
    for name, x in (("terminal", nh), ("quad_var", qv)):
        _check_finite(name, x)
        if x.size < 2:
            raise ValueError(f"{name} must hold at least 2 samples, got {x.size}")
    _check(0.0 <= beta < math.inf, "beta", beta, ">= 0 and finite")
    _check(0.0 < p < 1.0, "p", p, "in (0, 1)")
    p_hat = float((qv >= beta).mean())
    premise_ok = p_hat >= p
    est = float(nh.mean())
    se = jackknife_stderr(nh)
    bound = a_p_constant(p) * math.sqrt(beta) if beta > 0 else 0.0
    ok = est >= bound - SIGMA_GATE * se
    return MartingaleBoundCheck(
        ok=bool(ok),
        premise_ok=bool(premise_ok),
        estimate=est,
        stderr=se,
        bound=float(bound),
        p_hat=p_hat,
    )
