"""Monte Carlo statistics, exponent fits, transport costs, reference laws.

Everything here is deterministic given its inputs (sampling helpers take
explicit seeds).  Closed forms carry their derivation in the docstring; each
one is cross-checked against an independent quadrature or brute-force oracle
in the test suite before anything downstream is allowed to trust it.
"""

import math
from dataclasses import dataclass

import numpy as np

from heiscouple import group as grp
from heiscouple.simulate import _check, _check_count, _check_finite, philox_stream


def _linear_sum_assignment(cost):
    """scipy's Hungarian solve; scipy loads on first use, not on import."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


# a public module name, so perfbench's tracer times the solve apart from its caller
linear_sum_assignment = _linear_sum_assignment

# largest sample `empirical_wasserstein` solves exactly (an m x m assignment)
_MAX_N = 512


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


def _check_log_axes(t_name, t, y_name, y):
    """Raise ValueError unless t and y are 1-d of one length, finite and positive."""
    if t.ndim != 1 or t.shape != y.shape:
        raise ValueError(f"{t_name} and {y_name} must be 1-d of equal length, "
                         f"got shapes {t.shape} and {y.shape}")
    for name, x in ((t_name, t), (y_name, y)):
        bad = x.size - np.count_nonzero(np.isfinite(x) & (x > 0))
        if bad:
            raise ValueError(f"{name} must be finite and positive, got {bad} bad of {x.size} values")


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
    out = []
    for i, t in enumerate(ensemble.times):
        v = vals[i] ** p if p != 0 else np.ones(ensemble.n_paths)
        out.append(
            MomentEstimate(
                time=float(t),
                p=float(p),
                estimate=float(v.mean()),
                stderr=jackknife_stderr(v),
                n_paths=ensemble.n_paths,
            )
        )
    return out


def fit_power_law(estimates, window=None):
    """Least squares of log(estimate) on log(time).

    Args:
        estimates: list of MomentEstimate (times > 0 where used).
        window: optional (t_lo, t_hi) inclusive time window.

    Returns:
        PowerLawFit.  Raises ValueError if fewer than 3 points fall in the
        window, or if a time or estimate there is not finite and positive.
    """
    pts = [(e.time, e.estimate) for e in estimates
           if window is None or window[0] <= e.time <= window[1]]
    if len(pts) < 3:
        raise ValueError("need at least 3 checkpoints in the fit window")
    t, y = np.array(pts).T
    _check_log_axes("times", t, "estimates", y)
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
    equal length, finite and positive.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    _check_log_axes("times", t, "values", y)
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


def empirical_wasserstein(samples1, samples2, p=1.0):
    """Exact p-Wasserstein between two equal-size empirical measures.

    Cost (sum_i d(x_i, y_sigma(i))^p / m)^(1/p) minimised over permutations
    sigma by the Hungarian assignment solver; exact for every p > 0,
    including the concave range p < 1 where sorted matching is not optimal.
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
    if x.ndim == 1:
        dmat = np.abs(x[:, None] - y[None, :])
    else:
        dmat = grp.quasidistance(x[:, None, :], y[None, :, :])
    rows, cols = linear_sum_assignment(dmat**p)
    return float((dmat[rows, cols] ** p).mean() ** (1.0 / p))


def a_p_constant(p):
    """The interval normal moment a_p = E[|G| ; |G| <= q], q = ndtri((1+p)/2).

    Integrating |x| phi(x) over the symmetric interval gives the closed form
    sqrt(2/pi) (1 - exp(-q^2/2)).  Strictly increasing in p with limit
    E|G| = sqrt(2/pi) as p -> 1.
    """
    from scipy.special import ndtri

    if not 0.0 < p < 1.0:
        raise ValueError("a_p defined for p in (0, 1)")
    q = ndtri((1.0 + p) / 2.0)
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
    """P(tau <= t) = 2 (1 - Phi(r0 / (2 sqrt(t)))); vectorised in t.

    `r0` must be positive and finite and `t` hold no NaN; t <= 0 gives 0
    and t = +inf gives 1.
    """
    from scipy.special import ndtr

    _check(0.0 < r0 < math.inf, "r0", r0, "positive and finite")
    t = np.asarray(t, dtype=float)
    _check_not_nan("t", t)
    out = np.zeros_like(t, dtype=float)
    pos = t > 0
    out[pos] = 2.0 * (1.0 - ndtr(r0 / (2.0 * np.sqrt(t[pos]))))
    return out if out.ndim else float(out)


def excursion_moment(p, n_samples=4096, m_steps=2048, seed=0):
    """E[(int_0^1 X_s^2 ds)^{p/2}] for a normalized Brownian excursion X.

    X is sampled as a 3-d Bessel bridge 0 -> 0 on [0,1]: the norm of three
    independent scalar Brownian bridges.  The integral uses the midpoint of
    left/right endpoint sums (trapezoid in X^2).

    `p` must be positive and finite, `n_samples` an integer >= 1 and
    `m_steps` an integer >= 2.  Returns a MomentEstimate (time field is the
    unit horizon).
    """
    _check_excursion_args(p, n_samples, m_steps)
    rng = philox_stream(seed, 0)
    vals = np.empty(n_samples)
    chunk = max(1, int(2**22 // m_steps))
    s = np.arange(1, m_steps) / m_steps
    done = 0
    while done < n_samples:
        k = min(chunk, n_samples - done)
        # three independent bridges via increments (interior points only)
        dw = rng.standard_normal((k, 3, m_steps)) / math.sqrt(m_steps)
        w = np.cumsum(dw, axis=-1)
        br = w[..., :-1] - s * w[..., -1:]
        x2 = (br**2).sum(axis=1)  # squared norm at interior grid points
        # trapezoid with X(0) = X(1) = 0
        vals[done : done + k] = x2.sum(axis=-1) / m_steps
        done += k
    v = vals ** (p / 2.0)
    return MomentEstimate(
        time=1.0,
        p=float(p),
        estimate=float(v.mean()),
        stderr=jackknife_stderr(v),
        n_paths=n_samples,
    )


def _check_excursion_args(p, n_samples, m_steps):
    _check(0.0 < p < math.inf, "p", p, "positive and finite")
    _check_count("n_samples", n_samples)
    _check_count("m_steps", m_steps, 2)


def excursion_moment_rejection(p, n_samples=2048, m_steps=256, seed=0):
    """Oracle for excursion_moment: positive bridges by cyclic shift.

    A Gaussian random-walk bridge B of m_steps steps (B_0 = B_m = 0), turned
    cyclically to start at its minimum, has the law of the bridge conditioned
    to stay positive at the interior grid points: a discrete Brownian
    excursion (the cycle lemma; Vervaat 1979).  That is the law rejection
    sampling of positive bridges gives, without rejecting m_steps - 1 of
    every m_steps proposals.  The turn only reorders the values, so each
    sample is sum_{j=1..m} (B_j - min B)^2 / m directly, drawn in chunks of
    at most 2**22 normals.  Same discretization bias class as the
    Bessel-bridge route only if compared at the same m_steps -- callers
    should match them.  Inputs are checked as in excursion_moment.
    """
    _check_excursion_args(p, n_samples, m_steps)
    rng = philox_stream(seed, 1)
    s = np.arange(1, m_steps + 1) / m_steps
    out = np.empty(n_samples)
    chunk = max(1, 2**22 // m_steps)
    for lo in range(0, n_samples, chunk):
        k = min(chunk, n_samples - lo)
        w = rng.standard_normal((k, m_steps))
        w *= 1.0 / math.sqrt(m_steps)
        np.cumsum(w, axis=-1, out=w)
        w -= s * w[:, -1:]  # the bridge B_1..B_m, B_m = 0
        w -= w.min(axis=-1, keepdims=True)
        np.square(w, out=w)
        out[lo:lo + k] = w.sum(axis=-1) / m_steps
    v = out ** (p / 2.0)
    return MomentEstimate(
        time=1.0,
        p=float(p),
        estimate=float(v.mean()),
        stderr=jackknife_stderr(v),
        n_paths=n_samples,
    )


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
        terminal: samples of N_h.
        quad_var: matching samples of <N>_h.
        beta: variance threshold.
        p: required lower bound on P(<N>_h >= beta).

    Returns:
        MartingaleBoundCheck; `premise_ok` reports whether the empirical
        P(<N>_h >= beta) reaches p (a failed premise is reported, not
        raised), and `ok` whether the bound holds within 3 stderr.
    """
    nh = np.abs(np.asarray(terminal, dtype=float))
    qv = np.asarray(quad_var, dtype=float)
    if nh.shape != qv.shape:
        raise ValueError("terminal and quadratic-variation samples must align")
    p_hat = float((qv >= beta).mean())
    premise_ok = p_hat >= p
    est = float(nh.mean())
    se = jackknife_stderr(nh)
    bound = a_p_constant(p) * math.sqrt(beta) if beta > 0 else 0.0
    ok = est >= bound - 3.0 * se
    return MartingaleBoundCheck(
        ok=bool(ok),
        premise_ok=bool(premise_ok),
        estimate=est,
        stderr=se,
        bound=float(bound),
        p_hat=p_hat,
    )
