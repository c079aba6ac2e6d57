"""Estimators against closed forms, quadrature, and brute-force oracles."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment
from scipy.special import ndtr, ndtri
from scipy.stats import ks_2samp, kstest

from heiscouple import estimators as est
from heiscouple import group as grp
from heiscouple.constants import KS_PVALUE_MIN
from heiscouple.simulate import PathEnsemble


def _toy_ensemble():
    times = np.array([1.0, 4.0])
    r2 = np.array([[1.0, 4.0, 9.0, 16.0], [4.0, 16.0, 36.0, 64.0]])
    z = np.array([[0.0, 0.0, 0.0, 0.0], [-1.0, 1.0, -1.0, 1.0]])
    zero = np.zeros_like(r2)
    return PathEnsemble(times, r2, z, zero, zero, zero,
                        np.full(4, np.nan), meta={})


def test_jackknife_stderr_matches_formula():
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    direct = x.std(ddof=1) / math.sqrt(len(x))
    assert math.isclose(est.jackknife_stderr(x), direct, rel_tol=1e-12)
    assert math.isnan(est.jackknife_stderr(np.array([1.0])))


def test_estimate_moment_metrics_and_values():
    ens = _toy_ensemble()
    r1 = est.estimate_moment(ens, p=1, metric="r")
    assert [m.time for m in r1] == [1.0, 4.0]
    assert r1[0].estimate == (1 + 2 + 3 + 4) / 4
    assert r1[0].n_paths == 4
    z1 = est.estimate_moment(ens, p=2, metric="abs_z")
    assert z1[0].estimate == 0.0 and z1[1].estimate == 1.0
    d1 = est.estimate_moment(ens, p=2, metric="d_h")
    assert d1[1].estimate == pytest.approx(np.mean(ens.r2[1] + np.abs(ens.z[1])), rel=1e-12)
    p0 = est.estimate_moment(ens, p=0, metric="d_h")
    assert p0[0].estimate == 1.0 and p0[0].stderr == 0.0


def test_estimate_moment_validation():
    ens = _toy_ensemble()
    with pytest.raises(ValueError, match="metric"):
        est.estimate_moment(ens, p=1, metric="bogus")
    for p in (-1, math.nan, math.inf):
        with pytest.raises(ValueError, match="moment order"):
            est.estimate_moment(ens, p=p)


def test_fit_power_law_recovers_exact_exponent():
    times = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    ests = [
        est.MomentEstimate(t, 1.0, 3.0 * t**0.75, 0.0, 100) for t in times
    ]
    fit = est.fit_power_law(ests)
    assert math.isclose(fit.exponent, 0.75, rel_tol=1e-12)
    assert math.isclose(math.exp(fit.intercept), 3.0, rel_tol=1e-12)
    assert fit.r_squared == 1.0
    windowed = est.fit_power_law(ests, window=(2.0, 8.0))
    assert windowed.window == (2.0, 8.0)
    with pytest.raises(ValueError, match="at least 3"):
        est.fit_power_law(ests[:2])


@pytest.mark.parametrize("times", [
    pytest.param([2.0, 2.0, 2.0], id="one-time"),
    pytest.param([1.0, 2.0, 2.0, 1.0], id="two-times"),
    pytest.param([1.0, 2.0], id="two-points"),
    pytest.param([3.0], id="one-point"),
])
def test_fits_need_three_distinct_times(times):
    # three estimates at t = 2 gave exponent 0.431 with a RankWarning;
    # compare_log_vs_power([1, 1, 1], ...) warned "invalid value encountered
    # in divide", and two points gave prefer_log False from two exact fits
    values = [1.0 + k for k in range(len(times))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^need at least 3 distinct times"):
            est.fit_power_law(_estimates(times, values))
        with pytest.raises(ValueError, match="^need at least 3 distinct times"):
            est.compare_log_vs_power(times, values)
    # the window is what counts: three distinct times, two of them outside
    with pytest.raises(ValueError, match="^need at least 3 distinct times, got 1$"):
        est.fit_power_law(_estimates([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]), window=(2.0, 3.0))


def _estimates(times, values):
    return [est.MomentEstimate(t, 1.0, y, 0.0, 100) for t, y in zip(times, values)]


@pytest.mark.parametrize("times,values,arg", [
    pytest.param([1.0, 2.0, 4.0], [1.0, math.nan, 2.0], "estimates", id="estimate=nan"),
    pytest.param([1.0, 2.0, 4.0], [1.0, math.inf, 2.0], "estimates", id="estimate=inf"),
    pytest.param([1.0, 2.0, 4.0], [1.0, 0.0, 2.0], "estimates", id="estimate=0"),
    pytest.param([0.0, 1.0, 2.0, 4.0], [1.0] * 4, "times", id="time=0"),
    pytest.param([1.0, 2.0, math.inf], [1.0] * 3, "times", id="time=inf"),
])
def test_fit_power_law_rejects_bad_points(times, values, arg):
    # a NaN estimate gave exponent nan with r_squared 1.0, and an infinite
    # one a RuntimeWarning; a time of 0 was dropped without a word
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{arg} must be finite and positive"):
            est.fit_power_law(_estimates(times, values))
    # points outside the window are not read
    fit = est.fit_power_law(_estimates([1e-3, 1.0, 2.0, 4.0], [-1.0, 1.0, 2.0, 4.0]),
                            window=(1.0, 4.0))
    assert math.isclose(fit.exponent, 1.0, rel_tol=1e-12)


def test_compare_log_vs_power_prefers_right_model():
    t = np.geomspace(10, 1000, 12)
    log_data = 2.0 + 0.5 * np.log(t)
    out = est.compare_log_vs_power(t, log_data)
    assert out["prefer_log"] and out["rss_log"] < out["rss_power"]
    pow_data = 0.7 * t**0.4
    out2 = est.compare_log_vs_power(t, pow_data)
    assert not out2["prefer_log"] and out2["rss_power"] < out2["rss_log"]
    assert math.isclose(out2["power_exponent"], 0.4, rel_tol=1e-9)


@pytest.mark.parametrize("times,values,arg", [
    pytest.param([1.0, 2.0, 4.0], [1.0, math.nan, 2.0], "values", id="value=nan"),
    pytest.param([1.0, 2.0, 4.0], [1.0, 0.0, 2.0], "values", id="value=0"),
    pytest.param([1.0, 2.0, 4.0], [1.0, -1.0, 2.0], "values", id="value<0"),
    pytest.param([1.0, math.nan, 4.0], [1.0, 2.0, 3.0], "times", id="time=nan"),
    pytest.param([0.0, 2.0, 4.0], [1.0, 2.0, 3.0], "times", id="time=0"),
    pytest.param([1.0, 2.0, 4.0], [1.0, 2.0], "times and values", id="lengths"),
    pytest.param(2.0, 3.0, "times and values", id="scalars"),
])
def test_compare_log_vs_power_rejects_bad_input(times, values, arg):
    # a NaN value gave prefer_log False, a zero one a divide-by-zero warning,
    # and unequal lengths numpy's TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{arg} must be"):
            est.compare_log_vs_power(times, values)


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _ks_cases(rng):
    """(x, y) pairs: unequal normal samples, tied integers, all-equal, sizes 1, 2 and 7."""
    for _ in range(300):
        n1, n2 = rng.integers(1, 300, 2)
        yield rng.standard_normal(n1), rng.normal(rng.uniform(-0.5, 0.5), 1.2, n2)
        yield rng.integers(0, 5, n1).astype(float), rng.integers(0, 6, n2).astype(float)
    for n1, n2 in itertools.product((1, 2, 7), repeat=2):
        yield np.full(n1, 3.0), np.full(n2, 3.0)
        yield rng.standard_normal(n1), rng.standard_normal(n2)
        yield np.arange(n1, dtype=float), np.arange(n2, dtype=float) + 0.5


def test_ks_statistics_match_scipy():
    # scipy.stats is the named oracle: the same float, the sign of a zero too
    rng = np.random.default_rng(11)
    for x, y in _ks_cases(rng):
        with warnings.catch_warnings():  # scipy divides by round(en) = 0 at sizes 1 and 1
            warnings.simplefilter("ignore", RuntimeWarning)
            want = ks_2samp(x, y, method="asymp").statistic
        assert _same_float(est.ks_two_sample(x, y)[0], want), (x, y)
        assert _same_float(est.ks_statistic(x, ndtr), kstest(x, ndtr).statistic), x


def test_ks_two_sample_pvalue_matches_scipy():
    # scipy's asymp p-value is kstwo.sf(d, n), n = round(en); its kolmogn
    # evaluates 2 smirnov(n, d) once n > 140 and n d^2 >= 2.2 (p <~ 0.026)
    rng = np.random.default_rng(12)
    exact = 0
    for _ in range(1500):
        n1, n2 = rng.integers(2, 600, 2)
        x, y = rng.standard_normal(n1), rng.normal(rng.uniform(0.0, 0.4), 1.0, n2)
        d, p = est.ks_two_sample(x, y)
        want = ks_2samp(x, y, method="asymp").pvalue
        assert (p > KS_PVALUE_MIN) == (want > KS_PVALUE_MIN), (n1, n2, d)
        if want <= 0.02:
            assert abs(p - want) <= 1e-6 * want, (n1, n2, d)
            if round(n1 * n2 / (n1 + n2)) > 140:
                exact += 1
                assert _same_float(p, want), (n1, n2, d)
    assert exact >= 100
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert math.isnan(ks_2samp([1.0], [2.0], method="asymp").pvalue)
    d, p = est.ks_two_sample([1.0], [2.0])  # round(0.5) = 0
    assert d == 1.0 and math.isnan(p)


def test_ks_two_sample_pvalue_body_uses_the_limit_law():
    # for n > 140 and n d^2 < 2.2 the p-value is kolmogorov(sqrt(n) d); over
    # that region scipy's kstwo.sf differs from it by at most 1.144 / sqrt(n)
    # relative (at n = 141 and n d^2 -> 2.2, checked on a grid of n from 141
    # to 2e4), so 1.2 / sqrt(n) bounds it.  Sizes of 300 or more keep n > 140.
    rng = np.random.default_rng(13)
    body = 0
    for _ in range(200):
        n1, n2 = rng.integers(300, 4000, 2)
        x, y = rng.standard_normal(n1), rng.normal(rng.uniform(0.0, 0.05), 1.0, n2)
        d, p = est.ks_two_sample(x, y)
        n = round(n1 * n2 / (n1 + n2))
        want = ks_2samp(x, y, method="asymp").pvalue
        if n * d * d < 2.2:
            body += 1
            assert p > 0.02 and abs(p - want) <= 1.2 / math.sqrt(n) * want, (n1, n2, d)
        else:
            assert _same_float(p, want), (n1, n2, d)
    assert body >= 100


@pytest.mark.parametrize("x", [
    pytest.param([], id="empty"),
    pytest.param([1.0, np.nan], id="nan"),
    pytest.param([[1.0, 2.0]], id="2-d"),
])
def test_ks_helpers_reject_bad_samples(x):
    with pytest.raises(ValueError, match=r"^x must"):
        est.ks_statistic(x, ndtr)
    with pytest.raises(ValueError, match=r"^x must"):
        est.ks_two_sample(x, [1.0, 2.0])
    with pytest.raises(ValueError, match=r"^y must"):
        est.ks_two_sample([1.0, 2.0], x)


def _brute_force_wp(x, y, p):
    best = math.inf
    for perm in itertools.permutations(range(len(y))):
        cost = np.mean([abs(x[i] - y[j]) ** p for i, j in enumerate(perm)])
        best = min(best, cost)
    return best ** (1.0 / p)


def test_empirical_wasserstein_against_brute_force_1d():
    rng = np.random.default_rng(10)
    for _ in range(60):
        m = rng.integers(2, 7)
        x = rng.standard_normal(int(m))
        y = rng.standard_normal(int(m))
        for p in (0.5, 1.0, 2.0):
            mine = est.empirical_wasserstein(x, y, p=p)
            ref = _brute_force_wp(x, y, p)
            assert math.isclose(mine, ref, rel_tol=1e-10)


def test_empirical_wasserstein_group_metric():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 3))
    y = rng.standard_normal((5, 3))
    mine = est.empirical_wasserstein(x, y, p=1.0)
    best = min(
        np.mean([grp.quasidistance(x[i], y[j]) for i, j in enumerate(perm)])
        for perm in itertools.permutations(range(5))
    )
    assert math.isclose(mine, best, rel_tol=1e-10)


def test_empirical_wasserstein_guards():
    with pytest.raises(ValueError, match="limited to"):
        est.empirical_wasserstein(np.zeros(600), np.zeros(600))
    with pytest.raises(ValueError):
        est.empirical_wasserstein(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="^samples1 and samples2 must not be empty"):
        est.empirical_wasserstein(np.zeros(0), np.zeros(0))
    for p in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^p must be positive and finite"):
            est.empirical_wasserstein(np.zeros(3), np.ones(3), p=p)
    nan_points = np.full((3, 3), np.nan)
    with pytest.raises(ValueError, match="^samples1 must be finite"):
        est.empirical_wasserstein(nan_points, np.zeros((3, 3)), p=0.5)
    with pytest.raises(ValueError, match="^samples2 must be finite"):
        est.empirical_wasserstein(np.zeros(3), np.array([0.0, np.inf, 1.0]))
    # scalars raised a bare IndexError
    shape = r"^samples must be \(m,\) reals or \(m, 2n\+1\) points"
    for bad in (1.0, np.zeros((3, 2)), np.zeros((3, 1)), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError, match=shape):
            est.empirical_wasserstein(bad, bad)


@pytest.mark.parametrize("m", [1, 2, 17, 128, 512])
@pytest.mark.parametrize("shift", [1e-3, 0.1, 1.0, 10.0])
def test_level_solver_matches_the_dense_solve(m, shift, monkeypatch):
    # the concave 1-d solve goes level by level; the dense solve over the
    # whole cost matrix is the oracle for its permutation and cost bits.
    # Samples are standard normal, so a shift is in units of their spread.
    solve = est._line_assignment
    seen = []

    def record(x, y, cost):
        rows, cols = solve(x, y, cost)
        seen.append(cols)
        return rows, cols

    monkeypatch.setattr(est, "_line_assignment", record)
    rng = np.random.default_rng(5000 + m)
    x = rng.standard_normal(m)
    y = x + shift
    dist = np.abs(x[:, None] - y[None, :])
    for p in (0.25, 0.5, 0.75):
        rows, cols = linear_sum_assignment(dist**p)
        ref = float((dist[rows, cols] ** p).mean() ** (1.0 / p))
        assert est.empirical_wasserstein(x, y, p=p) == ref
        np.testing.assert_array_equal(seen.pop(), cols)
    for p in (1.0, 2.0):  # optimal matchings can tie: the dense solve stays
        est.empirical_wasserstein(x, y, p=p)
        assert not seen


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_level_solver_against_brute_force(m):
    rng = np.random.default_rng(60 + m)
    for _ in range(20):
        x = rng.standard_normal(m)
        y = rng.standard_normal(m) + rng.uniform(-1.0, 1.0)
        for p in (0.25, 0.5, 0.75):
            rows, cols = est._line_assignment(x, y, lambda d: d**p)
            np.testing.assert_array_equal(rows, np.arange(m))
            best = min(itertools.permutations(range(m)),
                       key=lambda perm: sum(abs(x[i] - y[j]) ** p for i, j in enumerate(perm)))
            assert tuple(cols) == best


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 63, 64, 65, 512])
def test_blocked_quasidistance_matrix_is_bit_identical(n, m):
    # sizes off the block's multiple cover the last, partial block
    rng = np.random.default_rng(70 + 10 * n + m)
    x = rng.standard_normal((m, 2 * n + 1))
    y = rng.standard_normal((m, 2 * n + 1))
    got = est._quasidistance_matrix(x, y)
    assert got.shape == (m, m)
    assert got.tobytes() == grp.quasidistance(x[:, None], y[None]).tobytes()


def test_a_p_constant_against_quadrature():
    for p in np.arange(0.05, 1.0, 0.05):
        q = ndtri((1 + p) / 2)
        ref, err = quad(
            lambda x: abs(x) * math.exp(-(x**2) / 2) / math.sqrt(2 * math.pi),
            -q, q,
        )
        assert abs(est.a_p_constant(p) - ref) < 1e-8 + 10 * err
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            est.a_p_constant(bad)


def test_hitting_density_normalization_and_scaling():
    total, err = quad(lambda u: est.hitting_density(u, 1.0), 0, np.inf, limit=200)
    assert abs(total - 1.0) < 1e-6 + 10 * err
    # CDF consistency: integral of the density equals the closed-form CDF
    part, _ = quad(lambda u: est.hitting_density(u, 2.0), 0, 5.0, limit=200)
    assert abs(part - est.hitting_cdf(5.0, 2.0)) < 1e-8
    # dilation scaling: tau(r0) ~ r0^2 tau(1)
    assert math.isclose(
        est.hitting_cdf(4.0, 2.0), est.hitting_cdf(1.0, 1.0), rel_tol=1e-12
    )
    with pytest.raises(ValueError):
        est.hitting_density(1.0, 0.0)
    with pytest.raises(ValueError):
        est.hitting_density(-1.0, 1.0)


def test_hitting_density_rejects_nan_and_infinite_input():
    # a NaN r0 or u returned NaN, r0 = inf a RuntimeWarning, and a tiny u
    # (u^3 underflowing to 0) a divide-by-zero warning and NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r0 in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="^r0 must be positive and finite"):
                est.hitting_density(1.0, r0)
        for u in (math.nan, np.array([0.5, np.nan])):
            with pytest.raises(ValueError, match="^u must not be NaN"):
                est.hitting_density(u, 1.0)
        assert np.array_equal(est.hitting_density(np.array([1e-320, 1e-300, np.inf]), 1.0),
                              np.zeros(3))
        u = np.array([0.3, 1.0, 4.0])
        direct = 1.0 / np.sqrt(2.0 * np.pi * u**3) * np.exp(-0.5 / u)
        np.testing.assert_allclose(est.hitting_density(u, 2.0), direct, rtol=1e-14)


def test_hitting_cdf_shape():
    t = np.array([0.0, 0.5, 2.0, 1e6])
    c = est.hitting_cdf(t, 1.0)
    assert c[0] == 0.0
    assert np.all(np.diff(c) > 0)
    assert c[-1] > 0.999
    assert est.hitting_cdf(np.inf, 1.0) == 1.0
    assert est.hitting_cdf(-np.inf, 1.0) == 0.0
    for r0 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^r0 must be positive and finite"):
            est.hitting_cdf(1.0, r0)
    for bad_t in (math.nan, np.array([0.5, np.nan])):
        with pytest.raises(ValueError, match="^t must not be NaN"):
            est.hitting_cdf(bad_t, 1.0)


def test_hitting_cdf_keeps_its_tail():
    # 2 (1 - Phi(x)) cancelled: at r0 = 2 it was 1.5e-5 off (relative) at
    # t = 0.02 and exactly 0.0 at t = 0.01, where the law gives 1.52e-23
    # erfc's argument is x * sqrt(1/2), rounded as ndtr rounds it: near
    # x = 30 one ulp of the argument moves erfc by about 1e-13 (relative)
    t = np.geomspace(1e-3, 1e3, 241)
    for r0 in (1.0, 2.0):
        exact = np.array([math.erfc(r0 / (2.0 * math.sqrt(u)) * math.sqrt(0.5)) for u in t])
        np.testing.assert_allclose(est.hitting_cdf(t, r0), exact, rtol=1e-13, atol=0)
    assert est.hitting_cdf(0.01, 2.0) == pytest.approx(1.52e-23, rel=1e-2)


def _bessel_moment(p, n_samples, m_steps, seed):
    """E[Y^{p/2}] over the Bessel-bridge samples of Y = int X^2."""
    return est._moment(est.excursion_integrals(n_samples, m_steps, seed) ** (p / 2), p)


def test_excursion_moment_second_moment():
    out = _bessel_moment(2.0, 4096, 1024, 0)
    assert abs(out.estimate - 0.5) < 3 * out.stderr
    assert out.stderr < 0.01


def test_excursion_moment_grid_refinement_small():
    # halving the grid moves the estimate by less than 1%
    a = _bessel_moment(1.0, 4096, 512, 3)
    b = _bessel_moment(1.0, 4096, 1024, 3)
    assert abs(a.estimate - b.estimate) / b.estimate < 0.01


def test_excursion_rejection_route_extrapolates_to_bessel():
    # the oracle's positivity conditioning (a bridge turned at its minimum)
    # is only grid-exact (bias ~ c/sqrt(m)), so compare after Richardson
    # extrapolation across a 4x step ratio; the gate carries the next-order
    # O(1/m) discretization allowance on top of the MC term
    lo = est.excursion_moment_rejection(2.0, n_samples=2048, m_steps=64, seed=1)
    hi = est.excursion_moment_rejection(2.0, n_samples=2048, m_steps=256, seed=2)
    extrap = 2 * hi.estimate - lo.estimate
    se = math.sqrt(4 * hi.stderr**2 + lo.stderr**2)
    assert abs(extrap - 0.5) < 3 * se + 2.0 / 64
    direct = _bessel_moment(2.0, 4096, 1024, 3)
    assert abs(extrap - direct.estimate) < 3 * math.hypot(se, direct.stderr) + 2.0 / 64


def _excursion_laplace(lam):
    """E exp(-lam Y) for Y = int_0^1 X^2, X a normalized excursion.

    Y is the sum of three independent int b^2 over Brownian bridges b, and
    E exp(-lam int b^2) = (x / sinh x)^{1/2} with x = sqrt(2 lam)
    (Cameron-Martin 1945); sinh is taken in log form so large lam cannot
    overflow.
    """
    x = math.sqrt(2.0 * lam)
    log_sinh = x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))
    return math.exp(1.5 * (math.log(x) - log_sinh))


def _excursion_oracle(p):
    """E Y^{p/2}: E Y = 1/2, and for 0 < q < 1
    E Y^q = q / Gamma(1 - q) int_0^inf lam^{-q-1} (1 - E exp(-lam Y)) dlam."""
    q = p / 2.0
    if q == 1.0:
        return 0.5
    val, err = quad(lambda lam: lam ** (-q - 1.0) * (1.0 - _excursion_laplace(lam)), 0.0, math.inf)
    assert err < 1e-7
    return q / math.gamma(1.0 - q) * val


def test_excursion_oracle_values():
    # E Y = 1/2 is the slope of 1 - E exp(-lam Y) at 0, which fixes the power 3/2
    lam = 1e-6
    assert (1.0 - _excursion_laplace(lam)) / lam == pytest.approx(0.5, abs=1e-5)
    assert _excursion_oracle(0.5) == pytest.approx(0.822179, abs=1e-6)
    assert _excursion_oracle(1.0) == pytest.approx(0.686208, abs=1e-6)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_excursion_moments_match_the_laplace_oracle(p):
    # both routes within 3 sigma of the exact moment, plus an O(1/m)
    # discretization allowance of 2/m (at the coarser grid for the
    # Richardson-extrapolated cyclic-shift route, as in the experiment)
    exact = _excursion_oracle(p)
    bessel = _bessel_moment(p, 4096, 512, 4)
    assert abs(bessel.estimate - exact) < 3 * bessel.stderr + 2.0 / 512
    lo = est.excursion_moment_rejection(p, n_samples=2048, m_steps=64, seed=5)
    hi = est.excursion_moment_rejection(p, n_samples=2048, m_steps=256, seed=6)
    extrap = 2 * hi.estimate - lo.estimate
    se = math.sqrt(4 * hi.stderr**2 + lo.stderr**2)
    assert abs(extrap - exact) < 3 * se + 2.0 / 64


_COUNT_CASES = [
    pytest.param("n_samples", {"n_samples": 0}, id="n_samples=0"),
    pytest.param("n_samples", {"n_samples": 2.5}, id="n_samples=2.5"),
    pytest.param("n_samples", {"n_samples": True}, id="n_samples=True"),
    pytest.param("m_steps", {"m_steps": 1}, id="m_steps=1"),
    pytest.param("m_steps", {"m_steps": 2.5}, id="m_steps=2.5"),
]
_P_CASES = [
    pytest.param("p", {"p": float("nan")}, id="p=nan"),
    pytest.param("p", {"p": float("inf")}, id="p=inf"),
    pytest.param("p", {"p": 0.0}, id="p=0"),
]


@pytest.mark.parametrize("route,arg,bad", [
    pytest.param(route, *case.values, id=f"{route}-{case.id}")
    for route, cases in (("bessel", _COUNT_CASES), ("shift", _COUNT_CASES + _P_CASES))
    for case in cases
])
def test_excursion_moments_reject_bad_input(route, arg, bad):
    # n_samples=0 gave NaN with RuntimeWarnings, m_steps=1 a silent 0.0 and
    # p=nan passed the p <= 0 check; the Bessel route returns the samples,
    # so it takes no p
    kw = {"n_samples": 8, "m_steps": 16, "seed": 0, **bad}
    with pytest.raises(ValueError, match=rf"^{arg} must"):
        if route == "bessel":
            est.excursion_integrals(**kw)
        else:
            est.excursion_moment_rejection(**{"p": 2.0, **kw})


def test_excursion_shift_oracle_takes_the_smallest_grid():
    # with m_steps = 2 the bridge is (B_1, 0), and the turn at the minimum
    # leaves |B_1|: the sample is B_1^2 / 2 with B_1 ~ N(0, 1/4)
    out = est.excursion_moment_rejection(2.0, n_samples=20000, m_steps=2, seed=5)
    assert abs(out.estimate - 0.125) < 4 * out.stderr


def test_excursion_samplers_do_not_depend_on_the_chunk_budget(monkeypatch):
    # draws are sample-major and all arithmetic is per row, so no chunk size
    # moves a bit; 37 rows leave an uneven last chunk at every budget here
    monkeypatch.setattr(est, "_moment", lambda v, p: v)  # the samples themselves

    def both():
        return (est.excursion_integrals(37, 64, 3),
                est.excursion_moment_rejection(2.0, n_samples=37, m_steps=64, seed=3))

    ref = both()
    for budget in (1, 3 * 64 * 5 + 1, 64 * 7):
        monkeypatch.setattr(est, "_CHUNK_NORMALS", budget)
        for a, b in zip(ref, both()):
            assert np.array_equal(a, b)


def test_excursion_integrals_draw_in_bounded_chunks():
    # a chunk of at most 2**20 normals keeps a few 8 MB temporaries; one
    # chunk of 2**22 // m_steps rows held about 400 MB at this size
    tracemalloc.start()
    try:
        est.excursion_integrals(2048, 2048, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_martingale_lower_bound_check_cases():
    rng = np.random.default_rng(20)
    m = 40000
    # standard BM at time 1: premise holds, bound passes
    r = est.martingale_lower_bound_check(rng.standard_normal(m), np.ones(m),
                                         beta=1.0, p=0.9)
    assert r.ok and r.premise_ok
    assert abs(r.estimate - math.sqrt(2 / math.pi)) < 4 * r.stderr
    assert r.bound == pytest.approx(est.a_p_constant(0.9))
    # premise violation is reported, not raised
    r2 = est.martingale_lower_bound_check(rng.standard_normal(m),
                                          np.full(m, 0.5), beta=1.0, p=0.5)
    assert not r2.premise_ok
    # a cheating martingale scaled far below the bound fails the check
    r3 = est.martingale_lower_bound_check(0.01 * rng.standard_normal(m),
                                          np.ones(m), beta=1.0, p=0.9)
    assert not r3.ok and r3.premise_ok


@pytest.mark.parametrize("kw,arg", [
    pytest.param({"terminal": [1.0, np.nan, 0.5]}, "terminal must be finite", id="terminal=nan"),
    pytest.param({"quad_var": [1.0, np.inf, 1.0]}, "quad_var must be finite", id="quad_var=inf"),
    pytest.param({"terminal": [], "quad_var": []}, "terminal must hold at least 2", id="empty"),
    pytest.param({"terminal": [1.0], "quad_var": [1.0]}, "terminal must hold at least 2", id="one"),
    pytest.param({"beta": math.nan}, "beta must be", id="beta=nan"),
    pytest.param({"beta": -1.0}, "beta must be", id="beta=-1"),
    pytest.param({"beta": math.inf}, "beta must be", id="beta=inf"),
    pytest.param({"beta": 0.0, "p": 5.0}, "p must be", id="beta=0,p=5"),
    pytest.param({"p": 0.0}, "p must be", id="p=0"),
    pytest.param({"p": 1.0}, "p must be", id="p=1"),
    pytest.param({"p": math.nan}, "p must be", id="p=nan"),
])
def test_martingale_lower_bound_check_rejects_bad_input(kw, arg):
    # a NaN sample gave estimate NaN, beta=nan passed against a bound of 0,
    # empty samples warned "Mean of empty slice" and beta=0 skipped the p check
    args = {"terminal": [1.0, -1.0, 0.5], "quad_var": [1.0, 1.0, 1.0],
            "beta": 1.0, "p": 0.5, **kw}
    with pytest.raises(ValueError, match=f"^{arg}"):
        est.martingale_lower_bound_check(**args)
