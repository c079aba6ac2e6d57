"""Estimators against closed forms, quadrature, and brute-force oracles."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from heiscouple import estimators as est
from heiscouple import group as grp
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


def test_excursion_moment_second_moment():
    out = est.excursion_moment(2.0, n_samples=4096, m_steps=1024, seed=0)
    assert abs(out.estimate - 0.5) < 3 * out.stderr
    assert out.stderr < 0.01


def test_excursion_moment_grid_refinement_small():
    # halving the grid moves the estimate by less than 1%
    a = est.excursion_moment(1.0, n_samples=4096, m_steps=512, seed=3)
    b = est.excursion_moment(1.0, n_samples=4096, m_steps=1024, seed=3)
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
    direct = est.excursion_moment(2.0, n_samples=4096, m_steps=1024, seed=3)
    assert abs(extrap - direct.estimate) < 3 * math.hypot(se, direct.stderr) + 2.0 / 64


@pytest.mark.parametrize("arg,bad", [
    pytest.param("n_samples", {"n_samples": 0}, id="n_samples=0"),
    pytest.param("n_samples", {"n_samples": 2.5}, id="n_samples=2.5"),
    pytest.param("n_samples", {"n_samples": True}, id="n_samples=True"),
    pytest.param("m_steps", {"m_steps": 1}, id="m_steps=1"),
    pytest.param("m_steps", {"m_steps": 2.5}, id="m_steps=2.5"),
    pytest.param("p", {"p": float("nan")}, id="p=nan"),
    pytest.param("p", {"p": float("inf")}, id="p=inf"),
    pytest.param("p", {"p": 0.0}, id="p=0"),
])
@pytest.mark.parametrize("route", ["bessel", "shift"])
def test_excursion_moments_reject_bad_input(route, arg, bad):
    # n_samples=0 gave NaN with RuntimeWarnings, m_steps=1 a silent 0.0 and
    # p=nan passed the p <= 0 check
    fn = est.excursion_moment if route == "bessel" else est.excursion_moment_rejection
    kw = {"p": 2.0, "n_samples": 8, "m_steps": 16, **bad}
    with pytest.raises(ValueError, match=rf"^{arg} must"):
        fn(**kw)


def test_excursion_shift_oracle_takes_the_smallest_grid():
    # with m_steps = 2 the bridge is (B_1, 0), and the turn at the minimum
    # leaves |B_1|: the sample is B_1^2 / 2 with B_1 ~ N(0, 1/4)
    out = est.excursion_moment_rejection(2.0, n_samples=20000, m_steps=2, seed=5)
    assert abs(out.estimate - 0.125) < 4 * out.stderr


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
