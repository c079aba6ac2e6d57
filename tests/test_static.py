"""Fixed-time couplings and the conditional vertical law."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad
from scipy.optimize import linear_sum_assignment
from scipy.special import ndtr
from scipy.stats import ks_2samp, kstest

from heiscouple import estimators as est
from heiscouple import group as grp
from heiscouple import simulate as sim
from heiscouple import static as stc

EPS = np.finfo(float).eps


def _cf_density(z, q, t, n):
    # direct oscillatory quadrature of the conditional characteristic
    # function; slow but independent of the FFT route
    def integrand(u):
        x = u * t / 2.0
        ratio = x / math.sinh(x) if x != 0 else 1.0
        expo = (q / (2 * t)) * (1.0 - (x / math.tanh(x) if x != 0 else 1.0))
        return ratio**n * math.exp(expo) * math.cos(u * z)

    val, _ = quad(integrand, 0, 80.0, limit=400)
    return val / math.pi


def test_conditional_density_normalization_and_moments():
    for n, bnorm2, t in ((1, 0.7, 1.0), (2, 3.0, 0.5)):
        b = np.zeros(2 * n)
        b[0] = math.sqrt(bnorm2)
        sigma = math.sqrt((t / 12.0) * (n * t + bnorm2))
        zs = np.linspace(-12 * sigma, 12 * sigma, 8001)
        f = stc.conditional_vertical_density(zs, b, t=t)
        dz = zs[1] - zs[0]
        assert abs(np.trapezoid(f, dx=dz) - 1.0) < 1e-6
        # second moment is limited by linear interpolation off the
        # internal standardized grid (~2e-2 sigma spacing)
        assert abs(np.trapezoid(zs**2 * f, dx=dz) - sigma**2) / sigma**2 < 2e-4
        # even and unimodal
        assert np.allclose(f, f[::-1], atol=1e-12)
        mid = len(zs) // 2
        assert np.all(np.diff(f[mid:]) <= 1e-12)


def test_conditional_density_matches_direct_quadrature():
    n, q, t = 1, 1.3, 1.0
    b = np.array([math.sqrt(q), 0.0])
    for z in (0.0, 0.1, 0.4, 1.0):
        fft_val = stc.conditional_vertical_density(np.array([z]), b, t=t)[0]
        ref = _cf_density(z, q, t, n)
        assert abs(fft_val - ref) < 2e-4


# ---------------------------------------------------------------------------
# the tabulated conditional law behind the density and translation plans

_LAW_R = [0.0, 0.3, 7.0, 50.0, 1e4]  # r = |b|^2 / t; only r = 0 sits on a node


def _endpoints(r, t, n, m):
    # m copies of an endpoint with |b|^2 = r t, spread over the coordinates
    return np.full((m, 2 * n), math.sqrt(r * t / (2 * n)))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", _LAW_R)
def test_law_table_density_matches_direct_rows(n, r):
    t = 0.7
    at = stc._law_at(_endpoints(r, t, n, 1), t)
    sigma = at.sigma[0]
    z_grid, rows, _ = stc._density_rows(np.array([r * t]), t, n)
    half = z_grid[stc._M_GRID // 2:]
    table = at.density(sigma * half)
    assert np.abs(table - rows[0, stc._M_GRID // 2:]).max() < 1e-5
    for zs in (0.0, 0.5, 1.5):
        f = at.density(np.array([zs * sigma]))[0] / sigma
        assert abs(f - _cf_density(zs * sigma, r * t, t, n)) < 2e-4


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("r", _LAW_R)
def test_tabulated_draws_follow_the_conditional_density(n, r):
    t = 1.3
    h = _endpoints(r, t, n, 200_000)
    z = stc._law_at(h, t).quantile(np.random.default_rng(60 + n).standard_normal(len(h)))
    sigma = math.sqrt((t / 12.0) * (n * t + r * t))
    zs = np.linspace(-14.0, 14.0, 28001)
    pdf = stc.conditional_vertical_density(zs * sigma, h[0], t=t) * sigma
    cdf = cumulative_trapezoid(pdf, zs, initial=0.0)
    cdf /= cdf[-1]
    assert kstest(z / sigma, lambda u: np.interp(u, zs, cdf)).pvalue > 1e-3


@pytest.mark.parametrize("n,r", [(1, 0.3), (2, 7.0)])
def test_tabulated_draws_match_fine_bridges(n, r):
    # an independent route to the same law: discrete bridges at 8192 steps
    t = 1.0
    h = _endpoints(r, t, n, 200_000)
    z = stc._law_at(h, t).quantile(np.random.default_rng(70 + n).standard_normal(len(h)))
    bridge = stc.sample_levy_area_given_endpoint(h[:1500], t=t, m_steps=8192, seed=71)
    assert ks_2samp(z, bridge).pvalue > 1e-3


def test_law_table_normal_score_map_and_its_tails():
    # at r = 0 on H^1 the law is explicit: Z given b = 0 has CDF
    # (1 + tanh(pi z / t)) / 2, so T(g) = (sqrt(12)/2pi) log((1 - S)/S),
    # S = Phi(-g), in units of sigma = t / sqrt(12)
    at = stc._law_at(np.zeros((1, 2)), 1.0)
    g_max, cells = stc._G_MAX, stc._G_CELLS
    g = np.linspace(0.0, g_max, 701)
    tail = ndtr(-g)
    exact = (math.sqrt(12.0) / (2.0 * math.pi)) * np.log((1.0 - tail) / tail)
    mapped = at.quantile(g) / at.sigma
    assert np.abs(mapped - exact).max() < 1e-4
    assert np.array_equal(at.quantile(-g), -at.quantile(g))
    # past the grid the map continues with the slope of its last cell
    edge = at.quantile(np.array([g_max - g_max / cells, g_max]))
    slope = (edge[1] - edge[0]) / (g_max / cells)
    far = np.array([g_max + 0.5, g_max + 3.0, 40.0])
    assert np.allclose(at.quantile(far), edge[1] + slope * (far - g_max), rtol=1e-12)
    assert np.all(np.diff(at.quantile(np.linspace(-40.0, 40.0, 4001))) > 0)


def test_law_table_retains_little_and_is_built_lazily():
    tracemalloc.start()
    try:
        law = stc._law_table.__wrapped__(1)  # a build outside the cache
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(arr.nbytes for arr in law) <= retained <= 3 * 2**20
    assert peak < 16 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"
    assert not any(arr.flags.writeable for arr in law)
    code = ("import heiscouple.static as s; "
            "assert s._law_table.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def test_scipy_loads_only_where_it_is_used():
    # the Euler engines, the exact reflection runner and `--list` need numpy
    # alone; the assignment plan and the Hungarian estimator load scipy then
    code = """
import contextlib, io, sys
import numpy as np
import heiscouple
from heiscouple import cli, coupling, estimators, simulate, static
subs = ("scipy.special", "scipy.optimize", "scipy.stats", "scipy.integrate")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["--list"]) == 0
a, ap = np.zeros(3), np.array([1.0, 0.0, 0.5])
for scheme in ("reduced", "full"):
    simulate.simulate_ensemble(coupling.reflection_policy(), a, ap, T=0.1, n_paths=8,
                               dt=0.01, scheme=scheme)
simulate.simulate_reflection_exact(r0=1.0, T=0.1, n_paths=8)
loaded = [m for m in subs if m in sys.modules]
assert not loaded, f"loaded {loaded}"
smp = static.static_couple(a, ap, n_samples=4, m_bridge=4, plan="assignment")
assert smp.n_samples == 4
x = np.arange(4.0)
assert estimators.empirical_wasserstein(x, x + 1.0, p=1.0) == 1.0
"""
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


@pytest.mark.parametrize("arg,kw", [
    pytest.param("t", {"t": -1.0}, id="t=-1"),
    pytest.param("t", {"t": 0.0}, id="t=0"),
    pytest.param("b", {"b": np.array([np.nan, 0.3])}, id="b=nan"),
    pytest.param("b", {"b": np.zeros(0)}, id="b=empty"),
])
def test_conditional_density_rejects_bad_input(arg, kw):
    kw = {"z": np.zeros(2), "b": np.array([0.5, 0.3]), **kw}
    with pytest.raises(ValueError, match=rf"^{arg} must"):
        stc.conditional_vertical_density(**kw)


def test_bridge_area_sampler_variance_and_law():
    t = 1.0
    b = np.array([1.2, -0.3])
    q = float((b**2).sum())
    m = 6000
    areas = stc.sample_levy_area_given_endpoint(np.broadcast_to(b, (m, 2)), t=t, seed=4)
    var_ref = (t / 12.0) * (1 * t + q)
    v = areas.var(ddof=1)
    assert abs(areas.mean()) < 3 * areas.std(ddof=1) / math.sqrt(m)
    assert abs(v - var_ref) < 3 * v * math.sqrt(2.0 / (m - 1))
    # one-sample KS against the FFT density via its numerical CDF
    sigma = math.sqrt(var_ref)
    zs = np.linspace(-14 * sigma, 14 * sigma, 16001)
    pdf = stc.conditional_vertical_density(zs, b, t=t)
    cdf = np.cumsum(pdf) * (zs[1] - zs[0])
    cdf /= cdf[-1]
    res = kstest(areas, lambda u: np.interp(u, zs, cdf))
    assert res.pvalue > 1e-3


def test_bridge_area_dilation_scaling():
    # A_t given endpoint b has the law of t * (A_1 given endpoint b/sqrt(t))
    t = 4.0
    b = np.array([0.8, 0.5])
    m = 4000
    big = stc.sample_levy_area_given_endpoint(np.broadcast_to(b, (m, 2)), t=t, seed=5)
    small = stc.sample_levy_area_given_endpoint(
        np.broadcast_to(b / math.sqrt(t), (m, 2)), t=1.0, seed=6
    )
    assert ks_2samp(big, t * small).pvalue > 1e-3


def test_bridge_sampler_validation():
    with pytest.raises(ValueError, match="even horizontal"):
        stc.sample_levy_area_given_endpoint(np.zeros(3))
    with pytest.raises(ValueError, match="positive"):
        stc.sample_levy_area_given_endpoint(np.zeros(2), t=0.0)



_BAD_SEEDS = [
    pytest.param("seed", {"seed": seed}, id=f"seed={name}")
    for name, seed in (("1.5", 1.5), ("-1", -1), ("2**64", 2**64), ("True", True),
                       ("nan", float("nan")))
]


@pytest.mark.parametrize("arg,bad", [
    pytest.param("t", {"t": float("nan")}, id="t=nan"),
    pytest.param("t", {"t": float("inf")}, id="t=inf"),
    pytest.param("m_steps", {"m_steps": 0}, id="m_steps=0"),
    pytest.param("m_steps", {"m_steps": 2.5}, id="m_steps=2.5"),
    *_BAD_SEEDS,
])
def test_bridge_sampler_rejects_bad_input(arg, bad):
    with pytest.raises(ValueError, match=rf"^{arg} must"):
        stc.sample_levy_area_given_endpoint(np.ones((3, 2)), **bad)

def _pin_gate(smp, a, aprime):
    delta_h = grp.horizontal(grp.mul(grp.inverse(a), aprime))
    dev = np.abs(smp.horizontal_offset() - delta_h)
    scale = np.maximum(1.0, np.abs(grp.horizontal(smp.left)))
    return (dev / scale).max()


@pytest.mark.parametrize("plan,kw", [
    ("density", {}),
    ("assignment", {"m_bridge": 64, "m_steps": 256}),
])
def test_static_couple_pins_horizontals(plan, kw):
    a = grp.point([0.3], [-0.2], 0.1)
    ap = grp.point([1.0], [0.4], -0.3)
    smp = stc.static_couple(a, ap, t=1.0, n_samples=400, seed=7, plan=plan, **kw)
    # pinned to one rounding of the group product
    assert _pin_gate(smp, a, ap) <= 4 * EPS
    assert smp.meta["plan"] == plan


def test_static_couple_cost_is_quasidistance():
    a = grp.identity(1)
    ap = grp.point([0.5], [0.0], 0.2)
    smp = stc.static_couple(a, ap, t=1.0, n_samples=500, seed=8)
    ref = grp.quasidistance(smp.left, smp.right)
    assert np.max(np.abs(smp.cost - ref) / np.maximum(1.0, ref)) < 1e-12


def test_static_couple_left_marginal_gaussian():
    a = grp.point([0.4, -1.0], [0.0, 0.3], 0.25)
    ap = grp.mul(a, grp.point([0.6, 0.0], [0.0, 0.0], 0.0))
    t = 2.0
    smp = stc.static_couple(a, ap, t=t, n_samples=6000, seed=9)
    hor = grp.horizontal(smp.left)
    mean_err = np.abs(hor.mean(axis=0) - grp.horizontal(a))
    assert np.all(mean_err < 3 * math.sqrt(t / 6000))
    v = hor.var(axis=0, ddof=1)
    assert np.all(np.abs(v - t) < 3 * t * math.sqrt(2.0 / 5999))


def test_static_couple_right_marginal_matches_fresh_run():
    # the transported right leg must have the plain time-t law started at
    # a'; compare per-coordinate against an independent direct draw (which
    # is exactly what the left leg of a fresh coupling is)
    a = grp.identity(1)
    ap = grp.point([0.8], [0.0], 0.0)
    t = 1.0
    smp = stc.static_couple(a, ap, t=t, n_samples=6000, seed=10)
    fresh = stc.static_couple(ap, grp.mul(ap, grp.point([1.0], [0.0], 0.0)),
                              t=t, n_samples=6000, seed=11)
    for k in range(3):
        p = ks_2samp(smp.right[:, k], fresh.left[:, k]).pvalue
        assert p > 1e-3, f"coordinate {k}: KS p = {p}"


def test_static_couple_isometry_equivariance():
    # left-translating both start points transports every sample by the
    # same isometry (same seed, same canonical draws)
    a = grp.point([0.2], [0.1], 0.0)
    ap = grp.point([0.9], [-0.4], 0.3)
    g = grp.point([1.5], [2.0], -0.7)
    s1 = stc.static_couple(a, ap, t=1.0, n_samples=200, seed=12)
    s2 = stc.static_couple(grp.mul(g, a), grp.mul(g, ap), t=1.0, n_samples=200, seed=12)
    assert np.allclose(grp.mul(g, s1.left), s2.left, atol=1e-9)
    assert np.allclose(grp.mul(g, s1.right), s2.right, atol=1e-9)
    assert np.allclose(s1.cost, s2.cost, atol=1e-9)


def test_static_couple_pure_vertical_offset():
    # rho = 0: horizontals coincide, the central offset rides on the right
    a = grp.identity(1)
    ap = grp.point([0.0], [0.0], 0.5)
    smp = stc.static_couple(a, ap, t=1.0, n_samples=300, seed=13)
    assert np.allclose(smp.horizontal_offset(), 0.0, atol=1e-15)
    assert np.allclose(smp.cost, math.sqrt(0.5), rtol=1e-12)


def test_baseline_translation_cost_formula():
    a = grp.identity(1)
    ap = grp.point([0.3], [0.0], 0.0)
    smp = stc.baseline_translation_couple(a, ap, t=1.0, n_samples=400, seed=14)
    ref = grp.quasidistance(smp.left, smp.right)
    assert np.max(np.abs(smp.cost - ref) / np.maximum(1.0, ref)) < 1e-12
    assert smp.meta["plan"] == "translation"
    assert _pin_gate(smp, a, ap) <= 4 * EPS


def test_density_plan_beats_baseline_at_small_offset():
    a = grp.identity(1)
    ap = grp.point([1e-3], [0.0], 0.0)
    good = stc.static_couple(a, ap, t=1.0, n_samples=3000, seed=15)
    base = stc.baseline_translation_couple(a, ap, t=1.0, n_samples=3000, seed=15)
    assert good.cost.mean() < 0.3 * base.cost.mean()


def test_static_couple_validation():
    a = grp.identity(1)
    with pytest.raises(ValueError, match="plan"):
        stc.static_couple(a, a, plan="magic")
    with pytest.raises(ValueError, match="positive"):
        stc.static_couple(a, a, t=-1.0)
    with pytest.raises(ValueError, match="equal shape"):
        stc.static_couple(a, grp.identity(2))


_FRONTS = {
    "density": lambda **kw: stc.static_couple(plan="density", **kw),
    "assignment": lambda **kw: stc.static_couple(plan="assignment", **kw),
    "translation": stc.baseline_translation_couple,
}
_BAD_INPUTS = [
    pytest.param("n_samples", {"n_samples": 0}, id="n_samples=0"),
    pytest.param("n_samples", {"n_samples": 2.5}, id="n_samples=2.5"),
    pytest.param("n_samples", {"n_samples": True}, id="n_samples=True"),
    pytest.param("m_steps", {"m_steps": 0}, id="m_steps=0"),
    pytest.param("m_steps", {"m_steps": 2.5}, id="m_steps=2.5"),
    pytest.param("t", {"t": float("nan")}, id="t=nan"),
    pytest.param("t", {"t": float("inf")}, id="t=inf"),
    pytest.param("a", {"a": grp.point([np.nan], [0.0], 0.0)}, id="a=nan"),
    pytest.param("aprime", {"aprime": grp.point([0.5], [0.0], np.nan)}, id="aprime=nan"),
    *_BAD_SEEDS,
]


@pytest.mark.parametrize("front", sorted(_FRONTS))
@pytest.mark.parametrize("arg,bad", _BAD_INPUTS)
def test_couplings_reject_bad_input(front, arg, bad):
    kw = {"a": grp.identity(1), "aprime": grp.point([0.5], [0.0], 0.0),
          "n_samples": 4, "m_steps": 8, **bad}
    with pytest.raises(ValueError, match=rf"^{arg} must"):
        _FRONTS[front](**kw)


def test_assignment_plan_rejects_empty_atom_set():
    with pytest.raises(ValueError, match="^m_bridge must"):
        stc.static_couple(grp.identity(1), grp.point([0.5], [0.0], 0.0), n_samples=4,
                          m_steps=8, plan="assignment", m_bridge=0)
    # the density plan draws no atoms, so m_bridge is not its input
    smp = stc.static_couple(grp.identity(1), grp.point([0.5], [0.0], 0.0), n_samples=4,
                            m_steps=8, m_bridge=0)
    assert smp.meta["m_bridge"] is None


@pytest.mark.parametrize("m_bridge", [2.5, True, None])
@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_assignment_plan_rejects_non_integer_atom_count(m_bridge, rho):
    a, ap = grp.identity(1), grp.point([rho], [0.0], 0.0)
    with pytest.raises(ValueError, match="^m_bridge must"):
        stc.static_couple(a, ap, n_samples=4, m_steps=8, plan="assignment", m_bridge=m_bridge)
    # the density plan draws no atoms, so m_bridge is not its input
    smp = stc.static_couple(a, ap, n_samples=4, m_steps=8, m_bridge=m_bridge)
    assert smp.meta["m_bridge"] is None and smp.meta["m_steps"] is None


def test_couplings_accept_numpy_integer_counts():
    a, ap = grp.identity(1), grp.point([0.5], [0.0], 0.0)
    smp = stc.static_couple(a, ap, n_samples=np.int64(4), m_steps=np.int32(8),
                            m_bridge=np.uint8(3), plan="assignment", seed=2)
    ref = stc.static_couple(a, ap, n_samples=4, m_steps=8, m_bridge=3, plan="assignment",
                            seed=2)
    assert np.array_equal(smp.right, ref.right)
    assert (smp.meta["m_steps"], smp.meta["m_bridge"]) == (None, 3)


# ---------------------------------------------------------------------------
# one pipeline: every plan draws its left leg, and the assignment plan its
# atoms, from the tabulated law; m_steps is validated and unused


@pytest.mark.parametrize("offset", [([0.0], [0.0], 0.0), ([0.3], [-0.4], 0.2)])
@pytest.mark.parametrize("n", [1, 2])
def test_plans_share_the_left_leg(n, offset):
    a = grp.point([0.3, -1.1][:n], [0.7, 0.2][:n], -0.45)
    x, y, z = offset
    ap = grp.mul(a, grp.point(x + [0.0] * (n - 1), y + [0.0] * (n - 1), z))
    kw = {"a": a, "aprime": ap, "t": 0.9, "n_samples": 50, "seed": 21}
    density = stc.static_couple(plan="density", **kw).left
    assignment = stc.static_couple(plan="assignment", m_bridge=8, **kw).left
    translation = stc.baseline_translation_couple(**kw).left
    assert density.tobytes() == assignment.tobytes() == translation.tobytes()


def test_assignment_plan_ignores_m_steps():
    a, ap = grp.point([0.1], [0.2], 0.0), grp.point([0.6], [-0.1], 0.3)
    coarse, fine = (stc.static_couple(a, ap, t=0.7, n_samples=20, seed=22, plan="assignment",
                                      m_bridge=16, m_steps=m_steps) for m_steps in (8, 1024))
    for arr in ("left", "right", "cost"):
        assert getattr(coarse, arr).tobytes() == getattr(fine, arr).tobytes()
    assert coarse.meta == fine.meta and coarse.meta["m_steps"] is None


@pytest.mark.parametrize("n", [1, 2])
def test_assignment_atoms_follow_the_conditional_density(n, monkeypatch):
    # one sample with many atoms; the exact solve is stubbed out, since only
    # the atoms it receives are under test
    atoms = []

    def record(x, shift):
        atoms.append(x.copy())
        return None, np.arange(x.size)

    monkeypatch.setattr(stc, "_sqrt_shift_assignment", record)
    a = grp.identity(n)
    ap = grp.point([0.5] + [0.0] * (n - 1), [0.0] * n, 0.0)
    t = 1.2
    smp = stc.static_couple(a, ap, t=t, n_samples=1, seed=23 + n, plan="assignment",
                            m_bridge=50_000)
    (zs,) = atoms
    b = grp.horizontal(smp.left[0])
    sigma = math.sqrt((t / 12.0) * (n * t + b @ b))
    grid = np.linspace(-14.0, 14.0, 28001)
    pdf = stc.conditional_vertical_density(grid * sigma, b, t=t) * sigma
    cdf = cumulative_trapezoid(pdf, grid, initial=0.0)
    cdf /= cdf[-1]
    assert kstest(zs / sigma, lambda u: np.interp(u, grid, cdf)).pvalue > 1e-3


def test_transport_cost_sqrt_1d_brute_force():
    # a sample against its shift, the sqrt|dx| transport cost of the static
    # couplings' vertical: sqrt(W_1/2) is the mean matched sqrt cost
    rng = np.random.default_rng(16)
    for _ in range(25):
        x = rng.standard_normal(6)
        s = rng.uniform(-2, 2)
        mine = math.sqrt(est.empirical_wasserstein(x, x + s, p=0.5))
        best = min(
            np.mean([math.sqrt(abs(x[i] - x[j] - s)) for i, j in enumerate(perm)])
            for perm in itertools.permutations(range(6))
        )
        assert math.isclose(mine, best, rel_tol=1e-10)
    with pytest.raises(ValueError, match="limited"):
        est.empirical_wasserstein(np.zeros(600), np.zeros(600) + 0.1, p=0.5)
    with pytest.raises(ValueError, match="empty"):
        est.empirical_wasserstein(np.zeros(0), np.zeros(0) + 0.1, p=0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^samples1 must be finite"):
            est.empirical_wasserstein(np.array([bad, 1.0]), np.array([0.1, 1.1]), p=0.5)
        with pytest.raises(ValueError, match="^samples2 must be finite"):
            est.empirical_wasserstein(np.array([0.0, 1.0]), np.array([0.0, 1.0]) + bad, p=0.5)


def test_sorted_matching_suboptimal_for_sqrt_cost():
    # documents why the assignment solver is needed at all: for concave
    # costs the monotone (sorted) coupling can be strictly worse
    x = np.array([0.0, 1.0])
    s = 1.0
    y = x + s
    sorted_cost = np.mean(np.sqrt(np.abs(x - y)))
    mine = math.sqrt(est.empirical_wasserstein(x, y, p=0.5))
    assert mine < sorted_cost - 0.2


# ---------------------------------------------------------------------------
# golden digests: the couplings' output, bit for bit
#
# SHA-256 (first 16 hex digits) of left, right, cost and sorted(meta.items()),
# recorded with numpy 2.4.6 Philox streams on x86-64.  A refactor of the
# couplings must leave every digest unchanged; a deliberate change to how the
# streams are consumed or to the arithmetic must re-record them and say so.
# The density and translation digests were re-recorded when their left
# vertical moved from discrete bridges to the tabulated exact law, and the
# assignment digests when its left vertical and atoms did the same.

# right-multiplied offsets a^{-1} a': rho = 0 with and without a central
# part, a small and a unit horizontal offset, and a mixed one
_OFFSETS = {
    "same": ([0.0], [0.0], 0.0),
    "central": ([0.0], [0.0], 0.5),
    "small": ([6e-4], [-8e-4], 0.0),
    "unit": ([0.6], [0.8], 0.0),
    "mixed": ([-0.2], [0.25], -0.4),
}

_PLANS = {
    "density": lambda a, ap: stc.static_couple(
        a, ap, t=0.8, n_samples=40, seed=31, plan="density", m_steps=32
    ),
    "assignment": lambda a, ap: stc.static_couple(
        a, ap, t=0.8, n_samples=6, seed=32, plan="assignment", m_bridge=12, m_steps=16
    ),
    "translation": lambda a, ap: stc.baseline_translation_couple(
        a, ap, t=0.8, n_samples=40, seed=33, m_steps=32
    ),
}


def _golden_sample(case, plans=_PLANS):
    plan, offset, n = case.split("/")
    n = int(n[1:])
    x, y, z = _OFFSETS[offset]
    a = grp.point([0.3, -1.1][:n], [0.7, 0.2][:n], -0.45)
    off = grp.point(x + [0.0] * (n - 1), y + [0.0] * (n - 1), z)
    return plans[plan](a, grp.mul(a, off))


def _static_digest(smp):
    h = hashlib.sha256()
    for arr in (smp.left, smp.right, smp.cost):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(repr(sorted(smp.meta.items())).encode())
    return h.hexdigest()[:16]


_STATIC_GOLDEN = {
    "assignment/central/n1": "08f354697c1089e8",
    "assignment/central/n2": "c8f90285ae9bbdbd",
    "assignment/mixed/n1": "6184875acbb26c2b",
    "assignment/mixed/n2": "9a626b9f2a30d18a",
    "assignment/same/n1": "1ca4481831ddf0d9",
    "assignment/same/n2": "dec85f564ff79e7e",
    "assignment/small/n1": "a2eba31efc4b5629",
    "assignment/small/n2": "ea090e0d5cef7fbb",
    "assignment/unit/n1": "37efae8c5e3431fa",
    "assignment/unit/n2": "e41478de388a639d",
    "density/central/n1": "b1b26a37d0aea3cb",
    "density/central/n2": "ac2256be75430107",
    "density/mixed/n1": "01fb4aa0d35c48ec",
    "density/mixed/n2": "7621d1fb4f7ab25e",
    "density/same/n1": "0bf10f8f49f30ffe",
    "density/same/n2": "5565c72b0873322f",
    "density/small/n1": "915acf842b00e0c0",
    "density/small/n2": "51cd214e289f8047",
    "density/unit/n1": "eef9fd6ab08340cc",
    "density/unit/n2": "d018da637fb8d3f1",
    "translation/central/n1": "a0e044f90e0c3c1b",
    "translation/central/n2": "b18bc61810cddf73",
    "translation/mixed/n1": "b47a1cb9d0fa9f61",
    "translation/mixed/n2": "f0c7375e3e608a7e",
    "translation/same/n1": "2020b850e0ce90d7",
    "translation/same/n2": "0c96ba19ddfae84d",
    "translation/small/n1": "6252fd821fdd333a",
    "translation/small/n2": "0a1cb1324be94f2f",
    "translation/unit/n1": "18504863f48ce30f",
    "translation/unit/n2": "4ae74a3735ed2316",
}


@pytest.mark.parametrize("case", sorted(_STATIC_GOLDEN))
def test_static_golden_digests(case):
    assert _static_digest(_golden_sample(case)) == _STATIC_GOLDEN[case]


# chunk-crossing goldens: inputs that spanned several sample chunks of the
# bridge sampler and of the density plan when both were streamed in chunks.
# Recorded the same way; draws are sample-major, so the chunk sizes must not
# move a single bit.  No coupling chunks or runs a bridge any more; every
# case was re-recorded with the tabulated law, and the assignment cases keep
# m_steps=1024, which is validated and unused.

_CHUNK_PLANS = {
    "density": lambda a, ap: stc.static_couple(
        a, ap, t=0.8, n_samples=700, seed=34, plan="density", m_steps=32
    ),
    "assignment": lambda a, ap: stc.static_couple(
        a, ap, t=0.8, n_samples=3, seed=35, plan="assignment", m_bridge=40, m_steps=1024
    ),
    "translation": lambda a, ap: stc.baseline_translation_couple(
        a, ap, t=0.8, n_samples=700, seed=36, m_steps=256
    ),
}

_CHUNK_GOLDEN = {
    "assignment/mixed/n1": "17b5d88faa62c6b4",
    "assignment/unit/n2": "467668795b778f7e",
    "density/mixed/n1": "c04e84d50837b602",
    "density/mixed/n2": "022b336f509a423c",
    "density/unit/n1": "f6e0ce79041d0529",
    "density/unit/n2": "427c6ab536c198c0",
    "translation/mixed/n2": "1faaf3953640a840",
}


@pytest.mark.parametrize("case", sorted(_CHUNK_GOLDEN))
def test_static_golden_digests_across_chunks(case):
    smp = _golden_sample(case, _CHUNK_PLANS)
    assert _static_digest(smp) == _CHUNK_GOLDEN[case]


# What a change to the vertical draw must not move.  The canonical horizontal
# endpoints are the first normals of every stream, so the left horizontals of
# the density and translation cases, and the translation plan's cost (a
# function of those endpoints alone), are fixed whatever the vertical law's
# sampler.  Keys are "<table>:<case>"; values are the left-horizontal digest
# and, for translation, the cost digest.
_PINNED_GOLDEN = {
    "chunk:density/mixed/n1": ("85ad0c8a42f80277", None),
    "chunk:density/mixed/n2": ("eff48bbf50c11a3a", None),
    "chunk:density/unit/n1": ("c3cc151ef17b9d82", None),
    "chunk:density/unit/n2": ("317166ad89df1eb9", None),
    "chunk:translation/mixed/n2": ("2fa7d399a34e72bc", "56a566bf41f81a85"),
    "static:density/central/n1": ("64a05c48f4d8e169", None),
    "static:density/central/n2": ("e1c3dd847786fb22", None),
    "static:density/mixed/n1": ("528ea46e5c71b1fc", None),
    "static:density/mixed/n2": ("1c96e8f7fbc56729", None),
    "static:density/same/n1": ("64a05c48f4d8e169", None),
    "static:density/same/n2": ("e1c3dd847786fb22", None),
    "static:density/small/n1": ("536e676eef516c27", None),
    "static:density/small/n2": ("88fe7e148a3910d7", None),
    "static:density/unit/n1": ("412fc2d3e4c871da", None),
    "static:density/unit/n2": ("243d1a4300c7c80a", None),
    "static:translation/central/n1": ("ecb82586e0f79a15", "315d86d1b7c8b530"),
    "static:translation/central/n2": ("e7a033d237753bc7", "315d86d1b7c8b530"),
    "static:translation/mixed/n1": ("a097fc58cfe199ab", "7b9409c6680fa77b"),
    "static:translation/mixed/n2": ("e8b2cb20e0ef5d30", "673b453600c9c767"),
    "static:translation/same/n1": ("ecb82586e0f79a15", "7b6436b0c98f6238"),
    "static:translation/same/n2": ("e7a033d237753bc7", "7b6436b0c98f6238"),
    "static:translation/small/n1": ("14ad75f597843a5d", "745f3e8e8ade76f3"),
    "static:translation/small/n2": ("8138542baaa96e7d", "5e32d021266b1a0f"),
    "static:translation/unit/n1": ("65b1d5210abd582e", "e7783e8fd2351766"),
    "static:translation/unit/n2": ("4f5fcbf594bb0800", "87ab1d2cd384a5e4"),
}


def _array_digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(_PINNED_GOLDEN))
def test_left_horizontals_and_translation_cost_golden(key):
    table, case = key.split(":")
    smp = _golden_sample(case, _CHUNK_PLANS if table == "chunk" else _PLANS)
    left_h, cost = _PINNED_GOLDEN[key]
    assert _array_digest(grp.horizontal(smp.left)) == left_h
    if cost is not None:
        assert _array_digest(smp.cost) == cost


_BRIDGE_GOLDEN = {1: "95396d99d72ea0cc", 2: "7229055d67105de5"}


@pytest.mark.parametrize("n", sorted(_BRIDGE_GOLDEN))
def test_bridge_sampler_golden_digests(n):
    # 300 endpoints x 8192 steps: several sample chunks at any chunk size used
    b = np.random.default_rng(40 + n).standard_normal((300, 2 * n))
    areas = stc.sample_levy_area_given_endpoint(b, t=0.7, m_steps=8192, seed=42)
    assert areas.shape == (300,)
    assert hashlib.sha256(areas.tobytes()).hexdigest()[:16] == _BRIDGE_GOLDEN[n]


@pytest.mark.parametrize("n", [1, 2])
def test_bridge_sampler_prefix_is_stable(n):
    # each endpoint's normals are drawn in sample order, so a prefix of the
    # endpoints gets bitwise the prefix of the areas, across chunk boundaries
    b = np.random.default_rng(50 + n).standard_normal((80, 2 * n))
    full = stc.sample_levy_area_given_endpoint(b, t=1.3, m_steps=1024, seed=43)
    head = stc.sample_levy_area_given_endpoint(b[:37], t=1.3, m_steps=1024, seed=43)
    assert np.array_equal(head, full[:37])



def test_density_coupling_memory_is_bounded():
    # 2048 samples at m_steps=1024: the density plan runs no bridge and reads
    # the tabulated law, so it holds no O(n_samples * m_steps) or
    # O(n_samples * grid) working memory
    a = grp.identity(1)
    ap = grp.point([0.05], [0.0], 0.0)
    tracemalloc.start()
    try:
        stc.static_couple(a, ap, t=1.0, n_samples=2048, seed=44, m_steps=1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"


def test_assignment_plan_memory_is_bounded(monkeypatch):
    # atoms are drawn sample by sample, so no (n_samples, m_bridge) array is
    # held; the exact solve is stubbed out, its cost matrix is O(m_bridge^2)
    monkeypatch.setattr(stc, "_sqrt_shift_assignment",
                        lambda x, shift: (None, np.arange(x.size)))
    stc._law_table(1)
    tracemalloc.start()
    try:
        stc.static_couple(grp.identity(1), grp.point([0.5], [0.0], 0.0), n_samples=2000,
                          m_bridge=256, plan="assignment", seed=45)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"


# artifact bytes: SHA-256 (first 16 hex digits) of a static sample's joint
# table -- a note line, a header, then sample_id, left, right and cost per
# sample -- as `simulate._write_csv_block` writes it.  These pin the writer on
# tables of 8 and 11 columns with no lead; a change to it must leave both.
_CSV_GOLDEN = {"assignment/unit/n2": "a62ed3880db54b92", "density/mixed/n1": "3a13c48ff52ca812"}


def _write_joint_csv(smp, path):
    n = (smp.left.shape[1] - 1) // 2
    hor = [f"{c}{i+1}" for c in ("x", "y") for i in range(n)]
    cols = ["sample_id"] + [f"L{h}" for h in hor] + ["Lz"] + [f"R{h}" for h in hor] + ["Rz", "cost"]
    with open(path, "w") as fh:
        fh.write("# golden note\n" + ",".join(cols) + "\n")
        sim._write_csv_block(fh, list(map(str, range(smp.n_samples))),
                             np.column_stack([smp.left, smp.right, smp.cost]), "")


@pytest.mark.parametrize("case", sorted(_CSV_GOLDEN))
def test_static_to_csv_file_golden(tmp_path, case):
    path = tmp_path / "joint.csv"
    _write_joint_csv(_golden_sample(case, _CHUNK_PLANS), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == _CSV_GOLDEN[case]


@pytest.mark.parametrize("block_rows", [2, 7])
@pytest.mark.parametrize("case", sorted(_CSV_GOLDEN))
def test_static_to_csv_golden_across_write_blocks(tmp_path, monkeypatch, case, block_rows):
    # write blocks of 2 and 7 rows split the 3 and 700 samples unevenly
    monkeypatch.setattr(sim, "_CSV_ROWS", block_rows)
    path = tmp_path / "joint.csv"
    _write_joint_csv(_golden_sample(case, _CHUNK_PLANS), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == _CSV_GOLDEN[case]
