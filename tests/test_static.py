"""Fixed-time couplings and the conditional vertical law."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment
from scipy.stats import ks_2samp, kstest

from heiscouple import group as grp
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



@pytest.mark.parametrize("arg,bad", [
    pytest.param("t", {"t": float("nan")}, id="t=nan"),
    pytest.param("t", {"t": float("inf")}, id="t=inf"),
    pytest.param("m_steps", {"m_steps": 0}, id="m_steps=0"),
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
    pytest.param("m_steps", {"m_steps": 0}, id="m_steps=0"),
    pytest.param("t", {"t": float("nan")}, id="t=nan"),
    pytest.param("t", {"t": float("inf")}, id="t=inf"),
    pytest.param("a", {"a": grp.point([np.nan], [0.0], 0.0)}, id="a=nan"),
    pytest.param("aprime", {"aprime": grp.point([0.5], [0.0], np.nan)}, id="aprime=nan"),
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


def test_transport_cost_sqrt_1d_brute_force():
    rng = np.random.default_rng(16)
    for _ in range(25):
        x = rng.standard_normal(6)
        s = rng.uniform(-2, 2)
        mine = stc.transport_cost_sqrt_1d(x, s)
        best = min(
            np.mean([math.sqrt(abs(x[i] - x[j] - s)) for i, j in enumerate(perm)])
            for perm in itertools.permutations(range(6))
        )
        assert math.isclose(mine, best, rel_tol=1e-10)
    with pytest.raises(ValueError, match="one-dimensional"):
        stc.transport_cost_sqrt_1d(np.zeros((2, 2)), 0.1)
    with pytest.raises(ValueError, match="limited"):
        stc.transport_cost_sqrt_1d(np.zeros(600), 0.1)
    with pytest.raises(ValueError, match="empty"):
        stc.transport_cost_sqrt_1d(np.zeros(0), 0.1)


def test_sorted_matching_suboptimal_for_sqrt_cost():
    # documents why the assignment solver is needed at all: for concave
    # costs the monotone (sorted) coupling can be strictly worse
    x = np.array([0.0, 1.0])
    s = 1.0
    y = x + s
    sorted_cost = np.mean(np.sqrt(np.abs(x - y)))
    mine = stc.transport_cost_sqrt_1d(x, s)
    assert mine < sorted_cost - 0.2


def test_static_joint_sample_csv(tmp_path):
    a = grp.identity(1)
    ap = grp.point([0.4], [0.0], 0.0)
    smp = stc.static_couple(a, ap, t=1.0, n_samples=20, seed=17)
    path = tmp_path / "joint.csv"
    smp.to_csv(path, header_note="note")
    lines = path.read_text().splitlines()
    assert lines[0] == "# note"
    assert lines[1] == "sample_id,Lx1,Ly1,Lz,Rx1,Ry1,Rz,cost"
    assert len(lines) == 2 + 20


# ---------------------------------------------------------------------------
# golden digests: the couplings' output, bit for bit
#
# SHA-256 (first 16 hex digits) of left, right, cost and sorted(meta.items()),
# recorded with numpy 2.4.6 Philox streams on x86-64.  A refactor of the
# couplings must leave every digest unchanged; a deliberate change to how the
# streams are consumed or to the arithmetic must re-record them and say so.

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


def _golden_sample(case):
    plan, offset, n = case.split("/")
    n = int(n[1:])
    x, y, z = _OFFSETS[offset]
    a = grp.point([0.3, -1.1][:n], [0.7, 0.2][:n], -0.45)
    off = grp.point(x + [0.0] * (n - 1), y + [0.0] * (n - 1), z)
    return _PLANS[plan](a, grp.mul(a, off))


def _static_digest(smp):
    h = hashlib.sha256()
    for arr in (smp.left, smp.right, smp.cost):
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    h.update(repr(sorted(smp.meta.items())).encode())
    return h.hexdigest()[:16]


_STATIC_GOLDEN = {
    "assignment/central/n1": "479ec1bdc9f1a921",
    "assignment/central/n2": "9e0088aa7b43545f",
    "assignment/mixed/n1": "83a1bdb756a79d65",
    "assignment/mixed/n2": "359795cb1218667a",
    "assignment/same/n1": "62f29f3c7680db22",
    "assignment/same/n2": "3cde47c87c3df05a",
    "assignment/small/n1": "ec3b5041b8d9f2df",
    "assignment/small/n2": "0dca545c97c02ee6",
    "assignment/unit/n1": "f6beac1b4ed62087",
    "assignment/unit/n2": "6117daaa9d47686e",
    "density/central/n1": "dac0379a98af0779",
    "density/central/n2": "37c7f2ee3f3f4268",
    "density/mixed/n1": "209ab113c2cbd96f",
    "density/mixed/n2": "c550610aa8fe6e18",
    "density/same/n1": "e2fe9fdffbfb9cc9",
    "density/same/n2": "2e76e5ed07e4c191",
    "density/small/n1": "d994b106a82f9b56",
    "density/small/n2": "4d51ce73509c4dfe",
    "density/unit/n1": "036c44ca9963472a",
    "density/unit/n2": "94baa4b68ba88c6a",
    "translation/central/n1": "73f7bbf92ec55574",
    "translation/central/n2": "18f27fd405b94713",
    "translation/mixed/n1": "66c77083df1d1455",
    "translation/mixed/n2": "30edb1253102c96c",
    "translation/same/n1": "92237acbb10ae7e6",
    "translation/same/n2": "d71746c488825588",
    "translation/small/n1": "04c6296a75b29e79",
    "translation/small/n2": "6caa8abeb28d24d0",
    "translation/unit/n1": "aa01506be34e35ca",
    "translation/unit/n2": "769d33f61ee2972e",
}


@pytest.mark.parametrize("case", sorted(_STATIC_GOLDEN))
def test_static_golden_digests(case):
    assert _static_digest(_golden_sample(case)) == _STATIC_GOLDEN[case]


# chunk-crossing goldens: inputs that span several sample chunks of the
# bridge sampler and of the density plan.  Recorded the same way, before the
# sampler and the plan were streamed in chunks; draws are sample-major, so the
# chunk sizes must not move a single bit.

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
    "assignment/mixed/n1": "7f64671c4cd2b1cf",
    "assignment/unit/n2": "65e24f53879e5563",
    "density/mixed/n1": "60f46cd1dcc509c5",
    "density/mixed/n2": "e7b1ac92338982a3",
    "density/unit/n1": "c5db776913cf9243",
    "density/unit/n2": "fcf7bec199c4399e",
    "translation/mixed/n2": "bc76d1d3bf84f0bb",
}


@pytest.mark.parametrize("case", sorted(_CHUNK_GOLDEN))
def test_static_golden_digests_across_chunks(case):
    plan, offset, n = case.split("/")
    n = int(n[1:])
    x, y, z = _OFFSETS[offset]
    a = grp.point([0.3, -1.1][:n], [0.7, 0.2][:n], -0.45)
    off = grp.point(x + [0.0] * (n - 1), y + [0.0] * (n - 1), z)
    smp = _CHUNK_PLANS[plan](a, grp.mul(a, off))
    assert _static_digest(smp) == _CHUNK_GOLDEN[case]


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
    # 2048 samples x 1024 bridge steps: the streamed sampler and density plan
    # hold O(chunk) working memory, not O(n_samples * m_steps) or
    # O(n_samples * grid)
    a = grp.identity(1)
    ap = grp.point([0.05], [0.0], 0.0)
    tracemalloc.start()
    try:
        stc.static_couple(a, ap, t=1.0, n_samples=2048, seed=44, m_steps=1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"
