"""Simulation engines: streams, steps, ensembles, and the exact runner."""

import collections
import functools
import hashlib
import math
import threading
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from heiscouple import coupling as cpl
from heiscouple import estimators as est
from heiscouple import group as grp
from heiscouple import simulate as sim
from heiscouple.constants import CROSSING_CUT, POOL_MIN_BLOCKS, RNG_BLOCK


def test_philox_stream_keying():
    a = sim.philox_stream(7, 0).standard_normal(8)
    b = sim.philox_stream(7, 0).standard_normal(8)
    c = sim.philox_stream(7, 1).standard_normal(8)
    d = sim.philox_stream(8, 0).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_blocks_partition():
    spans = list(sim._blocks(2500, block=1024))
    assert spans == [(0, 0, 1024), (1, 1024, 2048), (2, 2048, 2500)]
    assert list(sim._blocks(4, block=1024)) == [(0, 0, 4)]


def test_relative_coordinates_match_group_quotient():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        a = rng.standard_normal((64, 2 * n + 1))
        ap = rng.standard_normal((64, 2 * n + 1))
        r2, z = sim.relative_coordinates(a[:, :-1], ap[:, :-1], a[:, -1], ap[:, -1])
        quot = grp.mul(grp.inverse(ap), a)
        assert np.allclose(r2, (grp.horizontal(quot) ** 2).sum(axis=1), atol=1e-12)
        assert np.allclose(z, grp.vertical(quot), atol=1e-12)


def test_coupling_state_roundtrip():
    a = grp.point([1.0], [2.0], 3.0)
    ap = grp.point([0.0], [1.0], -1.0)
    st = sim.CouplingState.from_points(a, ap)
    assert np.array_equal(st.b, a[:-1]) and st.vert == a[-1]
    assert np.array_equal(st.bprime, ap[:-1]) and st.vert_p == ap[-1]
    assert st.r2 == 2.0
    # Z = A - A' + 0.5 omega(B, B') = 3 - (-1) + 0.5 (1*1 - 2*0) = 4.5
    assert st.z == 4.5


def test_step_full_synchronous_keeps_difference():
    # the bare step applies identical increments to both legs; the
    # difference drifts only by float non-associativity
    rng = np.random.default_rng(1)
    st = sim.CouplingState.from_points(grp.point([0.0], [0.0], 0.0),
                                       grp.point([1.0], [0.0], 0.0))
    j = cpl.synchronous_matrix(1)
    for _ in range(50):
        st = sim.step_full(st, j, 1e-3, rng.standard_normal(2) * math.sqrt(1e-3))
    assert np.allclose(st.b - st.bprime, [-1.0, 0.0], atol=1e-12)
    assert math.isclose(st.r2, 1.0, rel_tol=1e-12)


def test_step_full_defect_noise_requires_dwt():
    st = sim.CouplingState.from_points(grp.identity(1), grp.point([1.0], [0.0], 0.0))
    half = 0.5 * np.eye(2)
    jhat = cpl.complete_jhat(half)
    out = sim.step_full(st, half, 1e-3, np.zeros(2), dwt=np.ones(2), jhat=jhat)
    # with dw = 0 the second leg moves only through the defect noise
    assert np.allclose(out.bprime - st.bprime, jhat @ np.ones(2))
    assert np.array_equal(out.b, st.b)


def test_step_reduced_closed_forms():
    # synchronous: r2 frozen; rho = 0, so the z-noise is carried by g2
    r2, z = sim.step_reduced(4.0, 0.5, cpl.synchronous_matrix(1), 0.01, 1.3, -0.2)
    assert r2 == 4.0
    assert math.isclose(z, 0.5 + 0.5 * 2.0 * 2.0 * math.sqrt(0.01) * (-0.2), rel_tol=1e-15)
    # perverse: deterministic r2 += 4 dt, z frozen
    r2, z = sim.step_reduced(4.0, 0.5, cpl.perverse_matrix(1), 0.01, 1.3, -0.2)
    assert r2 == 4.0 + 4.0 * 0.01
    assert z == 0.5
    # clamping at zero: 0.01 - 2*0.1*2*0.05 + 4e-4 < 0
    r2, _ = sim.step_reduced(0.01, 0.0, cpl.reflection_matrix(1), 1e-4, -5.0, 0.0)
    assert r2 == 0.0


def test_step_reduced_takes_a_nonnegative_variance():
    # K11 a hair above 1 gives var_r = 2 (1 - K11) < 0; like the engines,
    # the step takes sqrt(max(var, 0)) and warns about nothing
    K = np.diag([1 + 5e-11, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r2, z = sim.step_reduced(1.0, 0.5, K, 0.01, 1.3, -0.2)
    assert abs(r2 - 1.0) < 1e-9 and math.isfinite(z)


def test_default_checkpoints_dyadic():
    cks = sim.default_checkpoints(8.0, 0.5)
    assert cks[0] == 0.0 and cks[-1] == 8.0
    assert all(b > a for a, b in zip(cks, cks[1:]))
    assert 4.0 in cks and 2.0 in cks and 1.0 in cks


@pytest.mark.parametrize("scheme", ["full", "reduced"])
def test_simulate_ensemble_shapes_and_meta(scheme):
    pol = cpl.synchronous_policy()
    ens = sim.simulate_ensemble(
        pol, grp.identity(1), grp.point([1.0], [0.0], 0.0),
        T=0.25, n_paths=300, dt=0.005, seed=3, scheme=scheme,
        checkpoints=[0.1, 0.25],
    )
    assert ens.r2.shape == (2, 300)
    assert ens.n_paths == 300
    assert np.allclose(ens.times, [0.1, 0.25])
    assert ens.meta["scheme"] == scheme
    assert np.array_equal(ens.d_h(), np.sqrt(ens.r2 + np.abs(ens.z)))
    # synchronous pairs never merge and keep R^2 = R0^2 exactly
    assert np.all(ens.r2 == 1.0)
    assert np.all(np.isnan(ens.absorbed_at))


@pytest.mark.usefixtures("one_block_groups")
def test_simulate_ensemble_thread_count_is_invisible():
    pol = cpl.kendall_policy()
    kw = dict(
        a=grp.identity(1), aprime=grp.point([1.0], [0.0], 0.0),
        T=0.2, n_paths=2048 + 100, dt=0.005, seed=11, scheme="reduced",
        checkpoints=[0.2],
    )
    one = sim.simulate_ensemble(pol, threads=1, **kw)
    four = sim.simulate_ensemble(pol, threads=4, **kw)
    assert np.array_equal(one.r2, four.r2)
    assert np.array_equal(one.z, four.z)
    assert np.array_equal(one.absorbed_at, four.absorbed_at, equal_nan=True)


def test_simulate_ensemble_rejects_bad_args():
    pol = cpl.synchronous_policy()
    with pytest.raises(ValueError, match="scheme"):
        sim.simulate_ensemble(pol, grp.identity(1), grp.identity(1),
                              T=1.0, n_paths=4, scheme="magic")
    with pytest.raises(ValueError):
        sim.simulate_ensemble(pol, grp.identity(1), grp.identity(2),
                              T=1.0, n_paths=4)


@pytest.mark.parametrize("scheme", ["reduced", "full"])
def test_reflection_absorption_freezes_state(scheme):
    pol = cpl.reflection_policy()
    ens = sim.simulate_ensemble(
        pol, grp.identity(1), grp.point([0.2], [0.0], 0.0),
        T=4.0, n_paths=2000, dt=0.002, seed=5, scheme=scheme,
        checkpoints=[2.0, 4.0],
    )
    hit = np.isfinite(ens.absorbed_at)
    assert hit.mean() > 0.5  # R0 = 0.2 merges quickly
    merged_by_2 = hit & (ens.absorbed_at <= 2.0)
    # merged pairs stay merged with frozen vertical coordinate
    assert np.all(ens.r2[0][merged_by_2] == 0.0)
    assert np.all(ens.r2[1][merged_by_2] == 0.0)
    assert np.array_equal(ens.z[0][merged_by_2], ens.z[1][merged_by_2])


@pytest.mark.parametrize("scheme", ["full", "reduced"])
def test_synchronous_variance_identity(scheme):
    pol = cpl.synchronous_policy()
    ens = sim.simulate_ensemble(
        pol, grp.identity(1), grp.point([1.0], [0.0], 0.0),
        T=1.0, n_paths=4000, dt=1e-3, seed=7, scheme=scheme, checkpoints=[1.0],
    )
    # Var(Z_T) = R0^2 T for synchronous; sample-variance 3 sigma band
    v = ens.z[-1].var(ddof=1)
    se = v * math.sqrt(2.0 / (ens.n_paths - 1))
    assert abs(v - 1.0) < 3 * se
    assert abs(ens.z[-1].mean()) < 3 * ens.z[-1].std(ddof=1) / math.sqrt(ens.n_paths)


def test_exact_reflection_radial_martingale_and_hitting():
    ens = sim.simulate_reflection_exact(
        r0=1.0, T=25.0, n_paths=20000, seed=9, checkpoints=[1.0, 25.0],
    )
    r = np.sqrt(ens.r2)
    for i in range(2):
        se = r[i].std(ddof=1) / math.sqrt(ens.n_paths)
        assert abs(r[i].mean() - 1.0) < 3 * se
    tau = ens.absorbed_at
    fin = np.isfinite(tau)
    # absorbed fraction matches the hitting CDF
    p = est.hitting_cdf(25.0, 1.0)
    assert abs(fin.mean() - p) < 3 * math.sqrt(p * (1 - p) / ens.n_paths)
    # conditional hitting-time law
    res = kstest(tau[fin], lambda u: est.hitting_cdf(u, 1.0) / p)
    assert res.pvalue > 1e-3


@pytest.mark.usefixtures("one_block_groups")
def test_exact_reflection_threads_and_z0():
    kw = dict(r0=0.5, T=2.0, n_paths=1500, z0=0.7, checkpoints=[2.0], seed=13)
    one = sim.simulate_reflection_exact(threads=1, **kw)
    four = sim.simulate_reflection_exact(threads=4, **kw)
    assert np.array_equal(one.z, four.z)
    assert np.array_equal(one.r2, four.r2)
    # Z is a centred perturbation of its start
    assert abs(one.z[-1].mean() - 0.7) < 3 * one.z[-1].std(ddof=1) / math.sqrt(1500)
    # the run's counts are summed over groups
    counts = ("cells", "crossing_draws", "absorbed")
    assert [one.meta[k] for k in counts] == [four.meta[k] for k in counts]
    assert one.meta["absorbed"] == np.isfinite(one.absorbed_at).sum() > 0


def test_exact_reflection_r2_identity():
    # E[R^2_t] - R0^2 = E[drift_int_t], drift_int being 4 t up to the end of
    # the absorbing cell, as scheme-consistency checks for the Euler engines
    ens = sim.simulate_reflection_exact(1.0, 2.0, 4000, seed=3, checkpoints=[0.5, 1, 2])
    for t, r2, drift in zip(ens.times, ens.r2, ens.drift_int):
        assert np.all((drift > 0.0) & (drift <= 4.0 * t))
        gap = r2 - 1.0 - drift
        assert abs(gap.mean()) <= 3 * gap.std(ddof=1) / math.sqrt(ens.n_paths)


def test_exact_reflection_vertical_is_gaussian_given_r():
    # given the R path, Z - z0 is a centred normal of variance qv, the
    # summed trapezoid variance: E[(Z - z0)^2] = E[qv], and (Z - z0)/sqrt(qv)
    # is a standard normal whatever R did.  qv itself estimates int R^2 ds,
    # whose mean is r0^2 t + 4 int_0^t (t - u) P(tau > u) du, as
    # E[R_s^2] = r0^2 + 4 E[s ^ tau] for R/2 a Brownian motion absorbed at 0
    z0, n = 0.3, 20000
    ens = sim.simulate_reflection_exact(
        r0=1.0, T=4.0, n_paths=n, z0=z0, seed=21, checkpoints=[0.01, 0.25, 1.0, 4.0],
    )
    for t, z, qv in zip(ens.times, ens.z, ens.qv):
        d = (z - z0) ** 2 - qv
        assert abs(d.mean()) < 3 * d.std(ddof=1) / math.sqrt(n)
        assert kstest((z - z0) / np.sqrt(qv), "norm").pvalue > 1e-3
        mean = t + 4.0 * quad(lambda u: (t - u) * (1.0 - est.hitting_cdf(u, 1.0)), 0.0, t)[0]
        assert abs(qv.mean() - mean) < 3 * qv.std(ddof=1) / math.sqrt(n)


def test_reflection_reduced_coefficients_do_not_depend_on_n():
    # the exact runner samples (R^2, Z) with no n: it stands for every H^n
    # because the reflection matrix's reduced coefficients are n-free
    pol = cpl.reflection_policy()
    co = [{key: float(val) for key, val in cpl.reduced_coefficients(
        pol.matrix_for_regime(cpl.REGIME_REFLECT, n)).items()} for n in (1, 2, 3)]
    assert co[0] == co[1] == co[2]
    assert co[0] == {"var_r": 4.0, "var_z": 4.0, "rho": 0.0, "drift_r": 4.0, "drift_z": 0.0}


def test_to_csv_deterministic_and_capped(tmp_path):
    pol = cpl.perverse_policy()
    ens = sim.simulate_ensemble(
        pol, grp.identity(1), grp.point([1.0], [0.0], 0.0),
        T=0.1, n_paths=50, dt=0.01, seed=1, scheme="reduced", checkpoints=[0.05, 0.1],
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    ens.to_csv(p1, header_note="first run")
    ens.to_csv(p2, header_note="second run")
    b1, b2 = p1.read_text().splitlines(), p2.read_text().splitlines()
    assert b1[0] != b2[0] and b1[1:] == b2[1:]
    assert b1[1] == "checkpoint_time,path_id,R2,Z,V,QV"
    assert len(b1) == 2 + 2 * 50
    capped = tmp_path / "c.csv"
    ens.to_csv(capped, max_paths=10)
    assert len(capped.read_text().splitlines()) == 2 + 2 * 10


def test_kendall_success_times_behaviour():
    pol = cpl.kendall_policy()
    times = sim.kendall_success_times(
        pol, r2_0=1.0, z_0=0.0, t_max=10.0, n_paths=3000, alpha=0.01, seed=2,
    )
    assert times.shape == (3000,)
    won = np.isfinite(times)
    assert 0.05 < won.mean() < 0.6
    assert np.all(times[won] <= 10.0) and np.all(times[won] > 0.0)
    # deterministic
    again = sim.kendall_success_times(
        pol, r2_0=1.0, z_0=0.0, t_max=10.0, n_paths=3000, alpha=0.01, seed=2,
    )
    assert np.array_equal(times, again, equal_nan=True)
    with pytest.raises(ValueError, match="kendall"):
        sim.kendall_success_times(cpl.synchronous_policy(), 1.0, 0.0, 1.0, 10)
    # block-prefix stable: a path's time depends only on its own RNG block
    run = lambda n: sim.kendall_success_times(pol, 1.0, 0.0, 20.0, n, alpha=0.004, seed=9)
    one, two, more = run(1024), run(2048), run(2500)
    assert np.array_equal(one, two[:1024], equal_nan=True)
    assert np.array_equal(two, more[:2048], equal_nan=True)
    # one block is keyed (seed, 0) and draws the normals of the single-stream
    # runner, in its order: recorded with numpy 2.4.6 before the block streams
    one = sim.kendall_success_times(pol, 1.0, 0.0, 40.0, 1024, alpha=0.004, seed=3)
    assert hashlib.sha256(one.tobytes()).hexdigest()[:16] == "50c6f46a74a4d24e"


# ---------------------------------------------------------------------------
# golden digests: the engines' output, bit for bit
#
# SHA-256 (first 16 hex digits) of every PathEnsemble array plus
# meta["clamps"] and meta["steps"], recorded with numpy 2.4.6 Philox streams
# on x86-64.  A refactor of the engines must leave every digest unchanged; a
# deliberate change to how the streams are consumed or to the arithmetic must
# re-record them and say so.  "skew" cases start with no zero horizontal
# coordinate (the others start at (r0, 0, ...), so a frame component is +-0),
# and the H^3 cases sum six terms, the most numpy's last-axis sum adds in order.

_CUSTOM_K = np.array([[0.75, -0.2], [0.2, -0.2]])  # Jhat != 0, K21 != K12


def _custom_k(n):
    """_CUSTOM_K on the distinguished pair (e1, e2) = columns (0, n) of I."""
    K = np.eye(2 * n)
    K[np.ix_([0, n], [0, n])] = _CUSTOM_K
    return K


_POLICIES = {
    "synchronous": lambda n: cpl.synchronous_policy(),
    "reflection": lambda n: cpl.reflection_policy(),
    "perverse": lambda n: cpl.perverse_policy(),
    "kendall": lambda n: cpl.kendall_policy(),
    "custom": lambda n: cpl.custom_policy(_custom_k(n)),
}


def _digest(ens):
    h = hashlib.sha256()
    for name in ("times", "r2", "z", "v", "qv", "drift_int", "absorbed_at"):
        h.update(np.ascontiguousarray(getattr(ens, name), dtype=np.float64).tobytes())
    h.update(repr((ens.meta["clamps"], ens.meta.get("steps"))).encode())
    return h.hexdigest()[:16]


def _skew_start(n):
    """Starts with R0^2 = 1 and Z0 = 0.3 whose horizontals and whose
    difference have no zero coordinate, so no frame component starts at 0."""
    b = np.linspace(0.3, -0.4, 2 * n)
    d = np.linspace(1.0, 2.0, 2 * n) * (-1.0) ** np.arange(2 * n)
    bp = b - d / np.sqrt((d**2).sum())
    vert = 0.1
    vert_p = vert + 0.5 * grp.symplectic(b, bp) - 0.3
    return np.append(b, vert), np.append(bp, vert_p)


def _golden_ensemble(case, threads, n_paths=1500):
    parts = case.split("/")
    if parts[0] == "exact":
        return sim.simulate_reflection_exact(
            r0=0.5, T=1.0, n_paths=n_paths, z0=0.2, seed=17, delta=0.125,
            t_first=1e-3, threads=threads,
        )
    scheme, policy, n = parts[0], parts[1], int(parts[2][1:])
    # R0^2 = 1 and Z0 = 0.3: inside the kendall band, so regimes switch
    r0 = 0.05 if case.endswith("absorbing") else 1.0
    a = grp.identity(n)
    ap = grp.point([r0] + [0.0] * (n - 1), [0.0] * n, -0.3)
    if case.endswith("skew"):
        a, ap = _skew_start(n)
    return sim.simulate_ensemble(
        _POLICIES[policy](n), a, ap, T=0.3, n_paths=n_paths, dt=0.01, seed=23,
        scheme=scheme, threads=threads,
    )


_GOLDEN = {
    "exact/reflection": "32f1fa96683108ba",
    "full/custom/n1": "ae63c8758536209c",
    "full/custom/n1/skew": "2873706f6b89ce88",
    "full/custom/n2": "e9d5f84a3c9bca44",
    "full/custom/n2/skew": "e85cfea2ca6c1548",
    "full/custom/n3": "4ef7c1c92f20ac89",
    "full/kendall/n1": "092d38ca528dcf2d",
    "full/kendall/n1/skew": "78e795c717ac0670",
    "full/kendall/n2": "61f24ac11980e924",
    "full/kendall/n2/skew": "a2d5ac3b8730c53c",
    "full/kendall/n3": "aa30d1add6d0512c",
    "full/perverse/n1": "b3efbe833f983110",
    "full/perverse/n1/skew": "cdf50c2c2b340e6d",
    "full/perverse/n2": "b3efbe833f983110",
    "full/perverse/n2/skew": "11405549c40d7e0c",
    "full/reflection/n1": "1748ed908b4dfada",
    "full/reflection/n1/absorbing": "55cff01a68d5280f",
    "full/reflection/n1/skew": "1796de400bf2e6e5",
    "full/reflection/n2": "60f09f1dfad4f1d1",
    "full/reflection/n2/absorbing": "53e4f8bd02dbc1b4",
    "full/reflection/n2/skew": "82f0283ed73fe8a7",
    "full/synchronous/n1": "0c41db66f75828ed",
    "full/synchronous/n1/skew": "a6fccb2338405461",
    "full/synchronous/n2": "cce51776a35f3c00",
    "full/synchronous/n2/skew": "ec265be0bcd53d9c",
    "reduced/custom/n1": "c8e51bea29840b4c",
    "reduced/custom/n2": "9fa0465cde755b63",
    "reduced/kendall/n1": "bb492c4d7bf6ddbf",
    "reduced/kendall/n2": "bb492c4d7bf6ddbf",
    "reduced/perverse/n1": "b3efbe833f983110",
    "reduced/perverse/n2": "b3efbe833f983110",
    "reduced/reflection/n1": "802261d172eca0e1",
    "reduced/reflection/n1/absorbing": "17e31be7168a11f6",
    "reduced/reflection/n2": "802261d172eca0e1",
    "reduced/synchronous/n1": "a0c3a28adbe388ac",
    "reduced/synchronous/n2": "a0c3a28adbe388ac",
}


@pytest.mark.usefixtures("one_block_groups")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_golden_digests(case, threads):
    assert _digest(_golden_ensemble(case, threads)) == _GOLDEN[case]


# 4500 paths are four full RNG blocks and one partial; at threads=3 they split
# into uneven groups of 1, 2 and 2 blocks
_WIDE_PATHS = 4500
_WIDE_GOLDEN = {
    "exact/reflection": "323af65273b62e85",
    "full/custom/n1": "9b5cdc9eb289ba46",
    "full/kendall/n1": "24f0e0af48362f39",
    "full/reflection/n1/absorbing": "658d71e364673075",
    "reduced/custom/n1": "54e7b23289562cfe",
    "reduced/kendall/n1": "16cb9d5c503ad7fe",
    "reduced/reflection/n1/absorbing": "936230ce833029ec",
}


@pytest.mark.usefixtures("one_block_groups")
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(_WIDE_GOLDEN))
def test_golden_digests_across_groups(case, threads):
    assert _digest(_golden_ensemble(case, threads, _WIDE_PATHS)) == _WIDE_GOLDEN[case]


@pytest.mark.usefixtures("one_block_groups")
@pytest.mark.parametrize("threads", [1, 2, 3])
def test_golden_digest_with_a_one_path_block(threads):
    # 2049 paths end in a block of one path, which at threads=3 is a group of
    # its own: the full engine must round it as it does inside a wide group
    assert _digest(_golden_ensemble("full/custom/n1", threads, 2049)) == "a375d2c6addc49c1"


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("n_blocks,widths", [
    (1, [1]),
    (2 * POOL_MIN_BLOCKS - 1, [2 * POOL_MIN_BLOCKS - 1]),
    (2 * POOL_MIN_BLOCKS, [POOL_MIN_BLOCKS, POOL_MIN_BLOCKS]),
])
def test_run_groups_splits_only_groups_of_pool_min_blocks(n_blocks, widths, threads):
    calls = []

    def run(spans):
        calls.append(([block for block, _, _ in spans],
                      threading.current_thread() is threading.main_thread()))
        return {"path": np.arange(spans[0][1], spans[-1][2]), "clamps": len(spans)}

    n_paths = n_blocks * RNG_BLOCK - 1  # the last block is one path short
    arrays, counts = sim._run_groups(run, n_paths, threads)
    if threads == 1:
        widths = [n_blocks]
    calls.sort()
    assert [len(blocks) for blocks, _ in calls] == widths
    assert [block for blocks, _ in calls for block in blocks] == list(range(n_blocks))
    # threads > 1 keeps even a run of one group off the caller's thread
    assert [on_main for _, on_main in calls] == [threads == 1] * len(widths)
    assert np.array_equal(arrays["path"], np.arange(n_paths))
    assert counts == {"clamps": n_blocks, "groups": len(widths)}


def test_runs_report_the_groups_they_used():
    wide = 2 * POOL_MIN_BLOCKS * RNG_BLOCK
    a, ap = grp.identity(1), grp.point([1.0], [0.0], 0.0)
    for n_paths, threads, groups in ((4096, 2, 1), (wide, 2, 2), (wide, 1, 1)):
        ens = sim.simulate_ensemble(cpl.reflection_policy(), a, ap, T=0.01, n_paths=n_paths,
                                    dt=0.01, scheme="reduced", threads=threads)
        exact = sim.simulate_reflection_exact(r0=1.0, T=0.01, n_paths=n_paths, t_first=0.01,
                                              threads=threads)
        assert ens.meta["groups"] == exact.meta["groups"] == groups


@pytest.mark.parametrize("scheme", ["reduced", "full"])
def test_perverse_runs_draw_no_noise(monkeypatch, scheme):
    draws, real = collections.Counter(), sim._Streams._fill
    monkeypatch.setattr(sim._Streams, "_fill",
                        lambda self, method, out, idx: draws.update({method: out.size})
                        or real(self, method, out, idx))
    kw = dict(a=grp.identity(1), aprime=grp.point([1.0], [0.0], 0.3), T=0.1, n_paths=1500,
              dt=0.01, scheme=scheme, checkpoints=[0.1])
    path_steps = 1500 * 10

    def per_path_step(policy):
        draws.clear()
        ens = sim.simulate_ensemble(policy, **kw)
        return ens, {method: count / path_steps for method, count in draws.items()}

    ens, per_step = per_path_step(cpl.perverse_policy())
    assert per_step == {}
    assert np.all(ens.r2 == ens.r2[0, 0]) and np.all(ens.z == ens.z[0, 0])
    # the spy sees the draws of runs that have noise: on H^1 the full engine
    # draws dW (2 normals); the reduced synchronous step reads only its
    # vertical normal, and reflection both normals and the crossing uniform
    _, per_step = per_path_step(cpl.synchronous_policy())
    assert per_step == {"standard_normal": 1 if scheme == "reduced" else 2}
    _, per_step = per_path_step(cpl.reflection_policy())
    assert per_step == {"standard_normal": 2, "random": 1}


class _CountingStream:
    """A block's Generator that logs the leading size of every draw."""

    def __init__(self, gen, block, log):
        self._gen, self._block, self._log = gen, block, log

    def _draw(self, method, size, kwargs):
        rows = size[0] if isinstance(size, tuple) else size
        out = kwargs.get("out")
        self._log.append((self._block, method, rows, rows if out is None else len(out)))
        return getattr(self._gen, method)(size, **kwargs)

    def standard_normal(self, size=None, **kwargs):
        return self._draw("standard_normal", size, kwargs)

    def random(self, size=None, **kwargs):
        return self._draw("random", size, kwargs)


@pytest.mark.usefixtures("one_block_groups")
@pytest.mark.parametrize("case", ["exact/reflection", "full/custom/n1",
                                  "reduced/reflection/n1/absorbing", "kendall"])
def test_block_streams_are_keyed_once_and_draw_their_own_rows(monkeypatch, case):
    keys, log = [], []
    real = sim.philox_stream

    def counting(seed, block):
        keys.append((seed, block))
        return _CountingStream(real(seed, block), block, log)

    monkeypatch.setattr(sim, "philox_stream", counting)
    if case == "kendall":
        seed = 5
        sim.kendall_success_times(cpl.kendall_policy(), 1.0, 0.0, 2.0, _WIDE_PATHS,
                                  alpha=0.01, seed=seed)
    else:
        ens = _golden_ensemble(case, 3, _WIDE_PATHS)
        seed = ens.meta["seed"]
    spans = list(sim._blocks(_WIDE_PATHS))
    assert sorted(keys) == [(seed, block) for block, _, _ in spans]
    per_block = {block: [] for block, _, _ in spans}
    for block, method, rows, out_rows in log:
        per_block[block].append((method, rows, out_rows))
    if case == "kendall":
        # a phase update draws normals for the block's active paths only
        for block, lo, hi in spans:
            assert per_block[block]
            assert all(method == "standard_normal" and rows == out_rows and 1 <= rows <= hi - lo
                       for method, rows, out_rows in per_block[block])
    elif case.startswith("exact"):
        # normals fill the whole block; a uniform is drawn only for the
        # block's paths near 0, so each draw takes between 1 and all its rows
        n_normals = sum(draw[0] == "standard_normal" for draw in per_block[0])
        for block, lo, hi in spans:
            normals = [draw[1:] for draw in per_block[block] if draw[0] == "standard_normal"]
            uniforms = [draw[1:] for draw in per_block[block] if draw[0] == "random"]
            assert len(normals) == n_normals and set(normals) == {(hi - lo, hi - lo)}
            assert all(rows == out_rows and 1 <= rows <= hi - lo for rows, out_rows in uniforms)
            assert len(normals) + len(uniforms) == len(per_block[block])
        drawn = sum(rows for _, method, rows, _ in log if method == "random")
        assert 0 < drawn == ens.meta["crossing_draws"]
    else:
        first = [draw[0] for draw in per_block[0]]
        for block, lo, hi in spans:
            assert [draw[0] for draw in per_block[block]] == first
            assert {draw[1:] for draw in per_block[block]} == {(hi - lo, hi - lo)}


def test_exact_reflection_draws_no_uniform_past_the_crossing_cut(monkeypatch):
    # every grid time is a checkpoint, so a cell draws its radial normal, the
    # uniforms of its paths near 0 and its vertical normal, and R is seen at
    # both ends of every cell; r0 = 2 keeps the first cells far past the cut
    t_first, delta, T, m = 1e-4, 1.0 / 64.0, 1.0, 1000
    grid = [0.0, t_first]
    while grid[-1] < T:
        grid.append(min(grid[-1] * (1.0 + delta), T))
    log, real = [], sim.philox_stream
    monkeypatch.setattr(sim, "philox_stream",
                        lambda seed, block: _CountingStream(real(seed, block), block, log))
    ens = sim.simulate_reflection_exact(r0=2.0, T=T, n_paths=m, seed=4, delta=delta,
                                        t_first=t_first, checkpoints=grid)
    assert np.array_equal(ens.times, grid)
    draws, pos = [], 0
    for _ in range(len(grid) - 1):
        assert log[pos][1:] == ("standard_normal", m, m)
        k = log[pos + 1][2] if log[pos + 1][1] == "random" else 0
        pos += 2 if k else 1
        assert log[pos][1:] == ("standard_normal", m, m)
        pos += 1
        draws.append(k)
    assert pos == len(log) and sum(draws) == ens.meta["crossing_draws"]

    r, tau, dts = np.sqrt(ens.r2), ens.absorbed_at, np.diff(grid)
    quiet, cut = 0, CROSSING_CUT
    for j, k in enumerate(draws):
        alive = ~(tau < grid[j])
        hit = alive & (tau < grid[j + 1])
        x = (r[j] * r[j + 1] / (2.0 * dts[j]))[alive & ~hit]
        # a path that survived drew iff x < cut; one that hit may have drawn
        below = int((x < cut * (1 - 1e-12)).sum())
        assert below <= k <= int((x < cut * (1 + 1e-12)).sum()) + int(hit.sum())
        if not hit.any() and x.min() >= cut * (1 + 1e-12):
            assert k == 0
            quiet += 1
    assert quiet > 100 and draws[0] == 0 and sum(draws) > 0


# ---------------------------------------------------------------------------
# the single-path steppers are the engines' oracles: same Philox noise, drawn
# in the engine's order, must give the same paths


def _general_k(n):
    """A contraction of norm 0.9 with no zero entry and no block structure:
    unlike _custom_k, it mixes every frame column, so the full engine's step
    depends on how the frame completes (e1, e2), not just on e1."""
    g = np.random.default_rng(n).standard_normal((2 * n, 2 * n))
    return 0.9 * g / np.linalg.svd(g, compute_uv=False)[0]


def _oracle_setup(n, K=None):
    a = grp.identity(n)
    ap = grp.point([1.0] + [0.0] * (n - 1), [0.0] * n, -0.3)
    K = _custom_k(n) if K is None else K
    m, dt, n_steps, seed = 48, 0.01, 25, 5
    kw = dict(T=n_steps * dt, n_paths=m, dt=dt, seed=seed,
              checkpoints=dt * np.arange(1, n_steps + 1))
    return a, ap, K, m, dt, n_steps, sim.philox_stream(seed, 0), kw


@pytest.mark.parametrize("n", [1, 2])
def test_step_reduced_matches_reduced_engine(n):
    a, ap, K, m, dt, n_steps, rng, kw = _oracle_setup(n)
    ens = sim.simulate_ensemble(cpl.custom_policy(K), a, ap, scheme="reduced", **kw)
    r2_0, z_0 = sim.relative_coordinates(a[:-1], ap[:-1], a[-1], ap[-1])
    r2, z = np.full(m, float(r2_0)), np.full(m, float(z_0))
    for k in range(n_steps):
        g1, g2 = rng.standard_normal(m), rng.standard_normal(m)
        for i in range(m):
            r2[i], z[i] = sim.step_reduced(r2[i], z[i], K, dt, g1[i], g2[i])
        np.testing.assert_allclose(ens.r2[k], r2, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ens.z[k], z, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_step_full_matches_full_engine(n):
    _check_step_full(cpl.custom_policy(_custom_k(n)), n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_step_full_matches_full_engine_for_a_general_k(n):
    _check_step_full(cpl.custom_policy(_general_k(n)), n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_step_full_matches_full_engine_under_kendall(n):
    # R0^2 = 1 and Z0 = 0.3 sit inside the hysteresis band, so paths switch
    # between reflection and synchronous both ways within the 25 steps
    switches = _check_step_full(cpl.kendall_policy(), n)
    assert switches[cpl.REGIME_REFLECT, cpl.REGIME_SYNC] > 0
    assert switches[cpl.REGIME_SYNC, cpl.REGIME_REFLECT] > 0


def _check_step_full(policy, n):
    """The full engine, which steps (D, Z), against `step_full` on both legs.

    The oracle draws the engine's noise in its order (dW, then dWtilde for a
    custom K), takes each path's regime from `next_regime` on its own state,
    and couples by J = Q K Q^T (and Q Khat Q^T) in the frame Q of that state;
    at R = 0 the engine drives both legs by dW.  Returns the count of regime
    switches (from, to) over all paths and steps.
    """
    a, ap, _, m, dt, n_steps, rng, kw = _oracle_setup(n)
    ens = sim.simulate_ensemble(policy, a, ap, scheme="full", **kw)
    custom = policy.kind == "custom"
    if custom:
        Khat = cpl.complete_jhat(policy.matrix)
        assert np.abs(Khat).max() > 0.1
    states = [sim.CouplingState.from_points(a, ap) for _ in range(m)]
    regime = policy.initial_regime([st.r2 for st in states], [st.z for st in states])
    switches = np.zeros((cpl.REGIME_CUSTOM + 1,) * 2, dtype=int)
    for k in range(n_steps):
        prev, regime = regime, policy.next_regime([st.r2 for st in states],
                                                  [st.z for st in states], regime)
        np.add.at(switches, (prev, regime), prev != regime)
        dw = math.sqrt(dt) * rng.standard_normal((m, 2 * n))
        dwt = math.sqrt(dt) * rng.standard_normal((m, 2 * n)) if custom else [None] * m
        for i, st in enumerate(states):
            J, jhat = np.eye(2 * n), None
            if st.r2 > 0.0:
                Q = cpl.frame(st.b, st.bprime)
                J = Q @ policy.matrix_for_regime(int(regime[i]), n) @ Q.T
                jhat = Q @ Khat @ Q.T if custom else None
            states[i] = sim.step_full(st, J, dt, dw[i], dwt[i], jhat)
        np.testing.assert_allclose(ens.r2[k], [st.r2 for st in states], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ens.z[k], [st.z for st in states], rtol=1e-12, atol=1e-12)
    return switches


def _signed_terms(rng, shape):
    """Normals over 60 orders of magnitude, a third of them +0.0 or -0.0, so
    a sum in the wrong grouping or with the wrong sign of zero shows."""
    x = rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
    zero = rng.random(shape) < 0.3
    x[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    return x


def _bits(v):
    return np.ascontiguousarray(v).view(np.int64)


@pytest.mark.parametrize("k", range(1, 8))
def test_sum_terms_matches_numpy_sum_and_einsum_bit_for_bit(k):
    # the full engine sums rows of (2n, m) columns where a path-major engine
    # summed a last axis: the two must round, and sign zeros, alike
    rng = np.random.default_rng(k)
    m = 1024
    x = _signed_terms(rng, (m, k))
    x[:8] = -0.0  # rows of negative zeros only
    x[8:16, 0] = -0.0
    assert np.array_equal(_bits(sim._sum_terms(x.T)), _bits(x.sum(axis=-1)))


def _frame_columns(n, m, seed):
    """m unit columns (2n, m) on H^n: random ones, then e1 = +-e_0 and e_n,
    and on n >= 2 one with w_0 = 0 (a zero (0, n) pair)."""
    e1 = np.random.default_rng(seed).standard_normal((2 * n, m))
    e1 /= np.sqrt((e1**2).sum(axis=0))
    special = [np.eye(2 * n)[0], -np.eye(2 * n)[0], np.eye(2 * n)[n]]
    if n >= 2:
        special.append(np.eye(2 * n)[1])
    e1[:, :len(special)] = np.array(special).T
    return e1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_apply_matches_the_frame_matrix(n):
    e1 = _frame_columns(n, 256, n)
    x = np.random.default_rng(10 + n).standard_normal((2 * n, 256))
    axis = sim._frame_axis(e1)
    q = cpl.frame(e1.T, np.zeros_like(e1.T))
    np.testing.assert_allclose(sim._frame_apply(axis, x), np.einsum("mij,jm->im", q, x),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(sim._frame_apply(axis, x, transpose=True),
                               np.einsum("mji,jm->im", q, x), rtol=0, atol=1e-14)
    # the first column is e1 itself, and Q^T Q = I
    e0 = np.zeros_like(x)
    e0[0] = 1.0
    np.testing.assert_allclose(sim._frame_apply(axis, e0), e1, rtol=0, atol=1e-15)
    back = sim._frame_apply(axis, sim._frame_apply(axis, x), transpose=True)
    np.testing.assert_allclose(back, x, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_apply_gives_a_column_the_same_bits_alone(n):
    # a path must not round differently in a group of one path
    m = 1024
    e1 = _frame_columns(n, m, 20 + n)
    x = np.random.default_rng(30 + n).standard_normal((2 * n, m))
    for transpose in (False, True):
        wide = sim._frame_apply(sim._frame_axis(e1), x, transpose)
        alone = np.concatenate([sim._frame_apply(sim._frame_axis(e1[:, i:i + 1]),
                                                 x[:, i:i + 1], transpose)
                                for i in range(m)], axis=1)
        assert np.array_equal(_bits(alone), _bits(wide))


# ---------------------------------------------------------------------------
# input contract of the ensemble runners


@pytest.mark.parametrize("bad", [[-1.0], [0.05, -1e-9], [float("nan")], [float("inf")]])
def test_runners_reject_bad_checkpoints(bad):
    with pytest.raises(ValueError, match="checkpoints"):
        sim.simulate_ensemble(cpl.synchronous_policy(), grp.identity(1),
                              grp.point([1.0], [0.0], 0.0), T=0.1, n_paths=4,
                              dt=0.01, checkpoints=bad)
    with pytest.raises(ValueError, match="checkpoints"):
        sim.simulate_reflection_exact(r0=1.0, T=0.1, n_paths=4, checkpoints=bad)


@pytest.mark.parametrize("n_paths", [0, -3, 2.5, True])
def test_runners_reject_empty_ensembles(n_paths):
    # and counts that are no integer: 2.5 was numpy's TypeError, True one path
    with pytest.raises(ValueError, match="n_paths"):
        sim.simulate_ensemble(cpl.synchronous_policy(), grp.identity(1),
                              grp.point([1.0], [0.0], 0.0), T=0.1, n_paths=n_paths, dt=0.01)
    with pytest.raises(ValueError, match="n_paths"):
        sim.simulate_reflection_exact(r0=1.0, T=0.1, n_paths=n_paths)


def test_checkpoints_past_the_horizon_are_recorded_at_it():
    ens = sim.simulate_ensemble(cpl.synchronous_policy(), grp.identity(1),
                                grp.point([1.0], [0.0], 0.0), T=0.1, n_paths=4,
                                dt=0.01, checkpoints=[0.05, 1.0])
    exact = sim.simulate_reflection_exact(r0=1.0, T=0.1, n_paths=4, checkpoints=[0.05, 1.0])
    for e in (ens, exact):
        assert np.allclose(e.times, [0.05, 0.1])
        assert np.all(np.isfinite(e.r2)) and np.all(np.isfinite(e.z))


_H1_START = {"a": grp.identity(1), "aprime": grp.point([1.0], [0.0], 0.0)}
_BAD_ENSEMBLE_INPUTS = [
    pytest.param("a", {"a": grp.point([np.nan], [0.0], 0.0)}, id="a=nan"),
    pytest.param("aprime", {"aprime": grp.point([1.0], [0.0], np.inf)}, id="aprime=inf"),
    pytest.param("aprime", {"aprime": grp.point([1.0, 0.0], [0.0, 0.0], 0.0)}, id="aprime-in-H2"),
    pytest.param("dt", {"dt": -0.01}, id="dt<0"),
    pytest.param("dt", {"dt": float("nan")}, id="dt=nan"),
    pytest.param("T", {"dt": 1e-300}, id="dt=1e-300"),  # 1e299 steps: past int64
    pytest.param("T", {"T": 1e-12, "dt": 1e-3}, id="T=1e-12"),  # rounds to 0 steps
    pytest.param("T", {"T": 1.5e-9, "dt": 1e-9}, id="T=1.5e-9"),  # rounds to 2 steps
    pytest.param("T", {"T": -0.1}, id="T<0"),
    pytest.param("T", {"T": float("nan")}, id="T=nan"),
    pytest.param("T", {"T": float("inf")}, id="T=inf"),
    pytest.param("policy matrix", {"policy": cpl.custom_policy(0.5 * np.eye(4))},
                 id="4x4-custom-K-on-H1"),
]


@pytest.mark.parametrize("scheme", ["full", "reduced"])
@pytest.mark.parametrize("arg,bad", _BAD_ENSEMBLE_INPUTS)
def test_simulate_ensemble_rejects_bad_input(arg, bad, scheme):
    kw = {"policy": cpl.reflection_policy(), **_H1_START, "T": 0.1, "n_paths": 4,
          "dt": 0.01, "scheme": scheme, **bad}
    with pytest.raises(ValueError, match=rf"^{arg} must"):
        sim.simulate_ensemble(**kw)


def test_simulate_ensemble_zero_horizon_takes_no_step():
    # T = 0 records the start; a positive T that rounds to 0 steps is refused above
    ens = sim.simulate_ensemble(cpl.reflection_policy(), **_H1_START, T=0.0, n_paths=4, dt=1e-3)
    assert ens.times.tolist() == [0.0] and ens.meta["steps"] == 0
    assert np.all(ens.r2 == 1.0)


_BAD_THREADS = [0, -2, 2.5, True]


@pytest.mark.parametrize("threads", _BAD_THREADS)
def test_simulate_ensemble_rejects_bad_threads(threads):
    with pytest.raises(ValueError, match=r"^threads must"):
        sim.simulate_ensemble(cpl.reflection_policy(), **_H1_START, T=0.1, n_paths=4,
                              dt=0.01, threads=threads)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("arg,bad", [
    pytest.param("r0", {"r0": _NAN}, id="r0=nan"),
    pytest.param("r0", {"r0": -0.5}, id="r0<0"),
    pytest.param("z0", {"z0": _NAN}, id="z0=nan"),
    pytest.param("T", {"T": _NAN}, id="T=nan"),
    pytest.param("T", {"T": -1.0}, id="T<0"),
    pytest.param("T", {"T": _INF}, id="T=inf"),
    pytest.param("delta", {"delta": 0.0}, id="delta=0"),
    pytest.param("t_first", {"t_first": 0.0}, id="t_first=0"),
    *(pytest.param("threads", {"threads": t}, id=f"threads={t}") for t in _BAD_THREADS),
])
def test_simulate_reflection_exact_rejects_bad_input(arg, bad):
    kw = {"r0": 1.0, "T": 0.1, "n_paths": 4, **bad}
    with pytest.raises(ValueError, match=rf"^{arg} must"):
        sim.simulate_reflection_exact(**kw)


@pytest.mark.parametrize("arg,bad", [
    pytest.param("r2_0", {"r2_0": _NAN}, id="r2_0=nan"),
    pytest.param("r2_0", {"r2_0": -1.0}, id="r2_0<0"),
    pytest.param("z_0", {"z_0": _NAN}, id="z_0=nan"),
    pytest.param("t_max", {"t_max": _NAN}, id="t_max=nan"),
    pytest.param("t_max", {"t_max": -1.0}, id="t_max<0"),
    pytest.param("t_max", {"t_max": _INF}, id="t_max=inf"),
    pytest.param("n_paths", {"n_paths": 0}, id="n_paths=0"),
    pytest.param("n_paths", {"n_paths": 2.5}, id="n_paths=2.5"),
    pytest.param("n_paths", {"n_paths": True}, id="n_paths=True"),
    pytest.param("alpha", {"alpha": _NAN}, id="alpha=nan"),
    pytest.param("success_dh", {"success_dh": _NAN}, id="success_dh=nan"),
])
def test_kendall_success_times_rejects_bad_input(arg, bad):
    kw = {"r2_0": 1.0, "z_0": 0.0, "t_max": 1.0, "n_paths": 4, **bad}
    with pytest.raises(ValueError, match=rf"^{arg} must"):
        sim.kendall_success_times(cpl.kendall_policy(), **kw)


def test_kendall_success_times_raises_past_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(sim, "KENDALL_MAX_ITERS", 5)
    with pytest.raises(RuntimeError, match="exceeded KENDALL_MAX_ITERS"):
        sim.kendall_success_times(cpl.kendall_policy(), 1.0, 0.0, 2.0, 16)


_BAD_SEEDS = [
    pytest.param(1.5, id="seed=1.5"),
    pytest.param(-1, id="seed=-1"),
    pytest.param(2**64, id="seed=2**64"),
    pytest.param(True, id="seed=True"),
    pytest.param(_NAN, id="seed=nan"),
]
_SEEDED_RUNNERS = {
    "ensemble": lambda seed: sim.simulate_ensemble(
        cpl.reflection_policy(), **_H1_START, T=0.1, n_paths=4, dt=0.01, seed=seed),
    "reflection-exact": lambda seed: sim.simulate_reflection_exact(
        r0=1.0, T=0.1, n_paths=4, seed=seed),
    "kendall": lambda seed: sim.kendall_success_times(
        cpl.kendall_policy(), r2_0=1.0, z_0=0.0, t_max=1.0, n_paths=4, seed=seed),
}


@pytest.mark.parametrize("runner", sorted(_SEEDED_RUNNERS))
@pytest.mark.parametrize("seed", _BAD_SEEDS)
def test_runners_reject_bad_seeds(runner, seed):
    with pytest.raises(ValueError, match=r"^seed must"):
        _SEEDED_RUNNERS[runner](seed)


def test_philox_stream_accepts_numpy_integer_seeds():
    draw = lambda seed: sim.philox_stream(seed, 3).standard_normal(4)
    assert np.array_equal(draw(np.int64(7)), draw(7))
    assert np.array_equal(draw(np.uint64(2**64 - 1)), draw(2**64 - 1))


# ---------------------------------------------------------------------------
# artifact bytes: SHA-256 (first 16 hex digits) of the whole to_csv file text,
# header note fixed.  The cases are an exact-runner ensemble, a full-scheme H^1
# ensemble whose last RNG block holds one path, and a reduced H^2 ensemble with
# non-finite, signed-zero and subnormal entries set by hand; each written whole
# and capped at 0, 1 and 5 paths.  A change to the CSV writer must leave every
# digest unchanged.

_CSV_NOTE = "golden note"


@functools.lru_cache(maxsize=None)
def _csv_ensemble(case):
    if case == "exact":
        return _golden_ensemble("exact/reflection", 1, 3000)
    if case == "full-kendall":
        return _golden_ensemble("full/kendall/n1", 1, 1025)
    ens = _golden_ensemble("reduced/perverse/n2", 1)
    ens.r2[0, 0] = np.nan
    ens.z[1, 1] = np.inf
    ens.v[2, 2] = -np.inf
    ens.qv[0, 3] = -0.0
    ens.r2[-1, 4] = 5e-324
    ens.z[-1, 0] = -5e-324
    ens.qv[-1, 2] = np.finfo(float).max
    return ens


_CSV_GOLDEN = {
    "exact/0": "f898184347fb2edc",
    "exact/1": "ce84241d91f9e05f",
    "exact/5": "69a3037e682e99bf",
    "exact/all": "df15e6d087d17011",
    "full-kendall/0": "f898184347fb2edc",
    "full-kendall/1": "f32011b08b51d3f2",
    "full-kendall/5": "d1f50f90cdb12d0b",
    "full-kendall/all": "6f080ed21cfb5b3d",
    "special/0": "f898184347fb2edc",
    "special/1": "716fd41ccdd2b5db",
    "special/5": "fa327954b71e1cd0",
    "special/all": "406bd4729bdb15d7",
}


@pytest.mark.parametrize("key", sorted(_CSV_GOLDEN))
def test_to_csv_file_golden(tmp_path, key):
    case, cap = key.split("/")
    path = tmp_path / "ensemble.csv"
    _csv_ensemble(case).to_csv(path, header_note=_CSV_NOTE,
                               max_paths=None if cap == "all" else int(cap))
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == _CSV_GOLDEN[key]


@pytest.mark.parametrize("case", ["exact", "special"])
def test_to_csv_round_trips_every_float(tmp_path, case):
    # %.17g round-trips every float64, so the columns parse back bit for bit
    ens = _csv_ensemble(case)
    path = tmp_path / "ensemble.csv"
    ens.to_csv(path, header_note=_CSV_NOTE)
    lines = path.read_text().splitlines()
    assert lines[:2] == [f"# {_CSV_NOTE}", "checkpoint_time,path_id,R2,Z,V,QV"]
    table = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[2:]])
    nt, m = ens.r2.shape
    table = table.reshape(nt, m, 6)
    assert np.array_equal(table[:, :, 0], np.repeat(ens.times[:, None], m, axis=1))
    assert np.array_equal(table[:, :, 1], np.tile(np.arange(m), (nt, 1)))
    for col, name in enumerate(("r2", "z", "v", "qv"), start=2):
        assert table[:, :, col].tobytes() == getattr(ens, name).tobytes(), name


def _savetxt_csv(ens, path, header_note="", max_paths=None):
    """Reference writer: np.savetxt over the whole (rows, 6) table."""
    nt, m = ens.r2.shape
    m = m if max_paths is None else min(m, max_paths)
    body = np.column_stack([np.repeat(ens.times, m), np.tile(np.arange(m), nt)]
                           + [getattr(ens, name)[:, :m].ravel()
                              for name in ("r2", "z", "v", "qv")])
    with open(path, "w") as fh:
        fh.write(f"# {header_note}\n")
        fh.write("checkpoint_time,path_id,R2,Z,V,QV\n")
        np.savetxt(fh, body, fmt="%.17g", delimiter=",")


def _random_bits_ensemble(nt, m, seed):
    # every float64 bit pattern is as likely: all exponents, subnormals,
    # signed zeros, infinities and NaNs with any payload
    rng = np.random.default_rng(seed)
    bits = lambda: rng.integers(0, 2**64, size=(nt, m), dtype=np.uint64).view(np.float64)
    return sim.PathEnsemble(times=np.sort(rng.uniform(0.0, 10.0, nt)), r2=bits(), z=bits(),
                            v=bits(), qv=bits(), drift_int=bits(), absorbed_at=np.full(m, np.nan))


def _plant(case, cols):
    """Give the (..., rows) arrays `cols` a column pattern 7-row write blocks may fold."""
    if case == "split":  # constant over the first write block, not the next
        cols[0][..., :7] = cols[0][..., :1]
    elif case == "signed-zero":  # all 0.0 but one -0.0, in the second write block
        cols[1][...] = 0.0
        cols[1][..., 9] = -0.0
    elif case == "nan":
        cols[2][...] = np.nan
    elif case == "nan-payloads":  # quiet NaNs with payloads 1, 2, ...
        rows = cols[3].shape[-1]
        cols[3][...] = (np.uint64(0x7FF8000000000001)
                        + np.arange(rows, dtype=np.uint64)).view(np.float64)
    elif case == "all-constant":  # no `%` field is left in any write block
        for col in cols:
            col[...] = col[..., :1]


_FOLD_CASES = ("split", "signed-zero", "nan", "nan-payloads", "all-constant")


@pytest.mark.parametrize("max_paths, fold",
                         [pytest.param(mp, None, id=str(mp)) for mp in (None, 0, 7, 8, 22, 10**6)]
                         + [pytest.param(None, case, id=case) for case in _FOLD_CASES])
def test_to_csv_blocks_match_savetxt(tmp_path, monkeypatch, max_paths, fold):
    # 7-row write blocks split each checkpoint's 23 paths (and a 23-row
    # table) unevenly; a `fold` case plants a column the writer may format once
    monkeypatch.setattr(sim, "_CSV_ROWS", 7)
    ens = _random_bits_ensemble(5, 23, seed=max_paths or 0)
    _plant(fold, [ens.r2, ens.z, ens.v, ens.qv])
    mine, ref = tmp_path / "mine.csv", tmp_path / "ref.csv"
    ens.to_csv(mine, header_note="n", max_paths=max_paths)
    _savetxt_csv(ens, ref, header_note="n", max_paths=max_paths)
    assert mine.read_bytes() == ref.read_bytes()

    # the block writer alone, with no lead, on a 7-column table
    table = np.concatenate([ens.r2[:3], ens.v[:3], ens.qv[:1]]).T.copy()
    _plant(fold, list(table.T))
    with open(mine, "w") as fh:
        sim._write_csv_block(fh, list(map(str, range(23))), table, "")
    with open(ref, "w") as fh:
        np.savetxt(fh, np.column_stack([np.arange(23), table]), fmt="%.17g", delimiter=",")
    assert mine.read_bytes() == ref.read_bytes()


def test_to_csv_accepts_numpy_integer_caps(tmp_path):
    ens = _random_bits_ensemble(2, 9, seed=1)
    ens.to_csv(tmp_path / "a.csv", max_paths=np.int64(4))
    ens.to_csv(tmp_path / "b.csv", max_paths=4)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("bad", [-2, -1, 2.5, 3.0, "3", True, np.float64(2.0), [3]])
def test_to_csv_rejects_bad_max_paths(tmp_path, bad):
    path = tmp_path / "e.csv"
    with pytest.raises(ValueError, match=r"^max_paths must be None or an integer >= 0"):
        _random_bits_ensemble(2, 9, seed=1).to_csv(path, max_paths=bad)
    assert not path.exists()
