"""Built-in experiments: desk-scale checks with CSV/JSON artifacts.

Each experiment runs a simulation or estimator workload, writes three files
into its output directory -- ensemble.csv (path ensemble, header-only when the
experiment has no per-path output), summary.csv (named statistics), and
report.jsonl (one check per line: experiment, quantity, value, stderr, pass)
-- and reports overall success.  Configs are flat key=value sections, one per
experiment; unknown keys are rejected.
"""

import configparser
import json
import math
import os
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from heiscouple import coupling as cpl
from heiscouple import estimators as est
from heiscouple import group as grp
from heiscouple import static as stc
from heiscouple.constants import (
    ALGEBRA_TOL, BASELINE_SLOPE_BAND, BLOWUP_RATIO_MIN, COST_SPREAD_MAX, DEFAULT_DT,
    EXCURSION_BIAS_ALLOWANCE, EXPONENT_P025_BAND, EXPONENT_P1_BAND, KENDALL_EPSILON,
    KENDALL_KAPPA, KENDALL_SUCCESS_DH, KS_PVALUE_MIN, MATRIX_TOL, MAX_MAGNITUDE,
    PATH_STEP_BUDGET, QUADRATURE_TOL, RNG_BLOCK, SIGMA_GATE, STATIC_T_RANGE,
    SUCCESS_FRACTION_MIN, TAU_KS_MAX,
)
from heiscouple.simulate import (
    PathEnsemble,
    _is_integer,
    _whole_steps,
    kendall_success_times,
    philox_stream,
    simulate_ensemble,
    simulate_reflection_exact,
)


@dataclass
class Check:
    quantity: str
    value: float
    stderr: float
    ok: bool


def _check(quantity, value, ok, stderr=float("nan")):
    return Check(quantity, float(value), float(stderr), bool(ok))


def _floats(text):
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip())


# ---------------------------------------------------------------------------
# experiment runners; each returns (checks, summary_rows, ensemble) where
# summary rows are (checkpoint_time, stat_name, estimate, stderr, n)

# the ensemble of a runner that keeps none: its ensemble.csv is the header alone
_NO_ENSEMBLE = PathEnsemble(np.empty(0), *[np.empty((0, 0))] * 5, absorbed_at=np.empty(0))


def _run_algebra_suite(p, threads):
    rng = philox_stream(p["seed"], 0)
    m = p["n_cases"]
    worst = {}
    for n in (1, 2, 3):
        dim = 2 * n + 1
        a, b, c = (rng.standard_normal((m, dim)) for _ in range(3))
        lam = np.exp(rng.uniform(-1.5, 1.5, size=m))
        th = rng.uniform(0, 2 * math.pi, size=m)
        scale = lambda x: np.maximum(np.abs(x), 1.0)  # noqa: E731

        e1 = np.abs(grp.mul(grp.mul(a, b), c) - grp.mul(a, grp.mul(b, c)))
        worst[f"associativity_n{n}"] = float(
            (e1 / scale(grp.mul(a, grp.mul(b, c)))).max()
        )
        e2 = np.abs(grp.mul(a, grp.inverse(a)) - grp.identity(n))
        worst[f"inverse_n{n}"] = float(e2.max())
        d0 = grp.quasidistance(b, c)
        d1 = grp.quasidistance(grp.mul(a, b), grp.mul(a, c))
        worst[f"left_invariance_n{n}"] = float((np.abs(d1 - d0) / scale(d0)).max())
        h0 = grp.quasinorm(grp.dilate(a, lam))
        h1 = lam * grp.quasinorm(a)
        worst[f"dilation_homogeneity_n{n}"] = float((np.abs(h0 - h1) / scale(h1)).max())
        d2 = grp.quasidistance(grp.rotate(b, th[:, None]), grp.rotate(c, th[:, None]))
        worst[f"rotation_isometry_n{n}"] = float((np.abs(d2 - d0) / scale(d0)).max())
    checks = [_check(k, v, v < ALGEBRA_TOL) for k, v in sorted(worst.items())]
    rows = [(float("nan"), k, v, float("nan"), m) for k, v in sorted(worst.items())]
    return checks, rows, _NO_ENSEMBLE


def _random_contractions(rng, n, m):
    g = rng.standard_normal((m, 2 * n, 2 * n))
    smax = np.linalg.svd(g, compute_uv=False)[:, 0]
    return g * (rng.uniform(0.05, 1.0, size=m) / smax)[:, None, None]


def _run_matrix_lemmas(p, threads):
    rng = philox_stream(p["seed"], 0)
    m = p["n_cases"]
    checks, rows = [], []
    for n in (1, 2):
        j = _random_contractions(rng, n, m)
        u = rng.standard_normal((m, 2 * n))
        e1 = u / np.linalg.norm(u, axis=1, keepdims=True)
        q = cpl.frame(e1, np.zeros_like(e1))
        k = cpl.change_basis(j, q)
        tr_err = float(np.abs(np.trace(k, axis1=1, axis2=2) - np.trace(j, axis1=1, axis2=2)).max())
        checks.append(_check(f"trace_invariance_n{n}", tr_err, tr_err < MATRIX_TOL))
        jhat = cpl.complete_jhat(j)
        res = jhat @ np.swapaxes(jhat, 1, 2) + j @ np.swapaxes(j, 1, 2) - np.eye(2 * n)
        d_err = float(np.abs(res).max())
        checks.append(_check(f"defect_completion_n{n}", d_err, d_err < MATRIX_TOL))
        if n == 1:
            asym = (k[:, 0, 1] - k[:, 1, 0]) - (j[:, 0, 1] - j[:, 1, 0])
            a_err = float(np.abs(asym).max())
            checks.append(_check("asym_invariance_n1", a_err, a_err < MATRIX_TOL))
    # validator agreement with a direct singular value check, including
    # matrices scaled to straddle the tolerance boundary
    n = 2
    j = _random_contractions(rng, n, m // 2)
    j = np.concatenate([j, j * rng.uniform(0.9, 1.3, size=(m // 2, 1, 1))])
    direct = np.linalg.svd(j, compute_uv=False)[:, 0] <= 1.0 + MATRIX_TOL
    mine = np.array([cpl.validate_coupling_matrix(jj) for jj in j])
    agree = float((mine == direct).mean())
    checks.append(_check("validator_agreement", agree, agree == 1.0))
    rows = [(float("nan"), c.quantity, c.value, float("nan"), m) for c in checks]
    return checks, rows, _NO_ENSEMBLE


def _run_scheme_consistency(p, threads):
    # full vs reduced under the reflection-type couplings only: synchronous
    # and perverse have closed-form (R^2, Z) laws that both engines step
    # exactly, so comparing them could not fail
    checks, rows = [], []
    r0sq = float((grp.horizontal(grp.mul(grp.inverse(p["a"]), p["aprime"])) ** 2).sum())
    kw = dict(a=p["a"], aprime=p["aprime"], T=p["horizon"], n_paths=p["n_paths"], dt=p["dt"],
              checkpoints=[p["horizon"]], threads=threads)
    for name in ("reflection", "kendall"):
        pol = cpl.CouplingPolicy(name, p["kappa"], p["epsilon"])
        full = simulate_ensemble(pol, scheme="full", seed=p["seed"], **kw)
        red = simulate_ensemble(pol, scheme="reduced", seed=p["seed"] + 1, **kw)
        _, p_r = est.ks_two_sample(full.r2[-1], red.r2[-1])
        _, p_z = est.ks_two_sample(full.z[-1], red.z[-1])
        checks.append(_check(f"{name}/ks_r2_pvalue", p_r, p_r > KS_PVALUE_MIN))
        checks.append(_check(f"{name}/ks_z_pvalue", p_z, p_z > KS_PVALUE_MIN))
        for tag, ens in (("full", full), ("reduced", red)):
            # E[R^2_T] - R0^2 = E[int 2 tr(I-K) ds], within SIGMA_GATE sigma
            gap = ens.r2[-1] - r0sq - ens.drift_int[-1]
            se = gap.std(ddof=1) / math.sqrt(ens.n_paths)
            checks.append(_check(f"{name}/{tag}/r2_identity_gap", gap.mean(),
                                 abs(gap.mean()) <= SIGMA_GATE * se or np.allclose(gap, 0.0),
                                 se))
            for stat, x in (("r2", ens.r2[-1]), ("z", ens.z[-1])):
                rows.append((p["horizon"], f"{name}/{tag}/mean_{stat}", float(x.mean()),
                             float(x.std(ddof=1) / math.sqrt(ens.n_paths)), ens.n_paths))
        rows.append((p["horizon"], f"{name}/ks_r2_pvalue", p_r, float("nan"), p["n_paths"]))
        rows.append((p["horizon"], f"{name}/ks_z_pvalue", p_z, float("nan"), p["n_paths"]))
    return checks, rows, full  # the kendall full ensemble


def _run_blowup(strategy):
    def run(p, threads):
        pol = cpl.CouplingPolicy(strategy)
        cks = sorted({1.0, p["horizon"]} | {p["horizon"] * 2.0**-k for k in range(7)})
        ens = simulate_ensemble(
            pol, p["a"], p["aprime"], T=p["horizon"], n_paths=p["n_paths"], dt=p["dt"],
            seed=p["seed"], scheme=p["scheme"], checkpoints=cks, threads=threads,
        )
        moms = est.estimate_moment(ens, p=2, metric="d_h")
        lo = min(moms, key=lambda m: abs(m.time - 1.0))
        hi = min(moms, key=lambda m: abs(m.time - p["horizon"]))
        # delta-method error on the ratio from the two MC stderrs (its
        # one-sided gate is in constants).  With a zero mean (a = a' under
        # synchronous: the legs never part) there is no ratio: a failed, NaN
        # check
        if lo.estimate > 0 and hi.estimate > 0:
            ratio = hi.estimate / lo.estimate
            se = ratio * math.sqrt((hi.stderr / hi.estimate) ** 2
                                   + (lo.stderr / lo.estimate) ** 2)
        else:
            ratio = se = float("nan")
        checks = [_check("dh2_ratio_T_over_1", ratio,
                         ratio + SIGMA_GATE * se > BLOWUP_RATIO_MIN, se)]
        rows = [(m.time, "mean_dh2", m.estimate, m.stderr, m.n_paths) for m in moms]
        return checks, rows, ens

    return run


def _run_kendall_success(p, threads):
    pol = cpl.kendall_policy(kappa=p["kappa"], epsilon=p["epsilon"])
    try:
        times = kendall_success_times(
            pol, r2_0=p["r0"] ** 2, z_0=p["z0"], t_max=max(p["checkpoints"]),
            n_paths=p["n_paths"], alpha=p["alpha"], success_dh=p["success_dh"],
            seed=p["seed"],
        )
    except RuntimeError as err:
        # the runner's only RuntimeError is its phase-update cap; alpha sets
        # the reflection step, so a larger alpha takes fewer updates
        raise ConfigError(f"section [kendall-success], key 'alpha': too small for this run "
                          f"({err})") from err
    rows = []
    for t in sorted(p["checkpoints"]):
        f = float((times <= t).mean())
        se = math.sqrt(max(f * (1 - f), 1e-12) / p["n_paths"])
        rows.append((t, "success_fraction", f, se, p["n_paths"]))
    f, se = rows[-1][2:4]
    checks = [_check("success_fraction_final", f, f > SUCCESS_FRACTION_MIN, se)]
    return checks, rows, _NO_ENSEMBLE


def _run_reflection_exponents(p, threads):
    cks = list(p["checkpoints"])
    ens = simulate_reflection_exact(
        r0=p["r0"], T=max(cks), n_paths=p["n_paths"], seed=p["seed"],
        checkpoints=cks, threads=threads,
    )
    idx = [int(np.argmin(np.abs(ens.times - t))) for t in cks]
    # Z is frozen once R hits 0: with no path alive at the start of the fit
    # window there is no growth law to fit, and a NaN exponent fails its check
    alive = bool((ens.r2[min(idx)] > 0).any())
    checks, rows = [], []
    fits = {}
    for pw in (1.0, 0.5, 0.25):
        every = est.estimate_moment(ens, p=pw, metric="abs_z")
        moms = [every[i] for i in idx]
        slope = (est.fit_power_law(moms, window=(min(cks), max(cks))).exponent
                 if alive and all(m.estimate > 0 for m in moms) else float("nan"))
        fits[pw] = (moms, slope)
        rows += [(m.time, f"abs_z_p{pw}", m.estimate, m.stderr, m.n_paths) for m in moms]
        rows.append((float("nan"), f"exponent_p{pw}", slope, float("nan"), p["n_paths"]))
    p1, p025 = fits[1.0][1], fits[0.25][1]
    checks.append(_check("exponent_p1", p1, EXPONENT_P1_BAND[0] <= p1 <= EXPONENT_P1_BAND[1]))
    checks.append(_check("exponent_p025", p025,
                         EXPONENT_P025_BAND[0] <= p025 <= EXPONENT_P025_BAND[1]))
    moms = fits[0.5][0]
    prefer = (float(est.compare_log_vs_power([m.time for m in moms], [m.estimate for m in moms])
                    ["prefer_log"]) if math.isfinite(fits[0.5][1]) else float("nan"))
    checks.append(_check("p05_log_beats_power", prefer, prefer == 1.0))
    every = est.estimate_moment(ens, p=1, metric="r")
    r_moms = [every[i] for i in idx]
    # with no spread at a checkpoint (every path absorbed) there is no sigma
    # to count the deviation in: a failed, NaN check
    worst = (max(abs(m.estimate - p["r0"]) / m.stderr for m in r_moms)
             if all(m.stderr > 0 for m in r_moms) else float("nan"))
    checks.append(_check("radial_martingale_max_sigma", worst, worst <= SIGMA_GATE))
    rows += [(m.time, "mean_r", m.estimate, m.stderr, m.n_paths) for m in r_moms]
    return checks, rows, ens


def _run_reflection_hitting(p, threads):
    ens = simulate_reflection_exact(
        r0=p["r0"], T=p["horizon"], n_paths=p["n_paths"], seed=p["seed"],
        checkpoints=[p["horizon"]], threads=threads,
    )
    tau = ens.absorbed_at
    hit = np.isfinite(tau)
    # KS of absorbed times against the hitting law conditioned on tau <= T
    ft = est.hitting_cdf(p["horizon"], p["r0"])
    # with no absorbed path there is no law to test: a failed, NaN check
    ks = (est.ks_statistic(tau[hit], lambda u: est.hitting_cdf(u, p["r0"]) / ft)
          if hit.any() else float("nan"))
    se = math.sqrt(ft * (1 - ft) / p["n_paths"])
    checks = [
        _check("tau_ks_statistic", ks, ks < TAU_KS_MAX),
        _check("absorbed_fraction_vs_cdf", float(hit.mean()),
               abs(hit.mean() - ft) <= SIGMA_GATE * se, se),
    ]
    rows = [
        (p["horizon"], "absorbed_fraction", float(hit.mean()), se, p["n_paths"]),
        (float("nan"), "tau_ks_statistic", float(ks), float("nan"), int(hit.sum())),
    ]
    return checks, rows, ens


def _static_costs(p, couple, offsets, **kw):
    """(mean cost, its standard error, samples) of `couple` from the identity
    of H^1 to (xp, 0, 0), for each offset xp."""
    stats = []
    for xp in offsets:
        smp = couple(grp.identity(1), grp.point([xp], [0.0], 0.0), t=p["t"],
                     n_samples=p["n_samples"], seed=p["seed"], m_steps=p["m_steps"], **kw)
        stats.append((float(smp.cost.mean()),
                      float(smp.cost.std(ddof=1) / math.sqrt(smp.n_samples)), smp.n_samples))
    return stats


def _run_static_ratio(p, threads):
    stats = _static_costs(p, stc.static_couple, p["offsets"], plan=p["plan"])
    ratios = [mean / xp for xp, (mean, _, _) in zip(p["offsets"], stats)]
    rows = [(float(xp), "cost_ratio", r, se / xp, n)
            for xp, r, (_, se, n) in zip(p["offsets"], ratios, stats)]
    # a zero cost (an offset so small the plan keeps every vertical) has no
    # ratio to compare: a failed, NaN check
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else float("nan")
    checks = [_check("cost_ratio_spread", spread, spread < COST_SPREAD_MAX)]
    return checks, rows, _NO_ENSEMBLE


def _run_static_baseline(p, threads):
    stats = _static_costs(p, stc.baseline_translation_couple, p["offsets"])
    costs = [mean for mean, _, _ in stats]
    rows = [(float(xp), "mean_cost", *stat) for xp, stat in zip(p["offsets"], stats)]
    slope, _ = np.polyfit(np.log(p["offsets"]), np.log(costs), 1)
    ref = _static_costs(p, stc.baseline_translation_couple, [1.0])[0][0]
    xp, cost = min(zip(p["offsets"], costs))  # the smallest offset and its cost
    blow = (cost / xp) / ref
    checks = [
        _check("baseline_exponent", float(slope),
               BASELINE_SLOPE_BAND[0] <= slope <= BASELINE_SLOPE_BAND[1]),
        _check("ratio_blowup_smallest_over_unit", blow, blow > BLOWUP_RATIO_MIN),
    ]
    rows.append((float("nan"), "baseline_exponent", float(slope), float("nan"), p["n_samples"]))
    return checks, rows, _NO_ENSEMBLE


def _a_p_quadrature(ps):
    """a_p = 2 int_0^q x phi(x) dx, q = Phi^-1((1+p)/2), for each p of the array ps.

    mg-lemma's oracle for `est.a_p_constant`'s closed form, by one 32-point
    Gauss-Legendre rule.  The integrand is smooth on [0, q] (q < 2 for
    p <= 0.9), so the fixed rule is exact to rounding.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(32)
    q = np.array([NormalDist().inv_cdf(v) for v in ((1.0 + ps) / 2.0).tolist()])[:, None]
    x = q / 2.0 * (nodes + 1.0)
    return q[:, 0] * (weights * x * np.exp(-x * x / 2.0)).sum(axis=1) / math.sqrt(2.0 * math.pi)


def _run_mg_lemma(p, threads):
    checks, rows = [], []
    ps = np.arange(0.1, 0.95, 0.1)
    worst = max(abs(est.a_p_constant(pp) - ref) for pp, ref in zip(ps, _a_p_quadrature(ps)))
    checks.append(_check("a_p_quadrature_max_err", worst, worst < QUADRATURE_TOL))
    rng = philox_stream(p["seed"], 0)
    m = p["n_paths"]
    # Brownian motion at h=1: <N>_1 = 1 surely, premise holds for any p
    nh = rng.standard_normal(m)
    r1 = est.martingale_lower_bound_check(nh, np.ones(m), beta=1.0, p=0.9)
    checks.append(_check("bm_bound", r1.estimate, r1.ok and r1.premise_ok, r1.stderr))
    # time-change freezing 40% of the paths at zero quadratic variation;
    # premise P(<N> >= 1) ~ 0.6 clears p = 0.5 with margin
    coin = rng.uniform(size=m) < 0.6
    nh2 = np.where(coin, rng.standard_normal(m), 0.0)
    r2 = est.martingale_lower_bound_check(nh2, coin.astype(float), beta=1.0, p=0.5)
    checks.append(_check("frozen_half_bound", r2.estimate, r2.ok and r2.premise_ok, r2.stderr))
    rows = [
        (float("nan"), "a_p_quadrature_max_err", worst, float("nan"), 9),
        (1.0, "bm_mean_abs", r1.estimate, r1.stderr, m),
        (1.0, "frozen_half_mean_abs", r2.estimate, r2.stderr, m),
    ]
    return checks, rows, _NO_ENSEMBLE


def _run_excursion_moments(p, threads):
    y = est.excursion_integrals(p["n_samples"], p["m_steps"], p["seed"])
    mm = {pw: est._moment(y ** (pw / 2), pw) for pw in (0.5, 1.0, 2.0)}
    e2 = mm[2.0]
    checks = [_check("excursion_E2", e2.estimate,
                     abs(e2.estimate - est.EXCURSION_MEAN) <= SIGMA_GATE * e2.stderr, e2.stderr)]
    m_lo, m_hi = 256, 1024  # the cyclic-shift oracle's two grids
    rej_lo = est.excursion_moment_rejection(2.0, n_samples=p["n_samples"] // 2, m_steps=m_lo, seed=p["seed"])
    rej_hi = est.excursion_moment_rejection(2.0, n_samples=p["n_samples"] // 2, m_steps=m_hi, seed=p["seed"] + 1)
    extrap = 2 * rej_hi.estimate - rej_lo.estimate
    se = math.sqrt(4 * rej_hi.stderr**2 + rej_lo.stderr**2)
    checks.append(_check("excursion_E2_rejection_extrapolated", extrap,
                         abs(extrap - est.EXCURSION_MEAN)
                         <= SIGMA_GATE * se + EXCURSION_BIAS_ALLOWANCE / m_lo, se))
    rows = [(1.0, "E2_bessel", e2.estimate, e2.stderr, e2.n_paths),
            (1.0, "E2_rejection_extrapolated", extrap, se, rej_hi.n_paths)]
    rows += [(1.0, f"E_p{pw}", m.estimate, m.stderr, m.n_paths) for pw, m in mm.items()]
    return checks, rows, _NO_ENSEMBLE


# ---------------------------------------------------------------------------
# registry, config parsing, artifact writing
#
# A schema row is (type, default, bound).  The bound is a string's choices;
# an int's least value, or (least, most, words) with its message's words; a
# float's floor it must exceed; a list's (floor its entries must exceed, how
# many must be distinct, what they are for).  A floor of None leaves the sign
# free.  Every float and list entry is at most MAX_MAGNITUDE in magnitude.

_COMMON = {
    # experiments key Philox streams (uint64) with seed up to seed + 1
    "seed": (int, 0, (0, 2**64 - 2, "in [0, 2**64 - 2]")),
}
# one sample has no standard error, so the ensemble and static sample counts
# start at 2
_ENSEMBLE = {
    "a": (_floats, (0.0, 0.0, 0.0), (None, 0, "")),
    "aprime": (_floats, (1.0, 0.0, 0.0), (None, 0, "")),
    "horizon": (float, 1.0, 0.0),
    "dt": (float, DEFAULT_DT, 0.0),
    "n_paths": (int, 10000, 2),
}
# the hysteresis thresholds, read only by the kendall policy
_KENDALL = {"kappa": (float, KENDALL_KAPPA, 0.0), "epsilon": (float, KENDALL_EPSILON, 0.0)}
_BLOWUP = {**_ENSEMBLE, "horizon": (float, 100.0, 0.0), "dt": (float, 0.01, 0.0),
           "scheme": (str, "reduced", ("reduced", "full"))}
_STATIC = {"t": (float, 1.0, STATIC_T_RANGE[0]), "n_samples": (int, 10000, 2),
           "m_steps": (int, 1024, 1)}

EXPERIMENTS = {
    "algebra-suite": ({"n_cases": (int, 10000, 1)}, _run_algebra_suite),
    "matrix-lemmas": ({"n_cases": (int, 10000, 2)}, _run_matrix_lemmas),
    "scheme-consistency": ({**_ENSEMBLE, **_KENDALL}, _run_scheme_consistency),
    **{f"blowup-{kind}": (_BLOWUP, _run_blowup(kind))
       for kind in ("synchronous", "reflection", "perverse")},
    "kendall-success": (
        {**_KENDALL, "r0": (float, 1.0, 0.0), "z0": (float, 0.0, None),
         "alpha": (float, 1e-3, 0.0), "success_dh": (float, KENDALL_SUCCESS_DH, 0.0),
         "n_paths": (int, 10000, 1),
         "checkpoints": (_floats, (10.0, 40.0, 160.0), (0.0, 1, "times"))},
        _run_kendall_success,
    ),
    "reflection-exponents": (
        {"r0": (float, 1.0, 0.0), "n_paths": (int, 100000, 2),
         "checkpoints": (_floats, tuple(np.geomspace(100.0, 10000.0, 9)),
                         (0.0, 3, "times for the power-law fit"))},
        _run_reflection_exponents,
    ),
    "reflection-hitting": (
        {"r0": (float, 2.0, 0.0), "horizon": (float, 100.0, 0.0), "n_paths": (int, 100000, 1)},
        _run_reflection_hitting,
    ),
    "static-ratio": (
        {**_STATIC, "plan": (str, "density", ("density", "assignment")),
         "offsets": (_floats, (1e-3, 1e-2, 1e-1, 1.0, 10.0), (0.0, 1, "offsets"))},
        _run_static_ratio,
    ),
    "static-baseline": (
        {**_STATIC, "n_samples": (int, 4000, 2),
         "offsets": (_floats, (1e-3, 10**-2.5, 1e-2, 10**-1.5, 1e-1),
                     (0.0, 2, "offsets for the slope fit"))},
        _run_static_baseline,
    ),
    # martingale_lower_bound_check needs 2 samples
    "mg-lemma": ({"n_paths": (int, 100000, 2)}, _run_mg_lemma),
    # the oracle runs at n_samples // 2, so 2 samples at the floor
    "excursion-moments": (
        {"n_samples": (int, 4096, 4), "m_steps": (int, 2048, 2)}, _run_excursion_moments
    ),
}


class ConfigError(ValueError):
    """Invalid configuration; identifies the offending section and key."""


def _schema(name):
    """{key: (type, default, bound)} of one experiment."""
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    return {**_COMMON, **EXPERIMENTS[name][0]}


def default_params(experiment):
    return {key: row[1] for key, row in _schema(experiment).items()}


def parse_config(path, experiment=None):
    """Parse a flat key=value config into per-experiment parameter dicts.

    Returns a list of (experiment_name, params).  Raises ConfigError naming
    the section and key for unknown experiments, unknown keys, or values
    that fail to parse or are out of range.
    """
    ini = configparser.ConfigParser(default_section="common", interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            ini.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    runs = []
    for section in ini.sections():
        if section not in EXPERIMENTS:
            raise ConfigError(f"section [{section}]: unknown experiment")
        if experiment is not None and section != experiment:
            continue
        schema = _schema(section)
        params = default_params(section)
        for key, raw in ini.items(section):
            if key not in schema:
                raise ConfigError(f"section [{section}], key {key!r}: unknown key")
            try:
                params[key] = schema[key][0](raw)
            except ValueError as exc:
                raise ConfigError(
                    f"section [{section}], key {key!r}: bad value {raw!r} ({exc})"
                ) from exc
        _validate_params(section, params)
        runs.append((section, params))
    if experiment is not None and not runs:
        raise ConfigError(f"config has no [{experiment}] section")
    return runs


def _is_number(x):
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


# what each schema type accepts from a programmatic caller, and its name
_TYPES = {
    int: (_is_integer, "an integer"),
    float: (_is_number, "a number"),
    str: (lambda x: isinstance(x, str), "a string"),
    _floats: (lambda x: isinstance(x, (tuple, list, np.ndarray)) and np.ndim(x) == 1
              and all(map(_is_number, x)), "a list of numbers"),
}


def _above(lo):
    return "positive" if lo == 0 else f"greater than {lo!r}"


def _breaks(kind, bound, v):
    """What a value of the schema type `kind` lacks to keep `bound`, or None."""
    if kind is str:
        return None if v in bound else "must be one of " + ", ".join(map(repr, bound))
    if kind is int:
        least, most, words = bound if isinstance(bound, tuple) else (bound, math.inf, "")
        return None if least <= v <= most else "must be " + (
            words or ("positive" if v < 1 else f"at least {least}"))
    if not np.all(np.isfinite(v)):
        return "must be finite"
    if kind is float:
        if bound is not None and not v > bound:
            return f"must be {_above(bound)}"
        return None if abs(v) <= MAX_MAGNITUDE else (
            f"must be at most {MAX_MAGNITUDE:g} in magnitude")
    floor, distinct, words = bound
    if floor is not None and (len(v) == 0 or any(x <= floor for x in v)):
        return f"needs {_above(floor)} entries"
    if any(abs(x) > MAX_MAGNITUDE for x in v):
        return f"needs entries at most {MAX_MAGNITUDE:g} in magnitude"
    return None if len(set(v)) >= distinct else f"needs at least {distinct} distinct {words}"


def _validate_params(section, params):
    schema = _schema(section)
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ConfigError(f"section [{section}], key {unknown[0]!r}: unknown key")
    for key, (kind, _, bound) in schema.items():
        accepts, name = _TYPES[kind]
        why = _breaks(kind, bound, params[key]) if accepts(params[key]) else f"must be {name}"
        if why:
            raise ConfigError(f"section [{section}], key {key!r}: {why}")
    # the rules that join keys: the Euler grid ends on the horizon within the
    # work budget, the kendall hysteresis needs epsilon < kappa, the start
    # points share one H^n
    if "dt" in params:
        n_steps = _whole_steps(params["horizon"], params["dt"])
        if n_steps is None:
            raise ConfigError(f"section [{section}], key 'dt': must divide 'horizon' into "
                              "a whole number of steps")
        work = -(-params["n_paths"] // RNG_BLOCK) * RNG_BLOCK * n_steps
        if work > PATH_STEP_BUDGET:
            raise ConfigError(f"section [{section}], key 'dt': asks for {work:.3g} path-steps "
                              f"a run, more than the budget of {PATH_STEP_BUDGET:.0e}")
    if "kappa" in params and not params["epsilon"] < params["kappa"]:
        raise ConfigError(f"section [{section}], key 'epsilon': must be less than 'kappa'")
    if "a" in params:
        for key in ("a", "aprime"):
            if len(params[key]) < 3 or len(params[key]) % 2 == 0:
                raise ConfigError(f"section [{section}], key {key!r}: must be a group point "
                                  "of 2n + 1 >= 3 numbers")
        if len(params["a"]) != len(params["aprime"]):
            raise ConfigError(f"section [{section}], key 'aprime': must be as long as 'a'")


_ENSEMBLE_CAP = 20000  # paths written to ensemble.csv


def _write_artifacts(name, checks, rows, ens, out_dir, stamp):
    os.makedirs(out_dir, exist_ok=True)
    ens.to_csv(os.path.join(out_dir, "ensemble.csv"), header_note=f"{name} {stamp}",
               max_paths=_ENSEMBLE_CAP)
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write(f"# {name} {stamp}\n")
        fh.write("checkpoint_time,stat_name,estimate,stderr,n_paths\n")
        for t, stat, val, se, n in rows:
            fh.write(f"{t:.17g},{stat},{val:.17g},{se:.17g},{n}\n")
    with open(os.path.join(out_dir, "report.jsonl"), "w") as fh:
        for c in checks:
            fh.write(json.dumps({
                "experiment": name,
                "quantity": c.quantity,
                "value": None if math.isnan(c.value) else c.value,
                "stderr": None if math.isnan(c.stderr) else c.stderr,
                "pass": c.ok,
            }) + "\n")


def run_experiment(name, params=None, out=".", threads=1, stamp=""):
    """Run one named experiment and write its three artifact files.

    The merged parameters pass the same checks as a parsed config; raises
    ConfigError otherwise, and also unless `threads` is an integer >= 1.
    Returns (all_passed, checks).
    """
    merged = {**default_params(name), **(params or {})}
    if not (_is_integer(threads) and threads >= 1):
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    _validate_params(name, merged)
    runner = EXPERIMENTS[name][1]
    checks, rows, ens = runner(merged, threads)
    _write_artifacts(name, checks, rows, ens, os.path.join(out, name), stamp)
    return all(c.ok for c in checks), checks
