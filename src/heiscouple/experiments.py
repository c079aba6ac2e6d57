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

import numpy as np

from heiscouple import coupling as cpl
from heiscouple import estimators as est
from heiscouple import group as grp
from heiscouple import static as stc
from heiscouple.constants import (
    ALGEBRA_TOL, KENDALL_EPSILON, KENDALL_KAPPA, KENDALL_SUCCESS_DH,
    KS_PVALUE_MIN, MATRIX_TOL, MAX_CLAMP_FRACTION,
)
from heiscouple.simulate import (
    _check_count,
    _is_integer,
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


def _start_points(p):
    """Configured (a, aprime); default the origin and (1, 0, 0) on H^1."""
    a = np.asarray(p["a"]) if len(p["a"]) else grp.identity(1)
    ap = np.asarray(p["aprime"]) if len(p["aprime"]) else grp.point([1.0], [0.0], 0.0)
    return a, ap


def _floats(text):
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip())


# ---------------------------------------------------------------------------
# experiment runners; each returns (checks, summary_rows, ensemble_or_None)
# where summary rows are (checkpoint_time, stat_name, estimate, stderr, n)


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
    return checks, rows, None


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
    return checks, rows, None


def _scheme_pair(policy_name, p, threads):
    pol = cpl.CouplingPolicy(policy_name, p["kappa"], p["epsilon"])
    a, ap = _start_points(p)
    kw = dict(
        a=a, aprime=ap, T=p["horizon"], n_paths=p["n_paths"], dt=p["dt"],
        checkpoints=[p["horizon"]], threads=threads,
    )
    full = simulate_ensemble(pol, scheme="full", seed=p["seed"], **kw)
    red = simulate_ensemble(pol, scheme="reduced", seed=p["seed"] + 1, **kw)
    return full, red


def _run_scheme_consistency(p, threads):
    from scipy.stats import ks_2samp

    checks, rows = [], []
    keep = None
    a, ap = _start_points(p)
    r0sq = float((grp.horizontal(grp.mul(grp.inverse(a), ap)) ** 2).sum())
    for name in ("synchronous", "reflection", "perverse", "kendall"):
        full, red = _scheme_pair(name, p, threads)
        ks_r = ks_2samp(full.r2[-1], red.r2[-1], method="asymp")
        ks_z = ks_2samp(full.z[-1], red.z[-1], method="asymp")
        checks.append(_check(f"{name}/ks_r2_pvalue", ks_r.pvalue, ks_r.pvalue > KS_PVALUE_MIN))
        checks.append(_check(f"{name}/ks_z_pvalue", ks_z.pvalue, ks_z.pvalue > KS_PVALUE_MIN))
        for tag, ens in (("full", full), ("reduced", red)):
            # E[R^2_T] - R0^2 = E[int 2 tr(I-K) ds], within 3 sigma
            gap = ens.r2[-1] - r0sq - ens.drift_int[-1]
            se = gap.std(ddof=1) / math.sqrt(ens.n_paths)
            ok = abs(gap.mean()) <= 3 * se or np.allclose(gap, 0.0)
            checks.append(_check(f"{name}/{tag}/r2_identity_gap", gap.mean(), ok, se))
            cf = ens.meta["clamp_fraction"]
            checks.append(_check(f"{name}/{tag}/clamp_fraction", cf, cf < MAX_CLAMP_FRACTION))
            rows.append((p["horizon"], f"{name}/{tag}/mean_r2", float(ens.r2[-1].mean()),
                         float(ens.r2[-1].std(ddof=1) / math.sqrt(ens.n_paths)), ens.n_paths))
            rows.append((p["horizon"], f"{name}/{tag}/mean_z", float(ens.z[-1].mean()),
                         float(ens.z[-1].std(ddof=1) / math.sqrt(ens.n_paths)), ens.n_paths))
        if name == "kendall":
            keep = full
        rows.append((p["horizon"], f"{name}/ks_r2_pvalue", float(ks_r.pvalue), float("nan"), p["n_paths"]))
        rows.append((p["horizon"], f"{name}/ks_z_pvalue", float(ks_z.pvalue), float("nan"), p["n_paths"]))
    return checks, rows, keep


def _run_blowup(strategy):
    def run(p, threads):
        pol = cpl.CouplingPolicy(strategy)
        a, ap = _start_points(p)
        cks = sorted({1.0, p["horizon"]} | {p["horizon"] * 2.0**-k for k in range(7)})
        ens = simulate_ensemble(
            pol, a, ap, T=p["horizon"], n_paths=p["n_paths"], dt=p["dt"],
            seed=p["seed"], scheme=p["scheme"], checkpoints=cks, threads=threads,
        )
        moms = est.estimate_moment(ens, p=2, metric="d_h")
        lo = min(moms, key=lambda m: abs(m.time - 1.0))
        hi = min(moms, key=lambda m: abs(m.time - p["horizon"]))
        ratio = hi.estimate / lo.estimate
        # delta-method error on the ratio from the two MC stderrs; the gate
        # is one-sided at 3 sigma because for reflection the true ratio at
        # T=100 sits essentially on the threshold itself
        se = ratio * math.sqrt((hi.stderr / hi.estimate) ** 2 + (lo.stderr / lo.estimate) ** 2)
        checks = [_check("dh2_ratio_T_over_1", ratio, ratio + 3 * se > 10.0, se)]
        rows = [(m.time, "mean_dh2", m.estimate, m.stderr, m.n_paths) for m in moms]
        return checks, rows, ens

    return run


def _run_kendall_success(p, threads):
    pol = cpl.kendall_policy(kappa=p["kappa"], epsilon=p["epsilon"])
    times = kendall_success_times(
        pol, r2_0=p["r0"] ** 2, z_0=p["z0"], t_max=max(p["checkpoints"]),
        n_paths=p["n_paths"], alpha=p["alpha"], success_dh=p["success_dh"],
        seed=p["seed"],
    )
    fracs = []
    rows = []
    for t in p["checkpoints"]:
        f = float((times <= t).mean())
        se = math.sqrt(max(f * (1 - f), 1e-12) / p["n_paths"])
        fracs.append(f)
        rows.append((t, "success_fraction", f, se, p["n_paths"]))
    increasing = all(b >= a for a, b in zip(fracs, fracs[1:]))
    checks = [
        _check("success_fraction_increasing", float(increasing), increasing),
        _check("success_fraction_final", fracs[-1], fracs[-1] > 0.8,
               math.sqrt(max(fracs[-1] * (1 - fracs[-1]), 1e-12) / p["n_paths"])),
    ]
    return checks, rows, None


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
    checks.append(_check("exponent_p1", fits[1.0][1], 0.40 <= fits[1.0][1] <= 0.60))
    checks.append(_check("exponent_p025", fits[0.25][1], -0.07 <= fits[0.25][1] <= 0.07))
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
    checks.append(_check("radial_martingale_max_sigma", worst, worst <= 3.0))
    rows += [(m.time, "mean_r", m.estimate, m.stderr, m.n_paths) for m in r_moms]
    return checks, rows, ens


def _run_reflection_hitting(p, threads):
    from scipy.stats import kstest

    ens = simulate_reflection_exact(
        r0=p["r0"], T=p["horizon"], n_paths=p["n_paths"], seed=p["seed"],
        checkpoints=[p["horizon"]], threads=threads,
    )
    tau = ens.absorbed_at
    hit = np.isfinite(tau)
    # KS of absorbed times against the hitting law conditioned on tau <= T
    ft = est.hitting_cdf(p["horizon"], p["r0"])
    # with no absorbed path there is no law to test: a failed, NaN check
    ks = (kstest(tau[hit], lambda u: est.hitting_cdf(u, p["r0"]) / ft).statistic
          if hit.any() else float("nan"))
    checks = [
        _check("tau_ks_statistic", ks, ks < 0.01),
        _check("absorbed_fraction_vs_cdf",
               float(hit.mean()),
               abs(hit.mean() - ft) <= 3 * math.sqrt(ft * (1 - ft) / p["n_paths"]),
               math.sqrt(ft * (1 - ft) / p["n_paths"])),
    ]
    rows = [
        (p["horizon"], "absorbed_fraction", float(hit.mean()),
         math.sqrt(ft * (1 - ft) / p["n_paths"]), p["n_paths"]),
        (float("nan"), "tau_ks_statistic", float(ks), float("nan"), int(hit.sum())),
    ]
    return checks, rows, ens


def _run_static_ratio(p, threads):
    a = grp.identity(1)
    ratios, rows = [], []
    for xp in p["offsets"]:
        ap = grp.point([xp], [0.0], 0.0)
        smp = stc.static_couple(
            a, ap, t=p["t"], n_samples=p["n_samples"], seed=p["seed"],
            plan=p["plan"], m_steps=p["m_steps"],
        )
        r = float(smp.cost.mean() / xp)
        se = float(smp.cost.std(ddof=1) / math.sqrt(smp.n_samples) / xp)
        ratios.append(r)
        rows.append((float(xp), "cost_ratio", r, se, smp.n_samples))
    spread = max(ratios) / min(ratios)
    checks = [_check("cost_ratio_spread", spread, spread < 3.0)]
    return checks, rows, None


def _run_static_baseline(p, threads):
    a = grp.identity(1)
    costs, rows = [], []
    for xp in p["offsets"]:
        ap = grp.point([xp], [0.0], 0.0)
        smp = stc.baseline_translation_couple(
            a, ap, t=p["t"], n_samples=p["n_samples"], seed=p["seed"],
            m_steps=p["m_steps"],
        )
        costs.append(float(smp.cost.mean()))
        rows.append((float(xp), "mean_cost", costs[-1],
                     float(smp.cost.std(ddof=1) / math.sqrt(smp.n_samples)), smp.n_samples))
    slope, _ = np.polyfit(np.log(p["offsets"]), np.log(costs), 1)
    ap1 = grp.point([1.0], [0.0], 0.0)
    ref = stc.baseline_translation_couple(a, ap1, t=p["t"], n_samples=p["n_samples"],
                                          seed=p["seed"], m_steps=p["m_steps"])
    blow = (costs[0] / p["offsets"][0]) / float(ref.cost.mean())
    checks = [
        _check("baseline_exponent", float(slope), 0.4 <= slope <= 0.6),
        _check("ratio_blowup_smallest_over_unit", blow, blow > 10.0),
    ]
    rows.append((float("nan"), "baseline_exponent", float(slope), float("nan"), p["n_samples"]))
    return checks, rows, None


def _run_mg_lemma(p, threads):
    from scipy.integrate import quad
    from scipy.special import ndtri

    checks, rows = [], []
    worst = 0.0
    for pp in np.arange(0.1, 0.95, 0.1):
        qq = est.a_p_constant(pp)
        ref, _ = quad(
            lambda x: abs(x) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
            -ndtri((1 + pp) / 2), ndtri((1 + pp) / 2),
        )
        worst = max(worst, abs(qq - ref))
    checks.append(_check("a_p_quadrature_max_err", worst, worst < 1e-8))
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
    return checks, rows, None


def _run_excursion_moments(p, threads):
    e2 = est.excursion_moment(2.0, n_samples=p["n_samples"], m_steps=p["m_steps"], seed=p["seed"])
    checks = [
        _check("excursion_E2", e2.estimate, abs(e2.estimate - 0.5) <= 3 * e2.stderr, e2.stderr)
    ]
    rej_lo = est.excursion_moment_rejection(2.0, n_samples=p["n_samples"] // 2, m_steps=256, seed=p["seed"])
    rej_hi = est.excursion_moment_rejection(2.0, n_samples=p["n_samples"] // 2, m_steps=1024, seed=p["seed"] + 1)
    extrap = 2 * rej_hi.estimate - rej_lo.estimate
    se = math.sqrt(4 * rej_hi.stderr**2 + rej_lo.stderr**2)
    # gate includes the next-order O(1/m) discretization allowance left
    # after Richardson extrapolation of the ~1/sqrt(m) positivity bias
    checks.append(_check("excursion_E2_rejection_extrapolated", extrap,
                         abs(extrap - 0.5) <= 3 * se + 2.0 / 256, se))
    rows = [(1.0, "E2_bessel", e2.estimate, e2.stderr, e2.n_paths),
            (1.0, "E2_rejection_extrapolated", extrap, se, rej_hi.n_paths)]
    vals = {}
    for pw in (0.5, 1.0, 2.0):
        mm = est.excursion_moment(pw, n_samples=p["n_samples"], m_steps=p["m_steps"], seed=p["seed"] + 2)
        vals[pw] = mm.estimate
        rows.append((1.0, f"E_p{pw}", mm.estimate, mm.stderr, mm.n_paths))
    jensen = vals[0.5] ** 2 <= vals[1.0] <= math.sqrt(vals[2.0])
    checks.append(_check("jensen_monotone", float(jensen), jensen))
    return checks, rows, None


# ---------------------------------------------------------------------------
# registry, config parsing, artifact writing

_COMMON = {
    "seed": (int, 0),
    "out": (str, ""),
}
_ENSEMBLE = {
    "a": (_floats, ()),
    "aprime": (_floats, ()),
    "horizon": (float, 1.0),
    "dt": (float, 1e-3),
    "n_paths": (int, 10000),
}
# the hysteresis thresholds, read only by the kendall policy
_KENDALL = {"kappa": (float, KENDALL_KAPPA), "epsilon": (float, KENDALL_EPSILON)}
_BLOWUP = {**_ENSEMBLE, "horizon": (float, 100.0), "dt": (float, 0.01),
           "scheme": (str, "reduced")}

EXPERIMENTS = {
    "algebra-suite": ({"n_cases": (int, 10000)}, _run_algebra_suite),
    "matrix-lemmas": ({"n_cases": (int, 10000)}, _run_matrix_lemmas),
    "scheme-consistency": ({**_ENSEMBLE, **_KENDALL}, _run_scheme_consistency),
    **{f"blowup-{kind}": (_BLOWUP, _run_blowup(kind))
       for kind in ("synchronous", "reflection", "perverse")},
    "kendall-success": (
        {**_KENDALL, "r0": (float, 1.0), "z0": (float, 0.0), "alpha": (float, 1e-3),
         "success_dh": (float, KENDALL_SUCCESS_DH),
         "n_paths": (int, 10000), "checkpoints": (_floats, (10.0, 40.0, 160.0))},
        _run_kendall_success,
    ),
    "reflection-exponents": (
        {"r0": (float, 1.0), "n_paths": (int, 100000),
         "checkpoints": (_floats, tuple(np.geomspace(100.0, 10000.0, 9)))},
        _run_reflection_exponents,
    ),
    "reflection-hitting": (
        {"r0": (float, 2.0), "horizon": (float, 100.0), "n_paths": (int, 100000)},
        _run_reflection_hitting,
    ),
    "static-ratio": (
        {"t": (float, 1.0), "n_samples": (int, 10000), "plan": (str, "density"),
         "m_steps": (int, 1024), "offsets": (_floats, (1e-3, 1e-2, 1e-1, 1.0, 10.0))},
        _run_static_ratio,
    ),
    "static-baseline": (
        {"t": (float, 1.0), "n_samples": (int, 4000), "m_steps": (int, 1024),
         "offsets": (_floats, (1e-3, 10**-2.5, 1e-2, 10**-1.5, 1e-1))},
        _run_static_baseline,
    ),
    "mg-lemma": ({"n_paths": (int, 100000)}, _run_mg_lemma),
    "excursion-moments": (
        {"n_samples": (int, 4096), "m_steps": (int, 2048)}, _run_excursion_moments
    ),
}


class ConfigError(ValueError):
    """Invalid configuration; identifies the offending section and key."""


def default_params(experiment):
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    schema = {**_COMMON, **EXPERIMENTS[experiment][0]}
    return {key: dv for key, (_, dv) in schema.items()}


def parse_config(path, experiment=None):
    """Parse a flat key=value config into per-experiment parameter dicts.

    Returns a list of (experiment_name, params).  Raises ConfigError naming
    the section and key for unknown experiments, unknown keys, or values
    that fail to parse or are out of range.
    """
    ini = configparser.ConfigParser(default_section="common")
    try:
        with open(path) as fh:
            ini.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    runs = []
    for section in ini.sections():
        if section not in EXPERIMENTS:
            raise ConfigError(f"section [{section}]: unknown experiment")
        if experiment is not None and section != experiment:
            continue
        schema = {**_COMMON, **EXPERIMENTS[section][0]}
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


# string keys whose value must be one of a fixed set
_CHOICES = {"plan": ("density", "assignment"), "scheme": ("reduced", "full")}


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


def _validate_params(section, params):
    schema = {**_COMMON, **EXPERIMENTS[section][0]}
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ConfigError(f"section [{section}], key {unknown[0]!r}: unknown key")
    for key, (kind, _) in schema.items():
        accepts, name = _TYPES[kind]
        if not accepts(params[key]):
            raise ConfigError(f"section [{section}], key {key!r}: must be {name}")
        if key in _CHOICES and params[key] not in _CHOICES[key]:
            raise ConfigError(f"section [{section}], key {key!r}: must be one of "
                              + ", ".join(map(repr, _CHOICES[key])))
    # experiments key Philox streams (uint64) with seed up to seed + 2
    if not 0 <= params["seed"] <= 2**64 - 3:
        raise ConfigError(f"section [{section}], key 'seed': must be in [0, 2**64 - 3]")
    for key, (kind, _) in schema.items():
        if kind in (float, _floats) and not np.all(np.isfinite(params[key])):
            raise ConfigError(f"section [{section}], key {key!r}: must be finite")
    for key in ("horizon", "dt", "t", "kappa", "epsilon", "alpha", "success_dh", "r0"):
        if key in params and not params[key] > 0:
            raise ConfigError(f"section [{section}], key {key!r}: must be positive")
    for key in ("n_paths", "n_cases", "n_samples", "m_steps"):
        if key in params and params[key] <= 0:
            raise ConfigError(f"section [{section}], key {key!r}: must be positive")
    for key in ("checkpoints", "offsets"):
        if key in params and (len(params[key]) == 0 or any(v <= 0 for v in params[key])):
            raise ConfigError(f"section [{section}], key {key!r}: needs positive entries")
    if section == "reflection-exponents" and len(set(params["checkpoints"])) < 3:
        raise ConfigError(f"section [{section}], key 'checkpoints': needs at least 3 distinct "
                          "times for the power-law fit")
    if section == "excursion-moments":  # the oracle runs at n_samples // 2
        for key in ("n_samples", "m_steps"):
            if params[key] < 2:
                raise ConfigError(f"section [{section}], key {key!r}: must be at least 2")
    if "a" in params:  # start points on one H^n; empty means the default on H^1
        dims = [len(params[key]) or 3 for key in ("a", "aprime")]
        for key, d in zip(("a", "aprime"), dims):
            if d < 3 or d % 2 == 0:
                raise ConfigError(f"section [{section}], key {key!r}: must be a group point "
                                  "of 2n + 1 >= 3 numbers")
        if dims[0] != dims[1]:
            raise ConfigError(f"section [{section}], key 'aprime': must be as long as 'a'")


_ENSEMBLE_CAP = 20000  # paths written to ensemble.csv


def _write_artifacts(name, checks, rows, ens, out_dir, stamp):
    os.makedirs(out_dir, exist_ok=True)
    epath = os.path.join(out_dir, "ensemble.csv")
    if ens is not None:
        ens.to_csv(epath, header_note=f"{name} {stamp}", max_paths=_ENSEMBLE_CAP)
    else:
        with open(epath, "w") as fh:
            fh.write(f"# {name} {stamp}\n")
            fh.write("checkpoint_time,path_id,R2,Z,V,QV\n")
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
    ConfigError otherwise, and ValueError unless `threads` is an integer >= 1.
    Returns (all_passed, checks).
    """
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    _check_count("threads", threads)
    merged = default_params(name)
    if params:
        merged.update(params)
    _validate_params(name, merged)
    runner = EXPERIMENTS[name][1]
    checks, rows, ens = runner(merged, threads)
    out_dir = os.path.join(merged["out"] or out, name)
    _write_artifacts(name, checks, rows, ens, out_dir, stamp)
    return all(c.ok for c in checks), checks
