"""Metric definitions, the layer map, and per-layer metric computation.

BENCHMARK.json lists the same workloads and metrics (a test keeps the two in
step).  `PER_LAYER` also records, for each per-layer metric, which end-to-end
metric on which workload it should move: the claim a later change names.
Metrics of a layer that a workload does not exercise read 0 on that workload.
"""

import statistics

LAYERS = ("group", "coupling", "simulate", "static", "estimators", "experiments", "cli")
SCHEMES = ("reduced", "full")
POLICIES = ("synchronous", "reflection", "perverse", "kendall", "custom")
EXPERIMENTS = (
    "algebra-suite", "matrix-lemmas", "scheme-consistency", "blowup-synchronous",
    "blowup-reflection", "blowup-perverse", "kendall-success", "reflection-exponents",
    "reflection-hitting", "static-ratio", "static-baseline", "mg-lemma",
    "excursion-moments",
)

WORKLOADS = {
    "euler-sweep": (
        "simulate_ensemble over scheme x policy on H^1, plus reflection at 2 threads: "
        "the Euler engines, coupling policies and thread pool, with almost no static or I/O work"
    ),
    "static-coupling": (
        "static_couple density plan over offsets 1e-3..10, translation, a small assignment "
        "batch and W_1/2 at 512 samples: characteristic function, FFT, bridges, Hungarian"
    ),
    "experiment-suite": (
        "all 13 experiments through cli.main on a seeded scaled-down config: exact runners, "
        "estimators incl. the rejection oracle, artifact writing, experiment routing"
    ),
}

# name, unit, better, bound, meaning
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "import, input generation and warm-up; median of three set-ups"),
    ("wall_s", "s", "lower", 0.25,
     "timed phase: one pass over the workload's operations; median over passes"),
    ("path_steps_per_s", "1/s", "higher", 0.25,
     "Euler path-steps of one pass over wall_s"),
    ("samples_per_s", "1/s", "higher", 0.25,
     "static coupling samples of one pass over wall_s"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory of the run"),
    ("ops_ok_frac", "frac", "higher", 0.01,
     "operations that returned and passed the output checks, over operations attempted"),
)

_EULER = ("wall_s", "euler-sweep")
_EULER_TP = ("path_steps_per_s", "euler-sweep")
_STATIC = ("wall_s", "static-coupling")
_STATIC_TP = ("samples_per_s", "static-coupling")
_SUITE = ("wall_s", "experiment-suite")


def _per_layer():
    rows = []
    for s in SCHEMES:
        for p in POLICIES:
            rows.append((f"simulate.ns_per_path_step.{s}.{p}", "ns", "lower", [_EULER, _EULER_TP]))
    for s in SCHEMES:
        for p in POLICIES:
            rows.append((f"simulate.rng_floor_ratio.{s}.{p}", "ratio", "lower", [_EULER, _EULER_TP]))
    rows += [
        ("simulate.threads2_speedup.reduced", "x", "higher", [_EULER]),
        ("simulate.threads2_speedup.full", "x", "higher", [_EULER]),
        ("simulate.path_steps", "count", "higher", [_EULER_TP]),
        ("simulate.clamp_fraction", "frac", "lower", [_EULER]),
        ("simulate.self_s", "s", "lower", [_EULER, _SUITE]),
        ("simulate.simulate_reflection_exact.self_s", "s", "lower", [_SUITE]),
        ("simulate.kendall_success_times.self_s", "s", "lower", [_SUITE]),
        ("simulate.PathEnsemble.to_csv.self_s", "s", "lower", [_SUITE]),
        ("simulate.PathEnsemble.to_csv.mb_per_s", "MB/s", "higher", [_SUITE]),
        ("coupling.next_regime.calls", "count", "lower", [_EULER]),
        ("coupling.next_regime.self_s", "s", "lower", [_EULER]),
        ("coupling.self_s", "s", "lower", [_EULER]),
        ("group.symplectic.calls", "count", "lower", [_EULER, _STATIC]),
        ("group.self_s", "s", "lower", [_EULER, _STATIC]),
        ("static.self_s", "s", "lower", [_STATIC, _STATIC_TP]),
        ("static.static_couple.self_s", "s", "lower", [_STATIC, _STATIC_TP, _SUITE]),
        ("static.sample_levy_area_given_endpoint.self_s", "s", "lower", [_STATIC, _STATIC_TP, _SUITE]),
        ("static.sample_levy_area_given_endpoint.bridge_steps", "count", "lower", [_STATIC_TP]),
        ("static.linear_sum_assignment.calls", "count", "lower", [_STATIC]),
        ("static.linear_sum_assignment.self_s", "s", "lower", [_STATIC]),
        ("static.samples_per_s.density", "1/s", "higher", [_STATIC_TP, _SUITE]),
        ("static.samples_per_s.assignment", "1/s", "higher", [_STATIC_TP]),
        ("static.samples_per_s.translation", "1/s", "higher", [_STATIC_TP, _SUITE]),
        ("estimators.self_s", "s", "lower", [_SUITE, _STATIC]),
        ("estimators.excursion_moment_rejection.self_s", "s", "lower", [_SUITE]),
        ("estimators.excursion_moment_rejection.accept_ratio", "ratio", "higher", [_SUITE]),
        ("estimators.empirical_wasserstein.self_s", "s", "lower", [_STATIC]),
    ]
    for e in EXPERIMENTS:
        rows.append((f"experiments.run_experiment.{e}.wall_s", "s", "lower", [_SUITE]))
    rows += [
        ("experiments.self_s", "s", "lower", [_SUITE]),
        ("experiments.checks_passed", "count", "higher", []),
        ("experiments.checks_total", "count", "higher", []),
        ("experiments.artifact_bytes", "bytes", "lower", [_SUITE]),
        ("cli.main.overhead_s", "s", "lower", [_SUITE]),
        ("cli.self_s", "s", "lower", [_SUITE]),
        ("rng.ns_per_normal", "ns", "lower", []),
        ("rng.ns_per_uniform", "ns", "lower", []),
        ("trace.overhead_frac", "frac", "lower", []),
        ("trace.coverage_frac", "frac", "higher", []),
    ]
    return tuple(rows)


# name, unit, better, [(end-to-end metric, workload) it should move]
PER_LAYER = _per_layer()

def stats(xs):
    """(median, first quartile, third quartile, count) of a list of numbers."""
    xs = [float(x) for x in xs]
    if not xs:
        return 0.0, 0.0, 0.0, 0
    if len(xs) == 1:
        return xs[0], xs[0], xs[0], 1
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return med, q1, q3, len(xs)


def _ratio(num, den):
    return num / den if num and den else 0.0


def traced_values(summary, extra):
    """Per-layer values that one traced pass yields (counts and self times)."""
    calls, self_s = summary["calls"], summary["self_s"]
    counts, labeled = summary["counts"], summary["labeled"]
    layer = summary["layer_self_s"]
    sim = counts.get("simulate.simulate_ensemble", {})
    csv = counts.get("simulate.PathEnsemble.to_csv", {})
    rej = counts.get("estimators.excursion_moment_rejection", {})
    v = {
        "simulate.path_steps": sim.get("path_steps", 0),
        "simulate.clamp_fraction": _ratio(sim.get("clamps", 0), sim.get("path_steps", 0)),
        "simulate.PathEnsemble.to_csv.mb_per_s": _ratio(
            csv.get("bytes", 0) / 1e6, self_s.get("simulate.PathEnsemble.to_csv", 0.0)),
        "coupling.next_regime.calls": calls.get("coupling.next_regime", 0),
        "group.symplectic.calls": calls.get("group.symplectic", 0),
        "static.sample_levy_area_given_endpoint.bridge_steps":
            counts.get("static.sample_levy_area_given_endpoint", {}).get("bridge_steps", 0),
        "static.linear_sum_assignment.calls": calls.get("static.linear_sum_assignment", 0),
        "estimators.excursion_moment_rejection.accept_ratio": _ratio(
            rej.get("accepted", 0), rej.get("rows", 0)),
        "trace.coverage_frac": summary["coverage"],
        "experiments.checks_passed": 0,
        "experiments.checks_total": 0,
        "experiments.artifact_bytes": 0,
    }
    for lay in LAYERS:
        v[f"{lay}.self_s"] = layer.get(lay, 0.0)
    for name in ("simulate.simulate_reflection_exact", "simulate.kendall_success_times",
                 "simulate.PathEnsemble.to_csv", "coupling.next_regime",
                 "static.static_couple", "static.sample_levy_area_given_endpoint",
                 "static.linear_sum_assignment", "estimators.excursion_moment_rejection",
                 "estimators.empirical_wasserstein"):
        v[f"{name}.self_s"] = self_s.get(name, 0.0)
    for plan, fn in (("density", "static.static_couple"), ("assignment", "static.static_couple"),
                     ("translation", "static.baseline_translation_couple")):
        lab = labeled.get((fn, plan), {})
        v[f"static.samples_per_s.{plan}"] = _ratio(lab.get("samples", 0), lab.get("incl_s", 0.0))
    run_s = 0.0
    for e in EXPERIMENTS:
        t = labeled.get(("experiments.run_experiment", e), {}).get("incl_s", 0.0)
        v[f"experiments.run_experiment.{e}.wall_s"] = t
        run_s += t
    cli_s = summary["incl_s"].get("cli.main", 0.0)
    v["cli.main.overhead_s"] = cli_s - run_s if cli_s else 0.0
    v.update(extra)
    return v


def draws_per_step(summary, label):
    """(normals, uniforms) per path-step of the simulate_ensemble call `label`."""
    lab = summary["labeled"].get(("simulate.simulate_ensemble", label), {})
    steps = lab.get("path_steps", 0)
    if not steps:
        return 0.0, 0.0
    return lab.get("normals", 0) / steps, lab.get("uniforms", 0) / steps
