"""Tests of the benchmark itself: output contract, checks, tracing.

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from heiscouple import coupling, simulate, static  # noqa: E402


def _bench(workload, trace, seed=5):
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_metric_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == list(metrics.WORKLOADS.values())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        row[:4] for row in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER]
    assert {"setup_s", "wall_s", "path_steps_per_s", "samples_per_s", "peak_rss_mb",
            "ops_ok_frac"} == {m["name"] for m in doc["end_to_end"]}
    for _, _, _, moves in metrics.PER_LAYER:
        for e2e, workload in moves:
            assert e2e in {m["name"] for m in doc["end_to_end"]} and workload in metrics.WORKLOADS


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    out = _bench(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and out["failed"] == 0 and out["correct"] is True
    table = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(out["metrics"]) == [row[0] for row in table]
    for name, unit, *_ in table:
        assert out["metrics"][name]["unit"] == unit
        assert isinstance(out["metrics"][name]["value"], float | int)
    m = {k: v["value"] for k, v in out["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in m.values())
    elif workload == "experiment-suite":
        assert m["experiments.run_experiment.excursion-moments.wall_s"] > 0
        assert m["estimators.excursion_moment_rejection.accept_ratio"] > 0
        assert 0 < m["experiments.checks_passed"] <= m["experiments.checks_total"]
    elif workload == "euler-sweep":
        assert m["simulate.path_steps"] > 0 and m["coupling.next_regime.calls"] > 0
        assert all(m[f"simulate.ns_per_path_step.{s}.{p}"] > 0
                   for s in metrics.SCHEMES for p in metrics.POLICIES)


def _ensemble(policy, scheme="reduced"):
    return simulate.simulate_ensemble(policy, np.zeros(3), np.array([1.0, 0.0, 0.0]),
                                      T=0.1, n_paths=64, dt=0.01, seed=3, scheme=scheme)


@pytest.mark.parametrize("scheme", ["reduced", "full"])
def test_case_checks_pass_on_engine_output(scheme):
    for pol in ("synchronous", "perverse", "reflection", "kendall"):
        policy = getattr(coupling, f"{pol}_policy")()
        assert workloads.check_case(pol, _ensemble(policy, scheme), 1.0, 0.0) == []


def test_perturbed_synchronous_r2_trips_the_check():
    ens = _ensemble(coupling.synchronous_policy())
    ens.r2[-1, 7] = np.nextafter(ens.r2[-1, 7], 2.0)
    assert workloads.check_case("synchronous", ens, 1.0, 0.0) == [
        "synchronous R^2 is not bitwise constant"]


def test_perverse_law_and_finiteness_checks():
    ens = _ensemble(coupling.perverse_policy())
    ens.z[-1, 0] += 1e-9
    assert workloads.check_case("perverse", ens, 1.0, 0.0) == ["perverse Z is not constant"]
    ens.r2[-1, 0] = np.nan
    assert "non-finite r2" in workloads.check_case("perverse", ens, 1.0, 0.0)


def test_biased_reflection_trips_the_identity_gap():
    ens = _ensemble(coupling.reflection_policy())
    ens.r2[-1] += 1.0
    (msg,) = workloads.check_case("reflection", ens, 1.0, 0.0)
    assert msg.startswith("R^2 identity gap")


def test_static_checks():
    a, ap = np.array([0.3, -0.2, 0.1]), np.array([0.8, 0.1, -0.4])
    smp = static.static_couple(a, ap, t=1.0, n_samples=32, seed=1)
    assert workloads.check_static(smp, a, ap) == []
    smp.right[3, 0] += 1e-9
    assert workloads.check_static(smp, a, ap)[0].startswith("horizontal offset")
    smp.right[3, 0] -= 1e-9
    smp.cost[5] = 0.5 * np.hypot(0.5, 0.3)
    assert workloads.check_static(smp, a, ap) == ["cost below the horizontal offset rho"]


def test_euler_pass_books_a_planted_fault(monkeypatch):
    work = workloads.EulerSweep(2, "tiny")
    assert work.run().failures == {}
    real = simulate.simulate_ensemble

    def perturbed(*args, **kwargs):
        ens = real(*args, **kwargs)
        ens.r2[-1, 0] *= 1.0 + 1e-12
        return ens

    monkeypatch.setattr(simulate, "simulate_ensemble", perturbed)
    failures = work.run().failures
    assert "synchronous R^2 is not bitwise constant" in failures["reduced.synchronous.t1"]
    assert "output differs from the first pass on identical inputs" in failures["full.kendall.t1"]


def test_corrupted_report_trips_the_suite_check(tmp_path):
    name = "mg-lemma"
    from heiscouple import cli

    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{name}]\nn_paths = 500\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path)]) in (0, 1)
    exp = tmp_path / name
    probs, passed, total, nbytes, _ = workloads.check_experiment_dir(str(exp), name)
    assert probs == [] and total >= 1 and nbytes > 0
    with open(exp / "report.jsonl", "a") as fh:
        fh.write('{"experiment": "mg-lemma", "quantity": \n')
    probs = workloads.check_experiment_dir(str(exp), name)[0]
    assert any("does not parse" in p for p in probs)
    (exp / "summary.csv").write_text("# x\nwrong,header\n")
    probs = workloads.check_experiment_dir(str(exp), name)[0]
    assert any(p.startswith("summary.csv header") for p in probs)
    os.remove(exp / "ensemble.csv")
    assert "ensemble.csv missing" in workloads.check_experiment_dir(str(exp), name)[0]


def test_tracer_restores_originals_and_counts_repeat():
    import heiscouple
    from heiscouple import estimators, experiments

    before = (simulate.simulate_ensemble, experiments.simulate_ensemble, heiscouple.static_couple,
              coupling.CouplingPolicy.next_regime, static.linear_sum_assignment,
              estimators.philox_stream, simulate.ThreadPoolExecutor)
    work = workloads.StaticCoupling(4, "tiny")
    tracer = tracing.Tracer()
    runs = []
    for _ in range(2):
        with tracer.installed():
            assert experiments.simulate_ensemble is simulate.simulate_ensemble
            assert experiments.simulate_ensemble is not before[0]
            res = work.run(tracer)
        summary = tracing.summarize(tracer.take(), 1.0)
        runs.append((res, summary))
    after = (simulate.simulate_ensemble, experiments.simulate_ensemble, heiscouple.static_couple,
             coupling.CouplingPolicy.next_regime, static.linear_sum_assignment,
             estimators.philox_stream, simulate.ThreadPoolExecutor)
    assert after == before
    (r1, s1), (r2, s2) = runs
    assert r1.failures == r2.failures == {}
    assert s1["calls"] == s2["calls"] and s1["counts"] == s2["counts"]
    assert s1["calls"]["static.linear_sum_assignment"] == work.n_assignment
    assert s1["counts"]["static.static_couple"]["samples"] == work.samples - 4 * work.n_translation
    ref = s1["labeled"][("simulate.simulate_ensemble", "reduced.reflection.t1")]
    assert ref["normals"] == 2 * ref["path_steps"] and ref["uniforms"] == ref["path_steps"]


def test_worker_thread_spans_keep_their_parent():
    tracer = tracing.Tracer()
    policy = coupling.reflection_policy()
    with tracer.installed():
        ens = simulate.simulate_ensemble(policy, np.zeros(3),
                                         np.array([1.0, 0.0, 0.0]), T=0.05, n_paths=2048,
                                         dt=0.01, seed=1, threads=2)
    spans = tracer.take()
    (top,) = [sp for sp in spans if sp.parent is None]
    assert top.name == "simulate.simulate_ensemble"
    assert top.counts["uniforms"] == ens.meta["steps"]
    assert {sp.thread for sp in spans if sp.name == "coupling.next_regime"} - {top.thread}


def test_self_time_subtracts_the_union_of_children():
    parent = tracing.Span("p", "simulate", None)
    parent.t0, parent.t1 = 0.0, 10.0
    kids = []
    for t0, t1 in ((1.0, 4.0), (2.0, 5.0), (8.0, 12.0)):  # overlapping, one past the end
        sp = tracing.Span("c", "group", parent)
        sp.t0, sp.t1 = t0, t1
        kids.append(sp)
    selfs = tracing.self_times([parent, *kids])
    assert selfs[parent] == pytest.approx(10.0 - 4.0 - 2.0)
    summary = tracing.summarize([parent, *kids], 20.0)
    assert summary["coverage"] == pytest.approx(0.5)
    assert summary["layer_self_s"]["group"] == pytest.approx(10.0)
