"""Experiment registry, config parsing, artifacts, and the CLI."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtri

from heiscouple import cli
from heiscouple import estimators as est
from heiscouple import experiments as exp
from heiscouple import simulate as sim
from heiscouple.constants import MAX_MAGNITUDE, PATH_STEP_BUDGET, RNG_BLOCK


def test_registry_names():
    assert set(exp.EXPERIMENTS) == {
        "algebra-suite", "matrix-lemmas", "scheme-consistency",
        "blowup-synchronous", "blowup-reflection", "blowup-perverse",
        "kendall-success", "reflection-exponents", "reflection-hitting",
        "static-ratio", "static-baseline", "mg-lemma", "excursion-moments",
    }


def test_default_params():
    p = exp.default_params("kendall-success")
    assert p["kappa"] == 1.0 and p["epsilon"] == 0.5
    assert p["checkpoints"] == (10.0, 40.0, 160.0)
    with pytest.raises(exp.ConfigError, match="unknown experiment"):
        exp.default_params("nope")


def test_parse_config_happy_path(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[algebra-suite]\nn_cases = 500\nseed = 3\n\n"
        "[kendall-success]\ncheckpoints = 5, 10\nn_paths = 100\n"
    )
    runs = exp.parse_config(cfg)
    assert [name for name, _ in runs] == ["algebra-suite", "kendall-success"]
    assert runs[0][1]["n_cases"] == 500 and runs[0][1]["seed"] == 3
    assert runs[1][1]["checkpoints"] == (5.0, 10.0)
    only = exp.parse_config(cfg, experiment="kendall-success")
    assert len(only) == 1 and only[0][0] == "kendall-success"
    # a [common] key reaches every section
    cfg.write_text("[common]\nseed = 3\n\n[mg-lemma]\n\n[static-ratio]\nn_samples = 8\n")
    assert [params["seed"] for _, params in exp.parse_config(cfg)] == [3, 3]


@pytest.mark.parametrize("body,msg", [
    ("[what-is-this]\nseed = 1\n", "unknown experiment"),
    ("[algebra-suite]\nwidgets = 3\n", "unknown key"),
    ("[algebra-suite]\nn_cases = many\n", "bad value"),
    # values are literal: no % interpolation
    ("[algebra-suite]\nn_cases = 5%\n", "bad value"),
    ("[mg-lemma]\nn_paths = %(x)s\n", "bad value"),
    # the output root is --out alone
    ("[algebra-suite]\nout = x\n", "unknown key"),
    ("[kendall-success]\nalpha = 0\n", "must be positive"),
    ("[kendall-success]\ncheckpoints = -1, 4\n", "positive entries"),
])
def test_parse_config_rejects(tmp_path, body, msg):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(body)
    with pytest.raises(exp.ConfigError, match=msg):
        exp.parse_config(cfg)


def test_parse_config_missing_file_and_section(tmp_path):
    with pytest.raises(exp.ConfigError, match="cannot read"):
        exp.parse_config(tmp_path / "absent.ini")
    latin = tmp_path / "latin.ini"
    latin.write_bytes(b"[algebra-suite]\nn_cases = 5\xff\n")
    with pytest.raises(exp.ConfigError, match="cannot read"):
        exp.parse_config(latin)
    cfg = tmp_path / "one.ini"
    cfg.write_text("[algebra-suite]\n")
    with pytest.raises(exp.ConfigError, match="no \\[mg-lemma\\] section"):
        exp.parse_config(cfg, experiment="mg-lemma")


def test_run_experiment_artifacts(tmp_path):
    ok, checks = exp.run_experiment(
        "matrix-lemmas", {"n_cases": 300}, out=tmp_path, stamp="teststamp"
    )
    assert ok and all(c.ok for c in checks)
    d = tmp_path / "matrix-lemmas"
    lines = (d / "report.jsonl").read_text().splitlines()
    rows = [json.loads(ln) for ln in lines]
    assert {r["experiment"] for r in rows} == {"matrix-lemmas"}
    assert all(set(r) == {"experiment", "quantity", "value", "stderr", "pass"}
               for r in rows)
    summary = (d / "summary.csv").read_text().splitlines()
    assert summary[0] == "# matrix-lemmas teststamp"
    assert summary[1] == "checkpoint_time,stat_name,estimate,stderr,n_paths"
    # no path ensemble here: header-only ensemble file
    ens = (d / "ensemble.csv").read_text().splitlines()
    assert len(ens) == 2 and ens[1] == "checkpoint_time,path_id,R2,Z,V,QV"


def test_run_experiment_writes_ensemble(tmp_path):
    ok, _ = exp.run_experiment(
        "scheme-consistency",
        {"n_paths": 256, "horizon": 0.1, "dt": 0.005},
        out=tmp_path,
    )
    assert ok
    body = (tmp_path / "scheme-consistency" / "ensemble.csv").read_text().splitlines()
    assert len(body) == 2 + 256  # one checkpoint, kendall full ensemble
    first = body[2].split(",")
    assert len(first) == 6 and float(first[0]) == 0.1


def test_run_experiment_reproducible_bodies(tmp_path):
    params = {"n_paths": 256, "horizon": 0.1, "dt": 0.005}
    exp.run_experiment("scheme-consistency", dict(params), out=tmp_path / "a",
                       stamp="then")
    exp.run_experiment("scheme-consistency", dict(params), out=tmp_path / "b",
                       stamp="now")
    for fname in ("ensemble.csv", "summary.csv", "report.jsonl"):
        fa = (tmp_path / "a" / "scheme-consistency" / fname).read_text().splitlines()
        fb = (tmp_path / "b" / "scheme-consistency" / fname).read_text().splitlines()
        skip = 1 if fname.endswith(".csv") else 0  # timestamp header line
        assert fa[skip:] == fb[skip:]


_SCHEME_CHECKS = {f"{name}/{q}" for name in ("reflection", "kendall")
                  for q in ("ks_r2_pvalue", "ks_z_pvalue", "full/r2_identity_gap",
                            "reduced/r2_identity_gap")}


def test_scheme_consistency_checks_can_fail(tmp_path, monkeypatch):
    # a bias planted in the reduced engine's R^2 must fail the checks that
    # compare it: both KS tests on R^2 and the reduced drift identity
    params = {"n_paths": 300, "horizon": 0.05, "dt": 0.01, "seed": 7}
    ok, checks = exp.run_experiment("scheme-consistency", params, out=tmp_path / "clean")
    assert ok and {c.quantity for c in checks} == _SCHEME_CHECKS
    engine = sim._run_reduced_block

    def biased(*args):
        out = engine(*args)
        out["r2"] += 0.3  # over 5 standard errors of the mean R^2_T here
        return out

    monkeypatch.setattr(sim, "_run_reduced_block", biased)
    _, checks = exp.run_experiment("scheme-consistency", params, out=tmp_path / "biased")
    failed = {c.quantity for c in checks if not c.ok}
    assert failed == {q for q in _SCHEME_CHECKS
                      if q.endswith(("ks_r2_pvalue", "reduced/r2_identity_gap"))}


def test_mg_lemma_quadrature_oracle_is_live(tmp_path, monkeypatch):
    # the Gauss-Legendre oracle agrees with scipy's adaptive quad to rounding
    # at the 9 p's mg-lemma checks, and an a_p off by 1e-7 fails the check
    ps = np.arange(0.1, 0.95, 0.1)
    for p, got in zip(ps, exp._a_p_quadrature(ps)):
        q = ndtri((1 + p) / 2)
        ref, _ = quad(lambda x: abs(x) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi), -q, q)
        assert abs(got - ref) <= 1e-15, p

    def a_p_err():
        _, checks = exp.run_experiment("mg-lemma", {"n_paths": 64}, out=tmp_path)
        return next(c for c in checks if c.quantity == "a_p_quadrature_max_err")

    assert a_p_err().ok
    closed = est.a_p_constant
    monkeypatch.setattr(est, "a_p_constant", lambda p: closed(p) + 1e-7)
    check = a_p_err()
    assert not check.ok and check.value == pytest.approx(1e-7, rel=1e-6)


def test_every_pass_expression_names_its_gate():
    # a gate is a name from constants, so a pass expression holds no numeric
    # literal but 0 and 1 (band indices, allclose(gap, 0.0), "all agree")
    # and is not a bare name that hides where its comparison was made
    tree = ast.parse(pathlib.Path(exp.__file__).read_text())
    found = {fn.name: [call.args[2] if len(call.args) > 2 else
                       next(k.value for k in call.keywords if k.arg == "ok")
                       for call in ast.walk(fn) if isinstance(call, ast.Call)
                       and getattr(call.func, "id", None) == "_check"]
             for fn in tree.body
             if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_run_")}
    assert len(found) == len(exp.EXPERIMENTS) - 2  # the blow-ups share one runner
    for runner, exprs in found.items():
        assert exprs, runner
        for expr in exprs:
            where = f"{runner}: {ast.unparse(expr)}"
            assert not isinstance(expr, ast.Name), where
            assert all(node.value in (0, 1) for node in ast.walk(expr)
                       if isinstance(node, ast.Constant)
                       and isinstance(node.value, (int, float))), where


def test_cli_list_and_exit_codes(tmp_path, capsys):
    assert cli.main(["--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "kendall-success" in out and len(out) == len(exp.EXPERIMENTS)
    # config errors exit 2
    bad = tmp_path / "bad.ini"
    bad.write_text("[algebra-suite]\nwhat = 1\n")
    assert cli.main(["--config", str(bad)]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.ini")]) == 2
    assert cli.main(["--experiment", "unknown-name"]) == 2
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["--experiment", "algebra-suite", "--threads", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: threads must be an integer >= 1, got 0"]


@pytest.mark.parametrize("name,params,key", [
    pytest.param("static-ratio", {"n_samples": 0}, "n_samples", id="n_samples=0"),
    pytest.param("mg-lemma", {"seed": -1}, "seed", id="seed=-1"),
    pytest.param("mg-lemma", {"seed": 2**64 - 1}, "seed", id="seed=2**64-1"),
    pytest.param("algebra-suite", {"n_case": 3}, "n_case", id="unknown-key"),
])
def test_run_experiment_validates_merged_params(tmp_path, name, params, key):
    # programmatic parameters pass the checks a parsed config does, before
    # anything runs or is written
    with pytest.raises(exp.ConfigError, match=f"'{key}'"):
        exp.run_experiment(name, params, out=tmp_path)
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("threads", [0, -2, 2.5, True])
def test_run_experiment_rejects_bad_threads(tmp_path, threads):
    with pytest.raises(exp.ConfigError, match=r"^threads must"):
        exp.run_experiment("algebra-suite", out=tmp_path, threads=threads)
    assert not (tmp_path / "algebra-suite").exists()


def test_run_experiment_accepts_the_largest_seed(tmp_path):
    exp.run_experiment("mg-lemma", {"seed": 2**64 - 2, "n_paths": 200}, out=tmp_path)
    assert (tmp_path / "mg-lemma" / "report.jsonl").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64 - 1), str(2**64)])
def test_cli_seed_out_of_range_exits_two(tmp_path, capsys, seed):
    code = cli.main(["--experiment", "mg-lemma", "--seed", seed, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "'seed'" in err


def test_cli_runs_config_and_reports(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[algebra-suite]\nn_cases = 400\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[pass]" in out and "[FAIL]" not in out
    assert (tmp_path / "art" / "algebra-suite" / "report.jsonl").exists()


def test_cli_seed_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scheme-consistency]\nn_paths = 256\nhorizon = 0.1\ndt = 0.005\nseed = 1\n")
    cli.main(["--config", str(cfg), "--out", str(tmp_path / "s1")])
    cli.main(["--config", str(cfg), "--out", str(tmp_path / "s2"), "--seed", "99"])
    e1 = (tmp_path / "s1" / "scheme-consistency" / "ensemble.csv").read_text().splitlines()
    e2 = (tmp_path / "s2" / "scheme-consistency" / "ensemble.csv").read_text().splitlines()
    assert e1[1] == e2[1]
    assert e1[2:] != e2[2:]


def test_cli_failed_check_exits_one(tmp_path, capsys):
    # tiny kendall run cannot reach the >0.8 success fraction
    cfg = tmp_path / "run.ini"
    cfg.write_text("[kendall-success]\nn_paths = 200\nalpha = 0.05\ncheckpoints = 1, 2\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "k")])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out
    rows = [json.loads(ln) for ln in
            (tmp_path / "k" / "kendall-success" / "report.jsonl").read_text().splitlines()]
    assert any(not r["pass"] for r in rows)


@pytest.mark.usefixtures("one_block_groups")
def test_threads_flag_does_not_change_numbers(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[scheme-consistency]\nn_paths = 1100\nhorizon = 0.1\ndt = 0.005\n")
    cli.main(["--config", str(cfg), "--out", str(tmp_path / "t1"), "--threads", "1"])
    cli.main(["--config", str(cfg), "--out", str(tmp_path / "t3"), "--threads", "3"])
    for fname in ("ensemble.csv", "summary.csv"):
        a = (tmp_path / "t1" / "scheme-consistency" / fname).read_text().splitlines()[1:]
        b = (tmp_path / "t3" / "scheme-consistency" / fname).read_text().splitlines()[1:]
        assert a == b


@pytest.mark.parametrize("section,line,key", [
    pytest.param("reflection-hitting", "r0 = inf", "r0", id="r0=inf"),
    pytest.param("static-ratio", "offsets = nan", "offsets", id="offsets=nan"),
    pytest.param("kendall-success", "z0 = nan", "z0", id="z0=nan"),
    pytest.param("kendall-success", "checkpoints = 5, inf", "checkpoints", id="checkpoints=inf"),
    pytest.param("blowup-perverse", "horizon = inf", "horizon", id="horizon=inf"),
    pytest.param("scheme-consistency", "a = 0, 0, nan", "a", id="a=nan"),
    pytest.param("static-baseline", "t = -inf", "t", id="t=-inf"),
])
def test_cli_non_finite_config_value_exits_two(tmp_path, capsys, section, line, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{line}\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: section [{section}], key '{key}': must be finite\n"
    assert not (tmp_path / "art").exists()


def test_kendall_iteration_cap_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the runner's phase-update cap names alpha, at both levels, with no traceback
    monkeypatch.setattr(sim, "KENDALL_MAX_ITERS", 5)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[kendall-success]\nn_paths = 16\ncheckpoints = 1, 2\n")
    with pytest.raises(exp.ConfigError, match=r"^section \[kendall-success\], key 'alpha': "):
        exp.run_experiment("kendall-success", {"n_paths": 16, "checkpoints": (1.0, 2.0)},
                           out=tmp_path / "direct")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("config error: section [kendall-success], key 'alpha': ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "art").exists() and not (tmp_path / "direct").exists()


def test_euler_work_budget_refuses_before_any_step(tmp_path, capsys, monkeypatch):
    # dt = 2**-30 asks for 2**30 steps of one 1024-path block: the run would
    # take hours; the config is refused at once, naming dt, with no traceback
    monkeypatch.setattr(exp, "simulate_ensemble", None)  # any run would raise
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[scheme-consistency]\nn_paths = 16\ndt = {2.0**-30!r}\n")
    t0 = time.perf_counter()
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and elapsed < 1.0
    assert err == ("config error: section [scheme-consistency], key 'dt': asks for 1.1e+12 "
                   "path-steps a run, more than the budget of 1e+09\n")
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("name", ["scheme-consistency", "blowup-reflection"])
def test_euler_work_budget_counts_paths_in_whole_blocks(name):
    # one block of RNG_BLOCK paths, or fewer, costs RNG_BLOCK path-steps a step
    steps = PATH_STEP_BUDGET // RNG_BLOCK
    dt = 2.0**-10
    for n_paths in (2, RNG_BLOCK):
        fits = {**exp.default_params(name), "n_paths": n_paths, "dt": dt, "horizon": steps * dt}
        exp._validate_params(name, fits)
        with pytest.raises(exp.ConfigError, match=rf"^section \[{name}\], key 'dt': asks for"):
            exp._validate_params(name, {**fits, "horizon": (steps + 1) * dt})
    with pytest.raises(exp.ConfigError, match=r"key 'dt': asks for"):
        exp._validate_params(name, {**fits, "n_paths": RNG_BLOCK + 1})
    # every default fits
    exp._validate_params(name, exp.default_params(name))


def test_run_experiment_accepts_array_checkpoints(tmp_path):
    params = {"checkpoints": np.array([5.0, 10.0]), "n_paths": 50}
    exp.run_experiment("kendall-success", params, out=tmp_path)
    assert (tmp_path / "kendall-success" / "report.jsonl").exists()


@pytest.mark.parametrize("name,params,key,why", [
    pytest.param("reflection-hitting", {"r0": "2"}, "r0", "must be a number", id="r0='2'"),
    pytest.param("reflection-hitting", {"r0": True}, "r0", "must be a number", id="r0=True"),
    pytest.param("mg-lemma", {"n_paths": 2.5}, "n_paths", "must be an integer", id="n_paths=2.5"),
    pytest.param("mg-lemma", {"seed": 1.0}, "seed", "must be an integer", id="seed=1.0"),
    pytest.param("kendall-success", {"checkpoints": 5.0}, "checkpoints",
                 "must be a list of numbers", id="checkpoints=5.0"),
    pytest.param("kendall-success", {"checkpoints": "5, 10"}, "checkpoints",
                 "must be a list of numbers", id="checkpoints=str"),
    pytest.param("static-ratio", {"plan": "nope"}, "plan",
                 "must be one of 'density', 'assignment'", id="plan=nope"),
    pytest.param("blowup-perverse", {"scheme": 1}, "scheme", "must be a string", id="scheme=1"),
])
def test_run_experiment_rejects_wrong_types(tmp_path, name, params, key, why):
    with pytest.raises(exp.ConfigError, match=rf"key '{key}': {why}$"):
        exp.run_experiment(name, params, out=tmp_path)
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("section,line,key,why", [
    pytest.param("static-ratio", "plan = nope", "plan",
                 "must be one of 'density', 'assignment'", id="plan=nope"),
    pytest.param("blowup-perverse", "scheme = nope", "scheme",
                 "must be one of 'reduced', 'full'", id="scheme=nope"),
])
def test_cli_unknown_choice_exits_two(tmp_path, capsys, section, line, key, why):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{line}\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: section [{section}], key '{key}': {why}\n"
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("section,line,key", [
    pytest.param("reflection-hitting", "r0 = two", "r0", id="r0=two"),
    pytest.param("mg-lemma", "n_paths = 2.5", "n_paths", id="n_paths=2.5"),
    pytest.param("kendall-success", "checkpoints = 5, x", "checkpoints", id="checkpoints=x"),
])
def test_cli_unparsable_config_value_exits_two(tmp_path, capsys, section, line, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{line}\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: section [{section}], key '{key}': bad value")
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("section,line,key,why", [
    pytest.param("scheme-consistency", "a = 0, 0", "a",
                 "must be a group point of 2n + 1 >= 3 numbers", id="a=even"),
    pytest.param("blowup-reflection", "aprime = 1", "aprime",
                 "must be a group point of 2n + 1 >= 3 numbers", id="aprime=short"),
    pytest.param("blowup-perverse", "a =", "a",
                 "must be a group point of 2n + 1 >= 3 numbers", id="a=empty"),
    pytest.param("scheme-consistency", "aprime = 1, 0, 0, 0, 0", "aprime",
                 "must be as long as 'a'", id="aprime=H2"),
])
def test_cli_bad_start_point_exits_two(tmp_path, capsys, section, line, key, why):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{line}\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: section [{section}], key '{key}': {why}\n"
    assert not (tmp_path / "art").exists()


def test_run_experiment_accepts_array_start_points(tmp_path):
    small = {"n_paths": 64, "horizon": 0.05, "dt": 0.01}
    a, ap = [0.1, 0.0, 0.2, 0.0, 0.0], [0.5, 0.0, 0.2, 0.3, 0.0]
    exp.run_experiment("scheme-consistency", {**small, "a": a, "aprime": ap},
                       out=tmp_path / "seq")
    exp.run_experiment("scheme-consistency", {**small, "a": np.array(a), "aprime": np.array(ap)},
                       out=tmp_path / "arr")
    for fname in ("summary.csv", "report.jsonl"):
        seq = (tmp_path / "seq" / "scheme-consistency" / fname).read_text()
        arr = (tmp_path / "arr" / "scheme-consistency" / fname).read_text()
        assert seq == arr


@pytest.mark.parametrize("line", ["checkpoints = 0.5, 1", "checkpoints = 1, 2, 1, 2"])
def test_reflection_exponents_needs_three_distinct_checkpoints(tmp_path, capsys, line):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[reflection-exponents]\nn_paths = 64\n{line}\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("config error: section [reflection-exponents], key 'checkpoints': "
                   "needs at least 3 distinct times for the power-law fit\n")
    assert not (tmp_path / "art").exists()
    with pytest.raises(exp.ConfigError, match="'checkpoints'"):
        exp.run_experiment("reflection-exponents", {"n_paths": 64, "checkpoints": (0.5, 1.0)},
                           out=tmp_path / "api")


def test_reflection_hitting_with_no_absorbed_path_fails_its_ks_check(tmp_path):
    params = {"r0": 10.0, "horizon": 0.01, "n_paths": 10}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ok, checks = exp.run_experiment("reflection-hitting", params, out=tmp_path)
    by_name = {c.quantity: c for c in checks}
    ks = by_name["tau_ks_statistic"]
    assert not ok and not ks.ok and np.isnan(ks.value)
    assert by_name["absorbed_fraction_vs_cdf"].value == 0.0
    report = (tmp_path / "reflection-hitting" / "report.jsonl").read_text().splitlines()
    assert json.loads(report[0])["value"] is None


@pytest.mark.parametrize("r0", ["0.001", "1e-200"])
def test_reflection_exponents_on_a_degenerate_sample_fails_its_checks(tmp_path, capsys, r0):
    # r0 = 0.001: every path is absorbed before the first checkpoint, so mean_r
    # has no spread (this was a ZeroDivisionError) and |Z| is frozen over the
    # fit window (exponent_p025 passed at -1.5e-16); r0 = 1e-200: every path
    # is absorbed in the first cell and Z never moves, so |Z| has no power law
    # to fit (this was "nonpositive estimates in the fit window")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[reflection-exponents]\nr0 = {r0}\nn_paths = 16\n"
                   "checkpoints = 100, 200, 400\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    report = (tmp_path / "art" / "reflection-exponents" / "report.jsonl").read_text()
    rows = {r["quantity"]: r for r in map(json.loads, report.splitlines())}
    for name in ("radial_martingale_max_sigma", "exponent_p1", "exponent_p025",
                 "p05_log_beats_power"):
        assert rows[name]["value"] is None and rows[name]["pass"] is False


@pytest.mark.parametrize("section,lines,key,why", [
    pytest.param("blowup-reflection", "horizon = 1.0\ndt = 0.3", "dt",
                 "must divide 'horizon' into a whole number of steps", id="dt"),
    pytest.param("scheme-consistency", "horizon = 1e50\ndt = 1e-300", "dt",
                 "must divide 'horizon' into a whole number of steps", id="dt-overflow"),
    pytest.param("blowup-perverse", "horizon = 1\ndt = 1e-300", "dt",
                 "must divide 'horizon' into a whole number of steps", id="dt-past-int64"),
    pytest.param("scheme-consistency", "horizon = 1e-12\ndt = 0.001\nn_paths = 64", "dt",
                 "must divide 'horizon' into a whole number of steps", id="zero-steps"),
    pytest.param("blowup-synchronous", "horizon = 1.5e-9\ndt = 1e-9", "dt",
                 "must divide 'horizon' into a whole number of steps", id="small-horizon"),
    pytest.param("kendall-success", "kappa = 0.1\nepsilon = 0.2", "epsilon",
                 "must be less than 'kappa'", id="epsilon"),
])
def test_cli_cross_key_rules_exit_two(tmp_path, capsys, section, lines, key, why):
    # each raised a ValueError (1e-300: OverflowError) traceback from the
    # engine, exit 1
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{lines}\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: section [{section}], key '{key}': {why}\n"
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("section,lines,quantity", [
    pytest.param("blowup-synchronous", "aprime = 0, 0, 0\nn_paths = 16\nhorizon = 2\ndt = 0.5",
                 "dh2_ratio_T_over_1", id="blowup-synchronous"),
    pytest.param("static-ratio", "offsets = 1e-300, 1\nn_samples = 16", "cost_ratio_spread",
                 id="static-ratio"),
])
def test_degenerate_ratio_fails_its_check(tmp_path, capsys, section, lines, quantity):
    # a zero d_H^2 mean (a = a') and a zero mean cost (every vertical kept)
    # were ZeroDivisionErrors; each is now a failed check with value NaN
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{lines}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    assert f"{section}: {quantity} = nan [FAIL]" in captured.out
    report = (tmp_path / "art" / section / "report.jsonl").read_text().splitlines()
    (row,) = [r for r in map(json.loads, report) if r["quantity"] == quantity]
    assert row["value"] is None and row["pass"] is False


@pytest.mark.parametrize("key,least", [("n_samples", 4), ("m_steps", 2)],
                         ids=["n_samples", "m_steps"])
def test_excursion_moments_needs_four_samples_and_two_steps(tmp_path, capsys, key, least):
    # the oracle runs at n_samples // 2: at n_samples = 3 it drew one sample,
    # and its check failed on a NaN stderr whatever its value
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[excursion-moments]\n{key} = {least - 1}\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"config error: section [excursion-moments], key '{key}': "
                   f"must be at least {least}\n")
    assert not (tmp_path / "art").exists()
    with pytest.raises(exp.ConfigError, match=f"'{key}': must be at least {least}$"):
        exp.run_experiment("excursion-moments", {key: least - 1}, out=tmp_path / "api")


@pytest.mark.parametrize("section,line,key,why", [
    pytest.param("scheme-consistency", "n_paths = 1", "n_paths", "must be at least 2",
                 id="scheme-consistency"),
    pytest.param("matrix-lemmas", "n_cases = 1", "n_cases", "must be at least 2",
                 id="matrix-lemmas"),
    pytest.param("static-ratio", "n_samples = 1", "n_samples", "must be at least 2",
                 id="static-ratio"),
    pytest.param("static-baseline", "n_samples = 1", "n_samples", "must be at least 2",
                 id="static-baseline"),
    pytest.param("static-baseline", "offsets = 0.1, 0.1", "offsets",
                 "needs at least 2 distinct offsets for the slope fit", id="offsets"),
    pytest.param("mg-lemma", "n_paths = 1", "n_paths", "must be at least 2", id="mg-lemma"),
    *[pytest.param(f"blowup-{kind}", "n_paths = 1", "n_paths", "must be at least 2",
                   id=f"blowup-{kind}") for kind in ("synchronous", "reflection", "perverse")],
    pytest.param("reflection-exponents", "n_paths = 1", "n_paths", "must be at least 2",
                 id="reflection-exponents"),
])
def test_cli_one_sample_or_offset_exits_two(tmp_path, capsys, section, line, key, why):
    # each gave a RuntimeWarning (divide by zero, mean of an empty slice,
    # degrees of freedom <= 0), a slope fitted through one point, or a NaN
    # stderr that failed its check whatever its value (the blow-ups and
    # reflection-exponents at n_paths = 1)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{line}\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: section [{section}], key '{key}': {why}\n"
    assert not (tmp_path / "art").exists()


# artifact bodies: SHA-256 (first 16 hex digits) of ensemble.csv without its
# `#` line, summary.csv and report.jsonl, for every experiment at a small
# seeded config (stamp fixed), recorded with numpy 2.4.6 and scipy 1.17.1 on
# x86-64.  A refactor must leave every digest unchanged; a deliberate change
# to an experiment's numbers re-records its row and says so.
_ARTIFACT_CASES = {
    "algebra-suite": {"n_cases": 200},
    "matrix-lemmas": {"n_cases": 100},
    "scheme-consistency": {"n_paths": 300, "horizon": 0.05, "dt": 0.01},
    "blowup-synchronous": {"n_paths": 200, "horizon": 2.0, "dt": 0.05},
    "blowup-reflection": {"n_paths": 200, "horizon": 2.0, "dt": 0.05, "scheme": "full"},
    "blowup-perverse": {"n_paths": 200, "horizon": 2.0, "dt": 0.05},
    "kendall-success": {"n_paths": 50, "checkpoints": (0.5, 1.0, 2.0)},
    "reflection-exponents": {"n_paths": 500, "checkpoints": (0.25, 0.5, 1.0)},
    "reflection-hitting": {"n_paths": 500, "horizon": 0.25},
    "static-ratio": {"n_samples": 40},
    "static-baseline": {"n_samples": 40},
    "mg-lemma": {"n_paths": 2000},
    "excursion-moments": {"n_samples": 8, "m_steps": 64},
}
_EMPTY_ENSEMBLE = "e81eb7066f3d56a4"  # the header line alone
_ARTIFACT_GOLDEN = {
    "algebra-suite": (_EMPTY_ENSEMBLE, "3db50bce0d3f15c8", "48b61e6fc7d7bc5b"),
    "matrix-lemmas": (_EMPTY_ENSEMBLE, "d84b1fbcf1421234", "31e71db452590051"),
    "scheme-consistency": ("ecdc8bd5f382e92c", "2a0ad1702c318872", "bd8dcf756b143f0b"),
    "blowup-synchronous": ("1938ab468890f0ef", "dc0368ebdc29a814", "847c574e08b65a0a"),
    "blowup-reflection": ("7737526ba308741f", "72661c19bd1872fd", "35afcd5dd7be3980"),
    "blowup-perverse": ("8d9def53a90c6459", "565b48be78a0a76e", "baaff204b3bc641a"),
    "kendall-success": (_EMPTY_ENSEMBLE, "b05d62851bfe691e", "1d218b1acaab61cc"),
    "reflection-exponents": ("e8ecaf337f6e32c8", "3de3f6f6650d9680", "7ed800c3bda74f10"),
    "reflection-hitting": ("987eed546a1b2783", "5f4f5590588c17c5", "27d00a64a764f86c"),
    "static-ratio": (_EMPTY_ENSEMBLE, "b513e0adcdc444f6", "c6f74f54b4a251b7"),
    "static-baseline": (_EMPTY_ENSEMBLE, "cecef4a1ecaa2dec", "525a420adfa29989"),
    "mg-lemma": (_EMPTY_ENSEMBLE, "48897ce0360c7954", "c62cd07fc57bb5f7"),
    "excursion-moments": (_EMPTY_ENSEMBLE, "e4e58fadc5ac22b7", "f8355d81f3439011"),
}


@pytest.mark.parametrize("name", list(exp.EXPERIMENTS))
def test_artifact_digests(tmp_path, name):
    exp.run_experiment(name, {**_ARTIFACT_CASES[name], "seed": 7}, out=tmp_path, stamp="golden")
    d = tmp_path / name
    ensemble = (d / "ensemble.csv").read_bytes().split(b"\n", 1)[1]
    got = tuple(hashlib.sha256(body).hexdigest()[:16] for body in
                (ensemble, (d / "summary.csv").read_bytes(), (d / "report.jsonl").read_bytes()))
    assert got == _ARTIFACT_GOLDEN[name]


@pytest.mark.parametrize("name,gate", [("kendall-success", "SUCCESS_FRACTION_MIN"),
                                       ("blowup-perverse", "BLOWUP_RATIO_MIN")])
def test_named_gates_are_read_at_call_time(tmp_path, monkeypatch, name, gate):
    # a runner reads its gate from the module at call time, so patching the
    # name flips a failing check; the value it reports stays the same
    params = {**_ARTIFACT_CASES[name], "seed": 7}
    (before,) = exp.run_experiment(name, params, out=tmp_path / "before")[1]
    assert not before.ok and before.value > 0
    monkeypatch.setattr(exp, gate, before.value / 2)
    (after,) = exp.run_experiment(name, params, out=tmp_path / "after")[1]
    assert after.ok and after.value == before.value


@pytest.mark.parametrize("name,key", [
    ("kendall-success", "checkpoints"), ("reflection-exponents", "checkpoints"),
    ("static-ratio", "offsets"), ("static-baseline", "offsets"),
])
def test_list_keys_are_order_free(tmp_path, name, key):
    # a list key is a set of times or offsets: reversed, every check keeps its
    # pass flag, and its value up to the last bits polyfit moves on reordering
    params = {**exp.default_params(name), **_ARTIFACT_CASES[name], "seed": 7}
    fwd, rev = (exp.run_experiment(name, {**params, key: v}, out=tmp_path / tag)[1]
                for tag, v in (("fwd", tuple(params[key])), ("rev", tuple(params[key])[::-1])))
    assert [(c.quantity, c.ok) for c in fwd] == [(c.quantity, c.ok) for c in rev]
    for a, b in zip(fwd, rev):
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=0, nan_ok=True), a.quantity


def test_excursion_moments_draws_one_bessel_sample(tmp_path, monkeypatch):
    # every Bessel row and the E2 check read one sample of the integrals
    calls = []
    draw = est.excursion_integrals
    monkeypatch.setattr(est, "excursion_integrals", lambda *a: calls.append(a) or draw(*a))
    exp.run_experiment("excursion-moments", {**_ARTIFACT_CASES["excursion-moments"], "seed": 7},
                       out=tmp_path)
    assert calls == [(8, 64, 7)]
    rows = {line.split(",")[1]: line.split(",", 2)[2]
            for line in (tmp_path / "excursion-moments" / "summary.csv").read_text().splitlines()[2:]}
    assert rows["E_p2.0"] == rows["E2_bessel"]


# The schema table is the config contract.  Each case sets one key of one
# experiment to a value drawn inside or just outside its table bound, with
# every other key at a small work size, and runs the CLI with warnings as
# errors.  A value outside exits 2 with one config error line naming the
# key, and writes nothing.  A value inside runs to the end (checks may fail,
# and a NaN check must fail) unless a rule that joins keys refuses it.
# Inside draws stay near the small sizes on purpose: far below them some keys
# ask for unbounded work (dt, alpha, success_dh).  Outside draws also go just
# past each largest magnitude, which a scan chose so that nothing overflows.
_SMALL = {
    "algebra-suite": {"n_cases": 16},
    "matrix-lemmas": {"n_cases": 16},
    "scheme-consistency": {"n_paths": 16, "horizon": 0.125, "dt": 0.03125},
    **{f"blowup-{kind}": {"n_paths": 16, "horizon": 2.0, "dt": 0.25}
       for kind in ("synchronous", "reflection", "perverse")},
    "kendall-success": {"n_paths": 16, "alpha": 0.01, "checkpoints": (0.25, 0.5, 1.0)},
    "reflection-exponents": {"n_paths": 16, "checkpoints": (0.25, 0.5, 1.0)},
    "reflection-hitting": {"n_paths": 16, "horizon": 0.25},
    "static-ratio": {"n_samples": 16, "m_steps": 16, "offsets": (0.01, 0.1, 1.0)},
    "static-baseline": {"n_samples": 16, "m_steps": 16, "offsets": (0.001, 0.01, 0.1)},
    "mg-lemma": {"n_paths": 64},
    "excursion-moments": {"n_samples": 4, "m_steps": 16},
}


@pytest.mark.parametrize("name,key", [
    *[(f"blowup-{kind}", "n_paths") for kind in ("synchronous", "reflection", "perverse")],
    ("reflection-exponents", "n_paths"), ("excursion-moments", "n_samples"),
])
def test_checks_at_the_sample_floor_have_standard_errors(tmp_path, name, key):
    least = exp._schema(name)[key][2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, checks = exp.run_experiment(name, {**_SMALL[name], key: least}, out=tmp_path)
    if name == "reflection-exponents":  # its one Monte Carlo check counts stderrs
        (radial,) = [c for c in checks if c.quantity == "radial_martingale_max_sigma"]
        assert math.isfinite(radial.value)
    else:
        assert all(math.isfinite(c.stderr) for c in checks), checks


def test_experiments_load_no_scipy_but_special(tmp_path):
    # in a fresh process the 13 experiments, at small sizes and their default
    # plans, load scipy.special and scipy's own top-level internals only:
    # scipy.stats or scipy.integrate would pull in optimize, sparse, linalg
    # and more, and cost every suite run about 0.6 s of start-up
    code = f"""
import sys
from heiscouple import experiments as exp
for name, params in {_SMALL!r}.items():
    exp.run_experiment(name, params, out={str(tmp_path)!r})
top = {{m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}}
extra = sorted(t for t in top if t not in ("special", "version") and not t.startswith("_"))
assert not extra, f"loaded scipy subpackages {{extra}}"
"""
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


# _SMALL with scheme-consistency at 300 paths: its KS tests then compare
# samples of n = 150 > 140, and at seed 0 their n d^2 read 0.28, 0.17, 1.04
# and 0.24, so all four p-values take the limit law's body (n d^2 < 2.2),
# which needs no scipy.  At _SMALL's 16 paths (n = 8) they take smirnov.
_BODY = {**_SMALL, "scheme-consistency": {**_SMALL["scheme-consistency"], "n_paths": 300}}


def test_experiments_load_no_scipy_when_the_ks_tests_take_the_body(tmp_path):
    code = f"""
import sys
from heiscouple import estimators as est
from heiscouple import experiments as exp
ks, seen = est.ks_two_sample, []
def spy(x, y):
    d, p = ks(x, y)
    n = round(len(x) * len(y) / (len(x) + len(y)))
    seen.append((n, n * d * d))
    return d, p
est.ks_two_sample = spy
for name, params in {_BODY!r}.items():
    exp.run_experiment(name, params, out={str(tmp_path)!r})
assert len(seen) == 4 and all(n > 140 and v < 2.2 for n, v in seen), seen
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"loaded {{loaded}}"
"""
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


# what the rules that join keys say when they refuse a value the table keeps
_JOINED = ("must divide 'horizon'", "must be less than 'kappa'",
           "must be a group point", "must be as long as 'a'")


def _float_inside(base, lo):
    # dyadic multiples of dyadic sizes keep dt dividing horizon
    if lo is None:
        return st.integers(-8, 8).map(lambda i: base + i / 4)
    return st.integers(-4, 4).map(lambda k: lo + (base - lo) * 2.0**k)


def _inside(kind, bound, base):
    if kind is str:
        return st.sampled_from(bound)
    if kind is int:
        least, most, _ = bound if isinstance(bound, tuple) else (bound, max(bound, base), "")
        return st.integers(least, most)
    if kind is float:
        return _float_inside(base, bound)
    floor, distinct, _ = bound
    if floor is None:
        return st.tuples(*(_float_inside(b, None) for b in base))
    entry = st.sampled_from(base).flatmap(lambda b: _float_inside(b, floor))
    return st.lists(entry, min_size=max(distinct, 1), max_size=len(base) + 1).filter(
        lambda v: len(set(v)) >= distinct).map(tuple)


def _outside(kind, bound, base):
    bad = st.sampled_from([math.nan, math.inf, -math.inf])
    if kind is str:
        return st.sampled_from(["", "nope", bound[0].upper()])
    if kind is int:
        least, most, _ = bound if isinstance(bound, tuple) else (bound, None, "")
        return st.sampled_from([least - 1, least - 2] + ([most + 1] if most else []))
    floor, most = (bound if kind is float else bound[0]), MAX_MAGNITUDE
    # just past the largest magnitude, down to the next float, either sign
    # where there is no floor
    past = st.tuples(st.integers(0, 52), st.sampled_from([1.0] if floor is not None else
                                                          [1.0, -1.0])).map(
        lambda c: c[1] * most * (1.0 + 2.0**-c[0]))
    if kind is float:
        return st.one_of(bad, past) if floor is None else st.one_of(
            bad, past, st.integers(0, 4).map(lambda k: floor - (base - floor) * (2.0**k - 1)))
    inside = _inside(kind, bound, base)

    def put(entry):
        return st.tuples(inside, st.integers(0, len(base)), entry).map(
            lambda c: c[0][:c[1]] + (c[2],) + c[0][c[1]:])

    if floor is None:
        return st.one_of(put(bad), put(past))
    distinct = bound[1]
    few = inside.map(lambda v: tuple(v[i % (distinct - 1)] for i in range(len(v))))
    return st.one_of(st.just(()), put(bad), put(past),
                     put(st.integers(0, 4).map(lambda k: floor - 2.0**k + 1)),
                     *([few] if distinct > 1 else []))


@st.composite
def _config_case(draw):
    name = draw(st.sampled_from(sorted(exp.EXPERIMENTS)))
    rows = exp._schema(name)
    key = draw(st.sampled_from(list(rows)))
    kind, default, bound = rows[key]
    inside = draw(st.booleans())
    base = _SMALL[name].get(key, default)
    return name, key, draw((_inside if inside else _outside)(kind, bound, base)), inside


def _ini(v):
    if isinstance(v, tuple):
        return ", ".join(map(_ini, v))
    return repr(float(v)) if isinstance(v, float) else str(v)


@given(case=_config_case())
@example(case=("scheme-consistency", "dt", 1e-300, True))
@example(case=("scheme-consistency", "n_paths", 1, False))
@example(case=("matrix-lemmas", "n_cases", 1, False))
@example(case=("blowup-reflection", "n_paths", 1, False))
@example(case=("reflection-exponents", "n_paths", 1, False))
@example(case=("excursion-moments", "n_samples", 3, False))
@example(case=("static-ratio", "n_samples", 1, False))
@example(case=("static-baseline", "n_samples", 1, False))
@example(case=("static-baseline", "offsets", (0.01,), False))
@example(case=("static-baseline", "offsets", (0.01, 0.01), False))
@example(case=("static-ratio", "t", 1e-200, False))
@example(case=("static-ratio", "t", 1e-300, False))
@example(case=("static-ratio", "t", 1e300, False))
@example(case=("static-baseline", "t", 1e-300, False))
@example(case=("kendall-success", "z0", 1e300, False))
@example(case=("kendall-success", "kappa", 1e300, False))
@example(case=("scheme-consistency", "a", (1e100, 0.0, 0.0), False))
@example(case=("scheme-consistency", "a", (1e200, 0.0, 0.0), False))
@example(case=("blowup-reflection", "aprime", (1e200, 0.0, 0.0), False))
@settings(max_examples=500, derandomize=True, database=None, deadline=None)
def test_schema_table_bounds_every_config(case):
    name, key, value, inside = case
    params = {**_SMALL[name], key: value}
    with tempfile.TemporaryDirectory() as tmp:
        cfg, art = pathlib.Path(tmp, "run.ini"), pathlib.Path(tmp, "art")
        cfg.write_text(f"[{name}]\n" + "".join(f"{k} = {_ini(v)}\n" for k, v in params.items()))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(["--config", str(cfg), "--out", str(art)])
        err = err.getvalue()
        if not inside or code == 2:
            assert code == 2 and err.count("\n") == 1, err
            assert err.startswith(f"config error: section [{name}], key "), err
            assert (any(why in err for why in _JOINED) if inside else
                    f"key '{key}': " in err), err
            assert not art.exists()
            return
        assert code in (0, 1) and err == "", err
        report = (art / name / "report.jsonl").read_text().splitlines()
        assert report and all(r["value"] is not None or not r["pass"]
                              for r in map(json.loads, report))
