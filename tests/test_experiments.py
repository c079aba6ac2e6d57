"""Experiment registry, config parsing, artifacts, and the CLI."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from heiscouple import cli
from heiscouple import experiments as exp


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


@pytest.mark.parametrize("body,msg", [
    ("[what-is-this]\nseed = 1\n", "unknown experiment"),
    ("[algebra-suite]\nwidgets = 3\n", "unknown key"),
    ("[algebra-suite]\nn_cases = many\n", "bad value"),
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
    assert cli.main(["--experiment", "algebra-suite", "--threads", "0"]) == 2


@pytest.mark.parametrize("name,params,key", [
    pytest.param("static-ratio", {"n_samples": 0}, "n_samples", id="n_samples=0"),
    pytest.param("mg-lemma", {"seed": -1}, "seed", id="seed=-1"),
    pytest.param("mg-lemma", {"seed": 2**64 - 2}, "seed", id="seed=2**64-2"),
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
    with pytest.raises(ValueError, match=r"^threads must"):
        exp.run_experiment("algebra-suite", out=tmp_path, threads=threads)
    assert not (tmp_path / "algebra-suite").exists()


def test_run_experiment_accepts_the_largest_seed(tmp_path):
    exp.run_experiment("mg-lemma", {"seed": 2**64 - 3, "n_paths": 200}, out=tmp_path)
    assert (tmp_path / "mg-lemma" / "report.jsonl").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
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


@pytest.mark.parametrize("key", ["n_samples", "m_steps"])
def test_excursion_moments_needs_two_samples_and_two_steps(tmp_path, capsys, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[excursion-moments]\n{key} = 1\n")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "art")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"config error: section [excursion-moments], key '{key}': must be at least 2\n"
    assert not (tmp_path / "art").exists()
    with pytest.raises(exp.ConfigError, match=f"'{key}': must be at least 2$"):
        exp.run_experiment("excursion-moments", {key: 1}, out=tmp_path / "api")


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
    "scheme-consistency": ("0bc7b8dee49746d3", "47474149ee8e8cc2", "3e97867248da7f19"),
    "blowup-synchronous": ("aea7e102e6bf692e", "98da8c81201b036e", "e8bfd89a4c887d9b"),
    "blowup-reflection": ("bb16703f1dd0dbf6", "cc814128d0d7c005", "2b1cae0435d1fe23"),
    "blowup-perverse": ("8d9def53a90c6459", "565b48be78a0a76e", "baaff204b3bc641a"),
    "kendall-success": (_EMPTY_ENSEMBLE, "b05d62851bfe691e", "4f255a183c7ef8c3"),
    "reflection-exponents": ("e8ecaf337f6e32c8", "3de3f6f6650d9680", "7ed800c3bda74f10"),
    "reflection-hitting": ("987eed546a1b2783", "437aacc5402d8c18", "3821c85f81ef26ef"),
    "static-ratio": (_EMPTY_ENSEMBLE, "40db01ac71cd89c5", "f77b570aff072fed"),
    "static-baseline": (_EMPTY_ENSEMBLE, "cecef4a1ecaa2dec", "525a420adfa29989"),
    "mg-lemma": (_EMPTY_ENSEMBLE, "b7dca7bd090dc6a8", "2a8414a5fcec821e"),
    "excursion-moments": (_EMPTY_ENSEMBLE, "74d8276efc1f8c32", "42a894ed975cbff2"),
}


@pytest.mark.parametrize("name", list(exp.EXPERIMENTS))
def test_artifact_digests(tmp_path, name):
    exp.run_experiment(name, {**_ARTIFACT_CASES[name], "seed": 7}, out=tmp_path, stamp="golden")
    d = tmp_path / name
    ensemble = (d / "ensemble.csv").read_bytes().split(b"\n", 1)[1]
    got = tuple(hashlib.sha256(body).hexdigest()[:16] for body in
                (ensemble, (d / "summary.csv").read_bytes(), (d / "report.jsonl").read_bytes()))
    assert got == _ARTIFACT_GOLDEN[name]
