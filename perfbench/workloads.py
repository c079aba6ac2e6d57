"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

A workload draws all its inputs -- start points, offsets, config values and
the seeds it hands to heiscouple -- from the benchmark seed with its own
numpy Generator; heiscouple only sees the generated inputs.  Every pass
repeats the same inputs, so besides the checks on each operation's outputs,
every output must repeat byte for byte from the first pass.

Calls into heiscouple go through module attributes (``simulate.x``, never a
name imported into this file), so a traced pass sees the wrapped functions.
The checks themselves use plain numpy, not heiscouple, so they add no spans
to the layers they check.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from heiscouple import cli, coupling, estimators, simulate, static
from heiscouple.constants import MAX_CLAMP_FRACTION

from metrics import POLICIES, SCHEMES

STOCHASTIC = ("reflection", "kendall", "custom")
ENSEMBLE_HEADER = b"checkpoint_time,path_id,R2,Z,V,QV"
SUMMARY_HEADER = b"checkpoint_time,stat_name,estimate,stderr,n_paths"
REPORT_KEYS = {"experiment", "quantity", "value", "stderr", "pass"}


@dataclass
class Pass:
    """Outcome of one pass over a workload's operations."""

    wall_s: float = 0.0                           # time inside heiscouple calls
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # op label -> problems
    op_s: dict = field(default_factory=dict)      # op label -> seconds
    extra: dict = field(default_factory=dict)     # per-layer values the checks yield


class _Ops:
    """Times heiscouple calls and books each operation's check results."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.result = Pass()

    def call(self, label, fn, *args, **kwargs):
        """Run one heiscouple call; returns (result, problems)."""
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises is a failed operation
            self.result.wall_s += time.perf_counter() - t0
            return None, [f"raised {type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        self.result.wall_s += dt
        self.result.op_s[label] = dt
        return out, []

    def book(self, label, problems):
        self.result.attempted += 1
        if problems:
            self.result.failures[label] = list(problems)

    def bench(self, name):
        """Span around the benchmark's own work (checks, preparation)."""
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


class _Digests:
    """Remembers the first pass's output digests and flags any change."""

    def __init__(self):
        self.first = {}

    def same(self, label, digest):
        if self.first.setdefault(label, digest) != digest:
            return ["output differs from the first pass on identical inputs"]
        return []


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _h1_mul(a, b):
    """Group product on H^1, [x, y, z] coordinates."""
    return np.array([a[0] + b[0], a[1] + b[1], a[2] + b[2] + 0.5 * (a[0] * b[1] - a[1] * b[0])])


def _ensemble_arrays(ens):
    return ens.times, ens.r2, ens.z, ens.v, ens.qv, ens.drift_int, ens.absorbed_at


def check_case(policy, ens, r0sq, z0):
    """Problems with one simulate_ensemble result started at (R0^2, Z0)."""
    probs = []
    for key in ("r2", "z", "v", "qv", "drift_int"):
        if not np.all(np.isfinite(getattr(ens, key))):
            probs.append(f"non-finite {key}")
    if np.any(ens.r2 < 0.0):
        probs.append("negative R^2")
    if not ens.meta["clamp_fraction"] < MAX_CLAMP_FRACTION:
        probs.append(f"clamp fraction {ens.meta['clamp_fraction']:.3g} >= {MAX_CLAMP_FRACTION:g}")
    if ens.times[0] != 0.0 or abs(ens.r2[0, 0] - r0sq) > 1e-12 * max(1.0, r0sq):
        probs.append("first checkpoint is not the start offset")
    if np.any(np.abs(ens.z[0] - z0) > 1e-9 * max(1.0, abs(z0))):
        probs.append("first checkpoint Z is not the start offset")
    if probs:
        return probs
    if policy == "synchronous" and not np.all(ens.r2 == ens.r2[0, 0]):
        probs.append("synchronous R^2 is not bitwise constant")
    if policy == "perverse":
        expect = ens.r2[0, 0] + 4.0 * ens.times[:, None]
        if np.max(np.abs(ens.r2 - expect) / np.maximum(expect, 1.0)) > 1e-9:
            probs.append("perverse R^2_t != R0^2 + 4t")
        if not np.all(ens.z == ens.z[0, 0]):
            probs.append("perverse Z is not constant")
    if policy in STOCHASTIC:
        gap = ens.r2[-1] - ens.r2[0] - ens.drift_int[-1]
        se = gap.std(ddof=1) / math.sqrt(gap.size)
        if not (abs(gap.mean()) <= 4.0 * se or np.allclose(gap, 0.0)):
            probs.append(f"R^2 identity gap {gap.mean():.3g} exceeds 4 stderr ({se:.3g})")
    return probs


def check_static(smp, a, aprime):
    """Problems with one static coupling sample from a to aprime."""
    probs = []
    if not (np.all(np.isfinite(smp.left)) and np.all(np.isfinite(smp.right))
            and np.all(np.isfinite(smp.cost))):
        return ["non-finite sample"]
    offset = np.asarray(aprime)[:-1] - np.asarray(a)[:-1]  # hor(a^-1 a')
    rho = float(np.sqrt((offset**2).sum()))
    drift = np.abs((smp.right[:, :-1] - smp.left[:, :-1]) - offset).max()
    if drift > 1e-12:
        probs.append(f"horizontal offset off hor(a^-1 a') by {drift:.3g}")
    if np.any(smp.cost < rho * (1.0 - 1e-12)):
        probs.append("cost below the horizontal offset rho")
    return probs


def _quasidistance(x, y):
    """d_H(x, y) = H(x^-1 y) on H^n, [x, y, z] rows."""
    n = (x.shape[-1] - 1) // 2
    h = y[..., :-1] - x[..., :-1]
    sym = (x[..., :n] * y[..., n:-1]).sum(-1) - (x[..., n:-1] * y[..., :n]).sum(-1)
    z = y[..., -1] - x[..., -1] - 0.5 * sym
    return np.sqrt((h**2).sum(-1) + np.abs(z))


class EulerSweep:
    """simulate_ensemble for every scheme x policy on H^1, plus threads=2 twins."""

    name = "euler-sweep"

    def __init__(self, seed, size="full"):
        rng = np.random.default_rng([seed, 1])
        full = size == "full"
        self.n_paths = 4096 if full else 256
        self.dt = 0.01
        self.T = 1.5 if full else 0.1
        self.static_samples = 256 if full else 16
        rho = rng.uniform(0.8, 1.5)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        dz = rng.uniform(-0.5, 0.5)
        self.a = rng.standard_normal(3)
        self.aprime = _h1_mul(self.a, [rho * math.cos(theta), rho * math.sin(theta), dz])
        self.r0sq, self.z0 = rho * rho, -dz
        u, b = rng.uniform(0.7, 0.8), rng.uniform(0.15, 0.25)
        # frame-basis custom coupling with Jhat != 0 and vertical drift (K21 != K12)
        k = np.array([[u, -b], [b, -0.2]])
        self.policies = {
            "synchronous": coupling.synchronous_policy(),
            "reflection": coupling.reflection_policy(),
            "perverse": coupling.perverse_policy(),
            "kendall": coupling.kendall_policy(),
            "custom": coupling.custom_policy(k),
        }
        self.cases = [(s, p, 1) for s in SCHEMES for p in POLICIES]
        self.cases += [(s, "reflection", 2) for s in SCHEMES]
        self.seeds = {c: int(rng.integers(2**31)) for c in self.cases}
        # a threads=2 case shares its twin's seed: the outputs must be identical
        for s in SCHEMES:
            self.seeds[(s, "reflection", 2)] = self.seeds[(s, "reflection", 1)]
        self.static_seed = int(rng.integers(2**31))
        steps = self.n_paths * int(round(self.T / self.dt))
        self.op_path_steps = {f"{s}.{p}.t{t}": steps for s, p, t in self.cases}
        self.path_steps = steps * len(self.cases)
        self.samples = self.static_samples
        self.digests = _Digests()

    def run(self, tracer=None):
        ops = _Ops(tracer)
        twins = {}
        for scheme, pol, threads in self.cases:
            label = f"{scheme}.{pol}.t{threads}"
            ens, probs = ops.call(
                label, simulate.simulate_ensemble, self.policies[pol], self.a, self.aprime,
                T=self.T, n_paths=self.n_paths, dt=self.dt, seed=self.seeds[(scheme, pol, threads)],
                scheme=scheme, threads=threads,
            )
            with ops.bench("bench.checks"):
                if ens is not None:
                    probs = check_case(pol, ens, self.r0sq, self.z0)
                    digest = _digest(*_ensemble_arrays(ens))
                    probs += self.digests.same(label, digest)
                    if pol == "reflection":
                        twin = twins.setdefault(scheme, digest)
                        if twin != digest:
                            probs.append("threads=2 output differs from its threads=1 twin")
                ops.book(label, probs)
        smp, probs = ops.call(
            "static.density", static.static_couple, self.a, self.aprime, t=self.T,
            n_samples=self.static_samples, seed=self.static_seed, plan="density",
        )
        with ops.bench("bench.checks"):
            if smp is not None:
                probs = check_static(smp, self.a, self.aprime)
                probs += self.digests.same("static", _digest(smp.left, smp.right, smp.cost))
            ops.book("static.density", probs)
        return ops.result


class StaticCoupling:
    """Static couplings over seeded offsets spanning 1e-3..10."""

    name = "static-coupling"

    def __init__(self, seed, size="full"):
        rng = np.random.default_rng([seed, 2])
        full = size == "full"
        self.n_density = 2048 if full else 64
        self.n_translation = 512 if full else 32
        self.n_assignment, self.m_bridge = (16, 128) if full else (4, 16)
        self.assignment_steps = 256 if full else 64
        self.n_wasserstein = 512 if full else 32
        self.ref_paths = 1024 if full else 128
        self.t = float(rng.uniform(0.5, 2.0))
        self.a = rng.standard_normal(3)
        self.offsets = []  # (rho, aprime), one per decade of 1e-3..10
        for lo in (-3, -2, -1, 0):
            rho = 10.0 ** (lo + rng.uniform(0.0, 1.0))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            self.offsets.append((rho, _h1_mul(self.a, [rho * math.cos(theta), rho * math.sin(theta), 0.0])))
        self.seeds = [int(s) for s in rng.integers(2**31, size=4 * 2 + 3)]
        self.reflection = coupling.reflection_policy()
        self.samples = (len(self.offsets) * (self.n_density + self.n_translation)
                        + self.n_assignment + self.n_wasserstein)
        ref_steps = self.ref_paths * 100
        self.op_path_steps = {"reduced.reflection.t1": ref_steps}
        self.path_steps = ref_steps
        self.digests = _Digests()

    def _coupled(self, ops, label, fn, aprime, **kwargs):
        smp, probs = ops.call(label, fn, self.a, aprime, t=self.t, **kwargs)
        with ops.bench("bench.checks"):
            if smp is not None:
                probs = check_static(smp, self.a, aprime)
                probs += self.digests.same(label, _digest(smp.left, smp.right, smp.cost))
            ops.book(label, probs)
        return smp

    def run(self, tracer=None):
        ops = _Ops(tracer)
        seeds = iter(self.seeds)
        ratios = []
        for k, (rho, ap) in enumerate(self.offsets):
            smp = self._coupled(ops, f"density.{k}", static.static_couple, ap,
                                n_samples=self.n_density, seed=next(seeds), plan="density")
            ratios.append(float(smp.cost.mean()) / rho if smp is not None else float("nan"))
            self._coupled(ops, f"translation.{k}", static.baseline_translation_couple, ap,
                          n_samples=self.n_translation, seed=next(seeds))
        with ops.bench("bench.checks"):
            spread = max(ratios) / min(ratios)
            ops.book("density.ratio_spread", [] if spread < 3.0 else [
                f"density cost-ratio spread {spread:.3g} >= 3 (ratios {ratios})"])
        rho, ap = self.offsets[2]
        self._coupled(ops, "assignment", static.static_couple, ap, n_samples=self.n_assignment,
                      m_bridge=self.m_bridge, m_steps=self.assignment_steps, seed=next(seeds),
                      plan="assignment")
        rho, ap = self.offsets[1]
        smp = self._coupled(ops, "density.w", static.static_couple, ap,
                            n_samples=self.n_wasserstein, seed=next(seeds), plan="density")
        if smp is not None:
            w, probs = ops.call("wasserstein", estimators.empirical_wasserstein,
                                smp.left, smp.right, p=0.5)
            with ops.bench("bench.checks"):
                if w is not None:
                    # the identity pairing is one permutation: the optimum cannot exceed it
                    paired = float(np.mean(np.sqrt(_quasidistance(smp.left, smp.right)))) ** 2
                    if not (math.isfinite(w) and 0.0 <= w <= paired * (1.0 + 1e-9)):
                        probs.append(f"W_1/2 {w!r} not in [0, identity pairing {paired!r}]")
                    probs += self.digests.same("wasserstein", repr(w))
                ops.book("wasserstein", probs)
        rho, ap = self.offsets[3]
        ens, probs = ops.call(
            "reduced.reflection.t1", simulate.simulate_ensemble, self.reflection, self.a, ap,
            T=self.t, n_paths=self.ref_paths, dt=self.t / 100, seed=next(seeds), scheme="reduced",
        )
        with ops.bench("bench.checks"):
            if ens is not None:
                probs = check_case("reflection", ens, rho * rho, 0.0)
                probs += self.digests.same("reference", _digest(*_ensemble_arrays(ens)))
            ops.book("reduced.reflection.t1", probs)
        return ops.result


def suite_config(rng, size="full"):
    """Seeded, scaled-down sections for all 13 experiments.

    Experiments that keep an ensemble run at the 20 000-path ensemble.csv cap,
    so artifact writing is measured at its full size.
    """
    full = size == "full"
    cap = 20000 if full else 512

    def decades(lows, width):
        return ",".join(f"{10.0 ** (lo + rng.uniform(0.0, width)):.6g}" for lo in lows)

    # a coarse dt keeps the blow-up runs to few checkpoints: the Euler engines
    # are measured by euler-sweep, here it is the experiment and its CSV
    blowup = {"n_paths": cap, "horizon": 1.0, "dt": 0.25}
    sections = {
        "algebra-suite": {"n_cases": 2000 if full else 50},
        "matrix-lemmas": {"n_cases": 1000 if full else 20},
        "scheme-consistency": {"n_paths": cap, "horizon": 0.05, "dt": 0.01 if full else 0.05},
        "blowup-synchronous": dict(blowup),
        "blowup-reflection": dict(blowup),
        "blowup-perverse": dict(blowup),
        "kendall-success": {"n_paths": 500 if full else 32,
                            "checkpoints": "1,2,4" if full else "0.25,0.5,1"},
        "reflection-exponents": {"n_paths": cap if full else 2048,
                                 "checkpoints": "0.25,0.5,1"},
        "reflection-hitting": {"n_paths": cap, "horizon": 0.25},
        "static-ratio": {"n_samples": 250 if full else 32, "m_steps": 256 if full else 64},
        "static-baseline": {"n_samples": 250 if full else 32, "m_steps": 256 if full else 64},
        "mg-lemma": {"n_paths": 20000 if full else 1000},
        "excursion-moments": {"n_samples": 8 if full else 4, "m_steps": 512 if full else 64},
    }
    for name in ("blowup-synchronous", "blowup-reflection", "blowup-perverse"):
        sections[name]["aprime"] = f"{rng.uniform(0.8, 1.2):.6g},0,0"
    sections["reflection-exponents"]["r0"] = f"{rng.uniform(0.8, 1.25):.6g}"
    sections["reflection-hitting"]["r0"] = f"{rng.uniform(1.5, 2.5):.6g}"
    sections["static-ratio"]["offsets"] = decades((-3, -2, -1, 0), 1.0)
    sections["static-baseline"]["offsets"] = decades((-3, -2.5, -2, -1.5, -1), 0.25)
    for sec in sections.values():
        sec["seed"] = int(rng.integers(2**31))
    return sections


def _nominal_work(sections):
    """Euler path-steps and static samples the config asks for."""
    def steps(sec):
        return sec["n_paths"] * int(round(sec["horizon"] / sec["dt"]))

    path_steps = 8 * steps(sections["scheme-consistency"])  # 4 policies x 2 schemes
    path_steps += sum(steps(sections[f"blowup-{s}"])
                      for s in ("synchronous", "reflection", "perverse"))
    ratio, base = sections["static-ratio"], sections["static-baseline"]
    samples = ratio["n_samples"] * len(ratio["offsets"].split(","))
    samples += base["n_samples"] * (len(base["offsets"].split(",")) + 1)
    return path_steps, samples


def check_experiment_dir(path, name):
    """(problems, checks passed, checks total, bytes, body digest) of one experiment."""
    probs, passed, total, nbytes = [], 0, 0, 0
    h = hashlib.sha256()
    for fname, header in (("ensemble.csv", ENSEMBLE_HEADER), ("summary.csv", SUMMARY_HEADER)):
        fpath = os.path.join(path, fname)
        if not os.path.isfile(fpath):
            probs.append(f"{fname} missing")
            continue
        with open(fpath, "rb") as fh:
            first, second, body = fh.readline(), fh.readline(), fh.read()
        nbytes += len(first) + len(second) + len(body)
        if not first.startswith(b"#"):
            probs.append(f"{fname} lacks its leading comment line")
        if second.rstrip(b"\n") != header:
            probs.append(f"{fname} header is {second[:80]!r}")
        h.update(second + body)  # the comment line carries a timestamp
    fpath = os.path.join(path, "report.jsonl")
    if not os.path.isfile(fpath):
        return probs + ["report.jsonl missing"], passed, total, nbytes, h.hexdigest()
    with open(fpath, "rb") as fh:
        raw = fh.read()
    nbytes += len(raw)
    h.update(raw)
    lines = raw.decode("utf-8", errors="replace").splitlines()
    if not lines:
        probs.append("report.jsonl is empty")
    for i, line in enumerate(lines, 1):
        try:
            rec = json.loads(line)
        except ValueError:
            probs.append(f"report.jsonl line {i} does not parse")
            continue
        if not isinstance(rec, dict) or set(rec) != REPORT_KEYS or rec["experiment"] != name \
                or not isinstance(rec["pass"], bool):
            probs.append(f"report.jsonl line {i} is not a check record")
            continue
        total += 1
        passed += rec["pass"]
    return probs, passed, total, nbytes, h.hexdigest()


class ExperimentSuite:
    """All 13 experiments through cli.main on a seeded config."""

    name = "experiment-suite"

    def __init__(self, seed, size="full", workdir=".perfbench_tmp"):
        rng = np.random.default_rng([seed, 3])
        self.sections = suite_config(rng, size)
        self.path_steps, self.samples = _nominal_work(self.sections)
        self.op_path_steps = {}
        self.workdir = workdir
        self.digests = _Digests()

    def config_text(self):
        return "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items()) + "\n"
            for name, sec in self.sections.items()
        )

    def run(self, tracer=None):
        ops = _Ops(tracer)
        with ops.bench("bench.prepare"):
            os.makedirs(self.workdir, exist_ok=True)
            out = tempfile.mkdtemp(prefix="suite-", dir=self.workdir)
            cfg = os.path.join(out, "suite.ini")
            with open(cfg, "w") as fh:
                fh.write(self.config_text())
        try:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc, probs = ops.call("cli", cli.main, ["--config", cfg, "--out", out])
            if not probs and rc not in (0, 1):
                probs = [f"exit code {rc}: {sink.getvalue()[-200:]!r}"]
            with ops.bench("bench.checks"):
                passed = total = nbytes = 0
                for name in self.sections:
                    p, ok, n, size, digest = check_experiment_dir(os.path.join(out, name), name)
                    passed, total, nbytes = passed + ok, total + n, nbytes + size
                    p += self.digests.same(name, digest)
                    ops.book(name, probs + p)
                ops.result.extra.update({
                    "experiments.checks_passed": passed,
                    "experiments.checks_total": total,
                    "experiments.artifact_bytes": nbytes,
                })
        finally:
            with ops.bench("bench.prepare"):
                shutil.rmtree(out, ignore_errors=True)
        return ops.result


WORKLOAD_TYPES = {w.name: w for w in (EulerSweep, StaticCoupling, ExperimentSuite)}


def make(name, seed, size="full", workdir=".perfbench_tmp"):
    if name == ExperimentSuite.name:
        return ExperimentSuite(seed, size, workdir)
    return WORKLOAD_TYPES[name](seed, size)
