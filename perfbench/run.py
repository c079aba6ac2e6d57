"""heiscouple benchmark: one seeded workload, timed, checked and reported.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; heiscouple is pure Python and is
imported from that checkout's ``src/`` (nothing is built or installed).
Workloads: euler-sweep, static-coupling, experiment-suite (see metrics.py).

After set-up (import, input generation, warm-up), the run repeats passes
over the workload's operations for about S seconds, checking every output.
With ``--trace 0`` the last stdout line reports the end-to-end metrics;
set-up is timed here and in two fresh child processes and setup_s is the
median.  End-to-end times are stated at a fixed reference speed of the
machine: each plain pass is preceded by a program-independent reference
kernel (reference.py, in its own process), and a pass's wall time is scaled
by REF_SECONDS over the kernel's time.  On a shared host whose speed drifts
by 10-20 % over minutes this cancels the drift, which the raw times (kept in
the record below) do not.  With ``--trace 1`` traced passes (every heiscouple function
wrapped, see tracing.py) alternate with untraced ones and the last line
reports the per-layer metrics; timings that must not carry the tracing cost
(ns per path-step) come from the untraced passes.

The line before the result (``# perfbench {...}``) records the machine, the
library versions, the source line count and each metric's quartiles; the
same record goes to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_tmp"
OUTDIR = ROOT / ".perfbench_out"
SETUP_PROBES = 2  # child processes that repeat set-up, besides this one
REF_SECONDS = 0.2  # reference kernel duration that end-to-end times are scaled to


def _import_program():
    src = ROOT / "src"
    if not (src / "heiscouple" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no heiscouple sources under {src}")
    sys.path.insert(0, str(src))
    import heiscouple

    if Path(heiscouple.__file__).resolve().parent != src / "heiscouple":
        raise SystemExit(f"perfbench: imported heiscouple from {heiscouple.__file__}, not {src}")


def setup(name, seed, size):
    """Import heiscouple, generate inputs and warm up; returns (workload, seconds)."""
    t0 = time.perf_counter()
    _import_program()
    import workloads

    work = workloads.make(name, seed, size, str(WORKDIR))
    workloads.make(name, seed + 1, "tiny", str(WORKDIR)).run()
    return work, time.perf_counter() - t0


def _probe_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if res.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed: {res.stderr[-400:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def rng_reference(reps=5, draws=1024, calls=300):
    """Median ns per Philox normal and uniform, in the engines' 1024-path blocks."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    out = {}
    for key, fn in (("normal", gen.standard_normal), ("uniform", gen.random)):
        per = []
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(draws)
            per.append((time.perf_counter() - t0) / (calls * draws) * 1e9)
        out[key] = statistics.median(per)
    return out


class _Reference:
    """The reference kernel of reference.py, running in its own process."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def seconds(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("perfbench: reference kernel process died")
        return float(line)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _passes(work, seconds, traced, ref=None):
    """Run passes for about `seconds`; traced runs alternate plain and traced.

    Returns the plain passes as (Pass, reference kernel seconds just before
    it, or None without `ref`) and the traced ones as (Pass, span summary).
    """
    import tracing

    plain, spans = [], []
    tracer = tracing.Tracer() if traced else None
    start = time.perf_counter()
    longest = 0.0
    k = 0
    while True:
        use_trace = traced and k % 2 == 1
        t0 = time.perf_counter()
        if use_trace:
            with tracer.installed():
                res = work.run(tracer)
            elapsed = time.perf_counter() - t0
            spans.append((res, tracing.summarize(tracer.take(), elapsed)))
        else:
            ref_s = ref.seconds() if ref else None
            res = work.run()
            elapsed = time.perf_counter() - t0
            plain.append((res, ref_s))
        longest = max(longest, time.perf_counter() - t0)
        k += 1
        done = time.perf_counter() - start
        if (not traced or spans) and done + longest > seconds:
            return plain, spans


def _end_to_end(work, plain, setups):
    refs = [r for _, r in plain]
    walls = [p.wall_s * REF_SECONDS / r for p, r in plain]
    wall = statistics.median(walls)
    values = {
        "setup_s": statistics.median(setups) * REF_SECONDS / statistics.median(refs),
        "wall_s": wall,
        "path_steps_per_s": work.path_steps / wall,
        "samples_per_s": work.samples / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted = sum(p.attempted for p, _ in plain)
    failed = sum(len(p.failures) for p, _ in plain)
    values["ops_ok_frac"] = (attempted - failed) / attempted
    detail = {
        "wall_s": metrics.stats(walls),
        "raw_wall_s": metrics.stats([p.wall_s for p, _ in plain]),
        "raw_setup_s": metrics.stats(setups),
        "reference_s": metrics.stats(refs),
    }
    return values, detail


def _per_layer(work, plain, traced):
    plain = [p for p, _ in plain]
    rng = rng_reference()
    summaries = [s for _, s in traced]
    per_pass = [metrics.traced_values(s, p.extra) for p, s in traced]
    values, detail = {}, {}
    for name, *_ in metrics.PER_LAYER:
        xs = [v[name] for v in per_pass if name in v]
        if xs:
            detail[name] = metrics.stats(xs)
            values[name] = detail[name][0]
    ns = {}
    for label, steps in work.op_path_steps.items():
        st = metrics.stats([p.op_s[label] / steps * 1e9 for p in plain if label in p.op_s])
        ns[label], detail[f"ns.{label}"] = st[0], st
    for s in metrics.SCHEMES:
        for pol in metrics.POLICIES:
            label = f"{s}.{pol}.t1"
            v = ns.get(label, 0.0)
            values[f"simulate.ns_per_path_step.{s}.{pol}"] = v
            normals, uniforms = metrics.draws_per_step(summaries[0], label)
            floor = normals * rng["normal"] + uniforms * rng["uniform"]
            values[f"simulate.rng_floor_ratio.{s}.{pol}"] = v / floor if v and floor else 0.0
        t2 = ns.get(f"{s}.reflection.t2", 0.0)
        values[f"simulate.threads2_speedup.{s}"] = ns.get(f"{s}.reflection.t1", 0.0) / t2 if t2 else 0.0
    values["rng.ns_per_normal"] = rng["normal"]
    values["rng.ns_per_uniform"] = rng["uniform"]
    plain_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p, _ in traced)
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    detail["traced_wall_s"] = metrics.stats([p.wall_s for p, _ in traced])
    detail["plain_wall_s"] = metrics.stats([p.wall_s for p in plain])
    last = summaries[-1]
    detail["last_traced_pass"] = {k: last[k] for k in
                                  ("spans", "coverage", "layer_self_s", "calls", "self_s", "incl_s")}
    return values, detail


def _info():
    import numpy
    import scipy

    src = ROOT / "src" / "heiscouple"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_heiscouple_lines": lines,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input; for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    work, setup_s = setup(args.workload, args.seed, args.size)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        plain, traced = _passes(work, args.seconds, True)
    else:
        with _Reference() as ref:
            plain, traced = _passes(work, args.seconds, False, ref)
    try:
        WORKDIR.rmdir()  # only the experiment suite's scratch root, once empty
    except OSError:
        pass
    if args.trace:
        values, detail = _per_layer(work, plain, traced)
        units = [(name, unit) for name, unit, *_ in metrics.PER_LAYER]
    else:
        setups = [setup_s] + [_probe_setup(args) for _ in range(SETUP_PROBES)]
        values, detail = _end_to_end(work, plain, setups)
        units = [(name, unit) for name, unit, *_ in metrics.END_TO_END]
    runs = [p for p, _ in plain + traced]
    attempted = sum(p.attempted for p in runs)
    failures = {}
    for p in runs:
        failures.update(p.failures)
    failed = sum(len(p.failures) for p in runs)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "info": _info(), "passes": {"plain": len(plain), "traced": len(traced)},
        "detail": detail, "failures": failures,
    }
    OUTDIR.mkdir(exist_ok=True)
    out = OUTDIR / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("# perfbench " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
