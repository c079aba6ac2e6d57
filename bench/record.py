"""Record the benchmark's end-to-end metrics over several seeds, and one trace.

    python3 bench/record.py --out BENCH_8.json --seeds 41 42 43 44 45 \\
        --side parent=../parent-checkout --side change=.

For every seed and each of the three workloads this runs
``perfbench/run.py --trace 0`` for BENCHMARK.json's ``run_seconds`` once per
side, in that side's own checkout, so each side is measured on its own
sources with its own copy of the benchmark.  The order of the sides rotates
from one seed to the next, so a drift of the host's speed falls on every side
alike.  After the timed runs, each side makes one ``--trace 1`` run per
workload at the first seed, which gives the per-layer metrics (self times,
counts, throughputs); a single traced run shows where time went, it does not
back a claim.

The output file, written fresh, holds per side: the commit of its checkout
(when it is a git checkout), the ``# perfbench`` machine record of its first
run (machine, versions and the ``src/heiscouple`` line count), every run's
metrics by seed, each metric's median, quartiles and IQR per workload, and
under "trace" the seed and per-layer metrics of its traced runs.  Beside
those values, "trace" keeps under "detail" the (median, q1, q3, passes) over
the run's traced passes that its ``# perfbench`` record gives for a metric,
so a per-layer difference can be read against its spread.
Under "wins" it counts, for every side but the first ``--side`` (the "base"),
per workload and metric, the seeds on which that side did better than the
base, by the direction BENCHMARK.json gives.  Beside each count it states the
claim rule: "claimable" when the side did better on at least 9 of 10 pairs
and its median beats the base median by more than the base IQR, and
"regressed" when its median is worse than the base median by more than the
metric's ``bound`` in BENCHMARK.json, as a fraction of the base median, and
"unresolved" when the base's own IQR is wider than that bound, as a fraction
of the base median: its runs spread too far to tell a move of the bound's
size from noise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
DIRECTIONS = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
PREFIX = "# perfbench "


def run_once(checkout, workload, seed, trace=0):
    """One ``perfbench/run.py`` run; returns (its ``# perfbench`` record, result line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900,
                         check=False)
    if res.returncode != 0:
        raise SystemExit(f"record: {workload} seed {seed} in {checkout} failed:\n"
                         f"{res.stderr[-800:]}")
    lines = res.stdout.strip().splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith(PREFIX))[len(PREFIX):])
    return record, json.loads(lines[-1])


def commit_of(checkout):
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                         text=True, check=False)
    return res.stdout.strip() if res.returncode == 0 else None


def summary(values):
    """Median, quartiles and IQR of a list of numbers."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def wins(side, base):
    """Per workload and metric, the seeds on which side beat base, and the claim rule."""
    out = {}
    for work, by_seed in side["runs"].items():
        out[work] = {}
        for metric, better in DIRECTIONS.items():
            sign = 1.0 if better == "higher" else -1.0
            won = sum(sign * (run["metrics"][metric] - base["runs"][work][seed]["metrics"][metric]) > 0
                      for seed, run in by_seed.items())
            ours, theirs = side["metrics"][work][metric], base["metrics"][work][metric]
            gain = sign * (ours["median"] - theirs["median"])
            out[work][metric] = {
                "better": won, "pairs": len(by_seed),
                "claimable": 10 * won >= 9 * len(by_seed) and gain > theirs["iqr"],
                "regressed": -gain > BOUNDS[metric] * abs(theirs["median"]),
                "unresolved": theirs["iqr"] > BOUNDS[metric] * abs(theirs["median"]),
            }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", required=True, type=int, nargs="+")
    ap.add_argument("--side", required=True, action="append", metavar="NAME=CHECKOUT",
                    help="a checkout to measure; the first one is the base of the win counts")
    args = ap.parse_args(argv)
    sides = [spec.split("=", 1) for spec in args.side]
    if any(len(s) != 2 for s in sides):
        ap.error("--side takes NAME=CHECKOUT")

    out = {"command": "perfbench/run.py --trace 0", "seconds": SECONDS, "base": sides[0][0],
           "sides": {name: {"commit": commit_of(checkout), "runs": {w: {} for w in WORKLOADS}}
                     for name, checkout in sides}}
    for k, seed in enumerate(args.seeds):
        for work in WORKLOADS:
            for name, checkout in sides[k % len(sides):] + sides[:k % len(sides)]:
                record, result = run_once(checkout, work, seed)
                side = out["sides"][name]
                side.setdefault("machine", record["info"])
                side["src_heiscouple_lines"] = record["info"]["src_heiscouple_lines"]
                side["runs"][work][str(seed)] = {
                    "correct": result["correct"],
                    "metrics": {m: v["value"] for m, v in result["metrics"].items()},
                }
                print(f"{work} seed {seed} {name}: " + ", ".join(
                    f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)
    for name, checkout in sides:
        traced = {work: run_once(checkout, work, args.seeds[0], trace=1) for work in WORKLOADS}
        out["sides"][name]["trace"] = {
            "seed": args.seeds[0],
            "metrics": {work: {m: v["value"] for m, v in res["metrics"].items()}
                        for work, (_, res) in traced.items()},
            "detail": {work: {m: rec["detail"][m] for m in res["metrics"] if m in rec["detail"]}
                       for work, (rec, res) in traced.items()},
        }
        print(f"{name}: traced runs done", flush=True)
    for side in out["sides"].values():
        side["metrics"] = {
            work: {metric: summary([run["metrics"][metric] for run in by_seed.values()])
                   for metric in DIRECTIONS}
            for work, by_seed in side["runs"].items()
        }
    base = out["sides"][out["base"]]
    out["wins"] = {name: wins(side, base)
                   for name, side in out["sides"].items() if name != out["base"]}
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
