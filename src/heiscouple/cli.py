"""Command line front end for the built-in experiments.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config or
I/O error.
"""

import argparse
import sys
from datetime import datetime, timezone

from heiscouple import experiments as exp
from heiscouple.constants import POOL_MIN_BLOCKS, RNG_BLOCK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="heiscouple",
        description="Run coupling experiments and write CSV/JSONL artifacts.",
    )
    ap.add_argument("--config", metavar="PATH",
                    help="INI config, one [experiment] section per run")
    ap.add_argument("--experiment", metavar="NAME",
                    help="run a single experiment (with its config section "
                         "if --config is given, defaults otherwise)")
    ap.add_argument("--seed", type=int, default=None, metavar="N",
                    help="override the seed of every selected experiment")
    ap.add_argument("--threads", type=int, default=1, metavar="N",
                    help=f"at most N worker threads, one per group of at least {POOL_MIN_BLOCKS} "
                         f"RNG blocks ({POOL_MIN_BLOCKS * RNG_BLOCK} paths); never "
                         "changes numeric output")
    ap.add_argument("--out", default=".", metavar="DIR",
                    help="output root; each experiment writes into DIR/<name>/")
    ap.add_argument("--list", action="store_true",
                    help="list available experiments and exit")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.list:
        for name in exp.EXPERIMENTS:
            print(name)
        return 0
    try:
        if args.config:
            runs = exp.parse_config(args.config, experiment=args.experiment)
        elif args.experiment:
            runs = [(args.experiment, exp.default_params(args.experiment))]
        else:
            print("nothing to do: pass --config, --experiment, or --list",
                  file=sys.stderr)
            return 2
    except exp.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    any_failed = False
    for name, params in runs:
        if args.seed is not None:
            params["seed"] = args.seed
        try:
            ok, checks = exp.run_experiment(
                name, params, out=args.out, threads=args.threads, stamp=stamp
            )
        except exp.ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            return 2
        except OSError as err:
            print(f"i/o error: {err}", file=sys.stderr)
            return 2
        for c in checks:
            status = "pass" if c.ok else "FAIL"
            print(f"{name}: {c.quantity} = {c.value:.6g} [{status}]")
        any_failed = any_failed or not ok
    return 1 if any_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
