"""Run every workload and print every metric by name.

    python3 bench/report.py [--seed N] [--seconds S] [--trace]
                            [--workload W ...] [--out FILE]

For each workload this prints the end-to-end metrics of one untraced run
(and, with --trace, the per-layer metrics of one traced run), each with
its unit and the number of measurements behind it, plus fail_ratio and,
on the sweep, polys_per_s.  Machine information comes first.  --out also
writes everything as JSON (for example to a BENCH_<label>.json file).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

from run import ROOT, BenchError, UNITS, run_workload
from session import use_checkout_source
from workloads import WORKLOADS


def machine_info(seed: int) -> dict:
    import mpmath

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "platform": platform.platform(), "seed": seed}


def print_run(run: dict) -> None:
    res = run["result"]
    kind = "per-layer (traced)" if run["trace"] else "end-to-end"
    print(f"\n{run['workload']}: {kind}, {run['sessions']} session(s) of "
          f"{run['ops_per_session']} ops, attempted {res['attempted']}, "
          f"failed {res['failed']}")
    print(f"  {'metric':40s} {'unit':6s} {'samples':>8s} {'value':>14s}")
    for name, value in run["metrics"].items():
        print(f"  {name:40s} {UNITS[name]:6s} {run['counts'][name]:8d} {value:14.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also run the traced runs")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", help="also write the report as JSON to this file")
    args = parser.parse_args(argv)
    use_checkout_source()

    info = machine_info(args.seed)
    print("machine: " + "  ".join(f"{k}={v}" for k, v in info.items()))
    runs = []
    try:
        for workload in args.workload or WORKLOADS:
            for trace in (False, True) if args.trace else (False,):
                run = run_workload(workload, args.seed, args.seconds, trace)
                print_run(run)
                runs.append(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"machine": info, "runs": runs}, fh, indent=1)
    return 0 if all(run["result"]["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
