"""Benchmark entry point.

    python3 bench/run.py --workload {sweep,bigfield,integer} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts fresh interpreters
(``bench/session.py``) one after another and never two at once, so the
package sees a single closed-loop client; no op uses worker processes.

--trace 0  repeats untraced sessions of the workload until about S
           seconds have been spent (at least MIN_SESSIONS of them) and
           reports the end-to-end metrics over all of them.  The first
           session checks every output in full; later sessions check
           in full only outputs that differ from a verified one.
--trace 1  runs one untraced session, one traced session and the layer
           probe, and reports the per-layer metrics.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when a result was printed, also when an op failed (that shows
in ``failed``); anything that prevents a result exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from session import use_checkout_source  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS, sweep_poly_count  # noqa: E402

MIN_SESSIONS = 3
MAX_SESSIONS = 50
# a run stops starting sessions when the next one could end past this
RUN_LIMIT_S = 150.0

# (name, unit, better); every workload reports every one of these
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# printed by every run and by report.py, but not declared in
# BENCHMARK.json: fail_ratio is 0 whenever the program is right (the
# result line carries it as failed/attempted), and polys_per_s is defined
# on the sweep only.
EXTRA = (("fail_ratio", "ratio", "lower"), ("polys_per_s", "1/s", "higher"))

PER_LAYER = (
    ("ffield.field_make_ms", "ms", "lower"),
    ("ffield.mul_ns.table", "ns", "lower"),
    ("ffield.add_ns.table", "ns", "lower"),
    ("ffield.mul_ns.fallback", "ns", "lower"),
    ("ffield.inv_ns.fallback", "ns", "lower"),
    ("fpoly.mul_us.d8", "us", "lower"),
    ("fpoly.mul_us.d16", "us", "lower"),
    ("fpoly.mul_us.d32", "us", "lower"),
    ("fpoly.divmod_us.d8", "us", "lower"),
    ("fpoly.divmod_us.d16", "us", "lower"),
    ("fpoly.divmod_us.d32", "us", "lower"),
    ("fpoly.gcd_us", "us", "lower"),
    ("fpoly.powmod_ms", "ms", "lower"),
    ("fpoly.factor_us", "us", "lower"),
    ("fpoly.factor_calls", "count", "lower"),
    ("fpoly.factor_ms", "ms", "lower"),
    ("fpoly.is_irreducible_ms", "ms", "lower"),
    ("fpoly.sieve_build_ms", "ms", "lower"),
    ("fpoly.sieve_entries", "count", "lower"),
    ("fpoly.enumerate_per_s", "1/s", "higher"),
    ("totient.lehmer_set_s.q2", "s", "lower"),
    ("totient.lehmer_set_s.q3", "s", "lower"),
    ("totient.lehmer_set_s.q4", "s", "lower"),
    ("totient.lehmer_set_s.q5", "s", "lower"),
    ("totient.hits", "count", "higher"),
    ("totient.lehmer_polys_per_s", "1/s", "higher"),
    ("totient.bruteforce_us", "us", "lower"),
    ("totient.totient_ms", "ms", "lower"),
    ("cyclo.cyclotomic_eval_us.cold", "us", "lower"),
    ("cyclo.cyclotomic_eval_us.warm", "us", "lower"),
    ("cyclo.primitive_part_us", "us", "lower"),
    ("cyclo.cyclotomic_ms", "ms", "lower"),
    ("cyclo.zsigmondy_ms", "ms", "lower"),
    ("intmath.factorize_us", "us", "lower"),
    ("intmath.sieve_ms", "ms", "lower"),
    ("lehmer_search.partitions_per_s", "1/s", "higher"),
    ("lehmer_search.mersenne_divisibility_us", "us", "lower"),
    ("lehmer_search.exponent_map_us", "us", "lower"),
    ("lehmer_search.candidate_degrees_ms", "ms", "lower"),
    ("suites.oracle_s", "s", "lower"),
    ("suites.prop31_s", "s", "lower"),
    ("suites.prop36_s", "s", "lower"),
    ("suites.cyclo_lemmas_s", "s", "lower"),
    ("suites.bounds_s", "s", "lower"),
    ("cli.overhead_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
) + tuple((f"self_pct.{layer}", "%", "lower") for layer in LAYERS)

UNITS = {name: unit for name, unit, _ in END_TO_END + EXTRA + PER_LAYER}


class BenchError(Exception):
    """A session could not produce a result."""


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_session(workload: str, seed: int, mode: str, size: str, deadline: float,
                spans: Path | None = None, verified: dict | None = None) -> dict:
    """One session in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, str(BENCH / "session.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--size", size]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if verified is not None:
        cmd.append("--verified")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("LEHMER_FF_WORKERS", None)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              input=json.dumps(verified) if verified is not None else None,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} session of {workload} ran past the time limit") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} session of {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(sessions: list[dict], size: str) -> tuple[dict, dict]:
    """End-to-end metrics of repeated untraced sessions, with the number
    of measurements behind each.

    Every session issues the same op list, so each op has one latency per
    session; its time is the mean of those.  wall_s sums the per-op means
    (the mean session's op time) and the latency percentiles are taken
    over them.  Averaging over every session of the run damps the speed
    swings of a shared machine better than a median of a few sessions.
    """
    per_op = [statistics.fmean(s["ops"][i]["latency_s"] for s in sessions)
              for i in range(len(sessions[0]["ops"]))]
    wall = sum(per_op)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "wall_s": wall,
        "queries_per_s": len(per_op) / wall,
        "query_p50_ms": percentile(per_op, 50) * 1e3,
        "query_p90_ms": percentile(per_op, 90) * 1e3,
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] / 1024 for s in sessions),
    }
    timed = len(sessions) * len(per_op)
    counts = {"setup_s": len(sessions), "peak_rss_mb": len(sessions), "wall_s": timed,
              "queries_per_s": timed, "query_p50_ms": timed, "query_p90_ms": timed}
    lehmer = [t for t, op in zip(per_op, sessions[0]["ops"]) if op["kind"] == "lehmer"]
    if lehmer:
        metrics["polys_per_s"] = sweep_poly_count(size) / sum(lehmer)
        counts["polys_per_s"] = len(sessions) * len(lehmer)
    return metrics, counts


def verified(session: dict) -> dict:
    """Digests of the outputs that passed their full check in ``session``."""
    return {str(i): op["digest"] for i, op in enumerate(session["ops"])
            if op["error"] is None}


def failures(sessions: list[dict]) -> tuple[int, int]:
    """(failed, attempted) over every op of every session."""
    ops = [op for s in sessions for op in s["ops"]]
    return sum(op["error"] is not None for op in ops), len(ops)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Run one workload; returns the result line plus every metric and the
    number of measurements behind it."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S + 20
    if trace:
        OUT.mkdir(exist_ok=True)
        plain = run_session(workload, seed, "plain", size, deadline)
        traced = run_session(workload, seed, "traced", size, deadline,
                             OUT / f"spans-{workload}-{seed}.jsonl", verified(plain))
        probe = run_session(workload, seed, "probe", size, deadline,
                            OUT / f"spans-probe-{workload}-{seed}.jsonl")
        sessions = [plain, traced]
        metrics = dict(probe["metrics"])
        counts = dict.fromkeys(metrics, 1)
        untraced_wall = sum(op["latency_s"] for op in plain["ops"])
        traced_wall = sum(op["latency_s"] for op in traced["ops"])
        metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
        counts["trace.overhead_ratio"] = 2 * len(plain["ops"])
        for layer, seconds_in in traced["layer_self_s"].items():
            metrics[f"self_pct.{layer}"] = 100 * seconds_in / traced_wall
            counts[f"self_pct.{layer}"] = len(traced["ops"])
        names = [name for name, _, _ in PER_LAYER]
    else:
        sessions = []
        while True:
            sessions.append(run_session(workload, seed, "plain", size, deadline,
                                        verified=verified(sessions[0]) if sessions else None))
            elapsed = time.monotonic() - start
            typical = elapsed / len(sessions)
            if len(sessions) >= MAX_SESSIONS or elapsed + typical > RUN_LIMIT_S:
                break
            if len(sessions) >= MIN_SESSIONS and elapsed + typical > seconds:
                break
        metrics, counts = end_to_end(sessions, size)
        names = [name for name, _, _ in END_TO_END]
    failed, attempted = failures(sessions)
    metrics["fail_ratio"] = failed / attempted
    counts["fail_ratio"] = attempted
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "sessions": len(sessions), "ops_per_session": len(sessions[0]["ops"]),
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                        for name in names},
        },
        "metrics": metrics,
        "counts": counts,
    }


def print_summary(run: dict) -> None:
    res = run["result"]
    print(f"workload {run['workload']}  seed {run['seed']}  trace {int(run['trace'])}  "
          f"sessions {run['sessions']}  ops/session {run['ops_per_session']}  "
          f"attempted {res['attempted']}  failed {res['failed']}")
    for name, value in run["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {UNITS[name]:6s} samples={run['counts'][name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a few ops of every kind, for the benchmark's tests")
    args = parser.parse_args(argv)
    use_checkout_source()
    try:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_summary(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
