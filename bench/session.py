"""One benchmark session in a fresh interpreter.

A session sets up (imports the package, builds every field the workload
uses, generates the seeded op list), then acts as a single closed-loop
client: it issues each op through ``lehmer_ff.cli.run(argv)`` in-process
with stdout captured, waits for it to return, checks the captured output
outside the timed region, and only then issues the next op.  Module
caches start empty because the interpreter is fresh, and fill as the
session goes, as in a user's session.

Modes:
  plain   time each op (the end-to-end numbers)
  traced  wrap each op in spans and replay the same inputs through each
          layer's public functions (the per-layer numbers)
  probe   run the layer probe of probe.py

Run as ``python3 bench/session.py --workload W --seed N --mode M``; the
last line of stdout is one JSON object with the session's results.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# fields built during set-up, so that their construction lands in setup_s
FIELDS = {"sweep": (2, 3, 4, 5), "bigfield": (256, 257, 4096, 65521), "integer": ()}


def use_checkout_source() -> None:
    """Import the package from this checkout's source tree, never from an
    installed copy."""
    if not (SRC / "lehmer_ff" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def call_cli(argv: list[str]) -> tuple[int, str]:
    from lehmer_ff.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    return rc, out.getvalue()


def set_up(workload: str, seed: int, size: str) -> list[dict]:
    import lehmer_ff.cli  # noqa: F401  (the import is part of set-up)
    from lehmer_ff import field_from_order
    from workloads import generate

    for q in FIELDS[workload]:
        field_from_order(q)
    return generate(workload, seed, size)


def run_ops(ops: list[dict], tracer=None, perturb=None, verified=None) -> list[dict]:
    """Issue every op in order; return kind, latency, error and output
    digest per op.

    ``verified`` maps an op's index to the digest (exit code and output
    hash) of an output that already passed the full check in an earlier
    session of the same run; an identical output is then correct without
    re-checking, and any other output is checked in full.  ``perturb(op,
    out)`` may rewrite an op's captured output before it is checked; the
    benchmark's own tests use it to show that wrong answers are caught.
    """
    from checks import CheckFailed, check_op

    results = []
    for i, op in enumerate(ops):
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                rc, out = call_cli(op["argv"])
            else:
                with tracer.span("op", "bench", op=i):
                    with tracer.span("cli.run", "cli", op=i):
                        rc, out = call_cli(op["argv"])
                    replay(op, tracer, i)
        except Exception as exc:  # any escape from the package is a failed op
            error = f"raised {exc!r}"
        latency = time.perf_counter() - start
        digest = None
        if error is None:
            if perturb is not None:
                out = perturb(op, out)
            digest = [rc, hashlib.sha256(out.encode()).hexdigest()]
            if not verified or verified.get(str(i)) != digest:
                try:
                    check_op(op, rc, out)
                except CheckFailed as exc:
                    error = f"wrong output: {exc}"
                except Exception as exc:  # unparsable output is a wrong answer too
                    error = f"malformed output: {exc!r}"
        if error is not None:
            print(f"op {i} {' '.join(op['argv'])}: {error}", file=sys.stderr)
        results.append({"kind": op["kind"], "latency_s": latency, "error": error,
                        "digest": digest if error is None else None})
    return results


def replay(op: dict, tr, i: int) -> None:
    """Call each layer's public functions on the op's own inputs."""
    from lehmer_ff import (
        candidate_degrees, cyclotomic, cyclotomic_eval, exponent_map, factor,
        field_from_order, lehmer_set, mersenne_divisibility, parse_poly,
        partitions_of, totient_report, zsigmondy,
    )
    from lehmer_ff.intmath import euler_phi
    from lehmer_ff.lehmer_search import Partition
    from lehmer_ff.suites import run_suite

    kind = op["kind"]
    if kind == "lehmer":
        with tr.span("ffield.field_from_order", "ffield", i):
            spec = field_from_order(op["q"])
        with tr.span("totient.lehmer_set", "totient", i):
            lehmer_set(spec, op["max_degree"], workers=1)
    elif kind == "verify":
        with tr.span("suites.run_suite", "suites", i):
            run_suite(op["suite"], workers=1)
    elif kind == "totient":
        with tr.span("ffield.field_from_order", "ffield", i):
            spec = field_from_order(op["q"])
        with tr.span("fpoly.parse_poly", "fpoly", i):
            f = parse_poly(spec, op["argv"][1])
        with tr.span("fpoly.factor", "fpoly", i):
            factor(f)
        with tr.span("totient.totient_report", "totient", i):
            totient_report(f)
    elif kind == "zsigmondy":
        with tr.span("cyclo.zsigmondy", "cyclo", i):
            zsigmondy(op["a"], 1, op["n"])
    elif kind == "cyclotomic":
        with tr.span("cyclo.cyclotomic", "cyclo", i):
            cyclotomic(op["n"])
        with tr.span("intmath.euler_phi", "intmath", i):
            euler_phi(op["n"])
        if op["a"] is not None:
            with tr.span("cyclo.cyclotomic_eval", "cyclo", i):
                cyclotomic_eval(op["n"], op["a"])
    elif kind == "partitions":
        with tr.span("lehmer_search.partition_search", "lehmer_search", i):
            for n in range(2, op["n_max"] + 1):
                for parts in partitions_of(n):
                    part = Partition(parts)
                    if mersenne_divisibility(op["a"], part):
                        exponent_map(n, part)
    elif kind == "candidates":
        with tr.span("lehmer_search.candidate_degrees", "lehmer_search", i):
            candidate_degrees(op["n_max"])
    else:
        raise ValueError(f"no replay for op kind {kind!r}")


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "probe"), default="plain")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--spans", help="file to write the recorded spans to")
    parser.add_argument("--verified", action="store_true",
                        help="read verified output digests (JSON) from stdin")
    args = parser.parse_args(argv)

    use_checkout_source()
    from tracing import Tracer, layer_self_times

    result: dict = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    tracer = Tracer() if args.mode != "plain" else None
    if args.mode == "probe":
        from probe import run_probe

        result["metrics"] = run_probe(args.seed, args.size, tracer)
    else:
        ops = set_up(args.workload, args.seed, args.size)
        result["setup_s"] = time.perf_counter() - _T0
        verified = json.load(sys.stdin) if args.verified else None
        result["ops"] = run_ops(ops, tracer, verified=verified)
        if tracer is not None:
            result["layer_self_s"] = layer_self_times(tracer.spans)
    result["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
