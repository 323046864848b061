"""Command-line front end.

Subcommands: totient, lehmer, cyclotomic, zsigmondy, partitions,
candidates, verify.  Output formats: text (aligned table), json (with a
top-level "schema": 1 field), csv (with a header row).  Diagnostics go
to stderr.

Exit codes: 0 success/verified, 1 verification mismatch or failed internal
cross-check, 2 usage error, 3 resource limit (oracle cap, factoring budget
or size cap exceeded, or a marginal precision comparison).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .cyclo import DEFAULT_FACTORING_BUDGET, cyclotomic, cyclotomic_eval, zsigmondy
from .errors import (
    InvalidInput,
    LehmerFFError,
    PrecisionAlert,
    RESOURCE_ERRORS,
    VerificationError,
)
from .ffield import FieldSpec, field_from_order, field_make
from .fpoly import parse_poly
from .intmath import decimal_str, euler_phi
from .lehmer_search import (
    Partition,
    candidate_degrees,
    exponent_map,
    lehmer_partitions,
    mersenne_divisibility,
    partitions_of,
)
from .suites import SUITE_NAMES, SUITES, run_suite
from .totient import lehmer_set, totient_report

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

FORMATS = ("text", "json", "csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    ``run`` reuses it for every call: ``parse_args`` returns a fresh
    namespace each time and nothing mutates the parser once built, so
    callers must treat it as read-only.
    """
    parser = argparse.ArgumentParser(
        prog="lehmer-ff",
        description=(
            "Totients over F_q[x], cyclotomic integers, primitive prime "
            "divisors, and exhaustive divisibility sweeps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="text")

    def add_workers(p):
        p.add_argument(
            "--workers", type=int, default=1,
            help="accepted and ignored: every sweep runs in one process",
        )

    def add_field(p):
        p.add_argument("--q", type=int, help="field size (prime power)")
        p.add_argument("--p", type=int, help="field characteristic")
        p.add_argument("--k", type=int, help="extension degree")

    p = sub.add_parser("totient", help="totient report for one polynomial")
    p.add_argument("poly", help="polynomial text, e.g. 'x^3+x+1'")
    add_field(p)
    add_format(p)

    p = sub.add_parser("lehmer", help="sweep all degrees up to a bound")
    add_field(p)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--expand-units", action="store_true")
    add_workers(p)
    add_format(p)

    p = sub.add_parser("cyclotomic", help="cyclotomic polynomial (and value)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eval", type=int, default=None, dest="eval_at")
    add_format(p)

    p = sub.add_parser("zsigmondy", help="primitive prime divisors of a^n - b^n")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--factoring-budget", type=int, default=DEFAULT_FACTORING_BUDGET)
    add_format(p)

    p = sub.add_parser("partitions", help="partition divisibility search")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--all", action="store_true", help="include failing partitions")
    add_format(p)

    p = sub.add_parser("candidates", help="candidate degree sets from the bound comparison")
    p.add_argument("--n-max", type=int, required=True)
    add_format(p)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--a-max", type=int, default=None)
    add_workers(p)
    add_format(p)

    return parser


def _field_from_args(args) -> FieldSpec:
    """F_q from --q, or F_{p^k} from --p and --k (1 if left out)."""
    if args.q is not None:
        if args.p is not None or args.k is not None:
            raise LehmerFFError("give the field as --q or as --p [--k], not both")
        return field_from_order(args.q)
    if args.p is not None:
        return field_make(args.p, 1 if args.k is None else args.k)
    raise LehmerFFError("specify the field with --q or --p [--k]")


def dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False)


def _emit_records(records: list[dict], fmt: str, columns: list[str]) -> None:
    if fmt == "json":
        print(dump_json({"schema": 1, "rows": records}))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_csv_cell(rec.get(c)) for c in columns])
        print(buf.getvalue(), end="")
    else:
        widths = {
            c: max(len(c), *(len(str(_csv_cell(r.get(c)))) for r in records))
            if records
            else len(c)
            for c in columns
        }
        print("  ".join(c.ljust(widths[c]) for c in columns))
        for rec in records:
            print(
                "  ".join(
                    str(_csv_cell(rec.get(c))).ljust(widths[c]) for c in columns
                )
            )


def _csv_cell(value):
    if isinstance(value, list):
        if value and isinstance(value[0], list):  # factor list
            return ";".join(f"{t}|{m}" for t, m in value)
        return ";".join(str(v) for v in value)
    return value


REPORT_COLUMNS = [
    "q", "degree", "poly", "phi", "modulus_value", "divides", "reducible", "factors",
]


def _cmd_totient(args) -> int:
    spec = _field_from_args(args)
    f = parse_poly(spec, args.poly)
    record = totient_report(f).as_record()
    if args.format == "json":
        print(dump_json({"schema": 1, **record}))
    else:
        _emit_records([record], args.format, REPORT_COLUMNS)
    return EXIT_OK


def _cmd_lehmer(args) -> int:
    spec = _field_from_args(args)
    hits = lehmer_set(
        spec, args.max_degree, expand_units=args.expand_units, workers=args.workers
    )
    print(
        f"q={spec.q}: {len(hits)} polynomial(s) with totient dividing "
        f"q^deg - 1 up to degree {args.max_degree}",
        file=sys.stderr,
    )
    records = [r.as_record() for r in hits]
    _emit_records(records, args.format, REPORT_COLUMNS)
    return EXIT_OK


def _cmd_cyclotomic(args) -> int:
    poly = cyclotomic(args.n)
    payload = {
        "schema": 1,
        "n": args.n,
        "degree": euler_phi(args.n),
        "poly": str(poly),
    }
    if args.eval_at is not None:
        payload["eval_at"] = args.eval_at
        payload["value"] = decimal_str(cyclotomic_eval(args.n, args.eval_at))
    if args.format == "json":
        print(dump_json(payload))
    elif args.format == "csv":
        cols = [c for c in ("n", "degree", "poly", "eval_at", "value") if c in payload]
        _emit_records([payload], "csv", cols)
    else:
        line = f"Phi_{args.n} = {poly}"
        if args.eval_at is not None:
            line += f"; value at {args.eval_at}: {payload['value']}"
        print(line)
    return EXIT_OK


def _cmd_zsigmondy(args) -> int:
    result = zsigmondy(args.a, args.b, args.n, factoring_budget=args.factoring_budget)
    record = result.as_record()
    if args.format == "json":
        print(dump_json({"schema": 1, **record}))
    elif args.format == "csv":
        _emit_records(
            [record],
            "csv",
            ["a", "b", "n", "primitive_primes", "exception", "primitive_part"],
        )
    else:
        if result.exception:
            print(
                f"{args.a}^{args.n} - {args.b}^{args.n}: no primitive prime "
                f"divisor (exception {result.exception})"
            )
        else:
            primes = ", ".join(str(p) for p in result.primitive_primes)
            print(
                f"{args.a}^{args.n} - {args.b}^{args.n}: primitive primes "
                f"{{{primes}}}, primitive part {result.primitive_part}"
            )
    return EXIT_OK


def _cmd_partitions(args) -> int:
    if args.a < 2:
        raise InvalidInput("--a must be >= 2")
    if args.n_max < 2:
        raise InvalidInput("--n-max must be >= 2")
    records = []
    for n in range(2, args.n_max + 1):
        if args.all:
            rows = [
                (part, mersenne_divisibility(args.a, part))
                for part in map(Partition, partitions_of(n))
            ]
        else:
            rows = [(part, True) for part in lehmer_partitions(args.a, n)]
        for part, divides in rows:
            records.append(
                {
                    "a": args.a,
                    "n": n,
                    "parts": list(part.parts),
                    "divides": divides,
                    "exponent_map": exponent_map(n, part).as_record(),
                }
            )
    if args.format == "json":
        print(dump_json({"schema": 1, "rows": records}))
    else:
        flat = [
            {**r, "exponent_map": json.dumps(r["exponent_map"], sort_keys=True)}
            for r in records
        ]
        _emit_records(flat, args.format, ["a", "n", "parts", "divides", "exponent_map"])
    return EXIT_OK


def _cmd_candidates(args) -> int:
    coarse, refined = candidate_degrees(args.n_max)
    payload = {
        "schema": 1,
        "n_max": args.n_max,
        "coarse": sorted(coarse),
        "refined": sorted(refined),
    }
    if args.format == "json":
        print(dump_json(payload))
    elif args.format == "csv":
        rows = [{"set": "coarse", "n": n} for n in sorted(coarse)]
        rows += [{"set": "refined", "n": n} for n in sorted(refined)]
        _emit_records(rows, "csv", ["set", "n"])
    else:
        print("coarse: ", ", ".join(map(str, sorted(coarse))))
        print("refined:", ", ".join(map(str, sorted(refined))))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.workers < 1:
        raise LehmerFFError("workers must be >= 1")
    options = {key: getattr(args, key) for key in ("q", "max_degree", "n_max", "a_max")}
    reads = SUITES[args.suite][1]
    unread = [key for key, v in options.items() if v is not None and key not in reads]
    if unread:
        flags = ", ".join("--" + key.replace("_", "-") for key in unread)
        raise LehmerFFError(f"suite {args.suite} does not read {flags}")
    report = run_suite(args.suite, **options)
    if args.format == "json":
        print(dump_json(report.as_payload()))
    elif args.format == "csv":
        rows = [c.as_record() for c in report.checks]
        for r in rows:
            for key in ("expected", "found"):
                if key in r:
                    r[key] = json.dumps(r[key], sort_keys=True)
        _emit_records(rows, "csv", ["label", "ok", "expected", "found"])
    else:
        for check in report.checks:
            print(f"{'PASS' if check.ok else 'FAIL'}  {check.label}")
            if not check.ok:
                expected = check.as_record().get("expected")
                found = check.as_record().get("found")
                print(f"      expected: {expected}")
                print(f"      found:    {found}")
        print(f"suite {report.suite}: {'ok' if report.ok else 'MISMATCH'}")
    return EXIT_OK if report.ok else EXIT_MISMATCH


_DISPATCH = {
    "totient": _cmd_totient,
    "lehmer": _cmd_lehmer,
    "cyclotomic": _cmd_cyclotomic,
    "zsigmondy": _cmd_zsigmondy,
    "partitions": _cmd_partitions,
    "candidates": _cmd_candidates,
    "verify": _cmd_verify,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _DISPATCH[args.command](args)
    except (*RESOURCE_ERRORS, PrecisionAlert) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except LehmerFFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
