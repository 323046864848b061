"""Command-line front end.

Subcommands: totient, lehmer, cyclotomic, zsigmondy, partitions,
candidates, verify.  Output formats: text (an aligned table for row
results, fixed lines otherwise), json (with a top-level "schema": 1
field), csv (with a header row).  ``_emit`` prints every result;
diagnostics go to stderr.

Exit codes: 0 success/verified, 1 verification mismatch or failed internal
cross-check, 2 usage error, 3 resource limit (oracle cap, factoring budget
or size cap exceeded).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cyclo import DEFAULT_FACTORING_BUDGET, cyclotomic, cyclotomic_eval, zsigmondy
from .errors import (
    InvalidInput, LehmerFFError, RESOURCE_ERRORS, SizeCapExceeded, VerificationError
)
from .ffield import FieldSpec, field_from_order, field_make
from .fpoly import parse_poly
from .intmath import decimal_str
from .lehmer_search import (
    Partition,
    candidate_degrees,
    exponent_map,
    lehmer_partitions,
    partitions_of,
)
from .suites import SUITE_NAMES, run_suite
from .totient import lehmer_set, totient_report

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

FORMATS = ("text", "json", "csv")
# `partitions --all` holds every row before printing: 1.5 s and 65 MB at 30
PARTITIONS_ALL_N_MAX_CAP = 30


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


def _emit(
    fmt: str, payload: dict, rows: list[dict], columns: list[str], text=None
) -> None:
    """Print one result, the only output to stdout: ``payload`` as JSON,
    ``rows`` as CSV under a header of ``columns``, or as text the lines
    of ``text`` if given, else ``rows`` as an aligned table."""
    if fmt == "json":
        json.dump({"schema": 1, **payload}, sys.stdout, indent=2, ensure_ascii=False)
        sys.stdout.write("\n")
    elif fmt == "text" and text is not None:
        print("\n".join(text))
    else:
        table = [columns] + [[_cell(row.get(c)) for c in columns] for row in rows]
        if fmt == "csv":
            import csv

            csv.writer(sys.stdout, lineterminator="\n").writerows(table)
        else:
            widths = [max(len(str(cell)) for cell in col) for col in zip(*table)]
            for line in table:
                print("  ".join(str(cell).ljust(w) for cell, w in zip(line, widths)))


def _cell(value):
    """A CSV or table cell: a dict as sorted JSON, a list joined by ';'."""
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
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
    record = totient_report(parse_poly(spec, args.poly)).as_record()
    _emit(args.format, record, [record], REPORT_COLUMNS)
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
    _emit(args.format, {"rows": records}, records, REPORT_COLUMNS)
    return EXIT_OK


def _cmd_cyclotomic(args) -> int:
    poly = cyclotomic(args.n)
    text = str(poly)
    payload = {"n": args.n, "degree": poly.degree, "poly": text}
    line = f"Phi_{args.n} = {text}"
    if args.eval_at is not None:
        payload["eval_at"] = args.eval_at
        payload["value"] = decimal_str(cyclotomic_eval(args.n, args.eval_at))
        line += f"; value at {args.eval_at}: {payload['value']}"
    _emit(args.format, payload, [payload], list(payload), [line])
    return EXIT_OK


def _cmd_zsigmondy(args) -> int:
    result = zsigmondy(args.a, args.b, args.n, factoring_budget=args.factoring_budget)
    line = f"{args.a}^{args.n} - {args.b}^{args.n}: "
    if result.exception:
        line += f"no primitive prime divisor (exception {result.exception})"
    else:
        primes = ", ".join(str(p) for p in result.primitive_primes)
        line += f"primitive primes {{{primes}}}, primitive part {result.primitive_part}"
    record = result.as_record()
    _emit(args.format, record, [record], list(record), [line])
    return EXIT_OK


def _cmd_partitions(args) -> int:
    if args.a < 2:
        raise InvalidInput("--a must be >= 2")
    if args.n_max < 2:
        raise InvalidInput("--n-max must be >= 2")
    if args.all and args.n_max > PARTITIONS_ALL_N_MAX_CAP:
        raise SizeCapExceeded(
            f"partitions --all n_max {args.n_max} exceeds the cap {PARTITIONS_ALL_N_MAX_CAP}"
        )
    records = []
    for n in range(2, args.n_max + 1):
        if args.all:
            passing = set(lehmer_partitions(args.a, n))
            rows = [(part, part in passing) for part in map(Partition, partitions_of(n))]
        else:
            rows = [(part, True) for part in lehmer_partitions(args.a, n)]
        for part, divides in rows:
            exponents = exponent_map(n, part)
            records.append(
                {
                    "a": args.a,
                    "n": n,
                    "parts": list(part.parts),
                    "divides": divides,
                    "exponent_map": {str(d): e for d, e in exponents.items()},
                }
            )
    columns = ["a", "n", "parts", "divides", "exponent_map"]
    _emit(args.format, {"rows": records}, records, columns)
    return EXIT_OK


def _cmd_candidates(args) -> int:
    coarse, refined = map(sorted, candidate_degrees(args.n_max))
    rows = [{"set": "coarse", "n": n} for n in coarse]
    rows += [{"set": "refined", "n": n} for n in refined]
    text = [
        "coarse:  " + ", ".join(map(str, coarse)),
        "refined: " + ", ".join(map(str, refined)),
    ]
    payload = {"n_max": args.n_max, "coarse": coarse, "refined": refined}
    _emit(args.format, payload, rows, ["set", "n"], text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    options = {key: getattr(args, key) for key in ("q", "max_degree", "n_max", "a_max")}
    report = run_suite(args.suite, workers=args.workers, **options)
    payload = report.as_payload()
    rows, text = [], []
    for record in payload["checks"]:
        text.append(f"{'PASS' if record['ok'] else 'FAIL'}  {record['label']}")
        if not record["ok"]:
            text.append(f"      expected: {record['expected']}")
            text.append(f"      found:    {record['found']}")
            record = {
                **record,
                "expected": json.dumps(record["expected"], sort_keys=True),
                "found": json.dumps(record["found"], sort_keys=True),
            }
        rows.append(record)
    text.append(f"suite {report.suite}: {'ok' if report.ok else 'MISMATCH'}")
    _emit(args.format, payload, rows, ["label", "ok", "expected", "found"], text)
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
    except RESOURCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except LehmerFFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> int:
    # a closed stdout (``lehmer-ff ... | head``) ends the process by SIGPIPE,
    # as it does other filters, rather than by a BrokenPipeError traceback
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
