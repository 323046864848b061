"""The layer probe: per-layer numbers on seeded samples of the workloads'
inputs.

The probe runs in a fresh interpreter of its own, so every module cache
and field starts empty, and it is the same for every workload: the
traced run of any workload reports every per-layer metric, and a metric
means the same thing whichever workload's traced run printed it.  Each
measurement is a span around calls into one layer's public functions;
micro-operations are timed in batches (one span covering ``calls``
calls), so the span bookkeeping stays out of nanosecond-scale numbers.

Inputs come from the workload generators with the probe's seed: samples
of the swept polynomials, the first op of every bigfield stratum, and the
integer workload's zsigmondy, cyclotomic, partition and candidate inputs.
"""

from __future__ import annotations

import random
import statistics

from tracing import per_call, total
from workloads import (
    SWEEP_RANGES, cyclotomic_value, divisors,
    eval_input, generate, sweep_poly_count, zsigmondy_input,
)

ALL_FIELDS = (2, 3, 4, 5, 256, 257, 4096, 65521)
TABLE_FIELDS = (2, 3, 4, 5)
FALLBACK_FIELDS = (257, 4096, 65521)
ORACLE_RANGES = ((2, 6), (3, 4), (4, 4))
SUITES = ("oracle", "prop31", "prop36", "cyclo-lemmas", "bounds")
REPEATS = 3

# sample sizes: (full, smoke)
_SIZES = {
    "field_pairs": (5000, 200),
    "fallback_pairs": (2000, 50),
    "fallback_inverses": (200, 10),
    "poly_pairs": (25, 2),
    "gcd_pairs": (1000, 50),
    "factor_sample": (400, 20),
    "bruteforce_sample": (200, 10),
    "int_sample": (30, 3),
    "partition_sample": (3000, 100),
    "partitions_n": (26, 12),
    "cli_sample": (20, 3),
}


def run_probe(seed: int, size: str, tr) -> dict[str, float]:
    """Measure every probe metric; returns name -> value."""
    from lehmer_ff import field_from_order

    k = 0 if size == "full" else 1
    n = {key: sizes[k] for key, sizes in _SIZES.items()}
    rng = random.Random(f"probe:{seed}")
    m: dict[str, float] = {}

    with tr.span("ffield.field_make", "ffield", calls=len(ALL_FIELDS)):
        for q in ALL_FIELDS:
            field_from_order(q)
    m["ffield.field_make_ms"] = total(tr.spans, "ffield.field_make") * 1e3

    _probe_ffield(tr, rng, n, m)
    _probe_fpoly_kernels(tr, rng, n, m)
    bigfield = _bigfield_sample(seed, size)
    _probe_bigfield(tr, rng, bigfield, m)
    _probe_sweep(tr, rng, n, size, m)
    _probe_integer(tr, rng, n, size, m)
    _probe_suites(tr, size, m)
    _probe_cli(tr, rng, n, m)
    return m


# -- ffield ---------------------------------------------------------------------


def _probe_ffield(tr, rng, n, m) -> None:
    from lehmer_ff import field_from_order

    def pairs(q, count, nonzero=False):
        spec = field_from_order(q)
        lo = 1 if nonzero else 0
        return [(spec.element(rng.randrange(lo, q)), spec.element(rng.randrange(lo, q)))
                for _ in range(count)]

    table = [p for q in TABLE_FIELDS for p in pairs(q, n["field_pairs"])]
    fallback = [p for q in FALLBACK_FIELDS for p in pairs(q, n["fallback_pairs"])]
    inverses = [x for q in FALLBACK_FIELDS
                for x, _ in pairs(q, n["fallback_inverses"], nonzero=True)]
    for _ in range(REPEATS):
        with tr.span("ffield.mul.table", "ffield", calls=len(table)):
            for x, y in table:
                x * y
        with tr.span("ffield.add.table", "ffield", calls=len(table)):
            for x, y in table:
                x + y
        with tr.span("ffield.mul.fallback", "ffield", calls=len(fallback)):
            for x, y in fallback:
                x * y
        with tr.span("ffield.inv.fallback", "ffield", calls=len(inverses)):
            for x in inverses:
                x.inverse()
    m["ffield.mul_ns.table"] = per_call(tr.spans, "ffield.mul.table") * 1e9
    m["ffield.add_ns.table"] = per_call(tr.spans, "ffield.add.table") * 1e9
    m["ffield.mul_ns.fallback"] = per_call(tr.spans, "ffield.mul.fallback") * 1e9
    m["ffield.inv_ns.fallback"] = per_call(tr.spans, "ffield.inv.fallback") * 1e9


# -- fpoly kernels on the sweep's table fields ------------------------------------


def _random_poly(rng, spec, degree, monic=False):
    from lehmer_ff import Poly

    lead = 1 if monic else rng.randrange(1, spec.q)
    return Poly(spec, [rng.randrange(spec.q) for _ in range(degree)] + [lead])


def _probe_fpoly_kernels(tr, rng, n, m) -> None:
    from lehmer_ff import field_from_order, poly_gcd

    specs = [field_from_order(q) for q in TABLE_FIELDS]
    for d in (8, 16, 32):
        mul_in = [(_random_poly(rng, s, d), _random_poly(rng, s, d))
                  for s in specs for _ in range(n["poly_pairs"])]
        div_in = [(_random_poly(rng, s, 2 * d), _random_poly(rng, s, d, monic=True))
                  for s in specs for _ in range(n["poly_pairs"])]
        for _ in range(REPEATS):
            with tr.span(f"fpoly.mul.d{d}", "fpoly", calls=len(mul_in)):
                for f, g in mul_in:
                    f * g
            with tr.span(f"fpoly.divmod.d{d}", "fpoly", calls=len(div_in)):
                for f, g in div_in:
                    divmod(f, g)
        m[f"fpoly.mul_us.d{d}"] = per_call(tr.spans, f"fpoly.mul.d{d}") * 1e6
        m[f"fpoly.divmod_us.d{d}"] = per_call(tr.spans, f"fpoly.divmod.d{d}") * 1e6

    gcd_in = []
    for _ in range(n["gcd_pairs"]):
        q, top = rng.choice(ORACLE_RANGES)
        spec = field_from_order(q)
        gcd_in.append((_random_poly(rng, spec, rng.randint(1, top), monic=True),
                       _random_poly(rng, spec, rng.randint(0, top - 1))))
    for _ in range(REPEATS):
        with tr.span("fpoly.gcd", "fpoly", calls=len(gcd_in)):
            for f, g in gcd_in:
                poly_gcd(f, g)
    m["fpoly.gcd_us"] = per_call(tr.spans, "fpoly.gcd") * 1e6


# -- bigfield inputs ----------------------------------------------------------------


def _bigfield_sample(seed: int, size: str) -> list[dict]:
    """The first op of every bigfield stratum, in stratum order."""
    firsts: dict[tuple, dict] = {}
    for op in generate("bigfield", seed, size):
        firsts.setdefault((op["q"], len(op["cv"]) - 1, op["shape"]), op)
    return [firsts[key] for key in sorted(firsts)]


def _probe_bigfield(tr, rng, sample, m) -> None:
    from lehmer_ff import (
        Poly, factor, field_from_order, irreducibles, is_irreducible, poly_gcd,
        poly_powmod, totient,
    )

    # the first irreducibles(spec, 2) per field builds the degree-2 sieve
    entries = 0
    for q in sorted({op["q"] for op in sample if len(op["cv"]) - 1 >= 4}):
        with tr.span("fpoly.sieve_build", "fpoly"):
            entries += len(irreducibles(field_from_order(q), 2))
    m["fpoly.sieve_build_ms"] = total(tr.spans, "fpoly.sieve_build") * 1e3
    m["fpoly.sieve_entries"] = entries

    for op in sample:
        spec = field_from_order(op["q"])
        f = Poly(spec, op["cv"])
        with tr.span("fpoly.factor_big", "fpoly"):
            factor(f)
        with tr.span("fpoly.is_irreducible", "fpoly"):
            is_irreducible(f)
        with tr.span("totient.totient", "totient"):
            phi = totient(f)
        one = Poly.one(spec)
        g = _random_poly(rng, spec, len(f.cv) - 2)
        while poly_gcd(f, g) != one:
            g = _random_poly(rng, spec, len(f.cv) - 2)
        with tr.span("fpoly.powmod", "fpoly"):
            poly_powmod(g, phi, f)
    m["fpoly.factor_ms"] = per_call(tr.spans, "fpoly.factor_big") * 1e3
    m["fpoly.is_irreducible_ms"] = per_call(tr.spans, "fpoly.is_irreducible") * 1e3
    m["totient.totient_ms"] = per_call(tr.spans, "totient.totient") * 1e3
    m["fpoly.powmod_ms"] = per_call(tr.spans, "fpoly.powmod") * 1e3


# -- sweep ---------------------------------------------------------------------------


def _probe_sweep(tr, rng, n, size, m) -> None:
    from lehmer_ff import (
        Poly, enumerate_polys, factor, field_from_order, lehmer_set,
        totient_bruteforce,
    )

    ranges = SWEEP_RANGES[size]
    count = 0
    with tr.span("fpoly.enumerate_polys", "fpoly"):
        for q, top in ranges:
            spec = field_from_order(q)
            for d in range(1, top + 1):
                for _ in enumerate_polys(spec, d):
                    count += 1
    m["fpoly.enumerate_per_s"] = count / total(tr.spans, "fpoly.enumerate_polys")

    # a uniform sample of the swept polynomials
    sample = []
    for _ in range(n["factor_sample"]):
        index = rng.randrange(sweep_poly_count(size))
        for q, top in ranges:
            if index < q * (q**top - 1) // (q - 1):
                break
            index -= q * (q**top - 1) // (q - 1)
        spec = field_from_order(q)
        d = 1
        while index >= q**d:
            index -= q**d
            d += 1
        cv = [(index // q**i) % q for i in range(d)] + [1]
        sample.append(Poly(spec, cv))
    with tr.span("fpoly.factor_sweep", "fpoly", calls=len(sample)):
        for f in sample:
            factor(f)
    m["fpoly.factor_us"] = per_call(tr.spans, "fpoly.factor_sweep") * 1e6
    m["fpoly.factor_calls"] = len(sample)

    hits = 0
    for q, top in ranges:
        with tr.span(f"totient.lehmer_set.q{q}", "totient"):
            hits += len(lehmer_set(field_from_order(q), top, workers=1))
        m[f"totient.lehmer_set_s.q{q}"] = total(tr.spans, f"totient.lehmer_set.q{q}")
    m["totient.hits"] = hits
    m["totient.lehmer_polys_per_s"] = sweep_poly_count(size) / sum(
        m[f"totient.lehmer_set_s.q{q}"] for q, _ in ranges)

    brute = []
    for _ in range(n["bruteforce_sample"]):
        q, top = rng.choice(ORACLE_RANGES)
        brute.append(_random_poly(rng, field_from_order(q), rng.randint(1, top),
                                  monic=True))
    with tr.span("totient.totient_bruteforce", "totient", calls=len(brute)):
        for f in brute:
            totient_bruteforce(f)
    m["totient.bruteforce_us"] = per_call(tr.spans, "totient.totient_bruteforce") * 1e6


# -- integer ---------------------------------------------------------------------------


def _probe_integer(tr, rng, n, size, m) -> None:
    from lehmer_ff import (
        candidate_degrees, cyclotomic, cyclotomic_eval, exponent_map,
        mersenne_divisibility, partitions_of, primitive_part, zsigmondy,
    )
    from lehmer_ff.intmath import factorize, phi_sieve, sigma_sieve
    from lehmer_ff.lehmer_search import Partition

    count = n["int_sample"]
    evals = [(n_, eval_input(rng, n_)) for n_ in
             (rng.randint(2, 1000) for _ in range(count))]
    for na in evals:
        with tr.span("cyclo.cyclotomic_eval.cold", "cyclo"):
            cyclotomic_eval(*na)
        with tr.span("cyclo.cyclotomic_eval.warm", "cyclo"):
            cyclotomic_eval(*na)
    m["cyclo.cyclotomic_eval_us.cold"] = per_call(tr.spans, "cyclo.cyclotomic_eval.cold") * 1e6
    m["cyclo.cyclotomic_eval_us.warm"] = per_call(tr.spans, "cyclo.cyclotomic_eval.warm") * 1e6

    for n_ in [rng.randint(2, 1000) for _ in range(count)]:
        a = eval_input(rng, n_)
        with tr.span("cyclo.primitive_part", "cyclo"):
            primitive_part(a, 1, n_)
    m["cyclo.primitive_part_us"] = per_call(tr.spans, "cyclo.primitive_part") * 1e6

    for _ in range(count):
        index = rng.randint(2, 2000)
        with tr.span("cyclo.cyclotomic", "cyclo"):
            cyclotomic(index)
    m["cyclo.cyclotomic_ms"] = per_call(tr.spans, "cyclo.cyclotomic") * 1e3

    zs = [zsigmondy_input(rng) for _ in range(count)]
    for a, n_ in zs:
        with tr.span("cyclo.zsigmondy", "cyclo"):
            zsigmondy(a, 1, n_)
    m["cyclo.zsigmondy_ms"] = per_call(tr.spans, "cyclo.zsigmondy") * 1e3
    pieces = [cyclotomic_value(d, a) for a, n_ in zs for d in divisors(n_)]
    for _ in range(REPEATS):
        with tr.span("intmath.factorize", "intmath", calls=len(pieces)):
            for piece in pieces:
                factorize(piece)
    m["intmath.factorize_us"] = per_call(tr.spans, "intmath.factorize") * 1e6

    limit = 100_000 if size == "full" else 10_000
    with tr.span("intmath.sieves", "intmath"):
        sigma_sieve(limit)
        phi_sieve(limit)
    m["intmath.sieve_ms"] = total(tr.spans, "intmath.sieves") * 1e3

    produced = 0
    with tr.span("lehmer_search.partitions_of", "lehmer_search"):
        for n_ in range(2, n["partitions_n"] + 1):
            for _ in partitions_of(n_):
                produced += 1
    m["lehmer_search.partitions_per_s"] = produced / total(
        tr.spans, "lehmer_search.partitions_of")

    pool = [Partition(p) for n_ in range(2, 31) for p in partitions_of(n_)]
    chosen = [(rng.randint(2, 9), rng.choice(pool)) for _ in range(n["partition_sample"])]
    for _ in range(REPEATS):
        with tr.span("lehmer_search.mersenne_divisibility", "lehmer_search",
                     calls=len(chosen)):
            for a, part in chosen:
                mersenne_divisibility(a, part)
        with tr.span("lehmer_search.exponent_map", "lehmer_search", calls=len(chosen)):
            for _, part in chosen:
                exponent_map(part.n, part)
    m["lehmer_search.mersenne_divisibility_us"] = per_call(
        tr.spans, "lehmer_search.mersenne_divisibility") * 1e6
    m["lehmer_search.exponent_map_us"] = per_call(
        tr.spans, "lehmer_search.exponent_map") * 1e6

    for _ in range(count // 3 or 1):
        with tr.span("lehmer_search.candidate_degrees", "lehmer_search"):
            candidate_degrees(rng.randint(7, 200))
    m["lehmer_search.candidate_degrees_ms"] = per_call(
        tr.spans, "lehmer_search.candidate_degrees") * 1e3


# -- suites and the CLI -------------------------------------------------------------------


def _probe_suites(tr, size, m) -> None:
    from lehmer_ff.suites import run_suite

    # smaller arguments for the smoke size; the oracle suite takes none
    small = {"prop36": {"n_max": 12}, "bounds": {"n_max": 2000}}
    for suite in SUITES:
        kwargs = small.get(suite, {}) if size == "smoke" else {}
        with tr.span(f"suites.{suite}", "suites"):
            run_suite(suite, workers=1, **kwargs)
        m[f"suites.{suite.replace('-', '_')}_s"] = total(tr.spans, f"suites.{suite}")


def _probe_cli(tr, rng, n, m) -> None:
    """cli.run on an op minus the direct public call on the same input,
    over fast totient queries and candidate searches (neither touches a
    module cache, so the order of the two calls does not matter)."""
    from lehmer_ff import candidate_degrees, field_from_order, parse_poly, totient_report
    from session import call_cli

    spec = field_from_order(257)
    cases = []
    for _ in range(n["cli_sample"]):
        text = str(_random_poly(rng, spec, rng.randint(2, 3), monic=True))
        cases.append((["totient", text, "--q", "257", "--format", "json"],
                      lambda t=text: totient_report(parse_poly(spec, t))))
        n_max = rng.randint(7, 60)
        cases.append((["candidates", "--n-max", str(n_max), "--format", "json"],
                      lambda k=n_max: candidate_degrees(k)))
    diffs = []
    for i, (argv, direct) in enumerate(cases):
        with tr.span("cli.run", "cli", op=i):
            call_cli(argv)
        with tr.span("cli.direct", "bench", op=i):
            direct()
        via_cli, called = tr.spans[-2], tr.spans[-1]
        diffs.append((via_cli["end"] - via_cli["start"]) - (called["end"] - called["start"]))
    m["cli.overhead_ms"] = statistics.median(diffs) * 1e3
