"""Seeded input generation for the benchmark workloads.

A workload is one fixed list of CLI invocations ("ops") built only from
the seed: the same seed gives the same list, and the package sees
nothing but the generated argument vectors.  Every op carries the data
its output check needs next to its ``argv``.

``size="smoke"`` builds a few ops of every kind for the benchmark's own
tests; the measured runs always use ``size="full"``.

The generator chooses inputs by *stratum*: a fixed number of ops per
(field, degree, root structure) or per cost class, with the concrete
values drawn at random inside each stratum.  Which inputs a seed draws
then changes, but the mix of cheap and expensive ops does not, so the
latency percentiles of two seeds are comparable.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep", "bigfield", "integer")

# ---------------------------------------------------------------------------
# sweep: the paper's exhaustive check.  Every monic polynomial over F_2 to
# degree 12, F_3 to 8, F_4 to 7 and F_5 to 6 is classified (59,404 of
# them), then the totient formula is cross-checked against the brute-force
# gcd count.  The work is table-path field arithmetic, division, the root
# scan and the gcd loop; there is no fallback arithmetic, no large sieve
# and no integer-side work.  ROADMAP items 1 (table-row kernels) and 2
# (structured sweep) should move this workload.

SWEEP_RANGES = {"full": ((2, 12), (3, 8), (4, 7), (5, 6)),
                "smoke": ((2, 6), (3, 4), (4, 3), (5, 3))}

# ---------------------------------------------------------------------------
# bigfield: single-polynomial totient queries at large q, where the work
# is fallback field arithmetic, the O(q) root scan, and building and
# trial-dividing by the degree-2 irreducible sieve.  ROADMAP item 3
# (Rabin's test with Cantor-Zassenhaus splitting) should move this
# workload and leave `sweep` unchanged.  Building the F_256 tables lands in
# set-up.
#
# KNOWN DEFECT (ROADMAP item 3), disclosed here and in BENCHMARK.json
# rather than tuned away: the package factors by trial division against a
# sieve of every monic irreducible of degree <= n/2, and the degree-2 sieve
# allocates a q^2-byte bytearray (4 GiB at q = 65521).  It cannot finish a
# query of degree >= 4 for q > 1031 in bounded memory, and a query over
# F_{2^16} takes about 6 s even at degree 2.  So degrees stop at the limits
# below and F_{2^16} is left out; a later benchmark-only change raises them
# once item 3 makes that range reachable.
BIGFIELD_DEGREE_LIMIT = {256: 5, 257: 4, 4096: 3, 65521: 3}

# (q, degree, shape, ops per session).  shape: "any" is a uniform monic
# polynomial, "rooted" a uniform one times a linear factor, "irreducible"
# a uniform monic irreducible.  The shapes fix each op's cost class:
# rooted and low-degree ops are cheap (a few ms, most of it argument
# parsing); irreducibles pay the full O(q) root scan and, from degree 4
# on, a full pass over the degree-2 sieve, so their cost does not depend
# on the draw.  The counts put the median inside the cheap ops and the
# 90th percentile inside the ten q = 65521 quadratics, with the eight
# dearer ops above them.  The first irreducible of degree >= 4 over F_256
# and over F_257 builds that field's degree-2 sieve.
BIGFIELD_STRATA = {
    "full": (
        (256, 3, "any", 22),
        (256, 4, "rooted", 22),
        (257, 2, "any", 21),
        (257, 3, "any", 21),
        (257, 4, "rooted", 21),
        (65521, 2, "irreducible", 10),
        (65521, 3, "irreducible", 2),
        (4096, 2, "irreducible", 2),
        (4096, 3, "irreducible", 1),
        (256, 4, "irreducible", 1),
        (256, 5, "irreducible", 1),
        (257, 4, "irreducible", 1),
    ),
    "smoke": (
        (256, 4, "rooted", 1),
        (257, 3, "any", 1),
        (257, 3, "irreducible", 1),
        (4096, 2, "any", 1),
        (65521, 2, "irreducible", 1),
    ),
}

# ---------------------------------------------------------------------------
# integer: the integer side of the classification -- primitive prime
# divisors, cyclotomic polynomials and values, partition divisibility,
# the candidate-degree bound comparison, and four verify suites.  It does
# no F_q[x] work at all, so the prediction for every F_q[x] change is "no
# change" here.  `cyclo-lemmas` mostly hits the cyclotomic value memo
# while fresh primitive-part values miss it, so bounding the caches
# (ROADMAP item 5) shows its cost here.
#
# Limits on the integer inputs, each forced by the seed rather than chosen
# for speed:
# - zsigmondy: a^n <= 2^64 (the default factoring budget), and every
#   cyclotomic piece Phi_d(a) of a^n - 1 stays <= 2^44.  The package
#   factors pieces by trial division, so a piece with two ~32-bit prime
#   factors inside the budget would take hours; at 2^44 the worst case is
#   about 0.5 s.
# - cyclotomic --eval: the value Phi_n(a) stays under 4,000 decimal digits.
#   The CLI prints it with str(), which raises a bare ValueError past
#   Python's 4,300-digit conversion limit instead of a package error.
ZSIGMONDY_BUDGET = 1 << 64
ZSIGMONDY_PIECE_LIMIT = 1 << 44
EVAL_DIGIT_LIMIT = 4000
INTEGER_SUITES = {"full": ("prop31", "prop36", "cyclo-lemmas", "bounds"),
                  "smoke": ("prop31", "bounds")}

# (kind, range of the size parameter, ops per session); the size is n for
# cyclotomic ops and n_max for partition and candidate searches.  As in
# bigfield the strata fix the cost mix: about 70 cheap ops (a few ms,
# mostly argument parsing) hold the median, the ten partition searches to
# n_max = 24 hold the 90th percentile, and the three searches to n_max = 28
# and three of the suites lie above them.  Partition searches draw the base
# from 3..9: base 2 passes far more partitions and costs about four times
# as much per search, and the prop36 suite already searches base 2.
INTEGER_STRATA = {
    "full": (
        ("zsigmondy", None, 30),
        ("cyclotomic_eval", (2, 100), 12),
        ("cyclotomic", (2, 100), 8),
        ("candidates", (7, 30), 8),
        ("partitions", (6, 10), 12),
        ("cyclotomic_eval", (101, 1000), 20),
        ("cyclotomic", (101, 2000), 7),
        ("candidates", (31, 200), 3),
        ("partitions", (24, 24), 10),
        ("partitions", (28, 28), 3),
    ),
    "smoke": (
        ("zsigmondy", None, 2),
        ("cyclotomic_eval", (2, 300), 2),
        ("cyclotomic", (2, 300), 1),
        ("candidates", (7, 40), 1),
        ("partitions", (6, 10), 2),
    ),
}
PARTITION_BASES = (3, 9)


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The op list of one session of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep":
        ops = _sweep_ops(size)
    elif workload == "bigfield":
        ops = _bigfield_ops(rng, size)
    elif workload == "integer":
        ops = _integer_ops(rng, size)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def sweep_poly_count(size: str = "full") -> int:
    """Problem size of the sweep: sum of q^n over the swept ranges."""
    return sum(q**n for q, top in SWEEP_RANGES[size] for n in range(1, top + 1))


def _sweep_ops(size: str) -> list[dict]:
    ops = [
        {"kind": "lehmer", "q": q, "max_degree": top,
         "argv": ["lehmer", "--q", str(q), "--max-degree", str(top),
                  "--workers", "1", "--format", "json"]}
        for q, top in SWEEP_RANGES[size]
    ]
    ops.append({"kind": "verify", "suite": "oracle",
                "argv": ["verify", "--suite", "oracle", "--workers", "1",
                         "--format", "json"]})
    return ops


# -- bigfield -----------------------------------------------------------------


def _bigfield_ops(rng: random.Random, size: str) -> list[dict]:
    from lehmer_ff import Poly, field_from_order

    ops = []
    for q, degree, shape, count in BIGFIELD_STRATA[size]:
        if degree > BIGFIELD_DEGREE_LIMIT[q]:
            raise ValueError(f"degree {degree} over F_{q} is past the known limit")
        spec = field_from_order(q)
        for _ in range(count):
            f = _bigfield_poly(rng, spec, degree, shape)
            ops.append({
                "kind": "totient", "q": q, "cv": list(f.cv), "shape": shape,
                "check_seed": rng.randrange(1 << 30),
                "argv": ["totient", str(f), "--q", str(q), "--format", "json"],
            })
    return ops


def _bigfield_poly(rng: random.Random, spec, degree: int, shape: str):
    from lehmer_ff import Poly

    def uniform(d):
        return Poly(spec, [rng.randrange(spec.q) for _ in range(d)] + [1])

    if shape == "any":
        return uniform(degree)
    if shape == "rooted":
        return uniform(degree - 1) * Poly(spec, [rng.randrange(spec.q), 1])
    while True:
        f = uniform(degree)
        if _no_factor_up_to(f, degree // 2):
            return f


def _no_factor_up_to(f, k: int) -> bool:
    """True when f has no irreducible factor of degree <= k: for each
    j <= k, gcd(f, x^(q^j) - x) = 1.  For k = deg(f) // 2 that is
    irreducibility."""
    from lehmer_ff import Poly, poly_gcd, poly_powmod

    x, one = Poly.x(f.spec), Poly.one(f.spec)
    h = x
    for _ in range(k):
        h = poly_powmod(h, f.spec.q, f)
        if poly_gcd(f, h - x) != one:
            return False
    return True


# -- integer ------------------------------------------------------------------


def _integer_ops(rng: random.Random, size: str) -> list[dict]:
    ops = []
    for kind, span, count in INTEGER_STRATA[size]:
        for _ in range(count):
            ops.append(_integer_op(rng, kind, span))
    for suite in INTEGER_SUITES[size]:
        ops.append({"kind": "verify", "suite": suite,
                    "argv": ["verify", "--suite", suite, "--format", "json"]})
    return ops


def _integer_op(rng: random.Random, kind: str, span) -> dict:
    if kind == "zsigmondy":
        a, n = zsigmondy_input(rng)
        return {"kind": kind, "a": a, "n": n,
                "argv": ["zsigmondy", "--a", str(a), "--n", str(n), "--format", "json"]}
    size = rng.randint(*span)
    if kind == "cyclotomic_eval":
        a = eval_input(rng, size)
        return {"kind": "cyclotomic", "n": size, "a": a,
                "argv": ["cyclotomic", "--n", str(size), "--eval", str(a),
                         "--format", "json"]}
    if kind == "cyclotomic":
        return {"kind": kind, "n": size, "a": None,
                "argv": ["cyclotomic", "--n", str(size), "--format", "json"]}
    if kind == "partitions":
        a = rng.randint(*PARTITION_BASES)
        return {"kind": kind, "a": a, "n_max": size,
                "argv": ["partitions", "--a", str(a), "--n-max", str(size),
                         "--format", "json"]}
    return {"kind": kind, "n_max": size,
            "argv": ["candidates", "--n-max", str(size), "--format", "json"]}


def zsigmondy_input(rng: random.Random) -> tuple[int, int]:
    while True:
        n = rng.randint(2, 64)
        a_max = min(10**6, math.floor(ZSIGMONDY_BUDGET ** (1 / n)))
        while a_max**n > ZSIGMONDY_BUDGET:
            a_max -= 1
        if a_max < 2:
            continue
        a = rng.randint(2, a_max)
        if all(cyclotomic_value(d, a) <= ZSIGMONDY_PIECE_LIMIT for d in divisors(n)):
            return a, n


def eval_input(rng: random.Random, n: int) -> int:
    """A base a <= 10^6 for which Phi_n(a) stays under the digit limit."""
    digits = EVAL_DIGIT_LIMIT / euler_phi(n)
    return rng.randint(2, 10**6 if digits >= 6 else math.floor(10**digits))


# ---------------------------------------------------------------------------
# integer arithmetic owned by the benchmark, independent of the package


def factor_small(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factor_small(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    exps = factor_small(n).values()
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


def euler_phi(n: int) -> int:
    out = n
    for p in factor_small(n):
        out = out // p * (p - 1)
    return out


def cyclotomic_value(n: int, a: int) -> int:
    """Phi_n(a) for a >= 2 from the Mobius product of a^d - 1."""
    num = den = 1
    for d in divisors(n):
        mu = mobius(n // d)
        if mu == 1:
            num *= a**d - 1
        elif mu == -1:
            den *= a**d - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Mobius product for Phi_{n}({a}) is not integral")
    return value
