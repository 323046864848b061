"""Named verification suites with expected-vs-found reporting.

Each suite recomputes a classification or bound from scratch and diffs
it against the independently constructed expected answer, so a mismatch
is visible as data rather than a bare boolean.  Suites are deterministic
(fixed seeds, sorted merges) and safe to run twice.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod
from typing import NamedTuple

from .cyclo import cyclotomic_eval, primitive_part
from .errors import InvalidInput
from .ffield import FieldSpec, field_from_order
from .fpoly import Poly, enumerate_polys, irreducibles
from .intmath import decimal_str, divisors, euler_phi, is_prime, phi_sieve, sigma_sieve, valuation
from .lehmer_search import c_factor, classify_a_ge_3, verify_prop36
from .totient import _bruteforce_degree, lehmer_set_bruteforce, totient

PROP31_SOLUTIONS = {(3, (1, 1)), (3, (1, 1, 1, 1))}
PROP36_SOLUTIONS = {(2, (1, 1)), (4, (1, 1, 2)), (6, (1, 2, 3))}

DEFAULT_SWEEP_DEGREE = {2: 12, 3: 8}
FALLBACK_SWEEP_DEGREE = 7


class Check(NamedTuple):
    label: str
    ok: bool
    expected: object = None
    found: object = None

    def as_record(self) -> dict:
        rec: dict = {"label": self.label, "ok": self.ok}
        if not self.ok:
            rec["expected"] = _plain(self.expected)
            rec["found"] = _plain(self.found)
        return rec


def _plain(value):
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class SuiteReport:
    def __init__(self, suite: str):
        self.suite = suite
        self.checks: list[Check] = []

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add_diff(self, label: str, expected, found) -> None:
        self.checks.append(Check(label, expected == found, expected, found))

    def as_payload(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "checks": [c.as_record() for c in self.checks],
        }


# ---------------------------------------------------------------------------
# expected classification sets, built from the structural description


def expected_lehmer_monic(spec: FieldSpec) -> set[Poly]:
    """The classified answer for monic reducible hits over F_q."""
    q = spec.q
    if q == 2:
        lin = irreducibles(spec, 1)
        quad = irreducibles(spec, 2)
        cubic = irreducibles(spec, 3)
        out = {lin[0] * lin[1]}
        out.add(lin[0] * lin[1] * quad[0])
        for a in lin:
            for b in quad:
                for c in cubic:
                    out.add(a * b * c)
        return out
    if q == 3:
        lin = irreducibles(spec, 1)
        return {
            lin[i] * lin[j] for i in range(len(lin)) for j in range(i + 1, len(lin))
        }
    return set()


def suite_main_theorem(
    q: int | None = None, max_degree: int | None = None
) -> SuiteReport:
    report = SuiteReport("main-theorem")
    orders = [q] if q is not None else [2, 3, 4, 5]
    for order in orders:
        spec = field_from_order(order)
        bound = max_degree
        if bound is None:
            bound = DEFAULT_SWEEP_DEGREE.get(order, FALLBACK_SWEEP_DEGREE)
        hits = lehmer_set_bruteforce(spec, bound)
        expected = {f for f in expected_lehmer_monic(spec) if f.degree <= bound}
        report.add_diff(
            f"q={order} monic sweep to degree {bound}",
            {str(f) for f in sorted(expected, key=Poly.sort_key)},
            {str(r.f) for r in hits},
        )
        if order == 3:
            expanded = [r.f * u for r in hits for u in spec.units()]
            report.add_diff(
                f"q={order} unit expansion yields {2 * len(expected)} polynomials",
                2 * len(expected),
                len(expanded),
            )
    return report


def suite_prop31(a_max: int = 8, n_max: int = 10) -> SuiteReport:
    report = SuiteReport("prop31")
    found = {(a, part.parts) for a, part in classify_a_ge_3(a_max, n_max)}
    expected = {
        (a, parts)
        for a, parts in PROP31_SOLUTIONS
        if a <= a_max and sum(parts) <= n_max
    }
    report.add_diff(
        f"divisibility classification for a in [3, {a_max}], n <= {n_max}",
        expected,
        found,
    )
    return report


def suite_prop36(n_max: int = 30) -> SuiteReport:
    report = SuiteReport("prop36")
    found = {(n, part.parts) for n, part in verify_prop36(n_max)}
    expected = {(n, parts) for n, parts in PROP36_SOLUTIONS if n <= n_max}
    report.add_diff(
        f"capped-multiplicity classification for base 2, n <= {n_max}", expected, found
    )
    return report


# ---------------------------------------------------------------------------
# cyclotomic lemma suite


def suite_cyclo_lemmas() -> SuiteReport:
    report = SuiteReport("cyclo-lemmas")
    # the checks make 29,155 lookups over 2,634 distinct (n, a) pairs, so
    # the cache evicts nothing and each pair is evaluated once, in this run
    # only; the last check's primitive_part evaluates 54 more values outside
    # the cache
    value = lru_cache(maxsize=4096)(cyclotomic_eval)

    bad = []
    for n in range(1, 201):
        divs = divisors(n)
        bad += [
            (n, a) for a in range(2, 11) if prod(value(d, a) for d in divs) != a**n - 1
        ]
    report.add_diff("product over divisors rebuilds a^n - 1 (n <= 200)", [], bad)

    bad = _check_valuation_lift(value)
    report.add_diff("valuation lift p^v (biconditional and orders)", [], bad)

    bad = _check_divisor_existence(value)
    report.add_diff("p | value solvable iff cofactor divides p - 1", [], bad)

    bad = [
        (p, v, a)
        for p in (2, 3, 5)
        for v in range(0, 4)
        for a in range(1, 21)
        if (value(p**v, a) % p == 0) != ((a - 1) % p == 0)
    ]
    report.add_diff("prime-power index divisibility iff p | a - 1", [], bad)

    bad = _check_value_gcds(value)
    report.add_diff("pairwise value gcds are 1 or a single prime", [], bad)

    bad = [
        (m, a)
        for a in range(2, 11)
        for m in range(1, 101)
        if (abs(value(m, a)) == 1) != ((m, a) == (1, 2))
    ]
    report.add_diff("unit values occur only at (index, base) = (1, 2)", [], bad)

    bad = [
        (n, a)
        for n in range(2, 101)
        for a in range(2, 11)
        if not (
            a ** euler_phi(n) <= 2 * value(n, a)
            and value(n, a) <= 2 * a ** euler_phi(n)
        )
    ]
    report.add_diff("value sits within a factor 2 of a^phi(n)", [], bad)

    bad = []
    for n in range(7, 61):
        m = primitive_part(2, 1, n)
        phi2 = value(n, 2)
        if not (m * n >= phi2 and 2 * phi2 >= 2 ** euler_phi(n)):
            bad.append(n)
    report.add_diff("primitive part >= value/n >= 2^phi(n)/(2n)", [], bad)

    return report


def _check_valuation_lift(value) -> list:
    bad = []
    for p in (2, 3, 5):
        for m in range(1, 31):
            if m % p == 0:
                continue
            for v in range(1, 4):
                idx = m * p**v
                for a in range(2, 11):
                    lifted = value(idx, a) % p == 0
                    base = value(m, a) % p == 0
                    if lifted != base:
                        bad.append((p, m, v, a, "biconditional"))
                        continue
                    if not base:
                        continue
                    if idx > 2:
                        if valuation(p, value(idx, a)) != 1:
                            bad.append((p, m, v, a, "order"))
                    else:  # idx == 2: p = 2, m = v = 1
                        if valuation(2, value(2, a)) != valuation(2, a + 1):
                            bad.append((p, m, v, a, "order-2"))
    return bad


def _check_divisor_existence(value) -> list:
    # Phi_n has integer coefficients, so Phi_n(a) mod p depends only on a mod
    # p, and 1..p holds one a of every class
    bad = []
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 61):
            v = valuation(p, n) if n % p == 0 else 0
            m = n // p**v
            exists = any(value(n, a) % p == 0 for a in range(1, p + 1))
            if exists != ((p - 1) % m == 0):
                bad.append((p, n))
    return bad


def _check_value_gcds(value) -> list:
    bad = []
    for a in range(2, 9):
        for n in range(1, 41):
            for m in range(n + 1, 41):
                g = gcd(value(n, a), value(m, a))
                if g == 1:
                    continue
                if not is_prime(g):
                    bad.append((a, n, m, g, "not prime"))
                    continue
                ratio = m // n if m % n == 0 else 0
                while ratio and ratio % g == 0:
                    ratio //= g
                if ratio != 1:
                    bad.append((a, n, m, g, "index ratio"))
    return bad


# ---------------------------------------------------------------------------
# exact bound suite


# Both bounds hold at every n >= P_5 = 2310, so the suite checks only the
# n below it.  With P_k the k-th primorial and M_k = prod_{i<=k} p_i/(p_i-1),
# an n in [P_k, P_{k+1}) has at most k distinct primes, so for n >= 2
# sigma(n)/n < n/phi(n) <= M_k (Hardy and Wright, Thm 329: sigma*phi < n^2).
# M_5^4 = (77/16)^4 < P_5, and k -> k + 1 multiplies M_k^4 by (p/(p-1))^4
# and P_k by p = p_{k+1} >= 13, where (p - 1)^4 > p^3 since
# (p - 1)^4 / p^3 = (p - 1)(1 - 1/p)^3 grows with p.  So M_k^4 < P_k <= n,
# and sigma(n)/n < n^(1/4), phi(n) > n^(3/4) >= c(n) n^(3/4) as c(n) <= 1.
# P_4 = 210 would not do: M_4^4 = (35/8)^4 > 366.
PRIMORIAL_TAIL = 2310


def suite_bounds(n_max: int = 100_000) -> SuiteReport:
    report = SuiteReport("bounds")
    top = min(n_max, PRIMORIAL_TAIL - 1)
    sig, phi = sigma_sieve(top), phi_sieve(top)
    # both bounds as exact fourth powers, with 1.28 = 32/25
    bad_h = [n for n in range(1, top + 1) if sig[n] ** 4 * 390625 >= 1048576 * n**5]
    bad_phi = []
    for n in range(2, top + 1):
        c = c_factor(n)
        if phi[n] ** 4 * c.denominator**4 <= c.numerator**4 * n**3:
            bad_phi.append(n)
    limit = decimal_str(n_max)
    report.add_diff(
        f"abundancy bound sigma(n)/n < 1.28*n^(1/4) for n <= {limit}", [], bad_h
    )
    report.add_diff(
        f"totient bound phi(n) > c(n)*n^(3/4) for 2 <= n <= {limit}", [], bad_phi
    )
    return report


# ---------------------------------------------------------------------------
# totient oracle suite

ORACLE_RANGES = ((2, 6), (3, 4), (4, 4))


def suite_oracle() -> SuiteReport:
    report = SuiteReport("oracle")
    for q, max_deg in ORACLE_RANGES:
        spec = field_from_order(q)
        bad = []
        checked = 0
        for n in range(1, max_deg + 1):
            for f, count in zip(enumerate_polys(spec, n), _bruteforce_degree(spec, n)):
                checked += 1
                if totient(f) != count:
                    bad.append(str(f))
        report.add_diff(
            f"q={q}: formula equals brute-force count on {checked} monic polys", [], bad
        )
    return report


def run_suite(name: str, workers: int = 1, **options) -> SuiteReport:
    """Run a suite by name.  ``workers`` must be >= 1 and is ignored: every
    suite runs in one process.  An option left out or None takes the
    suite's default; one the suite does not read, or one below 1, raises
    InvalidInput."""
    if name not in SUITES:
        raise InvalidInput(f"unknown suite {name!r}")
    if workers < 1:
        raise InvalidInput("workers must be >= 1")
    suite, reads = SUITES[name]
    unread = [key for key, v in options.items() if v is not None and key not in reads]
    if unread:
        flags = ", ".join("--" + key.replace("_", "-") for key in unread)
        raise InvalidInput(f"suite {name} does not read {flags}")
    opts = {key: options[key] for key in reads if options.get(key) is not None}
    for key, value in opts.items():
        if value < 1:
            raise InvalidInput(f"{key} must be >= 1, got {value}")
    return suite(**opts)


# every suite, with the run_suite options it reads
SUITES = {
    "main-theorem": (suite_main_theorem, ("q", "max_degree")),
    "prop31": (suite_prop31, ("a_max", "n_max")),
    "prop36": (suite_prop36, ("n_max",)),
    "cyclo-lemmas": (suite_cyclo_lemmas, ()),
    "bounds": (suite_bounds, ("n_max",)),
    "oracle": (suite_oracle, ()),
}
SUITE_NAMES = tuple(SUITES)
