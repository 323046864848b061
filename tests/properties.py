"""Property checks and reference helpers that only the tests use.

The package holds what the CLI, the suites and the named oracles run;
these checks and references test it from outside.  Each ``*_violations``
function returns a list of readable failures, empty when the property
holds.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import ceil, floor, gcd, prod

from lehmer_ff import (
    FieldSpec,
    InvalidInput,
    Partition,
    Poly,
    cyclotomic_eval,
    enumerate_polys,
    exponent_map,
    mersenne_divisibility,
    partitions_of,
    poly_gcd,
    poly_powmod,
    totient,
    totient_report,
)
from lehmer_ff.cyclo import (
    EXCEPTION_N6,
    EXCEPTION_POWER_OF_TWO_SUM,
    IntPoly,
    ZsigmondyResult,
    _value,
)
from lehmer_ff.fpoly import _decode_cv
from lehmer_ff.intmath import divisors, euler_phi, factorize, sigma
from lehmer_ff.lehmer_search import (
    _atanh_enclosure,
    _log_enclosure,
    _quartic_root_floor,
    c_factor,
)

# ---------------------------------------------------------------------------
# reference helpers


def all_polys(spec: FieldSpec, n: int):
    """Every polynomial of exact degree n, monic or not, in encoding order."""
    q = spec.q
    lo = q**n
    for code in range(lo, q * lo):
        yield Poly._raw(spec, _decode_cv(q, code))


def int_poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """Schoolbook product of two integer polynomials."""
    if not a.coeffs or not b.coeffs:
        return IntPoly(())
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j, bj in enumerate(b.coeffs):
                out[i + j] += ai * bj
    return IntPoly(tuple(out))


def positive_divisors(emap) -> set[int]:
    """Divisors d > 1 appearing with exponent +1 (the numerator set)."""
    return {d for d, e in emap.items() if d > 1 and e > 0}


def denominator_multiset(emap) -> dict[int, int]:
    """d >= 2 with negative exponent, mapped to its multiplicity."""
    return {d: -e for d, e in emap.items() if d >= 2 and e < 0}


def exponent_map_value(emap, a: int) -> Fraction:
    """Exact rational value of the exponent map's quotient at x = a."""
    out = Fraction(1)
    for d, e in sorted(emap.items()):
        if e:
            out *= Fraction(cyclotomic_eval(d, a)) ** e
    return out


def exponent_map_two_pass(n: int, part: Partition) -> dict[int, int]:
    """Reference for ``exponent_map``: collect every d dividing n or a
    part, then sum, for each d in ascending order, [d | n] minus the uses
    of the parts that d divides."""
    uses = Counter(part.parts)
    relevant: set[int] = set(divisors(n))
    for e in uses:
        relevant.update(divisors(e))
    return {
        d: (1 if n % d == 0 else 0) - sum(u for e, u in uses.items() if e % d == 0)
        for d in sorted(relevant)
    }


def abundancy(n: int) -> Fraction:
    """sigma(n)/n in lowest terms."""
    if n < 1:
        raise InvalidInput("abundancy needs n >= 1")
    return Fraction(sigma(n), n)


def prop36_partition_allowed(part: Partition) -> bool:
    """Multiplicity caps: at most two 1-parts, and at most (2^d - 1)/d
    copies of any part d >= 2."""
    counts: dict[int, int] = {}
    for e in part.parts:
        counts[e] = counts.get(e, 0) + 1
    for d, u in counts.items():
        if d == 1:
            if u > 2:
                return False
        elif u * d > 2**d - 1:
            return False
    return True


def first_dividing_index(a: int, b: int, p: int, n: int) -> int:
    """Smallest k with p | a^k - b^k for a prime p of a^n - b^n: as p
    divides neither a nor b, the order of a/b mod p, a divisor of n."""
    r = a * pow(b, -1, p) % p
    for d in divisors(n):
        if pow(r, d, p) == 1:
            return d
    raise AssertionError(f"{p} does not divide {a}^{n} - {b}^{n}")


def zsigmondy_by_orders(a: int, b: int, n: int) -> ZsigmondyResult:
    """Oracle for ``zsigmondy``: factor every piece Phi_d(a, b), d | n, of
    a^n - b^n and keep each prime whose order of a/b is n itself."""
    exponents: dict[int, int] = {}
    for d in divisors(n):
        for p, e in factorize(_value(d, a, b)).items():
            exponents[p] = exponents.get(p, 0) + e
    primitive = [p for p in sorted(exponents) if first_dividing_index(a, b, p, n) == n]
    exception = None
    if not primitive:
        exception = EXCEPTION_N6 if n == 6 else EXCEPTION_POWER_OF_TWO_SUM
    return ZsigmondyResult(
        a=a,
        b=b,
        n=n,
        primitive_primes=tuple(primitive),
        exception=exception,
        primitive_part=prod(p ** exponents[p] for p in primitive),
    )


def margins_by_fractions(n_max: int, bits: int):
    """Reference for ``lehmer_search._margins``: the same enclosures, with
    every rational kept as a ``Fraction`` and rounded outward by floor
    and ceil."""
    log2 = tuple(2 * v for v in _atanh_enclosure(1, 3, bits))
    log43 = tuple(2 * v for v in _atanh_enclosure(1, 7, bits))
    for n in range(7, n_max + 1):
        delta = 1 - n % 2
        log2n = _log_enclosure(2 * n, bits, log2)
        logs = [2 * log2[i] + delta * log43[i] + log2n[i] for i in (0, 1)]
        rational = Fraction(-(2 * n + delta * n + 2) << bits, 2 * n)
        root = _quartic_root_floor(n, bits)
        root3 = _quartic_root_floor(n**3, bits)
        c = c_factor(n)
        den = c.denominator << bits
        power_lo = Fraction(c.numerator * log2[0] * root3, den)
        power_hi = Fraction(c.numerator * log2[1] * (root3 + 1), den)
        coarse = (
            logs[0] + floor(rational + Fraction(32 * root, 25)) - ceil(power_hi),
            logs[1] + ceil(rational + Fraction(32 * (root + 1), 25)) - floor(power_lo),
        )
        rational += Fraction(sigma(n) << bits, n)
        phi = euler_phi(n)
        refined = (
            logs[0] + floor(rational) - phi * log2[1],
            logs[1] + ceil(rational) - phi * log2[0],
        )
        yield n, coarse, refined


# ---------------------------------------------------------------------------
# property checks


def euler_theorem_violations(
    spec: FieldSpec, trials: int = 100, seed: int = 20260810
) -> list[str]:
    """Random coprime pairs (f, g): g^phi(f) must be 1 mod f."""
    rng = random.Random(seed * 1009 + spec.q)
    one = Poly.one(spec)
    bad = []
    done = 0
    while done < trials:
        f = _random_poly(rng, spec, rng.randint(1, 5))
        g = _random_poly(rng, spec, rng.randint(0, 6))
        if g.is_zero() or poly_gcd(f, g) != one:
            continue
        done += 1
        if poly_powmod(g, totient(f), f) != one:
            bad.append(f"f={f}, g={g}")
    return bad


def _random_poly(rng: random.Random, spec: FieldSpec, degree: int) -> Poly:
    cv = [rng.randrange(spec.q) for _ in range(degree)]
    cv.append(rng.randrange(1, spec.q))
    return Poly(spec, cv)


def exponent_map_violations(n_max: int = 20, bases=(2, 3, 4)) -> list[str]:
    """Exact rational quotient must match the cyclotomic exponent product,
    and integrality must match the divisibility oracle."""
    bad = []
    for n in range(2, n_max + 1):
        for parts in partitions_of(n):
            part = Partition(parts)
            emap = exponent_map(n, part)
            for a in bases:
                denom = 1
                for e in parts:
                    denom *= a**e - 1
                direct = Fraction(a**n - 1, denom)
                if exponent_map_value(emap, a) != direct:
                    bad.append(f"value mismatch n={n} parts={parts} a={a}")
                if (direct.denominator == 1) != mersenne_divisibility(a, part):
                    bad.append(f"integrality mismatch n={n} parts={parts} a={a}")
    return bad


def divisibility_structure_violations(n_max: int = 24) -> list[str]:
    """For base 2, every partition passing the oracle must have all parts
    dividing n and overall gcd 1."""
    bad = []
    for n in range(2, n_max + 1):
        for parts in partitions_of(n):
            part = Partition(parts)
            if not mersenne_divisibility(2, part):
                continue
            if any(n % e for e in parts):
                bad.append(f"n={n} parts={parts}: part does not divide n")
            if gcd(*parts) != 1:
                bad.append(f"n={n} parts={parts}: gcd != 1")
    return bad


def unit_invariance_violations(spec: FieldSpec, max_degree: int = 3) -> list[str]:
    """Every unit multiple of a monic f has the phi and the Lehmer
    membership of f."""
    bad = []
    for n in range(1, max_degree + 1):
        for f in enumerate_polys(spec, n):
            report = totient_report(f)
            in_l = report.divides and report.reducible
            for u in spec.units():
                g = f * u
                report_u = totient_report(g)
                in_l_u = report_u.divides and report_u.reducible
                if in_l_u != in_l or report_u.phi != report.phi:
                    bad.append(f"{f} vs unit multiple {g}")
    return bad


# ---------------------------------------------------------------------------
# F_2[x] on int codes (bit i is the coefficient of x^i), with no kernel of
# the package: an oracle that needs no factoring and reaches degree 1000s.
# tests/test_imports.py checks that the f2_* functions read no package name.


def f2_code(f) -> int:
    """The code of a polynomial over F_2, read off its coefficient tuple."""
    return sum(c << i for i, c in enumerate(f.cv))


def f2_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


def f2_rem(a: int, f: int) -> int:
    while a.bit_length() >= f.bit_length():
        a ^= f << (a.bit_length() - f.bit_length())
    return a


def f2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, f2_rem(a, b)
    return a


def f2_derivative(a: int) -> int:
    """Over F_2 the derivative keeps the odd powers, each one degree lower."""
    return sum(1 << (i - 1) for i in range(1, a.bit_length(), 2) if a >> i & 1)


def f2_rank_count(f: int) -> int:
    """Berlekamp's count: the number of distinct irreducible factors of f,
    deg f >= 1, is deg f - rank(Q - I), where row i of Q is x^(2i) mod f.

    The g mod f with g^2 = g mod f form an F_2-space of dimension that
    count, for every f, repeated factors included.  The rows are reduced
    into an xor basis keyed by leading bit."""
    n = f.bit_length() - 1
    basis = {}
    row = 1
    for i in range(n):
        v = row ^ 1 << i
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
        row = f2_rem(row << 2, f)
    return n - len(basis)


def f2_factorization_violations(f: int, factors: list[tuple[int, int]]) -> list[str]:
    """Why ``factors``, pairs (code, multiplicity), is not the factorization
    of the code f into distinct irreducibles; empty when it is.  The
    factors must multiply back to f and be distinct, each must have one
    distinct irreducible factor (rank count 1) and be squarefree (gcd with
    its derivative 1, so a zero derivative fails): together that makes it
    irreducible."""
    bad = []
    product = 1
    for g, m in factors:
        for _ in range(m):
            product = f2_mul(product, g)
    if product != f:
        bad.append("the factors do not multiply back to f")
    if len({g for g, _ in factors}) < len(factors):
        bad.append("a factor is listed twice")
    for g, m in factors:
        if g < 2 or m < 1:
            bad.append(f"{g:b}^{m}: not a nonconstant factor")
        elif f2_rank_count(g) != 1:
            bad.append(f"{g:b}: more than one distinct irreducible factor")
        elif f2_gcd(g, f2_derivative(g)) != 1:
            bad.append(f"{g:b}: not squarefree")
    return bad
