"""Partition-divisibility searches: when does prod(a^{e_i} - 1) divide a^n - 1?

A partition here is a multiset of positive degrees e_1 <= ... <= e_s
(s >= 2) summing to n; it abstracts the shape of a squarefree
factorization.  ``mersenne_divisibility`` is the exact test and
``lehmer_partitions`` the one search, which the F_q[x] sweep, the
classifications and ``partitions`` run: it tests divisibility on every
prefix.  ``partitions_of`` lists every partition and is its oracle.

``exponent_map`` expresses (x^n - 1) / prod(x^{e_i} - 1) as a product of
cyclotomic polynomials Phi_d with integer exponents

    exponent(d) = [d | n] - #{i : d | e_i},

which the ``partitions`` command prints for each row.

``candidate_degrees`` evaluates the logarithmic bound comparison whose
degree sets ``candidates`` reports: the coarse form uses the majorant
1.28 * n^(1/4) of h(n) = sigma(n)/n against
c(n) * log2 * n^(3/4) - log(2n); the refined form uses h(n) itself
against phi(n) * log2 - log(2n).  Only n < ``CANDIDATE_TAIL`` = 59 are
compared, as no larger n enters either set.  Each margin (left minus
right side) is enclosed between two integers at scale 2^B, B a few bits
above ``CANDIDATE_DPS`` decimal digits: logs from floored atanh series
with a bounded remainder, fourth roots from nested integer square roots,
rationals rounded outward.  No floating point decides a comparison; an
enclosure that reaches within 1e-6 of zero raises PrecisionAlert rather
than deciding silently.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import ceil, isqrt
from typing import NamedTuple

from .errors import InvalidInput, PrecisionAlert
from .intmath import divisors, euler_phi, sigma

PRECISION_GAP = Fraction(1, 10**6)
# decimal digits that fix the scale 2^B of every enclosure; each is then
# about 10^-32 wide, far inside PRECISION_GAP, and the sets come out the
# same at 30 and at 50 digits
CANDIDATE_DPS = 35
# bits of 2^B beyond CANDIDATE_DPS digits, so every log and root enclosure
# is narrower than 10^-(CANDIDATE_DPS - 3) for every n below CANDIDATE_TAIL
GUARD_BITS = 8
# No n >= 59 enters either candidate set or comes within PRECISION_GAP of
# 0, so candidate_degrees computes margins only below it.  As
# log(4/3) < 1/2 and c(n) >= 59/100, the coarse margin is at most
#     U(n) = log 8 - 1 - 1/n + (32/25) n^(1/4) - (59/100) log2 n^(3/4) + log n.
# With m = n^(1/4), dU/dm = 32/25 + 4/m + 4/m^5 - (177/100) log2 m^2: its
# positive terms fall and its negative term grows with m, and it is about
# -1.50 at m = 2, so U decreases from n = 16 on.  U(58) ~ +0.060 and
# U(59) ~ -0.018 (50 digits), so the coarse margin is below -0.018 at every
# n >= 59.  The refined margin minus the coarse one is
# (sigma(n)/n - 1.28 n^(1/4)) - log2 (phi(n) - c(n) n^(3/4)), negative for
# every n outside {3, 6, 12, 16, 24, 48} by the two bounds that
# suites.PRIMORIAL_TAIL proves for every n (Hardy and Wright, Thm 329).
# 58 would not do: U(58) > 0.
CANDIDATE_TAIL = 59


class Partition(NamedTuple("Partition", [("parts", tuple[int, ...])])):
    """Nondecreasing positive parts e_1 <= ... <= e_s, s >= 2, summing to n."""

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(parts)
        if len(parts) < 2:
            raise InvalidInput("a partition here needs at least two parts")
        if any(e < 1 for e in parts):
            raise InvalidInput("parts must be positive")
        if any(a > b for a, b in zip(parts, parts[1:])):
            raise InvalidInput("parts must be nondecreasing")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.parts)) + ")"


def partitions_of(n: int):
    """All partitions of n with s >= 2, in colex order (largest part last,
    ascending)."""
    for last in range(1, n):
        for rest in _bounded_partitions(n - last, last):
            yield rest + (last,)


def _bounded_partitions(n: int, bound: int):
    if n == 0:
        yield ()
        return
    for last in range(1, min(n, bound) + 1):
        for rest in _bounded_partitions(n - last, last):
            yield rest + (last,)


def mersenne_divisibility(a: int, part: Partition) -> bool:
    """Exact test of prod(a^{e_i} - 1) | (a^n - 1)."""
    if a < 2:
        raise InvalidInput("base must be >= 2")
    prod = 1
    for e in part.parts:
        prod *= a**e - 1
    return (a ** part.n - 1) % prod == 0


def lehmer_partitions(a: int, n: int, cap=None) -> list[Partition]:
    """The partitions of n passing ``mersenne_divisibility(a, .)``, in
    ``partitions_of`` order.  As gcd(a^e - 1, a^n - 1) = a^gcd(e,n) - 1,
    their parts are proper divisors of n, and only those are tried;
    ``cap(d)``, if given, bounds how often the part d may occur."""
    if a < 2:
        raise InvalidInput("base must be >= 2")
    divs = [d for d in divisors(n) if d < n]
    caps = [n // d if cap is None else cap(d) for d in divs]
    return list(map(Partition, _passing(a, a**n - 1, n, divs, caps)))


def _passing(a: int, quotient: int, n: int, divs: list[int], caps: list[int]):
    """Nondecreasing tuples summing to n, divs[i] (ascending) used at most
    caps[i] times, whose prod(a^{e_i} - 1) divides ``quotient``, in colex
    order: by largest part, then its multiplicity.  Each use of a part d
    divides the quotient by a^d - 1; a divisor's sub-products divide too,
    so a remainder ends the search below that prefix."""
    if n == 0:
        yield ()
        return
    for i, d in enumerate(divs):
        rest_quotient = quotient
        for u in range(1, min(caps[i], n // d) + 1):
            rest_quotient, remainder = divmod(rest_quotient, a**d - 1)
            if remainder:
                break
            for rest in _passing(a, rest_quotient, n - u * d, divs[:i], caps[:i]):
                yield rest + (d,) * u


def classify_a_ge_3(a_max: int, n_max: int) -> list[tuple[int, Partition]]:
    """Every passing partition for a in [3, a_max] and n <= n_max."""
    if a_max < 3 or n_max < 2:
        raise InvalidInput("need a_max >= 3 and n_max >= 2")
    return [
        (a, part)
        for a in range(3, a_max + 1)
        for n in range(2, n_max + 1)
        for part in lehmer_partitions(a, n)
    ]


def exponent_map(n: int, part: Partition) -> dict[int, int]:
    """Cyclotomic exponents {d: exponent(d)} of (x^n - 1) / prod(x^{e_i} - 1),
    in ascending d."""
    if part.n != n:
        raise InvalidInput(f"{part} does not partition {n}")
    exponents = Counter(divisors(n))
    for e, u in Counter(part.parts).items():
        for d in divisors(e):
            exponents[d] -= u
    return dict(sorted(exponents.items()))


def c_factor(n: int) -> Fraction:
    """Piecewise constant used in the totient lower bound, by the 2-adic
    valuation of n."""
    if n < 2:
        raise InvalidInput("c_factor needs n >= 2")
    v = (n & -n).bit_length() - 1
    if v == 1:
        return Fraction(59, 100)
    if v == 2:
        return Fraction(70, 100)
    if v == 3:
        return Fraction(84, 100)
    return Fraction(1)


def _atanh_enclosure(a: int, b: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2^bits * atanh(a/b) <= hi for 0 <= a/b <= 1/3.

    lo sums the floored series terms 2^bits * x^(2j+1) / (2j+1) up to the
    first that floors to 0.  Each floor loses less than 1, and the tail
    from that term on is below 1 / (1 - x^2) <= 9/8, so hi = lo + terms + 2.
    """
    lo = terms = 0
    num, den, j = a << bits, b, 1
    while term := num // (den * j):
        lo += term
        terms += 1
        num, den, j = num * a * a, den * b * b, j + 2
    return lo, lo + terms + 2


def _log_enclosure(m: int, bits: int, log2: tuple[int, int]) -> tuple[int, int]:
    """Integers lo <= 2^bits * log(m) <= hi for m >= 1, given the same for
    log 2: log(m) = k*log(2) + 2*atanh((m - 2^k)/(m + 2^k)), 2^k <= m < 2^(k+1)."""
    k = m.bit_length() - 1
    lo, hi = _atanh_enclosure(m - (1 << k), m + (1 << k), bits)
    return k * log2[0] + 2 * lo, k * log2[1] + 2 * hi


def _quartic_root_floor(m: int, bits: int) -> int:
    """floor(2^bits * m^(1/4)), exactly: isqrt of isqrt is the fourth root."""
    return isqrt(isqrt(m << 4 * bits))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _margins(n_max: int, bits: int):
    """Yield (n, coarse, refined) for 7 <= n <= n_max: integer pairs
    (lo, hi) enclosing 2^bits times the left minus the right side of each
    comparison in ``candidate_degrees``, every rounding outward."""
    log2 = tuple(2 * v for v in _atanh_enclosure(1, 3, bits))
    log43 = tuple(2 * v for v in _atanh_enclosure(1, 7, bits))
    for n in range(7, n_max + 1):
        delta = 1 - n % 2
        log2n = _log_enclosure(2 * n, bits, log2)
        # log4 + d(n)*log(4/3) + log(2n), common to both margins
        logs = [2 * log2[i] + delta * log43[i] + log2n[i] for i in (0, 1)]
        # 2^bits * (-1 - d(n)/2 - 1/n), over the denominator 2n
        rational = -(2 * n + delta * n + 2) << bits
        root = _quartic_root_floor(n, bits)
        root3 = _quartic_root_floor(n**3, bits)
        # 2^bits * c(n)*log2*n^(3/4) lies in [power_lo / den, power_hi / den];
        # the rational plus 2^bits * 1.28*n^(1/4) is over 50n
        c = c_factor(n)
        den = c.denominator << bits
        power_lo = c.numerator * log2[0] * root3
        power_hi = c.numerator * log2[1] * (root3 + 1)
        coarse = (
            logs[0] + (25 * rational + 64 * n * root) // (50 * n)
            - _ceil_div(power_hi, den),
            logs[1] + _ceil_div(25 * rational + 64 * n * (root + 1), 50 * n)
            - power_lo // den,
        )
        rational += 2 * sigma(n) << bits
        phi = euler_phi(n)
        refined = (
            logs[0] + rational // (2 * n) - phi * log2[1],
            logs[1] + _ceil_div(rational, 2 * n) - phi * log2[0],
        )
        yield n, coarse, refined


def candidate_degrees(n_max: int) -> tuple[set[int], set[int]]:
    """(coarse, refined) degree sets from the logarithmic bound comparison.

    coarse:  log4 + d(n)*log(4/3) - 1 - d(n)/2 - 1/n + 1.28*n^(1/4)
                 >  c(n)*log2*n^(3/4) - log(2n)
    refined: the left side with 1.28*n^(1/4) replaced by h(n), compared
             against phi(n)*log2 - log(2n)

    with d(n) = 1 for even n, else 0.  Each margin (left minus right) is
    enclosed in exact integers at scale 2^B, B a few bits above
    ``CANDIDATE_DPS`` decimal digits.  A comparison is decided only when the
    whole enclosure lies outside +-1e-6; otherwise PrecisionAlert is
    raised.  No n >= ``CANDIDATE_TAIL`` comes near either set (the proof is
    at that constant), so only smaller n are evaluated.
    """
    if n_max < 7:
        raise InvalidInput("need n_max >= 7")
    bits = (10**CANDIDATE_DPS).bit_length() + GUARD_BITS
    # an integer clears +-gap exactly when it clears +-ceil(gap)
    gap = ceil(PRECISION_GAP * (1 << bits))
    found: dict[str, set[int]] = {"coarse": set(), "refined": set()}
    for n, *margins in _margins(min(n_max, CANDIDATE_TAIL - 1), bits):
        for (name, degrees), (lo, hi) in zip(found.items(), margins):
            if lo >= gap:
                degrees.add(n)
            elif hi > -gap:
                raise PrecisionAlert(f"{name} comparison marginal at n = {n}")
    return found["coarse"], found["refined"]


def verify_prop36(n_max: int) -> list[tuple[int, Partition]]:
    """Partitions (base a = 2) passing the divisibility test with at most
    two parts 1 and at most (2^d - 1)/d parts d >= 2, for every
    n <= n_max: the one search, run with those caps."""
    if n_max < 2:
        raise InvalidInput("need n_max >= 2")

    def cap(d: int) -> int:
        return 2 if d == 1 else (2**d - 1) // d

    return [
        (n, part)
        for n in range(2, n_max + 1)
        for part in lehmer_partitions(2, n, cap)
    ]
