"""Integer-side cyclotomic machinery and primitive prime divisors.

Every cyclotomic object is one Moebius product, never complex roots:

    Phi_n(x) = prod_{d | n} (x^d - 1)^{mu(n/d)}.

The coefficients expand it as a power series cut at degree phi(n).  A
value, Phi_n(a) or the homogeneous b^phi(n) * Phi_n(a/b), is the exact
quotient prod (a^d - b^d)^{mu(n/d)} for |a| >= 2; for |a| <= 1, where
a factor may vanish, it comes from the coefficients.  Of all this only
an index's Moebius terms are memoized, in a bounded cache, and oversized
indices and values raise ``SizeCapExceeded``.

A prime p | a^n - b^n is *primitive* when p divides no a^k - b^k with
1 <= k < n.  ``primitive_part`` computes the product of primitive prime
powers without factoring anything: the only prime that can divide both
n and the homogeneous value Phi_n(a, b) is the largest prime factor of
n, and stripping it leaves exactly the primitive part.  ``zsigmondy``
reads the primitive primes off that part by deterministic trial
division, within a budget on a^n - b^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    FactoringBudgetExceeded,
    InvalidInput,
    SizeCapExceeded,
    VerificationError,
)
from .intmath import factorize, mobius_divisors

DEFAULT_FACTORING_BUDGET = 1 << 64
# about 17x and 13x the largest index and value any suite or test uses
INDEX_CAP = 1 << 16
VALUE_BITS_CAP = 1 << 18

EXCEPTION_N6 = "N6"
EXCEPTION_POWER_OF_TWO_SUM = "POWER_OF_TWO_SUM"


@dataclass(frozen=True)
class IntPoly:
    """A polynomial with integer coefficients, lowest degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = list(self.coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, a: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "x" if e == 1 else f"x^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(sign + body)
        return "".join(parts)


def _check_index(n: int) -> None:
    if n < 1:
        raise InvalidInput("cyclotomic index must be >= 1")
    if n > INDEX_CAP:
        raise SizeCapExceeded(f"cyclotomic index {n} exceeds the cap {INDEX_CAP}")


def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial with exact integer coefficients.

    For n >= 2 the signs cancel to prod (1 - x^d)^{mu(n/d)}: multiplying
    by 1 - x^d is one descending pass, dividing by it one ascending pass.
    """
    _check_index(n)
    if n == 1:
        return IntPoly((-1, 1))
    terms = mobius_divisors(n)
    deg = sum(mu * d for d, mu in terms)  # phi(n)
    c = [1] + [0] * deg
    for d, mu in terms:
        if mu > 0:
            for i in range(deg, d - 1, -1):
                c[i] -= c[i - d]
        else:
            for i in range(d, deg + 1):
                c[i] += c[i - d]
    return IntPoly(tuple(c))


def _value(n: int, a: int, b: int) -> int:
    """prod (a^d - b^d)^{mu(n/d)}, exact, for |a| > b >= 1."""
    terms = mobius_divisors(n)
    bits = sum(mu * d for d, mu in terms) * abs(a).bit_length()
    if bits > VALUE_BITS_CAP:
        raise SizeCapExceeded(
            f"Phi_{n} value of about {bits} bits exceeds the cap {VALUE_BITS_CAP}"
        )
    num = den = 1
    for d, mu in terms:
        if mu > 0:
            num *= a**d - b**d
        else:
            den *= a**d - b**d
    value, rem = divmod(num, den)
    if rem:
        raise VerificationError("non-exact cyclotomic value division")
    return value


def cyclotomic_eval(n: int, a: int) -> int:
    """Phi_n(a) as an exact integer, by the value product for |a| >= 2."""
    _check_index(n)
    if -1 <= a <= 1:
        return cyclotomic(n)(a)
    return _value(n, a, 1)


def primitive_part(a: int, b: int, n: int) -> int:
    """Product of primitive prime powers in a^n - b^n, without factoring.

    Strips the (unique possible) shared prime of n and Phi_n(a, b) -- the
    largest prime factor of n -- from the homogeneous cyclotomic value.
    """
    _check_zsigmondy_args(a, b, n)
    _check_index(n)
    value = _value(n, a, b)
    p0 = max(factorize(n))
    while value % p0 == 0:
        value //= p0
    return value


@dataclass(frozen=True)
class ZsigmondyResult:
    a: int
    b: int
    n: int
    primitive_primes: tuple[int, ...]
    exception: str | None  # EXCEPTION_N6 | EXCEPTION_POWER_OF_TWO_SUM
    primitive_part: int

    def as_record(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "n": self.n,
            "primitive_primes": [str(p) for p in self.primitive_primes],
            "exception": self.exception,
            "primitive_part": str(self.primitive_part),
        }


def _check_zsigmondy_args(a: int, b: int, n: int) -> None:
    if not (isinstance(a, int) and isinstance(b, int) and isinstance(n, int)):
        raise InvalidInput("a, b, n must be integers")
    if not a > b > 0:
        raise InvalidInput("need a > b > 0")
    if gcd(a, b) != 1:
        raise InvalidInput("a and b must be coprime")
    if n < 2:
        raise InvalidInput("need n >= 2")


def _exceeds_budget(a: int, b: int, n: int, budget: int) -> bool:
    """a^n - b^n > budget, with the clear cases decided from bit lengths
    by a^(n-1) <= a^n - b^n < a^n, so a huge n costs no power."""
    bits = budget.bit_length()
    if (a.bit_length() - 1) * (n - 1) >= bits:  # a^(n-1) >= 2^bits > budget
        return True
    if a.bit_length() * n < bits:  # a^n < 2^(bits-1) <= budget
        return False
    return a**n - b**n > budget


def zsigmondy(
    a: int, b: int, n: int, factoring_budget: int = DEFAULT_FACTORING_BUDGET
) -> ZsigmondyResult:
    """The primitive prime divisors of a^n - b^n and their product.

    Factors only the primitive part, whose primes are exactly the primes
    p of a^n - b^n with p dividing no a^k - b^k for k < n.
    """
    _check_zsigmondy_args(a, b, n)
    if factoring_budget < 1:
        raise InvalidInput(f"factoring budget must be >= 1, got {factoring_budget}")
    if _exceeds_budget(a, b, n, factoring_budget):
        raise FactoringBudgetExceeded(
            f"{a}^{n} - {b}^{n} exceeds the factoring budget {factoring_budget}"
        )
    part = primitive_part(a, b, n)
    primitive = tuple(sorted(factorize(part)))
    exception = None
    if (a, b, n) == (2, 1, 6):
        exception = EXCEPTION_N6
    elif n == 2 and (a + b) & (a + b - 1) == 0:
        exception = EXCEPTION_POWER_OF_TWO_SUM
    if bool(primitive) == (exception is not None):
        raise VerificationError(
            f"primitive classification inconsistent for ({a}, {b}, {n})"
        )
    return ZsigmondyResult(
        a=a,
        b=b,
        n=n,
        primitive_primes=primitive,
        exception=exception,
        primitive_part=part,
    )
