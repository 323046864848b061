"""Small integer number-theory helpers used across the package.

Everything here is exact integer arithmetic.  Factoring is deterministic
trial division; a Miller-Rabin primality test with a fixed base set (a
proven-deterministic witness set below 3.3e24) is used to stop trial
division early when the remaining cofactor is prime.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from math import isqrt

from .errors import InvalidInput, UndefinedValuation, VerificationError

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

# Witnesses proving primality for every n < 3_317_044_064_679_887_385_961_981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# indices whose Moebius terms stay cached; the cyclo-lemmas suite reads
# 259 distinct indices, and an index holds at most 64 terms below 2^16
_MOBIUS_CACHE_SIZE = 1024


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1 by trial division."""
    if n < 1:
        raise InvalidInput(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:  # n has no prime below p, so it is 1 or a prime
            if n > 1:
                out[n] = 1
            return out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over 6k +/- 1, restarting the primality shortcut after each hit
    while n > 1:
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
            break
        f = _trial_factor(n)
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
    return out


def _trial_factor(n: int) -> int:
    # n composite with no factor <= 199; scan 6k +/- 1 candidates.
    c = 211  # 6k + 1
    step = 4  # alternates 4, 2: 6k + 1 -> 6k + 5 -> 6(k + 1) + 1
    lim = isqrt(n)
    while c <= lim:
        if n % c == 0:
            return c
        c += step
        step = 6 - step
    raise VerificationError(f"no factor of the composite {n} up to its square root")


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=_MOBIUS_CACHE_SIZE)
def mobius_divisors(n: int) -> tuple[tuple[int, int], ...]:
    """Pairs (d, mu(n/d)), n first, for the divisors d of n >= 1 where n/d
    is a product of distinct primes: the nonzero terms of Moebius inversion.
    Cached per n, so each index is factored once while it stays cached."""
    terms = [(n, 1)]
    for p in factorize(n):
        terms += [(d // p, -mu) for d, mu in terms]
    return tuple(terms)


def euler_phi(n: int) -> int:
    phi = n
    for p in factorize(n):
        phi = phi // p * (p - 1)
    return phi


def sigma(n: int) -> int:
    """Sum of divisors of n >= 1."""
    s = 1
    for p, e in factorize(n).items():
        s *= (p ** (e + 1) - 1) // (p - 1)
    return s


def largest_prime_factor(n: int) -> int:
    if n < 2:
        raise InvalidInput(f"{n} has no prime factor")
    return max(factorize(n))


def valuation(p: int, m: int) -> int:
    """Largest v with p^v | m, for prime p and m != 0."""
    if m == 0:
        raise UndefinedValuation("valuation of 0 is undefined")
    if not is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    m = abs(m)
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def _least_primes(limit: int) -> array:
    """spf[n] = the smallest prime of a composite n <= limit, 0 elsewhere."""
    spf = array("I", [0]) * (limit + 1)
    # descending, so the smallest d >= 2 with d | n and d * d <= n, which
    # is the smallest prime of a composite n, is written last; 32 bits hold
    # every n below 2^32
    for d in range(isqrt(limit), 1, -1):
        spf[d * d :: d] = array("I", [d]) * len(range(d * d, limit + 1, d))
    return spf


def phi_sieve(limit: int) -> array:
    """``'q'`` array with phi[n] = phi(n) for 0 <= n <= limit (phi[0] = 0).

    One step per n from r = n / p, p the smallest prime of n: phi(n) is
    p * phi(r) when p divides r, and (p - 1) * phi(r) when it does not.
    """
    spf = _least_primes(limit)
    phi = array("q", [0]) * (limit + 1)
    if limit >= 1:
        phi[1] = 1
    for n in range(2, limit + 1):
        p = spf[n] or n
        r = n // p
        phi[n] = phi[r] * (p if r % p == 0 else p - 1)
    return phi


def sigma_sieve(limit: int) -> array:
    """``'q'`` array with sig[n] = sigma(n) for 0 <= n <= limit (sig[0] = 0).

    One step per n from r = n / p, p the smallest prime of n: either p
    does not divide r, and sigma(n) = (p + 1) * sigma(r), or it does, and
    sigma(n) = p * sigma(r) + sigma(m), where m is r with its power of p
    removed.  ``rest`` keeps that m for each n.
    """
    spf = _least_primes(limit)
    rest = array("I", [0]) * (limit + 1)
    sig = array("q", [0]) * (limit + 1)
    if limit >= 1:
        sig[1] = 1
    for n in range(2, limit + 1):
        p = spf[n] or n
        r = n // p
        if r % p:
            sig[n] = sig[r] * (p + 1)
            rest[n] = r
        else:
            m = rest[r]
            sig[n] = p * sig[r] + sig[m]
            rest[n] = m
    return sig


def ord2(n: int) -> int:
    """2-adic valuation of n >= 1 without the primality dance."""
    if n < 1:
        raise InvalidInput(f"ord2 undefined for {n}")
    return (n & -n).bit_length() - 1


# digits per str() call: below 640, the lowest int-to-str limit the
# interpreter accepts (sys.set_int_max_str_digits), so every chunk converts
_DECIMAL_CHUNK = 500


def decimal_str(n: int) -> str:
    """Exact base-10 text of n, however many digits it has."""
    if n < 0:
        return "-" + decimal_str(-n)
    base = 10**_DECIMAL_CHUNK
    chunks = []
    while n >= base:
        n, r = divmod(n, base)
        chunks.append(f"{r:0{_DECIMAL_CHUNK}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))
