"""Exact arithmetic in finite fields F_q with q = p^k.

Elements are stored as integer encodings in [0, q): the coefficient
vector (c_0, ..., c_{k-1}) of an element of F_p[t]/(modulus) encodes to
sum(c_i * p^i).  For k = 1 the encoding is the residue itself and the
field computes on residues mod p.  Every extension field, up to the 2^16
cap, computes through exp/log tables of one generator and, for odd p,
Zech's logarithms; see :class:`FieldSpec`.

The modulus for k > 1 is canonical: the monic irreducible of degree k
over F_p whose integer encoding is smallest, so two runs (or machines)
always build the identical field.  The modulus, the generator and the
text form of an element (a polynomial in t of degree < k, in the term
grammar of polynomials) all come from ``fpoly`` run over F_p; the only
F_p[t] arithmetic of this module is the table walk ``_powers``.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import DivisionByZero, FieldMismatch, InvalidDegree, InvalidInput, InvalidPrime
from .intmath import decimal_str, factorize, is_prime

MAX_Q = 1 << 16
# fields kept interned; an extension field near 2^16 holds about 9 MB of
# tables, and an evicted field is rebuilt equal on its next use
_FIELD_CACHE_SIZE = 16


# ---------------------------------------------------------------------------
# construction, on the polynomial kernels of ``fpoly`` over F_p; ``fpoly``
# imports this module, so it is imported where it is used


def _canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    """Smallest-encoding monic irreducible of degree k over F_p."""
    from .fpoly import enumerate_polys, is_irreducible

    return next(f.cv for f in enumerate_polys(field_make(p), k) if is_irreducible(f))


def _generator(p: int, k: int, modulus: Sequence[int]) -> tuple[int, ...]:
    """Smallest-encoding element of order q - 1 of F_p[t]/(modulus)."""
    from .fpoly import _decode_cv, _powmod_cv

    fp = field_make(p)
    q = p**k
    cofactors = [(q - 1) // r for r in factorize(q - 1)]
    for code in range(2, q):
        g = _decode_cv(p, code)
        if all(_powmod_cv(fp, g, c, modulus) != (1,) for c in cofactors):
            return g
    raise InvalidDegree(f"F_{q} has no generator")  # pragma: no cover


def _powers(g: Sequence[int], modulus: Sequence[int], p: int, n: int) -> list[int]:
    """Encodings of g^0, ..., g^(n-1), for g of degree >= 1 below the
    monic modulus."""
    k = len(modulus) - 1
    top, *rest = reversed(g)
    if p == 2:
        # an encoding is the coefficient bit vector: Horner over the bits
        # of g, where acc * t is a shift and a carry into t^k is folded
        # back by xor with the modulus
        m = sum(c << i for i, c in enumerate(modulus))
        out, cur = [], 1
        for _ in range(n):
            out.append(cur)
            acc = cur  # top = 1
            for gj in rest:
                acc <<= 1
                if acc >> k:
                    acc ^= m
                if gj:
                    acc ^= cur
            cur = acc
        return out
    red = [-c % p for c in modulus[:k]]  # t^k = sum(red[i] * t^i)
    weights = [p**i for i in range(k)]
    out, cur = [], [1] + [0] * (k - 1)
    for _ in range(n):
        out.append(sum(map(operator.mul, cur, weights)))
        # cur * g by Horner over the digits of g: acc = acc * t + g_j * cur,
        # where acc * t shifts the digits up and folds the top one back
        acc = [top * c for c in cur]
        for gj in rest:
            hi = acc[-1]
            acc = [(a + hi * r + gj * c) % p for a, r, c in zip([0, *acc], red, cur)]
        cur = acc
    return out


# ---------------------------------------------------------------------------


class FieldSpec:
    """An immutable description of F_q plus fast value-level operations.

    The value-level callables (``add``, ``sub``, ``mul``, ``neg``,
    ``inv``) act on integer encodings and are the workhorses of every
    polynomial routine.  A prime field computes on residues mod p.  An
    extension field holds ``exp`` and ``log`` tables of size O(q) for its
    generator (the smallest-encoding element of order q - 1): products,
    inverses and negatives are lookups, sums are ``xor`` when p = 2 and go
    through Zech's logarithm Z(n) = log(1 + g^n) for odd p.  The tables
    are the attributes ``exp`` and ``log`` (None for a prime field), which
    the characteristic-2 kernels of ``fpoly`` read directly.  Instances
    are interned by :func:`field_make`, are safe to share between
    threads/processes, and pickle by (p, k).
    """

    __slots__ = ("p", "k", "q", "modulus", "exp", "log", "add", "sub", "mul", "neg", "inv")

    def __init__(self, p: int, k: int):
        q = p**k
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _canonical_modulus(p, k) if k > 1 else None
        self.exp = self.log = None
        if k > 1:
            self._log_ops()
            return
        self.add = lambda a, b, _p=p: (a + b) % _p
        self.sub = lambda a, b, _p=p: (a - b) % _p
        self.mul = lambda a, b, _p=p: a * b % _p
        self.neg = lambda a, _p=p: -a % _p

        def inv(a: int) -> int:
            if a == 0:
                raise DivisionByZero(f"inverse of 0 in F_{p}")
            return pow(a, -1, p)

        self.inv = inv

    def _log_ops(self) -> None:
        p, q = self.p, self.q
        n = q - 1
        cycle = _powers(_generator(p, self.k, self.modulus), self.modulus, p, n)
        # log(0) is a sentinel past every sum of two logarithms, and exp is
        # zero from 2n on, so products and negatives with 0 need no branch
        log = [2 * n] * q
        for i, e in enumerate(cycle):
            log[e] = i
        exp = cycle + cycle + [0] * (2 * n + 1)
        self.exp, self.log = exp, log
        self.mul = lambda a, b, _e=exp, _l=log: _e[_l[a] + _l[b]]

        def inv(a: int) -> int:
            if a == 0:
                raise DivisionByZero(f"inverse of 0 in F_{q}")
            return exp[n - log[a]]

        self.inv = inv
        if p == 2:
            self.add = self.sub = operator.xor
            self.neg = lambda a: a
            return
        half = n // 2  # -1 = g^half
        self.neg = neg = lambda a: exp[log[a] + half]
        # Zech's logarithm log(1 + g^i): 1 + x adds 1 to the constant
        # digit, and 1 + g^i = 0 maps to the sentinel log(0)
        zech = [log[e - e % p + (e + 1) % p] for e in cycle]

        def add(a: int, b: int) -> int:
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            return exp[la + zech[log[b] - la]]  # a negative index wraps mod n

        self.add = add
        self.sub = lambda a, b: add(a, neg(b))

    # -- identity / pickling ------------------------------------------------

    def __reduce__(self):
        return (field_make, (self.p, self.k))

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, k={self.k}, q={self.q})"

    # -- element helpers -----------------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def element(self, value) -> "FieldElement":
        """Coerce text, an encoding or an element of this field."""
        if isinstance(value, str):
            from .fpoly import _coeff_value

            return FieldElement(self, _coeff_value(self, value.replace(" ", "")))
        return FieldElement(self, self._encode(value))

    def _encode(self, value) -> int:
        """The encoding of an int or of an element of this field: an int is
        a residue mod p in a prime field and an encoding in [0, q) otherwise."""
        if isinstance(value, int):
            if self.k == 1:
                return value % self.q
            if 0 <= value < self.q:
                return value
            raise InvalidInput(f"encoding {value} out of range for {self!r}")
        if not isinstance(value, FieldElement):
            raise InvalidInput(f"cannot build an element of {self!r} from {value!r}")
        if value.spec is not self and value.spec != self:
            raise FieldMismatch(f"{value!r} is not an element of {self!r}")
        return value.val

    def elements(self) -> Iterator["FieldElement"]:
        return (FieldElement(self, v) for v in range(self.q))

    def units(self) -> Iterator["FieldElement"]:
        return (FieldElement(self, v) for v in range(1, self.q))


class FieldElement:
    """An element of a :class:`FieldSpec`, stored as its integer encoding."""

    __slots__ = ("spec", "val")

    def __init__(self, spec: FieldSpec, val: int):
        self.spec = spec
        self.val = val

    def is_zero(self) -> bool:
        return self.val == 0

    def _coerce(self, other) -> int:
        # an element of the same interned field, the common operand, skips
        # the call into the rule
        if isinstance(other, FieldElement) and other.spec is self.spec:
            return other.val
        return self.spec._encode(other)

    def __add__(self, other):
        return FieldElement(self.spec, self.spec.add(self.val, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.spec, self.spec.sub(self.val, self._coerce(other)))

    def __mul__(self, other):
        return FieldElement(self.spec, self.spec.mul(self.val, self._coerce(other)))

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(self.spec, self.spec.neg(self.val))

    def __truediv__(self, other):
        inv = self.spec.inv(self._coerce(other))
        return FieldElement(self.spec, self.spec.mul(self.val, inv))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result, base = 1, self.val
        mul = self.spec.mul
        while e:
            if e & 1:
                result = mul(result, base)
            base = mul(base, base)
            e >>= 1
        return FieldElement(self.spec, result)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.spec, self.spec.inv(self.val))

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return (
                (self.spec is other.spec or self.spec == other.spec)
                and self.val == other.val
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.k, self.val))

    def __str__(self) -> str:
        from .fpoly import _coeff_text

        return _coeff_text(self.spec, self.val)

    def __repr__(self) -> str:
        return f"<{self} in F_{self.spec.q}>"


# ---------------------------------------------------------------------------
# public constructors


def field_make(p: int, k: int = 1) -> FieldSpec:
    """Build (and intern) F_{p^k} with the canonical modulus.

    The size checks come before any work that grows with p or k: p is held
    to the cap before its primality test, and k to 16 (2^17 > MAX_Q)
    before p^k is computed.  The primality and degree checks run inside
    the interned constructor, so a field already built skips them."""
    if not isinstance(p, int):
        raise InvalidPrime(f"{p} is not prime")
    if not isinstance(k, int):
        raise InvalidDegree(f"extension degree must be >= 1, got {k}")
    if p > MAX_Q:
        raise InvalidDegree(
            f"q = {decimal_str(p)}^{decimal_str(k)} exceeds the supported cap {MAX_Q}"
        )
    return _field_make_cached(p, k)


@lru_cache(maxsize=_FIELD_CACHE_SIZE)
def _field_make_cached(p: int, k: int) -> FieldSpec:
    # a refused (p, k) raises, so the cache keeps valid fields only
    if not is_prime(p):
        raise InvalidPrime(f"{decimal_str(p)} is not prime")
    if k < 1:
        raise InvalidDegree(f"extension degree must be >= 1, got {decimal_str(k)}")
    if k >= MAX_Q.bit_length() or p**k > MAX_Q:
        raise InvalidDegree(f"q = {p}^{decimal_str(k)} exceeds the supported cap {MAX_Q}")
    return FieldSpec(p, k)


def field_from_order(q: int) -> FieldSpec:
    """Build F_q for a prime power q (convenience for CLI input)."""
    if not isinstance(q, int):
        raise InvalidPrime(f"{q} is not a prime power")
    if q > MAX_Q:
        raise InvalidDegree(f"q = {decimal_str(q)} exceeds the supported cap {MAX_Q}")
    return field_make(*_prime_power(q))


@lru_cache(maxsize=64)
def _prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k, for q <= MAX_Q; a q that is no prime power
    raises, so the cache keeps prime powers only."""
    if q < 2 or len(factors := factorize(q)) != 1:
        raise InvalidPrime(f"{decimal_str(q)} is not a prime power")
    return factors.popitem()
