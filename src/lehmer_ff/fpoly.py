"""Polynomials over F_q: arithmetic, gcd, factorization, enumeration.

A polynomial is a tuple of field-element encodings, lowest degree first,
with no trailing zeros (the zero polynomial is the empty tuple and has
degree ``NEG_INF``).  Polynomials are totally ordered by their integer
encoding sum(enc(c_i) * q^i); that single order is reused for the
least-factor sieve, factor lists, and enumeration streams.

Every division in the package runs one long-division routine,
``_reduce_cv``, which reduces a list in place and builds a quotient only
for callers that ask for one: ``_divmod_cv`` and ``//`` do; gcd, powmod,
``%`` and the trace map take the remainder alone.  ``ffield`` builds its
extension fields with these kernels over F_p.

The kernels ``_mul_cv``, ``_sqr_cv`` and ``_reduce_cv`` each have one
inner loop per field family, chosen by the field and never by size: a
prime field computes on native ints with one ``% p`` per update; a
field of characteristic 2 with k > 1 reads the exp/log tables of its
``FieldSpec`` directly, where log(0) is a sentinel whose sum with any
logarithm indexes a zero, so zero coefficients need no branch; an odd
extension field calls ``spec.add`` and ``spec.mul`` (Zech tables).  A
square in characteristic 2 is the squared coefficients at even
positions; over F_p ``_sqr_cv`` takes each cross product once and
doubles it, and an odd extension field squares with ``_mul_cv``.
``_powmod_cv`` runs left to right from the leading bit of
the exponent, squaring with ``_sqr_cv`` and multiplying by the reduced
base alone, so a Frobenius step x^q mod f takes squarings and products
by x only.

One distinct-degree walk, ``_degree_groups``, is the package's only
Frobenius loop: through x^(q^i) mod f and gcd it yields, lazily and by
ascending degree, one group per degree and multiplicity with no
splitting.  ``totient`` reads phi off the groups; ``factor`` splits each
group by Cantor-Zassenhaus (a trace map when q = 2^k); and
``is_irreducible`` takes the first group alone, so it stops at the first
factor of degree <= deg/2 (``ffield`` finds each extension modulus with
it).  All cost a polynomial in deg f and log q, never touch the sieve,
and are deterministic: the factorization is canonical and the splitting
draws from a fixed seed.
One least-factor sieve, walked with ``_monic_multiples``, serves the
oracles: ``irreducibles``, ``factor_bruteforce``, which follows its chain
of cofactors and so divides nothing, and the phi oracle in ``totient``.

The text grammar (``format_poly``, ``parse_poly``) is also the text form
of an extension-field element: a polynomial in t over F_p.
"""

from __future__ import annotations

import random
from array import array
from functools import lru_cache, partial
from itertools import accumulate, groupby, islice, repeat
from operator import xor
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    CannotFactorZero,
    DivisionByZero,
    FieldMismatch,
    InvalidInput,
    InvalidModulus,
    OracleOverflow,
    ParseError,
    SizeCapExceeded,
    UndefinedGcd,
)
from .ffield import FieldElement, FieldSpec, field_make
from .intmath import decimal_str, mobius_divisors

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# value-level helpers (int-encoded coefficient tuples/lists)


def _trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _add_cv(spec: FieldSpec, a, b):
    add = spec.add
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = add(out[i], v)
    return tuple(_trim(out))


def _sub_cv(spec: FieldSpec, a, b):
    sub = spec.sub
    out = list(a) + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] = sub(out[i], v)
    return tuple(_trim(out))


def _mul_cv(spec: FieldSpec, a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if spec.k == 1:
        p = spec.p
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    out[j] = (out[j] + ai * bj) % p
    elif spec.p == 2:
        exp, log = spec.exp, spec.log
        logs = list(map(log.__getitem__, b))  # log(0) indexes the zeros of exp
        for i, ai in enumerate(a):
            if ai:
                la = log[ai]
                for j, lb in enumerate(logs, i):
                    out[j] ^= exp[la + lb]
    else:
        add, mul = spec.add, spec.mul
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    if bj:
                        out[j] = add(out[j], mul(ai, bj))
    return out


def _sqr_cv(spec: FieldSpec, a) -> list:
    """``_mul_cv(spec, a, a)``.  In characteristic 2 the cross terms cancel,
    so the square is the squared coefficients at even positions; over F_p
    each cross product is taken once and doubled; an odd extension field
    takes the product loop."""
    if spec.k > 1 and spec.p != 2:
        return _mul_cv(spec, a, a)
    if not a:
        return []
    out = [0] * (2 * len(a) - 1)
    if spec.p == 2:
        exp, log = spec.exp, spec.log  # c^2 = c in F_2, which has no tables
        out[::2] = a if spec.k == 1 else [exp[2 * log[c]] for c in a]
    else:
        p = spec.p
        for i, ai in enumerate(a):
            if ai:
                out[2 * i] = (out[2 * i] + ai * ai) % p
                twice = 2 * ai
                for j, aj in enumerate(a[i + 1 :], 2 * i + 1):
                    out[j] = (out[j] + twice * aj) % p
    return out


def _reduce_cv(spec: FieldSpec, rem: list, den, quo: list | None = None) -> list:
    """Reduce ``rem`` modulo ``den`` in place and return it trimmed.

    This is the module's one long-division routine, with one inner loop
    per field family.  Quotient digits are written into ``quo`` (a zero
    list of length len(rem) - deg den, when that is positive) only when it
    is passed; callers that need only the remainder skip building a
    quotient.  Each step subtracts c * den from rem[i:], whose leading term
    clears rem[i + deg den].
    """
    if not den:
        raise DivisionByZero("polynomial division by zero")
    dd = len(den) - 1
    if len(rem) <= dd:
        return _trim(rem)
    # factoring divides by monic polynomials, which need no scaling
    lead_inv = 1 if den[-1] == 1 else spec.inv(den[-1])
    steps = range(len(rem) - 1 - dd, -1, -1)
    if spec.k == 1:
        p = spec.p
        for i in steps:
            c = rem[i + dd]
            if c:
                if lead_inv != 1:
                    c = c * lead_inv % p
                if quo is not None:
                    quo[i] = c
                for j, dj in enumerate(den, i):
                    if dj:
                        rem[j] = (rem[j] - c * dj) % p
    elif spec.p == 2:
        # lc = log(c / lead) is taken mod q - 1, so lc + log(dj) indexes
        # the product for dj != 0 and the zeros of exp for dj = 0
        exp, log, n = spec.exp, spec.log, spec.q - 1
        log_inv = log[lead_inv]
        for i in steps:
            c = rem[i + dd]
            if c:
                lc = (log[c] + log_inv) % n
                if quo is not None:
                    quo[i] = exp[lc]
                for j, dj in enumerate(den, i):
                    rem[j] ^= exp[lc + log[dj]]
    else:
        add, mul, neg = spec.add, spec.mul, spec.neg
        for i in steps:
            c = rem[i + dd]
            if c:
                if lead_inv != 1:
                    c = mul(c, lead_inv)
                if quo is not None:
                    quo[i] = c
                c = neg(c)
                for j, dj in enumerate(den, i):
                    if dj:
                        rem[j] = add(rem[j], mul(c, dj))
    del rem[dd:]
    return _trim(rem)


def _divmod_cv(spec: FieldSpec, num, den):
    quo = [0] * max(len(num) - len(den) + 1, 0)
    rem = _reduce_cv(spec, list(num), den, quo)
    return tuple(_trim(quo)), tuple(rem)


def _monic_cv(spec: FieldSpec, cv):
    if not cv or cv[-1] == 1:
        return tuple(cv)
    mul = spec.mul
    li = spec.inv(cv[-1])
    return tuple(mul(c, li) for c in cv)


def _gcd_cv(spec: FieldSpec, a, b):
    a, b = list(a), list(b)
    while b:
        if len(b) == 1:
            return (1,)  # a nonzero constant divides everything
        a, b = b, _reduce_cv(spec, a, b)
    return _monic_cv(spec, a)


def _powmod_cv(spec: FieldSpec, g, e: int, f):
    """g^e mod f, left to right from the leading bit of e: the power starts
    at the reduced base, so every multiplication is by the base (x itself
    in a first Frobenius step), and q = 2^k takes squarings alone."""
    if not e:
        return (1,)
    g = _reduce_cv(spec, list(g), f)
    result = g
    for bit in bin(e)[3:]:
        result = _reduce_cv(spec, _sqr_cv(spec, result), f)
        if bit == "1":
            result = _reduce_cv(spec, _mul_cv(spec, result, g), f)
    return tuple(result)


def _encode_cv(spec: FieldSpec, cv) -> int:
    enc = 0
    for c in reversed(cv):
        enc = enc * spec.q + c
    return enc


def _decode_cv(q: int, code: int):
    out = []
    while code:
        code, r = divmod(code, q)
        out.append(r)
    return tuple(out)


# ---------------------------------------------------------------------------


class Poly:
    """A polynomial over a fixed F_q in canonical (trimmed) form."""

    __slots__ = ("spec", "cv")

    def __init__(self, spec: FieldSpec, coeffs: Sequence = ()):
        self.spec = spec
        self.cv = tuple(_trim(list(map(spec._encode, coeffs))))

    @classmethod
    def _raw(cls, spec: FieldSpec, cv) -> "Poly":
        obj = object.__new__(cls)
        obj.spec = spec
        obj.cv = cv
        return obj

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls._raw(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls._raw(spec, (1,))

    @classmethod
    def x(cls, spec: FieldSpec) -> "Poly":
        return cls._raw(spec, (0, 1))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.cv) - 1 if self.cv else NEG_INF

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.spec, v) for v in self.cv)

    def is_zero(self) -> bool:
        return not self.cv

    def is_monic(self) -> bool:
        return bool(self.cv) and self.cv[-1] == 1

    def encoding(self) -> int:
        return _encode_cv(self.spec, self.cv)

    def sort_key(self) -> tuple[int, int]:
        return (len(self.cv), self.encoding())

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        spec = _same_field(self, other)
        return Poly._raw(spec, _add_cv(spec, self.cv, other.cv))

    def __sub__(self, other: "Poly") -> "Poly":
        spec = _same_field(self, other)
        return Poly._raw(spec, _sub_cv(spec, self.cv, other.cv))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            v, mul = self.spec._encode(other), self.spec.mul
            return Poly._raw(self.spec, tuple(_trim([mul(c, v) for c in self.cv])))
        spec = _same_field(self, other)
        return Poly._raw(spec, tuple(_mul_cv(spec, self.cv, other.cv)))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        spec = _same_field(self, other)
        q, r = _divmod_cv(spec, self.cv, other.cv)
        return Poly._raw(spec, q), Poly._raw(spec, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        spec = _same_field(self, other)
        return Poly._raw(spec, tuple(_reduce_cv(spec, list(self.cv), other.cv)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and (self.spec is other.spec or self.spec == other.spec)
            and self.cv == other.cv
        )

    def __hash__(self) -> int:
        return hash((self.spec.p, self.spec.k, self.cv))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"<{format_poly(self)} over F_{self.spec.q}>"


def _same_field(f, g) -> FieldSpec:
    """The field of two polynomials over equal fields; raises on any other
    pair of operands.  ``_same_field(f, f)`` checks a single operand."""
    if not (isinstance(f, Poly) and isinstance(g, Poly)):
        raise InvalidInput(f"expected a polynomial, got {g if isinstance(f, Poly) else f!r}")
    if f.spec is not g.spec and f.spec != g.spec:
        raise FieldMismatch("polynomials over different fields")
    return f.spec


class Factorization(NamedTuple):
    """unit * prod(factor^multiplicity) in canonical order.

    Factors are monic irreducibles, pairwise distinct, sorted by
    (degree, encoding); the unit is the leading coefficient of the
    input.
    """

    unit: FieldElement
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        spec = self.unit.spec
        out = Poly.one(spec) * self.unit
        for f, m in self.factors:
            for _ in range(m):
                out = out * f
        return out

    @property
    def distinct_count(self) -> int:
        return len(self.factors)

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.factors)

    def is_squarefree(self) -> bool:
        return all(m == 1 for _, m in self.factors)


# ---------------------------------------------------------------------------
# operations


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(f, 0) is the monic normalization of f."""
    spec = _same_field(f, g)
    if f.is_zero() and g.is_zero():
        raise UndefinedGcd("gcd(0, 0) is undefined")
    return Poly._raw(spec, _gcd_cv(spec, f.cv, g.cv))


def poly_powmod(g: Poly, e: int, f: Poly) -> Poly:
    """g^e mod f by square-and-multiply (e may be huge)."""
    spec = _same_field(g, f)
    if len(f.cv) < 2:
        raise InvalidModulus("modulus must have degree >= 1")
    if not isinstance(e, int) or e < 0:
        raise InvalidInput("exponent must be nonnegative")
    return Poly._raw(spec, _powmod_cv(spec, g.cv, e, f.cv))


def is_irreducible(f: Poly) -> bool:
    """f of degree n is irreducible exactly when the first group that
    :func:`_degree_groups` yields has degree n: a reducible f has a factor
    of degree i <= n/2, and the walk yields at the first such i, so the
    test stops there."""
    spec = _same_field(f, f)
    deg = len(f.cv) - 1
    if deg < 1:
        raise InvalidInput("irreducibility is defined for degree >= 1")
    return next(_degree_groups(spec, f.cv))[0] == deg


ORACLE_CAP = 1 << 20
# largest exponent ``parse_poly`` reads: its coefficient list grows to the
# exponent, about 1 MB at the cap; this bounds memory, not factoring time
DEGREE_CAP = 1 << 16


# one table is enough: every caller asks for one field and degree at a time
# (the exhaustive factor test, a `lehmer` sweep's pool and hits, membership)
@lru_cache(maxsize=1)
def _least_factor_sieve(p: int, k: int, max_degree: int) -> tuple[list, list]:
    """Rows ``least[n]`` and ``cofactor[n]``, indexed by code - q^n, for the
    monic f over F_{p^k} of degree n <= max_degree: the 32-bit code of
    f's least monic irreducible factor P by (degree, encoding), 0 where f
    is irreducible, and the offset code - q^m of f / P.  Raises
    OracleOverflow first past ``ORACLE_CAP`` entries, and before any power
    when the lower bound 2^(max_degree * (bit length of q - 1)) on
    q^max_degree is already past it.  Each P of degree d <= max_degree / 2,
    found unwritten in ascending order, writes itself into its multiples
    of degree >= 2d that no smaller P wrote."""
    q = p**k
    if max_degree * (q.bit_length() - 1) >= ORACLE_CAP.bit_length():
        raise OracleOverflow(
            f"sweeping at least {q}^{decimal_str(max_degree)} monic polys over F_{q} "
            f"to degree {decimal_str(max_degree)} exceeds the oracle cap {ORACLE_CAP}"
        )
    entries = (q ** (max_degree + 1) - q) // (q - 1)
    if entries > ORACLE_CAP:
        raise OracleOverflow(
            f"sweeping {entries} monic polys over F_{q} to degree "
            f"{max_degree} exceeds the oracle cap {ORACLE_CAP}"
        )
    spec = field_make(p, k)
    least = [array("I", [0]) * q**n for n in range(max_degree + 1)]
    cofactor = [array("I", [0]) * q**n for n in range(max_degree + 1)]
    for d in range(1, max_degree // 2 + 1):
        for code, written in enumerate(least[d], q**d):
            if written:
                continue
            walks = _monic_multiples(spec, _decode_cv(q, code), range(d, max_degree - d + 1))
            for row, cofactors, pairs in zip(least[2 * d :], cofactor[2 * d :], walks):
                for g, s in pairs:
                    if not row[s]:
                        row[s] = code
                        cofactors[s] = g
    return least, cofactor


def _monic_multiples(spec: FieldSpec, pcv, ms: range) -> list[Iterator[tuple[int, int]]]:
    """For each m in the nonempty range ms, the pairs (code(g) - q^m,
    code(P * g) - q^(d + m)) for P = pcv monic of degree d and every monic
    g of degree m, in the encoding order of g.

    An odometer counts g's offset up over its m * k F_p-digits (digit
    j * k + l is the t^l part of the x^j coefficient): step i adds 1 to
    every digit at or below the p-adic valuation v of i, so the product
    gains the carry vector P * (t^l * x^j summed over digits 0 to v).  A
    step is one ``xor`` of codes when p = 2, else a lookup of c + w per
    nonzero coefficient w of that vector.  Every m shares one ruler of
    valuations and one list of carry vectors."""
    q, p, k = spec.q, spec.p, spec.k
    d, top = len(pcv) - 1, ms[-1]
    ruler = b""  # the p-adic valuations of 1, ..., p^(top * k) - 1
    for digit in range(top * k):
        ruler = (ruler + bytes((digit,))) * (p - 1) + ruler
    tps = [tuple(spec.mul(p**l, c) for c in pcv) for l in range(k)]  # t^l * P
    r = _encode_cv(spec, pcv) - q**d  # x^m * P is at offset r * q^m
    if p == 2:
        vecs = (_encode_cv(spec, tps[l]) * q**j for j in range(top) for l in range(k))
        carries = list(accumulate(vecs, xor))
        walks = [(map(carries.__getitem__, islice(ruler, p ** (m * k) - 1)), xor) for m in ms]
        return [enumerate(accumulate(*walk, initial=r * q**m)) for m, walk in zip(ms, walks)]
    shifts = [(0,) * j + tps[l] for j in range(top) for l in range(k)]  # t^l * x^j * P
    steps = [  # per carry vector: (position, c + w for every element c, weight)
        [(pos, list(map(spec.add, range(q), repeat(w))), q**pos) for pos, w in enumerate(c) if w]
        for c in accumulate(shifts, partial(_add_cv, spec))
    ]

    def step(cv: list, code: int, v: int) -> int:
        for pos, add_w, weight in steps[v]:
            old = cv[pos]
            cv[pos] = new = add_w[old]
            code += (new - old) * weight
        return code

    walks = [(islice(ruler, p ** (m * k) - 1), partial(step, [0] * m + list(pcv))) for m in ms]
    return [enumerate(accumulate(*walk, initial=r * q**m)) for m, walk in zip(ms, walks)]


def irreducibles(spec: FieldSpec, d: int, _max_degree: int = 0) -> list[Poly]:
    """All monic irreducibles of degree d, sorted by encoding: the degree-d
    entries left at 0 in the least-factor sieve to max(d, ``_max_degree``)."""
    if not isinstance(d, int) or d < 1:
        raise InvalidInput("degree must be >= 1")
    row = _least_factor_sieve(spec.p, spec.k, max(d, _max_degree))[0][d]
    return [Poly._raw(spec, _decode_cv(spec.q, c)) for c, w in enumerate(row, spec.q**d) if not w]


def irreducible_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q (necklace count)."""
    if not (isinstance(q, int) and isinstance(d, int)) or q < 2 or d < 1:
        raise InvalidInput("need q >= 2 and d >= 1")
    total = sum(mu * q**e for e, mu in mobius_divisors(d))
    if total % d:
        raise InvalidInput(f"necklace sum not divisible by {d}")  # pragma: no cover
    return total // d


def factor(f: Poly) -> Factorization:
    """Canonical factorization unit * prod(p_i^{r_i})."""
    return _factorization(f, _factor_cv)


def factor_bruteforce(f: Poly, _max_degree: int = 0) -> Factorization:
    """:func:`factor` off the least-factor sieve to max(deg f,
    ``_max_degree``), so that one table serves a batch; it divides nothing,
    so it shares no kernel with :func:`factor`, and is its independent
    oracle."""
    return _factorization(f, lambda spec, cv: _factor_cv_bruteforce(spec, cv, _max_degree))


def _factorization(f: Poly, factor_cv) -> Factorization:
    spec = _same_field(f, f)
    if f.is_zero():
        raise CannotFactorZero("cannot factor the zero polynomial")
    return Factorization(
        unit=FieldElement(spec, f.cv[-1]),
        factors=tuple((Poly._raw(spec, cv), m) for cv, m in factor_cv(spec, f.cv)),
    )


_SPLIT_SEED = 20260810


def _factor_cv(spec: FieldSpec, cv) -> list[tuple[tuple, int]]:
    """Factor a nonzero cv into sorted (monic irreducible cv, multiplicity).

    Each group of :func:`_degree_groups` is split into its degree-i
    irreducibles by :func:`_split_equal_degree`, all with the group's
    multiplicity.
    """
    rng = None
    out = []
    for i, m, e in _degree_groups(spec, cv):
        if len(e) - 1 > i and rng is None:
            rng = random.Random(_SPLIT_SEED)
        out.extend((p, m) for p in _split_equal_degree(spec, e, i, rng))
    out.sort(key=lambda fm: (len(fm[0]), _encode_cv(spec, fm[0])))
    return out


def _degree_groups(spec: FieldSpec, cv) -> Iterator[tuple[int, int, tuple]]:
    """Yield the triples (i, m, e) for a nonzero cv, by ascending i: e is
    the monic product of the distinct degree-i irreducibles that divide cv
    exactly m times.  The walk is lazy, so a caller that stops at the
    first triple pays only the Frobenius steps up to its degree.

    Distinct-degree factorization: with h = x^(q^i) mod work,
    g = gcd(work, h - x) is the product of the distinct degree-i
    irreducible factors of work once every factor of lower degree has been
    divided out (x^(q^i) - x is squarefree), so no squarefree pass is
    needed.  Multiplicities are peeled without splitting g: once work is
    divided by g, gcd(work, g) holds the factors of g that divide work
    again, so g over it is the group of multiplicity 1; repeat with that
    gcd as g.  h is reduced modulo the shrunken work by the next
    ``_powmod_cv``, which reduces its base first.  What is left once
    deg work < 2i has no two factors, so it is irreducible.
    """
    work = _monic_cv(spec, cv)
    x = (0, 1)
    h = x
    i = 1
    while len(work) - 1 >= 2 * i:
        h = _powmod_cv(spec, h, spec.q, work)
        g = _gcd_cv(spec, work, _sub_cv(spec, h, x))
        m = 1
        while len(g) > 1:
            work = _divmod_cv(spec, work, g)[0]
            again = _gcd_cv(spec, work, g)
            if len(again) < len(g):
                yield i, m, g if len(again) == 1 else _divmod_cv(spec, g, again)[0]
            g, m = again, m + 1
        i += 1
    if len(work) > 1:
        yield len(work) - 1, 1, work


def _split_equal_degree(spec: FieldSpec, g, d: int, rng) -> list:
    """Cantor-Zassenhaus: the monic degree-d irreducible factors of a
    monic squarefree g whose irreducible factors all have degree d.

    A random a with deg a < deg g is mapped to a^((q^d - 1)/2) - 1 for odd
    q, or to the trace a + a^2 + ... + a^(2^(kd - 1)) for q = 2^k; either
    is 0 on roughly half the factors of g, so its gcd with g usually
    splits g.
    """
    if len(g) - 1 == d:
        return [g]
    q = spec.q
    n = len(g) - 1
    while True:
        a = tuple(_trim([rng.randrange(q) for _ in range(n)]))
        if len(a) < 2:
            continue  # a constant maps to a constant, which never splits g
        if spec.p == 2:
            t = s = a
            for _ in range(spec.k * d - 1):
                t = _reduce_cv(spec, _sqr_cv(spec, t), g)
                s = _add_cv(spec, s, t)
        else:
            s = _sub_cv(spec, _powmod_cv(spec, a, (q**d - 1) // 2, g), (1,))
        s = _gcd_cv(spec, g, s)
        if 1 < len(s) < len(g):
            break
    return _split_equal_degree(spec, s, d, rng) + _split_equal_degree(
        spec, _divmod_cv(spec, g, s)[0], d, rng
    )


def _factor_cv_bruteforce(spec: FieldSpec, cv, max_degree: int) -> list[tuple[tuple, int]]:
    """:func:`_factor_cv` by the chain f = P * g, g = P' * g', ... of least
    factors down to 1, which lists them in canonical order."""
    n = len(cv) - 1
    least, cofactor = _least_factor_sieve(spec.p, spec.k, max(n, max_degree))
    r = _encode_cv(spec, _monic_cv(spec, cv)) - spec.q**n
    chain = []
    while n:
        chain.append(_decode_cv(spec.q, least[n][r] or spec.q**n + r))
        n, r = n - len(chain[-1]) + 1, cofactor[n][r]
    return [(pcv, len(list(run))) for pcv, run in groupby(chain)]


def enumerate_polys(spec: FieldSpec, n: int) -> Iterator[Poly]:
    """Every monic polynomial of exact degree n, in encoding order."""
    if not isinstance(n, int) or n < 0:
        raise InvalidInput("degree must be >= 0")
    q = spec.q
    lo = q**n
    for code in range(lo, 2 * lo):
        yield Poly._raw(spec, _decode_cv(q, code))


# ---------------------------------------------------------------------------
# text grammar: terms "c*x^e", "cx^e", "x^e", "x", "c" joined by "+" or "-".
# An extension-field element is a polynomial in t over F_p written in this
# grammar, so the functions take the variable name as ``_var``.


def format_poly(f: Poly, _var: str = "x") -> str:
    if not f.cv:
        return "0"
    parts = []
    for e in range(len(f.cv) - 1, -1, -1):
        v = f.cv[e]
        if v == 0:
            continue
        var = _var if e == 1 else f"{_var}^{e}"
        if e and v == 1:
            parts.append(var)
            continue
        ctext = _coeff_text(f.spec, v)
        if not e:
            parts.append(ctext)
        elif "+" in ctext or "-" in ctext:
            parts.append(f"({ctext})*{var}")
        else:
            parts.append(f"{ctext}*{var}")
    return "+".join(parts)


def parse_poly(spec: FieldSpec, text: str, _var: str = "x") -> Poly:
    """Parse the term grammar; accepts any term order and round-trips."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial text")
    add, neg = spec.add, spec.neg
    out: list[int] = []
    for sign, term in _split_terms(s):
        ctext, e = _split_term(term, _var)
        if e > DEGREE_CAP:
            raise SizeCapExceeded(f"exponent {e} exceeds the cap {DEGREE_CAP}")
        val = _coeff_value(spec, ctext)
        if e >= len(out):
            out += [0] * (e + 1 - len(out))
        out[e] = add(out[e], val if sign > 0 else neg(val))
    return Poly._raw(spec, tuple(_trim(out)))


def _coeff_text(spec: FieldSpec, v: int) -> str:
    """Text of the element encoded by v: the residue for a prime field,
    else the polynomial in t over F_p."""
    if spec.k == 1:
        return str(v)
    return format_poly(Poly._raw(field_make(spec.p), _decode_cv(spec.p, v)), _var="t")


def _coeff_value(spec: FieldSpec, text: str) -> int:
    """Encoding of an element's text, spaces removed: a residue mod p for
    a prime field, else a polynomial in t over F_p of degree < k."""
    if not text:
        raise ParseError("empty field-element text")
    if spec.k == 1:
        try:
            return int(text) % spec.p
        except ValueError:
            raise ParseError(f"bad residue {text!r} for F_{spec.p}") from None
    fp = field_make(spec.p)
    digits = parse_poly(fp, text, _var="t").cv
    if len(digits) > spec.k:
        raise ParseError(f"exponent {len(digits) - 1} out of range in {text!r}")
    return _encode_cv(fp, digits)


def _split_terms(s: str) -> list[tuple[int, str]]:
    """Signed terms at parenthesis depth 0.  A "-" right after "+" or "^"
    stays with the residue or exponent it precedes, as in t+-1 or t^-0."""
    terms = []
    depth = 0
    sign, start = 1, 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = 1
    cur = start
    for i, ch in enumerate(s[start:], start):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {s!r}")
        elif ch in "+-" and depth == 0:
            if ch == "-" and i > start and s[i - 1] in "+^":
                continue
            terms.append((sign, s[cur:i]))
            sign = -1 if ch == "-" else 1
            cur = i + 1
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {s!r}")
    terms.append((sign, s[cur:]))
    return terms


def _split_term(term: str, var: str) -> tuple[str, int]:
    """(coefficient text, exponent); the coefficient may precede the
    variable with or without "*", and a parenthesized one is unwrapped."""
    if not term:
        raise ParseError("empty term")
    ctext, found, power = term.rpartition(var)
    if not found:
        ctext, e = power, 0
    else:
        if not power:
            e = 1
        elif power[0] == "^":
            # read by int(), so t^-0 is t^0 and x^1_0 is x^10
            try:
                e = int(power[1:])
            except ValueError:
                e = -1
            if e < 0:
                raise ParseError(f"bad exponent {power[1:]!r}")
        else:
            raise ParseError(f"bad term {term!r}")
        if ctext[-1:] == "*":
            ctext = ctext[:-1]
        ctext = ctext or "1"
    if ctext[:1] == "(" and ctext[-1:] == ")":
        ctext = ctext[1:-1]
    if not ctext:
        raise ParseError(f"bad term {term!r}")
    return ctext, e

