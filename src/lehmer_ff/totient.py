"""The Euler totient over F_q[x] and exhaustive Lehmer-set sweeps.

For f with factorization unit * prod(p_i^{r_i}), deg(p_i) = n_i, the
totient counts the residues coprime to f:

    phi(q, f) = prod_i q^(n_i * (r_i - 1)) * (q^(n_i) - 1)

which is also q^n * prod_i (1 - q^(-n_i)).  The zero residue is never
coprime (gcd(f, 0) = monic(f) != 1), so it does not count.  It needs
only each factor's degree and multiplicity, so ``totient`` reads them
off the distinct-degree groups and splits none.
``totient_bruteforce`` is the oracle for that formula: it counts the
monic residues that no irreducible factor of f divides, marking the
multiples of each factor as trial division finds and divides it out,
and multiplies by the q - 1 units that scale a residue (a unit multiple
of g has the same gcd with f).  It tries only irreducible divisors,
listed per degree by trial division by the irreducibles of at most half
that degree (``_trial_divisors``), so it needs no factoring and no
sieve.  Its marks are int bitsets, one per degree, and each factor ORs
in masks of its multiples from a bounded cache (at most 128 entries of
at most ``ORACLE_CAP`` bits, 16 MiB), so a run over many f walks the
multiples of each divisor once.  ``_bruteforce_degree`` makes the same
count for every monic f of one degree n at once, with no division: a
sieve of Eratosthenes over F_q[x] finds the irreducibles below degree n
as the monic polynomials no lower irreducible marks, and each walks its
multiples up to degree n once, naming the f it divides and marking
their residues.  It serves the oracle suite; ``totient_bruteforce``
serves one polynomial, for which the sieve would need every irreducible
below its degree.

``lehmer_set`` collects every monic reducible f up to a degree bound
whose totient divides q^deg(f) - 1.  It takes its factor-degree shapes
from ``lehmer_search.lehmer_partitions``, the search for the partition
condition prod(q^{e_i} - 1) | q^n - 1, and multiplies out the passing
ones.  ``lehmer_set_bruteforce`` is its independent oracle: it reads
phi(q, f) for every monic f in range off ``fpoly``'s least-factor sieve,
with no factoring and no partition search.  Both factor each monic hit
once, with the sieve oracle ``fpoly.factor_bruteforce``, and return its
``TotientReport``; a unit multiple reuses those factors.  The
reports are guarded: each must meet the Lehmer condition and known
structural facts (squarefreeness, factor-degree divisibility, a lower
bound on the number of distinct factors).
"""

from __future__ import annotations

from array import array
from functools import lru_cache, partial
from itertools import combinations, compress, count, product
from math import prod
from typing import Iterator, NamedTuple

from .errors import InvalidInput, OracleOverflow, VerificationError
from .ffield import FieldSpec
from .fpoly import (
    ORACLE_CAP,
    Factorization,
    Poly,
    _decode_cv,
    _degree_groups,
    _divmod_cv,
    _least_factor_sieve,
    _monic_cv,
    _monic_multiples,
    _reduce_cv,
    _same_field,
    factor,
    factor_bruteforce,
    irreducible_count,
    irreducibles,
)
from .intmath import decimal_str
from .lehmer_search import lehmer_partitions


def totient(f: Poly) -> int:
    """phi(q, f) from the degree and multiplicity of each irreducible
    factor, read off ``fpoly._degree_groups`` with no splitting: a group
    of degree r * i holds r factors of degree i."""
    spec = _totient_field(f)
    groups = _degree_groups(spec, f.cv)
    parts = [(i, m) for i, m, e in groups for _ in range((len(e) - 1) // i)]
    return _phi_from_parts(spec.q, parts)


def _totient_field(f: Poly) -> FieldSpec:
    """The field of f, which the totient functions take only at degree >= 1."""
    spec = _same_field(f, f)
    if len(f.cv) < 2:
        raise InvalidInput("totient requires degree >= 1")
    return spec


def _phi_from_parts(q: int, parts) -> int:
    """prod q^(d * (m - 1)) * (q^d - 1) over the (degree d, multiplicity m)
    pairs of the irreducible factors."""
    phi = 1
    for d, m in parts:
        phi *= (q**d - 1) * q ** (d * (m - 1))
    return phi


def totient_bruteforce(f: Poly) -> int:
    """Count residues g, deg(g) < deg(f), with gcd(f, g) = 1, directly.

    gcd(f, c*g) = gcd(f, g) for every unit c, so the nonzero residues fall
    into classes of q - 1 that are all coprime to f or all not, and each
    class holds exactly one monic g.  The count is therefore taken over
    the monic g of degree 0 to deg(f) - 1 and multiplied by q - 1.

    gcd(f, g) = 1 iff no irreducible factor of f divides g.  The monic
    irreducibles h of :func:`_trial_divisors` are tried on work = monic(f)
    by ascending degree while 2 * deg h <= deg work.  Each h that divides
    work has every power divided out of work and marks its monic
    multiples of degree < deg(f) by ORing its masks from
    :func:`_multiple_masks` into the bitset row of each degree, one int
    with a bit per monic residue (:func:`_coprime_count`).  What is left
    of work, if of degree >= 1, has no factor of at most half its degree,
    so it is irreducible too and marks its multiples when its degree is
    below deg(f).  The clear bits are the coprime monic g.  The masks
    stay cached, so a run over many f walks the multiples of each divisor
    once.  Uses no factorization and no least-factor sieve.  Exponential
    by design; the independent oracle for :func:`totient`.  Raises
    OracleOverflow when q^deg(f) exceeds ``ORACLE_CAP``.
    """
    spec = _totient_field(f)
    n = len(f.cv) - 1
    q = spec.q
    if q**n > ORACLE_CAP:
        raise OracleOverflow(f"q^deg = {q}^{n} exceeds the oracle cap {ORACLE_CAP}")
    divisors = []
    work = _monic_cv(spec, f.cv)
    d = 1
    while 2 * d < len(work):
        for h in _trial_divisors(spec, d):
            quo, rem = _divmod_cv(spec, work, h)
            if rem:
                continue
            while not rem:
                work = quo
                quo, rem = _divmod_cv(spec, work, h)
            divisors.append(_multiple_masks(spec, h, n - 1))
            if 2 * d >= len(work):
                break
        d += 1
    if 1 < len(work) <= n:
        divisors.append(_multiple_masks(spec, work, n - 1))
    return _coprime_count(q, n, divisors)


def _coprime_count(q: int, n: int, divisors) -> int:
    """(q - 1) times the monic g of degree below n that no divisor marks.

    Each divisor is given by the rows of its multiples from
    :func:`_multiple_masks`, one per degree up to n - 1; they are ORed
    into one bitset row per degree, whose clear bits are the coprime g."""
    rows = [0] * n
    for masks in divisors:
        for e, mask in enumerate(masks, n - len(masks)):
            rows[e] |= mask
    return sum(q**e - row.bit_count() for e, row in enumerate(rows)) * (q - 1)


def _bruteforce_degree(spec: FieldSpec, n: int) -> list[int]:
    """:func:`totient_bruteforce` of every monic f of degree n >= 1, in
    encoding order, by a sieve of multiples that divides nothing.

    Eratosthenes over F_q[x]: for d = 1 to n - 1, the monic h of degree d
    that no irreducible of lower degree has marked are the irreducibles
    of degree d.  Each walks its monic multiples up to degree n once,
    through :func:`_multiple_masks`.  Its degree-n row names the f it
    divides, and its lower rows are the residues it marks for those f,
    which :func:`_coprime_count` counts as for one polynomial.  Uses no
    division, no factorization and no least-factor sieve.  Raises
    OracleOverflow, before any walk, when q^(2n) exceeds ``ORACLE_CAP``:
    the table has q^n entries and the masks about q^(2n-1) bits.
    """
    q = spec.q
    if q ** (2 * n) > ORACLE_CAP:
        raise OracleOverflow(f"q^(2n) = {q}^{2 * n} exceeds the oracle cap {ORACLE_CAP}")
    marked = [0] * n  # the multiples of every irreducible found so far
    divisors = [[] for _ in range(q**n)]
    for d in range(1, n):
        size = q**d
        for s in _set_offsets(marked[d] ^ ((1 << size) - 1), size):
            *lower, top = _multiple_masks(spec, _decode_cv(q, size + s), n)
            for e, mask in enumerate(lower, d):
                marked[e] |= mask
            for t in _set_offsets(top, q**n):
                divisors[t].append(lower)
    return [_coprime_count(q, n, masks) for masks in divisors]


def _set_offsets(row: int, size: int) -> Iterator[int]:
    """The offsets s, ascending, whose bit size - 1 - s is set in row: the
    row layout of :func:`_multiple_masks`."""
    return compress(count(), map("1".__eq__, format(row, f"0{size}b")))


# An entry lists the irreducibles of a degree d with q^(2d) <= ORACLE_CAP,
# so at most 2^10 of them.
@lru_cache(maxsize=64)
def _trial_divisors(spec: FieldSpec, d: int) -> tuple[tuple, ...]:
    """The monic irreducibles of degree d, in encoding order: the monic h
    of degree d that no irreducible of degree at most d / 2 divides.  Past
    degree 1 the h with h(0) = 0, which x divides, are left out with no
    division."""
    q = spec.q
    if d == 1:
        return tuple((c, 1) for c in range(q))
    small = [p for e in range(1, d // 2 + 1) for p in _trial_divisors(spec, e)][1:]  # not x
    found = []
    for low in product(*[range(q)] * (d - 1), range(1, q)):
        h = (*reversed(low), 1)
        for p in small:
            if not _reduce_cv(spec, list(h), p):
                break
        else:
            found.append(h)
    return tuple(found)


# An entry holds one bit per monic polynomial of degree below some n with
# q^n <= ORACLE_CAP, or of degree at most n with q^(2n) <= ORACLE_CAP, so
# at most ORACLE_CAP bits, and the cache at most 128 * 2^20 bits, 16 MiB.
# One `verify --suite oracle` run reads 99 keys; a degree count reads at
# most 127, for F_2 at degree 10, so a repeated count walks nothing.
_MASK_CACHE_SIZE = 128


@lru_cache(maxsize=_MASK_CACHE_SIZE)
def _multiple_masks(spec: FieldSpec, h: tuple, top: int) -> tuple[int, ...]:
    """For h monic of degree d <= top, one int per degree e = d to top
    with bit q^e - 1 - s set for each monic multiple of h of code q^e + s.

    One :func:`fpoly._monic_multiples` walk writes a row of base-2 digits
    per degree, offset s at index s, which ``int`` reads most significant
    digit first, in time linear in the row."""
    d = len(h) - 1
    masks = []
    for e, pairs in enumerate(_monic_multiples(spec, h, range(top - d + 1)), d):
        row = bytearray(b"0") * spec.q**e
        for _, s in pairs:
            row[s] = 49  # b"1"
        masks.append(int(row, 2))
    return tuple(masks)


class TotientReport(NamedTuple):
    """Everything the divisibility test knows about one polynomial."""

    f: Poly
    phi: int
    modulus_value: int  # q^deg(f) - 1
    divides: bool
    reducible: bool
    factorization: Factorization

    def as_record(self) -> dict:
        """Flat record for JSON/CSV serialization."""
        return {
            "q": self.f.spec.q,
            "degree": len(self.f.cv) - 1,
            "poly": str(self.f),
            "phi": decimal_str(self.phi),
            "modulus_value": decimal_str(self.modulus_value),
            "divides": self.divides,
            "reducible": self.reducible,
            "factors": [[str(p), m] for p, m in self.factorization.factors],
        }


def totient_report(f: Poly) -> TotientReport:
    _totient_field(f)
    return _report(f, factor(f))


def _report(f: Poly, fac: Factorization) -> TotientReport:
    """The report of f, built from its factorization ``fac``."""
    q = f.spec.q
    n = len(f.cv) - 1
    phi = _phi_from_parts(q, [(len(p.cv) - 1, m) for p, m in fac.factors])
    modulus_value = q**n - 1
    return TotientReport(
        f=f,
        phi=phi,
        modulus_value=modulus_value,
        divides=modulus_value % phi == 0,
        reducible=fac.total_multiplicity >= 2,
        factorization=fac,
    )


def lehmer_shapes(q: int, n: int) -> list[tuple[int, ...]]:
    """Factor-degree shapes of the degree-n hits over F_q, in colex order.

    A hit is squarefree (q divides phi otherwise), so its phi is
    prod(q^{e_i} - 1) over its factor degrees e_i.  Its shape is thus a
    partition of n that passes ``mersenne_divisibility`` and in which a
    part d occurs at most ``irreducible_count(q, d)`` times: the search
    ``lehmer_partitions`` with that cap.
    """
    cap = partial(irreducible_count, q)
    return [part.parts for part in lehmer_partitions(q, n, cap)]


def lehmer_set(
    spec: FieldSpec,
    max_degree: int,
    expand_units: bool = False,
    workers: int = 1,
) -> list[TotientReport]:
    """The reports of all f with 1 <= deg(f) <= max_degree whose totient
    divides q^deg(f) - 1 and which are reducible.

    Each shape of :func:`lehmer_shapes` is realised as every product of
    distinct monic irreducibles of its degrees, so only the degrees in a
    passing shape need their irreducibles, each listed once.
    ``workers`` is validated and otherwise ignored: the sweep runs in one
    process.

    Monic representatives by default; with ``expand_units`` every monic
    hit is multiplied by every unit.  Sorted by the (degree, encoding) of
    each report's polynomial.
    """
    _check_max_degree(max_degree)
    if workers < 1:
        raise InvalidInput("workers must be >= 1")
    shapes = [parts for n in range(2, max_degree + 1) for parts in lehmer_shapes(spec.q, n)]
    top = max(map(sum, shapes), default=0)  # the table `_finish` factors the hits off
    pool = {d: irreducibles(spec, d, top) for d in sorted({d for parts in shapes for d in parts})}
    hits: list[Poly] = []
    for parts in shapes:
        groups = [combinations(pool[d], parts.count(d)) for d in sorted(set(parts))]
        for choice in product(*groups):
            factors = [g for group in choice for g in group]
            hits.append(prod(factors, start=Poly.one(spec)))
    hits.sort(key=Poly.sort_key)
    return _finish(spec, hits, expand_units)


def lehmer_set_bruteforce(spec: FieldSpec, max_degree: int) -> list[TotientReport]:
    """:func:`lehmer_set` by computing phi(q, f) for every monic f in range
    with :func:`_phi_rows` and keeping the reducible f whose phi divides
    q^deg(f) - 1 (a reducible f never has phi = q^deg(f) - 1).

    Exponential by design; the independent oracle for :func:`lehmer_set`.
    Raises OracleOverflow if the sieve would exceed ``ORACLE_CAP``
    polynomials.
    """
    _check_max_degree(max_degree)
    q = spec.q
    hits: list[Poly] = []
    phi = _phi_rows(spec, max_degree)
    for n in range(1, max_degree + 1):
        mod_value = q**n - 1
        for code, v in enumerate(phi[n], q**n):
            if v != mod_value and mod_value % v == 0:
                hits.append(Poly._raw(spec, _decode_cv(q, code)))
    return _finish(spec, hits, expand_units=False)


def _phi_rows(spec: FieldSpec, max_degree: int) -> list[array]:
    """phi[n][r] = phi(q, f) for the monic f of degree n <= max_degree
    with encoding q^n + r (phi[0] holds f = 1).

    The one step per entry of ``intmath.phi_sieve``, with q^d in
    place of p: with P of degree d the least factor of f and g = f / P,
    phi(f) is phi(g) * q^d when P also divides g, that is when P is g's
    least factor, and else phi(g) * (q^d - 1)."""
    least, cofactor = _least_factor_sieve(spec.p, spec.k, max_degree)
    power = [spec.q**e for e in range(max_degree + 1)]
    # the degree of each code a least factor of a reducible f can have
    degree_of = {c: d for d in range(max_degree // 2 + 1) for c in range(power[d], 2 * power[d])}
    phi = [array("I", [1])]
    for n in range(1, max_degree + 1):
        row = array("I", [power[n] - 1]) * power[n]  # the irreducibles'
        for r, (pc, s) in enumerate(zip(least[n], cofactor[n])):
            if pc:  # q^d, less 1 unless P is also g's least factor
                d = degree_of[pc]
                m = n - d
                row[r] = phi[m][s] * (power[d] - ((least[m][s] or power[m] + s) != pc))
        phi.append(row)
    return phi


def _check_max_degree(max_degree: int) -> None:
    if max_degree < 1:
        raise InvalidInput("max_degree must be >= 1")


def _finish(
    spec: FieldSpec, hits: list[Poly], expand_units: bool
) -> list[TotientReport]:
    """Report and guard the sorted monic hits, then optionally expand by
    units.

    Each monic hit is factored once, off one sieve table to the largest
    hit degree: hits exist only over F_2 and F_3, where it is the cheaper
    exact method.  A unit multiple u*f has the same phi and the factors of
    f with unit u, so its report is the monic one with f and unit replaced."""
    top = len(hits[-1].cv) - 1 if hits else 0
    reports = [_report(f, factor_bruteforce(f, top)) for f in hits]
    bad = hit_structure_violations(spec, reports)
    if bad:
        raise VerificationError("; ".join(bad))
    if expand_units:
        expanded = [
            r._replace(f=r.f * u, factorization=r.factorization._replace(unit=u))
            for r in reports
            for u in spec.units()
        ]
        expanded.sort(key=lambda r: r.f.sort_key())
        return expanded
    return reports


def hit_structure_violations(spec: FieldSpec, hits: list[TotientReport]) -> list[str]:
    """The Lehmer condition (phi divides q^deg - 1, f reducible),
    squarefreeness, factor-degree divisibility, and the distinct-factor
    lower bound floor(log2(q+1)), checked on the reports of a finished
    sweep."""
    min_factors = (spec.q + 1).bit_length() - 1
    bad = []
    for r in hits:
        f, fac = r.f, r.factorization
        deg = len(f.cv) - 1
        if not r.divides:
            bad.append(f"{f}: phi {r.phi} does not divide {r.modulus_value}")
        if not r.reducible:
            bad.append(f"{f}: irreducible")
        if not fac.is_squarefree():
            bad.append(f"{f}: not squarefree")
        if any(deg % (len(p.cv) - 1) for p, _ in fac.factors):
            bad.append(f"{f}: factor degree does not divide {deg}")
        if fac.distinct_count < min_factors:
            bad.append(f"{f}: only {fac.distinct_count} distinct factors")
    return bad
