"""The Euler totient over F_q[x] and exhaustive Lehmer-set sweeps.

For f with factorization unit * prod(p_i^{r_i}), deg(p_i) = n_i, the
totient counts the residues coprime to f:

    phi(q, f) = prod_i q^(n_i * (r_i - 1)) * (q^(n_i) - 1)

which is also q^n * prod_i (1 - q^(-n_i)).  The zero residue is never
coprime (gcd(f, 0) = monic(f) != 1), so it does not count.
``totient_bruteforce`` is the oracle for that formula: it counts the
monic residues that no monic divisor of f of degree >= 1 divides,
marking the multiples of each divisor found by trial division, and
multiplies by the q - 1 units that scale a residue (a unit multiple of
g has the same gcd with f).

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
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations, product
from math import prod

from .errors import InvalidInput, OracleOverflow, VerificationError
from .ffield import FieldSpec
from .fpoly import (
    ORACLE_CAP,
    Factorization,
    Poly,
    _decode_cv,
    _divmod_cv,
    _encode_cv,
    _factor_cv,
    _least_factor_sieve,
    _monic_cv,
    _monic_multiples,
    _same_field,
    factor,
    factor_bruteforce,
    irreducible_count,
    irreducibles,
)
from .intmath import decimal_str
from .lehmer_search import lehmer_partitions


def totient(f: Poly) -> int:
    """phi(q, f) computed from the factorization of f."""
    spec = _same_field(f, f)
    if len(f.cv) < 2:
        raise InvalidInput("totient requires degree >= 1")
    return _phi_from_parts(spec.q, _factor_cv(spec, f.cv))


def _phi_from_parts(q: int, parts) -> int:
    phi = 1
    for cv, m in parts:
        d = len(cv) - 1
        phi *= (q**d - 1) * q ** (d * (m - 1))
    return phi


def totient_bruteforce(f: Poly) -> int:
    """Count residues g, deg(g) < deg(f), with gcd(f, g) = 1, directly.

    gcd(f, c*g) = gcd(f, g) for every unit c, so the nonzero residues fall
    into classes of q - 1 that are all coprime to f or all not, and each
    class holds exactly one monic g.  The count is therefore taken over
    the monic g of degree 0 to deg(f) - 1 and multiplied by q - 1.

    gcd(f, g) = 1 iff no monic divisor h of f with 1 <= deg h < deg f
    divides g.  Trial division of monic(f) by every monic h of degree
    <= deg(f) / 2 finds each such h or its cofactor.  Walked by ascending
    degree, an h whose own cell is marked is a multiple of a smaller
    divisor and is skipped; every other h marks its monic multiples of
    degree < deg(f), in one bytearray row per degree indexed like
    :func:`_phi_rows`.  The unmarked cells are the coprime monic g.  Uses
    no factorization and no least-factor sieve.  Exponential by design; the
    independent oracle for :func:`totient`.  Raises OracleOverflow when
    q^deg(f) exceeds ``ORACLE_CAP``.
    """
    spec = _same_field(f, f)
    if len(f.cv) < 2:
        raise InvalidInput("totient requires degree >= 1")
    n = len(f.cv) - 1
    q = spec.q
    if q**n > ORACLE_CAP:
        raise OracleOverflow(f"q^deg = {q}^{n} exceeds the oracle cap {ORACLE_CAP}")
    fcv = _monic_cv(spec, f.cv)
    divisors = set()
    for d in range(1, n // 2 + 1):
        for code in range(q**d, 2 * q**d):
            h = _decode_cv(q, code)
            cofactor, rem = _divmod_cv(spec, fcv, h)
            if not rem:
                divisors.update((h, cofactor))
    rows = [bytearray(q**e) for e in range(n)]
    for h in sorted(divisors, key=len):
        d = len(h) - 1
        if rows[d][_encode_cv(spec, h) - q**d]:
            continue
        for row, pairs in zip(rows[d:], _monic_multiples(spec, h, range(n - d))):
            for _, s in pairs:
                row[s] = 1
    return sum(row.count(0) for row in rows) * (q - 1)


@dataclass(frozen=True)
class TotientReport:
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
    _same_field(f, f)
    if len(f.cv) < 2:
        raise InvalidInput("totient requires degree >= 1")
    return _report(f, factor(f))


def _report(f: Poly, fac: Factorization) -> TotientReport:
    """The report of f, built from its factorization ``fac``."""
    q = f.spec.q
    n = len(f.cv) - 1
    phi = _phi_from_parts(q, [(p.cv, m) for p, m in fac.factors])
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
            replace(r, f=r.f * u, factorization=replace(r.factorization, unit=u))
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
