"""Polynomial arithmetic, factorization, sieve, and enumeration streams."""

import importlib
import random
import time

import pytest

from lehmer_ff import (
    CannotFactorZero,
    DivisionByZero,
    FieldMismatch,
    InvalidInput,
    InvalidModulus,
    NEG_INF,
    OracleOverflow,
    ParseError,
    Poly,
    UndefinedGcd,
    enumerate_polys,
    factor,
    factor_bruteforce,
    field_from_order,
    field_make,
    irreducible_count,
    irreducibles,
    is_irreducible,
    parse_poly,
    poly_gcd,
    poly_powmod,
    totient,
    totient_bruteforce,
    totient_report,
    zsigmondy,
)
import lehmer_ff.fpoly as fpoly_kernels
from lehmer_ff.fpoly import DEGREE_CAP
from properties import all_polys

RNG_SEED = 20260810


def P(spec, text):
    return parse_poly(spec, text)


# -- gcd ---------------------------------------------------------------------


def test_gcd_examples(f2):
    assert poly_gcd(P(f2, "x^2+x"), P(f2, "x^2+1")) == P(f2, "x+1")
    assert poly_gcd(P(f2, "x^3+x+1"), P(f2, "x")) == Poly.one(f2)


def test_gcd_with_zero_is_monic_normalization(f3):
    f = P(f3, "2*x^2+2")
    assert poly_gcd(f, Poly.zero(f3)) == P(f3, "x^2+1")
    assert poly_gcd(Poly.zero(f3), f) == P(f3, "x^2+1")


def test_gcd_errors(f2, f3):
    with pytest.raises(UndefinedGcd):
        poly_gcd(Poly.zero(f2), Poly.zero(f2))
    with pytest.raises(FieldMismatch):
        poly_gcd(Poly.one(f2), Poly.one(f3))


def random_poly(rng, spec, max_degree):
    deg = rng.randint(0, max_degree)
    cv = [rng.randrange(spec.q) for _ in range(deg)] + [rng.randrange(1, spec.q)]
    return Poly(spec, cv)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_gcd_properties_random(q, f2, f3, f4, f9):
    spec = {2: f2, 3: f3, 4: f4, 9: f9}[q]
    rng = random.Random(RNG_SEED * 1009 + q)
    for _ in range(60):
        f = random_poly(rng, spec, 6)
        g = random_poly(rng, spec, 6)
        d = poly_gcd(f, g)
        assert d == poly_gcd(g, f)
        assert d.is_monic()
        assert (f % d).is_zero()
        assert (g % d).is_zero()


# -- powmod ------------------------------------------------------------------


def test_powmod_examples(f2):
    f = P(f2, "x^2+x+1")
    assert poly_powmod(P(f2, "x"), 3, f) == Poly.one(f2)
    assert poly_powmod(P(f2, "x^5+x"), 0, f) == Poly.one(f2)
    assert poly_powmod(P(f2, "x"), 2, P(f2, "x^2")) == Poly.zero(f2)


def test_powmod_huge_exponent(f3):
    f = P(f3, "x^3+2*x+1")
    # multiplicative order of any unit residue divides 3^3 - 1 = 26
    g = P(f3, "x+1")
    assert poly_powmod(g, 2**64, f) == poly_powmod(g, 2**64 % 26, f)


def test_powmod_additivity_random(f5):
    rng = random.Random(RNG_SEED)
    f = P(f5, "x^4+x+1")
    for _ in range(40):
        g = random_poly(rng, f5, 5)
        a = rng.randrange(0, 500)
        b = rng.randrange(0, 500)
        lhs = poly_powmod(g, a + b, f)
        rhs = (poly_powmod(g, a, f) * poly_powmod(g, b, f)) % f
        assert lhs == rhs


def _outcome(build):
    """What ``build()`` returns, or the class of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (2, 2), (3, 2), (2, 8)])
def test_one_rule_turns_an_int_or_an_element_into_an_encoding(p, k):
    """A coefficient, ``element`` and an arithmetic operand read a value
    the same way: an int is a residue mod p in a prime field and an
    encoding in [0, q) otherwise, an element of an equal field is its
    encoding, and anything else is refused with one exception class."""
    from lehmer_ff.ffield import _field_make_cached

    spec = field_make(p, k)
    _field_make_cached.cache_clear()
    rebuilt = field_make(p, k)
    assert rebuilt is not spec and rebuilt == spec
    q = spec.q
    cases = [
        (v, v % q if k == 1 else v if 0 <= v < q else InvalidInput)
        for v in range(-q - 1, 2 * q + 2)
    ]
    cases += [
        (spec.element(q - 1), q - 1),
        (rebuilt.element(1), 1),
        (field_make(3).element(1), FieldMismatch),
        (1.0, InvalidInput),
    ]
    for v, expected in cases:
        outcomes = [
            _outcome(lambda: Poly(spec, [v, 1]).cv[0]),
            _outcome(lambda: spec.element(v).val),
            _outcome(lambda: (spec.zero + v).val),
        ]
        assert outcomes == [expected] * 3, (v, outcomes)


def test_two_operand_functions_refuse_a_non_polynomial(f2):
    x = Poly.x(f2)
    for other in (3, f2.one, None, "x"):
        for call in (
            lambda: poly_gcd(x, other),
            lambda: poly_gcd(other, x),
            lambda: poly_powmod(other, 2, x),
            lambda: poly_powmod(x, 2, other),
        ):
            with pytest.raises(InvalidInput):
                call()


@pytest.mark.parametrize(
    "func",
    [factor, factor_bruteforce, is_irreducible, totient, totient_report, totient_bruteforce],
    ids=lambda func: func.__name__,
)
def test_one_operand_functions_refuse_a_non_polynomial(f2, func):
    for operand in (3, f2.one):
        with pytest.raises(InvalidInput, match="expected a polynomial"):
            func(operand)


def test_powmod_requires_degree_one_modulus(f2):
    with pytest.raises(InvalidModulus):
        poly_powmod(P(f2, "x"), 2, Poly.one(f2))


# -- irreducibility and the sieve ---------------------------------------------


def test_is_irreducible_examples(f2, f3):
    assert is_irreducible(P(f2, "x^2+x+1"))
    assert not is_irreducible(P(f2, "x^2+1"))  # (x+1)^2
    assert is_irreducible(P(f3, "x"))


def test_is_irreducible_rejects_constants(f2):
    with pytest.raises(InvalidInput):
        is_irreducible(Poly.one(f2))


def test_irreducibles_listed(f2, f3):
    assert [str(f) for f in irreducibles(f2, 3)] == ["x^3+x+1", "x^3+x^2+1"]
    assert [str(f) for f in irreducibles(f3, 1)] == ["x", "x+1", "x+2"]
    assert [str(f) for f in irreducibles(f2, 1)] == ["x", "x+1"]
    assert [str(f) for f in irreducibles(f2, 2)] == ["x^2+x+1"]


def test_irreducible_count_examples():
    assert irreducible_count(2, 3) == 2
    assert irreducible_count(3, 1) == 3
    assert irreducible_count(2, 4) == 3  # (2^4 - 2^2) / 4


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_degree_weighted_counts_sum_to_q_power(q):
    for n in range(1, 11):
        total = sum(d * irreducible_count(q, d) for d in range(1, n + 1) if n % d == 0)
        assert total == q**n


def test_sieve_cache_is_bounded():
    """Twin of the field-cache bound: the least-factor table cache holds
    one table, so the degree-1 tables of 33 prime fields evict F_2's
    degree-3 table, which then rebuilds equal."""
    from lehmer_ff.fpoly import _decode_cv, _least_factor_sieve
    from lehmer_ff.intmath import is_prime

    assert _least_factor_sieve.cache_info().maxsize == 1
    first = _least_factor_sieve(2, 1, 3)
    others = [p for p in range(3, 1000) if is_prime(p)][:33]
    for p in others:
        assert len(irreducibles(field_make(p), 1)) == p
        assert _least_factor_sieve.cache_info().currsize <= 1
    rebuilt = _least_factor_sieve(2, 1, 3)
    assert rebuilt is not first  # F_2's table was evicted
    assert rebuilt == first
    least, _ = first
    own = [_decode_cv(2, 8 + r) for r, c in enumerate(least[3]) if not c]
    assert own == [(1, 1, 0, 1), (1, 0, 1, 1)]


@pytest.mark.parametrize("q,dmax", [(2, 8), (3, 8), (4, 8)])
def test_sieve_length_matches_count(q, dmax, f2, f3, f4):
    spec = {2: f2, 3: f3, 4: f4}[q]
    for d in range(1, dmax + 1):
        polys = irreducibles(spec, d)
        assert len(polys) == irreducible_count(q, d)
        assert len(set(polys)) == len(polys)
        encs = [f.encoding() for f in polys]
        assert encs == sorted(encs)
        assert all(f.is_monic() for f in polys)


def test_sieve_agrees_with_trial_division(f3):
    for d in (2, 3, 4):
        sieved = set(irreducibles(f3, d))
        brute = {
            f for f in enumerate_polys(f3, d) if is_irreducible(f)
        }
        assert sieved == brute


# -- factor -------------------------------------------------------------------


def test_factor_examples(f2, f3):
    fac = factor(P(f2, "x^4+x"))
    assert fac.unit == f2.one
    assert [(str(p), m) for p, m in fac.factors] == [
        ("x", 1), ("x+1", 1), ("x^2+x+1", 1),
    ]
    fac = factor(P(f3, "2*x"))
    assert fac.unit == f3.element(2)
    assert [(str(p), m) for p, m in fac.factors] == [("x", 1)]
    fac = factor(P(f2, "x^2"))
    assert [(str(p), m) for p, m in fac.factors] == [("x", 2)]


def test_factor_zero_raises(f2):
    with pytest.raises(CannotFactorZero):
        factor(Poly.zero(f2))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_factor_roundtrip_exhaustive(q, f2, f3, f4):
    spec = {2: f2, 3: f3, 4: f4}[q]
    for n in range(1, 7):
        for f in all_polys(spec, n):
            fac = factor(f)
            assert fac.expand() == f
            assert all(is_irreducible(p) and p.is_monic() for p, _ in fac.factors)
            keys = [(len(p.cv), p.encoding()) for p, _ in fac.factors]
            assert keys == sorted(keys)
            assert len(set(p for p, _ in fac.factors)) == len(fac.factors)


# every monic polynomial of these degrees: 25,454 in all
ORACLE_FACTOR_RANGES = ((2, 10), (3, 7), (4, 5), (5, 5), (7, 4), (8, 4), (9, 4))


def test_factor_equals_trial_division_oracle_exhaustive():
    for q, max_deg in ORACLE_FACTOR_RANGES:
        spec = field_from_order(q)
        units = list(spec.units())
        for n in range(1, max_deg + 1):
            for i, f in enumerate(enumerate_polys(spec, n)):
                assert factor(f) == factor_bruteforce(f), (q, str(f))
                if q in (3, 4):
                    g = f * units[i % len(units)]
                    assert factor(g) == factor_bruteforce(g), (q, str(g))


def test_is_irreducible_equals_sieve_membership():
    """`is_irreducible` against the sieve for q <= 9 and n <= 6.

    Where the degree-n sieve is cheap (q^n <= 4096) every monic f is
    checked against membership in it.  Beyond that a seeded sample is
    checked against trial division, whose sieve stops at degree n/2.
    """
    rng = random.Random(RNG_SEED)
    for q in (2, 3, 4, 5, 7, 8, 9):
        spec = field_from_order(q)
        for n in range(1, 7):
            if q**n <= 4096:
                irr = set(irreducibles(spec, n))
                for f in enumerate_polys(spec, n):
                    assert is_irreducible(f) == (f in irr), (q, str(f))
            else:
                for _ in range(100):
                    f = Poly(spec, [rng.randrange(q) for _ in range(n)] + [1])
                    (_, m), *rest = factor_bruteforce(f).factors
                    assert is_irreducible(f) == (m == 1 and not rest), (q, str(f))


@pytest.mark.parametrize("q,g", [(2, "x^20+x^3+1"), (65521, "x^20+x+31")])
def test_is_irreducible_stops_at_the_first_factor(q, g, monkeypatch):
    """x * g has the factor x of degree 1, so the test makes one Frobenius
    step x^q mod f and stops there; a walk consumed to its end would make
    deg g / 2 + 1 of them."""
    spec = field_from_order(q)
    g = P(spec, g)
    assert is_irreducible(g)
    fpoly_module = importlib.import_module("lehmer_ff.fpoly")
    calls = []
    powmod = fpoly_module._powmod_cv

    def counted(*args):
        calls.append(args[2])
        return powmod(*args)

    monkeypatch.setattr(fpoly_module, "_powmod_cv", counted)
    assert not is_irreducible(P(spec, "x") * g)
    assert calls == [q]


def test_factor_bruteforce_divides_nothing(monkeypatch):
    """The oracle follows the sieve's chain of least factors, so it gives
    the factorizations of `factor` with every division kernel made to
    raise."""
    f2, f9 = field_from_order(2), field_from_order(9)
    monic = [
        f
        for spec, max_deg in ((f2, 8), (f9, 3))
        for n in range(1, max_deg + 1)
        for f in enumerate_polys(spec, n)
    ]
    units = list(f9.units())[1:]
    scaled = [f * units[i % len(units)] for i, f in enumerate(monic) if f.spec == f9]
    expected = [(f, factor(f)) for f in monic + scaled]

    def refuse(*args, **kwargs):
        raise AssertionError("the factor oracle must not divide")

    fpoly_module = importlib.import_module("lehmer_ff.fpoly")
    for name in ("_reduce_cv", "_divmod_cv", "_gcd_cv", "_degree_groups", "_factor_cv"):
        monkeypatch.setattr(fpoly_module, name, refuse)
    for f, fac in expected:
        assert factor_bruteforce(f) == fac, str(f)


# the smallest tables past the cap: the documented domain of the sieve
# oracles ends at F_2 to degree 19, F_3 to 12, F_9 to 6 and degree 2 for
# q <= 1021
OVER_THE_CAP = [(2, 20), (3, 13), (9, 7), (1031, 2), (65521, 2)]


@pytest.mark.parametrize("q,degree", OVER_THE_CAP)
def test_irreducibles_refuse_past_the_cap(q, degree):
    spec = field_from_order(q)
    t0 = time.perf_counter()
    with pytest.raises(OracleOverflow):
        irreducibles(spec, degree)
    assert time.perf_counter() - t0 < 1


def test_irreducibles_refuse_far_past_the_cap_before_any_power():
    # 2^100000 entries: refused from the bit lengths, with no power taken
    t0 = time.perf_counter()
    with pytest.raises(OracleOverflow, match="to degree 100000 exceeds"):
        irreducibles(field_make(2), 10**5)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("q,degree", OVER_THE_CAP)
def test_factor_bruteforce_refuses_past_the_cap(q, degree):
    f = Poly(field_from_order(q), [1] * (degree + 1))
    t0 = time.perf_counter()
    with pytest.raises(OracleOverflow):
        factor_bruteforce(f)
    assert time.perf_counter() - t0 < 1


def _random_irreducible(rng, spec, d):
    while True:
        f = Poly(spec, [rng.randrange(spec.q) for _ in range(d)] + [1])
        if is_irreducible(f):
            return f


@pytest.mark.parametrize("q", [65521, 65536])
def test_factor_large_fields_in_bounded_time(q):
    spec = field_from_order(q)
    rng = random.Random(RNG_SEED + q)
    start = time.perf_counter()
    g, h = _random_irreducible(rng, spec, 2), _random_irreducible(rng, spec, 3)
    lin = Poly(spec, [rng.randrange(q), 1])
    known = {  # f -> phi from its known factorization
        g * g * h: (q**2 - 1) * q**2 * (q**3 - 1),
        lin * lin * lin * g: (q - 1) * q**2 * (q**2 - 1),
    }
    f = Poly(spec, [rng.randrange(q) for _ in range(8)] + [rng.randrange(1, q)])
    for poly in (*known, f):
        fac = factor(poly)
        assert fac.expand() == poly
        assert all(is_irreducible(p) and p.is_monic() for p, _ in fac.factors)
        phi = 1
        for p, m in fac.factors:
            d = len(p.cv) - 1
            phi *= (q**d - 1) * q ** (d * (m - 1))
        assert totient(poly) == known.get(poly, phi)
    assert time.perf_counter() - start < 5.0


def test_factor_is_repeatable():
    for q in (3, 16, 27, 65521):
        spec = field_from_order(q)
        rng = random.Random(RNG_SEED + q)
        # several factors of one degree, so equal-degree splitting runs
        f = Poly.one(spec)
        for d in (1, 1, 1, 2, 2):
            f = f * Poly(spec, [rng.randrange(q) for _ in range(d)] + [1])
        first = factor(f)
        factor(f * f)
        assert factor(f) == first
        assert first.expand() == f


# -- kernel properties against a FieldElement reference ----------------------

# every kernel family: native ints (2, 3, 257, 65521), exp/log tables in
# characteristic 2 (4, 256, 4096, 65536) and Zech tables (9, 243 = 3^5).
# The reference multiplies with spec.add and spec.mul alone; its division
# takes the leading inverse from spec.inv, which tests/test_ffield.py checks
# against multiplication.
KERNEL_FIELDS = (2, 3, 4, 9, 243, 256, 257, 4096, 65521, 65536)


def ref_rem(a, b):
    """a mod b on trimmed lists of FieldElement, by schoolbook division."""
    a = list(a)
    lead_inv = b[-1].inverse()
    while len(a) >= len(b):
        c = a[-1] * lead_inv
        shift = len(a) - len(b)
        for j, bj in enumerate(b):
            a[shift + j] = a[shift + j] - c * bj
        while a and a[-1].is_zero():
            a.pop()
    return a


def ref_mul(a, b):
    """a * b on trimmed lists of FieldElement, by schoolbook products."""
    if not a or not b:
        return []
    out = [a[0].spec.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def ref_powmod(g, e, f):
    """g^e mod f, right to left from the lowest bit of e."""
    out, g = ref_rem([f[0].spec.one], f), ref_rem(g, f)
    while e:
        if e & 1:
            out = ref_rem(ref_mul(out, g), f)
        g, e = ref_rem(ref_mul(g, g), f), e >> 1
    return out


def ref_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, ref_rem(a, b)
    lead_inv = a[-1].inverse()
    return [c * lead_inv for c in a]


def kernel_operands(q, count=40):
    """Seeded (num, den) pairs: den often non-monic, sometimes constant,
    num sometimes shorter than den and every eighth num zero; a last pair
    has degrees 40 and 20."""
    spec = field_from_order(q)
    rng = random.Random(RNG_SEED * 7919 + q)
    pairs = []
    for i in range(count):
        den = random_poly(rng, spec, 6)
        num = Poly.zero(spec) if i % 8 == 0 else random_poly(rng, spec, 12)
        pairs.append((num, den))
    num, den = ([rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]
                for d in (40, 20))
    pairs.append((Poly(spec, num), Poly(spec, den)))
    return spec, rng, pairs


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_product_kernels_equal_field_element_products(q):
    spec, _, pairs = kernel_operands(q)
    for num, den in pairs:
        expected = Poly(spec, ref_mul(num.coeffs, den.coeffs)).cv
        assert tuple(fpoly_kernels._mul_cv(spec, num.cv, den.cv)) == expected
        for a in (num, den):
            expected = Poly(spec, ref_mul(a.coeffs, a.coeffs)).cv
            assert tuple(fpoly_kernels._sqr_cv(spec, a.cv)) == expected, str(a)


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_divmod_reconstructs_the_dividend(q):
    spec, _, pairs = kernel_operands(q)
    assert any(len(den.cv) == 1 for _, den in pairs)
    assert any(len(num.cv) < len(den.cv) for num, den in pairs)
    assert q == 2 or any(not den.is_monic() for _, den in pairs)
    for num, den in pairs:
        quo, rem = divmod(num, den)
        assert quo * den + rem == num, (str(num), str(den))
        assert rem.degree < den.degree
        assert num % den == rem
        assert num // den == quo
        assert Poly(spec, ref_rem(num.coeffs, den.coeffs)) == rem


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_gcd_equals_field_element_euclid(q):
    spec, rng, pairs = kernel_operands(q)
    zero = Poly.zero(spec)
    for num, den in pairs:
        common = random_poly(rng, spec, 3)
        cases = ((num, den), (den, num), (num * common, den * common),
                 (num, zero), (zero, den))
        for f, g in cases:
            if f.is_zero() and g.is_zero():
                continue
            expected = Poly(spec, ref_gcd(f.coeffs, g.coeffs))
            assert poly_gcd(f, g) == expected, (str(f), str(g))


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_powmod_equals_repeated_multiplication(q):
    spec, _, pairs = kernel_operands(q, count=16)
    for g, f in pairs:
        if len(f.cv) < 2:
            continue
        for base in (g, Poly.zero(spec)):
            acc = Poly.one(spec)
            for e in range(10):
                assert poly_powmod(base, e, f) == acc, (str(base), e, str(f))
                acc = Poly(spec, ref_rem(ref_mul(acc.coeffs, base.coeffs), f.coeffs))
        # the Frobenius exponent and half the order of F_{q^2}^*
        for e in (q, (q * q - 1) // 2):
            expected = Poly(spec, ref_powmod(g.coeffs, e, f.coeffs))
            assert poly_powmod(g, e, f) == expected, (str(g), e, str(f))


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_factor_expands_back(q):
    spec = field_from_order(q)
    rng = random.Random(RNG_SEED * 7919 + q)
    for _ in range(12):
        f = random_poly(rng, spec, 8)
        if f.degree < 1:
            continue
        fac = factor(f)
        assert fac.expand() == f, str(f)
        assert all(p.is_monic() and p.degree >= 1 for p, _ in fac.factors)


@pytest.mark.parametrize("q,products", [(2, 0), (4, 0), (256, 0), (65521, 12)])
def test_frobenius_step_squares_and_multiplies_by_x(q, products, monkeypatch):
    """x^q mod f runs from the leading bit of q with x as the base: q = 2^k
    takes k squarings and no product, and any other q one product by x
    per further set bit (65521 has 13)."""
    spec = field_from_order(q)
    x, f = Poly(spec, [0, 1]), Poly(spec, [1, 1] + [0] * 18 + [1])
    calls = []
    mul = fpoly_kernels._mul_cv

    def counted(spec, a, b):
        calls.append(b)
        return mul(spec, a, b)

    monkeypatch.setattr(fpoly_kernels, "_mul_cv", counted)
    h = fpoly_kernels._powmod_cv(spec, x.cv, q, f.cv)
    assert products == bin(q).count("1") - 1 == len(calls)
    assert all(b == [0, 1] for b in calls)
    assert h == Poly(spec, ref_powmod(x.coeffs, q, f.coeffs)).cv


# -- enumeration --------------------------------------------------------------


def test_enumerate_counts(f2, f3):
    assert len(list(enumerate_polys(f2, 2))) == 4
    assert len(list(all_polys(f3, 1))) == 6
    assert [str(f) for f in enumerate_polys(f2, 0)] == ["1"]


def test_enumerate_is_sorted_and_exact_degree(f3):
    polys = list(all_polys(f3, 2))
    assert len(polys) == 2 * 9
    assert all(f.degree == 2 for f in polys)
    encs = [f.encoding() for f in polys]
    assert encs == sorted(encs)
    # the package's stream is the monic run of the reference enumeration
    assert list(enumerate_polys(f3, 2)) == [f for f in polys if f.is_monic()]


# -- degree sentinel and text -------------------------------------------------


def test_zero_polynomial_degree_sentinel(f2):
    z = Poly.zero(f2)
    assert z.degree == NEG_INF
    assert z.degree < 0
    assert z.degree < P(f2, "1").degree


def test_poly_text_roundtrip_random(f2, f3, f4, f9):
    rng = random.Random(RNG_SEED)
    for spec in (f2, f3, f4, f9):
        for _ in range(50):
            f = random_poly(rng, spec, 6)
            assert parse_poly(spec, str(f)) == f


@pytest.mark.parametrize("q", [256, 257, 4096, 59049, 65521, 65536])
def test_poly_text_roundtrip_large_fields(q):
    spec = field_from_order(q)
    rng = random.Random(RNG_SEED * 1009 + q)
    for _ in range(50):
        f = random_poly(rng, spec, 8)
        # sparse and unit coefficients print differently from dense ones
        g = Poly(spec, [rng.choice((0, 1, q - 1, c)) for c in f.cv] + [1])
        for h in (f, g):
            assert parse_poly(spec, str(h)) == h


def test_poly_text_examples(f2, f4):
    assert str(P(f2, "x^3+x+1")) == "x^3+x+1"
    f = P(f4, "(t+1)*x^2+t*x+1")
    assert str(f) == "(t+1)*x^2+t*x+1"
    assert parse_poly(f4, "1+t*x+(t+1)*x^2") == f  # any term order
    assert parse_poly(f2, "x + 1 + x^2 + x") == P(f2, "x^2+1")  # repeats collapse


def test_poly_parse_accepts_minus(f3):
    assert parse_poly(f3, "x^2-1") == P(f3, "x^2+2")


def test_poly_parse_reads_an_exponent_at_the_cap(f2):
    assert parse_poly(f2, f"x^{DEGREE_CAP}+1").degree == DEGREE_CAP


def test_poly_parse_rejects_garbage(f2):
    for bad in ("", "x^", "x^-1", "y+1", "x**2", "(x+1"):
        with pytest.raises(ParseError):
            parse_poly(f2, bad)


def test_poly_parse_shares_the_element_forms(f3, f9):
    # a coefficient may precede x without "*", as t in element text
    assert parse_poly(f3, "2x^2+x") == P(f3, "2*x^2+x")
    assert parse_poly(f9, "(t+1)x+tx^2") == P(f9, "t*x^2+(t+1)*x")
    assert parse_poly(f3, "*x") == P(f3, "x")
    # a "-" after "+" or "^" is the sign of the residue or exponent
    assert parse_poly(f3, "x+-1") == P(f3, "x+2")
    assert parse_poly(f3, "x^-0+x") == P(f3, "x+1")
    for bad in ("x^-1", "x^\u00b2", "x^+1", "x++1", "--x", "2**x"):
        with pytest.raises(ParseError):
            parse_poly(f3, bad)


def test_poly_mixed_field_arithmetic_rejected(f2, f3):
    with pytest.raises(FieldMismatch):
        P(f2, "x") + P(f3, "x")


def test_subtraction_undoes_addition(f2, f3, f9):
    rng = random.Random(RNG_SEED)
    for spec in (f2, f3, f9):
        for _ in range(50):
            f, g = random_poly(rng, spec, 6), random_poly(rng, spec, 6)
            assert (f - g) + g == f
            assert f - f == Poly.zero(spec)


def test_repr_names_the_text_and_the_field(f2, f9):
    assert repr(P(f2, "x^3+x+1")) == "<x^3+x+1 over F_2>"
    f = P(f9, "(t+1)*x^2+t*x+1")
    assert repr(f) == f"<{f} over F_9>"


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda f2: P(f2, "x+1") % Poly.zero(f2), DivisionByZero),
        (lambda f2: poly_powmod(P(f2, "x"), -1, P(f2, "x^2+x+1")), InvalidInput),
        (lambda f2: irreducibles(f2, 0), InvalidInput),
        (lambda f2: irreducible_count(1, 1), InvalidInput),
        (lambda f2: list(enumerate_polys(f2, -1)), InvalidInput),
        (lambda f2: parse_poly(f2, ")x"), ParseError),
        (lambda f2: parse_poly(f2, "()"), ParseError),
        (lambda f2: parse_poly(f2, "()x"), ParseError),
        (lambda f2: zsigmondy(2.0, 1, 6), InvalidInput),
        (lambda f2: poly_powmod(P(f2, "x"), 2.0, P(f2, "x^2+x+1")), InvalidInput),
        (lambda f2: irreducibles(f2, 2.0), InvalidInput),
        (lambda f2: list(enumerate_polys(f2, 2.0)), InvalidInput),
        (lambda f2: irreducible_count(2, 2.0), InvalidInput),
    ],
    ids=["mod-zero", "powmod-negative", "irreducibles-0", "count-q1",
         "enumerate-negative", "close-before-open", "empty-parens",
         "empty-parens-before-x", "zsigmondy-float", "powmod-float",
         "irreducibles-float", "enumerate-float", "count-float"],
)
def test_bad_arguments_raise_package_errors(f2, call, error):
    with pytest.raises(error):
        call(f2)
