"""Field construction, arithmetic axioms, and the element text form."""

import importlib
import random
import time

import pytest

from lehmer_ff import (
    DivisionByZero,
    FieldMismatch,
    InvalidDegree,
    InvalidInput,
    InvalidPrime,
    ParseError,
    field_inv,
    field_make,
)
from lehmer_ff.ffield import (
    _decode_base,
    _element_parse,
    _element_str,
    _fp_mul,
    _fp_powmod,
    _fp_rem,
    _generator,
    _powers,
    field_from_order,
)
from lehmer_ff.intmath import is_prime

ffield_module = importlib.import_module("lehmer_ff.ffield")

AXIOM_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (2, 4)]


def brute_min_irreducible_quadratic(p):
    """Oracle: smallest-encoding monic quadratic over F_p with no root."""
    best = None
    for code in range(p * p):
        c0, c1 = code % p, code // p
        if all((x * x + c1 * x + c0) % p for x in range(p)):
            best = (c0, c1, 1)
            break
    return best


def test_field_make_f4_modulus():
    assert field_make(2, 2).modulus == (1, 1, 1)  # t^2 + t + 1


def test_field_make_f9_modulus_matches_enumeration_oracle():
    assert field_make(3, 2).modulus == brute_min_irreducible_quadratic(3)
    assert field_make(3, 2).modulus == (1, 0, 1)  # t^2 + 1


def test_field_make_prime_field_has_no_modulus():
    assert field_make(5, 1).modulus is None


def test_field_make_validation():
    with pytest.raises(InvalidPrime):
        field_make(4)
    with pytest.raises(InvalidPrime):
        field_make(1)
    with pytest.raises(InvalidDegree):
        field_make(2, 0)
    with pytest.raises(InvalidDegree):
        field_make(2, 17)  # q > 2^16


def test_field_make_deterministic():
    from lehmer_ff.ffield import _field_make_cached

    a = field_make(3, 2)
    _field_make_cached.cache_clear()
    b = field_make(3, 2)
    assert a.modulus == b.modulus
    assert a == b
    assert field_make(3) is field_make(3, 1)  # default k interns identically


def test_field_cache_is_bounded():
    from lehmer_ff.ffield import _FIELD_CACHE_SIZE, _field_make_cached

    first = field_make(2, 3)
    others = [p for p in range(3, 1000) if is_prime(p)][: _FIELD_CACHE_SIZE + 1]
    for p in others:
        field_make(p)
        assert _field_make_cached.cache_info().currsize <= _FIELD_CACHE_SIZE
    rebuilt = field_make(2, 3)
    assert rebuilt is not first  # F_8 was the least recently used entry
    assert rebuilt == first and rebuilt.modulus == first.modulus
    for a in range(8):
        for b in range(8):
            assert rebuilt.mul(a, b) == first.mul(a, b)


def test_field_from_order():
    assert field_from_order(9).q == 9
    assert field_from_order(8).k == 3
    with pytest.raises(InvalidPrime):
        field_from_order(12)


def test_field_from_order_rejects_q_past_the_cap_at_once():
    # trial division up to a large prime q would run for minutes
    t0 = time.perf_counter()
    for q in (2**31 - 1, 2**17, 65537):
        with pytest.raises(InvalidDegree, match="supported cap 65536"):
            field_from_order(q)
    assert time.perf_counter() - t0 < 1


def test_field_from_order_reads_every_q_up_to_the_cap(monkeypatch):
    """(p, k) or InvalidPrime for every q <= 2^16, against a sieve of
    smallest prime factors; field building is stubbed out, so the test
    checks the prime-power decision alone."""
    cap = 1 << 16
    spf = list(range(cap + 1))
    for i in range(2, int(cap**0.5) + 1):
        if spf[i] == i:
            for j in range(i * i, cap + 1, i):
                if spf[j] == j:
                    spf[j] = i
    monkeypatch.setattr(ffield_module, "field_make", lambda p, k=1: (p, k))
    for q in range(-1, cap + 1):
        if q < 2:
            expected = InvalidPrime
        else:
            p, m, k = spf[q], q, 0
            while m % p == 0:
                m, k = m // p, k + 1
            expected = (p, k) if m == 1 else InvalidPrime
        if expected is InvalidPrime:
            with pytest.raises(InvalidPrime, match="is not a prime power"):
                field_from_order(q)
        else:
            assert field_from_order(q) == expected, q


def test_field_from_order_of_a_large_prime_is_fast():
    assert field_from_order(65521).q == 65521
    t0 = time.perf_counter()
    for _ in range(1000):
        field_from_order(65521)
    assert time.perf_counter() - t0 < 0.5


def test_field_inv_examples(f4, f5):
    assert field_inv(f5, f5.element(2)) == f5.element(3)
    t = f4.element("t")
    assert field_inv(f4, t) == f4.element("t+1")
    assert field_inv(f4, f4.one) == f4.one


def test_inverse_of_zero_raises(f5):
    with pytest.raises(DivisionByZero):
        f5.zero.inverse()


@pytest.mark.parametrize("p,k", AXIOM_FIELDS)
def test_field_axioms_exhaustive(p, k):
    spec = field_make(p, k)
    els = list(spec.elements())
    for a in els:
        assert a + spec.zero == a
        assert a * spec.one == a
        assert a + (-a) == spec.zero
        if not a.is_zero():
            assert a * a.inverse() == spec.one
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,k", AXIOM_FIELDS)
def test_frobenius_and_group_order(p, k):
    spec = field_make(p, k)
    q = spec.q
    for a in spec.elements():
        assert a**q == a
        if not a.is_zero():
            assert a ** (q - 1) == spec.one


@pytest.mark.parametrize("p,k", AXIOM_FIELDS + [(3, 3), (2, 5)])
def test_element_text_roundtrip(p, k):
    spec = field_make(p, k)
    for a in spec.elements():
        assert spec.element(str(a)) == a


def test_element_text_examples(f4, f9):
    assert str(f4.element("t+1")) == "t+1"
    assert str(f9.from_coeffs([2, 1])) == "t+2"
    assert str(f9.zero) == "0"
    assert _element_str(f9, _element_parse(f9, "2*t+1")) == "2*t+1"


def test_element_parse_rejects_garbage(f4):
    with pytest.raises(ParseError):
        f4.element("u+1")
    with pytest.raises(ParseError):
        f4.element("t^5")  # exponent beyond k-1
    with pytest.raises(ParseError):
        f4.element("")


def test_elements_of_different_fields_do_not_mix(f4, f5):
    with pytest.raises(FieldMismatch):
        f4.element("t") + f5.element(2)


def test_int_operands_in_extension_fields_are_encodings(f4):
    one = f4.one
    assert one + 3 == f4.element("t")  # 1 + (t + 1)
    assert one * 2 == f4.element("t")
    with pytest.raises(InvalidInput):
        one + 7
    with pytest.raises(InvalidInput):
        one * 300
    with pytest.raises(InvalidInput):
        one + (-1)


def test_coeffs_view(f9):
    a = f9.from_coeffs([2, 1])  # 2 + t
    assert a.coeffs == (2, 1)
    assert f9.element(a.coeffs).val == a.val


def test_spec_pickles_by_parameters(f4):
    import pickle

    clone = pickle.loads(pickle.dumps(f4))
    assert clone is field_make(2, 2)


# every pair of each small field; 2,000 seeded pairs (plus the pairs with 0
# and q - 1) of each large one, prime fields included
REFERENCE_EXHAUSTIVE = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (2, 6)]
REFERENCE_SAMPLED = [(3, 5), (2, 8), (2, 12), (3, 10), (251, 2), (65521, 1), (2, 16)]


def _reference_ops(spec):
    """Digit-vector arithmetic modulo ``spec.modulus``; a prime field is
    F_p[t]/(t)."""
    p, k = spec.p, spec.k
    modulus = list(spec.modulus or (0, 1))

    def encode(v):
        return sum(c * p**i for i, c in enumerate(v))

    def add(a, b):
        pairs = zip(_decode_base(a, p, k), _decode_base(b, p, k))
        return encode([(x + y) % p for x, y in pairs])

    def neg(a):
        return encode([-x % p for x in _decode_base(a, p, k)])

    def mul(a, b):
        prod = _fp_mul(_decode_base(a, p, k), _decode_base(b, p, k), p)
        return encode(_fp_rem(prod, modulus, p))

    return add, neg, mul


@pytest.mark.parametrize("p,k", REFERENCE_EXHAUSTIVE + REFERENCE_SAMPLED)
def test_ops_match_digit_vector_reference(p, k):
    """The axioms hold in any encoding; this pins the canonical one."""
    from lehmer_ff.ffield import _field_make_cached

    _field_make_cached.cache_clear()  # so the build is timed every run
    start = time.perf_counter()
    spec = field_make(p, k)
    if (p, k) in ((3, 10), (2, 16)):
        assert time.perf_counter() - start < 2.0
    q = spec.q
    if (p, k) in REFERENCE_EXHAUSTIVE:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        pairs += [(0, 0), (0, q - 1), (q - 1, 0), (q - 1, q - 1), (1, q - 1)]
    add, neg, mul = _reference_ops(spec)
    for a, b in pairs:
        assert spec.add(a, b) == add(a, b)
        assert spec.sub(a, b) == add(a, neg(b))
        assert spec.mul(a, b) == mul(a, b)
        assert spec.neg(a) == neg(a)
        if a:
            assert mul(a, spec.inv(a)) == 1


# the whole exp table of the small fields; every 331st power of the two
# largest, whose reference powers cost a square-and-multiply each
POWERS_FULL = [(2, 2), (3, 2), (2, 8), (2, 12)]
POWERS_STRIDED = [(3, 10), (2, 16)]


@pytest.mark.parametrize("p,k", POWERS_FULL + POWERS_STRIDED)
def test_exp_and_log_tables_match_the_polynomial_route(p, k):
    spec = field_make(p, k)
    modulus, n = spec.modulus, spec.q - 1
    g = _generator(p, k, modulus)
    exp = _powers(g, modulus, p, n)

    def encode(v):
        return sum(c * p**i for i, c in enumerate(v))

    if (p, k) in POWERS_FULL:
        cur, expected = [1], []
        for _ in range(n):
            expected.append(encode(cur))
            cur = _fp_rem(_fp_mul(cur, g, p), modulus, p)
        assert exp == expected
    else:
        sample = range(0, n, 331)
        expected = [encode(_fp_powmod(g, i, modulus, p)) for i in sample]
        assert [exp[i] for i in sample] == expected
    # spec.mul(a, b) is exp[log(a) + log(b)], so this pins log as the
    # inverse of exp at every power
    g_enc = encode(g)
    assert all(spec.mul(g_enc, exp[i]) == exp[(i + 1) % n] for i in range(n))
