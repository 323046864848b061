"""Field construction, arithmetic axioms, and the element text form."""

import hashlib
import importlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from lehmer_ff import (
    DivisionByZero,
    FieldMismatch,
    InvalidDegree,
    InvalidInput,
    InvalidPrime,
    ParseError,
    field_make,
)
from lehmer_ff.ffield import (
    _canonical_modulus,
    _generator,
    _powers,
    field_from_order,
)
from lehmer_ff.fpoly import _mul_cv, _powmod_cv, _reduce_cv
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


def test_field_constructors_refuse_huge_values_at_once():
    # the cap is checked before the primality test and before p^k, and
    # the messages print ints past the 4,300-digit str limit
    t0 = time.perf_counter()
    for call in (
        lambda: field_make(10**5000),
        lambda: field_from_order(10**5000),
        lambda: field_make(2**11213 - 1),
        lambda: field_make(3, 10**8),
        lambda: field_make(3, 10**5000),
    ):
        with pytest.raises(InvalidDegree, match="supported cap 65536"):
            call()
    for call, error in (
        (lambda: field_make(-(10**5000)), InvalidPrime),
        (lambda: field_from_order(-(10**5000)), InvalidPrime),
        (lambda: field_make(3, -(10**5000)), InvalidDegree),
    ):
        with pytest.raises(error):
            call()
    assert time.perf_counter() - t0 < 0.5


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
    assert f5.element(2).inverse() == f5.element(3)
    t = f4.element("t")
    assert t.inverse() == f4.element("t+1")
    assert f4.one.inverse() == f4.one


def test_inverse_of_zero_raises(f5, f9):
    for spec in (f5, f9):
        with pytest.raises(DivisionByZero):
            spec.zero.inverse()


def test_division_and_negative_powers_use_the_inverse(f5, f9):
    for spec in (f5, f9):
        units = list(spec.units())
        for a in spec.elements():
            for b in units:
                assert a / b == a * b.inverse()
        for a in units:
            for k in (1, 2, 3, spec.q):
                assert a**-k == a.inverse() ** k


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
    assert str(f9.element(5)) == "t+2"
    assert str(f9.zero) == "0"
    assert str(f9.element("2*t+1")) == "2*t+1"
    assert str(f9.element("2t + 1")) == "2*t+1"


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


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2)])
def test_equal_objects_hash_equal(p, k):
    """An element equals only elements, so equality never outruns the hash:
    not an int (no hash agrees with equality mod p), but an element of an
    equal field rebuilt after the intern cache was cleared."""
    from lehmer_ff.ffield import _field_make_cached

    spec = field_make(p, k)
    _field_make_cached.cache_clear()
    rebuilt = field_make(p, k)
    assert rebuilt is not spec
    values = [*spec.elements(), *rebuilt.elements(), *range(-10, 11)]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert spec.element(2) != 2
    assert spec.element(2) in {rebuilt.element(2)}


def test_spec_pickles_by_parameters(f4):
    import pickle

    clone = pickle.loads(pickle.dumps(f4))
    assert clone is field_make(2, 2)


def test_spec_hash_survives_a_pickle_round_trip(f9):
    import pickle

    from lehmer_ff.ffield import _field_make_cached

    data = pickle.dumps(f9)
    _field_make_cached.cache_clear()
    clone = pickle.loads(data)
    assert clone is not f9 and clone == f9
    assert hash(clone) == hash(f9)
    assert {f9: "F_9"}[clone] == "F_9"


# every pair of each small field; 2,000 seeded pairs (plus the pairs with 0
# and q - 1) of each large one, prime fields included
REFERENCE_EXHAUSTIVE = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (2, 6)]
REFERENCE_SAMPLED = [(3, 5), (2, 8), (2, 12), (3, 10), (251, 2), (65521, 1), (2, 16)]


def _reference_ops(spec):
    """Polynomial arithmetic over F_p modulo ``spec.modulus``, by the
    ``fpoly`` kernels on plain residues mod p (no exp/log/Zech table); a
    prime field is F_p[t]/(t)."""
    p, k = spec.p, spec.k
    fp = field_make(p)
    modulus = spec.modulus or (0, 1)

    def encode(v):
        return sum(c * p**i for i, c in enumerate(v))

    def digits(a):
        return [a // p**i % p for i in range(k)]

    def add(a, b):
        pairs = zip(digits(a), digits(b))
        return encode([(x + y) % p for x, y in pairs])

    def neg(a):
        return encode([-x % p for x in digits(a)])

    def mul(a, b):
        prod = _mul_cv(fp, digits(a), digits(b))
        return encode(_reduce_cv(fp, list(prod), modulus))

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
    fp = field_make(p)
    modulus, n = spec.modulus, spec.q - 1
    g = _generator(p, k, modulus)
    exp = _powers(g, modulus, p, n)

    def encode(v):
        return sum(c * p**i for i, c in enumerate(v))

    if (p, k) in POWERS_FULL:
        cur, expected = [1], []
        for _ in range(n):
            expected.append(encode(cur))
            cur = _reduce_cv(fp, list(_mul_cv(fp, cur, g)), modulus)
        assert exp == expected
    else:
        sample = range(0, n, 331)
        expected = [encode(_powmod_cv(fp, g, i, modulus)) for i in sample]
        assert [exp[i] for i in sample] == expected
    # spec.mul(a, b) is exp[log(a) + log(b)], so this pins log as the
    # inverse of exp at every power
    g_enc = encode(g)
    assert all(spec.mul(g_enc, exp[i]) == exp[(i + 1) % n] for i in range(n))


# sha256 of repr([(p, k, modulus, generator), ...]) over the 93 extension
# fields with q <= 2^16 in (p, k) order, and of the text of every element
# of F_4, F_8, F_9, F_25, F_27 and F_256, one per line: the exp/log tables
# follow from the modulus and generator, so these pin every field and
# every printed coefficient
CONSTRUCTION_SHA256 = "1d8dcaed841062b53a08ca567a8bfcc62bc37c6dd3765c4dbf6d1032ccd1d07d"
ELEMENT_TEXT_SHA256 = "03c2fd81646dab6783ff10a9e032961f11b1c4ceee68382617e11c47c5dfa5e7"


def test_every_extension_field_keeps_its_modulus_and_generator():
    rows = []
    for p in range(2, 257):
        k = 2
        while is_prime(p) and p**k <= 1 << 16:
            modulus = _canonical_modulus(p, k)
            rows.append((p, k, tuple(modulus), tuple(_generator(p, k, modulus))))
            k += 1
    assert len(rows) == 93
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CONSTRUCTION_SHA256


def test_element_text_of_small_fields_is_unchanged():
    fields = ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 8))
    text = "\n".join(str(e) for p, k in fields for e in field_make(p, k).elements())
    assert hashlib.sha256(text.encode()).hexdigest() == ELEMENT_TEXT_SHA256


def test_element_text_takes_the_polynomial_grammar(f4, f9):
    t = f9.element("t")
    assert f9.element("t-1") == t + 2
    assert f9.element("-t") == -t
    assert f9.element("+(2)*t") == t + t
    assert f9.element("t-(1)") == t + 2
    # a signed residue, a coefficient-free "*t" and a signed exponent
    assert f9.element("t+-1") == t + 2
    assert f9.element("*t") == t
    assert f9.element("2t^1+t^-0") == t + t + 1
    # the degree check is on the sum, so vanishing terms above t^(k-1) pass
    assert f4.element("t^2+t^2") == f4.zero
    for bad in ("t^2", "t^2+t", "u", "t+", "(t", "tt", "t^x"):
        with pytest.raises(ParseError):
            f9.element(bad)


# builds two extension fields in a fresh interpreter, whose first import is
# ffield: the construction and the element text reach fpoly from inside
_IMPORT_ORDER_SCRIPT = """
import lehmer_ff.ffield as ffield
for p, k in ((2, 8), (3, 5)):
    spec = ffield.field_make(p, k)
    print(str(spec.element("t+1")))
"""


def test_ffield_imported_first_builds_fields():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ORDER_SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["t+1", "t+1"]
