"""Cyclotomic values, valuations, and primitive prime divisors."""

import time
import tracemalloc
from array import array
from math import gcd, isqrt

import pytest

from lehmer_ff import (
    FactoringBudgetExceeded,
    InvalidInput,
    SizeCapExceeded,
    UndefinedValuation,
    cyclotomic,
    cyclotomic_eval,
    primitive_part,
    zsigmondy,
)
from lehmer_ff import cyclo as cyclo_module
from lehmer_ff import suites as suites_module
from lehmer_ff.cyclo import INDEX_CAP, _exceeds_budget, _value
from lehmer_ff.intmath import (
    decimal_str,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius_divisors,
    phi_sieve,
    sigma,
    sigma_sieve,
    valuation,
)
from lehmer_ff.suites import suite_cyclo_lemmas
from properties import first_dividing_index, zsigmondy_by_orders


def test_mobius_divisors_match_the_definition():
    def mu(m):  # (-1)^(number of primes) if squarefree, else 0
        sign, p = 1, 2
        while m > 1:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                sign = -sign
            p += 1
        return sign

    for n in range(1, 1001):
        terms = mobius_divisors(n)
        expected = {d: mu(n // d) for d in range(1, n + 1) if n % d == 0}
        assert len(terms) == len(dict(terms)), n
        assert dict(terms) == {d: m for d, m in expected.items() if m}, n


def test_factorize_matches_a_smallest_prime_factor_sieve():
    """Every n < 2^17, which covers every cyclotomic index up to the cap;
    51529 = 227^2 is the first n that a wheel missing the 6k + 5
    candidates reports as prime."""
    limit = 1 << 17
    assert limit > INDEX_CAP
    spf = list(range(limit))
    for d in range(2, isqrt(limit - 1) + 1):
        if spf[d] == d:
            for m in range(d * d, limit, d):
                if spf[m] == m:
                    spf[m] = d
    for n in range(2, limit):
        expected: dict[int, int] = {}
        m = n
        while m > 1:
            expected[spf[m]] = expected.get(spf[m], 0) + 1
            m //= spf[m]
        assert factorize(n) == expected, n


@pytest.mark.parametrize("n", [0, -12])
def test_factorize_refuses_below_one(n):
    with pytest.raises(InvalidInput):
        factorize(n)


def test_decimal_str_of_a_negative_is_signed():
    # 1 to 1,499 digits: below, at and past the 500-digit chunk
    for n in (1, 7 * 10**498, 10**500 - 1, 10**500, 3**3141):
        assert decimal_str(n) == str(n)
        assert decimal_str(-n) == "-" + decimal_str(n)


def test_sigma_and_phi_sieves_match_factoring():
    for limit in (0, 1, 2, 3, 16, 17, 5000):
        sig, phi = sigma_sieve(limit), phi_sieve(limit)
        assert isinstance(sig, array) and isinstance(phi, array), limit
        assert list(sig) == [0] + [sigma(n) for n in range(1, limit + 1)], limit
        assert list(phi) == [0] + [euler_phi(n) for n in range(1, limit + 1)], limit


def test_sigma_times_phi_is_below_n_squared():
    """sigma(n) * phi(n) < n^2 for n >= 2 (Hardy and Wright, Thm 329), the
    inequality sigma(n)/n < n/phi(n) with which ``suites.PRIMORIAL_TAIL``
    bounds the abundancy of every n past the tail by M_k; n = 1 gives
    equality."""
    limit = 100_000
    sig, phi = sigma_sieve(limit), phi_sieve(limit)
    assert sig[1] * phi[1] == 1
    assert [n for n in range(2, limit + 1) if sig[n] * phi[n] >= n * n] == []


def test_phi_sieve_to_a_million():
    """Spot checks on one row to 10^6: high powers of small primes, two
    highly composite n, the largest prime below 10^6 and 10^6 itself."""
    phi = phi_sieve(10**6)
    assert len(phi) == 10**6 + 1
    for n in (2**19, 3**12, 5**8, 7**7, 720720, 997920, 999983, 10**6):
        assert phi[n] == euler_phi(n), n


def test_phi_sieve_memory():
    """Typed rows and no sigma: 1.2 MB at 10^5, where the joint sigma and
    phi sieve peaked at 2.4 MB and lists of boxed ints need 8.8 MB."""
    tracemalloc.start()
    try:
        phi_sieve(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000, peak


def test_mobius_terms_are_cached_per_index(monkeypatch):
    """A bounded cache of tuples: the cyclo-lemmas suite factors each of
    its indices at most once."""
    assert mobius_divisors.cache_info().maxsize is not None
    assert isinstance(mobius_divisors(12), tuple)
    indices = []

    def recorded(n):
        indices.append(n)
        return mobius_divisors(n)

    monkeypatch.setattr(cyclo_module, "mobius_divisors", recorded)
    mobius_divisors.cache_clear()
    assert suite_cyclo_lemmas().ok
    info = mobius_divisors.cache_info()
    assert info.hits + info.misses == len(indices)
    assert info.misses <= len(set(indices)) < len(indices)


def test_cyclo_lemma_suite_evaluates_each_value_once(monkeypatch):
    """One value per (n, a), and the divisor-existence check reads one
    residue per class: 2,634 evaluations where 1..p^2 made 11,260."""
    pairs = []

    def counted(n, a):
        pairs.append((n, a))
        return cyclotomic_eval(n, a)

    monkeypatch.setattr(suites_module, "cyclotomic_eval", counted)
    assert suite_cyclo_lemmas().ok
    assert len(pairs) == len(set(pairs))
    assert len(pairs) <= 3000, len(pairs)


def test_cyclotomic_value_mod_p_depends_only_on_the_residue():
    """Phi_n(a) mod p equals Horner of the coefficients at a mod p, so 1..p
    decides whether p divides some Phi_n(a) as 1..p^2 did."""
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 61):
            coeffs = cyclotomic(n).coeffs
            divides = []
            for a in range(1, p * p + 1):
                r = a % p
                acc = 0
                for c in reversed(coeffs):
                    acc = (acc * r + c) % p
                residue = cyclotomic_eval(n, a) % p
                assert residue == acc, (p, n, a)
                divides.append(residue == 0)
            assert any(divides[:p]) == any(divides), (p, n)


def test_cyclotomic_known_polynomials():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)
    assert str(cyclotomic(12)) == "x^4-x^2+1"
    assert str(cyclotomic(1)) == "x-1"


def test_cyclotomic_degree_is_phi():
    for n in range(1, 201):
        assert cyclotomic(n).degree == euler_phi(n)


def test_cyclotomic_degree_at_a_product_of_two_primes_above_the_small_primes():
    # 51983 = 227 * 229, so phi = 226 * 228
    assert cyclotomic(51983).degree == 51528


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(InvalidInput):
        cyclotomic(0)


def test_cyclotomic_coefficient_product_rebuilds_xn_minus_1():
    from lehmer_ff.cyclo import IntPoly
    from properties import int_poly_mul

    for n in [*range(1, 301), 720, 1155, 2310, 5040]:
        prod = IntPoly((1,))
        for d in divisors(n):
            prod = int_poly_mul(prod, cyclotomic(d))
        expected = [0] * (n + 1)
        expected[0] = -1
        expected[n] = 1
        assert prod.coeffs == tuple(expected)


def test_cyclotomic_eval_examples():
    assert cyclotomic_eval(1, 2) == 1
    assert cyclotomic_eval(2, 3) == 4
    assert cyclotomic_eval(6, 2) == 3


def test_cyclotomic_eval_matches_coefficient_form():
    for n in [*range(1, 61), 210, 360, 1155]:
        poly = cyclotomic(n)
        for a in (-(10**6), -3, -2, -1, 0, 1, 2, 5, 10, 10**6):
            assert cyclotomic_eval(n, a) == poly(a), (n, a)


def test_value_product_identity():
    for n in range(1, 201):
        for a in (2, 3, 10):
            prod = 1
            for d in divisors(n):
                prod *= cyclotomic_eval(d, a)
            assert prod == a**n - 1, (n, a)


def test_homogeneous_values():
    assert _value(2, 5, 3) == 8
    assert _value(6, 2, 1) == 3
    for n in range(1, 61):
        for a, b in ((3, 2), (5, 2), (7, 3)):
            prod = 1
            for d in divisors(n):
                prod *= _value(d, a, b)
            assert prod == a**n - b**n, (n, a, b)


def test_valuation_examples():
    assert valuation(2, 80) == 4
    assert valuation(3, 80) == 0
    assert valuation(2, cyclotomic_eval(2, 3)) == 2


def test_valuation_errors():
    with pytest.raises(UndefinedValuation):
        valuation(2, 0)
    with pytest.raises(InvalidInput):
        valuation(4, 8)


def test_zsigmondy_exceptional_cases():
    r = zsigmondy(2, 1, 6)
    assert r.primitive_primes == () and r.exception == "N6"
    assert r.primitive_part == 1
    r = zsigmondy(3, 1, 2)
    assert r.primitive_primes == () and r.exception == "POWER_OF_TWO_SUM"
    r = zsigmondy(5, 3, 2)  # 5 + 3 = 8
    assert r.primitive_primes == () and r.exception == "POWER_OF_TWO_SUM"


def test_zsigmondy_generic_cases():
    r = zsigmondy(2, 1, 4)
    assert r.primitive_primes == (5,) and r.primitive_part == 5
    assert r.exception is None
    r = zsigmondy(2, 1, 11)
    assert r.primitive_primes == (23, 89) and r.primitive_part == 2047


def test_zsigmondy_splits_composites_that_have_no_small_factor():
    # 256999 = 233 * 1103 and 7454981 = 311 * 23971
    assert zsigmondy(2, 1, 29).primitive_primes == (233, 1103, 2089)
    assert zsigmondy(52, 1, 5).primitive_primes == (311, 23971)


def test_zsigmondy_primes_satisfy_definition():
    for a, b, n in ((2, 1, 10), (3, 1, 8), (3, 2, 9), (10, 1, 6), (5, 2, 7)):
        r = zsigmondy(a, b, n)
        value = a**n - b**n
        for p in r.primitive_primes:
            assert value % p == 0
            assert all((a**k - b**k) % p for k in range(1, n))
        assert r.primitive_part == primitive_part(a, b, n)


def test_first_dividing_index_equals_the_linear_scan():
    """Every prime below 10,000 of a^n - b^n, and every prime when
    a^n - b^n < 2^40, against the first k with p | a^k - b^k."""
    small_primes = [p for p in range(2, 10_000) if is_prime(p)]
    checked = 0
    for a in range(2, 13):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            for n in range(1, 41):
                value = a**n - b**n
                primes = {p for p in small_primes if value % p == 0}
                if value < 1 << 40:
                    primes |= set(factorize(value))
                for p in primes:
                    k = next(k for k in range(1, n + 1) if (a**k - b**k) % p == 0)
                    assert first_dividing_index(a, b, p, n) == k, (a, b, n, p)
                    checked += 1
    assert checked > 7_000


def test_zsigmondy_equals_the_order_oracle():
    """Full records against factoring every piece Phi_d(a, b), d | n, and
    keeping the primes of order n, wherever a^n - b^n < 2^40."""
    checked = 0
    for a in range(2, 13):
        for b in range(1, a):
            if gcd(a, b) != 1:
                continue
            for n in range(2, 41):
                if a**n - b**n >= 1 << 40:
                    break
                expected = zsigmondy_by_orders(a, b, n).as_record()
                assert zsigmondy(a, b, n).as_record() == expected, (a, b, n)
                checked += 1
    assert checked > 500


def test_oversized_values_fail_before_any_work():
    # phi(60000) * bit_length(10^6) = 320,000 bits, over the 2^18-bit cap
    t0 = time.perf_counter()
    for call in (
        lambda: cyclotomic_eval(60000, 10**6),
        lambda: _value(60000, 10**6 + 1, 3),
        lambda: primitive_part(10**6, 1, 60000),
        lambda: cyclotomic(65537),
        lambda: cyclotomic_eval(10**30, 0),
    ):
        with pytest.raises(SizeCapExceeded):
            call()
    assert time.perf_counter() - t0 < 1


def test_indices_past_the_str_limit_raise_package_errors():
    # 5,001 digits is past Python's int-to-str limit, so each message
    # formats its numbers with decimal_str
    huge = 10**5000
    t0 = time.perf_counter()
    for call in (lambda: cyclotomic(huge), lambda: cyclotomic_eval(huge, 2)):
        with pytest.raises(SizeCapExceeded, match="cyclotomic index 1000"):
            call()
    with pytest.raises(FactoringBudgetExceeded, match=r"^2\^1000"):
        zsigmondy(2, 1, huge)
    with pytest.raises(FactoringBudgetExceeded, match=r"^1000"):
        zsigmondy(huge, 1, 6)
    with pytest.raises(InvalidInput, match="got -1000"):
        zsigmondy(3, 2, 5, factoring_budget=-huge)
    assert time.perf_counter() - t0 < 1


def test_zsigmondy_validation():
    with pytest.raises(InvalidInput):
        zsigmondy(2, 3, 4)  # a <= b
    with pytest.raises(InvalidInput):
        zsigmondy(4, 2, 4)  # not coprime
    with pytest.raises(InvalidInput):
        zsigmondy(2, 1, 1)  # n < 2


def test_zsigmondy_budget():
    with pytest.raises(FactoringBudgetExceeded):
        zsigmondy(2, 1, 40, factoring_budget=1000)
    # raising the budget makes the same call succeed
    assert zsigmondy(2, 1, 40).primitive_primes == (61681,)


def test_budget_check_equals_the_exact_comparison():
    # budgets on both sides of a^n - b^n and of each power of two nearby,
    # where the bit-length shortcuts hand over to the exact value
    for a in (2, 3, 4, 5, 7, 8, 15, 16, 17, 255, 256, 257):
        for b in (1, a - 1):
            if gcd(a, b) != 1:
                continue
            for n in range(2, 30):
                value = a**n - b**n
                k = value.bit_length()
                budgets = {value - 1, value, value + 1}
                budgets |= {2**j + d for j in range(k - 2, k + 3) for d in (-1, 0, 1)}
                for budget in budgets:
                    if budget >= 1:
                        assert _exceeds_budget(a, b, n, budget) == (value > budget)


def test_primitive_part_agrees_with_full_classification():
    for a in range(2, 9):
        for b in (1, 2, 3):
            if b >= a or __import__("math").gcd(a, b) != 1:
                continue
            for n in range(2, 13):
                r = zsigmondy(a, b, n)
                m = primitive_part(a, b, n)
                assert r.primitive_part == m, (a, b, n)
                assert bool(r.primitive_primes) == (m > 1)


def test_primitive_part_estimate_window():
    for n in range(7, 61):
        m = primitive_part(2, 1, n)
        phi_val = cyclotomic_eval(n, 2)
        assert m * n >= phi_val
        assert 2 * phi_val >= 2 ** euler_phi(n)
