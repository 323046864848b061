"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 6 and 10 test claims that are false as stated, so they pin the
exact counterexamples instead of the claims.  The coarse candidate-degree
inequality also admits n = 28 and n = 36 (margins ~1.2 and ~0.43,
recomputed here at 35 and 60 digits); the refined filter rejects both.
The strict totient lower bound phi(n) > c(n)*n^(3/4) fails at exactly
n in {3, 6, 12, 16, 24, 48} for n <= 1e5, with equality at n = 16,
confirmed here by an exact integer check.  Either test fails if a
counterexample appears or disappears.  The refined candidate set and
every classification built on it are unaffected.  Beside criterion 10,
three tests check the primorial argument that settles both bounds for
every n >= 2310 in exact rationals, check both bounds one n at a time
from 2310 to 1e5, and run the suite far past that range.
"""

import time
from fractions import Fraction

import mpmath
import pytest

from lehmer_ff import (
    classify_a_ge_3,
    candidate_degrees,
    enumerate_polys,
    field_from_order,
    lehmer_set,
    parse_poly,
    primitive_part,
    totient,
    totient_bruteforce,
    verify_prop36,
    zsigmondy,
)
from lehmer_ff.cli import run as cli_run
from lehmer_ff.intmath import decimal_str, euler_phi, phi_sieve, sigma_sieve
from lehmer_ff.lehmer_search import c_factor
from lehmer_ff.suites import (
    PRIMORIAL_TAIL,
    expected_lehmer_monic,
    suite_bounds,
    suite_cyclo_lemmas,
)
from lehmer_ff.totient import hit_structure_violations
from properties import (
    divisibility_structure_violations,
    euler_theorem_violations,
    exponent_map_violations,
    unit_invariance_violations,
)


def verdict(num: int, ok: bool, label: str, elapsed: float | None = None) -> None:
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}{stamp}")


def test_criterion_01_f2_classification(capsys):
    t0 = time.perf_counter()
    code = cli_run(["verify", "--suite", "main-theorem", "--q", "2",
                    "--max-degree", "12"])
    f2 = field_from_order(2)
    found = {r.f for r in lehmer_set(f2, 12)}
    elapsed = time.perf_counter() - t0
    expected = expected_lehmer_monic(f2)
    ok = code == 0 and found == expected and len(found) == 6 and elapsed <= 60
    with capsys.disabled():
        verdict(1, ok, "F_2 sweep to degree 12 finds exactly the six products", elapsed)
    assert code == 0
    assert found == expected and len(found) == 6
    assert elapsed <= 60


def test_criterion_02_f3_classification(capsys):
    t0 = time.perf_counter()
    f3 = field_from_order(3)
    monic = lehmer_set(f3, 8)
    expanded = lehmer_set(f3, 8, expand_units=True)
    elapsed = time.perf_counter() - t0
    monic_ok = {str(r.f) for r in monic} == {"x^2+x", "x^2+2*x", "x^2+2"}
    expanded_expected = {
        str(parse_poly(f3, t))
        for t in ("x^2+x", "2*x^2+2*x", "x^2+2*x", "2*x^2+x", "x^2+2", "2*x^2+1")
    }
    expanded_ok = {str(r.f) for r in expanded} == expanded_expected
    ok = monic_ok and expanded_ok and elapsed <= 60
    with capsys.disabled():
        verdict(2, ok, "F_3 sweep to degree 8: three monic hits, six with units", elapsed)
    assert monic_ok and expanded_ok
    assert elapsed <= 60


def test_criterion_03_larger_fields_empty(capsys):
    t0 = time.perf_counter()
    empty4 = lehmer_set(field_from_order(4), 7)
    empty5 = lehmer_set(field_from_order(5), 7)
    elapsed = time.perf_counter() - t0
    ok = empty4 == [] and empty5 == [] and elapsed <= 120
    with capsys.disabled():
        verdict(3, ok, "F_4 and F_5 sweeps to degree 7 find nothing", elapsed)
    assert empty4 == [] and empty5 == []
    assert elapsed <= 120


def test_criterion_04_base_classification(capsys):
    t0 = time.perf_counter()
    found = {(a, p.parts) for a, p in classify_a_ge_3(8, 10)}
    elapsed = time.perf_counter() - t0
    expected = {(3, (1, 1)), (3, (1, 1, 1, 1))}
    ok = found == expected and elapsed <= 30
    with capsys.disabled():
        verdict(4, ok, "bases 3..8, n <= 10: exactly the two base-3 partitions", elapsed)
    assert found == expected
    assert elapsed <= 30


def test_criterion_05_capped_partitions(capsys):
    t0 = time.perf_counter()
    found = {(n, p.parts) for n, p in verify_prop36(30)}
    elapsed = time.perf_counter() - t0
    expected = {(2, (1, 1)), (4, (1, 1, 2)), (6, (1, 2, 3))}
    ok = found == expected and elapsed <= 60
    with capsys.disabled():
        verdict(5, ok, "capped multiplicities, base 2, n <= 30: three partitions", elapsed)
    assert found == expected
    assert elapsed <= 60


# the coarse candidate-degree list as stated; the coarse inequality also
# admits 28 and 36 (margins ~1.202 and ~0.427, the same at 35 and 60
# digits), both of which the refined filter rejects
COARSE_DEGREES = set(range(7, 23)) | {24, 26, 30, 34, 38, 42, 46, 50, 54}
# classification answers the sweeps must reproduce
REFINED_DEGREES = {8, 9, 10, 12, 14, 18, 20, 24, 30}

# degrees the coarse inequality admits beyond the stated list, with their
# margins (left side minus right side) to ten significant digits
COARSE_EXTRA_MARGINS = {28: "1.202051214", 36: "0.4272126277"}


def coarse_margin(n: int, dps: int) -> mpmath.mpf:
    """Left minus right side of the coarse inequality in the
    ``candidate_degrees`` docstring, evaluated on its own at ``dps`` digits."""
    with mpmath.workdps(dps):
        delta = 1 if n % 2 == 0 else 0
        c = c_factor(n)
        lhs = (mpmath.log(4) + delta * mpmath.log(mpmath.mpf(4) / 3) - 1
               - mpmath.mpf(delta) / 2 - mpmath.mpf(1) / n
               + mpmath.mpf(128) / 100 * mpmath.root(n, 4))
        rhs = (mpmath.mpf(c.numerator) / c.denominator * mpmath.log(2)
               * mpmath.power(n, mpmath.mpf(3) / 4) - mpmath.log(2 * n))
        return lhs - rhs


def test_criterion_06_candidate_degrees(capsys):
    coarse, refined = candidate_degrees(200)  # an enclosure holding 0 would raise
    extra = set(COARSE_EXTRA_MARGINS)
    gap = mpmath.mpf(10) ** -6  # each extra margin clears it 1000 times over
    margins = {n: (coarse_margin(n, 35), coarse_margin(n, 60)) for n in extra}
    bad_margins = {
        n: (mpmath.nstr(m35, 12), mpmath.nstr(m60, 12))
        for n, (m35, m60) in margins.items()
        if not (m35 > 1000 * gap and abs(m35 - m60) < mpmath.mpf(10) ** -30
                and mpmath.nstr(m60, 10) == COARSE_EXTRA_MARGINS[n])
    }
    ok = (refined == REFINED_DEGREES and coarse == COARSE_DEGREES | extra
          and not extra & refined and not bad_margins)
    with capsys.disabled():
        verdict(6, ok, "candidate degrees to 200: refined as stated, coarse as "
                       f"stated plus {sorted(extra)}")
    assert refined == REFINED_DEGREES, sorted(refined ^ REFINED_DEGREES)
    assert coarse == COARSE_DEGREES | extra, sorted(coarse ^ (COARSE_DEGREES | extra))
    assert not extra & refined
    assert bad_margins == {}


def test_criterion_07_totient_oracle(capsys):
    t0 = time.perf_counter()
    mismatches = []
    for q, max_deg in ((2, 6), (3, 4), (4, 4)):
        spec = field_from_order(q)
        for n in range(1, max_deg + 1):
            for f in enumerate_polys(spec, n):
                if totient(f) != totient_bruteforce(f):
                    mismatches.append((q, str(f)))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed <= 30
    with capsys.disabled():
        verdict(7, ok, "totient formula equals brute-force count exhaustively", elapsed)
    assert mismatches == []
    assert elapsed <= 30


def test_criterion_08_primitive_divisor_grid(capsys):
    t0 = time.perf_counter()
    missing = {
        (a, n)
        for a in range(2, 13)
        for n in range(2, 31)
        if primitive_part(a, 1, n) == 1
    }
    expected = {(2, 6), (3, 2), (7, 2)}
    cross_ok = True
    for a in range(2, 13):
        for n in range(2, 13):
            r = zsigmondy(a, 1, n)
            if (r.primitive_part != primitive_part(a, 1, n)
                    or bool(r.primitive_primes) == ((a, n) in expected)):
                cross_ok = False
    elapsed = time.perf_counter() - t0
    ok = missing == expected and cross_ok
    with capsys.disabled():
        verdict(8, ok, "primitive divisors exist on the grid except the two "
                       "exception families", elapsed)
    assert missing == expected
    assert cross_ok


def test_criterion_09_cyclotomic_lemma_suite(capsys):
    t0 = time.perf_counter()
    report = suite_cyclo_lemmas()
    elapsed = time.perf_counter() - t0
    ok = report.ok and elapsed <= 120
    with capsys.disabled():
        verdict(9, ok, "all cyclotomic value identities and bounds hold", elapsed)
    for check in report.checks:
        assert check.ok, f"{check.label}: {check.found}"
    assert elapsed <= 120


# n <= 1e5 at which phi(n) > c(n)*n^(3/4) is false; equality only at 16
TOTIENT_BOUND_VIOLATIONS = [3, 6, 12, 16, 24, 48]


def test_criterion_10_exact_bounds(capsys):
    t0 = time.perf_counter()
    report = suite_bounds(100_000)
    elapsed = time.perf_counter() - t0
    h_check, phi_check = report.checks
    # exact recheck, independent of the suite's sieve and fourth powers:
    # phi(n)^4 vs c(n)^4 * n^3 in rationals
    sides = {n: (euler_phi(n) ** 4, c_factor(n) ** 4 * n**3)
             for n in TOTIENT_BOUND_VIOLATIONS}
    genuine = all(phi4 <= rhs4 for phi4, rhs4 in sides.values())
    equal_at = [n for n, (phi4, rhs4) in sides.items() if phi4 == rhs4]
    ok = (h_check.ok and phi_check.found == TOTIENT_BOUND_VIOLATIONS
          and genuine and equal_at == [16] and elapsed <= 60)
    with capsys.disabled():
        verdict(10, ok, "abundancy bound holds for all n <= 1e5; totient bound "
                        f"fails exactly at {TOTIENT_BOUND_VIOLATIONS}", elapsed)
    assert h_check.ok, h_check.found
    assert elapsed <= 60
    assert phi_check.found == TOTIENT_BOUND_VIOLATIONS, phi_check.found
    assert genuine, sides
    assert equal_at == [16], equal_at


def test_primorial_tail_certificate():
    """The proof behind ``suites.PRIMORIAL_TAIL``, in exact rationals.

    With P_k the k-th primorial and M_k = prod_{i<=k} p_i/(p_i - 1), both
    bounds hold at every n >= P_k once M_k^4 < P_k holds for k and every
    later index.  The step from k to k + 1 multiplies M_k^4 by
    (p/(p - 1))^4 and P_k by p = p_{k+1}; it keeps the inequality when
    (p - 1)^4 > p^3.  That holds at p_6 = 13 and for every larger p,
    because (p - 1)^4 / p^3 = (p - 1)(1 - 1/p)^3 is a product of two
    positive factors that both grow with p."""
    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    primorial, m = [1], [Fraction(1)]
    for p in primes:
        primorial.append(primorial[-1] * p)
        m.append(m[-1] * Fraction(p, p - 1))
    # the constant is the least primorial with M_k^4 < P_k
    k = next(k for k in range(1, len(primes) + 1) if m[k] ** 4 < primorial[k])
    assert (k, primorial[k]) == (5, PRIMORIAL_TAIL)
    assert m[5] == Fraction(77, 16) and m[5] ** 4 < 2310
    # a tail starting at P_4 = 210 would not be proved
    assert primorial[4] == 210 and m[4] ** 4 >= 210
    # the induction step from p_6 = 13 on, and its monotonicity
    assert primes[5] == 13 and 12**4 > 13**3
    ratio = [Fraction((p - 1) ** 4, p**3) for p in range(13, 2000)]
    assert all(a < b for a, b in zip(ratio, ratio[1:]))
    # what the induction gives, checked directly over 12 more primorials
    assert all(m[j] ** 4 < primorial[j] for j in range(5, len(primes) + 1))
    # c(n) <= 1 at every 2-adic valuation
    assert max(c_factor(3 << v) for v in range(64)) == 1


def test_bounds_hold_past_the_tail():
    """Both exact comparisons of the bounds suite at every n in
    [PRIMORIAL_TAIL, 1e5], on sieve rows: the tail that the suite takes
    from the primorial argument, checked one n at a time."""
    limit = 100_000
    sig, phi = sigma_sieve(limit), phi_sieve(limit)
    tail = range(PRIMORIAL_TAIL, limit + 1)
    assert [n for n in tail if sig[n] ** 4 * 390625 >= 1048576 * n**5] == []
    bad = []
    for n in tail:
        c = c_factor(n)
        if phi[n] ** 4 * c.denominator**4 <= c.numerator**4 * n**3:
            bad.append(n)
    assert bad == []


@pytest.mark.parametrize("n_max", [10**12, 10**5000], ids=["1e12", "1e5000"])
def test_bounds_suite_work_does_not_grow_with_n_max(n_max):
    t0 = time.perf_counter()
    h_check, phi_check = suite_bounds(n_max).checks
    assert time.perf_counter() - t0 < 0.5
    assert h_check.ok, h_check.found
    assert phi_check.found == TOTIENT_BOUND_VIOLATIONS, phi_check.found
    assert h_check.label.endswith(f"for n <= {decimal_str(n_max)}")


def test_criterion_11_property_suites(capsys, lehmer_sets):
    failures = []
    for q in (2, 3, 4, 5, 9):
        bad = euler_theorem_violations(field_from_order(q), trials=100)
        if bad:
            failures.append(f"euler q={q}: {bad[:3]}")
    for q, hits in lehmer_sets.items():
        bad = hit_structure_violations(field_from_order(q), hits)
        if bad:
            failures.append(f"structure q={q}: {bad}")
    bad = exponent_map_violations(n_max=20)
    if bad:
        failures.append(f"exponent map: {bad[:3]}")
    bad = divisibility_structure_violations(n_max=24)
    if bad:
        failures.append(f"dividing parts: {bad[:3]}")
    for q in (2, 3, 4):
        bad = unit_invariance_violations(field_from_order(q), max_degree=3)
        if bad:
            failures.append(f"unit invariance q={q}: {bad[:3]}")
    ok = not failures
    with capsys.disabled():
        verdict(11, ok, "power residue, squarefree, structure, and exponent-map "
                        "properties all hold")
    assert failures == []
