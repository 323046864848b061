"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 6 and 10 test claims that are false as stated, so they pin the
exact counterexamples instead of the claims.  The coarse candidate-degree
inequality also admits n = 28 and n = 36 (margins ~1.2 and ~0.43,
recomputed here at 35 and 60 digits); the refined filter rejects both.
The strict totient lower bound phi(n) > c(n)*n^(3/4) fails at exactly
n in {3, 6, 12, 16, 24, 48} for n <= 1e5, with equality at n = 16,
confirmed here by an exact integer check.  Either test fails if a
counterexample appears or disappears.  The refined candidate set and
every classification built on it are unaffected.  Two tests beside
criterion 10 hold its suite to the exact comparisons on crafted rows at
both bounds, and run it at its cap.
"""

import time
from math import isqrt

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
from lehmer_ff import suites
from lehmer_ff.cli import run as cli_run
from lehmer_ff.intmath import euler_phi, phi_sieve
from lehmer_ff.lehmer_search import PRECISION_GAP, c_factor
from lehmer_ff.suites import (
    BOUNDS_LIMIT_CAP,
    COARSE_DEGREES,
    REFINED_DEGREES,
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
    coarse, refined = candidate_degrees(200)  # PrecisionAlert would raise
    extra = set(COARSE_EXTRA_MARGINS)
    gap = mpmath.mpf(PRECISION_GAP.numerator) / PRECISION_GAP.denominator
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


def test_bounds_prefilter_hands_every_boundary_row_to_the_exact_check(monkeypatch):
    """Crafted rows to 5000, fourth-root groups r = 1..8, in three runs of
    the suite with its phi row, ``sigma`` and ``c_factor`` replaced:
    - at even n phi[n] is the greatest value that breaks the totient bound
      (equality at 16, 256, 1296, 4096), at odd n one more;
    - at odd n sig[n] is the least value that breaks the abundancy bound
      (equality at 625 = 5^4), at even n one less, and every phi sits one
      below the abundancy prefilter 25*n <= 32*r*phi;
    - in each group every phi is one above the group test min*r > hi - 1
      but the last, which is at it.
    The suite finds what the plain exact comparisons find, and asks for
    sigma and c(n) exactly where the prefilters leave a row open."""
    limit = 5000
    groups = [(r, r**4, min((r + 1) ** 4, limit + 1)) for r in range(1, 9)]
    c4 = {n: (c_factor(n).numerator ** 4, c_factor(n).denominator ** 4)
          for n in range(2, limit + 1)}
    sig = [0] * (limit + 1)
    phi_t, phi_h, phi_g = [0] * (limit + 1), [0] * (limit + 1), [0] * (limit + 1)
    for n in range(1, limit + 1):
        rhs = 1048576 * n**5
        s = isqrt(isqrt(rhs // 390625))
        s += s**4 * 390625 < rhs
        assert (s - 1) ** 4 * 390625 < rhs <= s**4 * 390625, n
        sig[n] = s - 1 + n % 2
    for n, (num4, den4) in c4.items():
        f = isqrt(isqrt(num4 * n**3 // den4))
        assert f**4 * den4 <= num4 * n**3 < (f + 1) ** 4 * den4, n
        phi_t[n] = f + n % 2
    for r, lo, hi in groups:
        for n in range(lo, hi):
            phi_h[n] = (25 * n - 1) // (32 * r)
            assert 32 * r * phi_h[n] < 25 * n <= 32 * r * (phi_h[n] + 1), n
            phi_g[n] = (hi - 1) // r + (n < hi - 1)
        assert phi_g[hi - 1] * r <= hi - 1 < (phi_g[hi - 1] + 1) * r, r
    exact_h = [n for n in range(1, limit + 1) if sig[n] ** 4 * 390625 >= 1048576 * n**5]
    exact_phi = [n for n, (num4, den4) in c4.items() if phi_t[n] ** 4 * den4 <= num4 * n**3]
    assert exact_h == list(range(1, limit + 1, 2))
    assert exact_phi == list(range(2, limit + 1, 2))

    def run(phi):
        asked = {"sigma": [], "c_factor": []}

        def recorded(name, f):
            return lambda n: asked[name].append(n) or f(n)

        monkeypatch.setattr(suites, "phi_sieve", lambda n_max: phi)
        monkeypatch.setattr(suites, "sigma", recorded("sigma", sig.__getitem__))
        monkeypatch.setattr(suites, "c_factor", recorded("c_factor", c_factor))
        return suite_bounds(limit).checks, asked

    (_, phi_check), _ = run(phi_t)
    assert phi_check.found == exact_phi
    (h_check, _), asked = run(phi_h)
    assert h_check.found == exact_h
    assert asked["sigma"] == list(range(1, limit + 1))
    (h_check, phi_check), asked = run(phi_g)
    assert h_check.found == phi_check.found == asked["sigma"] == []
    assert asked["c_factor"] == [hi - 1 for _, _, hi in groups]


def test_bounds_at_the_cap(monkeypatch):
    """The largest admitted limit, with spot checks on the one phi row it
    builds."""
    rows = []

    def sieve(n_max):
        rows.append(phi_sieve(n_max))
        return rows[-1]

    monkeypatch.setattr(suites, "phi_sieve", sieve)
    t0 = time.perf_counter()
    h_check, phi_check = suite_bounds(BOUNDS_LIMIT_CAP).checks
    assert time.perf_counter() - t0 < 5
    assert h_check.ok, h_check.found
    assert phi_check.found == TOTIENT_BOUND_VIOLATIONS, phi_check.found
    (phi,) = rows
    assert len(phi) == BOUNDS_LIMIT_CAP + 1
    for n in (2**19, 3**12, 5**8, 7**7, 720720, 997920, 999983, 10**6):
        assert phi[n] == euler_phi(n), n


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
