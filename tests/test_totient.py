"""Totient formula vs. brute-force oracle, membership, and sweeps."""

import importlib
import time

import pytest

from lehmer_ff import (
    InvalidInput,
    OracleOverflow,
    Partition,
    Poly,
    VerificationError,
    enumerate_polys,
    factor,
    factor_bruteforce,
    field_from_order,
    field_make,
    irreducible_count,
    irreducibles,
    is_irreducible,
    lehmer_set,
    lehmer_set_bruteforce,
    mersenne_divisibility,
    parse_poly,
    partitions_of,
    poly_gcd,
    totient,
    totient_bruteforce,
    totient_report,
)
from lehmer_ff import suites as suites_module
from lehmer_ff.suites import expected_lehmer_monic
from lehmer_ff.totient import hit_structure_violations, lehmer_shapes
from properties import all_polys

# the package re-exports the function ``totient`` under the module's name
totient_module = importlib.import_module("lehmer_ff.totient")
fpoly_module = importlib.import_module("lehmer_ff.fpoly")


def P(spec, text):
    return parse_poly(spec, text)


def test_totient_known_values(f2, f3):
    assert totient(P(f2, "x^4+x")) == 3  # x(x+1)(x^2+x+1)
    assert totient(P(f3, "x^2+x")) == 4  # x(x+1)
    assert totient(P(f2, "x^2")) == 2


def test_totient_of_irreducibles_is_q_deg_minus_1(f2, f3, f4):
    for spec, text in ((f2, "x^3+x+1"), (f3, "x^2+1"), (f4, "x^2+x+t")):
        f = P(spec, text)
        from lehmer_ff import is_irreducible

        assert is_irreducible(f)
        assert totient(f) == spec.q ** f.degree - 1


def test_totient_requires_positive_degree(f2):
    with pytest.raises(InvalidInput):
        totient(Poly.one(f2))
    with pytest.raises(InvalidInput):
        totient_bruteforce(Poly.zero(f2))


def test_totient_unit_invariant(f3):
    for f in enumerate_polys(f3, 3):
        for u in f3.units():
            assert totient(f * u) == totient(f)


def test_bruteforce_examples(f2, f3):
    assert totient_bruteforce(P(f2, "x^2+x")) == 1  # only g = 1 is coprime
    assert totient_bruteforce(P(f3, "x^2+x")) == 4
    assert totient_bruteforce(P(f2, "x^2+x+1")) == 3


def test_bruteforce_counts_directly(f2):
    # x^2 over F_2: of the residues 0, 1, x, x+1 exactly {1, x+1} are coprime
    from lehmer_ff import poly_gcd

    f = P(f2, "x^2")
    residues = [Poly.one(f2), P(f2, "x"), P(f2, "x+1")]
    coprime = [g for g in residues if poly_gcd(f, g) == Poly.one(f2)]
    assert [str(g) for g in coprime] == ["1", "x+1"]
    assert totient_bruteforce(f) == 2
    assert totient(f) == 2


def test_bruteforce_cap():
    f7 = field_make(7)
    with pytest.raises(OracleOverflow):
        totient_bruteforce(P(f7, "x^9+1"))


# F_5 runs the odd-prime walk, F_9 the odd extension through Zech tables
@pytest.mark.parametrize(
    "q,max_deg", [(2, 6), (3, 4), (4, 4), (5, 4), (8, 3), (9, 3), (2, 8)]
)
def test_oracle_equivalence_exhaustive(q, max_deg):
    spec = field_from_order(q)
    for n in range(1, max_deg + 1):
        for f in enumerate_polys(spec, n):
            assert totient(f) == totient_bruteforce(f), str(f)


def sieved(q, max_deg):
    """(f, phi from the sieve) for every monic f of degree 1..max_deg."""
    spec = field_from_order(q)
    phi = totient_module._phi_rows(spec, max_deg)
    for n in range(1, max_deg + 1):
        row = phi[n]
        assert len(row) == q**n
        yield from zip(enumerate_polys(spec, n), row)


# irreducibles included: their phi is q^n - 1, which no hit has
@pytest.mark.parametrize("q,max_deg", [(2, 8), (3, 5), (4, 4)])
def test_phi_sieve_equals_the_residue_count(q, max_deg):
    for f, phi in sieved(q, max_deg):
        assert phi == totient_bruteforce(f), str(f)


# F_9 runs the odd-extension walk, whose adds go through Zech tables
@pytest.mark.parametrize("q,max_deg", [(2, 12), (4, 5), (9, 3)])
def test_phi_sieve_equals_the_factored_totient(q, max_deg):
    for f, phi in sieved(q, max_deg):
        assert phi == totient(f), str(f)


GROUP_RANGES = [(2, 8), (3, 5), (4, 4), (9, 3)]


# repeated factors included: every monic f in range
@pytest.mark.parametrize("q,max_deg", GROUP_RANGES)
def test_totient_reads_phi_without_splitting(q, max_deg, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("totient must not split a degree group")

    monkeypatch.setattr(fpoly_module, "_split_equal_degree", refuse)
    for f, phi in sieved(q, max_deg):
        assert totient(f) == phi, str(f)


@pytest.mark.parametrize("q,max_deg", GROUP_RANGES)
def test_degree_groups_multiply_back_with_their_multiplicities(q, max_deg):
    """Each group (i, m, e) is the product of exactly the factors of
    degree i and multiplicity m, so the groups multiply back to f."""
    spec = field_from_order(q)
    for n in range(1, max_deg + 1):
        for f in enumerate_polys(spec, n):
            expected = {}
            for p, m in factor_bruteforce(f).factors:
                key = (p.degree, m)
                expected[key] = expected.get(key, Poly.one(spec)) * p
            groups = list(fpoly_module._degree_groups(spec, f.cv))
            assert {(i, m): Poly._raw(spec, e) for i, m, e in groups} == expected, str(f)
            assert len(groups) == len(expected), str(f)
            back = Poly.one(spec)
            for _, m, e in groups:
                for _ in range(m):
                    back = back * Poly._raw(spec, e)
            assert back == f, str(f)


# a prime power; mixed multiplicities; a linear factor times an
# irreducible of degree n - 1, whose multiples the leftover work marks
@pytest.mark.parametrize(
    "q,factors",
    [
        (2, [("x", 19)]),
        (2, [("x+1", 5), ("x^2+x+1", 3)]),
        (2, [("x", 1), ("x^18+x^7+1", 1)]),
        (3, [("x+2", 1), ("x^11+2*x^2+1", 1)]),
        (3, [("x", 4), ("x+1", 3), ("x^2+1", 2)]),
    ],
)
def test_bruteforce_divides_each_factor_out(q, factors):
    spec = field_from_order(q)
    f, phi = Poly.one(spec), 1
    for text, m in factors:
        p = P(spec, text)
        assert is_irreducible(p), text
        d = p.degree
        phi *= (q**d - 1) * q ** (d * (m - 1))
        for _ in range(m):
            f = f * p
    assert totient_bruteforce(f) == phi == totient(f), str(f)


def coprime_residue_count(f):
    """The literal definition: every nonzero g with deg(g) < deg(f)."""
    one = Poly.one(f.spec)
    return sum(
        poly_gcd(f, g) == one
        for d in range(f.degree)
        for g in all_polys(f.spec, d)
    )


# (2, 6): x * P has its cofactor P above degree 3, and x^2 * P is skipped
# as a multiple of x; (3, 4, True): the odd-p walk on unit multiples
@pytest.mark.parametrize(
    "q,max_deg,units",
    [(2, 5, False), (3, 3, True), (4, 3, True), (5, 2, False),
     (7, 2, False), (8, 2, False), (9, 2, True), (2, 6, False), (3, 4, True)],
)
def test_bruteforce_equals_the_literal_count(q, max_deg, units):
    spec = field_from_order(q)
    scales = list(spec.units()) if units else [spec.element(1)]
    for n in range(1, max_deg + 1):
        counts = totient_module._bruteforce_degree(spec, n)
        for monic, count in zip(enumerate_polys(spec, n), counts, strict=True):
            for u in scales:
                f = monic * u
                assert totient_bruteforce(f) == count == coprime_residue_count(f), str(f)


# one gcd per residue takes close to a minute here, so 2 s tells the two apart
@pytest.mark.parametrize(
    "q,text", [(2, "x^20"), (2, "x^20+x^3+1"), (4, "x^10+t*x^3+x+t")]
)
def test_bruteforce_reaches_the_cap(q, text):
    f = P(field_from_order(q), text)
    assert q**f.degree == totient_module.ORACLE_CAP
    t0 = time.perf_counter()
    count = totient_bruteforce(f)
    elapsed = time.perf_counter() - t0
    assert count == totient(f)
    assert elapsed < 2, elapsed


def test_bruteforce_reaches_the_odd_p_cap(f3):
    f = P(f3, "x^12+x")
    assert 3**f.degree <= totient_module.ORACLE_CAP < 3 ** (f.degree + 1)
    t0 = time.perf_counter()
    count = totient_bruteforce(f)
    elapsed = time.perf_counter() - t0
    assert count == totient(f)
    assert elapsed < 2, elapsed


def test_bruteforce_needs_no_factoring(monkeypatch):
    fields = [(field_from_order(2), 6), (field_from_order(9), 2)]
    expected = [
        (f, totient(f))
        for spec, max_deg in fields
        for n in range(1, max_deg + 1)
        for f in enumerate_polys(spec, n)
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not factor or sieve")

    for module in (totient_module, fpoly_module):
        monkeypatch.setattr(module, "_degree_groups", refuse)
        monkeypatch.setattr(module, "_least_factor_sieve", refuse)
    monkeypatch.setattr(fpoly_module, "_factor_cv", refuse)
    for f, phi in expected:
        assert totient_bruteforce(f) == phi, str(f)


@pytest.mark.parametrize("q,max_deg", [(2, 10), (3, 6), (4, 5), (9, 3)])
def test_trial_divisors_are_the_irreducibles(q, max_deg):
    """The oracle's trial-division list against the sieve, which the
    oracle itself never reads."""
    spec = field_from_order(q)
    for d in range(1, max_deg + 1):
        expected = [p.cv for p in irreducibles(spec, d)]
        assert list(totient_module._trial_divisors(spec, d)) == expected, d


def recorded_walks(monkeypatch) -> list:
    """The (q, divisor, degrees) of each multiples walk that the oracles
    make from here on."""
    walked = []
    walk = totient_module._monic_multiples

    def recorded(spec, pcv, ms):
        walked.append((spec.q, pcv, ms))
        return walk(spec, pcv, ms)

    monkeypatch.setattr(totient_module, "_monic_multiples", recorded)
    return walked


@pytest.mark.parametrize("q,max_deg", [(2, 8), (3, 4)])
def test_bruteforce_walks_each_irreducible_factor_once(q, max_deg, monkeypatch):
    """Divisors go by ascending degree, so every reducible divisor is
    already marked by a factor of it and only the distinct irreducible
    factors of degree < deg(f) have their multiples walked (with the
    mask cache emptied before each f, so that no mask is reused)."""
    spec = field_from_order(q)
    walked = recorded_walks(monkeypatch)
    for n in range(2, max_deg + 1):
        for f in enumerate_polys(spec, n):
            walked.clear()
            totient_module._multiple_masks.cache_clear()
            totient_bruteforce(f)
            irreducible = {p.cv for p, _ in factor(f).factors if p.degree < n}
            assert sorted(pcv for _, pcv, _ in walked) == sorted(irreducible), str(f)


def test_cold_oracle_suite_walks_each_divisor_once(monkeypatch):
    """One walk per (field, irreducible h, n) with deg h < n, for each
    degree n of each field the suite counts with the sieve of multiples."""
    walked = recorded_walks(monkeypatch)
    totient_module._multiple_masks.cache_clear()
    assert suites_module.suite_oracle().ok
    assert len(walked) == len(set(walked)) == 99


def test_warm_oracle_suite_walks_nothing(monkeypatch):
    walked = recorded_walks(monkeypatch)
    totient_module._multiple_masks.cache_clear()
    cold = suites_module.suite_oracle().as_payload()
    walked.clear()
    assert suites_module.suite_oracle().as_payload() == cold
    assert walked == []


# every field family, each up to the size guard q^(2n) <= ORACLE_CAP
@pytest.mark.parametrize(
    "q,max_deg", [(2, 10), (3, 6), (4, 5), (5, 4), (9, 3), (32, 2)]
)
def test_degree_count_equals_the_one_polynomial_oracle(q, max_deg):
    spec = field_from_order(q)
    for n in range(1, max_deg + 1):
        counts = totient_module._bruteforce_degree(spec, n)
        for f, count in zip(enumerate_polys(spec, n), counts, strict=True):
            assert count == totient_bruteforce(f), str(f)


DIVISION_KERNELS = (
    "_divmod_cv", "_reduce_cv", "_gcd_cv", "_powmod_cv",
    "_degree_groups", "_least_factor_sieve", "_trial_divisors",
)


def test_degree_count_divides_nothing(monkeypatch):
    fields = [(field_from_order(2), 7), (field_from_order(3), 4), (field_from_order(9), 2)]
    expected = [
        (spec, n, [totient(f) for f in enumerate_polys(spec, n)])
        for spec, max_deg in fields
        for n in range(1, max_deg + 1)
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the sieve of multiples must not divide, factor or sieve")

    for module in (totient_module, fpoly_module):
        for name in DIVISION_KERNELS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    totient_module._multiple_masks.cache_clear()
    for spec, n, phis in expected:
        assert totient_module._bruteforce_degree(spec, n) == phis, (spec.q, n)


def test_degree_count_guard_walks_nothing(f2, monkeypatch):
    walked = recorded_walks(monkeypatch)
    totient_module._multiple_masks.cache_clear()
    with pytest.raises(OracleOverflow):
        totient_module._bruteforce_degree(f2, 11)
    assert walked == []


def test_cold_degree_count_walks_each_irreducible_once(f2, monkeypatch):
    """The 127 irreducibles of degree below 10 over F_2, which all fit the
    mask cache at once."""
    walked = recorded_walks(monkeypatch)
    totient_module._multiple_masks.cache_clear()
    totient_module._bruteforce_degree(f2, 10)
    below = [p.cv for d in range(1, 10) for p in irreducibles(f2, d)]
    assert len(below) == 127
    assert walked == [(2, pcv, range(10 - len(pcv) + 2)) for pcv in below]
    walked.clear()
    totient_module._bruteforce_degree(f2, 10)
    assert walked == []


def test_mask_cache_is_bounded(f2):
    """An entry holds at most ORACLE_CAP bits, and the cache a bounded
    number of entries; the multiples of x are the g with g(0) = 0."""
    masks = totient_module._multiple_masks
    assert masks.cache_parameters()["maxsize"] is not None
    entry = masks(f2, (0, 1), 19)
    assert sum(mask.bit_length() for mask in entry) <= 2**20
    assert [mask.bit_count() for mask in entry] == [2 ** (e - 1) for e in range(1, 20)]


def test_is_lehmer_examples(f2):
    report = totient_report(P(f2, "x^2+x"))
    assert (report.divides, report.reducible) == (True, True)
    report = totient_report(P(f2, "x^2+x+1"))
    assert (report.divides, report.reducible) == (True, False)
    report = totient_report(P(f2, "x^3+x^2+x"))  # x(x^2+x+1), phi = 3
    assert (report.divides, report.reducible) == (False, True)


def test_report_fields(f2):
    report = totient_report(P(f2, "x^4+x"))
    assert report.phi == 3
    assert report.modulus_value == 15
    assert report.divides and report.reducible
    rec = report.as_record()
    assert rec["q"] == 2 and rec["degree"] == 4
    assert rec["phi"] == "3" and rec["modulus_value"] == "15"
    assert rec["factors"] == [["x", 1], ["x+1", 1], ["x^2+x+1", 1]]


def test_report_record_prints_values_past_int_str_limit():
    f16 = field_from_order(65536)
    f = P(f16, "x")
    modulus = 65536**1000 - 1  # 4,817 digits
    report = totient_module.TotientReport(
        f, modulus, modulus, True, False, factor(f)
    )
    rec = report.as_record()
    assert rec["phi"] == rec["modulus_value"]
    assert len(rec["phi"]) == 4817 and rec["phi"][0] != "0"
    assert int(rec["phi"][-18:]) == modulus % 10**18


def test_main_theorem_scans_each_field_once(monkeypatch):
    calls = []

    def counted(spec, *args, **kwargs):
        calls.append(spec.q)
        return lehmer_set_bruteforce(spec, *args, **kwargs)

    monkeypatch.setattr(suites_module, "lehmer_set_bruteforce", counted)
    report = suites_module.suite_main_theorem(max_degree=4)
    assert calls == [2, 3, 4, 5]
    unit_check = [c for c in report.checks if "unit expansion" in c.label]
    assert [(c.label, c.ok) for c in unit_check] == [
        ("q=3 unit expansion yields 6 polynomials", True)
    ]


def test_report_divides_iff_modulus_multiple(f3):
    for f in enumerate_polys(f3, 3):
        rep = totient_report(f)
        assert rep.divides == (rep.modulus_value % rep.phi == 0)
        assert rep.reducible == (rep.factorization.total_multiplicity >= 2)


def test_lehmer_set_f3_monic_and_expanded(f3):
    monic = lehmer_set(f3, 8)
    assert {str(r.f) for r in monic} == {"x^2+x", "x^2+2*x", "x^2+2"}
    expanded = lehmer_set(f3, 8, expand_units=True)
    expected = {
        str(parse_poly(f3, t))
        for t in (
            "x^2+x", "2*x^2+2*x",
            "x^2+2*x", "2*x^2+x",
            "x^2+2", "2*x^2+1",
        )
    }
    assert {str(r.f) for r in expanded} == expected
    keys = [r.f.sort_key() for r in expanded]
    assert keys == sorted(keys)


@pytest.mark.parametrize("q, max_degree", [(2, 12), (3, 8)])
def test_unit_multiples_report_as_if_factored_afresh(q, max_degree):
    # the expanded reports are the monic ones with f and unit replaced
    expanded = lehmer_set(field_make(q), max_degree, expand_units=True)
    assert len(expanded) == 6
    for r in expanded:
        assert r == totient_report(r.f)


def test_lehmer_set_f2(f2, lehmer_sets):
    hits = lehmer_sets[2]
    assert {r.f for r in hits} == expected_lehmer_monic(f2)
    assert len(hits) == 6


def test_lehmer_set_empty_for_larger_fields(lehmer_sets):
    assert lehmer_sets[4] == []
    assert lehmer_sets[5] == []


def test_lehmer_set_matches_per_poly_filter(f3):
    swept = {r.f for r in lehmer_set(f3, 4)}
    direct = set()
    for n in range(1, 5):
        for f in enumerate_polys(f3, n):
            report = totient_report(f)
            if report.divides and report.reducible:
                direct.add(f)
    assert swept == direct


@pytest.mark.parametrize("q,max_deg", [(2, 12), (3, 8), (4, 7), (5, 7)])
def test_lehmer_set_equals_bruteforce_oracle(q, max_deg, lehmer_sets):
    assert lehmer_set(field_from_order(q), max_deg) == lehmer_sets[q]


def test_lehmer_set_matches_classification_beyond_oracle_reach():
    ranges = [(2, 40), (3, 24)] + [(q, 12) for q in (4, 5, 7, 8, 9)]
    t0 = time.perf_counter()
    for q, max_deg in ranges:
        spec = field_from_order(q)
        found = {r.f for r in lehmer_set(spec, max_deg)}
        assert found == expected_lehmer_monic(spec), q
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_lehmer_shapes_lose_no_partition(q):
    # divisor-of-n pruning keeps every capped partition that passes
    for n in range(2, 21):
        full = {
            parts
            for parts in partitions_of(n)
            if all(parts.count(d) <= irreducible_count(q, d) for d in set(parts))
            and mersenne_divisibility(q, Partition(parts))
        }
        shapes = lehmer_shapes(q, n)
        assert len(shapes) == len(set(shapes))
        assert set(shapes) == full, (q, n)


def test_lehmer_set_validates_arguments(f2):
    for sweep in (lehmer_set, lehmer_set_bruteforce):
        with pytest.raises(InvalidInput):
            sweep(f2, 0)
    with pytest.raises(InvalidInput):
        lehmer_set(f2, 4, workers=0)


def test_lehmer_set_bruteforce_cap(f2, monkeypatch):
    # 2 + 4 + ... + 2^6 = 126 monic polys fit a cap of 126; degree 7 does not
    monkeypatch.setattr(fpoly_module, "ORACLE_CAP", 126)
    assert lehmer_set_bruteforce(f2, 6) == lehmer_set(f2, 6)
    with pytest.raises(OracleOverflow):
        lehmer_set_bruteforce(f2, 7)


def test_lehmer_set_guards_hit_structure(f2, monkeypatch):
    # x(x^2+x+1) has a factor degree that does not divide 3
    monkeypatch.setattr(
        totient_module, "lehmer_shapes", lambda q, n: [(1, 2)] if n == 3 else []
    )
    with pytest.raises(VerificationError, match="does not divide 3"):
        lehmer_set(f2, 3)


def test_unit_membership_invariance(f2, f3, f4):
    for spec in (f2, f3, f4):
        for n in range(1, 4):
            for f in enumerate_polys(spec, n):
                report = totient_report(f)
                for u in spec.units():
                    report_u = totient_report(f * u)
                    assert report_u.divides == report.divides
                    assert report_u.reducible == report.reducible


def test_hits_are_squarefree_with_dividing_degrees(lehmer_sets):
    from lehmer_ff import field_from_order

    for q, hits in lehmer_sets.items():
        for r in hits:
            fac = factor(r.f)
            assert fac == r.factorization
            assert fac.is_squarefree()
            assert all(r.f.degree % p.degree == 0 for p, _ in fac.factors)
        assert hit_structure_violations(field_from_order(q), hits) == []


def test_hit_guard_checks_the_lehmer_condition(f2):
    # both have the shape of a hit: x^2+x+1 is irreducible, and
    # x^8+x^4+x^2+x = x(x+1)(x^2+x+1)(x^4+x+1) has phi 45, which does not
    # divide 2^8 - 1 = 255
    reports = [totient_report(P(f2, t)) for t in ("x^2+x+1", "x^8+x^4+x^2+x")]
    assert [str(p) for p, _ in reports[1].factorization.factors] == [
        "x", "x+1", "x^2+x+1", "x^4+x+1",
    ]
    assert hit_structure_violations(f2, reports) == [
        "x^2+x+1: irreducible",
        "x^8+x^4+x^2+x: phi 45 does not divide 255",
    ]


@pytest.mark.parametrize("q,max_deg", [(2, 12), (3, 8)])
def test_sweep_reports_equal_the_direct_reports(q, max_deg):
    # the sweep factors each monic hit once and reuses the factors for
    # its unit multiples; every report must still be totient_report's
    spec = field_from_order(q)
    for expand_units in (False, True):
        reports = lehmer_set(spec, max_deg, expand_units=expand_units)
        assert reports == [totient_report(r.f) for r in reports]
