"""Partition divisibility, exponent maps, bounds, and candidate degrees."""

import time
from fractions import Fraction
from functools import partial

import mpmath
import pytest

from lehmer_ff import (
    InvalidInput,
    Partition,
    c_factor,
    candidate_degrees,
    classify_a_ge_3,
    exponent_map,
    irreducible_count,
    lehmer_partitions,
    mersenne_divisibility,
    partitions_of,
    verify_prop36,
)
from lehmer_ff.intmath import euler_phi
from lehmer_ff.lehmer_search import (
    CANDIDATE_DPS,
    CANDIDATE_TAIL,
    GUARD_BITS,
    PRECISION_GAP,
    _atanh_enclosure,
    _log_enclosure,
    _margins,
    _quartic_root_floor,
)
from lehmer_ff.suites import PRIMORIAL_TAIL, PROP36_SOLUTIONS, suite_bounds
from lehmer_ff.totient import lehmer_shapes
from properties import (
    abundancy,
    denominator_multiset,
    divisibility_structure_violations,
    exponent_map_two_pass,
    exponent_map_value,
    exponent_map_violations,
    margins_by_fractions,
    positive_divisors,
    prop36_partition_allowed,
)

# the inequality-based filter, recomputed at 35 and 60 digits (identical):
# it admits 28 and 36 as well, both of which the refined filter rejects
COARSE_TRUE = set(range(7, 23)) | {24, 26, 28, 30, 34, 36, 38, 42, 46, 50, 54}
REFINED_TRUE = {8, 9, 10, 12, 14, 18, 20, 24, 30}


def test_partition_validation():
    Partition((1, 1, 2))
    for parts in [(3,), (1,)]:  # s >= 2
        with pytest.raises(InvalidInput):
            Partition(parts)
    with pytest.raises(InvalidInput):
        Partition((2, 1))  # not nondecreasing
    for parts in [(0, 2), (0, 1)]:
        with pytest.raises(InvalidInput):
            Partition(parts)


def test_partition_accessors():
    part = Partition((1, 2, 2, 3))
    assert part.n == 8
    assert str(part) == "(1,2,2,3)"


def test_partitions_of_counts_and_order():
    parts4 = list(partitions_of(4))
    assert parts4 == [(1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3)]
    # colex: ordered by largest part, so streams shard by that prefix
    largest = [p[-1] for p in parts4]
    assert largest == sorted(largest)
    # p(n) minus the single-part partition
    assert len(list(partitions_of(10))) == 42 - 1
    assert list(partitions_of(1)) == []


def test_mersenne_divisibility_examples():
    assert mersenne_divisibility(3, Partition((1, 1)))  # 4 | 8
    assert mersenne_divisibility(3, Partition((1, 1, 1, 1)))  # 16 | 80
    assert mersenne_divisibility(2, Partition((1, 2, 3)))  # 21 | 63
    assert not mersenne_divisibility(4, Partition((1, 1)))  # 9 does not divide 15


def test_classify_a_ge_3_full_window():
    found = classify_a_ge_3(8, 10)
    assert {(a, p.parts) for a, p in found} == {(3, (1, 1)), (3, (1, 1, 1, 1))}


def test_classify_a_ge_3_small_window():
    found = classify_a_ge_3(3, 2)
    assert [(a, p.parts) for a, p in found] == [(3, (1, 1))]


def test_classify_fixed_point_under_larger_bounds():
    small = {(a, p.parts) for a, p in classify_a_ge_3(8, 10)}
    large = {(a, p.parts) for a, p in classify_a_ge_3(10, 12)}
    assert small == large


def test_no_solutions_for_base_4_alone():
    for n in range(2, 4):
        for parts in partitions_of(n):
            assert not mersenne_divisibility(4, Partition(parts))


def test_exponent_map_examples():
    em = exponent_map(4, Partition((1, 1, 2)))
    assert em == {1: -2, 2: 0, 4: 1}
    em = exponent_map(2, Partition((1, 1)))
    assert em == {1: -1, 2: 1}
    em = exponent_map(6, Partition((1, 2, 3)))
    assert em == {1: -2, 2: 0, 3: 0, 6: 1}
    assert positive_divisors(em) == {6}
    assert denominator_multiset(em) == {}


def test_exponent_map_structure():
    em = exponent_map(6, Partition((2, 4)))  # part 4 does not divide 6
    assert em == {1: -1, 2: -1, 3: 1, 4: -1, 6: 1}
    assert denominator_multiset(em) == {2: 1, 4: 1}
    assert positive_divisors(em) == {3, 6}


def test_exponent_map_value_is_the_quotient():
    em = exponent_map(6, Partition((1, 2, 3)))
    assert exponent_map_value(em, 2) == Fraction(63, 21)
    assert exponent_map_value(em, 2).denominator == 1
    em = exponent_map(4, Partition((2, 2)))
    assert exponent_map_value(em, 2) == Fraction(15, 9)


def test_exponent_map_requires_matching_sum():
    with pytest.raises(InvalidInput):
        exponent_map(5, Partition((1, 1)))


def test_exponent_map_equals_the_two_pass_reference():
    checked = 0
    for n in range(2, 23):
        for parts in partitions_of(n):
            part = Partition(parts)
            expected = list(exponent_map_two_pass(n, part).items())
            assert list(exponent_map(n, part).items()) == expected, parts
            checked += 1
    assert checked == 4485


def test_exponent_map_consistency_small():
    assert exponent_map_violations(n_max=12) == []


def test_divisibility_forces_dividing_parts():
    assert divisibility_structure_violations(n_max=16) == []


def test_abundancy_examples():
    assert abundancy(1) == 1
    assert abundancy(6) == 2
    assert abundancy(30) == Fraction(12, 5)
    with pytest.raises(InvalidInput):
        abundancy(0)


def test_c_factor_examples():
    assert c_factor(2) == Fraction(59, 100)
    assert c_factor(8) == Fraction(84, 100)
    assert c_factor(9) == 1
    assert c_factor(4) == Fraction(70, 100)
    assert c_factor(16) == 1
    with pytest.raises(InvalidInput):
        c_factor(1)


def test_prop36_multiplicity_caps():
    assert prop36_partition_allowed(Partition((1, 1, 2)))
    assert not prop36_partition_allowed(Partition((1, 1, 1)))  # u_1 = 3
    assert not prop36_partition_allowed(Partition((2, 2, 4)))  # u_2 = 2 > 3/2
    assert prop36_partition_allowed(Partition((3, 3)))  # u_3 = 2 <= 7/3


def _passing_in_order(a, n, cap=None):
    """The oracle: every partition of n, filtered, in ``partitions_of`` order."""
    return [
        parts
        for parts in partitions_of(n)
        if (cap is None or all(parts.count(d) <= cap(d) for d in set(parts)))
        and mersenne_divisibility(a, Partition(parts))
    ]


@pytest.mark.parametrize("a", range(2, 9))
def test_lehmer_partitions_equal_the_oracle_in_order(a):
    for n in range(1, 31):
        found = [part.parts for part in lehmer_partitions(a, n)]
        assert found == _passing_in_order(a, n), (a, n)


@pytest.mark.parametrize("a, n", [(2, 36), (2, 40), (3, 36), (3, 40)])
def test_lehmer_partitions_equal_the_oracle_where_parts_prune_least(a, n):
    # 2^1 - 1 = 1 never prunes, and 36 and 40 have many divisor partitions
    found = [part.parts for part in lehmer_partitions(a, n)]
    assert found == _passing_in_order(a, n)


@pytest.mark.parametrize("a", [-1, 0, 1])
@pytest.mark.parametrize("n", [1, 2, 12])
def test_lehmer_partitions_reject_a_base_below_two(a, n):
    with pytest.raises(InvalidInput, match="base must be >= 2"):
        lehmer_partitions(a, n)


# -- reach: a search that lists every partition before testing it fails these


def _within(seconds, call):
    t0 = time.perf_counter()
    result = call()
    assert time.perf_counter() - t0 < seconds
    return result


def test_verify_prop36_reaches_200():
    found = _within(5, lambda: verify_prop36(200))
    assert {(n, part.parts) for n, part in found} == PROP36_SOLUTIONS


@pytest.mark.parametrize("q, n_max, expected", [
    (2, 1000, {2: [(1, 1)], 4: [(1, 1, 2)], 6: [(1, 2, 3)]}),
    (3, 500, {2: [(1, 1)]}),
    *((q, 60, {}) for q in (4, 5, 7, 8, 9, 65521)),
])
def test_lehmer_shapes_reach(q, n_max, expected):
    shapes = _within(5, lambda: [lehmer_shapes(q, n) for n in range(1, n_max + 1)])
    assert {n: found for n, found in enumerate(shapes, 1) if found} == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 257])
def test_capped_lehmer_partitions_equal_the_oracle_in_order(q):
    cap = partial(irreducible_count, q)
    for n in range(1, 21):
        found = [part.parts for part in lehmer_partitions(q, n, cap)]
        assert found == _passing_in_order(q, n, cap), (q, n)


def test_classifications_equal_the_oracle_in_order():
    prop36 = [
        (n, parts)
        for n in range(2, 31)
        for parts in _passing_in_order(2, n)
        if prop36_partition_allowed(Partition(parts))
    ]
    assert [(n, part.parts) for n, part in verify_prop36(30)] == prop36
    prop31 = [
        (a, parts)
        for a in range(3, 9)
        for n in range(2, 17)
        for parts in _passing_in_order(a, n)
    ]
    assert [(a, part.parts) for a, part in classify_a_ge_3(8, 16)] == prop31


def test_verify_prop36_windows():
    assert {(n, p.parts) for n, p in verify_prop36(30)} == {
        (2, (1, 1)),
        (4, (1, 1, 2)),
        (6, (1, 2, 3)),
    }
    assert [(n, p.parts) for n, p in verify_prop36(2)] == [(2, (1, 1))]
    assert {(n, p.parts) for n, p in verify_prop36(5)} == {
        (2, (1, 1)),
        (4, (1, 1, 2)),
    }


def test_candidate_degrees_refined_set():
    _, refined = candidate_degrees(200)
    assert refined == REFINED_TRUE


def test_candidate_degrees_coarse_set_matches_inequality():
    coarse, _ = candidate_degrees(200)
    assert coarse == COARSE_TRUE


def test_candidate_degrees_empty_beyond_54():
    coarse, refined = candidate_degrees(400)
    assert max(coarse) == 54
    assert max(refined) == 30


def test_candidate_degrees_stable_across_precision(monkeypatch):
    import lehmer_ff.lehmer_search as mod

    default = candidate_degrees(400)
    for dps in (30, 50):
        monkeypatch.setattr(mod, "CANDIDATE_DPS", dps)
        assert candidate_degrees(400) == default, dps


def test_candidate_degrees_validation():
    with pytest.raises(InvalidInput):
        candidate_degrees(5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: mersenne_divisibility(1, Partition((1, 1))),
        lambda: classify_a_ge_3(2, 5),
        lambda: classify_a_ge_3(3, 1),
        lambda: verify_prop36(1),
    ],
    ids=["mersenne-base-1", "classify-a-max-2", "classify-n-max-1", "prop36-n-max-1"],
)
def test_bad_arguments_raise_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


def test_marginal_comparison_raises_precision_alert(monkeypatch):
    import lehmer_ff.lehmer_search as mod
    from lehmer_ff import PrecisionAlert

    monkeypatch.setattr(mod, "PRECISION_GAP", Fraction(10))
    with pytest.raises(PrecisionAlert):
        candidate_degrees(20)


# -- the integer enclosures behind candidate_degrees --------------------------


def _bits(dps):
    """The scale 2^bits that candidate_degrees works at for ``dps`` digits."""
    return (10**dps).bit_length() + GUARD_BITS


def _mpmath_margins(n):
    """(coarse, refined): left minus right side of each comparison in the
    ``candidate_degrees`` docstring, recomputed in mpmath."""
    delta = 1 - n % 2
    common = (mpmath.log(4) + delta * mpmath.log(mpmath.mpf(4) / 3) - 1
              - mpmath.mpf(delta) / 2 - mpmath.mpf(1) / n + mpmath.log(2 * n))
    c, h = c_factor(n), abundancy(n)
    coarse = (common + mpmath.mpf(128) / 100 * mpmath.root(n, 4)
              - mpmath.mpf(c.numerator) / c.denominator * mpmath.log(2)
              * mpmath.power(n, mpmath.mpf(3) / 4))
    refined = (common + mpmath.mpf(h.numerator) / h.denominator
               - euler_phi(n) * mpmath.log(2))
    return coarse, refined


def _unrounded_margins(n, bits):
    """(coarse, refined) intervals that the component enclosures give in
    exact rationals, before any rounding: each margin enclosure must
    contain its interval, or some rounding went inward."""
    scale = 1 << bits
    log2 = [2 * v for v in _atanh_enclosure(1, 3, bits)]
    log43 = [2 * v for v in _atanh_enclosure(1, 7, bits)]
    log2n = _log_enclosure(2 * n, bits, log2)
    root, root3 = _quartic_root_floor(n, bits), _quartic_root_floor(n**3, bits)
    delta = 1 - n % 2
    rational = -scale * (1 + Fraction(delta, 2) + Fraction(1, n))
    common = [2 * log2[i] + delta * log43[i] + log2n[i] + rational for i in (0, 1)]
    c, h, phi = c_factor(n), scale * abundancy(n), euler_phi(n)
    coarse = (
        common[0] + Fraction(128, 100) * root - c * log2[1] * (root3 + 1) / scale,
        common[1] + Fraction(128, 100) * (root + 1) - c * log2[0] * root3 / scale,
    )
    refined = (common[0] + h - phi * log2[1], common[1] + h - phi * log2[0])
    return coarse, refined


@pytest.mark.parametrize("dps", [30, 50])
def test_log_and_root_enclosures_hold_the_true_values(dps):
    bits = _bits(dps)
    scale = 1 << bits
    log2 = tuple(2 * v for v in _atanh_enclosure(1, 3, bits))
    log43 = tuple(2 * v for v in _atanh_enclosure(1, 7, bits))
    bad = []
    with mpmath.workdps(dps + 30):
        checks = [(log2, mpmath.log(2)), (log43, mpmath.log(mpmath.mpf(4) / 3))]
        for n in range(1, 10_000 + 1):
            root, root3 = _quartic_root_floor(n, bits), _quartic_root_floor(n**3, bits)
            checks += [
                (_log_enclosure(2 * n, bits, log2), mpmath.log(2 * n)),
                ((root, root + 1), mpmath.root(n, 4)),
                ((root3, root3 + 1), mpmath.power(n, mpmath.mpf(3) / 4)),
            ]
        for (lo, hi), value in checks:
            # inside, and narrower than 10^-(dps - 3)
            if not (lo <= value * scale <= hi and (hi - lo) * 10 ** (dps - 3) < scale):
                bad.append((lo, hi, value))
    assert bad == []


@pytest.mark.parametrize("dps", [30, 50])
def test_margin_enclosures_hold_the_true_margins_rounded_outward(dps):
    bits = _bits(dps)
    scale = 1 << bits
    bad = []
    with mpmath.workdps(dps + 30):
        for n, *margins in _margins(400, bits):
            for (lo, hi), true, (exact_lo, exact_hi) in zip(
                margins, _mpmath_margins(n), _unrounded_margins(n, bits)
            ):
                if not (lo <= exact_lo and exact_hi <= hi
                        and lo <= true * scale <= hi
                        and (hi - lo) * 10 ** (dps - 3) < scale):
                    bad.append(n)
    assert bad == []


def _majorant_enclosure(n, bits, log2):
    """Rationals lo <= 2^bits * U(n) <= hi for the majorant
    U(n) = log 8 - 1 - 1/n + (32/25) n^(1/4) - (59/100) log2 n^(3/4) + log n
    of the coarse margin, from the integer log and root enclosures."""
    scale = 1 << bits
    logn = _log_enclosure(n, bits, log2)
    root, root3 = _quartic_root_floor(n, bits), _quartic_root_floor(n**3, bits)
    rational = -scale - Fraction(scale, n)
    c = Fraction(59, 100)
    return (
        3 * log2[0] + rational + Fraction(32, 25) * root
        - c * log2[1] * (root3 + 1) / scale + logn[0],
        3 * log2[1] + rational + Fraction(32, 25) * (root + 1)
        - c * log2[0] * root3 / scale + logn[1],
    )


def test_candidate_tail_certificate():
    """The proof behind ``CANDIDATE_TAIL``, decided in exact integers and
    rationals.  U bounds the coarse margin from above, as log(4/3) < 1/2
    and c(n) >= 59/100.  With m = n^(1/4), dU/dm = 32/25 + 4/m + 4/m^5 -
    (177/100) log2 m^2 falls with m and is negative at m = 2, so U
    decreases from n = 16 on.  U(CANDIDATE_TAIL) < -gap <= 0 <
    U(CANDIDATE_TAIL - 1), and past the six n where the totient bound
    fails the refined margin lies below the coarse one."""
    bits = _bits(CANDIDATE_DPS)
    scale = 1 << bits
    log2 = [2 * v for v in _atanh_enclosure(1, 3, bits)]
    log43 = [2 * v for v in _atanh_enclosure(1, 7, bits)]
    # the tail starts at the first n with U(n) < -gap; one less would not do
    assert _majorant_enclosure(CANDIDATE_TAIL, bits, log2)[1] < -PRECISION_GAP * scale
    assert _majorant_enclosure(CANDIDATE_TAIL - 1, bits, log2)[0] > 0
    # U majorises the coarse margin: c(n) >= 59/100 at every 2-adic
    # valuation, and log(4/3) < 1/2
    assert min(c_factor(3 << v) for v in range(64)) == Fraction(59, 100)
    assert 2 * log43[1] < scale
    # dU/dm < 0 at m = 2, that is n = 16, below the tail
    assert 2**4 < CANDIDATE_TAIL
    assert (Fraction(32, 25) + 2 + Fraction(1, 8)) * scale < Fraction(177, 25) * log2[0]
    # the counterexamples of both bounds all lie below the tail
    report = suite_bounds(PRIMORIAL_TAIL - 1)
    assert all(n < CANDIDATE_TAIL for check in report.checks for n in check.found)
    # and U lies above every coarse enclosure, tail or not, to n = 400
    for n, (_, coarse_hi), _ in _margins(400, bits):
        assert coarse_hi < _majorant_enclosure(n, bits, log2)[0], n


@pytest.mark.parametrize("bits", [_bits(35), 128])
def test_integer_margins_equal_the_fraction_reference(bits):
    """The default 35 digits and a 128-bit scale: every (lo, hi) pair of
    the integer rounding equals the one ``Fraction`` floor and ceil give."""
    assert list(_margins(2000, bits)) == list(margins_by_fractions(2000, bits))
