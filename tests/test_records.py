"""The result records are immutable named tuples: no attribute can be
set, equal records hash equal, and ``IntPoly`` trims what it is built
from.  ``Partition``'s checks are in test_lehmer_search.py."""

import pytest

from lehmer_ff import (
    IntPoly,
    Partition,
    factor,
    field_make,
    parse_poly,
    totient_report,
    zsigmondy,
)
from lehmer_ff.suites import Check


def _records():
    """Record name -> (a builder of one record, one of its fields)."""
    f = parse_poly(field_make(2), "x^4+x")
    return {
        "Factorization": (lambda: factor(f), "unit"),
        "TotientReport": (lambda: totient_report(f), "phi"),
        "ZsigmondyResult": (lambda: zsigmondy(2, 1, 6), "primitive_part"),
        "Check": (lambda: Check("label", False, {1}, {2}), "ok"),
        "IntPoly": (lambda: IntPoly((1, -1, 0)), "coeffs"),
        "Partition": (lambda: Partition((1, 2, 3)), "parts"),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_immutable(name):
    build, field = RECORDS[name]
    record = build()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_records_hash_equal(name):
    if name == "Check":  # a failed check holds sets, which do not hash
        a, b = Check("label", True), Check("label", True)
    else:
        build, _ = RECORDS[name]
        a, b = build(), build()
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1 and b in {a}


def test_int_poly_trims_trailing_zeros():
    assert IntPoly((1, 0, 0)).coeffs == (1,)
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly([1, 0, 0]) == IntPoly((1,))
