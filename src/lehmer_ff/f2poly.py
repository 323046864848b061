"""Polynomials over F_2 on int codes, the F_2 kernel family of ``fpoly``.

The code of a polynomial is the int whose bit i is the coefficient of
x^i, which is ``fpoly._encode_cv`` over F_2.  A sum is one ``^`` and a
product by x^i one ``<< i``; a square spreads bit i to bit 2i, which is
the binary digits read in base 4; a reduction xors shifted copies of
the modulus until the degree drops below the modulus's.  ``fpoly``
converts a coefficient tuple to a code once on entry to a kernel and
back once on exit.
"""

from __future__ import annotations

# a cv over F_2 and its code's binary digits are the same bytes, 0/1 and "0"/"1"
_F2_DIGITS = bytes.maketrans(b"\0\1", b"01")
_F2_COEFFS = bytes.maketrans(b"01", b"\0\1")


def _f2_code(cv) -> int:
    return int(bytes(cv[::-1]).translate(_F2_DIGITS) or b"0", 2)


def _f2_cv(code: int) -> tuple:
    return tuple(bin(code)[:1:-1].encode().translate(_F2_COEFFS)) if code else ()


def _f2_mul(a: int, b: int) -> int:
    out = 0
    for i, bit in enumerate(bin(b)[:1:-1]):
        if bit == "1":
            out ^= a << i
    return out


def _f2_sqr(a: int) -> int:
    return int(bin(a)[2:], 4)  # the cross terms cancel in characteristic 2


def _f2_rem(a: int, f: int) -> int:
    """a mod f for f != 0: xor f << shift until the degree drops below f's.
    ``_f2_divmod`` without the quotient, which the Frobenius step does not
    need and which costs a fifth more at degree 3000."""
    df = f.bit_length()
    while (shift := a.bit_length() - df) >= 0:
        a ^= f << shift
    return a


def _f2_divmod(a: int, f: int) -> tuple[int, int]:
    quo, df = 0, f.bit_length()
    while (shift := a.bit_length() - df) >= 0:
        quo |= 1 << shift
        a ^= f << shift
    return quo, a


def _f2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _f2_rem(a, b)
    return a


def _f2_powmod(g: int, e: int, f: int) -> int:
    """``_powmod_cv`` on codes, left to right with products by the base."""
    if not e:
        return 1
    g = _f2_rem(g, f)
    result = g
    for bit in bin(e)[3:]:
        result = _f2_rem(_f2_sqr(result), f)
        if bit == "1":
            result = _f2_rem(_f2_mul(result, g), f)
    return result
