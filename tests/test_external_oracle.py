"""`factor` and `totient` against sympy's factorization over prime fields.

sympy's `gf_factor` factors over Z/pZ with code that shares nothing with
this package, so it checks `fpoly._factor_cv` (distinct-degree groups,
Cantor-Zassenhaus splitting and the division kernels they run on) from
outside.  Only prime fields are compared: sympy's GF(9) is Z/9Z, not
F_9.  Each polynomial is a seeded product of random monic pieces, some
raised to a power, so repeated factors of every small degree occur.
"""

import random
from math import prod

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

from lehmer_ff import Poly, factor, field_from_order, totient

SEED = 20261020
# (p, polynomials, most pieces, largest piece degree)
CASES = [(2, 200, 5, 8), (3, 150, 4, 7), (5, 120, 4, 5), (7, 120, 3, 6), (65521, 50, 3, 5)]


def seeded_poly(rng, spec, pieces, piece_degree):
    """A nonzero polynomial of degree >= 1: a random unit times a product
    of random monic pieces, each raised to the power 1, 2 or 3."""
    p = spec.q
    f = Poly.one(spec) * spec.element(rng.randrange(1, p))
    for _ in range(rng.randint(1, pieces)):
        d = rng.randint(1, piece_degree)
        piece = Poly(spec, [rng.randrange(p) for _ in range(d)] + [1])
        for _ in range(rng.choice((1, 1, 2, 3))):
            f = f * piece
    return f


def sympy_factors(f):
    """(unit, sorted (monic factor coefficients low first, multiplicity))."""
    p = f.spec.q
    unit, pairs = gf_factor([ZZ(c) for c in reversed(f.cv)], p, ZZ)
    factors = [(tuple(int(c) for c in reversed(g)), m) for g, m in pairs]
    return int(unit), sorted(factors, key=lambda gm: (len(gm[0]), gm[0][::-1]))


@pytest.mark.parametrize("p,count,pieces,piece_degree", CASES)
def test_factor_and_totient_equal_sympy(p, count, pieces, piece_degree):
    spec = field_from_order(p)
    rng = random.Random(f"{SEED}:{p}")
    for _ in range(count):
        f = seeded_poly(rng, spec, pieces, piece_degree)
        unit, factors = sympy_factors(f)
        fac = factor(f)
        assert (fac.unit.val, [(g.cv, m) for g, m in fac.factors]) == (unit, factors), str(f)
        phi = prod((p ** (len(g) - 1) - 1) * p ** ((len(g) - 1) * (m - 1)) for g, m in factors)
        assert totient(f) == phi, str(f)
