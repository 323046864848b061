"""The package against sympy, whose code shares nothing with it.

sympy's `gf_factor` factors over Z/pZ, so it checks `fpoly._factor_cv`
(distinct-degree groups, Cantor-Zassenhaus splitting and the division
kernels they run on), `totient` and the residue count
`totient_bruteforce` from outside; `gf_irreducible_p` checks
`is_irreducible`.  Only prime fields are compared: sympy's GF(9) is
Z/9Z, not F_9.  Each polynomial is a seeded product of random monic
pieces, some raised to a power, so repeated factors of every small
degree occur.  On the integer side, sympy's `totient` and
`divisor_sigma` check the sieves `phi_sieve` and `sigma_sieve` over the
range the bounds suite compares exactly.
"""

import random
from math import prod

import pytest
from sympy import divisor_sigma
from sympy import totient as sympy_totient
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_irreducible_p

from lehmer_ff import (
    Poly,
    factor,
    field_from_order,
    is_irreducible,
    totient,
    totient_bruteforce,
)
from lehmer_ff.intmath import phi_sieve, sigma_sieve
from lehmer_ff.suites import PRIMORIAL_TAIL

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


def phi_of(p, factors) -> int:
    """phi(p, f) from the (monic factor, multiplicity) pairs of f."""
    return prod((p ** (len(g) - 1) - 1) * p ** ((len(g) - 1) * (m - 1)) for g, m in factors)


@pytest.mark.parametrize("p,count,pieces,piece_degree", CASES)
def test_factor_and_totient_equal_sympy(p, count, pieces, piece_degree):
    spec = field_from_order(p)
    rng = random.Random(f"{SEED}:{p}")
    for _ in range(count):
        f = seeded_poly(rng, spec, pieces, piece_degree)
        unit, factors = sympy_factors(f)
        fac = factor(f)
        assert (fac.unit.val, [(g.cv, m) for g, m in fac.factors]) == (unit, factors), str(f)
        assert totient(f) == phi_of(p, factors), str(f)


# (p, polynomials): every one with p^deg <= 2^14, drawn from CASES' pieces
BRUTEFORCE_CASES = [(2, 60), (3, 50), (5, 40), (7, 40)]


@pytest.mark.parametrize("p,count", BRUTEFORCE_CASES)
def test_bruteforce_count_equals_sympy_phi(p, count):
    spec = field_from_order(p)
    _, _, pieces, piece_degree = next(case for case in CASES if case[0] == p)
    rng = random.Random(f"{SEED}:bruteforce:{p}")
    checked = 0
    while checked < count:
        f = seeded_poly(rng, spec, pieces, piece_degree)
        if p**f.degree > 2**14:
            continue
        assert totient_bruteforce(f) == phi_of(p, sympy_factors(f)[1]), str(f)
        checked += 1


# (p, polynomials, largest degree)
IRREDUCIBLE_CASES = [(2, 120, 12), (3, 100, 8), (5, 100, 6), (65521, 80, 5)]


@pytest.mark.parametrize("p,count,max_degree", IRREDUCIBLE_CASES)
def test_is_irreducible_equals_sympy(p, count, max_degree):
    """Random monic polynomials, so both answers occur at every p."""
    spec = field_from_order(p)
    rng = random.Random(f"{SEED}:irreducible:{p}")
    answers = set()
    for _ in range(count):
        d = rng.randint(1, max_degree)
        f = Poly(spec, [rng.randrange(p) for _ in range(d)] + [1])
        answer = is_irreducible(f)
        assert answer == gf_irreducible_p([ZZ(c) for c in reversed(f.cv)], p, ZZ), str(f)
        answers.add(answer)
    assert answers == {False, True}


def test_phi_and_sigma_sieves_equal_sympy():
    limit = PRIMORIAL_TAIL - 1
    phi, sigma = phi_sieve(limit), sigma_sieve(limit)
    for n in range(1, limit + 1):
        assert (phi[n], sigma[n]) == (sympy_totient(n), divisor_sigma(n)), n
