"""Polynomial arithmetic, monomial orders, and rendering."""

import random
import time
from fractions import Fraction

import pytest

from oracle import WeightedGrevLex

from reeslab import (
    DEFAULT_ORDER,
    NEG_INF,
    BlockElimination,
    GrevLex,
    Lex,
    ParseError,
    PolyRing,
    PrimeField,
    RationalField,
    RingMismatchError,
    ZeroPolynomialError,
    leading_term,
    parse_session,
    poly_str,
    total_degree,
)

R = PolyRing(("x", "y", "z"), RationalField())
x, y, z = R.gens()


def random_poly(rng, ring, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(ring.nvars)] += 1
        terms[tuple(e)] = ring.field.coerce(rng.randint(-4, 4))
    return ring.from_terms(terms)


def test_construction_and_equality():
    assert x + y == y + x
    assert x - x == R.zero
    assert (x + 1) * (x - 1) == x**2 - 1
    assert R.const(Fraction(1, 2)) * 2 == R.one
    assert x != y
    assert hash(x * y) == hash(y * x)
    # the hash reads the exponents alone: x and 2x share one, yet stay
    # two members of a set, and equal polynomials of two separately
    # built equal rings hash equal
    assert len({x, 2 * x}) == 2
    other = PolyRing(("x", "y", "z"), RationalField())
    ox, oy, _ = other.gens()
    assert 3 * ox * oy - 1 == 3 * x * y - 1
    assert hash(3 * ox * oy - 1) == hash(3 * x * y - 1)


def test_ring_identity_is_structural():
    other = PolyRing(("x", "y", "z"), RationalField())
    assert R == other
    assert PolyRing(("x", "y"), RationalField()) != R
    assert PolyRing(("x", "y"), PrimeField(5)) != PolyRing(
        ("x", "y"), RationalField()
    )


def test_mixed_ring_arithmetic_rejected():
    other = PolyRing(("a", "b"), RationalField())
    with pytest.raises(RingMismatchError):
        x + other.gens()[0]


def test_arithmetic_laws_random():
    rng = random.Random(11)
    for _ in range(60):
        f = random_poly(rng, R)
        g = random_poly(rng, R)
        h = random_poly(rng, R)
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f - f == R.zero
        assert f * R.one == f


def test_total_degree_and_zero_marker():
    assert total_degree(x**2 * y + z) == 3
    assert total_degree(R.one) == 0
    assert total_degree(R.zero) == NEG_INF
    assert NEG_INF < 0


def test_homogeneity():
    assert (x * y + z**2).is_homogeneous()
    assert not (x * y + z).is_homogeneous()
    assert R.zero.is_homogeneous()


def test_leading_term_orders():
    f = x**3 + x * y**2 + y * z**2 + z**3
    e_grevlex, _ = leading_term(f, GrevLex())
    assert e_grevlex == (3, 0, 0)
    e_lex, _ = leading_term(f, Lex())
    assert e_lex == (3, 0, 0)
    g = x * y**2 + x**2 * z
    assert leading_term(g, GrevLex())[0] == (1, 2, 0)
    assert leading_term(g, Lex())[0] == (2, 0, 1)
    with pytest.raises(ZeroPolynomialError):
        leading_term(R.zero, DEFAULT_ORDER)


def test_block_elimination_pushes_first_block_out():
    # leading terms with any first-block support beat pure second-block
    order = BlockElimination(1)
    f = x + y**5
    assert leading_term(f, order)[0] == (1, 0, 0)


def test_weighted_order():
    order = WeightedGrevLex((1, 3, 1))
    f = x**2 + y
    assert leading_term(f, order)[0] == (0, 1, 0)


def test_order_axioms_random():
    rng = random.Random(7)
    orders = [GrevLex(), Lex(), BlockElimination(1), WeightedGrevLex((2, 1, 1))]
    exps = [
        tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(40)
    ]
    one = (0, 0, 0)
    for order in orders:
        key = order.key
        for e in exps:
            # 1 is minimal and multiplication is strictly monotone
            if e != one:
                assert key(e) > key(one)
            for f in exps:
                shifted = tuple(a + b for a, b in zip(e, f))
                if f != one:
                    assert key(shifted) > key(e)


def _trial_division_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_prime_field():
    F = PrimeField(7)
    assert F.coerce(10) == 3
    assert F.mul(3, 5) == 1
    assert F.invert(3) == 5
    assert F.coerce(Fraction(1, 2)) == 4
    with pytest.raises(ValueError):
        PrimeField(6)
    # Miller-Rabin to the first 13 prime bases is exact below
    # psi_13 = 3317044064679887385961981 (Sorenson-Webster 2017)
    for n in range(10**4):
        if _trial_division_prime(n):
            assert PrimeField(n).p == n
        else:
            with pytest.raises(ValueError, match="is not prime"):
                PrimeField(n)
    # strong pseudoprimes to the bases 2..7, and to 2..23
    for n in (3215031751, 3825123056546413051):
        with pytest.raises(ValueError, match="is not prime"):
            PrimeField(n)
    start = time.perf_counter()
    session = parse_session("ring f<2305843009213693951>[x]\n")
    assert time.perf_counter() - start < 0.5
    assert session.ring.field == PrimeField(2**61 - 1)
    bound = 3317044064679887385961981
    for n in (bound, 2**89 - 1):
        with pytest.raises(ParseError, match=f"only below {bound}"):
            parse_session(f"ring f<{n}>[x]\n")


def test_prime_field_polynomials():
    Rp = PolyRing(("a", "b"), PrimeField(5))
    a, b = Rp.gens()
    assert (a + b) ** 5 == a**5 + b**5
    assert 5 * a == Rp.zero


def test_poly_str_layout():
    assert poly_str(x**2 - y + 1) == "x^2 - y + 1"
    assert poly_str(R.zero) == "0"
    assert poly_str(-x) == "-x"
    assert poly_str(2 * x * y) == "2*x*y"
    half = R.const(Fraction(1, 2)) * x
    assert poly_str(half) == "1/2*x"
    with pytest.raises(ValueError):
        poly_str(half, allow_fractions=False)


def test_from_terms_drops_zeros():
    f = R.from_terms({(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
    assert f == 2 * y


def test_pow():
    assert (x + y) ** 0 == R.one
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    with pytest.raises(ValueError):
        (x + y) ** -1
