"""Buchberger engine, division, and the ideal-operation suite."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from operator import mul

import pytest

from oracle import (
    colon as oracle_colon,
    elimination_colon,
    exps_to_ideal,
    ideal_to_exps,
    interreduce,
    minimalize,
    monic,
    random_exps,
    s_polynomial,
    WeightedGrevLex,
)

from reeslab import (
    leading_term,
    BlockElimination,
    ExponentOverflowError,
    GrevLex,
    Ideal,
    Lex,
    PolyRing,
    Polynomial,
    PrimeField,
    RationalField,
    ResourceBudget,
    ResourceBudgetError,
    RingMismatchError,
    buchberger,
    colon,
    divide,
    eliminate,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    poly_str,
    radical_membership,
    total_degree,
    unit_ideal,
    zero_ideal,
)
import reeslab.groebner as groebner_module
from reeslab.lengths import _LAZARD, _lazard_leads
from reeslab.reduction import _step_reaches, reduction_test

R = PolyRing(("x", "y"), RationalField())
x, y = R.gens()
R3 = PolyRing(("x", "y", "z"), RationalField())
x3, y3, z3 = R3.gens()


def random_sparse_poly(rng, ring, max_terms=3, max_deg=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(ring.nvars)] += 1
        terms[tuple(e)] = ring.field.coerce(rng.choice([-3, -2, -1, 1, 2, 3]))
    return ring.from_terms(terms)


def test_division_remainder_and_cofactors():
    f = x**3 * y + x * y**2 + y
    divisors = [x * y - 1, y**2 - 1]
    quotients, remainder = divide(f, divisors, with_quotients=True)
    rebuilt = remainder
    for q, g in zip(quotients, divisors):
        rebuilt = rebuilt + q * g
    assert rebuilt == f
    # no remainder term is divisible by any divisor lead
    for exps in remainder.terms:
        assert not all(a >= b for a, b in zip(exps, (1, 1)))
        assert not all(a >= b for a, b in zip(exps, (0, 2)))


def test_division_keeps_irreducible_heads():
    # heads that no divisor reaches must fall through to the remainder
    _, rem = divide(x**2 + y, [x**2 - y], order=Lex())
    assert rem == 2 * y
    _, rem2 = divide(y**2 + x, [y**3 - 1])
    assert rem2 == y**2 + x


def _table_orders(nvars):
    weights = (2,) + (1,) * (nvars - 1)
    return [GrevLex(), Lex(), BlockElimination(1), WeightedGrevLex(weights)]


def test_prepared_divisors_match_list_division():
    rng = random.Random(41)
    rings = [
        PolyRing(names, field)
        for names in (("x", "y"), ("x", "y", "z"))
        for field in (RationalField(), PrimeField(32003))
    ]
    for trial in range(40):
        ring = rings[trial % len(rings)]
        order = _table_orders(ring.nvars)[trial // len(rings) % 4]
        gens = [
            random_sparse_poly(rng, ring, 3, 3)
            for _ in range(rng.randint(1, 3))
        ]
        gb = Ideal(ring, gens).groebner(order)
        divisors = [
            random_sparse_poly(rng, ring, 3, 3)
            for _ in range(rng.randint(1, 4))
        ]
        divisors.insert(rng.randrange(len(divisors) + 1), ring.zero)
        leads = [leading_term(g, order)[0] for g in divisors if not g.is_zero]
        for _ in range(3):
            f = random_sparse_poly(rng, ring, 5, 5)
            assert gb.normal_form(f) == divide(f, list(gb.polys), order)[1]
            assert divide(f, gb, order, with_quotients=True) == divide(
                f, list(gb.polys), order, with_quotients=True
            )
            quotients, rem = divide(f, divisors, order, with_quotients=True)
            assert len(quotients) == len(divisors)
            rebuilt = rem
            for q, g in zip(quotients, divisors):
                rebuilt = rebuilt + q * g
            assert rebuilt == f
            for exps in rem.terms:
                assert not any(
                    all(a >= b for a, b in zip(exps, le)) for le in leads
                )
    with pytest.raises(ValueError, match="prepared for"):
        divide(x + y, Ideal(R, [x]).groebner(Lex()), GrevLex())


def textbook_divide(f, divisors, order):
    """Division over the field, one coefficient at a time.

    Cox-Little-O'Shea, ch. 2 §3, with field elements throughout; the
    divisors are tried in the order (lead degree, order key, index) that
    `divide` documents, so the quotients must agree term for term.
    """
    field = f.ring.field
    zero = field.zero
    ranked = sorted(
        (sum(le), order.key(le), i, le, lc)
        for i, g in enumerate(divisors)
        if not g.is_zero
        for le, lc in [leading_term(g, order)]
    )
    quotients = [{} for _ in divisors]
    work, remainder = dict(f.terms), {}
    while work:
        exps = max(work, key=order.key)
        for _, _, i, le, lc in ranked:
            if all(a >= b for a, b in zip(exps, le)):
                shift = tuple(a - b for a, b in zip(exps, le))
                factor = field.mul(work[exps], field.invert(lc))
                quotients[i][shift] = factor
                for e, c in divisors[i].terms.items():
                    t = tuple(a + b for a, b in zip(shift, e))
                    v = field.add(
                        work.get(t, zero), field.neg(field.mul(factor, c))
                    )
                    if v == zero:
                        work.pop(t, None)
                    else:
                        work[t] = v
                break
        else:
            remainder[exps] = work.pop(exps)
    ring = f.ring
    return [Polynomial(ring, q) for q in quotients], Polynomial(ring, remainder)


def _big_coefficient(rng, p):
    # numerators up to 10^30, denominators up to 10^6, none divisible by p
    while True:
        den = rng.randint(1, 10**6)
        if not p or den % p:
            return Fraction(rng.randint(-(10**30), 10**30) or 1, den)


def _non_monic(rng, ring, order, lead_coeff, max_terms, max_deg):
    p = getattr(ring.field, "p", 0)
    g = random_sparse_poly(rng, ring, max_terms, max_deg)
    terms = {e: _big_coefficient(rng, p) for e in g.terms}
    le, _ = leading_term(g, order)
    terms[le] = lead_coeff
    return ring.from_terms(terms)


def test_integer_division_matches_textbook_fractions():
    rng = random.Random(47)
    rings = [
        PolyRing(names, field)
        for names in (("x", "y"), ("x", "y", "z"))
        for field in (RationalField(), PrimeField(32003))
    ]
    leads = [2, 3, Fraction(-7, 5), 1, Fraction(10**30, 999983)]
    for trial in range(48):
        ring = rings[trial % len(rings)]
        order = _table_orders(ring.nvars)[trial // len(rings) % 4]
        divisors = [
            _non_monic(rng, ring, order, rng.choice(leads), 4, 3)
            for _ in range(rng.randint(1, 4))
        ]
        gb = Ideal(ring, divisors).groebner(order)
        for _ in range(3):
            f = _non_monic(rng, ring, order, rng.choice(leads), 8, 5)
            expected = textbook_divide(f, divisors, order)
            assert divide(f, divisors, order, with_quotients=True) == expected
            expected = textbook_divide(f, list(gb.polys), order)
            assert divide(f, gb, order, with_quotients=True) == expected
            assert divide(f, gb, order)[1] == expected[1]


def test_integer_division_denominator_grows_every_step():
    # 3x - y and 2y - 1 have coprime leads, and each step turns the one
    # term left, with integer coefficient coprime to 6, into another such
    # term: the common denominator is scaled by 3 or 2 at every one of
    # the a + (a + b) steps, and the remainder is f at x = 1/6, y = 1/2
    g1 = 3 * x - y
    g2 = 2 * y - 1
    a, b = 20, 25
    coeff = Fraction(5**13, 7**9)
    f = coeff * x**a * y**b
    quotients, rem = divide(f, [g1, g2], with_quotients=True)
    assert rem == R.const(coeff / (3**a * 2 ** (a + b)))
    assert quotients[0] * g1 + quotients[1] * g2 + rem == f
    assert (quotients, rem) == textbook_divide(f, [g1, g2], GrevLex())


def _old_s_polynomial(f, g, order):
    # the product definition a*f - b*g, with a and b single terms
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    lcm = tuple(max(u, v) for u, v in zip(ef, eg))
    field = f.ring.field
    a = Polynomial(
        f.ring, {tuple(l - e for l, e in zip(lcm, ef)): field.invert(cf)}
    )
    b = Polynomial(
        g.ring, {tuple(l - e for l, e in zip(lcm, eg)): field.invert(cg)}
    )
    return a * f - b * g


def test_s_polynomial_matches_product_definition():
    rng = random.Random(53)
    rings = [
        PolyRing(names, field)
        for names in (("x", "y"), ("x", "y", "z"))
        for field in (RationalField(), PrimeField(32003))
    ]
    for trial in range(60):
        ring = rings[trial % len(rings)]
        order = _table_orders(ring.nvars)[trial // len(rings) % 4]
        pair = []
        for _ in range(2):
            g = random_sparse_poly(rng, ring, 4, 4)
            # monic in half the cases
            pair.append(monic(g, order) if rng.random() < 0.5 else g)
        f, g = pair
        assert s_polynomial(f, g, order) == _old_s_polynomial(f, g, order)
        assert s_polynomial(f, f, order).is_zero


def _entry_facts(table):
    # the entries of a divisor table with their monomials unpacked:
    # (lead degree, lead exponents, index, L, tail)
    unpack = table.layout.unpack
    return [
        (deg, unpack(lead), idx, L, tuple((unpack(e), c) for e, c in tail))
        for deg, lead, idx, L, tail in table.entries
    ]


def test_division_refuses_divisors_of_other_rings():
    # every divisor must lie in the ring of f, a zero one too; a zero
    # divisor of f's ring keeps its index, with quotient zero
    S = PolyRing(("a", "b"), RationalField())
    a, _ = S.gens()
    f = x**3 * y + x * y**2 + y
    for divisors in ([R.zero], [x * y - 1, R.zero], [x * y - 1, x3]):
        with pytest.raises(RingMismatchError):
            divide(a, divisors, with_quotients=True)
    with pytest.raises(RingMismatchError):
        divide(a, Ideal(R, [x * y - 1]).groebner())
    divisors = [x * y - 1, y**2 - 1]
    quotients, rem = divide(f, divisors, with_quotients=True)
    assert divide(f, [R.zero] + divisors, with_quotients=True) == (
        [R.zero] + quotients, rem
    )
    for k in (0, 2):
        assert divide(f, [R.zero] * k, with_quotients=True) == ([R.zero] * k, f)


def test_divisor_table_integer_form_is_primitive_with_positive_lead():
    # -2x + 4y is stored as g~ = x - 2y, and the quotient by g~ is scaled
    # by L/lc = -1/2 as it leaves
    (entry,) = _entry_facts(Ideal(R, [-2 * x + 4 * y]).groebner().table)
    assert entry[1] == (1, 0)
    assert entry[3:] == (1, (((0, 1), 2),))
    assert divide(x, [-2 * x + 4 * y], with_quotients=True) == (
        [R.const(Fraction(-1, 2))], 2 * y
    )
    # over GF(p) the form is monic, with its tail read as residues
    Rp = PolyRing(("x", "y"), PrimeField(7))
    xp, yp = Rp.gens()
    (entry,) = _entry_facts(Ideal(Rp, [3 * xp + yp]).groebner().table)
    assert entry[3:] == (1, (((0, 1), 2),))


def textbook_buchberger(gens, order):
    """Reduced basis by plain Buchberger over field elements.

    Every pair of the growing list is reduced, with no criterion, by
    list division; then the basis is minimalized, made monic and
    tail-reduced (Cox-Little-O'Shea, ch. 2 §7), and sorted ascending in
    the order, as `buchberger` returns it.  The pair of least lcm comes
    first, which keeps the coefficients of the unreduced basis small.
    """

    def lcm_rank(pair):
        lcm = tuple(
            map(max, *(leading_term(basis[k], order)[0] for k in pair))
        )
        return sum(lcm), order.key(lcm)

    basis = [g for g in gens if not g.is_zero]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        i, j = min(pairs, key=lcm_rank)
        pairs.remove((i, j))
        _, r = divide(s_polynomial(basis[i], basis[j], order), basis, order)
        if not r.is_zero:
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(r)
    minimal = []
    for g in basis:
        e = leading_term(g, order)[0]
        if any(
            all(a <= b for a, b in zip(leading_term(h, order)[0], e))
            for h in minimal
        ):
            continue
        minimal = [
            h
            for h in minimal
            if not all(a <= b for a, b in zip(e, leading_term(h, order)[0]))
        ]
        minimal.append(monic(g, order))
    reduced = []
    for g in minimal:
        e, c = leading_term(g, order)
        tail = Polynomial(g.ring, {t: v for t, v in g.terms.items() if t != e})
        others = [h for h in minimal if h is not g]
        _, r = divide(tail, others, order)
        reduced.append(r + Polynomial(g.ring, {e: c}))
    return sorted(reduced, key=lambda g: order.key(leading_term(g, order)[0]))


def _positive_degree_generator(rng, ring, order, lead_coeff, max_deg):
    # one to three terms of degree 1..max_deg with coefficients in
    # -3..3, the largest scaled to lead_coeff: no generator is a unit
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * ring.nvars
        for _ in range(rng.randint(1, max_deg)):
            e[rng.randrange(ring.nvars)] += 1
        terms[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, 3])
    terms[max(terms, key=order.key)] = lead_coeff
    return ring.from_terms(terms)


def test_buchberger_matches_textbook_buchberger():
    # the integer S-pair loop, its criteria and its masks against the
    # plain loop over field elements; over GF(32003) the leads coerce
    rng = random.Random(61)
    names = ("x", "y", "z", "w")
    fields = (RationalField(), PrimeField(32003))
    leads = [2, Fraction(-7, 5), Fraction(10**30, 999983), 1, -3]
    for trial in range(96):
        nvars = 2 + trial % 3
        ring = PolyRing(names[:nvars], fields[trial // 3 % 2])
        order = _table_orders(nvars)[trial // 6 % 4]
        while True:
            gens = [
                _positive_degree_generator(
                    rng, ring, order, rng.choice(leads), 3 if nvars < 4 else 2
                )
                for _ in range(rng.randint(2, 3))
            ]
            if not all(g.is_monomial for g in gens):
                break
        expected = textbook_buchberger(gens, order)
        assert buchberger(gens, order) == expected
        assert Ideal(ring, gens).groebner(order).polys == tuple(expected)


def _e_degree(g, k):
    # the degree of g in the first k variables, when every term has one
    degrees = {sum(e[:k]) for e in g.terms}
    return degrees.pop() if len(degrees) == 1 else None


def test_kernel_runs_match_textbook_buchberger():
    # the private runs against the reference basis of the same span:
    # a degree cap keeps the low-degree part of the reference basis, a
    # reduced prefix changes nothing, and a module run returns the
    # elements linear in the components of the reference basis, which
    # holds every element of the module's reduced basis (the ideal is
    # graded by the degree in the components)
    rng = random.Random(73)
    names = ("x", "y", "z")
    fields = (RationalField(), PrimeField(32003))
    for trial in range(48):
        field = fields[trial % 2]
        nvars = 2 + trial // 2 % 2
        ring = PolyRing(names[:nvars], field)
        order = _table_orders(nvars)[trial // 4 % 4]
        while True:
            gens = [
                _homogeneous_generator(rng, ring, rng.randint(1, 3))
                for _ in range(rng.randint(2, 3))
            ]
            if not all(g.is_monomial for g in gens):
                break
        expected = textbook_buchberger(gens, order)
        for cap in range(max(map(total_degree, expected)) + 1):
            assert buchberger(gens, order, _degree=cap) == [
                g for g in expected if total_degree(g) <= cap
            ]
        extra = [
            _positive_degree_generator(rng, ring, order, rng.choice([1, -2]), 2)
        ]
        assert buchberger(expected + extra, order, _reduced=len(expected)) == (
            textbook_buchberger(expected + extra, order)
        )
    # modules in two components, e1 above e0, over x and y
    for trial in range(24):
        field = fields[trial % 2]
        base = PolyRing(("x", "y"), field)
        ring = PolyRing(("e1", "e0", "x", "y"), field)
        e1, e0 = ring.gens()[:2]
        order = BlockElimination(1)

        def part():
            g = _positive_degree_generator(rng, base, GrevLex(), 1, 2)
            return Polynomial(ring, {(0, 0) + e: c for e, c in g.terms.items()})

        gens = []
        for _ in range(rng.randint(2, 3)):
            choice = rng.random()
            if choice < 0.3:
                gens.append(e1 * part())
            elif choice < 0.6:
                gens.append(e0 * part())
            else:
                gens.append(e1 * part() + e0 * part())
        got = buchberger(gens, order, _module=2)
        assert all(_e_degree(g, 2) == 1 for g in got)
        expected = [
            g for g in textbook_buchberger(gens, order) if _e_degree(g, 2) == 1
        ]
        assert got == expected


def test_packed_keys_are_linear_and_ordered():
    # the one-int key of every order in the package and the references:
    # additive, ordered as the key tuple, and unpacked to the exponents;
    # the guard test is divisibility, and the packed lcm the lcm
    rng = random.Random(79)
    orders = [
        GrevLex(),
        Lex(),
        BlockElimination(1),
        BlockElimination(2),
        _LAZARD,
        WeightedGrevLex((2, 1, 1)),
        WeightedGrevLex((1, 3, 2)),
    ]
    for order in orders:
        layout = groebner_module._layout(3, order)
        pack = layout.pack
        guards = layout.guards
        for _ in range(200):
            a, b = (
                tuple(rng.choice((0, 0, 1, 2, 5, 40, 2**20)) for _ in range(3))
                for _ in range(2)
            )
            total = tuple(map(sum, zip(a, b)))
            assert pack(a) + pack(b) == pack(total)
            assert (pack(a) < pack(b)) == (order.key(a) < order.key(b))
            assert layout.unpack(pack(a)) == a
            divides = all(p <= q for p, q in zip(a, b))
            assert (((pack(b) | guards) - pack(a)) & guards == guards) == divides
            top = tuple(map(max, a, b))
            assert layout.lcm(pack(a), pack(b)) == pack(top) & layout.exps
            assert layout.key(layout.lcm(pack(a), pack(b))) == pack(top)


def test_exponents_past_the_field_width_compute_or_refuse():
    # inputs of degree 2^40 widen the fields; a Lex run whose remainders
    # outgrow the fields of its inputs raises the typed error, never wraps
    big = 2**40
    for field in (RationalField(), PrimeField(32003)):
        ring = PolyRing(("x", "y"), field)
        u, v = ring.gens()
        gens = [u**big * v - 1, v**2 - u]
        assert buchberger(gens) == textbook_buchberger(gens, GrevLex())
        _, rem = divide(u**big * v**3, [v**2 - u, u**big * v - 1])
        assert rem == textbook_divide(
            u**big * v**3, [v**2 - u, u**big * v - 1], GrevLex()
        )[1]
        # 31 value bits hold y^(3·2^29), not y^(8·2^29)
        k = 2**29
        gens = [u - v**k, u**3]
        assert buchberger(gens, Lex()) == textbook_buchberger(gens, Lex())
        with pytest.raises(ExponentOverflowError):
            buchberger([u - v**k, u**8], Lex())
        with pytest.raises(ExponentOverflowError):
            divide(u**8, [u - v**k], Lex())
        # an operand past the fields of its divisors widens them: a list
        # is packed with the dividend, and a basis is fitted to each
        # polynomial packed against it (a dividend, a square, a product)
        k = 2**31
        assert Ideal(ring, [v]).contains(u**k * v)
        assert not Ideal(ring, [v]).contains(u**k + v**2)
        assert divide(u**k, [v]) == (None, u**k)
        gb = Ideal(ring, [v**2 + v]).groebner()
        assert gb.normal_form(v**3) == v
        f = u**k * v**2 + v**3
        quotients, rem = divide(f, gb, with_quotients=True)
        assert rem == v - u**k * v
        assert quotients == [u**k + v - 1]
        assert gb.normal_form(f) == rem
        assert gb.normal_form(v**3) == v
        # the basis itself keeps its layout
        assert gb.table.layout.bits == 31
        assert not radical_membership(u**k, Ideal(ring, [v]))
        assert radical_membership(u**k * v, Ideal(ring, [v**2]))
        assert list(colon(Ideal(ring, [v**2]), Ideal(ring, [u**k + v])).gens) == [
            v**2
        ]
        # a graded reduction step is packed with its target
        step = Ideal(ring, [v**2 + u * v])
        assert _step_reaches(step, Ideal(ring, [u**k * v**2 + u ** (k + 1) * v]))
        assert not _step_reaches(step, Ideal(ring, [u ** (k + 2)]))


def _reduced_by(table, nums, p):
    # remainder terms in the order they left, the final denominator and
    # the quotient terms of one `_reduce` of the int polynomial nums
    quotients = [{} for _ in table.entries]
    remainder, s = groebner_module._reduce(dict(nums), 1, table, p, quotients)
    return list(remainder.items()), s, quotients


def test_grown_table_divides_as_a_table_built_whole():
    # the first-divisor memo of a table: grown by `_add_remainder` between
    # reductions, its memo warmed by the reductions before each insert, a
    # table gives the remainders and quotients of one built at once from
    # the same forms; and a warm basis table repeats its divisions
    rng = random.Random(97)
    rings = [
        PolyRing(names, field)
        for names in (("x", "y"), ("x", "y", "z"))
        for field in (RationalField(), PrimeField(32003))
    ]
    moved = 0  # memoized first divisors that a later insert displaced
    for trial in range(32):
        ring = rings[trial % len(rings)]
        order = _table_orders(ring.nvars)[trial // len(rings) % 4]
        p = groebner_module._char(ring)
        divisors = [
            random_sparse_poly(rng, ring, 3, 3)
            for _ in range(rng.randint(3, 6))
        ]
        dividends = [random_sparse_poly(rng, ring, 6, 5) for _ in range(4)]
        packed = groebner_module._pack(ring, order, divisors + dividends)
        layout = packed.layout
        forms = packed.forms[: len(divisors)]
        nums = [groebner_module._nums(f, layout) for f in dividends]
        grown = groebner_module._DivisorTable(ring, layout)
        for k, form in enumerate(forms):
            before = dict(grown.memo)
            groebner_module._add_remainder(
                grown, groebner_module._terms(form), ring.field
            )
            whole = groebner_module._DivisorTable(ring, layout, forms[: k + 1])
            assert grown.entries == whole.entries
            for f in nums:
                assert _reduced_by(grown, f, p) == _reduced_by(whole, f, p)
            moved += sum(
                grown.memo[m][1] is not first for m, (_, first) in before.items()
            )
        gb = Ideal(ring, divisors).groebner(order)
        run = gb.run
        for f in dividends:
            got = divide(f, gb, order, with_quotients=True)
            assert divide(f, gb, order, with_quotients=True) == got
            cold = groebner_module._DivisorTable(ring, run.layout, run.forms)
            f = groebner_module._nums(f, run.layout)
            assert _reduced_by(gb.table, f, p) == _reduced_by(cold, f, p)
    assert moved >= 100


def _count_kernel_work(monkeypatch):
    # the `_reduce` calls, the terms their heaps pop and the divisor table
    # entries their lookups read, counted by wrappers around `_reduce`,
    # `heappop` and the entry lists of every table made
    work = {"calls": 0, "popped": 0, "scanned": 0}
    inside = []
    reduce_ = groebner_module._reduce
    heappop = groebner_module.heappop
    init = groebner_module._DivisorTable.__init__

    class Counted(list):
        def __iter__(self):
            for entry in list.__iter__(self):
                work["scanned"] += bool(inside)
                yield entry

        def __getitem__(self, k):
            got = list.__getitem__(self, k)
            return Counted(got) if isinstance(k, slice) else got

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.entries = Counted(self.entries)
        self.log = Counted(self.log)

    def counting_reduce(*args, **kwargs):
        work["calls"] += 1
        inside.append(True)
        try:
            return reduce_(*args, **kwargs)
        finally:
            inside.pop()

    def counting_pop(heap):
        work["popped"] += bool(inside)
        return heappop(heap)

    monkeypatch.setattr(groebner_module._DivisorTable, "__init__", counting_init)
    monkeypatch.setattr(groebner_module, "_reduce", counting_reduce)
    monkeypatch.setattr(groebner_module, "heappop", counting_pop)
    return work


def test_kernel_work_is_pinned(monkeypatch):
    # division work that time alone would show, on one graded pair: the
    # reduction search through n = 3 and one colon.  Tail-reducing every
    # basis, with the tails the search steps and the certificate never
    # read, takes 438 reductions popping 23 969 terms.  Without the
    # first-divisor memo the lookups read 144 295 table entries, and
    # 278 606 without the memo and with every tail reduced
    work = _count_kernel_work(monkeypatch)
    for field in (PrimeField(32003), RationalField()):
        ring = PolyRing(("x", "y", "z", "w"), field)
        u, v, s, t = ring.gens()
        outer = Ideal(
            ring,
            (u**2 + v * s, v**2 - u * t, s**2 + u * v, t**2 - v * s + u * s),
        )
        inner = Ideal(
            ring, (u**2 + v * s, v**2 - u * t, s**2 + u * v + t**2 - v * s + u * s)
        )
        for key in work:
            work[key] = 0
        assert not reduction_test(outer, inner, 3).is_reduction
        assert len(colon(inner, outer).gens) == 6
        assert work == {"calls": 340, "popped": 19330, "scanned": 18347}


def test_minimal_bases_answer_as_the_reduced_basis(monkeypatch):
    # the callers that read a minimal basis, not the reduced one: the
    # Lazard leads and the nonzerodivisor certificate read its leads,
    # the reduction step its membership
    rng = random.Random(103)
    fields = (RationalField(), PrimeField(32003))
    runs = []
    run = groebner_module.buchberger

    def recording(gens, *args, **kwargs):
        out = run(gens, *args, **kwargs)
        if "_reduced" in kwargs and "_module" not in kwargs:
            runs.append((gens, out))
        return out

    monkeypatch.setattr(groebner_module, "buchberger", recording)
    verdicts = set()
    certified = 0
    for trial in range(36):
        field = fields[trial % 2]
        ring = PolyRing(("x", "y", "z")[: 2 + trial // 2 % 2], field)
        # Lazard's leads against those of the reduced basis of the
        # homogenized generators, dehomogenized and minimalized
        gens = [
            random_sparse_poly(rng, ring, 3, 3) for _ in range(rng.randint(1, 3))
        ]
        a = Ideal(ring, gens)
        ext = PolyRing(("h",) + ring.variables, field)
        homogenized = []
        for f in a.gens:
            d = total_degree(f)
            homogenized.append(
                Polynomial(ext, {(d - sum(e),) + e: c for e, c in f.terms.items()})
            )
        leads = Ideal(ext, homogenized).groebner(_LAZARD).lead_exps
        want = tuple(groebner_module.minimal_exponents([e[1:] for e in leads]))
        assert _lazard_leads(a) == want
        # the certificate's leads against the reduced basis of a + (g)
        a = Ideal(
            ring,
            [
                _homogeneous_generator(rng, ring, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ],
        )
        g = _homogeneous_generator(rng, ring, rng.randint(1, 2))
        step = Ideal(ring, a.gens + (g,))
        if not (a.contains(g) or groebner_module._square_in(a.groebner(), g)):
            del runs[:]
            groebner_module._has_nonzerodivisor(a.groebner(), [g])
            ((_, out),) = runs
            unpack = out.layout.unpack
            got = tuple(unpack(form[0]) for form in out.forms)
            assert got == step.groebner().lead_exps
            certified += 1
        # the step's verdict against membership in the reduced basis
        pool = list(a.gens) + [g * v for v in ring.gens()]
        pool.append(_homogeneous_generator(rng, ring, rng.randint(1, 3)))
        for _ in range(3):
            target = Ideal(ring, rng.sample(pool, rng.randint(1, 3)))
            verdict = _step_reaches(step, target)
            assert verdict == step.contains_ideal(target)
            verdicts.add(verdict)
    assert certified >= 18
    assert verdicts == {True, False}


def _random_monomial_exps(rng, nvars, count, max_exp):
    # distinct exponent tuples, not necessarily minimal
    exps = set()
    while len(exps) < count:
        exps.add(tuple(rng.randint(0, max_exp) for _ in range(nvars)))
    return sorted(exps)


def _monomial_list(ring, exps):
    one = ring.field.one
    return [Polynomial(ring, {e: one}) for e in exps]


def _disguised(ring, exps, rng):
    # m1, m2 + c*m1, m3 + c*m2, ...: the ideal of the monomials, spanned
    # by generators of which only the first is a monomial, so Buchberger
    # takes them through its S-pair loop
    monos = _monomial_list(ring, exps)
    return monos[:1] + [
        m + rng.choice([-3, -1, 2, 7]) * prev
        for prev, m in zip(monos, monos[1:])
    ]


def test_monomial_ideals_match_the_s_pair_loop():
    rng = random.Random(59)
    names = ("x", "y", "z", "w")
    fields = (RationalField(), PrimeField(32003))
    orders = (GrevLex(), Lex(), BlockElimination(1))
    for trial in range(36):
        nvars = 2 + trial % 3
        ring = PolyRing(names[:nvars], fields[trial // 3 % 2])
        order = orders[trial // 6 % 3]
        a_exps = _random_monomial_exps(rng, nvars, rng.randint(2, 4), 3)
        b_exps = _random_monomial_exps(rng, nvars, rng.randint(2, 3), 2)
        # scaled monomials: the exponent path must return coefficient one
        a = Ideal(
            ring,
            [rng.choice([1, 2, -5]) * m for m in _monomial_list(ring, a_exps)],
        )
        b = Ideal(ring, _monomial_list(ring, b_exps))
        da = _disguised(ring, a_exps, rng)
        db = _disguised(ring, b_exps, rng)
        assert not any(g.is_monomial for g in da[1:])
        expected = buchberger(da, order)
        keys = [order.key(leading_term(g, order)[0]) for g in expected]
        assert keys == sorted(keys)
        assert buchberger(a.gens, order) == expected
        assert a.groebner(order).polys == tuple(expected)
        product = ideal_product(a, b)
        assert list(product.gens) == buchberger(product.gens, GrevLex())
        assert buchberger(product.gens, order) == buchberger(
            [f * g for f in da for g in db], order
        )
        n = rng.randint(2, 4)
        disguised_power = [
            reduce(mul, factors)
            for factors in combinations_with_replacement(da, n)
        ]
        assert buchberger(ideal_power(a, n).gens, order) == buchberger(
            disguised_power, order
        )


def test_monomial_basis_ignores_the_pair_budget():
    # a monomial ideal queues no pair and adds no basis element, so even
    # the smallest budget returns its 30 minimal generators
    tiny = ResourceBudget(max_pairs=1, max_basis=1)
    minimal = [x**i * y ** (29 - i) for i in range(30)]
    gens = minimal + [x**i * y ** (30 - i) for i in range(31)]
    basis = buchberger(gens, budget=tiny)
    assert len(basis) == 30
    assert set(basis) == set(minimal)
    assert Ideal(R, gens).groebner().polys == tuple(basis)
    with pytest.raises(
        ResourceBudgetError, match="REESLAB_BUDGET (basis|pairs)="
    ):
        buchberger((x**2 - y, x * y - 1), budget=tiny)


def test_lex_groebner_classic():
    gb = buchberger((x**2 - y, y**2 - 1), order=Lex())
    assert [poly_str(g) for g in gb] == ["y^2 - 1", "x^2 - y"]
    assert divide(x**2 + y, gb, Lex())[1] == 2 * y


def test_groebner_is_monic_reduced_deterministic():
    gens = (x**2 + x * y, x * y**2 - x, y**3 - y)
    first = buchberger(gens)
    second = buchberger(tuple(reversed(gens)))
    assert [poly_str(g) for g in first] == [poly_str(g) for g in second]
    for g in first:
        _, c = max(
            ((e, c) for e, c in g.terms.items()),
            key=lambda item: GrevLex().key(item[0]),
        )
        assert c == Fraction(1)
    # no head divides another, no tail term reducible by another head
    heads = [leading_term(g, GrevLex())[0] for g in first]
    for i, e in enumerate(heads):
        for j, f in enumerate(heads):
            if i != j:
                assert not all(a >= b for a, b in zip(f, e))


def test_spoly_certificate_random():
    rng = random.Random(23)
    for _ in range(30):
        ring = R if rng.random() < 0.5 else R3
        gens = tuple(
            random_sparse_poly(rng, ring)
            for _ in range(rng.randint(1, 3))
        )
        gens = tuple(g for g in gens if not g.is_zero)
        if not gens:
            continue
        gb = Ideal(ring, gens).groebner()
        polys = gb.polys
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                s = s_polynomial(polys[i], polys[j], gb.order)
                assert gb.normal_form(s).is_zero
        for g in gens:
            assert gb.normal_form(g).is_zero


def test_budget_error():
    tiny = ResourceBudget(max_basis=1, max_pairs=200000)
    with pytest.raises(ResourceBudgetError, match="REESLAB_BUDGET basis="):
        buchberger((x**2 - y, x * y - 1), budget=tiny)
    tiny_pairs = ResourceBudget(max_basis=5000, max_pairs=0)
    with pytest.raises(ResourceBudgetError, match="REESLAB_BUDGET pairs="):
        buchberger((x**2 - y, x * y - 1), budget=tiny_pairs)


def test_membership_and_unit():
    a = Ideal(R, (x**2, y))
    assert a.contains(x**3 + x * y)
    assert not a.contains(x)
    assert not a.is_unit()
    assert unit_ideal(R).is_unit()
    assert zero_ideal(R).is_zero
    assert Ideal(R, (x, x + 1)).is_unit()


def test_ideal_sum_product_power():
    a = Ideal(R, (x,))
    b = Ideal(R, (y,))
    assert ideal_equal(ideal_sum(a, b), Ideal(R, (x, y)))
    assert ideal_equal(ideal_product(a, b), Ideal(R, (x * y,)))
    m = Ideal(R, (x, y))
    m3 = ideal_power(m, 3)
    assert ideal_equal(
        m3, Ideal(R, (x**3, x**2 * y, x * y**2, y**3))
    )
    assert ideal_power(m, 0).is_unit()
    assert ideal_power(m, 1) is m


def test_intersection_colon_saturation_frozen():
    q = colon(Ideal(R, (x**2, y**2)), Ideal(R, (x * y,)))
    assert ideal_equal(q, Ideal(R, (x, y)))


def test_colon_by_zero_rejected():
    with pytest.raises(Exception):
        colon(Ideal(R, (x,)), zero_ideal(R))


def test_eliminate():
    Rt = PolyRing(("t", "x", "y"), RationalField())
    t, xt, yt = Rt.gens()
    a = Ideal(Rt, (xt - t**2, yt - t**3))
    small = eliminate(a, ("t",))
    assert small.ring.variables == ("x", "y")
    sx, sy = small.ring.gens()
    assert ideal_equal(small, Ideal(small.ring, (sx**3 - sy**2,)))


def test_radical_membership():
    a = Ideal(R, (x**2,))
    assert radical_membership(x, a)
    assert not radical_membership(y, a)
    assert radical_membership(x + y, Ideal(R, (x, y**3)))
    assert not radical_membership(x + y, Ideal(R, (x**3 * y**3,)))
    # the radical of a·R_m: (x^2 - x)·R_m = (x), since x - 1 is a unit
    assert radical_membership(x, Ideal(R, (x**2 - x,)))
    assert not radical_membership(x - 1, Ideal(R, (x**2 - x,)))


def test_interreduce_monomial_and_general():
    # the reference interreduction that ideal_product is checked against
    polys = interreduce([x**2, x**2 * y, y**3, y**3 * x])
    assert sorted(poly_str(p) for p in polys) == ["x^2", "y^3"]
    polys2 = interreduce([x + y, x - y, x**2])
    assert len(polys2) == 2


def test_adjunction_properties_random():
    rng = random.Random(5)
    for _ in range(25):
        nvars = rng.choice([2, 3])
        ring = R if nvars == 2 else R3
        a = exps_to_ideal(ring, random_exps(rng, nvars, 3, 4))
        b = exps_to_ideal(ring, random_exps(rng, nvars, 2, 3))
        q = colon(a, b)
        # b*(a:b) inside a, and a inside a:b
        for g in ideal_product(b, q).gens:
            assert a.contains(g)
        for g in a.gens:
            assert q.contains(g)


def test_monomial_ops_match_oracle_sample():
    rng = random.Random(17)
    for _ in range(20):
        nvars = rng.choice([2, 3])
        ring = R if nvars == 2 else R3
        ae = random_exps(rng, nvars, 3, 4)
        be = random_exps(rng, nvars, 3, 4)
        a = exps_to_ideal(ring, ae)
        b = exps_to_ideal(ring, be)
        got_colon = ideal_to_exps(colon(a, b))
        assert got_colon == minimalize(oracle_colon(ae, be))


def test_groebner_cache_reused():
    a = Ideal(R, (x**2 - y,))
    gb1 = a.groebner()
    gb2 = a.groebner()
    assert gb1 is gb2


def _homogeneous_generator(rng, ring, degree):
    # one to three terms of the given degree, coefficients in -3..3
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * ring.nvars
        for _ in range(degree):
            e[rng.randrange(ring.nvars)] += 1
        terms[tuple(e)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return ring.from_terms(terms)


def _record_caps(monkeypatch):
    # the degree cap of every Buchberger run an Ideal asks for
    caps = []
    run = groebner_module.buchberger

    def recording(gens, order=GrevLex(), budget=None, _degree=None):
        caps.append(_degree)
        return run(gens, order, budget, _degree)

    monkeypatch.setattr(groebner_module, "buchberger", recording)
    return caps


def test_truncated_basis_is_the_low_degree_part():
    # the basis through a cap against the full one, and membership read
    # off the full basis against division by the full basis as a list
    rng = random.Random(67)
    names = ("x", "y", "z", "w")
    fields = (RationalField(), PrimeField(32003))
    for trial in range(36):
        nvars = 2 + trial % 3
        ring = PolyRing(names[:nvars], fields[trial // 3 % 2])
        top_deg = 3 if nvars < 4 else 2
        while True:
            gens = [
                _homogeneous_generator(rng, ring, rng.randint(1, top_deg))
                for _ in range(rng.randint(2, 3))
            ]
            if not all(g.is_monomial for g in gens):
                break
        full = buchberger(gens)
        top = max(total_degree(g) for g in full)
        for cap in range(top + 2):
            low = buchberger(gens, _degree=cap)
            assert low == [g for g in full if total_degree(g) <= cap]
        # members of every degree, near misses, and sums across degrees
        first, last = ring.gens()[0], ring.gens()[-1]
        targets = list(full)
        targets += [v * g for v in ring.gens() for g in full[:2]]
        targets += [g + first ** total_degree(g) for g in full]
        targets += [g + last ** (total_degree(g) + 1) for g in full[:2]]
        targets += [full[0] + full[-1], 1 + full[0]]
        targets = [f for f in targets if f]
        ideal = Ideal(ring, gens)
        for f in targets:
            assert ideal.contains(f) == divide(f, full)[1].is_zero
        for k in range(1, len(targets)):
            other = Ideal(ring, targets[k - 1 : k + 2])
            want = all(divide(f, full)[1].is_zero for f in other.gens)
            assert ideal.contains_ideal(other) == want
        assert ideal.groebner().polys == tuple(full)


def test_truncated_monomial_basis():
    # monomial generators skip the S-pair loop and keep the cap too
    u, v, w = R3.gens()
    gens = [u**3, u * v, v**2 * w, w**4]
    assert buchberger(gens, _degree=2) == [u * v]
    assert buchberger(gens, _degree=3) == buchberger(gens)[:3]


def test_truncation_keeps_to_homogeneous_ideals(monkeypatch):
    # membership reads the full basis of every ideal, homogeneous or not:
    # y^2 lies in (x^2 + y, xy) only through an S-pair of degree 3
    caps = _record_caps(monkeypatch)
    for field in (RationalField(), PrimeField(32003)):
        ring = PolyRing(("x", "y"), field)
        u, v = ring.gens()
        a = Ideal(ring, (u**2 + v, u * v))
        assert a.contains(v**2)
        assert a.contains_ideal(Ideal(ring, (v**2, u**3)))
        assert not a.contains(u**2)
        # a monomial ideal keeps its exact path
        assert Ideal(ring, (u**2, v**3)).contains(u * v**3)
        # a homogeneous one answers a low-degree question in full
        assert Ideal(ring, (u**2 - v**2, u * v**3)).contains(u**2 - v**2)
    assert caps == [None] * 6
    # a homogeneous ideal is the unit ideal only with a constant generator
    del caps[:]
    assert not Ideal(R, (x**2 - y**2, x * y)).is_unit()
    assert Ideal(R, (x**2 - y**2, R.const(3))).is_unit()
    assert caps == []


def test_ideal_product_matches_interreduced_products():
    # products multiplied on integer forms against Polynomial products
    rng = random.Random(71)
    names = ("x", "y", "z")
    leads = [2, Fraction(-7, 5), Fraction(10**30, 999983), 1, -3]
    for trial in range(40):
        nvars = 2 + trial % 2
        field = (RationalField(), PrimeField(32003))[trial // 2 % 2]
        ring = PolyRing(names[:nvars], field)
        a, b = (
            Ideal(ring, [
                _positive_degree_generator(
                    rng, ring, GrevLex(), rng.choice(leads), max_deg
                )
                for _ in range(rng.randint(1, 3))
            ])
            for max_deg in (3, 2)
        )
        expected = interreduce([f * g for f in a.gens for g in b.gens])
        assert list(ideal_product(a, b).gens) == expected
    # terms that cancel in the product, over Q and modulo p
    p = 32003
    ring = PolyRing(("x", "y"), PrimeField(p))
    u, v = ring.gens()
    a = Ideal(ring, (u + v, u**2 + 2 * v**2))
    b = Ideal(ring, (u - v, u + (p - 2) * v))
    assert list(ideal_product(a, b).gens) == interreduce(
        [f * g for f in a.gens for g in b.gens]
    )
    assert list(ideal_product(Ideal(R, (x + y,)), Ideal(R, (x - y,))).gens) == [
        x**2 - y**2
    ]
    # 324 distinct products, each a multiple of the least, which alone
    # the normal-form sweep keeps
    for field in (RationalField(), PrimeField(p)):
        ring = PolyRing(("x", "y", "z", "w"), field)
        u, v, s, t = ring.gens()
        a = Ideal(ring, [s**i * (u + v) for i in range(18)])
        b = Ideal(ring, [t**j * (u - v) for j in range(18)])
        prods = [f * g for f in a.gens for g in b.gens]
        assert len(set(prods)) == 324
        assert list(ideal_product(a, b).gens) == interreduce(prods) == [
            u**2 - v**2
        ]


def _colon_cases(rng, ring):
    # seeded homogeneous (a, b, label) pairs: generic forms, zero
    # divisors u with u·v in a, monomial and mixed pairs, divisors with
    # two or more generators outside a, and constant generators; the
    # monomials of a monomial pair have coefficients 2 and -3, which
    # the quotient a : (c·x^m) divides by c
    nvars = ring.nvars

    def form(degree):
        while True:
            f = _homogeneous_generator(rng, ring, degree)
            if not f.is_zero:
                return f

    def monomials(count, top, scaled=False):
        return [
            ring.monomial(e, rng.choice((2, -3)) if scaled else 1)
            for e in random_exps(rng, nvars, count, top)
        ]

    def dense_linear():
        return sum(
            (rng.choice((-2, -1, 1, 3)) * g for g in ring.gens()[1:]),
            ring.gens()[0],
        )

    cases = []
    for _ in range(4):
        a = [form(2), form(rng.choice((2, 3)))]
        cases.append((a, [form(rng.choice((1, 2)))], "generic"))
        cases.append(([form(2), form(2)], [dense_linear()], "dense"))
        u, v, w = form(1), form(1), form(1)
        cases.append(([u * v, form(2)], [u], "zero divisor"))
        cases.append(([u * v, w**2], [u, form(2), v], "several outside"))
        cases.append(
            (monomials(4, 3, True), monomials(3, 2, True), "monomial")
        )
        # a in degrees above 2, so every generator of b lies outside it
        corner = ring.monomial((1,) * nvars)
        a = [corner * g for g in monomials(4, 3, True)]
        cases.append((a, monomials(3, 2, True), "monomial, all outside"))
        cases.append((monomials(3, 3), [form(1), form(2)], "monomial a"))
        cases.append(([form(2), form(2)], monomials(2, 2), "monomial b"))
        c = ring.const(rng.choice((2, -3, 5)))
        cases.append(([u * v, w**2, u * w], [c], "constant"))
        cases.append(([u * v, w**2], [c, u], "constant and zero divisor"))
        a = monomials(3, 3, True)
        cases.append((a, [c], "monomial, constant"))
        cases.append(
            (a, [c] + monomials(1, 2, True), "monomial, constant and monomial")
        )
    return cases


def test_colon_matches_elimination(monkeypatch):
    # every shortcut of colon against the textbook elimination colon,
    # by exact generator lists; a graded colon with a nonzerodivisor
    # outside a, or of two monomial ideals, runs no Buchberger loop in
    # a block order, neither an elimination nor the syzygy run
    block_runs = []
    run = groebner_module.buchberger

    def recording(gens, order=GrevLex(), *args, **kwargs):
        if isinstance(order, BlockElimination):
            block_runs.append(order)
        return run(gens, order, *args, **kwargs)

    rng = random.Random(211)
    names = ("x", "y", "z", "w")
    seen = set()
    for field in (RationalField(), PrimeField(32003)):
        for nvars in (3, 4):
            ring = PolyRing(names[:nvars], field)
            for gens_a, gens_b, label in _colon_cases(rng, ring):
                a = Ideal(ring, gens_a)
                b = Ideal(ring, gens_b)
                want = elimination_colon(a, b)
                outside = [g for g in b.gens if not a.contains(g)]
                # g is a nonzerodivisor modulo a when a : (g) lies in a
                nonzerodivisor = any(
                    all(
                        a.contains(q)
                        for q in elimination_colon(a, Ideal(ring, (g,)))
                    )
                    for g in outside
                )
                monomial = all(
                    len(g.terms) == 1 for g in a.gens + b.gens
                )
                monkeypatch.setattr(groebner_module, "buchberger", recording)
                del block_runs[:]
                got = colon(Ideal(ring, gens_a), b)
                monkeypatch.setattr(groebner_module, "buchberger", run)
                assert got.gens == want, (label, gens_a, gens_b)
                if nonzerodivisor or monomial:
                    assert not block_runs, (label, gens_a, gens_b)
                seen.add((label, nonzerodivisor, len(outside)))
    labels = {label for label, _, _ in seen}
    assert len(labels) == 12
    # both coefficient rules of the monomial pieces: 1/c for one
    # outside generator, 1 where several meet
    counts = {
        count
        for label, _, count in seen
        if label in ("monomial", "monomial, all outside")
    }
    assert 1 in counts and max(counts) >= 2
    assert any(nzd for _, nzd, _ in seen)
    assert any(not nzd and count == 1 for _, nzd, count in seen)
    assert any(nzd and count >= 2 for _, nzd, count in seen)
    assert any(not nzd and count >= 2 for _, nzd, count in seen)
    # a pair that is not homogeneous takes the syzygy run
    a = Ideal(R3, (x3**2 - y3, y3 * z3))
    b = Ideal(R3, (x3 + z3**2,))
    monkeypatch.setattr(groebner_module, "buchberger", recording)
    del block_runs[:]
    got = colon(a, b)
    monkeypatch.setattr(groebner_module, "buchberger", run)
    assert block_runs
    assert got.gens == elimination_colon(a, b)


def test_nonhomogeneous_colon_matches_elimination(monkeypatch):
    # seeded pairs that no certificate covers: a divisor of one to three
    # generators, most with a constant term, so every colon with a
    # generator outside a goes through the syzygy run, which must give
    # the generator lists of the per-generator elimination colon
    modules = []
    run = groebner_module.buchberger

    def recording(gens, *args, **kwargs):
        modules.append(kwargs.get("_module", 0))
        return run(gens, *args, **kwargs)

    rng = random.Random(307)

    def nonconstant(ring, count, degree):
        # one to count terms of degrees 1..degree, coefficients in -3..3
        terms = {}
        for _ in range(rng.randint(1, count)):
            e = [0] * ring.nvars
            for _ in range(rng.randint(1, degree)):
                e[rng.randrange(ring.nvars)] += 1
            terms[tuple(e)] = rng.choice((-3, -2, -1, 1, 2, 3))
        return ring.from_terms(terms)

    reached = {1: 0, 2: 0}
    for field in (RationalField(), PrimeField(32003)):
        for _ in range(60):
            ring = PolyRing(("x", "y", "z")[: rng.choice((2, 3))], field)
            count = rng.randint(1, 3)
            gens_a = [nonconstant(ring, 3, 3) for _ in range(count)]
            gens_b = []
            for _ in range(rng.randint(1, 3)):
                g = nonconstant(ring, 2, 2)
                if rng.random() < 0.7:
                    g = g + rng.choice((-2, -1, 1, 3))
                gens_b.append(g)
            a = Ideal(ring, gens_a)
            b = Ideal(ring, gens_b)
            want = elimination_colon(a, b)
            outside = [g for g in b.gens if not a.contains(g)]
            monkeypatch.setattr(groebner_module, "buchberger", recording)
            del modules[:]
            got = colon(Ideal(ring, gens_a), b)
            monkeypatch.setattr(groebner_module, "buchberger", run)
            assert got.gens == want, (gens_a, gens_b)
            # at most one syzygy run, with a component per generator
            # outside a and one more
            syzygy = [m for m in modules if m]
            assert syzygy in ([], [len(outside) + 1]), (gens_a, gens_b)
            if syzygy:
                reached[min(len(outside), 2)] += 1
    # at least 100 pairs reach the syzygy run, at least 30 of them with
    # one generator outside a and 30 with several
    assert sum(reached.values()) >= 100, reached
    assert min(reached.values()) >= 30, reached


def test_colon_memo_returns_the_same_ideal():
    a = Ideal(R3, (x3 * y3, y3 * z3 + x3**2))
    b = Ideal(R3, (y3, z3))
    first = colon(a, b)
    assert colon(a, b) is first
    assert colon(a, Ideal(R3, (y3, z3))) is first
    # the key is the divisor's generator list
    assert colon(a, Ideal(R3, (z3, y3))) is not first


def test_colon_work_is_pinned(monkeypatch):
    # work counts that time alone would show: the S-polynomials the pair
    # loops reduce, with the Gebauer-Möller criteria, 11 for the basis of
    # a below (14 without the M criterion).  The syzygy run of one
    # non-graded colon reduces 22; without the e_0·h elements it reduces
    # more than 60, and over Q it took 106 s, not 0.01 s, so the count
    # stops the run as soon as it passes 30.  On J^2 : I, the generators
    # of I that lie in J have squares in J^2, and only z runs the
    # nonzerodivisor certificate; with the basis of J^2 the colon
    # reduces 2 (6 without M)
    reduce_ = groebner_module._reduce
    pair_loop = groebner_module._pair_loop
    run = groebner_module.buchberger
    inside = []
    plain = []
    reductions = []
    certificates = []

    def counting_loop(*args):
        inside.append(args[-1])  # the module rank, 0 outside syzygy runs
        try:
            return pair_loop(*args)
        finally:
            inside.pop()

    def counting_reduce(*args, **kwargs):
        if inside and inside[-1]:
            reductions.append(True)
            assert len(reductions) <= 30, "syzygy run past 30 reductions"
        elif inside:
            plain.append(True)
        return reduce_(*args, **kwargs)

    def counting_run(gens, *args, **kwargs):
        if "_reduced" in kwargs and "_module" not in kwargs:
            certificates.append(True)
        return run(gens, *args, **kwargs)

    monkeypatch.setattr(groebner_module, "_pair_loop", counting_loop)
    monkeypatch.setattr(groebner_module, "_reduce", counting_reduce)
    monkeypatch.setattr(groebner_module, "buchberger", counting_run)
    for field in (PrimeField(32003), RationalField()):
        ring = PolyRing(("x", "y", "z"), field)
        u, v, w = ring.gens()
        a = Ideal(
            ring, (u**3 - 2 * v * w, -(v**3) - v - 2 * w, u**3 + 3 * u * w + 3 * v)
        )
        g = -u * w + 3
        del plain[:]
        a.groebner()
        assert len(plain) == 11
        del reductions[:]
        got = colon(a, Ideal(ring, (g,)))
        assert len(reductions) == 22
        assert got.gens == elimination_colon(a, Ideal(ring, (g,)))
        outer = Ideal(ring, (u**2 + v**2, u * v, w))
        square = ideal_power(Ideal(ring, (u**2 + v**2, u * v)), 2)
        del certificates[:], plain[:]
        got = colon(square, outer)
        assert certificates == [True]
        assert len(plain) == 2
        assert got.gens == elimination_colon(square, outer)


def test_radical_membership_matches_the_elimination(monkeypatch):
    # the power witness f^2 in a against the elimination alone, on graded
    # and non-graded pairs; the witness decides a share of the pairs, and
    # those run no elimination
    rng = random.Random(83)
    decided = 0
    eliminations = []
    run = groebner_module.eliminate

    def counting(*args):
        eliminations.append(True)
        return run(*args)

    monkeypatch.setattr(groebner_module, "eliminate", counting)
    for trial in range(48):
        field = (RationalField(), PrimeField(32003))[trial % 2]
        ring = PolyRing(("x", "y", "z")[: 2 + trial // 2 % 2], field)
        graded = trial // 4 % 2 == 0
        h = _homogeneous_generator(rng, ring, 1) or ring.gens()[0]
        gens = [h**2] if trial % 3 else []
        for _ in range(rng.randint(1, 2)):
            g = _homogeneous_generator(rng, ring, rng.randint(1, 3))
            if not graded and rng.random() < 0.6:
                g = g + rng.choice((-1, 2)) * ring.gens()[-1] ** 2
                if rng.random() < 0.3:
                    g = g + 1
            gens.append(g)
        a = Ideal(ring, gens)
        for f in (h, h + ring.gens()[-1], _homogeneous_generator(rng, ring, 2)):
            if f.is_zero:
                continue
            zname = "z" if "z" not in ring.variables else "t"
            ext = PolyRing(ring.variables + (zname,), field)
            lift = [
                Polynomial(ext, {e + (0,): c for e, c in p.terms.items()})
                for p in list(a.gens) + [f]
            ]
            sat = eliminate(
                Ideal(ext, lift[:-1] + [ext.one - ext.var(zname) * lift[-1]]),
                [zname],
            )
            origin = (0,) * ring.nvars
            want = a.contains(f) or any(origin in g.terms for g in sat.gens)
            del eliminations[:]
            assert radical_membership(f, a) == want, (f, gens)
            if not a.contains(f) and a.contains(f * f):
                decided += 1
                assert not eliminations, (f, gens)
    assert decided >= 10, decided
