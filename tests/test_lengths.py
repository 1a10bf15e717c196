"""Length certification, staircase counting, and the reference sampler."""

import importlib.util
import random
from itertools import accumulate, zip_longest
from pathlib import Path

import pytest

from oracle import (
    colength as oracle_colength,
    exps_to_ideal,
    hilbert_samples,
    minimalize,
    random_exps,
    subquotient as oracle_subquotient,
)

from reeslab import (
    ContainmentError,
    FunctionTable,
    Ideal,
    LengthCertificationError,
    PolyRing,
    RationalField,
    colength,
    ideal_power,
    ideal_product,
    ideal_sum,
    maximal_ideal,
    subquotient_length,
    zero_ideal,
)
from reeslab import groebner

R = PolyRing(("x", "y"), RationalField())
x, y = R.gens()
R3 = PolyRing(("x", "y", "z"), RationalField())
x3, y3, z3 = R3.gens()
ROOT = Path(__file__).resolve().parent.parent


def test_colength_frozen():
    assert colength(ideal_power(maximal_ideal(R), 3)) == 6
    assert colength(Ideal(R, (x**2, y**2))) == 4
    assert colength(Ideal(R, (x**2, x * y, y**2))) == 3
    assert colength(Ideal(R, (x - y**2, y**3))) == 3
    assert colength(Ideal(R3, (x3, y3, z3))) == 1
    assert colength(Ideal(R, (x, x + 1))) == 0


def test_colength_rejects_infinite_and_zero():
    with pytest.raises(LengthCertificationError):
        colength(Ideal(R, (x,)))
    with pytest.raises(LengthCertificationError):
        colength(zero_ideal(R))


def test_colength_matches_oracle_random():
    rng = random.Random(31)
    done = 0
    while done < 25:
        nvars = rng.choice([2, 3])
        ring = R if nvars == 2 else R3
        exps = random_exps(rng, nvars, 4, 5)
        want = oracle_colength(exps, nvars)
        a = exps_to_ideal(ring, exps)
        if want is None:
            with pytest.raises(LengthCertificationError):
                colength(a)
        else:
            assert colength(a) == want
        done += 1


def _staircase_histogram(exps, nvars, max_degree):
    # per-degree counts of the monomials outside the ideal of the
    # minimal exponents exps: the expansion of N(t)/(1-t)^nvars
    num = groebner._numerator(exps)
    hist = (num + [0] * (max_degree + 1))[: max_degree + 1]
    for _ in range(nvars):
        hist = list(accumulate(hist))  # times 1/(1-t)
    return hist


def test_staircase_histogram_matches_enumeration():
    from oracle import degree_tuples, member

    rng = random.Random(41)
    for _ in range(15):
        nvars = rng.choice([2, 3])
        exps = random_exps(rng, nvars, 3, 4)
        hist = _staircase_histogram(tuple(exps), nvars, 6)
        for d in range(7):
            want = sum(
                1 for e in degree_tuples(nvars, d) if not member(e, exps)
            )
            assert hist[d] == want


def test_numerator_depth_independent_of_generator_count(monkeypatch):
    # m^30 in three variables has 496 generators; each slice of the
    # sweep drops one variable, so the depth is at most nvars
    from oracle import degree_tuples

    inner = groebner._numerator
    depth = [0, 0]

    def counted(gens):
        depth[0] += 1
        depth[1] = max(depth)
        try:
            return inner(gens)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(groebner, "_numerator", counted)
    hist = _staircase_histogram(degree_tuples(3, 30), 3, 32)
    assert hist == [(d + 1) * (d + 2) // 2 for d in range(30)] + [0] * 3
    assert depth[1] <= 3 + 1


def _strip(num):
    # a numerator without trailing zero coefficients; the zero one is [0]
    num = list(num)
    while len(num) > 1 and not num[-1]:
        num.pop()
    return num


def _counted_numerator(exps, nvars):
    # count the monomials outside the ideal in each degree up to
    # D = sum_i max_j g_j[i], which bounds deg N (every lcm of
    # generators divides the lcm of all), and multiply by (1-t)^nvars
    from oracle import degree_tuples, member

    top = sum(max((g[i] for g in exps), default=0) for i in range(nvars))
    num = [
        sum(1 for e in degree_tuples(nvars, d) if not member(e, exps))
        for d in range(top + 1)
    ]
    for _ in range(nvars):
        num = [c - p for c, p in zip(num, [0] + num)]
    return _strip(num)


def _pivot_numerator(gens):
    # the median-pivot recursion N(M) = N(M + p) + t^deg(p)·N(M : p) for
    # a power p of the variable shared by the most generators (Bigatti,
    # JPAA 119, 1997), kept as an independent reference
    nvars = len(gens[0]) if gens else 0
    shared = [sum(1 for g in gens if g[i]) for i in range(nvars)]
    if max(shared, default=0) < 2:
        num = [1]
        for g in gens:
            shifted = [0] * sum(g) + num
            num = [c - s for c, s in zip_longest(num, shifted, fillvalue=0)]
        return num
    i = shared.index(max(shared))
    mixed = sorted({g[i] for g in gens if g[i] and sum(g) > g[i]})
    e = mixed[len(mixed) // 2]
    pivot = tuple(e if j == i else 0 for j in range(nvars))
    plus = [g for g in gens if g[i] < e] + [pivot]
    colon_exps = [g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens]
    shifted = [0] * e + _pivot_numerator(minimalize(colon_exps))
    return [
        c + s
        for c, s in zip_longest(_pivot_numerator(plus), shifted, fillvalue=0)
    ]


def test_numerator_matches_counting():
    cases = [
        ([], 3),
        ([(0, 0, 0)], 3),
        ([(0,)], 1),
        ([(5,)], 1),
        ([(1, 0), (0, 1)], 2),
        ([(2, 0, 0), (0, 3, 0), (0, 0, 4)], 3),
        ([(3, 0, 0, 0), (0, 0, 0, 2)], 4),
        # eight variables, exponents at most 2
        (
            [
                (2, 0, 0, 0, 0, 0, 0, 0),
                (0, 1, 1, 0, 0, 0, 0, 0),
                (0, 0, 2, 1, 0, 0, 0, 0),
                (0, 0, 0, 1, 1, 1, 0, 0),
                (0, 0, 0, 0, 0, 1, 2, 0),
                (0, 0, 0, 0, 0, 0, 1, 1),
                (1, 0, 0, 0, 0, 0, 0, 1),
                (0, 1, 0, 0, 1, 0, 1, 0),
            ],
            8,
        ),
    ]
    rng = random.Random(151)
    for nvars in (2, 3, 4, 5):
        for _ in range(12):
            cases.append((random_exps(rng, nvars, 6, 4), nvars))
    for exps, nvars in cases:
        assert groebner._numerator(exps) == _counted_numerator(exps, nvars)


def test_numerator_matches_pivot_recursion():
    from oracle import degree_tuples

    cases = [degree_tuples(3, 30), degree_tuples(4, 6)]
    rng = random.Random(157)
    for nvars in (4, 5, 6):
        for _ in range(15):
            cases.append(random_exps(rng, nvars, 12, 6))
    # the powers of the monomial pairs the rees-monomial bench replays
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    rings = {2: R, 3: R3}
    for _, nvars, ae, be in bench.rees_catalogue():
        for exps in (ae, be):
            a = exps_to_ideal(rings[nvars], exps)
            for n in range(1, 7):
                cases.append(ideal_power(a, n).groebner().lead_exps)
    for exps in cases:
        assert _strip(groebner._numerator(exps)) == _strip(
            _pivot_numerator(exps)
        )


def test_subquotient_frozen():
    I = Ideal(R, (x**2, x * y, y**2))
    J = Ideal(R, (x**2, y**2))
    assert subquotient_length(I, J) == 1
    m = maximal_ideal(R)
    assert subquotient_length(m, Ideal(R, (x, y))) == 0
    assert subquotient_length(Ideal(R, (x,)), Ideal(R, (x**2, x * y))) == 1
    # quotient of the whole ring
    assert subquotient_length(Ideal(R, (R.one,)), Ideal(R, (x**2, y**2))) == 4


def test_subquotient_power_table_frozen():
    m = maximal_ideal(R)
    J = Ideal(R, (x**2, y**2))
    values = [
        subquotient_length(ideal_power(m, n), ideal_power(J, n))
        for n in range(1, 7)
    ]
    assert values == [3, 9, 18, 30, 45, 63]
    assert values == [(3 * n * n + 3 * n) // 2 for n in range(1, 7)]


def test_subquotient_containment_checked():
    with pytest.raises(ContainmentError):
        subquotient_length(Ideal(R, (x**2,)), Ideal(R, (y,)))
    # unchecked, a degree where the second ideal is the larger one shows
    # as a negative coefficient of the Hilbert series
    with pytest.raises(LengthCertificationError):
        subquotient_length(
            Ideal(R, (x**2, y**2)),
            Ideal(R, (x, y**3)),
            check_containment=False,
        )


def test_subquotient_infinite_rejected():
    with pytest.raises(LengthCertificationError):
        subquotient_length(Ideal(R, (x,)), Ideal(R, (x * y,)))


def test_subquotient_inhomogeneous():
    a = Ideal(R, (x + y**2,))
    b = Ideal(R, (x**2 + x * y**2, x * y + y**3))
    # b = (x+y^2)*(x, y): one dimension between them
    assert subquotient_length(a, b) == 1


def test_subquotient_matches_oracle_random():
    rng = random.Random(59)
    done = 0
    while done < 20:
        nvars = rng.choice([2, 3])
        ring = R if nvars == 2 else R3
        ae = random_exps(rng, nvars, 3, 4)
        a = exps_to_ideal(ring, ae)
        keep = [e for e in ae if rng.random() < 0.6]
        c = rng.randint(1, 2)
        b = ideal_sum(
            exps_to_ideal(ring, keep) if keep else zero_ideal(ring),
            ideal_product_with_mpower(a, c),
        )
        be = ideal_to_exps_safe(b)
        want = oracle_subquotient(ae, be, nvars)
        assert want is not None
        assert subquotient_length(a, b) == want
        done += 1


def test_subquotient_length_in_high_degree():
    # the quotients live up to degree 44 and 42: the graded certificate
    # has no degree window and reads no budget
    assert subquotient_length(Ideal(R, (x, y)), Ideal(R, (x**45, y))) == 44
    assert oracle_subquotient([(1, 0), (0, 1)], [(45, 0), (0, 1)], 2) == 44
    a3 = maximal_ideal(R3)
    b3 = Ideal(R3, (x3**42, y3, z3**2))
    assert subquotient_length(a3, b3) == 83
    ae = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    be = [(42, 0, 0), (0, 1, 0), (0, 0, 2)]
    assert oracle_subquotient(ae, be, 3) == 83


def test_subquotient_differential_random_pairs():
    # b = (part of a) + a·c for a random monomial ideal c: finite exactly
    # when the oracle can bound the quotient, infinite otherwise.  In
    # four variables c gets a pure power of every variable, so the pair
    # stays finite; one fixed infinite four-variable pair stands in for
    # the rest.
    R4 = PolyRing(("x", "y", "z", "w"), RationalField())
    rings = {2: R, 3: R3, 4: R4}
    ae, be = [(1, 0, 0, 0), (0, 1, 0, 0)], [(2, 0, 0, 0), (0, 1, 0, 0)]
    assert oracle_subquotient(ae, be, 4) is None
    with pytest.raises(LengthCertificationError):
        subquotient_length(exps_to_ideal(R4, ae), exps_to_ideal(R4, be))
    rng = random.Random(97)
    finite = infinite = 0
    for _ in range(300):
        nvars = rng.choice((2, 3, 4))
        ring = rings[nvars]
        ae = random_exps(rng, nvars, 4, 3)
        keep = [e for e in ae if rng.random() < 0.5]
        ce = random_exps(rng, nvars, 4, 3)
        if nvars == 4:
            ce += [
                tuple(rng.randint(1, 3) if j == i else 0 for j in range(4))
                for i in range(4)
            ]
        a = exps_to_ideal(ring, ae)
        b = ideal_sum(
            exps_to_ideal(ring, keep) if keep else zero_ideal(ring),
            ideal_product(a, exps_to_ideal(ring, ce)),
        )
        want = oracle_subquotient(ae, ideal_to_exps_safe(b), nvars)
        if want is None:
            with pytest.raises(LengthCertificationError):
                subquotient_length(a, b)
            infinite += 1
        else:
            assert subquotient_length(a, b) == want
            finite += 1
    assert finite >= 100 and infinite >= 50


def test_oracle_refusal_matches_capped_search():
    # the oracle refuses an infinite quotient by its exact test before
    # searching; on finite pairs it returns what the capped search
    # finds.  The search costs about a second per infinite four-variable
    # pair at cap 60; every finite bound here lies below 24, so four
    # variables search to 24
    from oracle import capped_bound, finite_quotient, quotient_bound

    rng = random.Random(71)
    seen = {True: 0, False: 0}
    four_infinite = 0
    for _ in range(60):
        nvars = rng.choice((2, 3, 4))
        ae = random_exps(rng, nvars, 4, 3)
        ce = random_exps(rng, nvars, 4, 3)
        keep = [e for e in ae if rng.random() < 0.5]
        be = minimalize(
            keep + [tuple(x + y for x, y in zip(g, c)) for g in ae for c in ce]
        )
        cap = 24 if nvars == 4 else 60
        got = quotient_bound(ae, be, nvars)
        assert got == capped_bound(ae, be, nvars, cap)
        assert (got is not None) == finite_quotient(ae, be)
        seen[got is None] += 1
        four_infinite += nvars == 4 and got is None
    assert seen[False] >= 20 and seen[True] >= 20 and four_infinite >= 5


def ideal_product_with_mpower(a, c):
    return ideal_product(a, ideal_power(maximal_ideal(a.ring), c))


def ideal_to_exps_safe(b):
    out = []
    for g in b.gens:
        (e,) = list(g.terms)
        out.append(e)
    return minimalize(out)


def test_tower_additivity_small():
    a = Ideal(R, (x**2, y**2))
    b = Ideal(R, (x**2, x * y**2, y**3))
    c = Ideal(R, (x**2, x * y**2, y**4))
    assert subquotient_length(a, b) + subquotient_length(
        b, c
    ) == subquotient_length(a, c)


def test_hilbert_samples_frozen():
    # the worked sequence 1,3,6,10 belongs to the whole ring over (0);
    # the corner ideal over (0) gives 2,5,9,14 by the same formula.  The
    # sampler is the reference of test_graded_multiplicity_matches_sampler
    unit = Ideal(R, (R.one,))
    assert hilbert_samples(unit, zero_ideal(R), range(1, 5)) == (1, 3, 6, 10)
    A = Ideal(R, (x, y))
    assert hilbert_samples(A, zero_ideal(R), range(1, 5)) == (2, 5, 9, 14)
    square = Ideal(R, (x**2, x * y, y**2))
    tab_sq = hilbert_samples(square, Ideal(R, (x**2, y**2)), range(1, 5))
    assert tab_sq == (1, 1, 1, 1)
    assert hilbert_samples(A, A, range(1, 5)) == (0, 0, 0, 0)
    principal = Ideal(R, (x,))
    tab_p = hilbert_samples(principal, Ideal(R, (x**2, x * y)), range(1, 5))
    assert tab_p == (1, 1, 1, 1)


def test_function_table_shape():
    t = FunctionTable(2, (5, 7, 9))
    assert list(t.args()) == [2, 3, 4]
    assert len(t) == 3
