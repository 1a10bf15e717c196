"""Reduction verdicts, spread, grade, d-sequences, colon stability."""

import random
from math import comb

import pytest

from oracle import dimension, exps_to_ideal, random_exps, random_form

from reeslab import (
    BlockElimination,
    ContainmentError,
    Ideal,
    PolyRing,
    PreconditionError,
    RationalField,
    analytic_spread,
    buchberger,
    d_sequence_check,
    depth_positive,
    grade_cm,
    ideal_equal,
    ideal_power,
    ideal_sum,
    local_dimension,
    maximal_ideal,
    radical_colon_stability,
    radical_contains_variables,
    reduction_test,
    rees_criterion,
    rees_function,
    total_degree,
    zero_ideal,
)
from reeslab import groebner, lengths, parse_session, reduction, run_session

R = PolyRing(("x", "y"), RationalField())
x, y = R.gens()
SQUARE = Ideal(R, (x**2, x * y, y**2))
DIAG = Ideal(R, (x**2, y**2))


def test_rees_function_square_pair():
    table = rees_function(SQUARE, DIAG, range(1, 7))
    assert table.start == 1
    assert table.values == (1, 2, 3, 4, 5, 6)


def test_rees_function_requires_containment():
    with pytest.raises(ContainmentError):
        rees_function(Ideal(R, (x,)), Ideal(R, (y,)), range(1, 4))


def test_reduction_found():
    v = reduction_test(SQUARE, DIAG)
    assert v.is_reduction is True
    assert v.reduction_number == 1
    assert v.certified is True
    assert v.method == "direct"


def test_reduction_step_caps_its_basis(monkeypatch):
    # a graded step builds the basis of inner·outer^n only through the
    # top degree of outer^(n+1); the full basis costs about twice as much
    # on the groebner-q benchmark
    caps = []
    run = reduction.buchberger

    def recording(gens, order, budget=None, _degree=None, _reduced=0):
        caps.append(_degree)
        return run(gens, order, budget, _degree, _reduced)

    monkeypatch.setattr(reduction, "buchberger", recording)
    R3 = PolyRing(("x", "y", "z"), RationalField())
    u, v, w = R3.gens()
    for outer, inner, number in (
        (SQUARE, Ideal(R, (x**2 + y**2, x * y)), 1),
        (SQUARE, DIAG, 1),
        (maximal_ideal(R3), Ideal(R3, (u - v, v + w, u + 2 * w)), 0),
        (Ideal(R3, (u**2, u * v, v**2, w)), Ideal(R3, (u**2, v**2, w)), 1),
    ):
        del caps[:]
        verdict = reduction_test(outer, inner)
        assert verdict.reduction_number == number
        tops = [
            max(total_degree(g) for g in ideal_power(outer, n + 1).gens)
            for n in range(number + 1)
        ]
        assert caps == tops
    # a step that is not graded is decided by local leads, with no cap
    del caps[:]
    outer = Ideal(R, (x, y))
    inner = Ideal(R, (x + y**2, y + x**2))
    assert reduction_test(outer, inner).reduction_number == 0
    assert caps == []


@pytest.mark.parametrize("field", ["q", "f<32003>"])
def test_monomial_powers_build_no_basis_and_read_each_numerator_once(
    field, monkeypatch
):
    # a product of monomial ideals is born with its reduced basis, so the
    # Rees table of a monomial pair runs buchberger for the two given
    # ideals only; and each ideal's Hilbert numerator is computed once,
    # however many tasks read it
    runs = []
    run = groebner.buchberger

    def recording(gens, *args, **kwargs):
        runs.append(gens)
        return run(gens, *args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", recording)
    session = parse_session(
        f"ring {field}[x,y,z]\n"
        "ideal I = x^2, x*y, y^2, x*z, y*z, z^2\n"
        "ideal J = x^2, y^2, z^2\n"
        "task length I J\n"
        "task reduction I J nmax=4\n"
        "task rees I J nrange=1..6\n"
    )
    outer, inner = session.bindings["I"], session.bindings["J"]
    table = rees_function(outer, inner, range(1, 7))
    assert table.values == (4, 12, 24, 40, 60, 84)
    assert len(runs) == 2
    assert outer._gb and inner._gb
    # the session over fresh bindings: the length task reads I and J,
    # the rees task I^n and J^n for n = 1..6, so 12 ideals in all
    session = parse_session(session.canonical_text())
    read = []
    split = lengths._split_pole
    numerators = []
    numerator = lengths._numerator

    def reading(b, a=None):
        read.extend(i for i in (b, a) if i is not None)
        return split(b, a)

    def counting(leads):
        numerators.append(leads)
        return numerator(leads)

    monkeypatch.setattr(lengths, "_split_pole", reading)
    monkeypatch.setattr(lengths, "_numerator", counting)
    report = run_session(session)
    length, verdict, rees = report["tasks"]
    assert report["ok"] and length["length"] == 4
    assert verdict["reduction_number"] == 1 and verdict["certified"]
    assert rees["table"]["values"] == list(table.values)
    assert len({id(i) for i in read}) == len(numerators) == 12


def test_reduction_trivial_pair():
    v = reduction_test(SQUARE, SQUARE)
    assert v.is_reduction is True
    assert v.reduction_number == 0


def test_reduction_refuted_only_by_exhaustion():
    # x is not integral over x*m, and the direct search knows it cannot
    # prove a negative
    v = reduction_test(Ideal(R, (x,)), Ideal(R, (x**2, x * y)), n_max=6)
    assert v.is_reduction is False
    assert v.reduction_number is None
    assert v.certified is False


def test_criterion_reduction_side():
    crit = rees_criterion(SQUARE, DIAG, range(1, 8))
    assert crit.verdict == "REDUCTION"
    assert crit.fit.degree == 1
    assert crit.dim == 2


def test_criterion_negative_side():
    crit = rees_criterion(Ideal(R, (x,)), Ideal(R, (x**2, x * y)), range(1, 8))
    assert crit.verdict == "NOT_REDUCTION"
    assert crit.fit.degree == 2
    assert crit.table.values == (1, 3, 6, 10, 15, 21, 28)


def test_integral_dependence():
    # f is integral over J exactly when J reduces (J, f)
    hit = reduction_test(ideal_sum(DIAG, Ideal(R, (x * y,))), DIAG)
    assert hit.is_reduction is True and hit.reduction_number == 1
    line = Ideal(R, (y,))
    miss = reduction_test(ideal_sum(line, Ideal(R, (x,))), line, n_max=5)
    assert miss.is_reduction is False and miss.certified is False


def test_local_dimension():
    assert local_dimension(Ideal(R, (x,))) == 1
    assert local_dimension(Ideal(R, (x, y))) == 0
    assert local_dimension(Ideal(R, (x * y**2, x**4))) == 1
    assert local_dimension(zero_ideal(R)) == 2
    with pytest.raises(PreconditionError):
        local_dimension(Ideal(R, (R.one,)))


def test_local_dimension_inhomogeneous():
    # V(y - x^2) is a curve through the origin
    assert local_dimension(Ideal(R, (y - x**2,))) == 1
    assert local_dimension(Ideal(R, (y - x**2, x**3))) == 0


def _numerator_order(lead_exps):
    # the order of the Hilbert numerator N at t = 1: the first k whose
    # k-th derivative there, k!·sum C(i, k)·N_i, is nonzero
    num = groebner._numerator(lead_exps)
    k = 0
    while not sum(comb(i, k) * c for i, c in enumerate(num)):
        k += 1
    return k


def test_local_dimension_matches_numerator_order():
    # the dimension of a graded R/a is n minus the order of its Hilbert
    # numerator at t = 1, and also the largest set of variables that no
    # lead term lives on (the subspace reference in the oracle)
    rng = random.Random(113)
    rings = {
        n: PolyRing(("x", "y", "z", "w")[:n], RationalField())
        for n in (2, 3, 4)
    }
    for _ in range(40):
        nvars = rng.choice((2, 3, 4))
        exps = random_exps(rng, nvars, 6, 4)
        a = exps_to_ideal(rings[nvars], exps)
        order = _numerator_order(a.groebner().lead_exps)
        assert local_dimension(a) == nvars - order == dimension(exps, nvars)
    for _ in range(20):
        ring = rings[rng.choice((2, 3))]
        forms = [
            random_form(rng, ring, rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        ]
        gens = [f for f in forms if not f.is_zero] or [ring.gens()[0]]
        a = Ideal(ring, gens)
        leads = a.groebner().lead_exps
        assert (
            local_dimension(a)
            == ring.nvars - _numerator_order(leads)
            == dimension(leads, ring.nvars)
        )


def test_grade():
    assert grade_cm(Ideal(R, (x,))) == 1
    assert grade_cm(Ideal(R, (x, y))) == 2
    assert grade_cm(Ideal(R, (x * y**2, x**4))) == 1
    with pytest.raises(PreconditionError):
        grade_cm(zero_ideal(R))


def test_analytic_spread():
    assert analytic_spread(Ideal(R, (x,))) == 1
    assert analytic_spread(Ideal(R, (x, y))) == 2
    assert analytic_spread(DIAG) == 2
    # x*(x,y) twists to (x,y), so the fiber keeps its dimension
    assert analytic_spread(Ideal(R, (x**2, x * y))) == 2
    with pytest.raises(PreconditionError):
        analytic_spread(zero_ideal(R))


def _elimination_fiber(a):
    """The fiber ideal of the blowup along a, by two eliminations.

    The cone C of the Rees algebra comes from (u_i - s·g_i) with s
    eliminated, and the fiber is (C + (x)) ∩ k[u].  The variables of a's
    ring must not be named s or u0, u1, ...
    """
    ring = a.ring
    n = ring.nvars
    us = tuple(f"u{i}" for i in range(len(a.gens)))
    # s and x_1..x_n come first, so one block order eliminates s alone
    # and the next all of them
    ext = PolyRing(("s",) + ring.variables + us, ring.field)
    s = ext.var("s")
    pad = (0,) * len(us)
    rels = [
        ext.var(u) - s * ext.from_terms(
            {(0,) + e + pad: c for e, c in g.terms.items()}
        )
        for u, g in zip(us, a.gens)
    ]

    def free_of(polys, k):
        # the polys in no variable among the first k
        return [p for p in polys if not any(any(e[:k]) for e in p.terms)]

    cone = free_of(buchberger(rels, BlockElimination(1)), 1)
    mixed = cone + [ext.var(v) for v in ring.variables]
    fiber_ring = PolyRing(us, ring.field)
    return Ideal(
        fiber_ring,
        [
            fiber_ring.from_terms({e[n + 1:]: c for e, c in p.terms.items()})
            for p in free_of(buchberger(mixed, BlockElimination(n + 1)), n + 1)
        ],
    )


def test_spread_fiber_matches_elimination():
    # the fiber is the cone with x set to 0; the textbook presentation
    # eliminates x from the cone plus (x) instead
    rng = random.Random(1201)
    rings = [R, PolyRing(("x", "y", "z"), RationalField())]
    seen = set()
    for _ in range(30):
        ring = rng.choice(rings)
        gens = [
            random_form(rng, ring, rng.randint(1, 2))
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.5:
            gens = [g * (ring.one + random_form(rng, ring, 1)) for g in gens]
        a = Ideal(ring, gens)
        if a.is_zero:
            continue
        want = local_dimension(_elimination_fiber(a))
        assert analytic_spread(a) == want, a
        seen.add(a.is_homogeneous())
    assert seen == {True, False}


def test_d_sequence_strict():
    rep = d_sequence_check((x, y))
    assert rep.is_d_sequence_strict is True
    assert rep.is_d_sequence_weak is True
    assert rep.failing_witness is None


def test_d_sequence_weak_only():
    rep = d_sequence_check((x * y, x))
    assert rep.is_d_sequence_weak is True
    assert rep.is_d_sequence_strict is False
    assert "lies in the ideal of the others" in rep.failing_witness


def test_d_sequence_fails_weak():
    rep = d_sequence_check((x**2, x * y))
    assert rep.is_d_sequence_weak is False
    assert rep.is_d_sequence_strict is False
    assert "fails to absorb" in rep.failing_witness


def test_d_sequence_validation():
    with pytest.raises(PreconditionError):
        d_sequence_check(())
    with pytest.raises(PreconditionError):
        d_sequence_check((x, R.zero))


def test_depth_positive():
    assert depth_positive(Ideal(R, (x,))) is True
    assert depth_positive(DIAG) is False
    with pytest.raises(PreconditionError):
        depth_positive(zero_ideal(R))
    with pytest.raises(PreconditionError):
        depth_positive(Ideal(R, (R.one,)))


def test_radical_colon_stability():
    rep = radical_colon_stability(SQUARE, DIAG, n_max=3)
    assert rep.stable_from == 1
    assert ideal_equal(rep.proxy, maximal_ideal(R))
    assert len(rep.chain) == 3
    with pytest.raises(PreconditionError):
        radical_colon_stability(SQUARE, DIAG, n_max=1)


def test_radical_contains_variables():
    assert radical_contains_variables(DIAG) is True
    assert radical_contains_variables(Ideal(R, (x,))) is False
