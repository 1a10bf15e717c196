"""Reduction verdicts, spread, grade, d-sequences, colon stability."""

import random
from itertools import accumulate

import pytest

from oracle import exps_to_ideal, random_exps

from reeslab import (
    ContainmentError,
    Ideal,
    NEG_INF,
    PolyRing,
    PreconditionError,
    RationalField,
    analytic_spread,
    d_sequence_check,
    depth_positive,
    grade_cm,
    ideal_equal,
    integral_dependence,
    local_dimension,
    maximal_ideal,
    pair_report,
    radical_colon_stability,
    radical_contains_variables,
    reduction_test,
    rees_criterion,
    rees_function,
    staircase_histogram,
    zero_ideal,
)

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
    hit = integral_dependence(x * y, DIAG)
    assert hit.is_reduction is True and hit.reduction_number == 1
    miss = integral_dependence(x, Ideal(R, (y,)), n_max=5)
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


def _numerator_order(lead_exps, nvars):
    # N(t) = (1-t)^n times the Hilbert series; its degree is at most
    # that of the lcm of the generators, so the truncation is exact
    top = sum(max(e[i] for e in lead_exps) for i in range(nvars))
    num = staircase_histogram(lead_exps, nvars, top)
    for _ in range(nvars):
        num = [c - p for c, p in zip(num, [0] + num)]
    order = 0
    while sum(num) == 0:
        num = list(accumulate(num))[:-1]
        order += 1
    return order


def _random_form(rng, ring, degree):
    terms = []
    for _ in range(rng.randint(1, 3)):
        e = [0] * ring.nvars
        for _ in range(degree):
            e[rng.randrange(ring.nvars)] += 1
        terms.append(ring.monomial(tuple(e), rng.choice((-2, -1, 1, 3))))
    return sum(terms[1:], terms[0])


def test_local_dimension_matches_numerator_order():
    rng = random.Random(113)
    rings = {
        n: PolyRing(("x", "y", "z", "w")[:n], RationalField())
        for n in (2, 3, 4)
    }
    for _ in range(40):
        nvars = rng.choice((2, 3, 4))
        a = exps_to_ideal(rings[nvars], random_exps(rng, nvars, 6, 4))
        order = _numerator_order(a.groebner().lead_exps, nvars)
        assert local_dimension(a) == nvars - order
    for _ in range(20):
        ring = rings[rng.choice((2, 3))]
        forms = [
            _random_form(rng, ring, rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        ]
        gens = [f for f in forms if not f.is_zero] or [ring.gens()[0]]
        a = Ideal(ring, gens)
        order = _numerator_order(a.groebner().lead_exps, ring.nvars)
        assert local_dimension(a) == ring.nvars - order


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


def test_pair_report_square():
    rep = pair_report(SQUARE, DIAG, n_range=range(1, 7), n_max=5)
    assert rep.reduction.is_reduction is True
    assert rep.criterion_verdict == "REDUCTION"
    assert rep.spread == 2
    assert rep.grade == 2
    assert rep.dim == 2
    assert rep.theorem_flags["criterion_matches_direct"] == "verified"
    assert rep.theorem_flags["degree_within_spread_bound"] == "verified"
    assert rep.theorem_flags["ci_reduction_degree"] == "verified"
    assert rep.theorem_flags["spread_bounds"] == "verified"


def test_pair_report_negative():
    rep = pair_report(
        Ideal(R, (x,)), Ideal(R, (x**2, x * y)), n_range=range(1, 8), n_max=4
    )
    assert rep.reduction.is_reduction is False
    assert rep.reduction.certified is True
    assert rep.reduction.method == "rees-criterion"
    assert rep.criterion_verdict == "NOT_REDUCTION"
    assert rep.theorem_flags["criterion_matches_direct"] == "verified"
    assert rep.theorem_flags["degree_within_spread_bound"] == "not_applicable"
