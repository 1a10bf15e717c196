"""Acceptance gate: seven criteria, one printed verdict line each.

Every check is exact; each criterion also carries a wall-clock budget.
The verdict lines bypass pytest capture so they are always visible.
"""

import random
import time
from fractions import Fraction

import pytest

import oracle
from oracle import (
    exps_to_ideal,
    ideal_to_exps,
    random_exps,
    s_polynomial,
    subquotient,
)

from reeslab import (
    ExplicitFiltration,
    Ideal,
    PolyRing,
    RationalField,
    analytic_spread,
    colon,
    d_sequence_check,
    depth_positive,
    explicit_filtration_table,
    fit_eventual_polynomial,
    grade_cm,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_sum,
    maximal_ideal,
    multiplicity_function,
    normalized_limit_estimate,
    radical_colon_stability,
    radical_contains_variables,
    reduction_test,
    rees_criterion,
    rees_function,
    subquotient_length,
    zero_ideal,
)
from reeslab.groebner import buchberger, divide


@pytest.fixture
def emit(request):
    # fd-level capture would swallow plain prints, so suspend it while
    # the verdict line goes out
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def write(line):
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)

    return write


def run_criterion(number, budget_s, body, emit):
    begin = time.perf_counter()
    failure = None
    try:
        body()
    except BaseException as exc:
        failure = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - begin
    if failure is None and elapsed > budget_s:
        failure = f"runtime {elapsed:.1f}s exceeds the {budget_s}s budget"
    status = "PASS" if failure is None else "FAIL"
    emit(f"ACCEPTANCE {number}: {status} ({elapsed:.1f}s / {budget_s}s)")
    assert failure is None, f"criterion {number}: {failure}"


def test_criterion_1_finite_quotient_linear_degree(emit):
    def body():
        R = PolyRing(("x", "y"), RationalField())
        x, y = R.gens()
        J = Ideal(R, (x * y**2, x**4))
        I = Ideal(R, (x**4, x * y**2, x**3 * y))
        lam = subquotient_length(I, J)
        want = subquotient(ideal_to_exps(I), ideal_to_exps(J), 2)
        assert lam == want == 1
        assert reduction_test(I, J).is_reduction is True
        table = rees_function(I, J, range(1, 9))
        assert fit_eventual_polynomial(table.values, table.start).degree == 1

    run_criterion(1, 10, body, emit)


def test_criterion_2_four_variable_pair(emit):
    def body():
        R = PolyRing(("x", "y", "z", "w"), RationalField())
        x, y, z, w = R.gens()
        I = Ideal(R, (x * z, x * w, y * z, y * w))
        J = Ideal(R, (x * z, y * w, x * w + y * z))
        assert grade_cm(J) == 2
        rep = d_sequence_check((x * z, y * w, x * w + y * z))
        assert rep.is_d_sequence_strict is True
        two = Ideal(R, (x * z, y * w))
        quotient = colon(two, Ideal(R, (x * w + y * z,)))
        captured = Ideal(
            R, oracle._eliminated_meet(list(I.gens), list(quotient.gens))
        )
        assert ideal_equal(captured, two)
        assert analytic_spread(J) == 3
        table = rees_function(I, J, range(1, 7))
        assert fit_eventual_polynomial(table.values, table.start).degree == 2

    run_criterion(2, 60, body, emit)


def test_criterion_3_multiplicity_pipeline(emit):
    def body():
        R = PolyRing(("x", "y", "z", "w"), RationalField())
        x, y, z, w = R.gens()
        I = Ideal(R, (x * z, x * w, y * z, y * w))
        J = Ideal(R, (x * z, y * w, x * w + y * z))
        rep = multiplicity_function(I, J)
        assert radical_contains_variables(rep.proxy) is True
        assert rep.t == 0
        assert depth_positive(J) is False
        assert rep.e_table.start == 1 and len(rep.e_table.values) == 5
        assert rep.e_fit.degree == 2

    run_criterion(3, 120, body, emit)


def test_criterion_4_three_generator_spread(emit):
    def body():
        R = PolyRing(("x", "y", "z", "w"), RationalField())
        x, y, z, w = R.gens()
        J = Ideal(
            R, (x * y * w**2, x * y * z**2, x * w**2 + y * z**2)
        )
        assert analytic_spread(J) == 3
        f = x * y * z * w
        I = ideal_sum(J, Ideal(R, (f,)))
        # f is integral over J: J reduces (J, f)
        assert reduction_test(I, J).is_reduction is True
        rep = radical_colon_stability(I, J, n_max=3)
        assert rep.stable_from == 1

    run_criterion(4, 120, body, emit)


def test_criterion_5_filtration_counterexample(emit):
    def body():
        R = PolyRing(("x", "y"), RationalField())
        x, y = R.gens()
        fi = ExplicitFiltration([Ideal(R, (x**m,)) for m in range(1, 9)])
        fj = ExplicitFiltration(
            [Ideal(R, (x ** (m + 1), x**m * y)) for m in range(1, 9)]
        )
        table = explicit_filtration_table(fi, fj)
        assert table.values == (1,) * 8
        assert normalized_limit_estimate(table, 2).verdict == "VANISHES"
        verdict = reduction_test(
            Ideal(R, (x,)), Ideal(R, (x**2, x * y)), n_max=8
        )
        assert verdict.is_reduction is False

    run_criterion(5, 5, body, emit)


def test_criterion_6_desk_multiplicities(emit):
    def body():
        R = PolyRing(("x", "y"), RationalField())
        x, y = R.gens()
        square = Ideal(R, (x**2, x * y, y**2))
        diag = Ideal(R, (x**2, y**2))
        rep = multiplicity_function(square, diag)
        assert rep.e_table.values == (1, 2, 3, 4, 5)
        assert rep.e_fit.degree == 1 == analytic_spread(diag) - 1
        for n, e in zip(rep.e_table.args(), rep.e_table.values):
            big = ideal_to_exps(ideal_power(square, n))
            small = ideal_to_exps(ideal_power(diag, n))
            assert e == subquotient(big, small, 2) == n
        corner = Ideal(R, (x, y))
        table = rees_function(corner, diag, range(1, 7))
        for n, lam in zip(table.args(), table.values):
            big = ideal_to_exps(ideal_power(corner, n))
            small = ideal_to_exps(ideal_power(diag, n))
            assert lam == subquotient(big, small, 2)
            assert lam == Fraction(3 * n * n + 3 * n, 2)
        fit = fit_eventual_polynomial(table.values, table.start)
        assert fit.degree == 2 == R.dim

    run_criterion(6, 5, body, emit)


def _random_poly(ring, rng, max_deg=4, max_terms=3):
    n = ring.nvars
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        deg = rng.randrange(0, max_deg + 1)
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    return ring.from_terms(
        {e: Fraction(c) for e, c in terms.items() if c}
    )


def _suite_buchberger_certificate(names):
    rng = random.Random(20260818)
    ran = 0
    for _ in range(200):
        nv = rng.choice((2, 3))
        ring = PolyRing(names[:nv], RationalField())
        gens = [
            p
            for p in (
                _random_poly(ring, rng)
                for _ in range(rng.randrange(2, 5))
            )
            if not p.is_zero
        ]
        if not gens:
            continue
        basis = buchberger(gens)
        ran += 1
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                sp = s_polynomial(basis[a], basis[b])
                assert divide(sp, basis)[1].is_zero
    assert ran >= 195


def _suite_monomial_oracle(names):
    rng = random.Random(7781)
    for _ in range(200):
        nv = rng.choice((2, 3))
        ring = PolyRing(names[:nv], RationalField())
        ea = random_exps(rng, nv, 4, 5)
        eb = random_exps(rng, nv, 4, 5)
        a = exps_to_ideal(ring, ea)
        b = exps_to_ideal(ring, eb)
        got = ideal_to_exps(colon(a, b))
        assert sorted(got) == sorted(oracle.minimalize(oracle.colon(ea, eb)))
        keep = [e for e in ea if rng.random() < 0.5]
        c = rng.randrange(1, 3)
        small = ideal_sum(
            exps_to_ideal(ring, keep) if keep else zero_ideal(ring),
            ideal_product(a, ideal_power(maximal_ideal(ring), c)),
        )
        assert subquotient_length(a, small) == subquotient(
            ea, ideal_to_exps(small), nv
        )


def _suite_rees_consistency(names):
    rng = random.Random(7781)
    direct_true = criterion_negative = 0
    for _ in range(100):
        nv = rng.choice((2, 3))
        ring = PolyRing(names[:nv], RationalField())
        ea = random_exps(rng, nv, 4, 4)
        a = exps_to_ideal(ring, ea)
        keep = [e for e in ea if rng.random() < 0.6]
        c = rng.randrange(1, 3)
        b = ideal_sum(
            exps_to_ideal(ring, keep) if keep else zero_ideal(ring),
            ideal_product(a, ideal_power(maximal_ideal(ring), c)),
        )
        direct = reduction_test(a, b, n_max=8)
        crit = rees_criterion(a, b, range(1, 9))
        if direct.certified and direct.is_reduction:
            assert crit.verdict == "REDUCTION"
            direct_true += 1
        if crit.verdict == "NOT_REDUCTION":
            assert not direct.is_reduction
            criterion_negative += 1
    # both directions of the agreement must actually get exercised
    assert direct_true >= 20 and criterion_negative >= 20


def _suite_d_sequence_identity():
    rng = random.Random(7781)
    R2 = PolyRing(("x", "y"), RationalField())
    x, y = R2.gens()
    R3 = PolyRing(("x", "y", "z"), RationalField())
    x3, y3, z3 = R3.gens()
    R4 = PolyRing(("x", "y", "z", "w"), RationalField())
    X, Y, Z, W = R4.gens()
    candidates = [
        (x, y),
        (x + y, x - y),
        (x**2, y),
        (x3, y3, z3),
        (x3 + y3, y3 + z3, z3),
        (X * Z, Y * W, X * W + Y * Z),
    ]
    for _ in range(10):
        seq = []
        for _ in range(2):
            deg = rng.randrange(1, 3)
            e = [0, 0]
            for _ in range(deg):
                e[rng.randrange(2)] += 1
            p = R2.monomial(tuple(e), rng.choice([1, 2, -1]))
            if rng.random() < 0.4:
                p = p + R2.monomial((0, deg), 1)
            seq.append(p)
        if not any(q.is_zero for q in seq):
            candidates.append(tuple(seq))
    strict = [
        seq for seq in candidates if d_sequence_check(seq).is_d_sequence_strict
    ]
    assert len(strict) >= 5
    for seq in strict:
        ring = seq[0].ring
        J = Ideal(ring, seq)
        first = Ideal(ring, (seq[0],))
        for n in range(1, 5):
            # J^n ∩ (g) = g·(J^n : g), as (g) is principal
            lhs = ideal_product(first, colon(ideal_power(J, n), first))
            rhs = ideal_product(first, ideal_power(J, n - 1))
            assert ideal_equal(lhs, rhs)


def _suite_tower_additivity(names):
    rng = random.Random(7781)
    for _ in range(100):
        nv = rng.choice((2, 3))
        ring = PolyRing(names[:nv], RationalField())
        m = maximal_ideal(ring)
        ea = random_exps(rng, nv, 4, 4)
        top = exps_to_ideal(ring, ea)
        keep_mid = [e for e in ea if rng.random() < 0.5]
        mid = ideal_sum(
            exps_to_ideal(ring, keep_mid) if keep_mid else zero_ideal(ring),
            ideal_product(top, ideal_power(m, rng.randrange(1, 3))),
        )
        emid = ideal_to_exps(mid)
        keep_low = [e for e in emid if rng.random() < 0.5]
        low = ideal_sum(
            exps_to_ideal(ring, keep_low) if keep_low else zero_ideal(ring),
            ideal_product(mid, ideal_power(m, rng.randrange(1, 3))),
        )
        assert subquotient_length(top, low) == subquotient_length(
            top, mid
        ) + subquotient_length(mid, low)


def test_criterion_7_property_suites(emit):
    def body():
        names = ("x", "y", "z")
        _suite_buchberger_certificate(names)
        _suite_monomial_oracle(names)
        _suite_rees_consistency(names)
        _suite_d_sequence_identity()
        _suite_tower_additivity(names)

    run_criterion(7, 900, body, emit)
