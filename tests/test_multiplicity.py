"""Multiplicity tables on the punctured-support proxy and the verdicts."""

import random
from fractions import Fraction

import pytest

from oracle import (
    exps_to_ideal,
    hilbert_samples,
    normalized_leading_coefficient,
    random_exps,
    random_form,
)

from reeslab import (
    ContainmentError,
    Ideal,
    LengthCertificationError,
    NotStabilizedError,
    PolyRing,
    PreconditionError,
    PrimeField,
    RationalField,
    fit_eventual_polynomial,
    ideal_equal,
    ideal_power,
    ideal_product,
    maximal_ideal,
    module_multiplicity,
    multiplicity_function,
    radical_colon_stability,
    rees_function,
    subquotient_length,
)
from reeslab import multiplicity

R = PolyRing(("x", "y"), RationalField())
x, y = R.gens()
SQUARE = Ideal(R, (x**2, x * y, y**2))
DIAG = Ideal(R, (x**2, y**2))


def test_stabilized_colon():
    # multiplicity_function reads the proxy and r off the colon chain
    rep = multiplicity_function(SQUARE, DIAG)
    stab = radical_colon_stability(SQUARE, DIAG)
    assert rep.r == stab.stable_from == 1
    assert ideal_equal(rep.proxy, stab.proxy)
    assert ideal_equal(rep.proxy, maximal_ideal(R))


def test_point_support_matches_length():
    # at t = 0 the multiplicity is the plain length of the quotient
    table = rees_function(SQUARE, DIAG, range(1, 5))
    for n, lam in zip(table.args(), table.values):
        e = module_multiplicity(SQUARE, DIAG, n, 0)
        assert isinstance(e, Fraction)
        assert e == lam


def test_square_pair_report():
    # (x^2, y^2) also written with a redundant generator, and with unit
    # factors: the complete-intersection count reads the minimal number
    # of generators of J·R_m, not the presentation
    m = maximal_ideal(R)
    for inner in (
        DIAG,
        Ideal(R, (x**2, y**2, x**2 + y**2)),
        Ideal(R, (x**2 - x**3, y**2, y**2 + x * y**2)),
    ):
        assert subquotient_length(inner, ideal_product(m, inner)) == 2
        rep = multiplicity_function(SQUARE, inner)
        assert rep.r == 1
        assert rep.t == 0
        assert rep.e_table.values == (1, 2, 3, 4, 5)
        assert rep.e_fit.degree == 1
        assert rep.verdicts["ci_degree"] == "verified"
        assert rep.hypotheses["complete_intersection"] == "verified"
        assert rep.hypotheses["reduction_status_known"] == "verified"


def test_curve_support_multiplicity():
    # principal inner whose radical misses a generator of the outer
    # ideal: the support is a curve, t = 1, and the degree equals the
    # grade
    rep = multiplicity_function(Ideal(R, (x, y)), Ideal(R, (x,)))
    assert rep.t == 1
    assert rep.e_table.values == (1, 2, 3, 4, 5)
    assert rep.e_fit.degree == 1
    assert rep.verdicts["height_separation"] == "verified"
    assert rep.hypotheses["radical_strictly_larger"] == "verified"
    # the plain length is infinite here, so neither reduction probe
    # can settle the pair and the count verdict stays open
    assert rep.verdicts["ci_degree"] == "inconclusive"
    assert rep.hypotheses["reduction_status_known"] == "failed"


def test_trivial_pair():
    rep = multiplicity_function(SQUARE, SQUARE)
    assert rep.t == 0
    assert rep.e_table.values == (0, 0, 0, 0, 0)
    assert rep.e_fit.is_zero
    assert all(v == "not_applicable" for v in rep.verdicts.values())
    assert rep.hypotheses == {"pair_trivial": "verified"}


def test_range_validation():
    with pytest.raises(PreconditionError):
        multiplicity_function(SQUARE, DIAG, n_range=range(0, 5))
    with pytest.raises(PreconditionError):
        multiplicity_function(SQUARE, DIAG, n_range=(1, 3, 5, 7, 9))
    for empty in ([], range(3, 3)):
        with pytest.raises(PreconditionError, match="empty"):
            multiplicity_function(SQUARE, DIAG, n_range=empty)


def test_containment_required():
    with pytest.raises(ContainmentError):
        multiplicity_function(Ideal(R, (x,)), Ideal(R, (y,)))


def _outcome(compute):
    # the value, or the class of the refusal
    try:
        return compute()
    except (
        LengthCertificationError,
        NotStabilizedError,
        PreconditionError,
    ) as exc:
        return type(exc)


def _sampled_fit(big, small, nvars):
    # the reference sampler over k = 1..nvars+8; the fit serves every
    # t <= nvars
    return fit_eventual_polynomial(
        hilbert_samples(big, small, range(1, nvars + 9)), 1
    )


def test_graded_multiplicity_matches_sampler():
    # the numerator value against the sampled fit, on graded pairs with
    # monomial and with non-monomial generators, over Q and GF(32003)
    rng = random.Random(2027)
    rings = [
        PolyRing(("x", "y", "z")[:n], field)
        for n in (2, 3)
        for field in (RationalField(), PrimeField(32003))
    ]
    cases = nonzero = refused = 0
    for _ in range(24):
        ring = rng.choice(rings)
        nvars = ring.nvars
        if rng.random() < 0.5:
            outer = exps_to_ideal(ring, random_exps(rng, nvars, 3, 2))
        else:
            forms = [
                random_form(rng, ring, rng.randint(1, 2))
                for _ in range(rng.randint(1, 3))
            ]
            forms = [f for f in forms if not f.is_zero]
            outer = Ideal(ring, forms or ring.gens()[:1])
        gens = [g for g in outer.gens if rng.random() < 0.4]
        for g in outer.gens:
            for _ in range(rng.randint(0, 2)):
                gens.append(g * random_form(rng, ring, 1))
        gens = [g for g in gens if not g.is_zero]
        inner = Ideal(ring, gens or [outer.gens[0] * ring.gens()[0]])
        for n in (1, 2):
            big, small = ideal_power(outer, n), ideal_power(inner, n)
            fit = _outcome(lambda: _sampled_fit(big, small, nvars))
            assert not isinstance(fit, type)
            for t in range(nvars + 1):
                got = _outcome(lambda: module_multiplicity(outer, inner, n, t))
                want = _outcome(lambda: normalized_leading_coefficient(fit, t))
                assert got == want, (outer.gens, inner.gens, n, t)
                cases += 1
                if isinstance(got, type):
                    assert got is PreconditionError
                    refused += 1
                elif got:
                    nonzero += 1
    assert cases >= 100 and nonzero >= 20 and refused >= 10


def test_module_multiplicity_never_fits(monkeypatch):
    # every pair, graded or not, reads the numerators of its two powers:
    # no table of samples is fitted
    calls = []
    fit = multiplicity.fit_eventual_polynomial

    def recording(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(multiplicity, "fit_eventual_polynomial", recording)
    assert module_multiplicity(SQUARE, Ideal(R, (x**3,)), 2, 1) == 6
    m = Ideal(R, (x, y))
    assert module_multiplicity(m, Ideal(R, (y - x**2,)), 3, 1) == 3
    assert module_multiplicity(m, Ideal(R, (x * (1 + y), y**2)), 1, 0) == 1
    assert calls == []
    # the stand-in does see the fit of the table of multiplicities
    rep = multiplicity_function(m, Ideal(R, (x,)))
    assert rep.t == 1 and rep.e_table.values == (1, 2, 3, 4, 5)
    assert len(calls) >= 1


def test_non_graded_multiplicity_pins():
    # m^n/(f^n) for a smooth curve f through the origin: the module is
    # supported on the curve, where f^n has length n, so e = n at t = 1
    m = Ideal(R, (x, y))
    parabola = Ideal(R, (y - x**2,))
    assert module_multiplicity(m, parabola, 1, 1) == 1
    assert module_multiplicity(m, parabola, 2, 1) == 2
    assert module_multiplicity(m, Ideal(R, (x - y**3,)), 1, 1) == 1


def test_mult_reuses_the_colon_chain_of_radcolon(monkeypatch):
    # the stab session's mult task reads the chain J^n : I^n that its
    # radcolon task built on the same bindings; the colons are memoized
    # on their dividends, so mult repeats none of the Buchberger runs
    # that radcolon's colons made
    from reeslab import groebner, parse_session, run_session, runner
    from reeslab.corpus import CORPUS

    calls = {}
    current = []
    inside = []
    run = groebner.buchberger
    take_colon = groebner._colon
    run_task = runner.run_task

    def recording_run(gens, *args, **kwargs):
        if inside:
            # a packed run is keyed by its integer forms
            forms = tuple(getattr(gens, "forms", gens))
            key = (forms, repr(args), repr(kwargs))
            calls.setdefault(current[-1], []).append(key)
        return run(gens, *args, **kwargs)

    def marking_colon(a, b):
        inside.append(b)
        try:
            return take_colon(a, b)
        finally:
            inside.pop()

    def marking_run_task(session, task):
        current.append(task.kind)
        return run_task(session, task)

    monkeypatch.setattr(groebner, "buchberger", recording_run)
    monkeypatch.setattr(groebner, "_colon", marking_colon)
    monkeypatch.setattr(runner, "run_task", marking_run_task)
    report = run_session(parse_session(CORPUS["stab"]))
    assert [t["kind"] for t in report["tasks"]] == ["radcolon", "mult"]
    assert report["ok"]
    # the syzygy runs of radcolon's colons are among those recorded
    assert any("_module" in kwargs for _, _, kwargs in calls["radcolon"])
    assert not set(calls.get("mult", ())) & set(calls["radcolon"])
