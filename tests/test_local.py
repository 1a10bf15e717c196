"""Lengths, dimensions and multiplicities in the localization at the
origin, for non-homogeneous input.

The references are `oracle.nakayama_colength`, which truncates by
powers of m until Nakayama certifies the colength of a·R_m, and values
derived by hand.
"""

import random
from math import comb

import pytest

from oracle import nakayama_colength, random_form

from reeslab import (
    Ideal,
    LengthCertificationError,
    PolyRing,
    PreconditionError,
    PrimeField,
    RationalField,
    colength,
    depth_positive,
    grade_cm,
    ideal_power,
    ideal_product,
    ideal_sum,
    local_dimension,
    maximal_ideal,
    module_multiplicity,
    parse_session,
    radical_contains_variables,
    rees_criterion,
    run_session,
    subquotient_length,
)
from reeslab import lengths

R = PolyRing(("x", "y"), RationalField())
x, y = R.gens()
M = Ideal(R, (x, y))


def _rings():
    return [
        PolyRing(("x", "y", "z")[:n], field)
        for n in (2, 3)
        for field in (RationalField(), PrimeField(32003))
    ]


def _local_poly(rng, ring):
    # a random polynomial through the origin with terms of degree 1-3;
    # now and then times (1 + a linear form), a unit of R_m, or times
    # x_i - c, a unit of R_m that vanishes away from the origin
    f = ring.zero
    while f.is_zero:
        for _ in range(rng.randint(1, 3)):
            f = f + random_form(rng, ring, rng.randint(1, 3))
    r = rng.random()
    if r < 0.3:
        f = f * (ring.one + random_form(rng, ring, 1))
    elif r < 0.5:
        f = f * (ring.gens()[rng.randrange(ring.nvars)] - rng.choice((1, 2, -1)))
    return f


def _local_ideals(rng, count):
    # seeded non-homogeneous ideals, some of them holding a local unit
    rings = _rings()
    out = []
    while len(out) < count:
        ring = rng.choice(rings)
        gens = [_local_poly(rng, ring) for _ in range(rng.randint(1, ring.nvars))]
        if rng.random() < 0.1:
            gens.append(ring.one + _local_poly(rng, ring))
        a = Ideal(ring, gens)
        if not a.is_homogeneous():
            out.append(a)
    return out


def _generic_linear(rng, ring, count):
    return [
        sum(
            (g * rng.randint(1, 9) for g in ring.gens()[1:]),
            ring.gens()[0] * rng.randint(1, 9),
        )
        for _ in range(count)
    ]


def test_lazard_leads_are_the_graded_leads():
    # on homogeneous ideals the homogenized generators are the
    # generators, and the Lazard order on h^0 is grevlex
    rng = random.Random(1101)
    rings = _rings()
    done = 0
    while done < 100:
        ring = rng.choice(rings)
        forms = [
            random_form(rng, ring, rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        ]
        a = Ideal(ring, [f for f in forms if not f.is_zero])
        if a.is_zero:
            continue
        assert lengths._lazard_leads(a) == a.groebner().lead_exps, a
        done += 1


def test_hand_derived_local_values():
    # x^2 - x = x·(x - 1), and x - 1 is a unit at the origin
    assert colength(Ideal(R, (x**2 - x, y))) == 1
    assert colength(Ideal(R, (x * (1 + x), y**2))) == 2
    assert subquotient_length(M, Ideal(R, (x * (1 + x), y))) == 0
    assert local_dimension(Ideal(R, (x**2 - x, y))) == 0
    assert radical_contains_variables(Ideal(R, (x**2 - x, y)))
    # a smooth curve through the origin: dimension 1, multiplicity 1
    parabola = Ideal(R, (y - x**2,))
    assert lengths._local_leads(parabola) == ((0, 1),)
    assert local_dimension(parabola) == 1
    assert module_multiplicity(M, parabola, 1, 1) == 1
    assert not radical_contains_variables(parabola)
    with pytest.raises(LengthCertificationError):
        colength(parabola)
    # a space curve, and a curve with a second branch away from the origin
    S = PolyRing(("x", "y", "z"), RationalField())
    u, v, w = S.gens()
    assert local_dimension(Ideal(S, (v - u**2, w - u**3))) == 1
    assert local_dimension(Ideal(S, (v * (v - 1), w - u**3))) == 1
    assert local_dimension(Ideal(S, (v * (v - 1) - u**2,))) == 2


def test_local_unit():
    # x - 1 is a unit of R_m: the ideal is all of R_m
    a = Ideal(R, (x - 1, y**3))
    assert lengths._local_leads(a) == ((0, 0),)
    assert lengths._is_local_unit(a)
    assert not a.is_unit()
    assert colength(a) == 0
    # (x·(x - 1), y^3) is (x, y^3) at the origin
    assert subquotient_length(a, Ideal(R, (x * (x - 1), y**3))) == 3
    assert radical_contains_variables(a)
    with pytest.raises(PreconditionError, match="empty locus"):
        local_dimension(a)
    with pytest.raises(PreconditionError, match="R_m"):
        grade_cm(a)


def test_colength_and_dimension_match_nakayama():
    rng = random.Random(1102)
    finite = infinite = units = 0
    for a in _local_ideals(rng, 60):
        try:
            got = colength(a)
        except LengthCertificationError:
            got = None
        if got is None:
            # not Artinian: no truncation stabilizes, and the dimension
            # is positive
            assert nakayama_colength(a, cap=8) is None, a
            assert local_dimension(a) > 0
            infinite += 1
            continue
        # m^got lies in a·R_m, so the truncation settles by N = got
        assert nakayama_colength(a, cap=got + 2) == got, a
        if got == 0:
            assert lengths._is_local_unit(a)
            units += 1
        else:
            assert local_dimension(a) == 0
            finite += 1
    assert finite >= 15 and infinite >= 10 and units >= 3


def test_dimension_is_the_number_of_cutting_forms():
    # d = local_dimension(a) generic linear forms make a·R_m Artinian,
    # and d - 1 of them do not
    rng = random.Random(1103)
    seen = set()
    for a in _local_ideals(rng, 40):
        if lengths._is_local_unit(a):
            continue
        d = local_dimension(a)
        seen.add(d)
        forms = _generic_linear(rng, a.ring, d)
        cut = Ideal(a.ring, a.gens + tuple(forms))
        assert nakayama_colength(cut) == colength(cut), a
        if d:
            less = Ideal(a.ring, a.gens + tuple(forms[1:]))
            assert nakayama_colength(less, cap=8) is None, a
    assert seen >= {0, 1, 2}


def test_subquotient_matches_nakayama():
    # b = u·m^c·a + (a's generators but the first), u a unit of R_m:
    # when a·R_m is Artinian, so is b·R_m, and λ(a/b) is the difference
    # of their colengths.  Inside any (f), u·f·m^c leaves R/m^c.
    rng = random.Random(1104)
    checked = 0
    for a in _local_ideals(rng, 60):
        ring = a.ring
        c = rng.randint(1, 2)
        unit = ring.one + random_form(rng, ring, 1)
        f = a.gens[0]
        principal = Ideal(ring, (f,))
        mc = ideal_power(maximal_ideal(ring), c)
        shifted = Ideal(ring, [f * unit * g for g in mc.gens])
        assert subquotient_length(principal, shifted) == comb(
            ring.nvars + c - 1, ring.nvars
        )
        try:
            top = colength(a)
        except LengthCertificationError:
            continue
        b = ideal_product(a, mc)
        b = Ideal(ring, [g * unit for g in b.gens] + list(a.gens[1:]))
        got = subquotient_length(a, b)
        # m^k lies in b·R_m for k = λ(R_m/b) = got + top
        want = nakayama_colength(b, cap=got + top + 2)
        assert want is not None and got == want - nakayama_colength(a), a
        checked += 1
    assert checked >= 15


LOCAL_SESSION = """\
ring q[x,y]
ideal M = x, y
ideal A = x^2 - x, y
ideal B = x*(1+x), y^2
ideal C = x*(1+x), y
task length A
task length B
task length M C
task rees M C
task radcolon M A
task mult M A
"""


def test_local_values_through_the_runner():
    report = run_session(parse_session(LOCAL_SESSION))
    assert report["ok"], report
    tasks = report["tasks"]
    assert [t["length"] for t in tasks[:3]] == [1, 2, 0]
    assert tasks[3]["table"]["values"] == [0] * 8
    assert tasks[3]["degree"] == "ZERO"
    radcolon = tasks[4]
    assert radcolon["proxy_generators"] == ["y", "x - 1"]
    assert radcolon["radical_is_maximal"] is True
    mult = tasks[5]
    assert mult["t"] == 0
    assert mult["e_table"]["values"] == [0] * 5
    assert mult["hypotheses"] == {"pair_trivial": "verified"}
    C = Ideal(R, (x * (1 + x), y))
    assert rees_criterion(M, C).verdict == "REDUCTION"


CONTAINMENT_SESSION = """\
ring q[x,y]
ideal A = x^2 - x, y
ideal M2 = x^2, x*y, y^2
ideal M = x, y
ideal C = x + x^2, y
poly F = x*(x - 1)^2
poly G = y*(x - 1)
task length A M2
task mult A M2
task reduction M C
task dseq F G
"""


def test_local_containment_through_the_runner():
    # A·R_m = m holds M2 = m^2, though A does not; C·R_m = m too; and
    # (F, G) is (x, y) up to units of R_m
    tasks = run_session(parse_session(CONTAINMENT_SESSION))["tasks"]
    assert tasks[0]["length"] == 2
    mult = tasks[1]
    assert mult["status"] == "ok"
    # λ(m^n/m^2n) = C(2n+1, 2) - C(n+1, 2)
    assert mult["e_table"]["values"] == [2, 7, 15, 26, 40]
    reduction = tasks[2]
    assert reduction["is_reduction"] is True
    assert reduction["reduction_number"] == 0
    assert reduction["certified"] is True
    dseq = tasks[3]
    assert dseq["weak"] is True and dseq["strict"] is True


def test_local_units_are_refused():
    # x - 1 is a unit of R_m, so (x - 1, y^3) has no fiber and no depth
    session = "ring q[x,y]\nideal U = x - 1, y^3\ntask spread U\n"
    (spread,) = run_session(parse_session(session))["tasks"]
    assert spread["status"] == "error"
    assert spread["error"] == {
        "type": "PreconditionError",
        "message": "the unit ideal has no blowup fiber",
    }
    with pytest.raises(PreconditionError, match="proper nonzero"):
        depth_positive(Ideal(R, (x - 1, y**3)))


def test_local_containment_matches_nakayama():
    # b·R_m lies in a·R_m exactly when a + b has the colength of a
    rng = random.Random(1105)
    seen = []
    for a in _local_ideals(rng, 60):
        try:
            top = colength(a)
        except LengthCertificationError:
            continue
        ring = a.ring
        f = _local_poly(rng, ring)
        if rng.random() < 0.5:
            # m^top lies in a·R_m, so this multiple of f does too
            f = f * ring.gens()[rng.randrange(ring.nvars)] ** top
        b = Ideal(ring, (f,))
        want = nakayama_colength(
            ideal_sum(a, b), cap=top + 2
        ) == nakayama_colength(a, cap=top + 2)
        assert lengths._inside_locally(a, b) == want, (a, b)
        seen.append((want, a.contains_ideal(b)))
    # inside in R_m only, inside in R too, and outside
    assert {(True, False), (True, True), (False, False)} <= set(seen), seen
