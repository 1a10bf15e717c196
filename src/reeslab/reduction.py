"""Reduction tests, the asymptotic degree criterion, analytic spread,
grade, d-sequences, depth and colon-radical stability for ideal pairs.

The ambient ring is a polynomial ring read in its localization R_m at
the origin, so grade and height agree.  The dimension of R_m/a, and
with it grade and whether a radical reaches m, is n minus the power of
1 - t that divides the Hilbert numerator of the local leads of a
(lengths._split_pole), for every input.  Analytic spread reads the
same split on the fiber, which is the same for R and R_m.
Containments, the steps of the reduction search, and the colon
comparisons of the d-sequence and depth tests are decided in R_m
(lengths._inside_locally); colons commute with localization.  A graded
step reads the basis of inner·outer^n only through the top degree of
outer^(n+1).  The colon chain of radical_colon_stability is taken in
R, and its radicals are compared in R_m.  Verdicts distinguish a
witnessed fact from an exhausted search: reduction_test reports a
search that merely ran out of exponents as uncertified, and
multiplicity._reduction_status then consults the degree criterion.
"""

from __future__ import annotations

from .asymptotics import (
    EventualPolynomial,
    fit_eventual_polynomial,
)
from .errors import (
    ContainmentError,
    FrozenValue,
    LengthCertificationError,
    NotStabilizedError,
    PreconditionError,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    _fresh_name,
    _lift,
    _pack,
    buchberger,
    colon,
    eliminate,
    ideal_power,
    ideal_product,
    radical_membership,
)
from .lengths import (
    FunctionTable,
    _inside_locally,
    _is_local_unit,
    _split_pole,
    maximal_ideal,
    subquotient_length,
)
from .ring import DEFAULT_ORDER, PolyRing, Polynomial, total_degree


def _as_consecutive(n_range):
    ns = list(n_range)
    if not ns:
        raise PreconditionError("empty sample range")
    if ns != list(range(ns[0], ns[0] + len(ns))):
        raise PreconditionError("sample range must be consecutive ascending")
    return ns


def _require_containment(outer, inner):
    if not _inside_locally(outer, inner):
        raise ContainmentError(
            "the candidate ideal is not inside the ideal it should reduce"
        )


def rees_function(outer, inner, n_range=range(1, 9)):
    """n -> length of outer^n/inner^n; the failing n is named on error."""
    _require_containment(outer, inner)
    ns = _as_consecutive(n_range)
    values = []
    for n in ns:
        try:
            values.append(
                subquotient_length(
                    ideal_power(outer, n),
                    ideal_power(inner, n),
                    check_containment=False,
                )
            )
        except LengthCertificationError as exc:
            raise LengthCertificationError(
                f"length of the power quotient at n={n}: {exc}"
            ) from exc
    return FunctionTable(ns[0], tuple(values))


class ReductionVerdict(FrozenValue):
    is_reduction: bool
    reduction_number: object  # int when found, else None
    method: str               # "direct" or "rees-criterion"
    n_max_searched: int
    certified: bool


def reduction_test(outer, inner, n_max=10):
    """Search for the least n with inner·outer^n = outer^(n+1).

    A hit is a proof; exhausting n_max alone is not, and is reported
    with certified=False.  The zero ideal reduces no nonzero ideal:
    R_m is a domain, so 0·outer^n = 0 never reaches outer^(n+1).
    """
    _require_containment(outer, inner)
    if n_max < 0:
        raise PreconditionError("n_max must be nonnegative")
    if inner.is_zero and not outer.is_zero:
        return ReductionVerdict(False, None, "direct", n_max, True)
    for n in range(n_max + 1):
        step = ideal_product(inner, ideal_power(outer, n))
        target = ideal_power(outer, n + 1)
        # one containment suffices: inner·outer^n sits inside outer^(n+1)
        if _step_reaches(step, target):
            return ReductionVerdict(True, n, "direct", n_max, True)
    return ReductionVerdict(False, None, "direct", n_max, False)


def _step_reaches(step, target):
    # does target·R_m lie inside step·R_m?  A graded pair is compared in
    # R, by division by the minimal basis of step through the top degree
    # of target, packed wide enough for target: membership needs no tail
    # reduced
    if not (step.is_homogeneous() and target.is_homogeneous()):
        return _inside_locally(step, target)
    top = max(map(total_degree, target.gens), default=0)
    gens = _pack(step.ring, DEFAULT_ORDER, step.gens, top)
    run = buchberger(gens, DEFAULT_ORDER, _degree=top)
    basis = GroebnerBasis(step.ring, DEFAULT_ORDER, run)
    return all(basis.contains(g) for g in target.gens)


class CriterionReport(FrozenValue):
    verdict: str              # "REDUCTION" or "NOT_REDUCTION"
    table: FunctionTable
    fit: EventualPolynomial
    dim: int


def rees_criterion(outer, inner, n_range=range(1, 9), window=3):
    """Degree of the power-quotient length against the ring dimension.

    A fitted degree strictly below dim R certifies reduction; degree
    equal to dim R certifies the opposite.  The zero fit's degree,
    NEG_INF, lies below every integer.
    """
    table = rees_function(outer, inner, n_range)
    try:
        fit = fit_eventual_polynomial(table.values, table.start, window)
    except NotStabilizedError as exc:
        raise NotStabilizedError(f"{exc}; extend n_range") from exc
    d = outer.ring.dim
    if fit.degree > d:
        raise PreconditionError(
            "power-quotient growth exceeds the ring dimension"
        )
    verdict = "REDUCTION" if fit.degree <= d - 1 else "NOT_REDUCTION"
    return CriterionReport(verdict, table, fit, d)


def local_dimension(a):
    """Dimension of the vanishing locus at the origin.

    It is n minus the power of 1 - t that divides the Hilbert numerator
    of the local leads of a.
    """
    if _is_local_unit(a):
        raise PreconditionError("the unit ideal of R_m has an empty locus")
    return a.ring.nvars - _split_pole(a)[0]


def grade_cm(a):
    """Longest regular sequence inside the ideal: codimension here."""
    if a.is_zero or _is_local_unit(a):
        raise PreconditionError("grade needs a proper nonzero ideal of R_m")
    return a.ring.dim - local_dimension(a)


def analytic_spread(inner):
    """Dimension of the special fiber of the blowup along the ideal.

    Eliminating the parameter from (u_i - s·g_i) presents the Rees
    algebra as k[x, u]/C; the fiber is its quotient by (x), presented in
    the u-coordinates by C with x set to 0, since k[x, u]/(x) is k[u].
    """
    if inner.is_zero:
        raise PreconditionError("the zero ideal has no blowup fiber")
    if _is_local_unit(inner):
        raise PreconditionError("the unit ideal has no blowup fiber")
    ring = inner.ring
    gens = inner.gens
    names = list(ring.variables)
    for i in range(1, len(gens) + 1):
        names.append(_fresh_name(names, f"u{i}"))
    sname = _fresh_name(names, "s")
    ext = PolyRing(tuple(names) + (sname,), ring.field)
    n = ring.nvars
    s = ext.var(sname)
    rels = [
        ext.var(names[n + j]) - s * _lift(g, ext)
        for j, g in enumerate(gens)
    ]
    cone = eliminate(Ideal(ext, rels), [sname])
    fiber_ring = PolyRing(tuple(names[n:]), ring.field)
    at_zero = [
        {e[n:]: c for e, c in g.terms.items() if not any(e[:n])}
        for g in cone.gens
    ]
    fiber = Ideal(fiber_ring, [Polynomial(fiber_ring, t) for t in at_zero])
    if fiber.groebner().is_unit:
        raise PreconditionError("blowup fiber collapsed; internal error")
    return fiber.ring.nvars - _split_pole(fiber)[0]


class DSequenceReport(FrozenValue):
    is_d_sequence_weak: bool
    is_d_sequence_strict: bool
    failing_witness: object  # str description or None


def d_sequence_check(seq):
    """Colon conditions for a d-sequence, in the given element order.

    Weak: prefix colons absorb products, ((g_1..g_i) : g_{i+1}·g_k) =
    ((g_1..g_i) : g_k) for 0 <= i < k <= n.  Strict: additionally no
    element lies in the ideal of the others.
    """
    polys = list(seq)
    if not polys:
        raise PreconditionError("empty sequence")
    if any(p.is_zero for p in polys):
        raise PreconditionError("zero entries are not allowed")
    ring = polys[0].ring
    n = len(polys)
    for i in range(n):
        prefix = Ideal(ring, polys[:i])
        nxt = polys[i]
        for k in range(i + 1, n + 1):
            gk = polys[k - 1]
            lhs = colon(prefix, Ideal(ring, (nxt * gk,)))
            rhs = colon(prefix, Ideal(ring, (gk,)))
            # rhs lies in lhs, so only the other inclusion can fail
            if not _inside_locally(rhs, lhs):
                witness = (
                    f"prefix of length {i} fails to absorb the product "
                    f"of entries {i + 1} and {k}"
                )
                return DSequenceReport(False, False, witness)
    for i in range(n):
        others = Ideal(ring, polys[:i] + polys[i + 1 :])
        if _inside_locally(others, Ideal(ring, (polys[i],))):
            witness = f"entry {i + 1} lies in the ideal of the others"
            return DSequenceReport(True, False, witness)
    return DSequenceReport(True, True, None)


def depth_positive(inner):
    """Does some linear-so-to-speak parameter survive: is the maximal
    ideal non-associated, i.e. (ideal : m) = ideal?"""
    if inner.is_zero or _is_local_unit(inner):
        raise PreconditionError("depth test needs a proper nonzero ideal")
    # inner lies in inner : m, so only the other inclusion can fail
    return _inside_locally(inner, colon(inner, maximal_ideal(inner.ring)))


class RadicalColonReport(FrozenValue):
    stable_from: int
    proxy: Ideal
    chain: tuple


def _radical_equal(a, b):
    return all(radical_membership(g, b) for g in a.gens) and all(
        radical_membership(g, a) for g in b.gens
    )


def radical_colon_stability(outer, inner, n_max=3):
    """Colons C_n = inner^n : outer^n and the index where their radicals
    settle.

    Returns the first index from which adjacent radicals agree all the
    way through n_max, together with the colon at that index.  The
    colon of powers is taken as n successive colons by the outer ideal.
    """
    if outer.is_zero:
        raise PreconditionError(
            "the colon chain divides by the outer ideal, which is zero"
        )
    _require_containment(outer, inner)
    if n_max < 2:
        raise PreconditionError("need n_max >= 2 to compare the chain")
    chain = []
    for n in range(1, n_max + 1):
        c = ideal_power(inner, n)
        for _ in range(n):
            c = colon(c, outer)
        chain.append(c)
    equal = [
        _radical_equal(chain[m], chain[m + 1]) for m in range(len(chain) - 1)
    ]
    if not equal[-1]:
        raise NotStabilizedError(
            "colon radical chain still moving at the end of the range; "
            "raise n_max"
        )
    s = n_max - 1
    while s > 1 and equal[s - 2]:
        s -= 1
    return RadicalColonReport(s, chain[s - 1], tuple(chain))


def radical_contains_variables(a):
    """Does the radical of a·R_m reach the maximal ideal (empty punctured
    locus)?  Exactly when R_m/a has dimension 0, that is finite colength;
    a local unit has numerator 0, which splits off every power."""
    return _split_pole(a)[0] == a.ring.nvars
