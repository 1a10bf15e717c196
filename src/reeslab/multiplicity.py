"""Multiplicities of power quotients against the stabilized colon locus.

The annihilator of outer^n/inner^n stabilizes in radical; its locus
dimension t at the origin fixes which normalized coefficient of the
inner truncation function counts.  Every multiplicity, t = 0 included,
is read off the Hilbert numerators of the local leads of the two
powers, with no sampling, for every input: at t = 0 the quotient has
finite length in R_m and the value is that length.
"""

from __future__ import annotations

from fractions import Fraction

from .asymptotics import EventualPolynomial, fit_eventual_polynomial
from .errors import (
    FrozenValue,
    LengthCertificationError,
    NotStabilizedError,
    PreconditionError,
)
from .groebner import Ideal, ideal_power, ideal_product, radical_membership
from .lengths import (
    FunctionTable,
    _local_leads,
    _split_pole,
    maximal_ideal,
    subquotient_length,
)
from .reduction import (
    _as_consecutive,
    _require_containment,
    analytic_spread,
    depth_positive,
    grade_cm,
    radical_colon_stability,
    reduction_test,
    rees_criterion,
)


def module_multiplicity(outer, inner, n, t):
    """Multiplicity of outer^n/inner^n against dimension t.

    It is the normalized coefficient at degree t of the inner function
    k -> length of M/m^k·M, M = outer^n/inner^n, read off the Hilbert
    numerators of the local leads: with N_{inner^n} - N_{outer^n} =
    (1-s)^c·Q in r variables, M has dimension r - c.  Write
    big = outer^n, small = inner^n; the numerators count
    k -> length of big/(small + big ∩ m^k), and by Artin-Rees
    m^k·big ⊆ big ∩ m^k ⊆ m^(k-c0)·big for a fixed c0.  So the inner
    function and the Hilbert sums of M share their degree and leading
    coefficient: the value is Q(1) when r - c = t and 0 below
    (Bruns-Herzog, Cohen-Macaulay Rings, ch. 4).  At t = 0 the same
    split gives the finite length of M, the eventual value of the inner
    function.  A module of dimension above t is refused.
    """
    _require_containment(outer, inner)
    if t < 0:
        raise PreconditionError("dimension must be nonnegative")
    c, q = _split_pole(ideal_power(inner, n), ideal_power(outer, n))
    dim = outer.ring.nvars - c
    if dim > t:
        raise PreconditionError(
            f"module dimension {dim} exceeds the dimension bound {t}"
        )
    return Fraction(sum(q) if dim == t else 0)


class MultiplicityReport(FrozenValue):
    proxy: Ideal
    r: int
    t: int
    e_table: FunctionTable
    e_fit: EventualPolynomial
    verdicts: dict
    hypotheses: dict


def multiplicity_function(outer, inner, n_range=None, stab_n_max=3, window=3):
    """Table and fit of n -> e(outer^n/inner^n), with theorem verdicts.

    The table starts at the stable index r of the colon chain.  Every
    verdict names its hypotheses; ones that cannot be machine-checked
    here are recorded as assumed, failed hypotheses make the verdict
    not applicable.
    """
    _require_containment(outer, inner)
    stab = radical_colon_stability(outer, inner, stab_n_max)
    proxy, r = stab.proxy, stab.stable_from
    t = outer.ring.nvars - _split_pole(proxy)[0]
    ns = _as_consecutive(range(r, r + 5) if n_range is None else n_range)
    if ns[0] < r:
        raise PreconditionError(
            f"the multiplicity table starts at the stable index {r}"
        )
    values = []
    for n in ns:
        e = module_multiplicity(outer, inner, n, t)
        if e.denominator != 1 or e < 0:
            raise LengthCertificationError(
                f"multiplicity at n={n} is not a nonnegative integer: {e}"
            )
        values.append(int(e))
    table = FunctionTable(ns[0], tuple(values))
    fit = fit_eventual_polynomial(table.values, table.start, window)
    dim = outer.ring.dim
    if fit.degree > dim - t:
        raise PreconditionError(
            "multiplicity growth exceeds dim R - t; internal error"
        )
    verdicts, hypotheses = _verdicts(outer, inner, t, fit, r)
    return MultiplicityReport(proxy, r, t, table, fit, verdicts, hypotheses)


def _reduction_status(outer, inner):
    # (is_reduction, known): a direct hit is final; otherwise the degree
    # criterion decides both ways, unless the table is not certifiable
    direct = reduction_test(outer, inner)
    if direct.is_reduction:
        return True, True
    try:
        crit = rees_criterion(outer, inner)
    except (LengthCertificationError, NotStabilizedError):
        return False, False
    return crit.verdict == "REDUCTION", True


def _verdicts(outer, inner, t, efit, stable_from):
    verdicts = {}
    hypotheses = {}
    # inner lies inside outer, so equal local leads mean equal ideals of
    # R_m: a standard basis of inner is then one of outer
    if _local_leads(outer) == _local_leads(inner):
        for name in (
            "ci_degree",
            "deviation_one_degree",
            "deviation_one_reduction_iff",
            "height_separation",
        ):
            verdicts[name] = "not_applicable"
        hypotheses["pair_trivial"] = "verified"
        return verdicts, hypotheses
    ring = outer.ring
    dim = ring.dim
    spread = analytic_spread(inner)
    grade = grade_cm(inner)
    # the minimal number of generators of inner·R_m: λ(J/mJ) by Nakayama
    mu = subquotient_length(
        inner,
        ideal_product(maximal_ideal(ring), inner),
        check_containment=False,
    )
    deg = efit.degree
    red, red_known = _reduction_status(outer, inner)
    hypotheses["reduction_status_known"] = (
        "verified" if red_known else "failed"
    )

    # complete-intersection count: degree drops exactly on reduction
    if grade == mu:
        hypotheses["complete_intersection"] = "verified"
        if not red_known:
            verdicts["ci_degree"] = "inconclusive"
        else:
            expected = spread - 1 if red else spread
            verdicts["ci_degree"] = (
                "verified" if deg == expected else "failed"
            )
    else:
        hypotheses["complete_intersection"] = "failed"
        verdicts["ci_degree"] = "not_applicable"

    # deviation-one statements; the localized spread drop is not
    # machine-checked here and is carried as an assumption
    if spread == grade + 1:
        hypotheses["analytic_deviation_one"] = "verified"
        hypotheses["localized_spread_drop"] = "assumed"
        if red_known and not red:
            verdicts["deviation_one_degree"] = (
                "verified" if deg == spread - 1 else "failed"
            )
        else:
            verdicts["deviation_one_degree"] = "not_applicable"
        dp = depth_positive(inner)
        hypotheses["depth_positive"] = "verified" if dp else "failed"
        hypotheses["spread_equals_dim_minus_one"] = (
            "verified" if spread == dim - 1 else "failed"
        )
        hypotheses["colon_radical_stable_from_one"] = (
            "verified" if stable_from == 1 else "failed"
        )
        if (
            dp
            and spread == dim - 1
            and stable_from == 1
            and red_known
        ):
            ok = red == (deg <= spread - 2)
            verdicts["deviation_one_reduction_iff"] = (
                "verified" if ok else "failed"
            )
        else:
            verdicts["deviation_one_reduction_iff"] = "not_applicable"
    else:
        hypotheses["analytic_deviation_one"] = "failed"
        verdicts["deviation_one_degree"] = "not_applicable"
        verdicts["deviation_one_reduction_iff"] = "not_applicable"

    # a principal ideal has no embedded components here, so when the
    # radicals genuinely differ the growth tracks its height
    if mu == 1:
        hypotheses["principal_unmixed"] = "verified"
        separated = any(
            not radical_membership(g, inner) for g in outer.gens
        )
        hypotheses["radical_strictly_larger"] = (
            "verified" if separated else "failed"
        )
        if separated:
            verdicts["height_separation"] = (
                "verified" if deg == grade else "failed"
            )
        else:
            verdicts["height_separation"] = "not_applicable"
    else:
        hypotheses["principal_unmixed"] = "failed"
        verdicts["height_separation"] = "not_applicable"
    return verdicts, hypotheses
