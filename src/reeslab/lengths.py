"""Lengths of finite quotients and subquotients from Hilbert series.

Everything rests on the numerator N_a(t) of the Hilbert series
N_a(t)/(1-t)^n of R/in(a), computed from the lead exponents, and on
one split of the largest power of 1 - t off a numerator or off a
difference of two.  R/in(a) has the colength and the dimension of R/a;
for graded ideals b inside a, the subquotient a/b has Hilbert series
(N_b - N_a)/(1-t)^n.  When (1-t)^c splits off the numerator, the
quotient has dimension n - c, finite length exactly when c = n, and
then its length is the cofactor at t = 1.  colength and the graded
subquotient lengths read this split; so do reduction.local_dimension
and reduction.analytic_spread for dimensions, and
multiplicity.module_multiplicity for graded multiplicities.  Other
subquotients are truncated by a power of the maximal ideal whose
sufficiency is checked explicitly, within the budget's truncation cap.
All values are exact integers; anything not certifiably finite raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, zip_longest

from .errors import (
    ContainmentError,
    LengthCertificationError,
    RingMismatchError,
)
from .groebner import (
    _ACTIVE_BUDGET,
    Ideal,
    ideal_sum,
    _numerator,
    interreduce,
    intersection,
    unit_ideal,
)
from .ring import Polynomial, total_degree


@dataclass(frozen=True)
class FunctionTable:
    """Samples at the consecutive arguments start, start+1, ..."""

    start: int
    values: tuple

    def __len__(self):
        return len(self.values)

    def args(self):
        return range(self.start, self.start + len(self.values))


def maximal_ideal(ring):
    """The ideal of all the variables."""
    return Ideal(ring, ring.gens())


@lru_cache(maxsize=None)
def _degree_exponents(nvars, k):
    # exponent tuples of total degree exactly k, in lex order
    out = []

    def rec(prefix, left, pos):
        if pos == nvars - 1:
            out.append(prefix + (left,))
            return
        for e in range(left + 1):
            rec(prefix + (e,), left - e, pos + 1)

    rec((), k, 0)
    return tuple(out)


def m_power(ring, k):
    """The k-th power of the maximal ideal: all degree-k monomials."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    if k == 0:
        return unit_ideal(ring)
    one = ring.field.one
    return Ideal(
        ring,
        [Polynomial(ring, {e: one}) for e in _degree_exponents(ring.nvars, k)],
    )


def _split_pole(b, a=None):
    """(c, q) with N_b - N_a = (1-t)^c·q and c <= n as large as possible.

    N_b and N_a are the Hilbert numerators of R/b and R/a; without a,
    N_b alone.  A quotient with Hilbert series (N_b - N_a)/(1-t)^n, such
    as R/b, or a/b for graded b inside a, has dimension n - c, finite
    length exactly when c = n, and then length q(1); otherwise q(1) is
    its multiplicity (Bruns-Herzog, Cohen-Macaulay Rings, ch. 4).  The
    zero series splits off every power.
    """
    # the leads of a reduced basis are its minimal generators already
    nvars = b.ring.nvars
    series = _numerator(b.groebner().lead_exps)
    if a is not None:
        series = [
            nb - na
            for nb, na in zip_longest(
                series, _numerator(a.groebner().lead_exps), fillvalue=0
            )
        ]
    if not any(series):
        return nvars, []
    c = 0
    while c < nvars:
        # dividing by 1 - t takes prefix sums; exact when the last is 0
        q = list(accumulate(series))
        if q.pop():
            break
        series = q
        c += 1
    return c, series


def colength(a):
    """The length of R/a when finite; the count of standard monomials."""
    nvars = a.ring.nvars
    c, q = _split_pole(a)
    if c < nvars:
        raise LengthCertificationError(
            f"colength is infinite: the quotient has dimension {nvars - c}"
        )
    return sum(q)


def subquotient_length(a, b, check_containment=True):
    """The length of a/b for ideals b inside a, certified exactly."""
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring!r} vs {b.ring!r}")
    if check_containment:
        # the length reads the full basis of a: built first, it serves
        # the containment check too
        a.groebner()
        if not a.contains_ideal(b):
            raise ContainmentError("the second ideal is not inside the first")
    if a.is_zero:
        return 0
    if b.is_zero:
        raise LengthCertificationError(
            "a nonzero ideal has infinite length over the zero ideal"
        )
    if a.is_homogeneous() and b.is_homogeneous():
        return _graded_subquotient(a, b)
    return _general_subquotient(a, b)


def _graded_subquotient(a, b):
    # the Hilbert series of a/b is (N_b - N_a)/(1-t)^n; the length is
    # finite exactly when that is a polynomial, and is then its value
    # at t = 1
    nvars = a.ring.nvars
    c, q = _split_pole(b, a)
    if c < nvars:
        raise LengthCertificationError(
            "infinite length: the Hilbert series of the subquotient "
            "has a pole at t = 1"
        )
    if any(x < 0 for x in q):
        raise LengthCertificationError(
            "the Hilbert series of the subquotient has a negative "
            "coefficient; the second ideal is not inside the first"
        )
    return sum(q)


def _general_subquotient(a, b):
    ring = a.ring
    cap = _ACTIVE_BUDGET.get().truncation_cap
    # start past every generator degree; grow until the truncation
    # certificate (a ∩ m^N inside b) holds, then difference colengths
    degs = [int(total_degree(g)) for g in a.gens + b.gens]
    n = min(cap, 1 + max(degs, default=1))
    while n <= cap:
        mn = m_power(ring, n)
        meet = intersection(a, mn)
        if all(b.contains(g) for g in meet.gens):
            qa = colength(ideal_sum(a, mn))
            qb = colength(ideal_sum(b, mn))
            value = qb - qa
            # the certified value must not move with the truncation
            mn1 = m_power(ring, n + 1)
            meet1 = intersection(a, mn1)
            if not all(b.contains(g) for g in meet1.gens):
                raise LengthCertificationError(
                    "truncation certificate unstable at the next power"
                )
            if value != colength(ideal_sum(b, mn1)) - colength(
                ideal_sum(a, mn1)
            ):
                raise LengthCertificationError(
                    "truncated lengths disagree across powers"
                )
            if value < 0:
                raise LengthCertificationError(
                    "truncated lengths violate the containment"
                )
            return value
        n += 2
    raise LengthCertificationError(
        "length not certified finite within the truncation cap; "
        "raise REESLAB_BUDGET truncation=N"
    )


def _monomial_shift(g, e):
    return Polynomial(
        g.ring, {tuple(a + b for a, b in zip(te, e)): c for te, c in g.terms.items()}
    )


def truncated_module_sum(b, k, a):
    """b + m^k·a with a short generator list.

    The product generators are trimmed first, then only those not
    already inside b survive; seeding with a reduced basis of b keeps
    the later Groebner run cheap.
    """
    ring = b.ring
    gbb = b.groebner()
    prods = []
    for g in a.gens:
        for e in _degree_exponents(ring.nvars, k):
            prods.append(_monomial_shift(g, e))
    prods = interreduce(prods)
    survivors = [p for p in prods if not gbb.contains(p)]
    return Ideal(ring, list(gbb.polys) + survivors)


def hilbert_samples(a, b, k_range):
    """k -> length of a/(b + m^k·a); finite for every k by construction."""
    ks = list(k_range)
    if not ks:
        raise ValueError("empty sample range")
    if ks != list(range(ks[0], ks[0] + len(ks))) or ks[0] < 0:
        raise ValueError("sample range must be consecutive nonnegative")
    a.groebner()  # every length below reads it; the check reuses it
    if not a.contains_ideal(b):
        raise ContainmentError("the second ideal is not inside the first")
    values = []
    for k in ks:
        bk = truncated_module_sum(b, k, a)
        values.append(subquotient_length(a, bk, check_containment=False))
    return FunctionTable(ks[0], tuple(values))
