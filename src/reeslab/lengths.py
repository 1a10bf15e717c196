"""Lengths, dimensions and multiplicities in R_m from Hilbert series.

Every invariant is read in the localization R_m at the ideal m of the
variables, from the lead exponents of a standard basis of a·R_m in the
local degree order: lower total degree first, ties broken by grevlex.
R_m/a has the Hilbert-Samuel function of R/L(a), the quotient by the
monomial ideal of those leads (Greuel-Pfister, A Singular Introduction
to Commutative Algebra, ch. 5).  `_local_leads` finds them by Lazard's
method: homogenize the generators with a new variable h, take a
Groebner basis in a degree order that prefers powers of h, and drop h
from the leads (Greuel-Pfister, §1.7; Mora, EUROCAM 1982).  A
homogeneous ideal's grevlex basis is already that basis.

Everything else rests on the numerator N_a(t) of the Hilbert series
N_a(t)/(1-t)^n of R/L(a) and on one split of the largest power of
1 - t off a numerator or off a difference of two.  When (1-t)^c splits
off, the quotient has dimension n - c, finite length exactly when
c = n, and then its length is the cofactor at t = 1.  For b inside a,
L(b) lies inside L(a), and a·R_m/b·R_m, when of finite length, has the
length of N_b - N_a read the same way: λ(a/b) = λ(R/(b + m^k)) -
λ(R/(a + m^k)) for k large, by Artin-Rees.  colength and
subquotient_length read this split; so do reduction.local_dimension
and reduction.analytic_spread for dimensions, and
multiplicity.module_multiplicity for multiplicities.  A lead exponent
of all zeros means a contains a unit of R_m: its colength is 0.  The
same leads decide containment in R_m (`_inside_locally`): b·R_m lies
inside a·R_m exactly when a and a + b have the same local leads.  All
values are exact integers; anything not certifiably finite raises.
groebner._numerator computes each N by sweeping one variable at a time
down to a closed form in two variables.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest

from .errors import (
    ContainmentError,
    FrozenValue,
    LengthCertificationError,
    RingMismatchError,
)
from .groebner import (
    Ideal,
    _fresh_name,
    _pack,
    _numerator,
    buchberger,
    ideal_sum,
    minimal_exponents,
)
from .ring import DEFAULT_ORDER, PolyRing, Polynomial


class FunctionTable(FrozenValue):
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


class _LazardOrder:
    """Total degree first, then the larger power of h, then grevlex on x.

    h is the first variable.  Among terms of one total degree, a larger
    power of h is a lower degree in x, so a homogenized generator leads
    with its lowest-degree part, as the local degree order reads it.
    """

    def key(self, e):
        return (sum(e), e[0]) + DEFAULT_ORDER.key(e[1:])


_LAZARD = _LazardOrder()


def _lazard_leads(a):
    # the minimal dehomogenized leads of a Groebner basis of the
    # homogenized generators under _LAZARD
    ring = a.ring
    h = _fresh_name(ring.variables, "h")
    ext = PolyRing((h,) + ring.variables, ring.field)
    gens = []
    for f in a.gens:
        d = max(sum(e) for e in f.terms)
        gens.append(
            Polynomial(ext, {(d - sum(e),) + e: c for e, c in f.terms.items()})
        )
    run = buchberger(_pack(ext, _LAZARD, gens), _LAZARD)
    leads = [run.layout.unpack(form[0])[1:] for form in run.forms]
    return tuple(minimal_exponents(leads))


def _local_leads(a):
    """The minimal lead exponents of a·R_m in the local degree order.

    Memoized on a.  A homogeneous generator homogenizes to itself, with
    no h, and _LAZARD restricted to h^0 is grevlex; so for a homogeneous
    ideal Lazard's basis is its grevlex basis, which is read directly.
    """
    if a.is_homogeneous():
        return a.groebner().lead_exps
    leads = a._cache.get("local_leads")
    if leads is None:
        leads = a._cache["local_leads"] = _lazard_leads(a)
    return leads


def _is_local_unit(a):
    """Does a contain a unit of R_m: is one of its local leads 1?"""
    return (0,) * a.ring.nvars in _local_leads(a)


def _inside_locally(a, b):
    """Does b·R_m lie inside a·R_m?

    A homogeneous ideal is the contraction of its localization, since
    its associated primes lie in m, so a graded pair is compared in R.
    Otherwise a·R_m lies inside (a + b)·R_m, and two nested ideals of
    R_m are equal exactly when their standard bases have the same leads.
    """
    if b.is_zero:
        return True
    if a.is_homogeneous() and b.is_homogeneous():
        return a.contains_ideal(b)
    return _local_leads(ideal_sum(a, b)) == _local_leads(a)


def _split_pole(b, a=None):
    """(c, q) with N_b - N_a = (1-t)^c·q and c <= n as large as possible.

    N_b and N_a are the Hilbert numerators of R/L(b) and R/L(a) for the
    local leads L; without a, N_b alone.  A quotient with Hilbert series
    (N_b - N_a)/(1-t)^n, such as R_m/b, or a/b for b inside a, has
    dimension n - c, finite length exactly when c = n, and then length
    q(1); otherwise q(1) is its multiplicity (Bruns-Herzog,
    Cohen-Macaulay Rings, ch. 4).  The zero series splits off every
    power.
    """
    nvars = b.ring.nvars
    series = _numerator(_local_leads(b))
    if a is not None:
        series = [
            nb - na
            for nb, na in zip_longest(
                series, _numerator(_local_leads(a)), fillvalue=0
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
    """The length of R_m/a when finite; 0 when a holds a local unit."""
    nvars = a.ring.nvars
    c, q = _split_pole(a)
    if c < nvars:
        raise LengthCertificationError(
            f"colength is infinite: the quotient has dimension {nvars - c}"
        )
    return sum(q)


def subquotient_length(a, b, check_containment=True):
    """The length of a/b in R_m for ideals b inside a, certified exactly.

    The Hilbert series of a/b is (N_b - N_a)/(1-t)^n; the length is
    finite exactly when that is a polynomial, and is then its value at
    t = 1.
    """
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring!r} vs {b.ring!r}")
    if check_containment and not _inside_locally(a, b):
        raise ContainmentError("the second ideal is not inside the first")
    if a.is_zero:
        return 0
    if b.is_zero:
        raise LengthCertificationError(
            "a nonzero ideal has infinite length over the zero ideal"
        )
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
