"""Brute-force references for monomial-ideal arithmetic.

Everything here works on plain exponent tuples so the answers cannot
share code paths with the library.  Counting routines refuse to answer
unless they can certify their own bound.  The one exception is
`elimination_colon`, the textbook colon by elimination: it reads only
the library's `buchberger` and `divide`, none of its ideal operations.
"""

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


def colon_maximal(a, nvars):
    """Colon by the ideal of all the variables."""
    units = [
        tuple(1 if j == i else 0 for j in range(nvars))
        for i in range(nvars)
    ]
    return colon(a, units)


def saturate(a, nvars, cap=60):
    """Iterate colon by the variable ideal; (stable gens, strict steps)."""
    current = minimalize(a)
    steps = 0
    for _ in range(cap):
        bigger = colon_maximal(current, nvars)
        if bigger == current:
            return current, steps
        current = bigger
        steps += 1
    raise RuntimeError("saturation did not stabilize within the cap")


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
