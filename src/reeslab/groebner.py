"""Buchberger engine and the ideal-operation suite.

Plain Buchberger with the coprime and chain criteria is enough at desk
scale (2-4 variables, generators of modest degree), and a small kernel
is easier to certify than a clever one.  Everything is deterministic:
a fixed S-pair strategy, canonical sorting of reduced bases, no
randomness.  Iterative loops run under a budget; exceeding it raises
ResourceBudgetError rather than returning a silently truncated answer.

Division reads its divisors from a `DivisorTable`: each divisor's lead
degree, order key of the lead, index, lead exponents and an integer
form of the divisor, sorted on (lead degree, order key, index).  A
basis prepares its table once and reuses it for every division: the
growing basis of `buchberger`, the minimal basis in `_reduce_basis`,
the kept list of `interreduce` and a finished `GroebnerBasis` each hold
one (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2 §3).

Division runs on Python ints for both fields, in one loop.  Over Q a
divisor is stored primitive, with integer coefficients, and the
polynomial being divided keeps integer coefficients over one common
denominator; each reduction step scales both by L/gcd(c, L) before it
subtracts, which is fraction-free reduction with primitive divisors
(Geddes-Czapor-Labahn, Algorithms for Computer Algebra, §2.8 and
ch. 10).  Over GF(p) the divisors are monic and the denominator stays
1.  The remainder and quotients are the exact ones of division over
the field, since the scaling never changes the polynomial the integers
stand for.

Monomial ideals never reach the S-pair loop.  When every generator is a
single term, the reduced basis is the set of minimal generators with
coefficient one: the S-polynomial of two monomials is zero, so those
generators are already a Groebner basis, and reduced because no lead
divides another term of the basis (Cox-Little-O'Shea, ch. 2 §4).  The
basis is unique, so it is the one the S-pair loop would return.
`minimal_exponents` finds those generators in one pass by ascending
degree, and products and powers of monomial ideals add exponents and
minimalize once, with no polynomial arithmetic.
"""

from __future__ import annotations

import bisect
import heapq
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, ge, le, neg, sub

from .errors import ResourceBudgetError, RingMismatchError
from .ring import (
    DEFAULT_ORDER,
    BlockElimination,
    PolyRing,
    Polynomial,
    PrimeField,
    leading_term,
    poly_str,
    total_degree,
)


@dataclass(frozen=True)
class ResourceBudget:
    """Caps for the iterative algorithms; see REESLAB_BUDGET in the CLI."""

    max_basis: int = 5000
    max_pairs: int = 200000
    truncation_cap: int = 40
    saturation_cap: int = 50


BUDGET = ResourceBudget()

# the budget of the current run, read where no budget is passed; the
# CLI sets it for one invocation and resets it afterwards
_ACTIVE_BUDGET = ContextVar("reeslab_budget", default=BUDGET)


def _exps_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def minimal_exponents(exps, order=DEFAULT_ORDER):
    """The minimal exponent tuples under divisibility, ascending in the order.

    Duplicates collapse to one.  A proper divisor has lower total
    degree, so one pass in ascending degree that keeps each tuple no
    kept tuple of lower degree divides finds exactly the minimal ones;
    only those are then sorted by the order.
    """
    kept = []
    same = []  # kept tuples of the current degree
    deg = -1
    for d, e in sorted([(sum(e), e) for e in set(exps)]):
        if d != deg:
            kept += same
            same = []
            deg = d
        for k in kept:
            if all(map(le, k, e)):
                break
        else:
            same.append(e)
    kept += same
    kept.sort(key=order.key)
    return kept


def _monomial_exps(polys):
    # the exponents of the nonzero polynomials when each is a single
    # term, else None
    if all(len(g.terms) == 1 for g in polys):
        return [next(iter(g.terms)) for g in polys]
    return None


def _monomials(ring, exps):
    one = ring.field.one
    return [Polynomial(ring, {e: one}) for e in exps]


def monic(f, order=DEFAULT_ORDER):
    """Scale f so its leading coefficient is 1."""
    _, lc = leading_term(f, order)
    field = f.ring.field
    if lc == field.one:
        return f
    inv = field.invert(lc)
    mul = field.mul
    return Polynomial(f.ring, {e: mul(c, inv) for e, c in f.terms.items()})


class DivisorTable:
    """The leading data of a divisor list, prepared once for many divisions.

    `entries` holds one tuple per nonzero divisor g: (lead degree, order
    key of the lead, index, lead exponents, L, tail, kappa).  The last
    three describe the integer form g~ = kappa*g that `divide` subtracts:
    L is its leading coefficient, a positive int, and `tail` lists its
    other terms as (exponents, -coefficient) pairs of ints.  Over Q, g~
    is primitive: its integer coefficients have no common factor.  Over
    GF(p), g~ is monic, so L is 1 and the tail holds residues in
    [0, p).  Only quotients read kappa; it is the int 1 when g~ is g.
    A monomial becomes the monomial with L = 1 and an empty tail.

    The entries stay sorted on (lead degree, order key of the lead,
    index), so low-degree leads come first and the scan in `divide` can
    stop at the first lead of higher degree than the term it reduces.
    The index is the divisor's position in the list it came from;
    quotients are reported in that order.  `add` gives each new divisor
    the next index and inserts it on the same key, so a table grown one
    divisor at a time has the order of a table built over the whole list
    at once.
    """

    __slots__ = ("ring", "order", "entries", "size")

    def __init__(self, divisors=(), order=DEFAULT_ORDER):
        self.ring = None
        self.order = order
        self.entries = []
        self.size = 0
        for g in divisors:
            entry = self._entry(g)
            if entry is not None:
                self.entries.append(entry)
        self.entries.sort()

    def _entry(self, g):
        idx = self.size
        self.size += 1
        if g.is_zero:
            return None
        if self.ring is None:
            self.ring = g.ring
        elif g.ring != self.ring:
            raise RingMismatchError(f"{self.ring!r} vs {g.ring!r}")
        le, lc = leading_term(g, self.order)
        field = g.ring.field
        terms = g.terms
        if len(terms) == 1:
            lead, tail = 1, ()
            kappa = 1 if lc == field.one else field.invert(lc)
        elif isinstance(field, PrimeField):
            p = field.p
            lead = 1
            kappa = 1 if lc == 1 else field.invert(lc)
            tail = tuple((e, -c * kappa % p) for e, c in terms.items() if e != le)
        else:
            den = lcm(*(c.denominator for c in terms.values()))
            nums = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
            content = gcd(*nums.values())
            if lc < 0:
                content = -content
            lead = nums.pop(le) // content
            tail = tuple((e, -(n // content)) for e, n in nums.items())
            kappa = 1 if den == content else Fraction(den, content)
        return (sum(le), self.order.key(le), idx, le, lead, tail, kappa)

    def add(self, g):
        """Append the nonzero g as the next divisor; returns its lead."""
        entry = self._entry(g)
        bisect.insort(self.entries, entry)
        return entry[3]


def divide(f, divisors, order=DEFAULT_ORDER, with_quotients=False):
    """Multivariate division: f = sum(q_i * divisors[i]) + remainder.

    `divisors` is a list of polynomials or a `DivisorTable` prepared for
    the same order; a list is turned into a table once, at the top of
    the call.  Each term is reduced by the first divisor in table order,
    (lead degree, order key of the lead, index), whose lead divides it.
    No remainder term is divisible by the leading term of any divisor.
    Quotients are tracked only on request; the first return value is
    None otherwise.  Candidate terms live in a max-heap keyed by the
    order.

    The arithmetic is on ints, for both fields.  The working polynomial
    is kept as `work`/s: integer coefficients over one common
    denominator s, which starts as the lcm of f's denominators (1 over
    GF(p)).  A term c*x^a is reduced by the integer form g~ of its
    divisor, with lead L, as follows: with h = gcd(c, L), `work` and s
    are both multiplied by L/h, which leaves work/s unchanged, and then
    (c/h)*x^shift*g~ is subtracted, which cancels the term exactly.  So
    work/s is always f minus the quotients found so far times their
    divisors, and a term that no lead divides leaves as the exact
    remainder coefficient c/s.  Over GF(p), L is 1, s stays 1 and every
    coefficient is read modulo p when its term is reached.
    """
    if not isinstance(divisors, DivisorTable):
        divisors = DivisorTable(divisors, order)
    elif divisors.order != order:
        raise ValueError(
            f"divisor table prepared for {divisors.order!r}, not {order!r}"
        )
    ring = f.ring
    if divisors.ring is not None and divisors.ring != ring:
        raise RingMismatchError(f"{ring!r} vs {divisors.ring!r}")
    field = ring.field
    p = field.p if isinstance(field, PrimeField) else 0  # 0 over Q
    key = order.key
    heappush = heapq.heappush
    table = divisors.entries
    quotients = [{} for _ in range(divisors.size)] if with_quotients else None
    s = lcm(*(c.denominator for c in f.terms.values()))
    work = {e: c.numerator * (s // c.denominator) for e, c in f.terms.items()}
    # each exponent in `work` has exactly one heap entry: a reduction only
    # adds terms below the one it reduces, which are not yet popped
    heap = [(tuple(map(neg, key(e))), e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        _, exps = heapq.heappop(heap)
        c = work.pop(exps)
        if p:
            c %= p
        if not c:
            continue
        deg = sum(exps)
        reduced = False
        for lead_deg, _, idx, le, lead, tail, kappa in table:
            if lead_deg > deg:
                break
            if all(map(ge, exps, le)):
                shift = tuple(map(sub, exps, le))
                if lead != 1:
                    h = gcd(c, lead)
                    m = lead // h
                    c //= h
                    if m != 1:
                        s *= m
                        for e in work:
                            work[e] *= m
                if with_quotients:
                    factor = c if p else Fraction(c, s)
                    if kappa != 1:
                        factor = field.mul(factor, kappa)
                    quotients[idx][shift] = factor
                for te, tc in tail:
                    tgt = tuple(map(add, shift, te))
                    old = work.get(tgt)
                    if old is None:
                        work[tgt] = c * tc
                        heappush(heap, (tuple(map(neg, key(tgt))), tgt))
                    else:
                        work[tgt] = old + c * tc
                reduced = True
                break
        if not reduced:
            remainder[exps] = c if p else Fraction(c, s)
    rem = Polynomial(ring, remainder)
    if not with_quotients:
        return None, rem
    return [Polynomial(ring, q) for q in quotients], rem


def normal_form(f, divisors, order=DEFAULT_ORDER):
    """Remainder of f on division by the given polynomials."""
    if isinstance(divisors, GroebnerBasis):
        return divisors.normal_form(f)
    return divide(f, divisors, order)[1]


def s_polynomial(f, g, order=DEFAULT_ORDER):
    """Cancel the leading terms of f and g against their lcm."""
    ef, cf = leading_term(f, order)
    eg, cg = leading_term(g, order)
    lcm_exps = _exps_lcm(ef, eg)
    return _monic_multiple(f, ef, cf, lcm_exps) - _monic_multiple(
        g, eg, cg, lcm_exps
    )


def _monic_multiple(f, lead, lc, target):
    # x^(target - lead) * f / lc, whose leading term is x^target; the
    # inversion and the scaling are skipped when lc is one
    shift = tuple(t - e for t, e in zip(target, lead))
    field = f.ring.field
    terms = {tuple(a + b for a, b in zip(e, shift)): c for e, c in f.terms.items()}
    if lc != field.one:
        inv = field.invert(lc)
        terms = {e: field.mul(c, inv) for e, c in terms.items()}
    return Polynomial(f.ring, terms)


def buchberger(gens, order=DEFAULT_ORDER, budget=None):
    """Reduced Groebner basis of the ideal spanned by the generators.

    Monomial generators return their minimal monomials at once.  Others
    go through the S-pair loop, with the normal selection strategy:
    pairs are popped by lcm total degree, then the order key of the lcm,
    then generator indices.  Pairs with coprime leads are never queued;
    the chain criterion drops a pair when a third basis element divides
    its lcm and both flanking pairs were already treated.
    """
    budget = budget or _ACTIVE_BUDGET.get()
    ring = None
    nonzero = []
    for g in gens:
        if g.is_zero:
            continue
        if ring is None:
            ring = g.ring
        elif g.ring != ring:
            raise RingMismatchError(f"{ring!r} vs {g.ring!r}")
        nonzero.append(g)
    if not nonzero:
        return []
    exps = _monomial_exps(nonzero)
    if exps is not None:
        return _monomials(ring, minimal_exponents(exps, order))
    basis = []
    seen = set()
    for g in nonzero:
        m = monic(g, order)
        if m not in seen:
            seen.add(m)
            basis.append(m)
    key = order.key
    leads = [leading_term(g, order)[0] for g in basis]
    table = DivisorTable(basis, order)
    heap = []
    pending = set()
    pushes = 0

    def queue_pairs(t):
        nonlocal pushes
        lt = leads[t]
        # the s-polynomial of two single terms cancels identically, so
        # such pairs are treated without ever entering the queue
        single_t = len(basis[t].terms) == 1
        for i in range(t):
            if _coprime(leads[i], lt):
                continue
            if single_t and len(basis[i].terms) == 1:
                continue
            lcm = _exps_lcm(leads[i], lt)
            heapq.heappush(heap, (sum(lcm), key(lcm), i, t))
            pending.add((i, t))
            pushes += 1
        if pushes > budget.max_pairs:
            raise ResourceBudgetError(
                f"S-pair budget {budget.max_pairs} exceeded; "
                "raise REESLAB_BUDGET pairs=N"
            )

    for t in range(len(basis)):
        queue_pairs(t)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lcm = _exps_lcm(leads[i], leads[j])
        skip = False
        for l in range(len(basis)):
            if l == i or l == j or not _divides(leads[l], lcm):
                continue
            a = (i, l) if i < l else (l, i)
            b = (j, l) if j < l else (l, j)
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        _, r = divide(s_polynomial(basis[i], basis[j], order), table, order)
        if r.is_zero:
            continue
        g = monic(r, order)
        basis.append(g)
        leads.append(table.add(g))
        if len(basis) > budget.max_basis:
            raise ResourceBudgetError(
                f"basis size budget {budget.max_basis} exceeded; "
                "raise REESLAB_BUDGET basis=N"
            )
        queue_pairs(len(basis) - 1)
    return _reduce_basis(basis, leads, order)


def _reduce_basis(basis, leads, order):
    # minimalize, then tail-reduce every element against one table of the
    # minimal basis; an element may stay in the table its own tail is
    # reduced against, because no term below a lead is divisible by it
    by_lead = {}
    for lg, g in zip(leads, basis):
        by_lead.setdefault(lg, g)
    min_leads = minimal_exponents(leads, order)
    minimal = [by_lead[lg] for lg in min_leads]
    if len(minimal) == 1:
        return minimal
    table = DivisorTable(minimal, order)
    reduced = []
    for lg, g in zip(min_leads, minimal):
        tail = dict(g.terms)
        terms = {lg: tail.pop(lg)}
        _, r = divide(Polynomial(g.ring, tail), table, order)
        terms.update(r.terms)
        reduced.append(Polynomial(g.ring, terms))
    # the leads are those of `minimal`, already ascending in the order
    return reduced


class GroebnerBasis:
    """A reduced basis with its order; iterates over the polynomials."""

    __slots__ = ("ring", "order", "polys", "lead_exps", "table")

    def __init__(self, ring, order, polys):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)
        self.lead_exps = tuple(leading_term(p, order)[0] for p in self.polys)
        self.table = DivisorTable(self.polys, order)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def normal_form(self, f):
        return divide(f, self.table, self.order)[1]

    def contains(self, f):
        if f.is_zero:
            return True
        return self.normal_form(f).is_zero

    @property
    def is_unit(self):
        # a reduced basis of the unit ideal is exactly [1]
        return bool(self.polys) and total_degree(self.polys[0]) == 0


class Ideal:
    """A finitely generated ideal with cached reduced bases.

    The generator list keeps its given order (zeros dropped, duplicates
    collapsed); value-level questions go through a Groebner basis,
    cached per monomial order.
    """

    __slots__ = ("ring", "gens", "_gb", "_cache")

    def __init__(self, ring, gens=()):
        polys = []
        seen = set()
        for g in gens:
            if isinstance(g, (int, Fraction)):
                g = ring.const(g)
            if not isinstance(g, Polynomial):
                raise TypeError(f"cannot use {g!r} as an ideal generator")
            if g.ring != ring:
                raise RingMismatchError(f"{ring!r} vs {g.ring!r}")
            if g.is_zero or g in seen:
                continue
            seen.add(g)
            polys.append(g)
        self.ring = ring
        self.gens = tuple(polys)
        self._gb = {}
        self._cache = {}

    def __repr__(self):
        inner = ", ".join(poly_str(g) for g in self.gens)
        return f"ideal({inner or '0'})"

    def groebner(self, order=DEFAULT_ORDER):
        gb = self._gb.get(order)
        if gb is None:
            gb = GroebnerBasis(self.ring, order, buchberger(self.gens, order))
            self._gb[order] = gb
        return gb

    def contains(self, f):
        if isinstance(f, (int, Fraction)):
            f = self.ring.const(f)
        return self.groebner().contains(f)

    def contains_ideal(self, other):
        gb = self.groebner()
        return all(gb.contains(g) for g in other.gens)

    @property
    def is_zero(self):
        return not self.gens

    def is_unit(self):
        if not self.gens:
            return False
        return self.groebner().is_unit


def zero_ideal(ring):
    return Ideal(ring, ())


def unit_ideal(ring):
    return Ideal(ring, (ring.one,))


def _same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring!r} vs {b.ring!r}")


def membership(f, a):
    """Is f in the ideal (normal form against its basis vanishes)?"""
    return a.contains(f)


def ideal_equal(a, b):
    """Value equality via mutual generator membership."""
    _same_ring(a, b)
    return a.contains_ideal(b) and b.contains_ideal(a)


def ideal_sum(a, b):
    _same_ring(a, b)
    return Ideal(a.ring, a.gens + b.gens)


def ideal_product(a, b):
    _same_ring(a, b)
    ea = _monomial_exps(a.gens)
    eb = _monomial_exps(b.gens)
    if ea is not None and eb is not None:
        exps = [tuple(map(add, e, f)) for e in ea for f in eb]
        return Ideal(a.ring, _monomials(a.ring, minimal_exponents(exps)))
    prods = [f * g for f in a.gens for g in b.gens]
    return Ideal(a.ring, interreduce(prods))


def ideal_power(a, n):
    """a^n with per-ideal caching; n = 0 gives the unit ideal."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("power must be a nonnegative integer")
    cached = a._cache.get(("power", n))
    if cached is not None:
        return cached
    if n == 0:
        result = unit_ideal(a.ring)
    elif n == 1:
        result = a
    else:
        result = ideal_product(ideal_power(a, n - 1), a)
    a._cache[("power", n)] = result
    return result


# beyond this many general generators the quadratic NF sweep is skipped
_INTERREDUCE_NF_CAP = 300


def interreduce(polys, order=DEFAULT_ORDER):
    """Trim a generator list without changing the ideal it spans.

    Monomial lists are cut to their minimal generators exactly, with
    coefficient one and ascending in the order; general lists are
    greedily normal-formed against what is already kept.
    """
    polys = [g for g in polys if g is not None and not g.is_zero]
    if not polys:
        return []
    exps = _monomial_exps(polys)
    if exps is not None:
        return _monomials(polys[0].ring, minimal_exponents(exps, order))
    live = []
    seen = set()
    for g in polys:
        g = monic(g, order)
        if g not in seen:
            seen.add(g)
            live.append(g)
    if len(live) > _INTERREDUCE_NF_CAP:
        return live
    live.sort(key=lambda g: order.key(leading_term(g, order)[0]))
    kept = []
    table = DivisorTable((), order)
    for g in live:
        r = divide(g, table, order)[1] if kept else g
        if not r.is_zero:
            kept.append(monic(r, order))
            table.add(kept[-1])
    return kept


def _fresh_name(ring, base):
    name = base
    k = 0
    while name in ring.variables:
        name = f"{base}{k}"
        k += 1
    return name


def _lift(f, ext, offset, nold):
    # embed f, placing old variable i at position offset + i of ext
    pre = (0,) * offset
    post = (0,) * (ext.nvars - offset - nold)
    return Polynomial(ext, {pre + e + post: c for e, c in f.terms.items()})


def intersection(a, b):
    """a ∩ b via the auxiliary-variable elimination construction."""
    _same_ring(a, b)
    ring = a.ring
    if a.is_zero or b.is_zero:
        return zero_ideal(ring)
    if a.is_unit():
        return b
    if b.is_unit():
        return a
    tname = _fresh_name(ring, "t")
    ext = PolyRing((tname,) + ring.variables, ring.field)
    n = ring.nvars
    t = ext.var(tname)
    one_minus_t = ext.one - t
    gens = [t * _lift(f, ext, 1, n) for f in a.gens]
    gens += [one_minus_t * _lift(g, ext, 1, n) for g in b.gens]
    gb = buchberger(gens, BlockElimination(1))
    out = []
    for p in gb:
        if all(e[0] == 0 for e in p.terms):
            out.append(Polynomial(ring, {e[1:]: c for e, c in p.terms.items()}))
    return Ideal(ring, out)


def colon(a, b):
    """a : b, intersecting (a ∩ (g))/g over the generators g of b."""
    _same_ring(a, b)
    if b.is_zero:
        raise ValueError("colon by the zero ideal")
    ring = a.ring
    if a.is_zero:
        return zero_ideal(ring)
    result = None
    for g in b.gens:
        if a.contains(g):
            continue  # a : (g) is the unit ideal
        meet = intersection(a, Ideal(ring, (g,)))
        qgens = []
        for h in meet.gens:
            qs, rem = divide(h, [g], with_quotients=True)
            if not rem.is_zero:
                raise ArithmeticError(
                    "member of an intersection with (g) must divide by g"
                )
            qgens.append(qs[0])
        piece = Ideal(ring, qgens)
        result = piece if result is None else intersection(result, piece)
    if result is None:
        return unit_ideal(ring)
    return result


def saturation(a, b, budget=None):
    """(a : b^infinity, number of colon steps until the chain is stable)."""
    budget = budget or _ACTIVE_BUDGET.get()
    current = a
    for steps in range(budget.saturation_cap + 1):
        nxt = colon(current, b)
        if ideal_equal(nxt, current):
            return current, steps
        current = nxt
    raise ResourceBudgetError(
        f"saturation not stable within {budget.saturation_cap} steps; "
        "raise REESLAB_BUDGET saturation=N"
    )


def eliminate(a, drop):
    """Generators of a ∩ K[kept variables], in the smaller ring."""
    ring = a.ring
    drop = list(drop)
    if not drop:
        raise ValueError("no variables to eliminate")
    if len(set(drop)) != len(drop):
        raise ValueError("duplicate variables to eliminate")
    for v in drop:
        ring.var_index(v)
    dropset = set(drop)
    keep = [v for v in ring.variables if v not in dropset]
    if not keep:
        raise ValueError("cannot eliminate every variable")
    first = [v for v in ring.variables if v in dropset]
    ext = PolyRing(tuple(first + keep), ring.field)
    perm = [ring.var_index(v) for v in ext.variables]
    k = len(first)

    def move(f):
        return Polynomial(
            ext, {tuple(e[i] for i in perm): c for e, c in f.terms.items()}
        )

    gb = buchberger([move(g) for g in a.gens], BlockElimination(k))
    target = PolyRing(tuple(keep), ring.field)
    out = []
    for p in gb:
        if all(all(x == 0 for x in e[:k]) for e in p.terms):
            out.append(Polynomial(target, {e[k:]: c for e, c in p.terms.items()}))
    return Ideal(target, out)


def radical_membership(f, a):
    """Is f in the radical of a (inverse-variable trick, ideal reaches 1)?"""
    ring = a.ring
    if isinstance(f, (int, Fraction)):
        f = ring.const(f)
    if f.ring != ring:
        raise RingMismatchError(f"{ring!r} vs {f.ring!r}")
    if f.is_zero:
        return True
    if a.contains(f):
        return True
    zname = _fresh_name(ring, "z")
    ext = PolyRing(ring.variables + (zname,), ring.field)
    n = ring.nvars
    z = ext.var(zname)
    gens = [_lift(g, ext, 0, n) for g in a.gens]
    gens.append(ext.one - z * _lift(f, ext, 0, n))
    gb = buchberger(gens, DEFAULT_ORDER)
    return bool(gb) and total_degree(gb[0]) == 0
