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
the kept list of `_interreduce_forms` and a finished `GroebnerBasis`
each hold one (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
ch. 2 §3).

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

The S-pair loop stays on those integer forms from its input to the
reduced basis.  One private loop, `_reduce`, serves `divide`, the
S-pair reductions, the tail reductions of `_reduce_basis` and
`_interreduce_forms`.  Each S-polynomial is built on ints from the two
table entries, a nonzero remainder enters the table as its primitive
(over GF(p), monic) form, and monic polynomials with field coefficients
are built only for the reduced basis.  Each table keeps a memo from a
term's exponents to its heap item, so an order key is computed once per
table, and each entry carries a mask of the variables in its lead: a
lead with a variable the term lacks is passed over before the exponents
are compared (Bachmann-Schönemann, "Monomial representations for Gröbner
bases computations", ISSAC 1998, call these short exponent vectors).

Monomial ideals never reach the S-pair loop.  When every generator is a
single term, the reduced basis is the set of minimal generators with
coefficient one: the S-polynomial of two monomials is zero, so those
generators are already a Groebner basis, and reduced because no lead
divides another term of the basis (Cox-Little-O'Shea, ch. 2 §4).  The
basis is unique, so it is the one the S-pair loop would return.
`minimal_exponents` finds those generators in one pass by ascending
degree, and products and powers of monomial ideals add exponents and
minimalize once, with no polynomial arithmetic.  Products of other
ideals multiply the integer coefficients of their generators, and
`_interreduce_forms` takes one primitive form per product.  The
Hilbert numerator of a monomial ideal, `_numerator`, is swept one
variable at a time down to a closed form in two variables; its slices
are minimalized by the same pass, unsorted.

`buchberger`'s private `_degree` stops the S-pair loop of homogeneous
generators at a degree D.  Their S-polynomials and remainders are
homogeneous of the pair's lcm degree, and the pairs go by ascending lcm
degree, so the loop leaves exactly the elements of degree at most D of
the reduced basis, which divide a homogeneous polynomial of degree at
most D as the full basis does (Becker-Weispfenning, Gröbner Bases,
§10.2).  Its one caller is the step of `reduction.reduction_test`;
`Ideal` keeps full bases only.

A colon a : b is read off one syzygy run (Greuel-Pfister, A Singular
Introduction to Commutative Algebra, on ideal quotients; Cox-Little-
O'Shea, Using Algebraic Geometry, ch. 5).  Let g_1, ..., g_k be the
generators of b outside a, and M the submodule of R^(k+1) spanned by
e_0 + sum e_i·g_i and the e_i·h, for i = 0..k and h in the reduced
basis of a.  Then c·e_0 lies in M exactly when every c·g_i lies in a,
so M ∩ R·e_0 = (a : b)·e_0.  In a position-over-term order with
e_1, ..., e_k above e_0, an element of a basis of M whose lead lies in
e_0 has all its terms there, so the e_0-elements of the reduced basis
of M are the reduced basis of a : b.

- The module is encoded in k + 1 fresh component variables, one per
  basis vector, and every term holds exactly one of them.  The order
  is `BlockElimination(k)` with e_1, ..., e_k in the first block and
  e_0 leading the second, so e_0·x^u against e_0·x^v is grevlex on x.
- Two leads in different components have an S-vector of zero in the
  module, but in the polynomial ring their S-polynomial is quadratic
  in the components.  Queued, such pairs add elements such as
  e_0^2·c with c in a : g^2 but not in a : g, which would be read as
  generators of a : b: (x^2·y - x^2) : (x) would gain y - 1 beside
  x·y - x.  `buchberger(_module=k+1)` never queues them.
- The e_0·h lie in M, since f·(e_0 + sum e_i·g_i) - sum g_i·(f·e_i)
  = f·e_0 for f in a.  They keep every e_0 cofactor reduced modulo a
  from the start; without them one non-graded pair over Q built the
  inverse of g modulo a and took 17 s, not 0.01 s (shared 2-core VM,
  Python 3.11).
- The e_i·h are already a reduced basis, so no pair among them is
  queued.

The generator lists are those of the per-generator elimination
construction, which intersected the pieces (a ∩ (g))/g.  Reduced bases
are unique, so two or more outside generators give the reduced basis of
a : b, as the eliminated meets did, and one outside g gives the reduced
basis of g·(a : g) divided by g, as its single piece did.  Three exact
shortcuts run in front of the syzygy run and return the same lists.

- Nonzerodivisors.  For homogeneous a and b, a generator g of degree d
  is a nonzerodivisor modulo a exactly when the Hilbert numerators
  satisfy N_{a+(g)} = (1 - s^d)·N_a: the sequence
  0 -> R/(a:g)(-d) -> R/a -> R/(a+g) -> 0 is exact, and a ⊆ a : g
  (Bruns-Herzog, Cohen-Macaulay Rings, ch. 4).  The basis of a + (g)
  grows from the cached reduced basis of a, with no pair queued among
  its elements.  Then a : b = a.  Reading a Hilbert series to spare
  Groebner work follows Traverso, "Hilbert functions and the
  Buchberger algorithm", J. Symbolic Comput. 22 (1996).  A constant
  generator outside a gives a : b = a as well; alone it gives a's own
  generators divided by it, since a ∩ (g) is a.
- Monomial ideals meet in their minimal lcms.  So a monomial piece
  a : (c·x^m) comes out as the minimal max(e - m, 0), with
  coefficient 1/c, and monomial pieces meet with no Groebner run.
- Each colon is memoized on its dividend's `_cache`, keyed by the
  divisor's generators, like the powers.
"""

from __future__ import annotations

import bisect
import heapq
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import add, ge, itemgetter, le, neg, sub

from .errors import ResourceBudgetError, RingMismatchError, ZeroPolynomialError
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
    saturation_cap: int = 50


BUDGET = ResourceBudget()

# the budget of the current run, read where no budget is passed; the
# CLI sets it for one invocation and resets it afterwards
_ACTIVE_BUDGET = ContextVar("reeslab_budget", default=BUDGET)


def _exps_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _support(e):
    # bitmask of the variables that occur in e
    mask = 0
    for i, x in enumerate(e):
        if x:
            mask |= 1 << i
    return mask


def _char(ring):
    # p over GF(p), 0 over Q
    field = ring.field
    return field.p if isinstance(field, PrimeField) else 0


def _minimal(exps):
    # the minimal tuples of exps under divisibility, duplicates collapsed,
    # in ascending total degree
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
    return kept + same


def minimal_exponents(exps, order=DEFAULT_ORDER):
    """The minimal exponent tuples under divisibility, ascending in the order.

    Duplicates collapse to one.  A proper divisor has lower total
    degree, so one pass in ascending degree that keeps each tuple no
    kept tuple of lower degree divides finds exactly the minimal ones;
    only those are then sorted by the order.
    """
    return sorted(_minimal(exps), key=order.key)


def _add_shifted(num, part, shift, op=add):
    # num = num op t^shift·part, in place, for op add or sub
    end = shift + len(part)
    if end > len(num):
        num += [0] * (end - len(num))
    num[shift:end] = map(op, num[shift:end], part)


def _numerator(gens):
    """Numerator N of the Hilbert series N(t)/(1-t)^n of R/(x^g : g in gens).

    The exponent tuples in gens must be the minimal generators, such as
    the leads of a reduced basis.  Coefficients from degree 0 up; no
    generator gives [1], the unit [0].

    Up to two variables N is closed.  Sorted by ascending exponent of
    x, minimal generators g_1, ..., g_r of a monomial ideal of k[x, y]
    descend in y, and N = 1 - sum t^|g_i| + sum t^|lcm(g_i, g_i+1)|
    (Miller-Sturmfels, Combinatorial Commutative Algebra, Prop. 3.1);
    one variable leaves 1 - t^a.

    More variables are swept one at a time (Bayer-Stillman,
    "Computation of Hilbert functions", J. Symbolic Comput. 14, 1992).
    Take the variable v with the fewest distinct exponents
    0 = k_0 < ... < k_r.  The slice M_k = {m : m·v^k in M} is a monomial
    ideal in the other n - 1 variables; it grows with k and is constant
    from k_j up to k_j+1, so summing t^k over each run gives
    N(M) = sum_j<r (t^k_j - t^k_j+1)·N(M_k_j) + t^k_r·N(M_k_r),
    an empty slice having N = 1.  Each slice is the one before plus the
    projections of the generators at the new exponent, minimalized.
    The depth is at most n - 1, but the slices multiply: the work grows
    with the product of the distinct exponents of the swept variables,
    with no halving bound, which is cheap up to about six variables.
    """
    if not gens:
        return [1]
    if len(gens[0]) <= 2:
        gens = sorted(gens)
        # the lcm degrees; each exceeds the degrees of its two generators
        steps = [b[0] + a[1] for a, b in zip(gens, gens[1:])]
        num = [0] * (max(steps, default=sum(gens[0])) + 1)
        num[0] = 1
        for d in steps:
            num[d] += 1
        for g in gens:
            num[sum(g)] -= 1
        return num
    distinct = [len({0} | {g[i] for g in gens}) for i in range(len(gens[0]))]
    v = distinct.index(min(distinct))
    levels = {}
    for g in gens:
        levels.setdefault(g[v], []).append(g[:v] + g[v + 1:])
    num = [0]
    part = [1]  # N of the slice, empty below the least exponent
    start = 0
    sliced = []
    for k in sorted(levels):
        if k:
            _add_shifted(num, part, start)
            _add_shifted(num, part, k, sub)
        sliced = _minimal(sliced + levels[k])
        part = _numerator(sliced)
        start = k
    _add_shifted(num, part, start)
    while len(num) > 1 and not num[-1]:
        num.pop()
    return num


def _monomial_exps(polys):
    # the exponents of the nonzero polynomials when each is a single
    # term, else None
    if all(len(g.terms) == 1 for g in polys):
        return [next(iter(g.terms)) for g in polys]
    return None


def _monomials(ring, exps):
    one = ring.field.one
    return [Polynomial(ring, {e: one}) for e in exps]


def _primitive(nums, lead_exps, field, inv=None):
    # (L, tail) of the integer form of the int polynomial `nums`, whose
    # lead is x^lead_exps: primitive with L > 0 over Q, monic over GF(p),
    # where inv is the inverse of the lead coefficient if the caller has it
    if isinstance(field, PrimeField):
        p = field.p
        if inv is None:
            lc = nums[lead_exps]
            inv = 1 if lc == 1 else field.invert(lc)
        return 1, tuple(
            (e, -n * inv % p) for e, n in nums.items() if e != lead_exps
        )
    content = gcd(*nums.values())
    if nums[lead_exps] < 0:
        content = -content
    return nums[lead_exps] // content, tuple(
        (e, -(n // content)) for e, n in nums.items() if e != lead_exps
    )


def _int_nums(g):
    # the coefficients of g as ints: g's own over GF(p), g times the lcm
    # of its denominators over Q
    if _char(g.ring):
        return g.terms
    den = lcm(*(c.denominator for c in g.terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in g.terms.items()}


def _monic_poly(ring, lead_exps, lead, tail):
    # the monic polynomial whose integer form is (lead_exps, L, tail)
    terms = {lead_exps: ring.field.one}
    p = _char(ring)
    for e, c in tail:
        terms[e] = -c % p if p else Fraction(-c, lead)
    return Polynomial(ring, terms)


def _poly_forms(polys, order):
    # the integer forms (lead exponents, L, tail) of the nonzero polys
    for g in polys:
        lead_exps, _ = leading_term(g, order)
        yield (lead_exps,) + _primitive(_int_nums(g), lead_exps, g.ring.field)


def _product_forms(ring, fs, gs, order):
    # the integer forms of the products f*g, multiplied on the int
    # coefficients of f and g; the lead of a product is the product of
    # the leads, since a monomial order respects multiplication
    field = ring.field
    p = _char(ring)
    right = [(leading_term(g, order)[0], _int_nums(g)) for g in gs]
    for f in fs:
        lead_f, _ = leading_term(f, order)
        nums_f = _int_nums(f).items()
        for lead_g, nums_g in right:
            nums = {}
            for ea, ca in nums_f:
                for eb, cb in nums_g.items():
                    e = tuple(map(add, ea, eb))
                    nums[e] = nums.get(e, 0) + ca * cb
            if p:
                nums = {e: c % p for e, c in nums.items()}
            nums = {e: c for e, c in nums.items() if c}
            lead_exps = tuple(map(add, lead_f, lead_g))
            yield (lead_exps,) + _primitive(nums, lead_exps, field)


def _distinct_forms(forms):
    # the integer forms, keeping the first of several scalar multiples
    kept = []
    seen = set()
    for lead_exps, lead, tail in forms:
        mark = (lead_exps, lead, frozenset(tail))
        if mark not in seen:
            seen.add(mark)
            kept.append((lead_exps, lead, tail))
    return kept


class DivisorTable:
    """The leading data of a divisor list, prepared once for many divisions.

    `entries` holds one tuple per nonzero divisor g: (lead degree, order
    key of the lead, index, lead exponents, mask, L, tail, kappa).  The
    mask has bit i set when variable i occurs in the lead.  The last
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

    `memo` maps the exponents of every term a division has met to its
    heap item (negated order key, degree, complement of its mask,
    exponents), so each order key is computed once per table.
    """

    __slots__ = ("ring", "order", "entries", "size", "memo")

    def __init__(self, divisors=(), order=DEFAULT_ORDER):
        self.ring = None
        self.order = order
        self.entries = []
        self.size = 0
        self.memo = {}
        for g in divisors:
            if g.is_zero:
                # a zero divisor keeps its index, and its quotient is zero
                self.size += 1
                continue
            self._check_ring(g)
            self.entries.append(self._poly_entry(g))
        self.entries.sort()

    def _check_ring(self, g):
        if self.ring is None:
            self.ring = g.ring
        elif g.ring != self.ring:
            raise RingMismatchError(f"{self.ring!r} vs {g.ring!r}")

    def _entry(self, e, lead, tail, kappa):
        idx = self.size
        self.size += 1
        return (sum(e), self.order.key(e), idx, e, _support(e), lead, tail, kappa)

    def _poly_entry(self, g):
        # the entry of the nonzero polynomial g, whose integer form is
        # kappa*g with kappa = L/lc
        e, lc = leading_term(g, self.order)
        field = g.ring.field
        inv = 1 if lc == field.one else field.invert(lc)
        lead, tail = _primitive(_int_nums(g), e, field, inv)
        return self._entry(e, lead, tail, lead * inv)

    def add(self, g):
        """Append the nonzero g as the next divisor; returns its lead.

        Zero and a polynomial of another ring are refused before the
        table changes.
        """
        if g.is_zero:
            raise ZeroPolynomialError("cannot add the zero polynomial as a divisor")
        self._check_ring(g)
        entry = self._poly_entry(g)
        bisect.insort(self.entries, entry)
        return entry[3]

    def _add_form(self, lead_exps, lead, tail):
        # append the monic divisor whose integer form has lead exponents
        # `lead_exps`, leading coefficient `lead` and `tail`
        bisect.insort(self.entries, self._entry(lead_exps, lead, tail, lead))


def _add_remainder(table, r, field):
    # append the divisor whose int numerators are the remainder r, its
    # terms in descending order, and return its integer form
    lead_exps = next(iter(r))
    form = (lead_exps,) + _primitive(r, lead_exps, field)
    table._add_form(*form)
    return form


def _heap_item(memo, key, e):
    item = memo[e] = (tuple(map(neg, key(e))), sum(e), ~_support(e), e)
    return item


def _reduce(work, s, table, p, quotients=None):
    # Reduce work/s by the table, consuming `work`: integer coefficients
    # over one common denominator s (1 over GF(p)).  Returns (remainder,
    # s), the remainder as int numerators over the final s, its terms in
    # descending order.  A term c*x^a is reduced by the integer form g~
    # of its divisor, with lead L: with h = gcd(c, L), `work`, the
    # remainder and s are all multiplied by L/h, which leaves work/s
    # unchanged, and then (c/h)*x^shift*g~ is subtracted, which cancels
    # the term exactly.  Over GF(p), L is 1 and every coefficient is read
    # modulo p when its term is reached.  A reduction records its factor
    # in `quotients` when given, one dict per table index.
    memo = table.memo
    key = table.order.key
    entries = table.entries
    heappush = heapq.heappush
    heappop = heapq.heappop
    # each exponent in `work` has exactly one heap item: a reduction only
    # adds terms below the one it reduces, which are not yet popped
    heap = [memo.get(e) or _heap_item(memo, key, e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        _, deg, miss, exps = heappop(heap)
        c = work.pop(exps)
        if p:
            c %= p
        if not c:
            continue
        for lead_deg, _, idx, lead_exps, mask, lead, tail, kappa in entries:
            if lead_deg > deg:
                remainder[exps] = c
                break
            # a lead with a variable the term lacks cannot divide it
            if mask & miss or not all(map(ge, exps, lead_exps)):
                continue
            shift = tuple(map(sub, exps, lead_exps))
            if lead != 1:
                h = gcd(c, lead)
                m = lead // h
                c //= h
                if m != 1:
                    s *= m
                    for e in work:
                        work[e] *= m
                    for e in remainder:
                        remainder[e] *= m
            if quotients is not None:
                factor = c * kappa % p if p else Fraction(c, s) * kappa
                quotients[idx][shift] = factor
            for te, tc in tail:
                tgt = tuple(map(add, shift, te))
                old = work.get(tgt)
                if old is None:
                    work[tgt] = c * tc
                    heappush(heap, memo.get(tgt) or _heap_item(memo, key, tgt))
                else:
                    work[tgt] = old + c * tc
            break
        else:
            remainder[exps] = c
    return remainder, s


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
    GF(p)).  Each reduction step scales `work` and s by the same factor
    and then cancels one term exactly (see `_reduce`), so work/s is
    always f minus the quotients found so far times their divisors, and
    a term that no lead divides leaves as the exact remainder
    coefficient over the final s.
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
    p = _char(ring)
    quotients = [{} for _ in range(divisors.size)] if with_quotients else None
    s = lcm(*(c.denominator for c in f.terms.values()))
    work = {e: c.numerator * (s // c.denominator) for e, c in f.terms.items()}
    remainder, s = _reduce(work, s, divisors, p, quotients)
    if not p:
        remainder = {e: Fraction(c, s) for e, c in remainder.items()}
    rem = Polynomial(ring, remainder)
    if not with_quotients:
        return None, rem
    return [Polynomial(ring, q) for q in quotients], rem


def buchberger(
    gens, order=DEFAULT_ORDER, budget=None, _degree=None, _reduced=0, _module=0
):
    """Reduced Groebner basis of the ideal spanned by the generators.

    Monomial generators return their minimal monomials at once.  Others
    go through the S-pair loop, with the normal selection strategy:
    pairs are popped by lcm total degree, then the order key of the lcm,
    then generator indices.  Pairs with coprime leads are never queued;
    the chain criterion drops a pair when a third basis element divides
    its lcm and both flanking pairs were already treated.

    `_degree`, for homogeneous generators only, stops the loop before
    the first pair whose lcm has a higher degree; what it returns are
    the elements of degree at most `_degree` of the reduced basis.

    `_reduced` says that the first that many generators already form a
    reduced basis in the order, such as a cached basis grown by new
    generators: no pair among them is queued, and the chain criterion
    counts those pairs as treated.

    `_module=m` reads the generators as elements of a free module of rank
    m: the first m variables stand for its basis vectors, and every term
    holds exactly one of them, once.  A pair whose leads lie in different
    components is never queued, since its S-vector is zero; every other
    S-polynomial and remainder stays linear in the components.

    The loop keeps each basis element as its integer form (lead
    exponents, L, tail), the data of its `DivisorTable` entry.  The
    S-polynomial of elements i and j is built on ints as
    (L_j/h)*x^(l-a_i)*g~_i - (L_i/h)*x^(l-a_j)*g~_j, with l the lcm of
    the leads a_i, a_j and h = gcd(L_i, L_j): a positive multiple of the
    S-polynomial of the monic elements, so it has the same remainder up
    to that scalar.  A nonzero remainder enters the table as its
    primitive (over GF(p), monic) form; monic polynomials are built only
    for the reduced basis.
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
    cap = float("inf") if _degree is None else _degree
    exps = _monomial_exps(nonzero)
    if exps is not None:
        minimal = minimal_exponents(exps, order)
        return _monomials(ring, [e for e in minimal if sum(e) <= cap])
    p = _char(ring)
    key = order.key
    components = (1 << _module) - 1  # the mask bits of the module's vectors
    table = DivisorTable((), order)
    basis = []  # integer forms, by index
    leads = []
    masks = []
    heap = []
    pending = set()
    pushes = 0

    def append(form):
        basis.append(form)
        leads.append(form[0])
        masks.append(_support(form[0]))

    def queue_pairs(t):
        nonlocal pushes
        lt = leads[t]
        mt = masks[t]
        # the s-polynomial of two single terms cancels identically, so
        # such pairs are treated without ever entering the queue
        single_t = not basis[t][2]
        for i in range(t):
            if not masks[i] & mt:
                continue  # coprime leads
            if (masks[i] ^ mt) & components:
                continue  # leads in different components
            if single_t and not basis[i][2]:
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

    for form in _distinct_forms(_poly_forms(nonzero, order)):
        table._add_form(*form)
        append(form)
    for t in range(_reduced, len(basis)):
        queue_pairs(t)
    while heap and heap[0][0] <= cap:
        _, _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        lcm = _exps_lcm(leads[i], leads[j])
        miss = ~(masks[i] | masks[j])
        skip = False
        for l in range(len(basis)):
            if (
                masks[l] & miss
                or l == i
                or l == j
                or not all(map(le, leads[l], lcm))
            ):
                continue
            a = (i, l) if i < l else (l, i)
            b = (j, l) if j < l else (l, j)
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        ei, li, ti = basis[i]
        ej, lj, tj = basis[j]
        h = gcd(li, lj)
        fi = lj // h
        fj = li // h
        si = tuple(map(sub, lcm, ei))
        sj = tuple(map(sub, lcm, ej))
        work = {}
        # the tails store negated coefficients
        for e, c in ti:
            e = tuple(map(add, si, e))
            work[e] = work.get(e, 0) - fi * c
        for e, c in tj:
            e = tuple(map(add, sj, e))
            work[e] = work.get(e, 0) + fj * c
        r, _ = _reduce(work, 1, table, p)
        if not r:
            continue
        append(_add_remainder(table, r, ring.field))
        if len(basis) > budget.max_basis:
            raise ResourceBudgetError(
                f"basis size budget {budget.max_basis} exceeded; "
                "raise REESLAB_BUDGET basis=N"
            )
        queue_pairs(len(basis) - 1)
    # every pair left, and every element it would add, lies above the
    # cap, and homogeneous division never leaves a degree, so the
    # elements through the cap are already those of the reduced basis
    low = [form for form in basis if sum(form[0]) <= cap]
    return _reduce_basis(ring, low, order, table.memo)


def _reduce_basis(ring, basis, order, memo):
    # minimalize the integer forms, then tail-reduce every element
    # against one table of the minimal basis; an element may stay in the
    # table its own tail is reduced against, because no term below a
    # lead is divisible by it.  The table reuses the loop's key memo.
    by_lead = {}
    for form in basis:
        by_lead.setdefault(form[0], form)
    minimal = [by_lead[e] for e in minimal_exponents(by_lead, order)]
    if len(minimal) == 1:
        return [_monic_poly(ring, *minimal[0])]
    table = DivisorTable((), order)
    table.memo = memo
    for form in minimal:
        table._add_form(*form)
    p = _char(ring)
    reduced = []
    for lead_exps, lead, tail in minimal:
        r, s = _reduce({e: -c for e, c in tail}, 1, table, p)
        # the monic element's reduced tail is r/(s*L); tails store
        # negated coefficients
        tail = [(e, -c) for e, c in r.items()]
        reduced.append(_monic_poly(ring, lead_exps, s * lead, tail))
    # the leads are those of `minimal`, already ascending in the order
    return reduced


class GroebnerBasis:
    """A reduced basis with its order; iterates over the polynomials.

    The divisor table is built on the first normal form, so a basis
    that only lends its leads, like those of the Hilbert numerators,
    never builds one.
    """

    __slots__ = ("ring", "order", "polys", "lead_exps", "_table")

    def __init__(self, ring, order, polys):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)
        exps = _monomial_exps(self.polys)
        if exps is None:
            exps = [leading_term(p, order)[0] for p in self.polys]
        self.lead_exps = tuple(exps)
        self._table = None

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    @property
    def table(self):
        if self._table is None:
            self._table = DivisorTable(self.polys, self.order)
        return self._table

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
    collapsed); value-level questions, membership among them, go through
    the full reduced Groebner basis, cached per monomial order.
    """

    __slots__ = ("ring", "gens", "_gb", "_cache")

    def __init__(self, ring, gens=()):
        polys = []
        for g in gens:
            if isinstance(g, (int, Fraction)):
                g = ring.const(g)
            if not isinstance(g, Polynomial):
                raise TypeError(f"cannot use {g!r} as an ideal generator")
            if g.ring != ring:
                raise RingMismatchError(f"{ring!r} vs {g.ring!r}")
            if not g.is_zero:
                polys.append(g)
        self.ring = ring
        # the first of equal generators is kept; each is hashed once
        self.gens = tuple(dict.fromkeys(polys))
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

    def is_homogeneous(self):
        """Is every generator homogeneous?"""
        return all(g.is_homogeneous() for g in self.gens)

    def contains(self, f):
        if isinstance(f, (int, Fraction)):
            f = self.ring.const(f)
        if f.is_zero:
            return True
        if f.ring != self.ring:
            raise RingMismatchError(f"{self.ring!r} vs {f.ring!r}")
        return self.groebner().contains(f)

    def contains_ideal(self, other):
        _same_ring(self, other)
        if other.is_zero:
            return True
        gb = self.groebner()
        return all(gb.contains(g) for g in other.gens)

    @property
    def is_zero(self):
        return not self.gens

    def is_unit(self):
        if not self.gens:
            return False
        if self.is_homogeneous():
            # a homogeneous ideal without a nonzero constant lies in the
            # ideal of the variables
            return any(total_degree(g) == 0 for g in self.gens)
        return self.groebner().is_unit


def zero_ideal(ring):
    return Ideal(ring, ())


def unit_ideal(ring):
    return Ideal(ring, (ring.one,))


def _same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring!r} vs {b.ring!r}")


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
    forms = _distinct_forms(_product_forms(a.ring, a.gens, b.gens, DEFAULT_ORDER))
    return Ideal(a.ring, _interreduce_forms(a.ring, forms, DEFAULT_ORDER))


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


def _interreduce_forms(ring, forms, order):
    # trim distinct integer forms without changing the ideal they span:
    # each is normal-formed against those already kept
    if len(forms) > _INTERREDUCE_NF_CAP:
        return [_monic_poly(ring, *form) for form in forms]
    forms.sort(key=lambda form: order.key(form[0]))
    p = _char(ring)
    kept = []
    table = DivisorTable((), order)
    for lead_exps, lead, tail in forms:
        work = {e: -c for e, c in tail}
        work[lead_exps] = lead
        r, _ = _reduce(work, 1, table, p)
        if r:
            kept.append(_monic_poly(ring, *_add_remainder(table, r, ring.field)))
    return kept


def _fresh_name(taken, base):
    # base, or base0, base1, ...: the first not among the names taken
    name = base
    k = 0
    while name in taken:
        name = f"{base}{k}"
        k += 1
    return name


def _lift(f, ext, offset, nold):
    # embed f, placing old variable i at position offset + i of ext
    pre = (0,) * offset
    post = (0,) * (ext.nvars - offset - nold)
    return Polynomial(ext, {pre + e + post: c for e, c in f.terms.items()})


def intersection(a, b):
    """a ∩ b: the minimal lcms of two monomial ideals, else the
    auxiliary-variable elimination construction."""
    _same_ring(a, b)
    ring = a.ring
    if a.is_zero or b.is_zero:
        return zero_ideal(ring)
    if a.is_unit():
        return b
    if b.is_unit():
        return a
    ea = _monomial_exps(a.gens)
    eb = _monomial_exps(b.gens)
    if ea is not None and eb is not None:
        lcms = [_exps_lcm(e, f) for e in ea for f in eb]
        return Ideal(ring, _monomials(ring, minimal_exponents(lcms)))
    tname = _fresh_name(ring.variables, "t")
    ext = PolyRing((tname,) + ring.variables, ring.field)
    n = ring.nvars
    t = ext.var(tname)
    one_minus_t = ext.one - t
    gens = [t * _lift(f, ext, 1, n) for f in a.gens]
    gens += [one_minus_t * _lift(g, ext, 1, n) for g in b.gens]
    return eliminate(Ideal(ext, gens), [tname])


def _quotients(polys, g):
    # the exact quotients h/g of the multiples h of g
    out = []
    for h in polys:
        qs, rem = divide(h, [g], with_quotients=True)
        if not rem.is_zero:
            raise ArithmeticError(
                "member of an intersection with (g) must divide by g"
            )
        out.append(qs[0])
    return out


def colon(a, b):
    """a : b, read off one syzygy run over the generators of b outside a.

    Results are memoized on a, keyed by b's generators.  The generator
    lists are those of the per-generator elimination construction; see
    the module docstring.
    """
    _same_ring(a, b)
    if b.is_zero:
        raise ValueError("colon by the zero ideal")
    key = ("colon", b.gens)
    result = a._cache.get(key)
    if result is None:
        result = a._cache[key] = _colon(a, b)
    return result


def _colon(a, b):
    ring = a.ring
    if a.is_zero:
        return zero_ideal(ring)
    outside = [g for g in b.gens if not a.contains(g)]
    if not outside:
        return unit_ideal(ring)
    if _monomial_exps(a.gens + tuple(outside)) is not None:
        # monomial pieces a : (g) meet in their minimal lcms
        result = None
        for g in outside:
            meet = intersection(a, Ideal(ring, (g,)))
            piece = Ideal(ring, _quotients(meet.gens, g))
            result = piece if result is None else intersection(result, piece)
        return result
    gb = a.groebner()
    constant = any(not total_degree(g) for g in outside)
    if constant or (
        a.is_homogeneous()
        and b.is_homogeneous()
        and _has_nonzerodivisor(gb, outside)
    ):
        basis = gb  # a : b = a
    else:
        basis = GroebnerBasis(ring, DEFAULT_ORDER, _syzygy_colon(gb, outside))
    if len(outside) > 1:
        result = Ideal(ring, basis.polys)
    else:
        # the one piece (a ∩ (g))/g, where a ∩ (g) is a itself for a
        # constant g and g·(a : g) otherwise
        (g,) = outside
        meet = a.gens if constant else _reduced_multiple(basis, g)
        result = Ideal(ring, _quotients(meet, g))
    result._gb[DEFAULT_ORDER] = basis
    return result


def _syzygy_colon(gb, outside):
    # the reduced basis of a : (g_1, ..., g_k), a with reduced basis gb:
    # the e_0-elements of the reduced basis of the module spanned by
    # e_0 + sum e_i·g_i and the e_i·gb, in the encoding the module
    # docstring describes
    ring = gb.ring
    n = ring.nvars
    k = len(outside)
    taken = set(ring.variables)
    names = []
    for i in range(k + 1):
        names.append(_fresh_name(taken, f"e{i}"))
        taken.add(names[-1])
    ext = PolyRing(tuple(names[1:]) + (names[0],) + ring.variables, ring.field)
    comps = ext.gens()[: k + 1]
    e0 = comps[k]
    gens = [e * _lift(h, ext, k + 1, n) for e in comps for h in gb.polys]
    gens.append(
        sum((e * _lift(g, ext, k + 1, n) for e, g in zip(comps, outside)), e0)
    )
    run = buchberger(
        gens, BlockElimination(k), _reduced=len(gens) - 1, _module=k + 1
    )
    return [
        Polynomial(ring, {e[k + 1:]: c for e, c in p.terms.items()})
        for p in run
        if not any(any(e[:k]) for e in p.terms)
    ]


def _has_nonzerodivisor(gb, polys):
    # is one of the homogeneous polys, all outside the homogeneous ideal
    # a with reduced basis gb, a nonzerodivisor modulo a?  For g of
    # degree d the sequence 0 -> R/(a:g)(-d) -> R/a -> R/(a+g) -> 0 is
    # exact, so N_{a+(g)} = N_a - s^d·N_{a:g}; as a lies in a : g, g is
    # a nonzerodivisor exactly when N_{a+(g)} = (1 - s^d)·N_a.  The
    # basis of a + (g) grows from gb, which is reduced already.
    num = _numerator(gb.lead_exps)
    for g in polys:
        grown = buchberger(gb.polys + (g,), gb.order, _reduced=len(gb))
        got = _numerator(GroebnerBasis(gb.ring, gb.order, grown).lead_exps)
        shifted = [0] * total_degree(g) + num
        want = [c - s for c, s in zip_longest(num, shifted, fillvalue=0)]
        if all(c == w for c, w in zip_longest(got, want, fillvalue=0)):
            return True
    return False


def _reduced_multiple(gb, g):
    # the reduced basis of g·a, from the reduced basis gb of a: the
    # products g·h are a Groebner basis already, with minimal leads
    forms = list(_product_forms(gb.ring, (g,), gb.polys, gb.order))
    return _reduce_basis(gb.ring, forms, gb.order, {})


def saturation(a, b, budget=None):
    """(a : b^infinity, number of colon steps until the chain is stable)."""
    budget = budget or _ACTIVE_BUDGET.get()
    current = a
    for steps in range(budget.saturation_cap + 1):
        nxt = colon(current, b)
        # current lies in current : b, so only the other inclusion can fail
        if current.contains_ideal(nxt):
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
    # both blocks are nonempty, so the getter returns tuples
    take = itemgetter(*[ring.var_index(v) for v in ext.variables])
    k = len(first)
    gens = [
        Polynomial(ext, {take(e): c for e, c in g.terms.items()})
        for g in a.gens
    ]
    gb = buchberger(gens, BlockElimination(k))
    target = PolyRing(tuple(keep), ring.field)
    out = []
    for p in gb:
        if not any(any(e[:k]) for e in p.terms):
            out.append(Polynomial(target, {e[k:]: c for e, c in p.terms.items()}))
    return Ideal(target, out)


def radical_membership(f, a):
    """Is f in the radical of a·R_m?

    Exactly when a : f^∞ ⊄ m, that is, when some generator of
    (a + (1 - z·f)) ∩ k[x] = a : f^∞ has a nonzero constant term.
    """
    ring = a.ring
    if isinstance(f, (int, Fraction)):
        f = ring.const(f)
    if f.ring != ring:
        raise RingMismatchError(f"{ring!r} vs {f.ring!r}")
    if f.is_zero:
        return True
    if a.contains(f):
        return True
    zname = _fresh_name(ring.variables, "z")
    ext = PolyRing(ring.variables + (zname,), ring.field)
    n = ring.nvars
    z = ext.var(zname)
    gens = [_lift(g, ext, 0, n) for g in a.gens]
    gens.append(ext.one - z * _lift(f, ext, 0, n))
    origin = (0,) * n
    sat = eliminate(Ideal(ext, gens), [zname])
    return any(origin in g.terms for g in sat.gens)
