"""Buchberger engine and the ideal-operation suite.

Buchberger's algorithm with the Gebauer-Möller criteria is enough at
desk scale (2-4 variables, generators of modest degree), and a small
kernel is easier to certify than a clever one.  Everything is
deterministic: a fixed S-pair strategy, canonical sorting of reduced
bases, no randomness.  Iterative loops run under a budget; exceeding it
raises ResourceBudgetError rather than returning a silently truncated
answer.

The kernel packs each monomial x^e into one int M = K·2^S + P, in a
`_Layout` fixed once per run (Bachmann-Schönemann, "Monomial
representations for Gröbner bases computations", ISSAC 1998).

- P holds e_i in field i and the total degree in field n, each field at
  least 31 bits wide under a guard bit.
- K is the order key as one int.  ring.py gives every key as a tuple of
  linear functionals, so the layout reads the key of each unit vector
  once, and K is the key tuple as the digits of one number in a radix
  wider than any difference of two digits: it compares as the tuple
  does, and K(a + b) = K(a) + K(b).
- So monomials compare as their ints, x^a·x^b is M_a + M_b, and a
  quotient one subtraction.  x^a divides x^b exactly when
  ((M_b | G) - M_a) & G = G, G the mask of the guard bits: a field
  keeps its guard bit exactly when b_i >= a_i, and no borrow leaves a
  field.  An lcm takes, field by field, the larger one this test marks.
- The field width is picked from a run's inputs by `_pack` or
  `_layout`, and a finished basis is relaid wider only by
  `GroebnerBasis.fit`, for an operand of higher degree; `_moved` is the
  one map between layouts.  An exponent or degree that outgrows the
  width raises ExponentOverflowError and never wraps: it is checked
  where terms are packed, and where a product, an S-polynomial or a
  reduction step adds two monomials, whose sum then sets a guard bit.

Division reads its divisors from a table of their integer forms (see
`_Packed`): each divisor's lead degree, lead, index, leading coefficient
and tail, sorted on (lead degree, lead, index).  Every table is built
from `_Packed` forms.  A basis prepares its table once and reuses it for
every division: the growing basis of `buchberger`, the minimal basis in
`_reduce_basis`, the kept list of `_interreduce_forms` and a finished
`GroebnerBasis` each hold one.  A table memoizes the first divisor of
each monomial it has been asked about, so a monomial met again in a
later S-polynomial is not looked up again.  `divide` packs a list of
polynomials, with the dividend, once per call, and fits a
`GroebnerBasis` to the dividend, as every helper fits a basis to the
polynomial it packs against it (Cox-Little-O'Shea, Ideals, Varieties,
and Algorithms, ch. 2 §3).

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
S-pair reductions, and the tail reductions of `_reduce_basis` and
`_interreduce_forms`.  `buchberger` maps polynomials to the reduced
basis, and the `_Packed` forms of one layout to those of the minimal
basis, whose tails only `_reduce_basis` reduces: the Lazard leads, the
nonzerodivisor certificate and the reduction step read only leads or
membership, and the colon reduces only the elements it returns.  A
`GroebnerBasis` keeps the reduced forms of its run, and the colon and
the certificate start their runs from them.

Pairs are kept by the Gebauer-Möller update (Gebauer-Möller, "On an
installation of Buchberger's algorithm", J. Symbolic Comput. 6, 1988;
Becker-Weispfenning, Gröbner Bases, §5.5).  When element t joins, the
pairs (i, t) with i active are sorted by lcm.  A pair goes when another
one's lcm properly divides its lcm (M).  Of pairs with one lcm at most
one stays (F), and none when one of them has coprime leads or two
single terms, whose S-polynomial reduces to zero.  A queued pair (i, j)
goes when the lead of t divides its lcm and neither lcm(i, t) nor
lcm(j, t) equals it (B).  Last, the active elements whose lead the lead
of t divides leave the active set.

Monomial ideals never reach the S-pair loop.  When every generator is a
single term, the reduced basis is the set of minimal generators with
coefficient one: the S-polynomial of two monomials is zero, so those
generators are already a Groebner basis, and reduced because no lead
divides another term of the basis (Cox-Little-O'Shea, ch. 2 §4).  The
basis is unique, so it is the one the S-pair loop would return.
`buchberger` keeps the minimal leads, found in one pass by ascending
degree, as `minimal_exponents` finds minimal tuples.  Products and
powers of monomial ideals add exponents and minimalize once by
`minimal_exponents`, with no polynomial arithmetic.  Products of other
ideals multiply the packed integer forms of their generators, and
`_interreduce_forms` takes one primitive form per product.  The
Hilbert numerator of a monomial ideal, `_numerator`, is swept one
variable at a time down to a closed form in two variables; its slices
are minimalized by the same pass, unsorted.

`buchberger`'s private `_degree` stops the S-pair loop of homogeneous
generators at a degree D.  Their S-polynomials and remainders are
homogeneous of the pair's lcm degree, and the pairs go by ascending lcm
degree, so the loop leaves exactly the elements of degree at most D of
the minimal basis, which divide a homogeneous polynomial of degree at
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
  The e_i·h are the packed forms of a's basis, each term moved up past
  the component fields and shifted by the one add of e_i.
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
construction, which met the pieces (a ∩ (g))/g in b's order.  Reduced
bases are unique, so two or more outside generators give the reduced
basis of a : b, as the eliminated meets did, and one outside g gives
the reduced basis of g·(a : g) divided by g, as its single piece did.
Three exact shortcuts run in front of the syzygy run, in this order,
and return the same lists.

- Constants.  A constant generator outside a gives a : b = a; alone it
  gives a's own generators divided by it, since a ∩ (g) is a.
- Monomial ideals.  When a and every outside generator are single
  terms, the piece a : (c·x^m) is the minimal max(e - m, 0) over the
  exponents e of a, with coefficient 1/c (Cox-Little-O'Shea, ch. 4
  §4), and several pieces meet in their minimal lcms, with
  coefficient 1.  Both run on exponent tuples, with no syzygy run and
  no division.
- Nonzerodivisors.  For homogeneous a and b, a generator g of degree d
  is a nonzerodivisor modulo a exactly when the Hilbert numerators
  satisfy N_{a+(g)} = (1 - s^d)·N_a: the sequence
  0 -> R/(a:g)(-d) -> R/a -> R/(a+g) -> 0 is exact, and a ⊆ a : g
  (Bruns-Herzog, Cohen-Macaulay Rings, ch. 4).  The basis of a + (g)
  grows from the packed forms of the reduced basis of a, with no pair
  queued among them.  An outside g with g^2 in a is nilpotent modulo
  a, so a zero divisor, and runs no basis.  Then a : b = a.  Reading
  a Hilbert series to spare Groebner work follows Traverso, "Hilbert
  functions and the Buchberger algorithm", J. Symbolic Comput. 22
  (1996).
- Each colon is memoized on its dividend's `_cache`, keyed by the
  divisor's generators, like the powers.
"""

from __future__ import annotations

import bisect
from contextvars import ContextVar
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from itertools import zip_longest
from math import gcd, lcm
from operator import add, itemgetter, le, mul, sub

from .errors import (
    ExponentOverflowError,
    FrozenValue,
    ResourceBudgetError,
    RingMismatchError,
)
from .ring import (
    DEFAULT_ORDER,
    BlockElimination,
    PolyRing,
    Polynomial,
    PrimeField,
    poly_str,
    total_degree,
)


class ResourceBudget(FrozenValue):
    """Caps for the iterative algorithms; see REESLAB_BUDGET in the CLI."""

    max_basis: int = 5000
    max_pairs: int = 200000


BUDGET = ResourceBudget()

# the budget of the current run, read where no budget is passed; the
# CLI sets it for one invocation and resets it afterwards
_ACTIVE_BUDGET = ContextVar("reeslab_budget", default=BUDGET)


class _Layout:
    """The packing of one run's monomials into ints; see the module docstring.

    Each field has `bits` value bits under a guard bit.  `units` holds
    the packed unit vectors, so x^e packs as sum(e_i·units[i]).
    """

    __slots__ = (
        "order", "bits", "limit", "fmask", "width", "dshift",
        "guards", "exps", "shifts", "units",
    )

    def __init__(self, nvars, order, bits):
        width = bits + 1
        self.order = order
        self.bits = bits
        self.limit = 1 << bits  # every exponent and degree stays below it
        self.fmask = self.limit - 1
        self.width = width
        self.dshift = nvars * width
        pbits = self.dshift + width
        self.guards = sum(self.limit << (j * width) for j in range(nvars + 1))
        self.exps = sum(self.fmask << (i * width) for i in range(nvars))
        self.shifts = range(0, self.dshift, width)
        keys = [
            order.key((0,) * i + (1,) + (0,) * (nvars - 1 - i))
            for i in range(nvars)
        ]
        # digits of a key stay below span·limit in size, so their
        # differences below the radix 2^rbits
        span = max(abs(c) for k in keys for c in k)
        rbits = bits + 1 + span.bit_length()
        self.units = [
            (sum(c << (rbits * j) for j, c in enumerate(reversed(k))) << pbits)
            + (1 << (i * width))
            + (1 << self.dshift)
            for i, k in enumerate(keys)
        ]

    def overflow(self):
        return ExponentOverflowError(
            f"an exponent or degree reached 2^{self.bits}, the field width of "
            "this Groebner run"
        )

    def pack(self, e):
        if sum(e) >= self.limit:
            raise self.overflow()
        return sum(map(mul, e, self.units))

    def unpack(self, m):
        fmask = self.fmask
        return tuple(m >> s & fmask for s in self.shifts)

    def degree(self, m):
        return m >> self.dshift & self.fmask

    def lcm(self, a, b):
        # the exponent fields of lcm(x^a, x^b), with no degree or key:
        # field by field the larger, where the guard test marks it
        guards = self.guards
        wider = ((((a | guards) - b) & guards) >> self.bits) * self.fmask
        return (a & wider | b & ~wider) & self.exps

    def key(self, x):
        # the packed monomial of the exponent fields x
        return self.pack(self.unpack(x))


_layouts = lru_cache(maxsize=256)(_Layout)


def _bits(top):
    # the value bits for inputs of degree at most `top`: at least 31, and
    # two more than `top` needs
    return max(31, top.bit_length() + 2)


def _layout(nvars, order, top=0):
    return _layouts(nvars, order, _bits(top))


def _top(polys):
    # the highest total degree of a term of the polys, 0 for none
    return max((sum(e) for g in polys for e in g.terms), default=0)


class _Packed:
    """Integer forms (lead, L, tail) of one ring in one layout.

    The form stands for L·x^lead - sum c·x^e over (e, c) in the tail:
    primitive with L > 0 over Q, monic over GF(p).  It is what a packed
    `buchberger` run reads and returns.
    """

    __slots__ = ("ring", "layout", "forms")

    def __init__(self, ring, layout, forms):
        self.ring = ring
        self.layout = layout
        self.forms = forms

    def __len__(self):
        return len(self.forms)


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


def _minimal_leads(leads, layout):
    # the packed leads no other lead divides, ascending in the order, by
    # the pass of `_minimal`: a proper divisor has a lower degree
    guards = layout.guards
    kept = []
    same = []  # kept leads of the current degree
    deg = -1
    for d, m in sorted([(layout.degree(m), m) for m in leads]):
        if d != deg:
            kept += same
            same = []
            deg = d
        m_guarded = m | guards
        for k in kept:
            if (m_guarded - k) & guards == guards:
                break
        else:
            same.append(m)
    return sorted(kept + same)


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


def _form(nums, field):
    # the integer form of the nonzero int polynomial `nums`: primitive
    # with L > 0 over Q, monic over GF(p)
    lead = max(nums)
    if isinstance(field, PrimeField):
        p = field.p
        lc = nums[lead]
        inv = 1 if lc == 1 else field.invert(lc)
        return lead, 1, tuple((e, -n * inv % p) for e, n in nums.items() if e != lead)
    content = gcd(*nums.values())
    if nums[lead] < 0:
        content = -content
    return lead, nums[lead] // content, tuple(
        (e, -(n // content)) for e, n in nums.items() if e != lead
    )


def _nums(g, layout):
    # the coefficients of g as ints, packed: g's own over GF(p), g times
    # the lcm of its denominators over Q
    pack = layout.pack
    if _char(g.ring):
        return {pack(e): c for e, c in g.terms.items()}
    den = lcm(*(c.denominator for c in g.terms.values()))
    return {pack(e): c.numerator * (den // c.denominator) for e, c in g.terms.items()}


def _poly_form(g, layout):
    # the integer form of the nonzero polynomial g
    if len(g.terms) == 1:
        (e,) = g.terms
        return layout.pack(e), 1, ()
    return _form(_nums(g, layout), g.ring.field)


def _pack(ring, order, polys, top=0):
    # the forms of the nonzero polys, in a layout that fits them and
    # terms of degree `top`; every poly, zero or not, must be of `ring`
    for g in polys:
        if g.ring != ring:
            raise RingMismatchError(f"{ring!r} vs {g.ring!r}")
    polys = [g for g in polys if not g.is_zero]
    layout = _layout(ring.nvars, order, max(top, _top(polys)))
    return _Packed(ring, layout, [_poly_form(g, layout) for g in polys])


def _moved(forms, src, dst, drop=0, pad=0):
    # the integer forms of layout src relaid in dst, every exponent tuple
    # without its first `drop` fields and after `pad` zero fields
    zeros = (0,) * pad
    unpack = src.unpack
    pack = dst.pack

    def move(m):
        return pack(zeros + unpack(m)[drop:])

    return [
        (move(lead), L, tuple((move(e), c) for e, c in tail))
        for lead, L, tail in forms
    ]


def _terms(form):
    # the int polynomial {monomial: coefficient} of an integer form
    lead, L, tail = form
    nums = {e: -c for e, c in tail}
    nums[lead] = L
    return nums


def _multiply(a, b, layout, p):
    # the product of two nonzero int polynomials, zero terms dropped
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            out[e] = out.get(e, 0) + ca * cb
    if any(e & layout.guards for e in out):
        raise layout.overflow()
    if p:
        out = {e: c % p for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def _monic_poly(ring, layout, form):
    # the monic polynomial of an integer form
    lead, L, tail = form
    unpack = layout.unpack
    terms = {unpack(lead): ring.field.one}
    p = _char(ring)
    for e, c in tail:
        terms[unpack(e)] = -c % p if p else Fraction(-c, L)
    return Polynomial(ring, terms)


def _polys(ring, layout, forms):
    return [_monic_poly(ring, layout, form) for form in forms]


def _distinct_forms(forms):
    # the integer forms, keeping the first of several scalar multiples
    kept = []
    seen = set()
    for lead, L, tail in forms:
        mark = (lead, L, frozenset(tail))
        if mark not in seen:
            seen.add(mark)
            kept.append((lead, L, tail))
    return kept


class _DivisorTable:
    """The leading data of integer forms, prepared once for many divisions.

    `entries` holds one tuple (lead degree, lead, index, L, tail) per
    form of the table's `layout`, in the notation of `_Packed`.  They
    stay sorted on (lead degree, lead, index): a packed lead compares as
    the order does, so low-degree leads come first and the scan in
    `_reduce` can stop at the first lead of higher degree than the term
    it reduces.  The index is the form's position in the list it came
    from, by default its place in `forms`; `insert` gives each new form
    the next index, so a table grown one form at a time has the order of
    a table built over the whole list at once.

    A table is only ever grown, so the first divisor of a monomial can
    only move to an entry inserted later.  `log` lists the inserted
    entries in the order they came, and `memo` maps each packed monomial
    `_reduce` has looked up to (len(log) then, its first entry or None).
    A later lookup re-checks only the entries logged since, and keeps the
    least (lead degree, lead, index) that divides: the first divisor of
    a scan over the whole table.
    """

    __slots__ = ("ring", "layout", "entries", "log", "memo")

    def __init__(self, ring, layout, forms=(), index=None):
        self.ring = ring
        self.layout = layout
        degree = layout.degree
        self.entries = sorted(
            (degree(lead), lead, i, L, tail)
            for i, (lead, L, tail) in zip(index or range(len(forms)), forms)
        )
        self.log = []
        self.memo = {}

    def insert(self, lead, L, tail):
        entry = (self.layout.degree(lead), lead, len(self.entries), L, tail)
        bisect.insort(self.entries, entry)
        self.log.append(entry)


def _add_remainder(table, r, field):
    # append the divisor whose int numerators are the remainder r, and
    # return its integer form
    form = _form(r, field)
    table.insert(*form)
    return form


def _reduce(work, s, table, p, quotients=None):
    # Reduce work/s by the table, consuming `work`: integer coefficients
    # over one common denominator s (1 over GF(p)).  Returns (remainder,
    # s), the remainder as int numerators over the final s, its terms in
    # descending order.  A term c*x^a is reduced by the integer form g~
    # of its divisor, with lead L: with h = gcd(c, L), `work`, the
    # remainder and s are all multiplied by L/h, which leaves work/s
    # unchanged, and then (c/h)*x^shift*g~ is subtracted, which cancels
    # the term exactly.  Over GF(p), L is 1 and every coefficient is read
    # modulo p when its term is reached.  A reduction records its factor,
    # the quotient term by g~, in `quotients` when given, one dict per
    # table index.
    layout = table.layout
    guards = layout.guards
    dshift = layout.dshift
    fmask = layout.fmask
    entries = table.entries
    log = table.log
    inserts = len(log)  # no form joins the table during one reduction
    memo = table.memo
    # a max-heap of the monomials of `work`, each once: a reduction only
    # adds terms below the one it reduces, which are not yet popped
    heap = [-m for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if p:
            c %= p
        if not c:
            continue
        m_guarded = m | guards
        seen = memo.get(m)
        if seen is None:
            first = None
            deg = m >> dshift & fmask
            for entry in entries:
                if entry[0] > deg:
                    break
                if (m_guarded - entry[1]) & guards == guards:
                    first = entry
                    break
            memo[m] = inserts, first
        else:
            since, first = seen
            if since < inserts:
                # only forms inserted since can come before `first`
                for entry in log[since:]:
                    if (m_guarded - entry[1]) & guards == guards and (
                        first is None or entry < first
                    ):
                        first = entry
                memo[m] = inserts, first
        if first is None:
            remainder[m] = c
            continue
        _, lead, idx, L, tail = first
        shift = m - lead
        if L != 1:
            h = gcd(c, L)
            f = L // h
            c //= h
            if f != 1:
                s *= f
                for e in work:
                    work[e] *= f
                for e in remainder:
                    remainder[e] *= f
        if quotients is not None:
            quotients[idx][shift] = c if p else Fraction(c, s)
        for e, tc in tail:
            e += shift
            if e & guards:
                raise layout.overflow()
            old = work.get(e)
            if old is None:
                work[e] = c * tc
                heappush(heap, -e)
            else:
                work[e] = old + c * tc
    return remainder, s


def divide(f, divisors, order=DEFAULT_ORDER, with_quotients=False):
    """Multivariate division: f = sum(q_i * divisors[i]) + remainder.

    `divisors` is a list of polynomials of f's ring, packed once at the
    top of the call in a layout that fits f too, or a `GroebnerBasis` of
    f's ring for the same order, whose divisors are its monic
    polynomials, read from the table of the basis fitted to f.  Each
    term is reduced by the first divisor in (lead degree, order of the
    lead, index) order whose lead divides it.  A zero divisor keeps its
    index, and its quotient is zero.  No remainder term is divisible by
    the leading term of any divisor.  Quotients are tracked only on
    request; the first return value is None otherwise.  Candidate terms
    live in a max-heap of their packed monomials.

    The arithmetic is on ints, for both fields.  The working polynomial
    is kept as `work`/s: integer coefficients over one common
    denominator s, which starts as the lcm of f's denominators (1 over
    GF(p)).  Each reduction step scales `work` and s by the same factor
    and then cancels one term exactly (see `_reduce`), so work/s is
    always f minus the quotients found so far times their divisors, and
    a term that no lead divides leaves as the exact remainder
    coefficient over the final s.  A divisor g with lead coefficient lc
    is divided by as its integer form (L/lc)·g, so each quotient is
    scaled by L/lc once, as it leaves.
    """
    ring = f.ring
    top = _top([f])
    if isinstance(divisors, GroebnerBasis):
        if divisors.order != order:
            raise ValueError(
                f"basis prepared for {divisors.order!r}, not {order!r}"
            )
        if divisors.ring != ring:
            raise RingMismatchError(f"{ring!r} vs {divisors.ring!r}")
        table = divisors.fit(top).table
        polys = None
        size = len(table.entries)
    else:
        polys = list(divisors)
        packed = _pack(ring, order, polys, top)
        index = [i for i, g in enumerate(polys) if not g.is_zero]
        table = _DivisorTable(ring, packed.layout, packed.forms, index)
        size = len(polys)
    if not table.entries:
        return ([ring.zero] * size if with_quotients else None), f
    p = _char(ring)
    quotients = [{} for _ in range(size)] if with_quotients else None
    s = lcm(*(c.denominator for c in f.terms.values()))
    remainder, s = _reduce(_nums(f, table.layout), s, table, p, quotients)
    unpack = table.layout.unpack
    if not p:
        remainder = {m: Fraction(c, s) for m, c in remainder.items()}
    rem = Polynomial(ring, {unpack(m): c for m, c in remainder.items()})
    if not with_quotients:
        return None, rem
    field = ring.field
    for _, lead, idx, L, _ in table.entries:
        kappa = L
        if polys is not None:
            lc = polys[idx].terms[unpack(lead)]
            if lc != field.one:
                kappa = L * field.invert(lc)
        quotients[idx] = {
            unpack(m): c * kappa % p if p else c * kappa
            for m, c in quotients[idx].items()
        }
    return [Polynomial(ring, q) for q in quotients], rem


def buchberger(
    gens, order=DEFAULT_ORDER, budget=None, _degree=None, _reduced=0, _module=0
):
    """Groebner basis of the ideal spanned by the generators.

    Polynomials in, the monic reduced basis out, ascending in the order;
    the `_Packed` forms of a layout for `order` in, the `_Packed` forms
    of the minimal basis out, ascending in the order: one element per
    minimal lead, its tail not reduced.  Its leads are those of the
    reduced basis, and it divides as any Groebner basis does, so a caller
    that reads only leads or membership skips the tail reductions;
    `_reduce_basis` makes the reduced basis of it.  Single-term
    generators return their minimal monomials at once.  Others go
    through the S-pair loop, with the normal selection strategy: pairs
    are popped by lcm total degree, then the order of the lcm, then
    generator indices.  The pairs are kept by the Gebauer-Möller update
    of the module docstring: the M and F criteria on the new pairs,
    which drop the pairs of coprime leads and of two single terms along
    with every pair of their lcm, and the B criterion on the queued
    ones.  The S-pair budget counts the pairs queued.

    `_degree`, for homogeneous generators only, stops the loop before
    the first pair whose lcm has a higher degree; what it returns are
    the elements of degree at most `_degree` of the basis it would
    return without the cap.

    `_reduced` says that the first that many generators already form a
    minimal Groebner basis in the order, such as a cached basis grown by
    new generators: they start as the active set with no pair queued, as
    if every pair among them were treated.  Their tails need not be
    reduced.

    `_module=m` reads the generators as elements of a free module of rank
    m: the first m variables stand for its basis vectors, and every term
    holds exactly one of them, once.  A pair whose leads lie in different
    components is never formed, since its S-vector is zero; every other
    S-polynomial and remainder stays linear in the components.

    The loop keeps each basis element as its integer form (lead, L,
    tail), the data of its divisor table entry.  The S-polynomial of
    elements i and j is built on ints as
    (L_j/h)*x^(l-a_i)*g~_i - (L_i/h)*x^(l-a_j)*g~_j, with l the lcm of
    the leads a_i, a_j and h = gcd(L_i, L_j): a positive multiple of the
    S-polynomial of the monic elements, so it has the same remainder up
    to that scalar.  A nonzero remainder enters the table as its
    primitive (over GF(p), monic) form.
    """
    packed = gens
    if not isinstance(gens, _Packed):
        gens = [g for g in gens if not g.is_zero]
        if not gens:
            return []
        packed = _pack(gens[0].ring, order, gens)
    ring = packed.ring
    layout = packed.layout
    basis = packed.forms
    if any(tail for _, _, tail in basis):
        basis = _distinct_forms(basis)  # integer forms, by index
        _pair_loop(ring, layout, basis, budget, _degree, _reduced, _module)
    if _degree is not None:
        basis = [form for form in basis if layout.degree(form[0]) <= _degree]
    forms = _minimal_basis(basis, layout)
    if packed is gens:
        return _Packed(ring, layout, forms)
    return _polys(ring, layout, _reduce_basis(ring, forms, layout))


def _pair_loop(ring, layout, basis, budget, cap, reduced, module):
    # the S-pair loop over the forms in `basis`, which it extends; see
    # `buchberger`
    budget = budget or _ACTIVE_BUDGET.get()
    cap = float("inf") if cap is None else cap
    p = _char(ring)
    guards = layout.guards
    exps = layout.exps
    lcm_of = layout.lcm
    components = (1 << module * layout.width) - 1  # the module's fields
    table = _DivisorTable(ring, layout, basis)
    active = list(range(reduced))
    heap = []  # pairs (lcm degree, lcm, i, j)
    pushes = 0

    def update(t):
        nonlocal active, heap, pushes
        lead, _, tail = basis[t]
        lcms = {}
        for i in active:
            if not (basis[i][0] ^ lead) & components:
                lcms[i] = lcm_of(basis[i][0], lead)
        # the new pairs by lcm, so a proper divisor comes first (M) and
        # equal lcms come together (F)
        minimal = []
        for l, i in sorted((l, i) for i, l in lcms.items()):
            other = basis[i]
            zero = l == (other[0] + lead) & exps or not (tail or other[2])
            if minimal and minimal[-1][0] == l:
                minimal[-1][2] |= zero
                continue
            l_guarded = l | guards
            for m, _, _ in minimal:
                if (l_guarded - m) & guards == guards:
                    break
            else:
                minimal.append([l, i, zero])

        def flank(i):
            return lcms[i] if i in lcms else lcm_of(basis[i][0], lead)

        kept = [
            pair
            for pair in heap
            if ((pair[1] | guards) - lead) & guards != guards
            or flank(pair[2]) == pair[1] & exps
            or flank(pair[3]) == pair[1] & exps
        ]
        if len(kept) < len(heap):
            heap = kept
            heapify(heap)
        for l, i, zero in minimal:
            if not zero:
                m = layout.key(l)
                heappush(heap, (layout.degree(m), m, i, t))
                pushes += 1
        if pushes > budget.max_pairs:
            raise ResourceBudgetError(
                f"S-pair budget {budget.max_pairs} exceeded; "
                "raise REESLAB_BUDGET pairs=N"
            )
        active = [
            i for i in active if ((basis[i][0] | guards) - lead) & guards != guards
        ]
        active.append(t)

    for t in range(reduced, len(basis)):
        update(t)
    while heap and heap[0][0] <= cap:
        _, l, i, j = heappop(heap)
        ei, li, ti = basis[i]
        ej, lj, tj = basis[j]
        h = gcd(li, lj)
        fi = lj // h
        fj = li // h
        si = l - ei
        sj = l - ej
        work = {}
        # the tails store negated coefficients
        for e, c in ti:
            e += si
            work[e] = work.get(e, 0) - fi * c
        for e, c in tj:
            e += sj
            work[e] = work.get(e, 0) + fj * c
        if any(e & guards for e in work):
            raise layout.overflow()
        r, _ = _reduce(work, 1, table, p)
        if not r:
            continue
        basis.append(_add_remainder(table, r, ring.field))
        if len(basis) > budget.max_basis:
            raise ResourceBudgetError(
                f"basis size budget {budget.max_basis} exceeded; "
                "raise REESLAB_BUDGET basis=N"
            )
        update(len(basis) - 1)
    # every pair left, and every element it would add, lies above the
    # cap, and homogeneous division never leaves a degree, so the
    # elements through the cap are already those of the whole run


def _minimal_basis(basis, layout):
    # the integer forms of the minimal leads, the first form of each,
    # ascending by lead
    by_lead = {}
    for form in basis:
        by_lead.setdefault(form[0], form)
    return [by_lead[m] for m in _minimal_leads(by_lead, layout)]


def _reduce_basis(ring, minimal, layout):
    # the reduced basis of the integer forms of a minimal basis, in its
    # order: every tail reduced against one table of the basis.  An
    # element may stay in the table its own tail is reduced against,
    # because no term below a lead is divisible by it
    if len(minimal) < 2 or not any(tail for _, _, tail in minimal):
        return minimal
    table = _DivisorTable(ring, layout, minimal)
    p = _char(ring)
    reduced = []
    for lead, L, tail in minimal:
        r, s = _reduce({e: -c for e, c in tail}, 1, table, p)
        # the monic element's reduced tail is r/(s*L)
        r[lead] = s * L
        reduced.append(_form(r, ring.field))
    return reduced


class GroebnerBasis:
    """A reduced basis with its order; iterates over the polynomials.

    `run` holds the `_Packed` integer forms of the run that made it.
    The lead exponents, the polynomials and the divisor table are each
    built on first use, so a basis that only lends its leads, like those
    of the Hilbert numerators, builds no table, and the minimal basis of
    a reduction step, which only divides, unpacks no lead.
    """

    def __init__(self, ring, order, run):
        self.ring = ring
        self.order = order
        self.run = run

    @cached_property
    def lead_exps(self):
        unpack = self.run.layout.unpack
        return tuple(unpack(form[0]) for form in self.run.forms)

    @cached_property
    def polys(self):
        run = self.run
        return tuple(_polys(run.ring, run.layout, run.forms))

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.run)

    @cached_property
    def table(self):
        run = self.run
        return _DivisorTable(run.ring, run.layout, run.forms)

    def fit(self, top):
        # this basis when its layout holds terms of degree `top`, else a
        # copy relaid wide enough; the basis keeps its own layout
        run = self.run
        if _bits(top) <= run.layout.bits:
            return self
        layout = _layout(self.ring.nvars, self.order, top)
        forms = _moved(run.forms, run.layout, layout)
        return GroebnerBasis(self.ring, self.order, _Packed(self.ring, layout, forms))

    def normal_form(self, f):
        return divide(f, self, self.order)[1]

    def contains(self, f):
        if f.is_zero:
            return True
        return self.normal_form(f).is_zero

    @property
    def is_unit(self):
        # a reduced basis of the unit ideal is exactly [1]
        return bool(self.lead_exps) and not any(self.lead_exps[0])


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
            run = buchberger(_pack(self.ring, order, self.gens), order)
            run.forms = _reduce_basis(self.ring, run.forms, run.layout)
            gb = self._gb[order] = GroebnerBasis(self.ring, order, run)
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
    ring = a.ring
    top = max(map(total_degree, a.gens), default=0)
    top += max(map(total_degree, b.gens), default=0)
    layout = _layout(ring.nvars, DEFAULT_ORDER, top)
    p = _char(ring)
    left = [_nums(f, layout) for f in a.gens]
    right = [_nums(g, layout) for g in b.gens]
    forms = [
        _form(_multiply(f, g, layout, p), ring.field) for f in left for g in right
    ]
    return Ideal(ring, _interreduce_forms(ring, _distinct_forms(forms), layout))


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


def _interreduce_forms(ring, forms, layout):
    # trim distinct integer forms without changing the ideal they span:
    # each is normal-formed against those already kept
    forms.sort(key=itemgetter(0))
    p = _char(ring)
    kept = []
    table = _DivisorTable(ring, layout)
    for form in forms:
        r, _ = _reduce(_terms(form), 1, table, p)
        if r:
            kept.append(_add_remainder(table, r, ring.field))
    return _polys(ring, layout, kept)


def _fresh_name(taken, base):
    # base, or base0, base1, ...: the first not among the names taken
    name = base
    k = 0
    while name in taken:
        name = f"{base}{k}"
        k += 1
    return name


def _lift(f, ext):
    # embed f in ext, whose first variables are those of f's ring
    post = (0,) * (ext.nvars - f.ring.nvars)
    return Polynomial(ext, {e + post: c for e, c in f.terms.items()})


def _quotients(polys, g):
    # the exact quotients h/g of the multiples h of g
    out = []
    for h in polys:
        qs, rem = divide(h, [g], with_quotients=True)
        if not rem.is_zero:
            raise ArithmeticError("a multiple of g must divide by g")
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
    gb = a.groebner()
    constant = any(not total_degree(g) for g in outside)
    if not constant and _monomial_exps(outside) is not None:
        exps = _monomial_exps(a.gens)
        if exps is not None:
            return _monomial_colon(ring, exps, outside)
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


def _monomial_colon(ring, exps, outside):
    # a : (c·x^m) is the minimal max(e - m, 0) over the exponents e of
    # a, with coefficient 1/c; several pieces meet in their minimal
    # lcms, with coefficient 1
    meet = None
    for g in outside:
        ((m, c),) = g.terms.items()
        piece = _minimal([tuple(map(sub, map(max, e, m), m)) for e in exps])
        meet = piece if meet is None else _minimal(
            [tuple(map(max, u, v)) for u in meet for v in piece]
        )
    coeff = ring.field.invert(c) if len(outside) == 1 else ring.field.one
    return Ideal(
        ring, [Polynomial(ring, {e: coeff}) for e in minimal_exponents(meet)]
    )


def _syzygy_colon(gb, outside):
    # the packed reduced basis of a : (g_1, ..., g_k), a with reduced
    # basis gb: the e_0-elements of the reduced basis of the module
    # spanned by e_0 + sum e_i·g_i and the e_i·gb, in the encoding the
    # module docstring describes
    ring = gb.ring
    k = len(outside)
    taken = set(ring.variables)
    names = []
    for i in range(k + 1):
        names.append(_fresh_name(taken, f"e{i}"))
        taken.add(names[-1])
    ext = PolyRing(tuple(names[1:]) + (names[0],) + ring.variables, ring.field)
    # grevlex leads ascend in degree and lead their elements, and a
    # component adds one to every degree
    top = max([total_degree(g) for g in outside] + [sum(gb.lead_exps[-1])]) + 1
    run = gb.fit(top).run
    layout = _layout(ext.nvars, BlockElimination(k), top)
    comps = layout.units[: k + 1]  # e_1, ..., e_k, e_0
    units = layout.units[k + 1:]
    lifted = _moved(run.forms, run.layout, layout, pad=k + 1)
    forms = [
        (lead + u, L, tuple((e + u, c) for e, c in tail))
        for u in comps
        for lead, L, tail in lifted
    ]
    p = _char(ring)
    den = 1 if p else lcm(*(c.denominator for g in outside for c in g.terms.values()))
    nums = {comps[k]: den}
    for u, g in zip(comps, outside):
        for e, c in g.terms.items():
            nums[sum(map(mul, e, units)) + u] = c if p else c.numerator * (
                den // c.denominator
            )
    forms.append(_form(nums, ring.field))
    module = buchberger(
        _Packed(ext, layout, forms),
        BlockElimination(k),
        _reduced=len(forms) - 1,
        _module=k + 1,
    )
    # an element whose lead holds e_0 lies in e_0 whole, so the
    # e_0-elements of the minimal basis reduce among themselves to those
    # of the reduced basis; drop e_0, into the fields of gb fitted as
    # wide as the module's
    guards = layout.guards
    inside = [
        form
        for form in module.forms
        if ((form[0] | guards) - comps[k]) & guards == guards
    ]
    reduced = _reduce_basis(ext, inside, layout)
    return _Packed(ring, run.layout, _moved(reduced, layout, run.layout, drop=k + 1))


def _has_nonzerodivisor(gb, polys):
    # is one of the homogeneous polys, all outside the homogeneous ideal
    # a with reduced basis gb, a nonzerodivisor modulo a?  For g of
    # degree d the sequence 0 -> R/(a:g)(-d) -> R/a -> R/(a+g) -> 0 is
    # exact, so N_{a+(g)} = N_a - s^d·N_{a:g}; as a lies in a : g, g is
    # a nonzerodivisor exactly when N_{a+(g)} = (1 - s^d)·N_a.  The
    # basis of a + (g) grows from the forms of gb, which is reduced
    # already.  A g with g^2 in a is a zero divisor, and runs no basis.
    num = _numerator(gb.lead_exps)
    for g in polys:
        if _square_in(gb, g):
            continue
        run = gb.fit(total_degree(g)).run
        layout = run.layout
        grown = buchberger(
            _Packed(gb.ring, layout, run.forms + [_poly_form(g, layout)]),
            gb.order,
            _reduced=len(run),
        )
        got = _numerator([layout.unpack(form[0]) for form in grown.forms])
        shifted = [0] * total_degree(g) + num
        want = [c - s for c, s in zip_longest(num, shifted, fillvalue=0)]
        if all(c == w for c, w in zip_longest(got, want, fillvalue=0)):
            return True
    return False


def _square_in(gb, g):
    # does g^2 lie in the ideal of the reduced basis gb?  Squared on the
    # int coefficients of g, which leave membership as it is
    gb = gb.fit(2 * total_degree(g))
    layout = gb.run.layout
    p = _char(gb.ring)
    nums = _nums(g, layout)
    return not _reduce(_multiply(nums, nums, layout, p), 1, gb.table, p)[0]


def _reduced_multiple(gb, g):
    # the reduced basis of g·a, from the reduced basis gb of a: the
    # products g·h are a Groebner basis already, with minimal leads.  The
    # grevlex leads of gb ascend in degree and lead their elements
    run = gb.fit(total_degree(g) + sum(gb.lead_exps[-1])).run
    layout = run.layout
    p = _char(gb.ring)
    nums = _nums(g, layout)
    forms = [
        _form(_multiply(nums, _terms(form), layout, p), gb.ring.field)
        for form in run.forms
    ]
    return _polys(gb.ring, layout, _reduce_basis(gb.ring, forms, layout))


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

    Yes when f or f^2 lies in a.  Otherwise exactly when a : f^∞ ⊄ m,
    that is, when some generator of (a + (1 - z·f)) ∩ k[x] = a : f^∞
    has a nonzero constant term.
    """
    ring = a.ring
    if isinstance(f, (int, Fraction)):
        f = ring.const(f)
    if f.ring != ring:
        raise RingMismatchError(f"{ring!r} vs {f.ring!r}")
    if f.is_zero:
        return True
    if a.contains(f) or _square_in(a.groebner(), f):
        return True
    zname = _fresh_name(ring.variables, "z")
    ext = PolyRing(ring.variables + (zname,), ring.field)
    z = ext.var(zname)
    gens = [_lift(g, ext) for g in a.gens]
    gens.append(ext.one - z * _lift(f, ext))
    origin = (0,) * ring.nvars
    sat = eliminate(Ideal(ext, gens), [zname])
    return any(origin in g.terms for g in sat.gens)
