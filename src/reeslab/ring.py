"""Exact sparse multivariate polynomials over Q or GF(p).

Monomials are exponent tuples, a polynomial is a map from exponent tuples to
nonzero field coefficients, and every value is immutable once built.  The
ring is always read as the polynomial ring localized at the ideal generated
by all the variables; nothing here ever rounds.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FrozenValue, RingMismatchError, ZeroPolynomialError

NEG_INF = float("-inf")  # degree of the zero polynomial

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")

_QZERO = Fraction(0)
_QONE = Fraction(1)


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson-Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin; p must lie below _PRIME_BOUND."""
    if p < 2:
        return False
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField(FrozenValue):
    """Arbitrary-precision rationals."""

    @property
    def zero(self):
        return _QZERO

    @property
    def one(self):
        return _QONE

    def coerce(self, c):
        if isinstance(c, Fraction):
            return c
        if isinstance(c, int):
            return Fraction(c)
        raise TypeError(f"cannot coerce {c!r} into the rationals")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("inverting zero")
        return _QONE / a

    def __str__(self):
        return "q"


class PrimeField(FrozenValue):
    """Integers modulo a prime, elements stored as ints in [0, p)."""

    p: int

    def __post_init__(self):
        if self.p >= _PRIME_BOUND:
            raise ValueError(
                f"{self.p} is too large: primality is certified only "
                f"below {_PRIME_BOUND}"
            )
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def coerce(self, c):
        if isinstance(c, int):
            return c % self.p
        if isinstance(c, Fraction):
            den = c.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return c.numerator * pow(den, self.p - 2, self.p) % self.p
        raise TypeError(f"cannot coerce {c!r} into GF({self.p})")

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def invert(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverting zero")
        return pow(a, self.p - 2, self.p)

    def __str__(self):
        return f"f<{self.p}>"


# ---------------------------------------------------------------------------
# monomial orders
#
# Each order exposes key(exps) -> tuple such that bigger key means bigger
# monomial.  All keys are tuples of linear functionals of the exponents, so
# m1 < m2 implies m1*u < m2*u and 1 is minimal (weights are positive).


class GrevLex(FrozenValue):
    """Graded reverse lexicographic; the package default."""

    def key(self, e):
        return (sum(e),) + tuple(-x for x in reversed(e))


class Lex(FrozenValue):
    """Pure lexicographic in declaration order."""

    def key(self, e):
        return e


class BlockElimination(FrozenValue):
    """Grevlex on the first block, ties broken by grevlex on the rest.

    Any monomial touching the first block beats every monomial that does
    not, which is what elimination of the first `first_block` variables
    needs.
    """

    first_block: int

    def key(self, e):
        k = self.first_block
        a = e[:k]
        b = e[k:]
        return (
            (sum(a),)
            + tuple(-x for x in reversed(a))
            + (sum(b),)
            + tuple(-x for x in reversed(b))
        )


DEFAULT_ORDER = GrevLex()


class PolyRing:
    """K[x1..xd] with a fixed variable tuple and coefficient field."""

    __slots__ = ("variables", "field", "_index")

    def __init__(self, variables, field=None):
        variables = tuple(variables)
        if not variables:
            raise ValueError("need at least one variable")
        seen = set()
        for v in variables:
            if not _NAME_RE.match(v):
                raise ValueError(f"bad variable name {v!r}")
            if v in seen:
                raise ValueError(f"duplicate variable {v!r}")
            seen.add(v)
        self.variables = variables
        self.field = field if field is not None else RationalField()
        self._index = {v: i for i, v in enumerate(variables)}

    # rings compare structurally so cached objects from equal declarations mix
    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.variables, self.field))

    def __repr__(self):
        return f"{self.field}[{','.join(self.variables)}]"

    @property
    def nvars(self):
        return len(self.variables)

    @property
    def dim(self):
        # Krull dimension of the localization at the origin
        return len(self.variables)

    def var_index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"{name!r} is not a variable of {self!r}") from None

    @property
    def zero(self):
        return Polynomial(self, {})

    @property
    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def const(self, c):
        c = self.field.coerce(c)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, {(0,) * self.nvars: c})

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        c = self.field.coerce(coeff)
        if c == self.field.zero:
            return self.zero
        return Polynomial(self, {exps: c})

    def var(self, name):
        i = self.var_index(name)
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def gens(self):
        return [self.var(v) for v in self.variables]

    def from_terms(self, terms):
        """Build a polynomial from a {exps: coeff} map, coercing and dropping zeros."""
        out = {}
        z = self.field.zero
        for e, c in terms.items():
            c = self.field.coerce(c)
            if c != z:
                out[tuple(e)] = c
        return Polynomial(self, out)


class Polynomial:
    """Immutable sparse polynomial; do not mutate `terms` after construction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_monomial(self):
        return len(self.terms) == 1

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        # the exponents alone: equal polynomials share them, and no
        # coefficient is hashed
        return hash(frozenset(self.terms))

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        field = self.ring.field
        z = field.zero
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = field.add(out.get(e, z), c)
            if s == z:
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.ring.field.coerce(other)
            if c == self.ring.field.zero:
                return self.ring.zero
            mul = self.ring.field.mul
            return Polynomial(self.ring, {e: mul(v, c) for e, v in self.terms.items()})
        self._check(other)
        field = self.ring.field
        z = field.zero
        out = {}
        a = self.terms
        b = other.terms
        if len(a) > len(b):
            a, b = b, a
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = field.add(out.get(e, z), field.mul(ca, cb))
                if s == z:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def sorted_terms(self, order=DEFAULT_ORDER):
        """Terms as [(exps, coeff)] descending in the order."""
        key = order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def __repr__(self):
        return f"<poly {poly_str(self)}>"


def total_degree(f):
    """Maximum term degree; NEG_INF for the zero polynomial."""
    if f.is_zero:
        return NEG_INF
    return max(sum(e) for e in f.terms)


def leading_term(f, order=DEFAULT_ORDER):
    """(exponents, coefficient) of the largest term under the order."""
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial has no leading term")
    key = order.key
    e = max(f.terms, key=key)
    return e, f.terms[e]


def _coeff_str(c, allow_fractions):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return str(c.numerator)
        if not allow_fractions:
            raise ValueError(f"non-integer coefficient {c} in session text")
        return f"{c.numerator}/{c.denominator}"
    return str(c)


def poly_str(f, order=DEFAULT_ORDER, allow_fractions=True):
    """Canonical text form: grevlex-descending terms, explicit * and ^."""
    if f.is_zero:
        return "0"
    names = f.ring.variables
    parts = []
    for e, c in f.sorted_terms(order):
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        cs = _coeff_str(c, allow_fractions)
        neg = cs.startswith("-")
        if neg:
            cs = cs[1:]
        if not factors:
            body = cs
        elif cs == "1":
            body = "*".join(factors)
        else:
            body = cs + "*" + "*".join(factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)
