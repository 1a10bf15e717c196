"""Families of ideal pairs and explicitly listed filtration levels.

Two shapes of input live here.  A power family carries finitely many
certified pairs inner(l) inside outer(l) plus positive weights, and its
level m is the product of the m*weight powers.  An explicit filtration
is just a finite list of levels, checked to be decreasing and
multiplicative; nothing Noetherian is assumed about it.

Verdicts drawn from finitely many levels are observational.  A table is
evidence about the limit, not a certificate of it, and every record
produced here says which kind it is.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .asymptotics import EventualPolynomial, fit_eventual_polynomial
from .errors import (
    ContainmentError,
    FrozenValue,
    PreconditionError,
    RingMismatchError,
)
from .groebner import Ideal, ideal_power, ideal_product
from .lengths import (
    FunctionTable,
    _inside_locally,
    subquotient_length,
)
from .reduction import (
    ReductionVerdict,
    _as_consecutive,
    _require_containment,
    grade_cm,
    reduction_test,
)


class PowerFiltrationFamily:
    """Certified pairs (outer(l), inner(l)) with positive integer weights."""

    __slots__ = ("ring", "pairs", "weights")

    def __init__(self, pairs, weights=None):
        pairs = tuple(tuple(p) for p in pairs)
        if not pairs:
            raise PreconditionError("a power family needs at least one pair")
        ring = pairs[0][0].ring
        for outer, inner in pairs:
            if outer.ring != ring or inner.ring != ring:
                raise RingMismatchError(
                    "all pairs of a family must share one ring"
                )
            _require_containment(outer, inner)
        if weights is None:
            weights = (1,) * len(pairs)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(pairs):
            raise PreconditionError("one weight per pair")
        if any(w < 1 for w in weights):
            raise PreconditionError("weights must be positive integers")
        self.ring = ring
        self.pairs = pairs
        self.weights = weights

    def scaled(self, u):
        """The same pairs with every weight multiplied by u."""
        if u < 1:
            raise PreconditionError("scale factor must be positive")
        return PowerFiltrationFamily(
            self.pairs, tuple(u * w for w in self.weights)
        )

    def level(self, m, which):
        """Product of the m*weight powers of the chosen side, 0 or 1."""
        powers = [
            ideal_power(pair[which], m * w)
            for pair, w in zip(self.pairs, self.weights)
        ]
        return reduce(ideal_product, powers)


def product_power_length(family, m):
    """Length of the outer product level over the inner one at index m."""
    if m < 1:
        raise PreconditionError("level index must be positive")
    big = family.level(m, 0)
    small = family.level(m, 1)
    # pairwise containment makes the product containment automatic
    return subquotient_length(big, small, check_containment=False)


def product_power_table(family, m_range=range(1, 6)):
    ms = _as_consecutive(m_range)
    values = tuple(product_power_length(family, m) for m in ms)
    return FunctionTable(ms[0], values)


class NormalizedLimit(FrozenValue):
    values: tuple
    verdict: str
    d: int
    fit: EventualPolynomial
    basis: str = "OBSERVED"


def normalized_limit_estimate(table, d):
    """Ratios length(m)/m^d with a VANISHES/GROWS verdict from the fit.

    VANISHES when the fitted degree falls below d, GROWS when it equals
    d.  Growth above d contradicts the containment bound and is
    reported as an error rather than a verdict.  The verdict reflects
    the sampled window only.
    """
    d = int(d)
    if d < 0:
        raise PreconditionError("target dimension must be nonnegative")
    if len(table.values) < 5:
        raise PreconditionError("need at least five samples")
    if table.start < 1:
        raise PreconditionError("normalization needs positive level indices")
    values = tuple(
        Fraction(v, m**d) for m, v in zip(table.args(), table.values)
    )
    fit = fit_eventual_polynomial(table.values, table.start)
    if fit.degree > d:
        raise PreconditionError(
            f"table grows at degree {fit.degree}, above the target {d}"
        )
    verdict = "VANISHES" if fit.degree < d else "GROWS"
    return NormalizedLimit(values, verdict, d, fit)


class MultiReductionReport(FrozenValue):
    per_pair: tuple
    product: ReductionVerdict
    consistent: bool
    grade_positive: bool
    basis: str = "OBSERVED"


def multi_reduction_test(family, n_max=10):
    """Reduction verdicts pair by pair and for the weighted product pair.

    A reduction of the product forces every factor pair to be one, so a
    per-pair failure together with a product success is flagged as
    inconsistent.  The grade of the plain product of the inner ideals
    is reported because the converse direction needs it positive.
    """
    per_pair = tuple(
        reduction_test(outer, inner, n_max) for outer, inner in family.pairs
    )
    product = reduction_test(family.level(1, 0), family.level(1, 1), n_max)
    consistent = all(v.is_reduction for v in per_pair) or not product.is_reduction
    inner_product = reduce(
        ideal_product, (inner for _, inner in family.pairs)
    )
    grade_positive = grade_cm(inner_product) >= 1
    return MultiReductionReport(per_pair, product, consistent, grade_positive)


class ExplicitFiltration:
    """Finitely many levels, decreasing and multiplicative where visible.

    levels[0] is the level of index 1.  Multiplicativity is checked on
    generators for every pair of indices whose sum is still listed.
    """

    __slots__ = ("ring", "levels")

    def __init__(self, levels):
        levels = tuple(levels)
        if not levels:
            raise PreconditionError("an explicit filtration needs levels")
        ring = levels[0].ring
        for a in levels:
            if not isinstance(a, Ideal):
                raise TypeError("levels must be ideals")
            if a.ring != ring:
                raise RingMismatchError("levels must share one ring")
        for m in range(len(levels) - 1):
            if not _inside_locally(levels[m], levels[m + 1]):
                raise ContainmentError(
                    f"level {m + 2} is not inside level {m + 1}"
                )
        for i in range(1, len(levels) + 1):
            for j in range(i, len(levels) - i + 1):
                products = ideal_product(levels[i - 1], levels[j - 1])
                if not _inside_locally(levels[i + j - 1], products):
                    raise ContainmentError(
                        f"levels {i} and {j} do not multiply "
                        f"into level {i + j}"
                    )
        self.ring = ring
        self.levels = levels

    def __len__(self):
        return len(self.levels)

    def level(self, m):
        if not 1 <= m <= len(self.levels):
            raise PreconditionError(f"no level {m} is listed")
        return self.levels[m - 1]


def explicit_filtration_table(fi, fj):
    """Lengths of the level quotients over the shared index range."""
    if fi.ring != fj.ring:
        raise RingMismatchError("filtrations must share one ring")
    top = min(len(fi), len(fj))
    values = []
    for m in range(1, top + 1):
        a = fi.level(m)
        b = fj.level(m)
        if not _inside_locally(a, b):
            raise ContainmentError(
                f"level {m} of the second filtration is not inside "
                f"the first"
            )
        values.append(subquotient_length(a, b, check_containment=False))
    return FunctionTable(1, tuple(values))
