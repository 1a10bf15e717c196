"""Eventual-polynomial fits of integer tables by finite differences.

A table that is eventually polynomial of degree t has a t-th forward
difference that is eventually the nonzero constant t!·(leading
coefficient).  Fits are reported in the alternating binomial basis

    e0·C(n+t-1, t) - e1·C(n+t-2, t-1) + ... ± e_t,

the convention under which integer-valued tables carry integer top
coefficients and the normalized leading coefficient is just e0.  The
coefficients e_i = (-1)^i·(Δ^(t-i) P)(i - t) and the index where the
table starts to agree with P are read off its difference table.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import FrozenValue, NotStabilizedError
from .ring import NEG_INF


def _binom_value(m, j):
    # the polynomial C(m, j) = m(m-1)...(m-j+1)/j!, any integer m
    num = 1
    for i in range(j):
        num *= m - i
    return Fraction(num, math.factorial(j))


class EventualPolynomial(FrozenValue):
    """P with P(n) equal to the table for all n >= stabilization_index.

    binomial_coeffs holds e0..e_t; it is empty and degree is NEG_INF
    when the tail of the table is identically zero.
    """

    binomial_coeffs: tuple
    degree: object
    stabilization_index: int
    window: int

    @property
    def is_zero(self):
        return self.degree == NEG_INF

    def evaluate(self, n):
        if self.is_zero:
            return Fraction(0)
        t = self.degree
        total = Fraction(0)
        for i, e in enumerate(self.binomial_coeffs):
            term = e * _binom_value(n + t - 1 - i, t - i)
            total += term if i % 2 == 0 else -term
        return total


def fit_eventual_polynomial(values, start=1, window=3):
    """Fit the eventual polynomial of a table of exact values.

    The difference rows are scanned until one, row d, is constant
    across the trailing window; the degree is d.  The table agrees with
    the fit from the least a where row d is that constant throughout,
    since the d-th difference at a - 1 fixes the sample there from the
    d after it.  The Newton coefficients c_k = rows[k][a] give
    (Δ^j P)(n) = Σ_{k>=j} c_k·C(n - start - a, k - j), hence
    e_i = (-1)^i·(Δ^(d-i) P)(i - d): Δ^(d-i) takes C(n+d-1-k, d-k) to
    C(n+d-1-k, i-k), which is 1 at n = i - d for k = i and 0 otherwise.
    A table not yet polynomial at its end raises NotStabilizedError.
    """
    if window < 3:
        raise ValueError("window must be at least 3")
    vals = [Fraction(v) for v in values]
    if len(vals) < window + 1:
        raise NotStabilizedError(
            f"need at least {window + 1} samples for a window of {window}"
        )
    rows = [vals]
    d = 0
    while True:
        row = rows[-1]
        if len(row) >= window and len(set(row[-window:])) == 1:
            const = row[-1]
            break
        if len(row) - 1 < window:
            raise NotStabilizedError(
                "table not stabilized; extend the sample range"
            )
        rows.append([b - a for a, b in zip(row, row[1:])])
        d += 1
    if const == 0:
        # a zero difference row would have made its parent row qualify
        # first, so a zero constant only appears in the value row itself
        a = len(vals) - window
        while a > 0 and vals[a - 1] == 0:
            a -= 1
        return EventualPolynomial((), NEG_INF, start + a, window)
    a = len(rows[d]) - window
    while a > 0 and rows[d][a - 1] == const:
        a -= 1
    n0 = start + a
    coeffs = tuple(
        (-1) ** i
        * sum(
            rows[k][a] * _binom_value(i - d - n0, k - d + i)
            for k in range(d - i, d + 1)
        )
        for i in range(d + 1)
    )
    return EventualPolynomial(coeffs, d, n0, window)
