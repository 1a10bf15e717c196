"""Eventual-polynomial fits of integer tables by finite differences.

A table that is eventually polynomial of degree t has a t-th forward
difference that is eventually the nonzero constant t!·(leading
coefficient).  Fits are reported in the alternating binomial basis

    e0·C(n+t-1, t) - e1·C(n+t-2, t-1) + ... ± e_t,

the convention under which integer-valued tables carry integer top
coefficients and the normalized leading coefficient is just e0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotStabilizedError
from .ring import NEG_INF


def _binom_value(m, j):
    # the polynomial C(m, j) = m(m-1)...(m-j+1)/j!, any integer m
    num = 1
    for i in range(j):
        num *= m - i
    return Fraction(num, math.factorial(j))


def _mul_linear(poly, shift):
    # multiply a power-basis polynomial by (n + shift)
    out = [Fraction(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i] += shift * c
        out[i + 1] += c
    return out


def _binom_power_basis(n0, j):
    # C(n - n0, j) expanded in powers of n
    poly = [Fraction(1)]
    for i in range(j):
        poly = _mul_linear(poly, Fraction(-(n0 + i)))
    scale = Fraction(1, math.factorial(j))
    return [c * scale for c in poly]


def _power_to_binomial(power, t):
    # triangular change of basis into the alternating binomial form
    rem = list(power) + [Fraction(0)] * (t + 1 - len(power))
    out = []
    for i in range(t + 1):
        j = t - i
        base = _binom_power_basis(i - t + 1, j)
        sign = 1 if i % 2 == 0 else -1
        e = rem[j] * math.factorial(j) * sign
        out.append(e)
        for idx in range(j + 1):
            rem[idx] -= sign * e * base[idx]
    if any(c != 0 for c in rem):
        raise AssertionError("binomial-basis conversion left a residue")
    return out


@dataclass(frozen=True)
class EventualPolynomial:
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

    The difference rows are scanned until one is constant across the
    trailing window; Newton reconstruction anchored there is extended
    backwards as far as the samples still agree.  A table whose trailing
    behaviour is not yet polynomial raises NotStabilizedError.
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
    anchor = len(rows[d]) - window
    n0 = start + anchor
    power = [Fraction(0)] * (d + 1)
    for j in range(d + 1):
        c = rows[j][anchor]
        if c == 0:
            continue
        for idx, pc in enumerate(_binom_power_basis(n0, j)):
            power[idx] += c * pc
    while len(power) > 1 and power[-1] == 0:
        power.pop()
    t = len(power) - 1
    coeffs = tuple(_power_to_binomial(power, t))
    fit = EventualPolynomial(coeffs, t, start + anchor, window)
    a = anchor
    while a > 0 and fit.evaluate(start + a - 1) == vals[a - 1]:
        a -= 1
    if a == anchor:
        return fit
    return EventualPolynomial(coeffs, t, start + a, window)

