"""Finite-difference fits and the normalized leading coefficient."""

import random
from fractions import Fraction

import pytest

from oracle import normalized_leading_coefficient

from reeslab import (
    NEG_INF,
    NotStabilizedError,
    PreconditionError,
    fit_eventual_polynomial,
)


def binom(m, j):
    out = Fraction(1)
    for i in range(j):
        out *= Fraction(m - i, i + 1)
    return out


def eval_binomial(coeffs, t, n):
    total = Fraction(0)
    for i, e in enumerate(coeffs):
        term = e * binom(n + t - 1 - i, t - i)
        total += term if i % 2 == 0 else -term
    return total


def test_triangular_numbers():
    fit = fit_eventual_polynomial((1, 3, 6, 10, 15, 21), start=1)
    assert fit.degree == 2
    assert fit.binomial_coeffs == (1, 0, 0)
    assert fit.stabilization_index == 1
    assert fit.evaluate(9) == 45


def test_scaled_quadratic():
    # (3n^2 + 3n)/2 carries top binomial coefficient 3
    vals = tuple(Fraction(3 * n * n + 3 * n, 2) for n in range(1, 8))
    fit = fit_eventual_polynomial(vals, start=1)
    assert fit.degree == 2
    assert fit.binomial_coeffs[0] == 3
    for n, v in enumerate(vals, start=1):
        assert fit.evaluate(n) == v


def test_constant_table():
    fit = fit_eventual_polynomial((5, 5, 5, 5), start=1)
    assert fit.degree == 0
    assert fit.binomial_coeffs == (5,)
    assert fit.evaluate(100) == 5


def test_zero_tail():
    fit = fit_eventual_polynomial((7, 3, 0, 0, 0, 0), start=1)
    assert fit.is_zero
    assert fit.degree == NEG_INF
    assert fit.binomial_coeffs == ()
    assert fit.stabilization_index == 3
    assert fit.evaluate(50) == 0


def test_all_zero_walks_back_to_start():
    fit = fit_eventual_polynomial((0, 0, 0, 0, 0), start=2)
    assert fit.is_zero
    assert fit.stabilization_index == 2


def test_eventual_onset():
    # garbage head, linear tail starting at the second sample
    fit = fit_eventual_polynomial((100, 1, 2, 3, 4, 5, 6), start=1)
    assert fit.degree == 1
    assert fit.stabilization_index == 2
    assert fit.evaluate(7) == 6


def test_exact_from_first_sample_walks_back():
    vals = tuple(2 * n + 1 for n in range(1, 7))
    fit = fit_eventual_polynomial(vals, start=1)
    assert fit.stabilization_index == 1


def test_random_round_trip():
    # exact tables, perturbed heads and shifted starts: the fit starts at
    # the least index from which it reproduces every sample
    rng = random.Random(202)
    for _ in range(60):
        t = rng.randrange(0, 5)
        coeffs = [rng.randrange(1, 6)]
        coeffs += [rng.randrange(-4, 5) for _ in range(t)]
        start = rng.randrange(-2, 4)
        ns = range(start, start + 12)
        vals = [eval_binomial(coeffs, t, n) for n in ns]
        for i in range(rng.randrange(0, 4)):
            vals[i] += rng.randrange(-3, 4)
        fit = fit_eventual_polynomial(vals, start=start)
        assert fit.degree == t
        assert fit.binomial_coeffs == tuple(Fraction(c) for c in coeffs)
        agree = [
            eval_binomial(fit.binomial_coeffs, t, n) == v
            for n, v in zip(ns, vals)
        ]
        a = fit.stabilization_index - start
        assert all(agree[a:])
        assert a == 0 or not agree[a - 1]
        for n, v in zip(ns[a:], vals[a:]):
            assert fit.evaluate(n) == v


def test_prefix_drop_invariance():
    rng = random.Random(77)
    for _ in range(20):
        t = rng.randrange(0, 4)
        coeffs = [rng.randrange(1, 5)]
        coeffs += [rng.randrange(-3, 4) for _ in range(t)]
        vals = [eval_binomial(coeffs, t, n) for n in range(1, 12)]
        full = fit_eventual_polynomial(vals, start=1)
        for k in (1, 2, 3):
            part = fit_eventual_polynomial(vals[k:], start=1 + k)
            assert part.degree == full.degree
            assert part.binomial_coeffs == full.binomial_coeffs
            assert part.evaluate(20) == full.evaluate(20)


def test_not_stabilized():
    with pytest.raises(NotStabilizedError):
        fit_eventual_polynomial((1, 2, 4, 8, 16, 32, 64), start=1)
    with pytest.raises(NotStabilizedError):
        fit_eventual_polynomial((1, 2, 3), start=1)


def test_window_validation():
    with pytest.raises(ValueError):
        fit_eventual_polynomial((1, 2, 3, 4, 5), start=1, window=2)


def test_normalized_leading_coefficient():
    vals = tuple(Fraction(3 * n * n + 3 * n, 2) for n in range(1, 8))
    fit = fit_eventual_polynomial(vals, start=1)
    assert normalized_leading_coefficient(fit, 2) == 3
    assert normalized_leading_coefficient(fit, 3) == 0
    with pytest.raises(PreconditionError):
        normalized_leading_coefficient(fit, 1)
    zero = fit_eventual_polynomial((0, 0, 0, 0), start=1)
    assert normalized_leading_coefficient(zero, 2) == 0

