"""Exact integer polynomial helper."""

from __future__ import annotations

import random
from math import comb

from clutterlab.polynomials import IntPolynomial, binom


def test_binom_outside_range_is_zero():
    assert binom(5, 2) == comb(5, 2)
    assert binom(3, 5) == 0
    assert binom(-1, 0) == 0
    assert binom(4, -1) == 0


def test_canonical_trim():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial(()).is_zero
    assert IntPolynomial((0,)).coeffs == ()


def test_degree_and_coeff():
    p = IntPolynomial((3, 0, 7))
    assert p.degree == 2
    assert p.coeff(0) == 3 and p.coeff(1) == 0 and p.coeff(2) == 7
    assert p.coeff(99) == 0
    assert IntPolynomial(()).degree < 0


def test_arithmetic():
    p = IntPolynomial((1, 1))          # 1 + t
    q = IntPolynomial((1, -1))         # 1 - t
    assert (p * q).coeffs == (1, 0, -1)
    assert (p + q).coeffs == (2,)
    assert (p - q).coeffs == (0, 2)
    assert (-p).coeffs == (-1, -1)
    assert p.scale(3).coeffs == (3, 3)
    assert p.shift(2).coeffs == (0, 0, 1, 1)
    assert IntPolynomial([0, 0, 0, 5]).coeffs == (0, 0, 0, 5)
    assert IntPolynomial([4]).coeffs == (4,)


def test_evaluation():
    p = IntPolynomial((1, -3, 2))
    assert p(0) == 1 and p(1) == 0 and p(2) == 3


def test_binomial_powers_match_expansion():
    # (1 +- t)^m by repeated multiplication has the binomial coefficients
    plus = minus = IntPolynomial([1])
    for m in range(13):
        assert plus.coeffs == tuple(binom(m, k) for k in range(m + 1))
        assert minus.coeffs == tuple((-1) ** k * comb(m, k) for k in range(m + 1))
        plus = plus * IntPolynomial([1, 1])
        minus = minus * IntPolynomial([1, -1])


def test_product_agrees_with_convolution():
    rng = random.Random(8)
    for _ in range(20):
        a = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
        prod = IntPolynomial(tuple(a)) * IntPolynomial(tuple(b))
        for k in range(12):
            direct = sum(a[i] * b[k - i] for i in range(len(a))
                         if 0 <= k - i < len(b))
            assert prod.coeff(k) == direct
