"""Truncated x-series arithmetic and the validity lattice."""

from fractions import Fraction as F

import pytest

from qakns.series import TruncationError, XSeries

N = 8


def poly(*cs):
    return XSeries.poly(list(cs), N)


def test_difference_of_squares():
    assert ((poly(1, 1) * poly(1, -1)) - poly(1, 0, -1)).is_zero()


def test_monomial_product():
    x = XSeries.monomial(1, 1, N)
    assert (x * x - XSeries.monomial(1, 2, N)).is_zero()


def test_exp_times_exp_minus_by_direct_convolution():
    # oracle: coefficients 1/k! convolved directly
    import math
    e = XSeries.poly([F(1, math.factorial(k)) for k in range(N + 1)], N)
    em = XSeries.poly([F((-1) ** k, math.factorial(k)) for k in range(N + 1)], N)
    expect = [F(0)] * (N + 1)
    for i in range(N + 1):
        for j in range(N + 1 - i):
            expect[i + j] += e.coeffs[i] * em.coeffs[j]
    assert expect == [1] + [0] * N
    prod = e * em
    assert (prod - XSeries.one(N)).is_zero()


def test_mul_is_commutative_and_associative():
    import random
    rng = random.Random(3)
    for _ in range(10):
        a, b, c = (
            XSeries.poly([F(rng.randint(-5, 5)) for _ in range(N + 1)], N)
            for _ in range(3)
        )
        assert ((a * b) - (b * a)).is_zero()
        assert (((a * b) * c) - (a * (b * c))).is_zero()


def test_truncation_mismatch_rejected():
    with pytest.raises(TruncationError):
        XSeries.one(4) * XSeries.one(5)


def test_poly_overflow_rejected():
    with pytest.raises(TruncationError):
        XSeries.poly([1] * (N + 3), N)


def test_validity_of_truncated_product():
    a = poly(*range(1, N + 2))  # degree 8 polynomial
    b = poly(1, 1)
    prod = a * b  # true degree 9: stored window exact, tail unknown
    assert prod.valid == N
    assert not prod.is_exact
    exact = poly(1, 2) * poly(3, 4)
    assert exact.is_exact


def test_validity_min_rule_and_is_zero_window():
    a = poly(0, 0, 0, 0, 1).with_valid(3)  # x^4 sits beyond the window
    assert a.is_zero()
    b = a + poly(0, 1)
    assert b.valid == 3
    assert b.first_nonzero() == (1, F(1))


def test_invert_roundtrip_and_constant_exactness():
    s = poly(2, 1, F(1, 3))
    inv = s.invert()
    assert ((s * inv) - XSeries.one(N)).is_zero()
    assert inv.valid == N  # non-constant reciprocal is a truncated series
    c = poly(F(7, 2)).invert()
    assert c.is_exact and c.coeffs[0] == F(2, 7)


def test_shift_down():
    x = XSeries.monomial(F(5), 3, N)
    assert (x.shift_down() - XSeries.monomial(F(5), 2, N)).is_zero()
    with pytest.raises(ValueError):
        poly(1, 1).shift_down()
