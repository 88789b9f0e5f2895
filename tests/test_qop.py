"""Operator algebra: q-Leibniz composition and the q-commutator."""

import math
import random
from fractions import Fraction as F

import pytest

from qakns.calculus import dilate, q_derive
from qakns.matseries import MatSeries
from qakns.qop import BandError, QDOp, q_commutator
from qakns.series import XSeries
from qakns.zseries import MZSeries

N = 8
Q = F(2)
ONE = XSeries.one(N)


def mult_op(rows, q=Q):
    return QDOp.from_mz(MZSeries.from_term(2, 0, MatSeries.from_scalars(rows, N)), q)


def mult_op_series(entries, q=Q):
    return QDOp.from_mz(MZSeries.from_term(2, 0, MatSeries(entries)), q)


def d_power(p, q=Q, n=2):
    return QDOp.basis_power(n, p, q, ONE)


def rnd_op(rng, band, q=Q, deg=2, n=2):
    coeffs = {}
    for p in range(band[0], band[1] + 1):
        rows = [
            [XSeries.poly([F(rng.randint(-3, 3)) for _ in range(deg + 1)], N)
             for _ in range(n)]
            for _ in range(n)
        ]
        coeffs[p] = MZSeries.from_term(n, 0, MatSeries(rows))
    return QDOp(n, coeffs, q)


def test_compose_q_leibniz_rule():
    # D o f == (Df) D + (D_q f), coefficient by coefficient
    x = XSeries.monomial(1, 1, N)
    f = MatSeries([[x, ONE], [XSeries.zero(N), x * x]])
    fop = QDOp.from_mz(MZSeries.from_term(2, 0, f), Q)
    comp = d_power(1).compose(fop)
    up = comp.coeff(1).terms[0]
    low = comp.coeff(0).terms[0]
    assert (up - f.map(lambda s: dilate(s, Q))).is_zero()
    assert (low - f.map(lambda s: q_derive(s, Q))).is_zero()


def test_compose_inverse_identity():
    comp = d_power(1).compose(d_power(-1), -4)
    ident = d_power(0)
    assert (comp - ident).is_zero()
    comp2 = d_power(-1).compose(d_power(1), -4)
    assert (comp2 - ident).is_zero()


def test_negative_power_roundtrip():
    f = mult_op([[1, 2], [3, F(5, 7)]])
    rt = d_power(-1).compose(d_power(1).compose(f, -4), -4)
    assert (rt - f).is_zero()
    x = XSeries.monomial(1, 1, N)
    g = mult_op_series([[x, ONE], [ONE, x]])
    rt2 = d_power(-1).compose(d_power(1).compose(g, -5), -5)
    assert (rt2 - g).is_zero()


def test_compose_associativity_random():
    rng = random.Random(41)
    for _ in range(4):
        a = rnd_op(rng, (-1, 1))
        b = rnd_op(rng, (0, 2))
        c = rnd_op(rng, (-2, 0))
        lhs = a.compose(b, -6).compose(c, -6)
        rhs = a.compose(b.compose(c, -6), -6)
        assert (lhs - rhs).is_zero()


def test_q_commutator_examples():
    u = MZSeries.from_term(2, 0, MatSeries.from_scalars([[0, 1], [1, 0]], N))
    ident = MZSeries.identity(2, ONE)
    b = rnd_op(random.Random(1), (0, 1))
    assert q_commutator(ident, b, -4).is_zero()
    e1 = MZSeries.from_term(2, 0, MatSeries.from_scalars([[1, 0], [0, 0]], N))
    com = q_commutator(e1, QDOp.from_mz(u, Q), -4)
    expect = MatSeries.from_scalars([[0, 1], [-1, 0]], N)
    assert (com.coeff(0).coeff(0) - expect).is_zero()


def test_q_commutator_of_two_series_names_the_missing_dilation():
    ident = MZSeries.identity(2, ONE)
    with pytest.raises(BandError, match="dilation parameter"):
        q_commutator(ident, ident, -4)


def test_compose_pvalid():
    # exact x exact: nothing unknown
    assert d_power(1).compose(mult_op([[1, 2], [3, 4]])).pvalid == -math.inf
    # inexact x exact: the unknown powers reach one above the floor
    inexact = QDOp(2, {1: MZSeries.identity(2, ONE),
                       -1: MZSeries.identity(2, ONE)}, Q, pvalid=-3)
    prod = inexact.compose(d_power(1), -6)
    assert prod.pvalid == -2
    assert d_power(1).compose(inexact, -6).pvalid == -2
    assert min(prod.coeffs) >= prod.pvalid
    # a negative power against a long series: the cut tail is unknown
    g = mult_op_series([[XSeries.poly([1] * 6, N), XSeries.zero(N)],
                        [XSeries.zero(N), ONE]])
    assert d_power(-1).compose(g, -3).pvalid == -3
    assert d_power(-1).compose(g, -8).pvalid == -math.inf
