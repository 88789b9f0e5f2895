"""Matrix Laurent series: products, inversion, projections, validity."""

import math
from fractions import Fraction as F

import pytest

from qakns.matseries import MatSeries
from qakns.series import XSeries
from qakns.zseries import InsufficientDepthError, MZSeries

N = 8


def ident(n=2):
    return MZSeries.identity(n, XSeries.one(N))


def mat(rows):
    return MatSeries.from_scalars(rows, N)


def test_za_times_inverse():
    a = MZSeries.from_term(2, 1, mat([[1, 0], [0, -1]]))
    ainv = MZSeries.from_term(2, -1, mat([[1, 0], [0, -1]]))
    assert ((a * ainv) - ident()).is_zero()


def test_identity_neutral():
    s = MZSeries(2, {0: mat([[1, 0], [0, 1]]), -1: mat([[0, 2], [3, 0]])})
    assert ((ident() * s) - s).is_zero()


def test_first_order_inverse_convolution():
    w1 = mat([[0, F(1, 2)], [F(-1, 2), 0]])
    s_plus = ident() + MZSeries.from_term(2, -1, w1)
    s_minus = ident() - MZSeries.from_term(2, -1, w1)
    prod = s_plus * s_minus
    expect = ident() - MZSeries.from_term(2, -2, w1 @ w1)
    assert (prod - expect).is_zero()


def test_nilpotent_inverse_exact():
    nil = mat([[0, 1], [0, 0]])
    s = ident() + MZSeries.from_term(2, -1, nil)
    inv = s.invert(-6)
    assert inv.is_exact
    assert (inv - (ident() - MZSeries.from_term(2, -1, nil))).is_zero()


def test_neumann_inverse_roundtrip():
    w1 = mat([[0, F(1, 2)], [F(-1, 2), 0]])
    s = ident() + MZSeries.from_term(2, -1, w1)
    inv = s.invert(-6)
    assert ((s * inv) - ident()).is_zero()
    assert ((inv * s) - ident()).is_zero()
    assert (inv.invert(-6) - s).is_zero()
    assert inv.zvalid == -6  # honest marking of the cut tail


def test_invert_requires_identity_leading_term():
    s = MZSeries.from_term(2, 0, mat([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        s.invert(-4)


def test_projections_and_residue():
    a = mat([[1, 0], [0, -1]])
    r = mat([[0, 1], [1, 0]])
    s = MZSeries(2, {1: a, -1: r})
    assert (s.project("plus") - MZSeries.from_term(2, 1, a)).is_zero()
    assert (s.project("minus") - MZSeries.from_term(2, -1, r)).is_zero()
    assert (s.project("plus") + s.project("minus") - s).is_zero()
    assert (s.residue() - r).is_zero()
    assert s.project("plus").residue().is_zero()


def test_mul_validity_rule():
    w1 = mat([[0, 1], [1, 0]])
    tail = MZSeries(2, {-1: w1}, zvalid=-3)  # unknown below z^-3
    za = MZSeries.from_term(2, 1, mat([[1, 0], [0, -1]]))
    prod = tail * za
    assert prod.zvalid == -2  # one order lost against a degree-1 factor
    exact = MZSeries.from_term(2, -1, w1)
    assert (exact * exact).is_exact


def test_residue_depth_guard():
    s = MZSeries(2, {0: mat([[1, 0], [0, 1]])}, zvalid=0)
    with pytest.raises(InsufficientDepthError):
        s.residue()


def test_mz_associativity_random():
    import random
    rng = random.Random(9)

    def rnd():
        terms = {}
        for d in range(-2, 2):
            terms[d] = mat(
                [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            )
        return MZSeries(2, terms)

    for _ in range(5):
        a, b, c = rnd(), rnd(), rnd()
        assert (((a * b) * c) - (a * (b * c))).is_zero()


def test_inexact_zero_entries_are_kept():
    # zero-within-validity must not be silently promoted to exact zero
    limited = XSeries.zero(N).with_valid(3)
    m = MatSeries([[limited, XSeries.zero(N)], [XSeries.zero(N), limited]])
    s = MZSeries(2, {-1: m})
    assert (-1) in s.terms
    assert s.is_zero()
    assert s.min_entry_valid() == 3


def test_mul_stores_nothing_below_its_floor():
    a = MZSeries(
        2, {0: mat([[1, 0], [0, 1]]), -1: mat([[0, 1], [1, 0]]),
            -2: mat([[2, 0], [0, 3]])},
        zvalid=-2,
    )
    b = MZSeries(
        2, {1: mat([[1, 0], [0, -1]]), 0: mat([[1, 2], [3, 4]]),
            -1: mat([[0, 1], [0, 0]])},
    )
    for prod in (a * b, b * a):
        assert prod.zvalid == -1  # a's floor, raised by b's degree-1 term
        assert min(prod.terms) >= prod.zvalid
    expect = a.coeff(0) @ b.coeff(-1) + a.coeff(-1) @ b.coeff(0) \
        + a.coeff(-2) @ b.coeff(1)
    assert ((a * b).coeff(-1) - expect).is_zero()
