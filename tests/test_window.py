"""The shared precision model, on the three windowed carriers.

The upper windows (`XSeries.valid`, `TimePoly.tvalid`) and the lower one
(`MZSeries.zvalid`) follow one rule on a zero factor: an exact zero
annihilates the other factor, whatever its window, and a zero known only
through its window keeps that window.
"""

from operator import mul

import pytest

from qakns.matseries import MatSeries
from qakns.series import XSeries
from qakns.timepoly import TimePoly
from qakns.window import NEG_INF, upper_inverse, upper_product, upper_shift
from qakns.zseries import MZSeries

N = 6
VARS = ((1, 0), (1, 1))
TMAX = 4


def _xseries():
    zero = XSeries.zero(N)
    truncated = XSeries.poly([1, 2, 3], N).with_valid(4)
    return (zero, truncated, zero.with_valid(3), XSeries.poly([1, 2], N), mul,
            lambda s: (s.valid, s.top >= 0), N + 1)


def _timepoly():
    zero = TimePoly.zero(VARS, TMAX, N)
    t = zero.variable((1, 0))
    truncated = (t + zero.constant(1)).invert()
    assert truncated.tvalid == TMAX
    return (zero, truncated, zero.with_tvalid(2), t, mul,
            lambda p: (p.tvalid, bool(p.terms)), TMAX + 1)


def _mzseries():
    ident = MZSeries.identity(2, XSeries.zero(N))
    zero = MZSeries.zero(2, ident.proto)
    truncated = MZSeries(2, {0: ident.coeff(0), -1: ident.coeff(0)}, -3)
    hidden = MZSeries(2, {}, -2, ident.proto)
    return (zero, truncated, hidden, ident, mul,
            lambda m: (m.zvalid, bool(m.terms)), NEG_INF)


@pytest.mark.parametrize("carrier", ["xseries", "timepoly", "mzseries"])
def test_exact_zero_factor_gives_an_exact_zero(carrier):
    make = {"xseries": _xseries, "timepoly": _timepoly,
            "mzseries": _mzseries}[carrier]
    zero, truncated, hidden, exact, times, window, exact_window = make()
    assert window(truncated)[0] != exact_window
    for prod in (times(zero, truncated), times(truncated, zero)):
        assert window(prod) == (exact_window, False)
    # a zero known only through its window keeps that window
    for other in (exact, truncated):
        for prod in (times(hidden, other), times(other, hidden)):
            assert window(prod) == (window(hidden)[0], False)


def test_xseries_scale_by_zero_is_the_exact_zero():
    # scaling by 0 is a product with an exact zero: the window goes with it
    truncated = XSeries.poly([1, 2, 3], N).with_valid(3)
    assert truncated.scale(0) == XSeries.zero(N)
    assert XSeries.zero(N).with_valid(3).scale(0).is_zero_exact()
    assert truncated.scale(2).valid == 3


def test_timepoly_scale_by_zero_is_the_exact_zero():
    _, truncated, *_ = _timepoly()
    for x_truncated in (truncated, truncated.map_coeffs(lambda c: c.with_valid(3))):
        assert x_truncated.scale(0).is_zero_exact()
    assert truncated.scale(2).tvalid == TMAX


def test_timepoly_scale_series_by_an_exact_zero_is_the_exact_zero():
    _, truncated, *_ = _timepoly()
    zero = XSeries.zero(N)
    assert (truncated * truncated.zero_like()).is_zero_exact()
    assert truncated.scale_series(zero).is_zero_exact()
    # a zero known only through its window keeps the windows
    hidden = truncated.scale_series(zero.with_valid(3))
    assert hidden.tvalid == TMAX and not hidden.is_zero_exact()
    assert {c.valid for c in hidden.terms.values()} == {3}


def test_upper_rules_at_the_cap():
    # exact factors: exact unless a pair of terms passes the cap
    assert upper_product(N, N + 1, 3, N + 1, 3) == N + 1
    assert upper_product(N, N + 1, 3, N + 1, 4) == N
    # an exact zero annihilates; a window-only zero keeps its window
    assert upper_product(N, N + 1, -1, 2, 5) == N + 1
    assert upper_product(N, 3, -1, N + 1, 5) == 3
    assert upper_product(N, 3, 2, 5, 5) == 3
    # a shift moves an inexact window and keeps an exact one inside the cap
    assert upper_shift(N, 4, 4, -1) == 3 and upper_shift(N, N + 1, 4, -1) == N + 1
    assert upper_shift(N, 4, 4, 1) == 5 and upper_shift(N, N + 1, N, 1) == N
    # an inexact window moves up to the cap and never onto the exact sentinel
    assert upper_shift(N, N, N, 1) == N
    # only an exact constant has an exact reciprocal
    assert upper_inverse(N, N + 1, True) == N + 1
    assert upper_inverse(N, N + 1, False) == N
    assert upper_inverse(N, 3, True) == 3


def _zero_cases(carrier):
    """(exact zero, [zero known only through its window, nonzero, exact one])."""
    x = XSeries.zero(N)
    hidden = x.with_valid(3)
    if carrier == "xseries":
        return x, [hidden, XSeries.monomial(1, 2, N), XSeries.one(N)]
    if carrier == "timepoly":
        ring = TimePoly.zero(VARS, TMAX, N)
        return ring, [ring.with_tvalid(2), ring.constant(hidden),
                      ring.variable((1, 0)), ring.one_like()]
    ident = MatSeries.identity(2, x)
    window_only = MatSeries.diag([x, hidden], x)
    if carrier == "matseries":
        return MatSeries([[x, x], [x, x]]), [
            window_only, MatSeries.diag([x, XSeries.monomial(1, 2, N)], x), ident]
    return MZSeries.zero(2, x), [
        MZSeries(2, {}, -2, x), MZSeries(2, {0: window_only}),
        MZSeries.from_term(2, 1, ident), MZSeries.identity(2, x)]


@pytest.mark.parametrize("carrier", ["xseries", "timepoly", "matseries", "mzseries"])
def test_is_zero_exact_on_every_carrier(carrier):
    # one predicate on the four carriers: the exact zero, and nothing that
    # is zero only inside its window, nonzero, or the exact one
    zero, others = _zero_cases(carrier)
    assert zero.is_zero_exact()
    assert zero.is_zero() and others[0].is_zero()
    assert not any(o.is_zero_exact() for o in others)
