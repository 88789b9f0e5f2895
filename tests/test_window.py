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
