"""The verdict rule: a residual passes when it is zero and determined."""

from fractions import Fraction as F

from qakns.matseries import MatSeries
from qakns.report import nonzero, undetermined
from qakns.series import XSeries
from qakns.timepoly import TimePoly
from qakns.window import determined
from qakns.zseries import MZSeries

N = 4
VARS = ((1, 0), (1, 1))


def test_determined_reads_whether_degree_zero_is_in_the_window():
    assert determined(0) and determined(N + 1)
    assert not determined(-1) and not determined(-4)


def test_an_undetermined_zero_fails_with_its_entry_and_window():
    zero_t = TimePoly.zero(VARS, 3, N)
    blind = zero_t.with_tvalid(-2)
    assert blind.is_zero()
    mat = MatSeries([[zero_t, zero_t], [zero_t, blind]])
    series = MZSeries(2, {-1: MatSeries.zero(2, zero_t), -3: mat})
    assert undetermined(mat) == (1, 1, "t", -2)
    assert undetermined(series) == (-3, 1, 1, "t", -2)
    assert list(nonzero([("r", series)])) == [
        ("r", ("undetermined", -3, 1, 1, "t", -2))
    ]
    # an x-window below degree 0, alone or as a time coefficient
    assert undetermined(XSeries.zero(N).with_valid(-1)) == ("x", -1)
    coeff = TimePoly(VARS, {(1, 0): XSeries.zero(N).with_valid(-1)}, 3, N)
    assert undetermined(coeff) == ((1, 0), "x", -1)


def test_a_determined_zero_passes_and_a_nonzero_keeps_its_witness():
    zero_t = TimePoly.zero(VARS, 3, N)
    partly = MatSeries([[zero_t.with_tvalid(0), zero_t], [zero_t, zero_t]])
    assert undetermined(partly) is None
    assert list(nonzero([("r", partly), ("x", XSeries.zero(N).with_valid(0))])) == []
    # a nonzero residual's witness is its first nonzero coefficient, even
    # when another entry determines nothing
    mixed = MatSeries([[zero_t.with_tvalid(-1), TimePoly.variable((1, 0), VARS, 3, N)], [zero_t, zero_t]])
    ((label, witness),) = nonzero([("r", mixed)])
    assert label == "r" and witness == (0, 1, ((1, 0), (0, F(1))))
