"""The verdict rule: a residual passes when it is zero and determined."""

import random
from fractions import Fraction as F

import pytest

from qakns.matseries import MatSeries
from qakns.report import first_nonzero, nonzero, undetermined
from qakns.series import XSeries
from qakns.timepoly import TimePoly
from qakns.window import determined
from qakns.zseries import NEG_INF, MZSeries

N = 4
VARS = ((1, 0), (1, 1))
MONOMIALS = [(a, b) for a in range(4) for b in range(4 - a)]


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
    mixed = MatSeries([[zero_t.with_tvalid(-1), zero_t.variable((1, 0))], [zero_t, zero_t]])
    ((label, witness),) = nonzero([("r", mixed)])
    assert label == "r" and witness == (0, 1, (1, 0), 0, F(1))


def test_the_verdict_folds_the_least_window_of_each_passing_residual():
    zero_t = TimePoly.zero(VARS, 3, N)
    shallow = MatSeries([[zero_t.with_tvalid(1), zero_t], [zero_t, zero_t]])
    windows = {}
    failed = nonzero([
        ("x", XSeries.zero(N).with_valid(2)),
        ("exact x", XSeries.zero(N)),
        ("z", MZSeries(2, {-1: shallow}, -3)),
        # an exact zero z-series holds no carrier: it adds nothing
        ("exact z", MZSeries.zero(2)),
        # a failing residual is not folded
        ("nonzero", XSeries.one(N).with_valid(0)),
    ], windows)
    assert [label for label, _ in failed] == ["nonzero"]
    assert windows == {"x": 2, "t": 1, "z": 3}
    # an exact carrier is read through its cap
    exact = {}
    assert not any(nonzero([((), XSeries.zero(N)), ((), zero_t)], exact))
    assert exact == {"x": N, "t": 3}


def _random_series(rng):
    nums = [rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(N + 1)]
    valid = rng.choice((N + 1, N + 1, 2, 0, -1))
    return XSeries([F(v, rng.randint(1, 3)) for v in nums], valid)


def _random_time(rng):
    terms = {e: _random_series(rng) for e in rng.sample(MONOMIALS, rng.randint(0, 4))}
    return TimePoly(VARS, terms, 3, N, rng.choice((None, 2, 0)))


def _random_residual(rng, kind):
    if kind == "x":
        return _random_series(rng)
    if kind == "t":
        return _random_time(rng)
    entry = rng.choice((_random_series, _random_time))

    def mat():
        return MatSeries([[entry(rng) for _ in range(2)] for _ in range(2)])

    if kind == "mat":
        return mat()
    degrees = rng.sample(range(-4, 2), rng.randint(0, 3))
    return MZSeries(2, {d: mat() for d in degrees}, rng.choice((NEG_INF, -2)))


def _carriers(r):
    """`r` and every carrier inside it."""
    if isinstance(r, XSeries):
        return [r]
    if isinstance(r, MatSeries):
        return [c for row in r.rows for e in row for c in _carriers(e)]
    return [r] + [c for p in r.terms.values() for c in _carriers(p)]


def _least_windows(r):
    """The least window on each axis of the carriers of `r`, read directly."""
    out = {}
    for c in _carriers(r):
        if isinstance(c, XSeries):
            axis, v = "x", min(c.valid, c.order)
        elif isinstance(c, TimePoly):
            axis, v = "t", min(c.tvalid, c.tmax)
        elif isinstance(c, MZSeries) and c.zvalid != NEG_INF:
            axis, v = "z", -c.zvalid
        else:
            continue
        out[axis] = min(out.get(axis, v), v)
    return out


def _coefficients(r):
    """(coordinates, value) of every coefficient of `r` inside its windows."""
    if isinstance(r, XSeries):
        return [((k,), c) for k, c in enumerate(r.coeffs) if k <= r.valid]
    if isinstance(r, MatSeries):
        parts = [((i, j), e) for i, row in enumerate(r.rows) for j, e in enumerate(row)]
    else:
        parts = [((k,), p) for k, p in r.terms.items()]
    return [(at + c, v) for at, p in parts for c, v in _coefficients(p)]


def _follow(r, witness):
    """The coefficient that `witness` points at, read back from `r`."""
    *path, k, _ = witness
    while not isinstance(r, XSeries):
        if isinstance(r, MZSeries):
            r = r.coeff(path.pop(0))
        elif isinstance(r, MatSeries):
            r = r[path.pop(0), path.pop(0)]
        else:
            r = r.terms[path.pop(0)]
    assert path == [] and k <= r.valid
    return r.coeffs[k]


@pytest.mark.parametrize("kind", ["x", "t", "mat", "z"])
def test_the_witness_is_the_first_nonzero_coefficient(kind):
    rng = random.Random(kind)
    zero_seen = set()
    folded = 0
    for _ in range(200):
        r = _random_residual(rng, kind)
        witness = first_nonzero(r)
        zero_seen.add(r.is_zero())
        assert (witness is None) == r.is_zero()
        # witness order is the sorted order of the coordinates
        assert witness == min(
            (c + (v,) for c, v in _coefficients(r) if v), default=None
        )
        if witness is not None:
            assert _follow(r, witness) == witness[-1] != 0
        # the walk that looks for an undetermined entry folds the windows
        windows = {}
        if undetermined(r, windows) is None:
            folded += 1
            assert windows == _least_windows(r)
    assert zero_seen == {True, False} and folded > 0
