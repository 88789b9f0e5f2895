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
    oracle_factors,
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


def rnd_band_op(rng, n, q, band=(-2, 2), deg=2, powers=None):
    coeffs = {}
    for p in powers or range(band[0], band[1] + 1):
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


def _mismatched(case):
    """A pair of operators and the a-values, wrong in exactly one field."""
    rng = random.Random(3)
    q = F(2)
    if case == "n":
        return rnd_band_op(rng, 2, q), rnd_band_op(rng, 1, q), [F(1), F(-1)]
    if case == "dparam":
        return rnd_band_op(rng, 2, q), rnd_band_op(rng, 2, F(3)), [F(1), F(-1)]
    # no pair of powers reaches the residue, so no product can notice
    return (rnd_band_op(rng, 2, q, band=(0, 2)),
            rnd_band_op(rng, 2, q, band=(0, 2)), [F(1), F(-1), F(2)])


@pytest.mark.parametrize("route", [pairing_lhs, pairing_rhs, pairing_oracle])
@pytest.mark.parametrize("case, field", [
    ("n", "differ in n"), ("dparam", "differ in dparam"), ("a", "a_values"),
])
def test_mismatched_operands_are_rejected(route, case, field):
    p_op, q_op, a_vals = _mismatched(case)
    with pytest.raises(ValueError, match=field):
        route(p_op, q_op, a_vals)


def _valids(m):
    return [[e.valid for e in row] for row in m.rows]


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_rhs_equals_lhs_entry_by_entry(n, q):
    rng = random.Random(n * 100 + int(q * 10))
    a_vals = [F(1), F(-1), F(2)][:n]
    pairs = [(rnd_band_op(rng, n, q), rnd_band_op(rng, n, q)) for _ in range(4)]
    # an inexact coefficient of Q: `valid` must follow it on both routes
    coeffs = dict(pairs[-1][1].coeffs)
    inexact = XSeries.one(N).with_valid(5)
    coeffs[0] = MZSeries.from_term(n, 0, MatSeries.diag([inexact] * n, inexact))
    pairs[-1] = (pairs[-1][0], QDOp(n, coeffs, q))
    for p_op, q_op in pairs:
        lhs = pairing_lhs(p_op, q_op, a_vals)
        rhs = pairing_rhs(p_op, q_op, a_vals)
        assert rhs == lhs
        assert _valids(rhs) == _valids(lhs)
    assert min(map(min, _valids(rhs))) == 5


def test_rhs_multiplies_only_the_pairs_that_reach_the_residue(monkeypatch):
    rng = random.Random(5)
    q = F(2)
    p_op = rnd_band_op(rng, 2, q)
    q_op = rnd_band_op(rng, 2, q)
    calls = []
    dot = MatSeries.dot

    def counting(blocks):
        calls.extend(blocks)
        return dot(blocks)

    monkeypatch.setattr(MatSeries, "dot", staticmethod(counting))
    got = pairing_rhs(p_op, q_op, [1, -1])
    monkeypatch.undo()
    assert (got - pairing_lhs(p_op, q_op, [1, -1])).is_zero()
    # composing the whole chain P o A**-1 o Q took 30 block products on this
    # pair (5 + 25); forming only the pairs that reach D**-1 takes 4 + 4
    assert len(calls) <= 9


def per_k_lhs(p_op, q_op, a_vals):
    """The symbol sum as one `@` chain and one `+` per power k."""
    q = p_op.dparam
    pk = {k: m.terms[0] for k, m in p_op.coeffs.items()}
    gl = {l: m.terms[0] for l, m in q_op.coeffs.items()}
    proto = p_op._proto() or q_op._proto()
    acc = None
    for k, pm in pk.items():
        gm = gl.get(-1 - k)
        if gm is None:
            continue
        ainv = MatSeries.diag_const([1 / F(a) for a in a_vals], proto)
        shifted = gm.map(lambda s: dilate(s, 1 / q))
        term = (pm @ ainv @ shifted).scale((-q) ** (-1 - k))
        acc = term if acc is None else acc + term
    return acc if acc is not None else MatSeries.zero(p_op.n, proto)


def test_one_dot_lhs_matches_the_per_k_chain():
    for q, a_vals, p_op, q_op in _windowed_cases():
        got = pairing_lhs(p_op, q_op, a_vals)
        ref = per_k_lhs(p_op, q_op, a_vals)
        assert got == ref
        assert ([[e.valid for e in r] for r in got.rows]
                == [[e.valid for e in r] for r in ref.rows])
    # one inexact entry of each g_l lowers the valid of its column only
    rng = random.Random(8)
    q = F(3, 5)
    p_op = rnd_band_op(rng, 2, q)
    coeffs = {}
    for l, m in rnd_band_op(rng, 2, q).coeffs.items():
        (g00, g01), row1 = m.terms[0].rows
        coeffs[l] = MZSeries.from_term(
            2, 0, MatSeries([[g00.with_valid(4), g01], row1]))
    q_op = QDOp(2, coeffs, q)
    got = pairing_lhs(p_op, q_op, [1, -1])
    assert got == per_k_lhs(p_op, q_op, [1, -1])
    assert [[e.valid for e in r] for r in got.rows] == [[4, N + 1], [4, N + 1]]


def fraction_band_op(rng, n, order, q, band=(-2, 2), max_deg=2):
    """The suite's random operator with every coefficient built from Fractions."""
    coeffs = {}
    for p in range(band[0], band[1] + 1):
        if rng.random() < 0.3:
            continue
        rows = [[XSeries.poly([F(rng.randint(-3, 3)) for _ in range(max_deg + 1)],
                              order)
                 for _ in range(n)] for _ in range(n)]
        coeffs[p] = MZSeries.from_term(n, 0, MatSeries(rows))
    if not coeffs:
        coeffs[0] = MZSeries.identity(n, XSeries.one(order))
    return QDOp(n, coeffs, q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_band_op_matches_the_fraction_build(n):
    from qakns.suites import _random_band_op

    for seed in (0, 5, 2024):
        for band, order in (((-2, 2), 8), ((0, 2), 4), ((-1, 0), 6)):
            got_rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(4):
                got = _random_band_op(got_rng, n, order, F(2), band)
                ref = fraction_band_op(ref_rng, n, order, F(2), band)
                assert (got.n, got.dparam, got.pvalid) == (ref.n, ref.dparam, ref.pvalid)
                assert got.coeffs == ref.coeffs
            # both builds drew the same numbers from the stream
            assert got_rng.random() == ref_rng.random()


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
    dot = MatSeries.dot

    def counting(blocks):
        # every block product, under `@` or in a z-degree block sum
        calls.extend(blocks)
        return dot(blocks)

    monkeypatch.setattr(MatSeries, "dot", staticmethod(counting))
    got = pairing_oracle(p_op, q_op, [1, -1])
    monkeypatch.undo()
    assert (got - pairing_lhs(p_op, q_op, [1, -1])).is_zero()
    # building both factors whole and their whole z-product took 473 block
    # products on this pair, and reading z**-1 of that product 222; building
    # each factor only up to the degrees that pair onto z**-1 takes 41
    assert len(calls) <= 41


def whole_factor_oracle(p_op, q_op, a_vals):
    """The oracle with both factors built at every degree, then multiplied."""
    q, n = p_op.dparam, p_op.n
    pk = {k: m.terms[0] for k, m in p_op.coeffs.items()}
    gl = {l: m.terms[0] for l, m in q_op.coeffs.items()}
    splus, sminus = oracle_factors(a_vals, q, N)

    def za_power(k):
        return MZSeries.from_term(
            n, k, MatSeries.diag_const([F(a) ** k for a in a_vals], splus.proto)
        )

    left = MZSeries.zero(n, splus.proto)
    for k, pm in pk.items():
        g = splus
        if k >= 0:
            for _ in range(k):
                g = g.map_entries(lambda s: q_derive(s, q))
        else:
            g = za_power(k) * splus
        left = left + MZSeries.from_term(n, 0, pm) * g
    right = MZSeries.zero(n, splus.proto)
    for l, gm in gl.items():
        eig = za_power(l).scale(F(-1) ** l)
        shifted = MZSeries.from_term(n, 0, gm.map(lambda s: dilate(s, 1 / q)))
        right = right + (eig * sminus) * shifted.scale(q**l)
    return (left * right).coeff(-1)


def _windowed_cases():
    rng = random.Random(17)
    avals = {1: [F(1)], 2: [F(1), F(-1)], 3: [F(1), F(-1), F(2)]}
    for q in QS:
        for n in (1, 2, 3):
            yield q, avals[n], rnd_band_op(rng, n, q), rnd_band_op(rng, n, q)
        n = 2
        # only negative or only positive powers on either side
        yield q, avals[n], rnd_band_op(rng, n, q, band=(-3, -1)), \
            rnd_band_op(rng, n, q, band=(-2, 1))
        yield q, avals[n], rnd_band_op(rng, n, q, band=(1, 3)), \
            rnd_band_op(rng, n, q, band=(-3, -1))
        yield q, avals[n], rnd_band_op(rng, n, q, band=(-2, 1)), \
            rnd_band_op(rng, n, q, band=(0, 2))
        # a Q power below -(order + 2): the left window reaches the guard
        # degrees of exp_q, stored as inexact zeros
        deep = rnd_band_op(rng, n, q, powers=(-N - 3, -N - 1, 0))
        yield q, avals[n], rnd_band_op(rng, n, q, band=(-1, N + 2)), deep
        yield q, avals[3], rnd_band_op(rng, 3, q, powers=(N + 2,)), \
            rnd_band_op(rng, 3, q, powers=(-N - 4,))
        # one side with no stored coefficient
        yield q, avals[n], QDOp(n, {}, q), rnd_band_op(rng, n, q)
        yield q, avals[n], rnd_band_op(rng, n, q), QDOp(n, {}, q)


def test_windowed_oracle_matches_the_whole_factor_build():
    guarded = 0  # cases whose residue has an entry valid below the x-order
    for q, a_vals, p_op, q_op in _windowed_cases():
        got = pairing_oracle(p_op, q_op, a_vals)
        ref = whole_factor_oracle(p_op, q_op, a_vals)
        assert got == ref
        valids = [[e.valid for e in row] for row in got.rows]
        assert valids == [[e.valid for e in row] for row in ref.rows]
        guarded += min(map(min, valids)) < N
    assert guarded > 0
