"""The residue pairing: symbol side, operator side, brute-force oracle."""

import random
from fractions import Fraction as F

import pytest

from qakns.calculus import dilate, q_derive
from qakns.matseries import MatSeries
from qakns.qop import (
    BandError,
    OracleKernel,
    exp_q_laurent,
    pairing_lhs,
    pairing_oracle,
    pairing_rhs,
)
from qakns.series import XSeries
from qakns.zseries import NEG_INF, MZSeries

N = 8
QS = [F(2), F(1, 2), F(3, 5)]


def scalar_band(coeffs):
    return {p: MatSeries([[series]]) for p, series in coeffs.items()}


def rnd_band_op(rng, n, band=(-2, 2), deg=2, powers=None):
    coeffs = {}
    for p in powers or range(band[0], band[1] + 1):
        rows = [
            [XSeries.poly([F(rng.randint(-3, 3)) for _ in range(deg + 1)], N)
             for _ in range(n)]
            for _ in range(n)
        ]
        coeffs[p] = MatSeries(rows)
    return coeffs


def band_shape(p_op, q_op):
    """The size and one entry of the matrices of two bands, not both empty."""
    m = next(iter([*p_op.values(), *q_op.values()]))
    return m.n, m.proto()


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
    p_op = scalar_band({1: XSeries.one(N)})
    q_op = scalar_band({-2: g})
    lhs = pairing_lhs(p_op, q_op, [F(1)], q)
    expect = MatSeries([[dilate(g, 1 / q).scale(q**-2)]])
    assert (lhs - expect).is_zero()
    assert (pairing_rhs(p_op, q_op, [F(1)], q) - lhs).is_zero()
    assert (pairing_oracle(p_op, q_op, [F(1)], q) - lhs).is_zero()


def test_nonnegative_bands_pair_to_zero():
    rng = random.Random(31)
    q = F(2)
    for _ in range(5):
        p_op = rnd_band_op(rng, 2, band=(0, 2))
        q_op = rnd_band_op(rng, 2, band=(0, 2))
        assert pairing_lhs(p_op, q_op, [1, -1], q).is_zero()
        assert pairing_rhs(p_op, q_op, [1, -1], q).is_zero()
        assert pairing_oracle(p_op, q_op, [1, -1], q).is_zero()


def test_identity_pair_is_zero():
    q = F(2)
    ident = {0: MatSeries.identity(2, XSeries.one(N))}
    assert pairing_lhs(ident, ident, [1, -1], q).is_zero()
    assert pairing_rhs(ident, ident, [1, -1], q).is_zero()


@pytest.mark.parametrize("route", [pairing_lhs, pairing_rhs, pairing_oracle])
def test_zero_operators_name_the_missing_x_order(route):
    # with no band matrix nothing fixes the x-order of the result
    with pytest.raises(BandError, match="x-order"):
        route({}, {}, [F(1)], F(2))


@pytest.mark.parametrize("q", QS)
def test_random_pairs_all_three_routes_agree(q):
    rng = random.Random(int(q * 1000))
    for trial in range(8):
        n = 1 if trial % 2 else 2
        a_vals = [F(1)] if n == 1 else [F(1), F(-1)]
        p_op = rnd_band_op(rng, n)
        q_op = rnd_band_op(rng, n)
        lhs = pairing_lhs(p_op, q_op, a_vals, q)
        assert (pairing_rhs(p_op, q_op, a_vals, q) - lhs).is_zero()
        assert (pairing_oracle(p_op, q_op, a_vals, q) - lhs).is_zero()


def _mismatched(case):
    """A pair of bands and the a-values, wrong in exactly one field."""
    rng = random.Random(3)
    if case == "n":
        return rnd_band_op(rng, 2), rnd_band_op(rng, 1), [F(1), F(-1)]
    # no pair of powers reaches the residue, so no product can notice
    return (rnd_band_op(rng, 2, band=(0, 2)),
            rnd_band_op(rng, 2, band=(0, 2)), [F(1), F(-1), F(2)])


@pytest.mark.parametrize("route", [pairing_lhs, pairing_rhs, pairing_oracle])
@pytest.mark.parametrize("case, field", [
    ("n", "differ in n"), ("a", "a_values"),
])
def test_mismatched_operands_are_rejected(route, case, field):
    p_op, q_op, a_vals = _mismatched(case)
    with pytest.raises(ValueError, match=field):
        route(p_op, q_op, a_vals, F(2))


def _valids(m):
    return [[e.valid for e in row] for row in m.rows]


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_rhs_equals_lhs_entry_by_entry(n, q):
    rng = random.Random(n * 100 + int(q * 10))
    a_vals = [F(1), F(-1), F(2)][:n]
    pairs = [(rnd_band_op(rng, n), rnd_band_op(rng, n)) for _ in range(4)]
    # an inexact coefficient of Q: `valid` must follow it on both routes
    inexact = XSeries.one(N).with_valid(5)
    pairs[-1][1][0] = MatSeries.diag([inexact] * n, inexact)
    for p_op, q_op in pairs:
        lhs = pairing_lhs(p_op, q_op, a_vals, q)
        rhs = pairing_rhs(p_op, q_op, a_vals, q)
        assert rhs == lhs
        assert _valids(rhs) == _valids(lhs)
    assert min(map(min, _valids(rhs))) == 5


def test_rhs_multiplies_only_the_pairs_that_reach_the_residue(monkeypatch):
    rng = random.Random(5)
    q = F(2)
    p_op = rnd_band_op(rng, 2)
    q_op = rnd_band_op(rng, 2)
    calls = []
    dot = MatSeries.dot

    def counting(blocks):
        calls.extend(blocks)
        return dot(blocks)

    monkeypatch.setattr(MatSeries, "dot", staticmethod(counting))
    got = pairing_rhs(p_op, q_op, [1, -1], q)
    monkeypatch.undo()
    assert (got - pairing_lhs(p_op, q_op, [1, -1], q)).is_zero()
    # composing the whole chain P o A**-1 o Q took 30 block products on this
    # pair (5 + 25); forming only the pairs that reach D**-1 takes 4 + 4
    assert len(calls) <= 9


def per_k_lhs(p_op, q_op, a_vals, q):
    """The symbol sum as one `@` chain and one `+` per power k."""
    n, proto = band_shape(p_op, q_op)
    acc = None
    for k, pm in p_op.items():
        gm = q_op.get(-1 - k)
        if gm is None:
            continue
        ainv = MatSeries.diag_const([1 / F(a) for a in a_vals], proto)
        shifted = gm.map(lambda s: dilate(s, 1 / q))
        term = (pm @ ainv @ shifted).scale((-q) ** (-1 - k))
        acc = term if acc is None else acc + term
    return acc if acc is not None else MatSeries.zero(n, proto)


def test_one_dot_lhs_matches_the_per_k_chain():
    for q, a_vals, p_op, q_op in _windowed_cases():
        got = pairing_lhs(p_op, q_op, a_vals, q)
        ref = per_k_lhs(p_op, q_op, a_vals, q)
        assert got == ref
        assert ([[e.valid for e in r] for r in got.rows]
                == [[e.valid for e in r] for r in ref.rows])
    # one inexact entry of each g_l lowers the valid of its column only
    rng = random.Random(8)
    q = F(3, 5)
    p_op = rnd_band_op(rng, 2)
    q_op = {}
    for l, m in rnd_band_op(rng, 2).items():
        (g00, g01), row1 = m.rows
        q_op[l] = MatSeries([[g00.with_valid(4), g01], row1])
    got = pairing_lhs(p_op, q_op, [1, -1], q)
    assert got == per_k_lhs(p_op, q_op, [1, -1], q)
    assert [[e.valid for e in r] for r in got.rows] == [[4, N + 1], [4, N + 1]]


def fraction_band_op(rng, n, order, band=(-2, 2), max_deg=2):
    """The suite's random band with every coefficient built from Fractions."""
    coeffs = {}
    for p in range(band[0], band[1] + 1):
        if rng.random() < 0.3:
            continue
        rows = [[XSeries.poly([F(rng.randint(-3, 3)) for _ in range(max_deg + 1)],
                              order)
                 for _ in range(n)] for _ in range(n)]
        coeffs[p] = MatSeries(rows)
    if not coeffs:
        coeffs[0] = MatSeries.identity(n, XSeries.one(order))
    return coeffs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_band_op_matches_the_fraction_build(n):
    from qakns.suites import _random_band_op

    for seed in (0, 5, 2024):
        for band, order in (((-2, 2), 8), ((0, 2), 4), ((-1, 0), 6)):
            got_rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(4):
                got = _random_band_op(got_rng, n, order, band)
                ref = fraction_band_op(ref_rng, n, order, band)
                assert got == ref
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
    p_op = rnd_band_op(rng, 2)
    q_op = rnd_band_op(rng, 2)
    first = pairing_lhs(p_op, q_op, [1, -1], q)
    again = pairing_lhs(p_op, q_op, [1, -1], q)
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


def test_warm_kernel_trial_forms_one_contraction(monkeypatch):
    rng = random.Random(5)
    q = F(2)
    p_op = rnd_band_op(rng, 2)
    q_op = rnd_band_op(rng, 2)
    kernel = OracleKernel([1, -1], q, N)
    pairing_oracle(p_op, q_op, [1, -1], q, kernel)  # builds every C(k, l)
    calls = []
    dot = MatSeries.dot

    def counting(blocks):
        # every block product, under `@` or in a sum of products
        calls.extend(blocks)
        return dot(blocks)

    monkeypatch.setattr(MatSeries, "dot", staticmethod(counting))
    got = pairing_oracle(p_op, q_op, [1, -1], q, kernel)
    monkeypatch.undo()
    assert (got - pairing_lhs(p_op, q_op, [1, -1], q)).is_zero()
    # with the kernel warm a trial is the contraction alone: 25 products
    # C(k, l) s_l and 5 products p_k (...); re-expanding both exponential
    # factors per trial took 41 on this pair, and 473 built whole
    assert len(calls) <= 30


def test_random_pairs_builds_each_kernel_entry_once(monkeypatch):
    from qakns.config import demo_config
    from qakns.suites import run_suite

    builds = {}
    real = OracleKernel._residue

    def counted(self, k, l):
        key = (tuple(self.a), k, l)
        builds[key] = builds.get(key, 0) + 1
        return real(self, k, l)

    monkeypatch.setattr(OracleKernel, "_residue", counted)
    cfg = demo_config()
    cfg = type(cfg)(**{**cfg.__dict__, "checks": ("pairing.random_pairs",)})
    (res,) = run_suite(cfg).checks
    assert res.status == "pass"
    # both a-vectors of the check, every band pair of each, each built once
    assert {a for a, _, _ in builds} == {(F(1),), tuple(cfg.a)}
    assert len(builds) == 2 * 25 and set(builds.values()) == {1}


@pytest.mark.parametrize("q", [F(2), F(-3), F(1, 2), F(-1, 3)])
def test_kernel_is_the_paired_inverse(q):
    # C(k, l) = res_z((zA)**k exp_q(zAx) (-zA)**l exp_1/q(-zAx)) is
    # delta_(k+l,-1) (-1)**l A**-1, since exp_q(zAx) exp_1/q(-zAx) = 1
    a_vals = [F(1), F(-1), F(2)]
    kernel = OracleKernel(a_vals, q, N)
    proto = XSeries.one(N)
    for k in range(-2, 3):
        for l in range(-2, 3):
            expect = (MatSeries.diag_const([F(-1) ** l / a for a in a_vals], proto)
                      if k + l == -1 else MatSeries.zero(3, proto))
            assert kernel.coeff(k, l) == expect, (k, l)


def _sum_by_degree(n, proto, parts):
    """The sum of (series, block) parts, each z-degree one `MatSeries.dot`,
    with the largest part floor, as a chain of `+` gives it."""
    zv = max((s.zvalid for s, _ in parts), default=NEG_INF)
    by_degree = {}
    for s, block in parts:
        for d, m in s.terms.items():
            if d >= zv:
                by_degree.setdefault(d, []).append(block(m))
    return MZSeries(
        n, {d: MatSeries.dot(b) for d, b in by_degree.items()}, zv, proto
    )


def per_trial_oracle(p_op, q_op, a_vals, q):
    """The oracle that expands both exponential factors per trial: reference.

    The left factor sum_k p_k D**k exp_q(zAx) is built up to -1 - min l and
    the right factor sum_l (-zA)**l exp_1/q(-zAx) q**l g_l(x/q) up to
    -1 - min(0, min k), each degree summed in one `MatSeries.dot`, and the
    residue read off their product.
    """
    n, proto = band_shape(p_op, q_op)
    pk, gl, order = p_op, q_op, proto.order
    splus = exp_q_laurent(a_vals, q, order, +1)
    sminus = exp_q_laurent(a_vals, q, order, -1)
    if not pk or not gl:
        return MatSeries.zero(n, splus.proto)
    hi_left, hi_right = -1 - min(gl), -1 - min(0, min(pk))
    za = [F(a) for a in a_vals]

    def za_power(k):
        return MZSeries.from_term(
            n, k, MatSeries.diag_const([a**k for a in za], splus.proto))

    splus_low = MZSeries(
        n, {d: m for d, m in splus.terms.items() if d <= hi_left},
        splus.zvalid, splus.proto,
    )
    left_parts = []
    for k, pm in pk.items():
        if k >= 0:
            g = splus_low
            for _ in range(k):
                g = g.map_entries(lambda s: q_derive(s, q))
        else:
            g = za_power(k).product(splus, hi=hi_left)
        left_parts.append((g, lambda m, pm=pm: (pm, m)))
    left = _sum_by_degree(n, splus.proto, left_parts)
    right_parts = []
    for l, gm in gl.items():
        eig = za_power(l).scale(F(-1) ** l)
        shifted = gm.map(lambda s: dilate(s, 1 / q)).scale(q**l)
        right_parts.append((eig.product(sminus, hi=hi_right),
                            lambda m, shifted=shifted: (m, shifted)))
    right = _sum_by_degree(n, splus.proto, right_parts)
    return left.product_coeff(right, -1)


def _lifted(op, order):
    """The band with its polynomial coefficients at another x-order."""
    return {k: m.map(lambda s: XSeries.poly(s.coeffs[: s.top + 1], order))
            for k, m in op.items()}


@pytest.mark.parametrize("q", [F(2), F(-3), F(1, 2), F(-1, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_oracle_matches_the_per_trial_expansion(n, q):
    from qakns.suites import _random_band_op

    a_vals = [F(1), F(-1), F(2)][:n]
    raised = 0  # entries the per-trial expansion left at valid = x-order
    for order in (4, 5, 6, 8, 16):
        rng = random.Random(order * 10 + n)
        kernel = OracleKernel(a_vals, q, order)
        for _ in range(3):
            p_op = _random_band_op(rng, n, order)
            q_op = _random_band_op(rng, n, order)
            got = pairing_oracle(p_op, q_op, a_vals, q, kernel)
            ref = per_trial_oracle(p_op, q_op, a_vals, q)
            # the same values, entry by entry; the overflow rule of
            # intermediate products no longer lowers valid, and at x >= 8
            # no product of the band [-2, 2] overflows
            exact = pairing_lhs(_lifted(p_op, 24), _lifted(q_op, 24), a_vals, q)
            for row, ref_row, big_row in zip(got.rows, ref.rows, exact.rows):
                for e, r, big in zip(row, ref_row, big_row):
                    assert (e.nums, e.den) == (r.nums, r.den)
                    assert e.valid >= r.valid
                    if order >= 8:
                        assert e.valid == r.valid
                    raised += e.valid > r.valid
                    # what the kernel claims exact is the true residue
                    known = min(e.valid, order)
                    assert e.coeffs[: known + 1] == big.coeffs[: known + 1]
                    if e.is_exact:
                        assert big.top <= order
    assert raised > 0


def whole_factor_oracle(p_op, q_op, a_vals, q):
    """The oracle with both factors built at every degree, then multiplied."""
    n, _ = band_shape(p_op, q_op)
    pk, gl = p_op, q_op
    splus = exp_q_laurent(a_vals, q, N, +1)
    sminus = exp_q_laurent(a_vals, q, N, -1)

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
            yield q, avals[n], rnd_band_op(rng, n), rnd_band_op(rng, n)
        n = 2
        # only negative or only positive powers on either side
        yield q, avals[n], rnd_band_op(rng, n, band=(-3, -1)), \
            rnd_band_op(rng, n, band=(-2, 1))
        yield q, avals[n], rnd_band_op(rng, n, band=(1, 3)), \
            rnd_band_op(rng, n, band=(-3, -1))
        yield q, avals[n], rnd_band_op(rng, n, band=(-2, 1)), \
            rnd_band_op(rng, n, band=(0, 2))
        # a Q power below -(order + 2): the left window reaches the guard
        # degrees of exp_q, stored as inexact zeros
        deep = rnd_band_op(rng, n, powers=(-N - 3, -N - 1, 0))
        yield q, avals[n], rnd_band_op(rng, n, band=(-1, N + 2)), deep
        yield q, avals[3], rnd_band_op(rng, 3, powers=(N + 2,)), \
            rnd_band_op(rng, 3, powers=(-N - 4,))
        # one side with an empty band
        yield q, avals[n], {}, rnd_band_op(rng, n)
        yield q, avals[n], rnd_band_op(rng, n), {}


def test_windowed_oracle_matches_the_whole_factor_build():
    guarded = 0  # cases whose residue has an entry valid below the x-order
    for q, a_vals, p_op, q_op in _windowed_cases():
        got = pairing_oracle(p_op, q_op, a_vals, q)
        ref = whole_factor_oracle(p_op, q_op, a_vals, q)
        assert got == ref
        valids = [[e.valid for e in row] for row in got.rows]
        assert valids == [[e.valid for e in row] for row in ref.rows]
        guarded += min(map(min, valids)) < N
    assert guarded > 0
