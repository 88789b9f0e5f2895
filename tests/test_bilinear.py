"""Bilinear residues on solver dressings, reconstruction, corruption."""

from fractions import Fraction as F
from itertools import permutations

import pytest

from qakns.bilinear import (
    adjoint_baker,
    check_inverse_transpose,
    check_q_bilinear,
    inject_corruption,
    lambda_pool,
    reconstruct_from_bilinear,
)
from qakns.hierarchy import (
    FlowTable,
    LaxData,
    b_split,
    resolvent_from_dressing,
    solve_dressing,
)
from qakns.matseries import MatSeries
from qakns.report import nonzero
from qakns.series import XSeries
from qakns.zseries import MZSeries

from helpers import scalar_matrix

N = 8
QS = [F(2), F(1, 2), F(3, 5)]


def lax_tri(q=F(2)):
    x = XSeries.monomial(1, 1, N)
    z = XSeries.zero(N)
    return LaxData([1, -1], MatSeries([[z, x], [z, z]]), q)


def lax_tri3(q=F(2)):
    x = XSeries.monomial(1, 1, N)
    z = XSeries.zero(N)
    o = XSeries.one(N)
    rows = [[z, x, o], [z, z, x * x], [z, z, z]]
    return LaxData([1, -1, 3], MatSeries(rows), q)


def lax_vacuum(q=F(2)):
    z = XSeries.zero(N)
    return LaxData([1, -1], MatSeries([[z, z], [z, z]]), q)


def test_lambda_pool():
    pool = lambda_pool([(1, 0), (1, 1)], 2)
    assert () in pool
    assert ((1, 0),) in pool
    assert ((1, 0), (1, 1)) in pool
    assert all(len(lam) <= 2 for lam in pool)
    assert len(pool) == len(set(pool))


def test_flow_polynomial_single_and_double():
    lax = lax_tri()
    d = solve_dressing(lax, 8)
    family = d.resolvents()
    r1 = resolvent_from_dressing(d, 0)
    r2 = resolvent_from_dressing(d, 1)
    b11, _ = b_split(r1, 1)
    assert (FlowTable(family).factor(((1, 0),)) - b11).is_zero()
    b12, _ = b_split(r2, 1)
    d12b11 = ((b12 * r1) - (r1 * b12)).shift(1).project("plus")
    expect = d12b11 + (b11 * b12)
    got = FlowTable(family).factor(((1, 0), (1, 1)))
    assert (got - expect).is_zero()


def test_flow_polynomial_vacuum_products():
    lax = lax_vacuum()
    d = solve_dressing(lax, 4)
    got = FlowTable(d.resolvents()).factor(((1, 0), (2, 0)))
    e1 = scalar_matrix([[1, 0], [0, 0]], N)
    expect = MZSeries.from_term(2, 3, e1)
    assert (got - expect).is_zero()


def lax_x_classical():
    x = XSeries.monomial(1, 1, N)
    z = XSeries.zero(N)
    o = XSeries.one(N)
    return LaxData([1, -1], MatSeries([[z, x], [o, z]]), 1)


@pytest.mark.parametrize(
    "lax, lam",
    [(lax_tri3(q), lam) for q in (F(2), F(1, 2), F(1))
     for lam in (((1, 1), (1, 1)), ((1, 0), (1, 0), (1, 2)),
                 ((1, 0), (2, 1), (1, 2)))]
    + [(lax_x_classical(), ((1, 0), (1, 0), (1, 1))),
       (lax_x_classical(), ((1, 0), (2, 1), (1, 1)))],
)
def test_flow_factor_is_independent_of_the_order_of_lambda(lax, lam):
    family = solve_dressing(lax, 6).resolvents()
    expect = FlowTable(family).factor(lam)
    assert not expect.is_zero()
    for perm in set(permutations(lam)):
        assert (FlowTable(family).factor(perm) - expect).is_zero()


def test_flow_factor_has_several_z_degrees():
    # the order test above is not vacuous: a factor spans degrees 0..2
    family = solve_dressing(lax_tri3(), 6).resolvents()
    assert sorted(FlowTable(family).factor(((1, 1), (1, 1))).terms) == [0, 1, 2]


def test_qb1_builds_each_flow_derivative_once(monkeypatch):
    d = solve_dressing(lax_tri3(), 8)
    d.resolvents()
    calls = []
    product = MZSeries.product

    def counting(self, other, *window):
        calls.append(window)
        return product(self, other, *window)

    monkeypatch.setattr(MZSeries, "product", counting)
    records = check_q_bilinear(d, 3, lambda_pool([(1, 0), (1, 2), (2, 1)], 3))
    assert len(records) == 160 and not any(nonzero(records))
    # one product per Leibniz term of each table entry; rebuilding every
    # derivative per lambda took 391
    assert len(calls) <= 110


@pytest.mark.parametrize("q", QS)
def test_x_derivative_factor_is_lax_symbol(q):
    lax = lax_tri(q)
    d = solve_dressing(lax, 8)
    g = d.x_factor()
    expect = MZSeries(2, {1: lax.a_mat(), 0: -lax.u})
    assert (g - expect).is_zero()


@pytest.mark.parametrize("q", QS)
def test_qb1_on_solver_data(q):
    lax = lax_tri(q)
    d = solve_dressing(lax, 10)
    lams = lambda_pool([(1, 0), (1, 1)], 2)
    records = check_q_bilinear(d, 4, lams)
    assert records and not any(nonzero(records))


def test_qb1_on_three_channels():
    lax = lax_tri3()
    d = solve_dressing(lax, 8)
    lams = lambda_pool([(1, 0), (1, 2)], 2)
    records = check_q_bilinear(d, 3, lams)
    assert records and not any(nonzero(records))


def test_qb1_vacuum():
    d = solve_dressing(lax_vacuum(), 6)
    records = check_q_bilinear(d, 4, lambda_pool([(1, 0), (1, 1)], 2))
    assert not any(nonzero(records))


def test_corruption_detected_and_localized():
    lax = lax_tri()
    d = solve_dressing(lax, 8)
    corrupted = inject_corruption(d, "1/3")
    records = check_q_bilinear(corrupted, 4, [()])
    bad = list(nonzero(records))
    assert bad
    # the x-derivation reduction catches it
    assert all(" m=1 " in label for label, _ in bad)
    assert all(witness is not None for _, witness in bad)


def test_adjoint_baker():
    lax = lax_tri()
    d = solve_dressing(lax, 8)
    w = d.w
    w_star = adjoint_baker(d)
    assert check_inverse_transpose(w, w_star).is_zero()
    assert (w_star.coeff(-1) + d.w.coeff(-1).transpose()).is_zero()
    # inversion oracle round-trip
    assert (w_star.transpose().invert(-8) - w).is_zero()
    dv = solve_dressing(lax_vacuum(), 4)
    ident = MZSeries.identity(2, XSeries.one(N))
    assert (adjoint_baker(dv) - ident).is_zero()


@pytest.mark.parametrize("q", QS)
def test_reconstruct_roundtrip(q):
    lax = lax_tri(q)
    d = solve_dressing(lax, 8)
    a_vals, u_rec, neg = reconstruct_from_bilinear(d)
    assert neg.is_zero()
    assert a_vals == lax.a
    assert (u_rec - lax.u).is_zero()
    for i in range(2):
        assert u_rec[i, i].is_zero()


def test_reconstruct_vacuum():
    d = solve_dressing(lax_vacuum(), 4)
    a_vals, u_rec, neg = reconstruct_from_bilinear(d)
    assert neg.is_zero()
    assert u_rec.is_zero()
    assert a_vals == [F(1), F(-1)]


def test_dressing_is_inverted_once(monkeypatch):
    d = solve_dressing(lax_tri3(), 6)
    calls = []
    invert = MZSeries.invert

    def counting(self, floor):
        calls.append(floor)
        return invert(self, floor)

    monkeypatch.setattr(MZSeries, "invert", counting)
    for alpha in range(3):
        resolvent_from_dressing(d, alpha)
    check_q_bilinear(d, 2, [(), ((1, 0),)])
    reconstruct_from_bilinear(d)
    adjoint_baker(d)
    assert calls == [-6]
    assert d.resolvents() is d.resolvents()


def test_reconstruct_flags_corruption():
    lax = lax_tri()
    d = solve_dressing(lax, 8)
    corrupted = inject_corruption(d, "2/5")
    _, _, neg = reconstruct_from_bilinear(corrupted)
    assert not neg.is_zero()


def _whole_m1(monkeypatch):
    """Make the m = 1 reduction of `bilinear_residues` build every degree."""
    import qakns.bilinear as bl

    real = bl.derive_through
    monkeypatch.setattr(bl, "derive_through",
                        lambda f, g, derive, dilate, *window: real(f, g, derive, dilate))


@pytest.mark.parametrize("kind", ["solver", "corrupted", "classical"])
def test_windowed_m1_residues_match_the_whole_reduction(kind, monkeypatch):
    from qakns.config import demo_config
    from qakns.suites import SuiteContext
    from qakns.zseries import derive_through

    cfg = demo_config()
    ctx = SuiteContext(cfg)
    lambdas = ctx.lambdas()
    if kind == "solver":
        dressing = ctx.dressing
    elif kind == "corrupted":
        dressing, lambdas = inject_corruption(ctx.dressing, "1/3"), [()]
    else:
        blax = cfg.bilinear_lax
        dressing = solve_dressing(LaxData(blax.a, blax.u, 1),
                                  cfg.required_dressing_depth())
    lax = dressing.lax
    g = dressing.x_factor()
    table = FlowTable(dressing.resolvents())
    # the window holds what the whole reduction holds, over its floor
    lo, hi = -1 - cfg.l_max, -1
    for lam in lambdas:
        f = table.factor(lam)
        got = derive_through(f, g, lax.derive, lax.dilate, lo, hi)
        whole = derive_through(f, g, lax.derive, lax.dilate)
        assert got.zvalid == whole.zvalid
        assert got.terms == {d: m for d, m in whole.terms.items() if lo <= d <= hi}
    got = check_q_bilinear(dressing, cfg.l_max, lambdas)
    _whole_m1(monkeypatch)
    ref = check_q_bilinear(dressing, cfg.l_max, lambdas)
    assert [label for label, _ in got] == [label for label, _ in ref]
    # the same residues, x-validity included
    assert [r for _, r in got] == [r for _, r in ref]
    assert (kind == "corrupted") == any(nonzero(got))
