"""Solvers and flow identities, frozen against independently derived values.

The frozen matrices below were derived by hand from the order-by-order
linear problems and cross-checked with an independent sympy evaluation
before being committed.
"""

from fractions import Fraction as F

import pytest

from qakns.calculus import QCalc
from qakns.hierarchy import (
    DiagonalConsistencyError,
    FlowTable,
    HierarchySession,
    LaxData,
    ResonanceError,
    b_split,
    commutation_residual,
    expand_in_basis,
    resolvent_from_dressing,
    solve_dressing,
    solve_resolvent_direct,
    u_flow,
    verify_resolvent,
    verify_zero_curvature,
)
from qakns.matseries import MatSeries
from qakns.qop import QDOp, q_commutator
from qakns.report import nonzero
from qakns.series import XSeries
from qakns.zseries import MZSeries

N = 8
QS = [F(2), F(1, 2), F(3, 5)]


def lax_const(q=F(2)):
    u = MatSeries.from_scalars([[0, 1], [1, 0]], N)
    return LaxData([1, -1], u, QCalc(q, N))


def lax_x(q=F(2)):
    x = XSeries.monomial(1, 1, N)
    z = XSeries.zero(N)
    o = XSeries.one(N)
    return LaxData([1, -1], MatSeries([[z, x], [o, z]]), QCalc(q, N))


def lax_tri(q=F(2)):
    x = XSeries.monomial(1, 1, N)
    z = XSeries.zero(N)
    return LaxData([1, -1], MatSeries([[z, x], [z, z]]), QCalc(q, N))


def lax_vacuum(q=F(2)):
    z = XSeries.zero(N)
    return LaxData([1, -1], MatSeries([[z, z], [z, z]]), QCalc(q, N))


def scalars(rows):
    return MatSeries.from_scalars(rows, N)


def test_validation_errors():
    z = XSeries.zero(N)
    with pytest.raises(ValueError, match="distinct"):
        LaxData([1, 1], MatSeries([[z, z], [z, z]]), QCalc(F(2), N))
    with pytest.raises(ValueError, match="u_ii"):
        u = scalars([[1, 0], [0, 0]])
        LaxData([1, -1], u, QCalc(F(2), N))
    with pytest.raises(ResonanceError):
        # a_2 * q**2 == a_1 at q = 2
        LaxData([4, 1], MatSeries([[z, z], [z, z]]), QCalc(F(2), N))


def test_dressing_first_order_frozen():
    d = solve_dressing(lax_const(), 1)
    assert (d.orders[1] - scalars([[0, F(1, 2)], [F(-1, 2), 0]])).is_zero()


def test_dressing_vacuum_identity():
    d = solve_dressing(lax_vacuum(), 5)
    for w in d.orders[1:]:
        assert w.is_zero()
    assert d.terminated


def test_dressing_obstruction_const_u():
    # the order-2 diagonal equation acquires the constant source 1/2,
    # which the dilation structure cannot absorb: no series dressing
    with pytest.raises(DiagonalConsistencyError, match="constant source"):
        solve_dressing(lax_const(), 2)


def test_dressing_obstruction_x_dependent_u():
    with pytest.raises(DiagonalConsistencyError):
        solve_dressing(lax_x(), 3)
    d2 = solve_dressing(lax_x(), 2)  # depth 2 is still consistent
    assert (d2.orders[1] - MatSeries([
        [XSeries.zero(N), XSeries.monomial(F(1, 3), 1, N)],
        [XSeries.const(F(-1, 2), N), XSeries.zero(N)],
    ])).is_zero()


def test_dressing_triangular_terminates():
    d = solve_dressing(lax_tri(), 6)
    assert d.terminated
    assert (d.orders[1] - MatSeries([
        [XSeries.zero(N), XSeries.monomial(F(1, 3), 1, N)],
        [XSeries.zero(N), XSeries.zero(N)],
    ])).is_zero()
    assert (d.orders[2] - scalars([[0, F(1, 6)], [0, 0]])).is_zero()
    assert d.orders[3].is_zero()


def test_dressing_factorization_residual():
    lax = lax_tri()
    d = solve_dressing(lax, 6)
    calc = lax.calc
    w = d.mz()
    a_z = MZSeries.from_term(2, 1, lax.a_mat())
    u_mz = MZSeries.from_term(2, 0, lax.u)
    residual = (
        w.map_entries(calc.derive) + (u_mz * w) - (a_z * w)
        + (w.map_entries(calc.dilate) * a_z)
    )
    assert residual.is_zero()


@pytest.mark.parametrize("q", QS)
def test_resolvent_first_order_frozen(q):
    # constant potential: the first order is q-independent
    r = solve_resolvent_direct(lax_const(q), 0, 1)
    assert (r.orders[1] - scalars([[0, F(-1, 2)], [F(-1, 2), 0]])).is_zero()
    rx = solve_resolvent_direct(lax_x(q), 0, 2)
    expect1 = MatSeries([
        [XSeries.zero(N), XSeries.monomial(-1 / (1 + q), 1, N)],
        [XSeries.const(F(-1, 2), N), XSeries.zero(N)],
    ])
    assert (rx.orders[1] - expect1).is_zero()


def test_resolvent_second_order_frozen_orthogonal():
    r = solve_resolvent_direct(lax_const(), 0, 3)
    assert (r.orders[2] - scalars([[F(-1, 4), 0], [0, F(1, 4)]])).is_zero()
    assert (r.orders[3] - scalars([[0, F(1, 4)], [F(1, 4), 0]])).is_zero()
    rx = solve_resolvent_direct(lax_x(), 0, 2)
    expect2 = MatSeries([
        [XSeries.monomial(F(-1, 6), 1, N), XSeries.const(F(-1, 6), N)],
        [XSeries.zero(N), XSeries.monomial(F(1, 6), 1, N)],
    ])
    assert (rx.orders[2] - expect2).is_zero()


def test_resolvent_zero_normalized_differs():
    r = solve_resolvent_direct(lax_const(), 0, 3, "zero")
    assert r.orders[2].is_zero()
    assert r.orders[3].is_zero()


def test_resolvent_solve_sums_products_in_one_kernel_call(monkeypatch):
    # the README example: each step sigma(r) U - U r and each idempotent
    # lift is one MatSeries.dot, so every entry of each sum is reduced once
    lax = lax_const()
    calls = {"dot": 0, "from_ints": 0}
    real_dot, real_from_ints = MatSeries.dot, XSeries.from_ints

    def dot(blocks):
        calls["dot"] += 1
        return real_dot(blocks)

    def from_ints(*args):
        calls["from_ints"] += 1
        return real_from_ints(*args)

    monkeypatch.setattr(MatSeries, "dot", staticmethod(dot))
    monkeypatch.setattr(XSeries, "from_ints", staticmethod(from_ints))
    r = solve_resolvent_direct(lax, 0, 6)
    assert calls["dot"] <= 12
    assert calls["from_ints"] <= 148
    monkeypatch.undo()
    assert verify_resolvent(lax, r).is_zero()


def test_vacuum_resolvent_is_projector():
    r = solve_resolvent_direct(lax_vacuum(), 0, 4)
    for rj in r.orders[1:]:
        assert rj.is_zero()


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("make", [lax_const, lax_x])
def test_commutation_residual_zero(q, make):
    lax = make(q)
    depth = 7
    for alpha in range(2):
        r = solve_resolvent_direct(lax, alpha, depth)
        res = verify_resolvent(lax, r)
        assert not any(nonzero([((), res)]))
        assert res.zvalid <= -(depth - 1)


def test_residual_detects_corruption():
    lax = lax_const()
    r = solve_resolvent_direct(lax, 0, 4)
    bumped = r.mz() + MZSeries.from_term(2, -1, scalars([[0, 1], [0, 0]]))
    ((_, witness),) = nonzero([((), verify_resolvent(lax, bumped))])
    assert witness is not None


def test_channel_sum_first_order():
    lax = lax_const()
    r1 = solve_resolvent_direct(lax, 0, 1)
    r2 = solve_resolvent_direct(lax, 1, 1)
    assert (r1.orders[1] + r2.orders[1]).is_zero()


@pytest.mark.parametrize("make", [lax_const, lax_x])
def test_orthogonality_and_partition(make):
    lax = make()
    session = HierarchySession(lax)
    fam = session.family(7)
    ident = MZSeries.identity(2, lax.proto())
    total = fam[0].mz() + fam[1].mz()
    assert (total - ident).is_zero()
    for a in range(2):
        for b in range(2):
            prod = fam[a].mz() * fam[b].mz()
            if a == b:
                assert (prod - fam[b].mz()).is_zero()
            else:
                assert prod.is_zero()


def test_algebra_closure():
    lax = lax_x()
    session = HierarchySession(lax)
    fam = session.family(7)
    prod = fam[0].mz() * fam[1].mz()
    combo = fam[0].mz() + fam[1].mz().shift(-2).scale(F(3, 4))
    residuals = [
        ("product", verify_resolvent(lax, prod)),
        ("combination", verify_resolvent(lax, combo)),
    ]
    assert not any(nonzero(residuals))


def test_route_agreement_exact_on_triangular():
    lax = lax_tri()
    d = solve_dressing(lax, 6)
    for alpha in range(2):
        conj = resolvent_from_dressing(d, alpha)
        direct = solve_resolvent_direct(lax, alpha, 6)
        for j in range(7):
            got = conj.orders[j] if j < len(conj.orders) else \
                MatSeries.zero(2, lax.proto())
            assert (got - direct.orders[j]).is_zero()
        assert not any(nonzero([(alpha, verify_resolvent(lax, conj))]))


def test_route_agreement_first_order_everywhere():
    for make in (lax_const, lax_x):
        lax = make()
        d1 = solve_dressing(lax, 1)
        for alpha in range(2):
            conj = resolvent_from_dressing(d1, alpha)
            direct = solve_resolvent_direct(lax, alpha, 1)
            assert (conj.orders[1] - direct.orders[1]).is_zero()


def test_basis_expansion_of_normalization_difference():
    lax = lax_const()
    session = HierarchySession(lax)
    ortho = session.resolvent(0, 6)
    plain = session.resolvent(0, 6, "zero")
    base = [session.resolvent(b, 6, "zero") for b in range(2)]
    coeffs = expand_in_basis(ortho.mz() - plain.mz(), base)
    # leading repaired constants, as derived by hand
    assert coeffs[(0, 2)] == F(-1, 4)
    assert coeffs[(1, 2)] == F(1, 4)


def test_b_split():
    lax = lax_const()
    r = solve_resolvent_direct(lax, 0, 4)
    b, bbar = b_split(r, 1)
    e1z = MZSeries.from_term(2, 1, scalars([[1, 0], [0, 0]]))
    s = MZSeries.from_term(2, 0, scalars([[0, F(-1, 2)], [F(-1, 2), 0]]))
    assert (b - (e1z + s)).is_zero()
    assert ((b + bbar) - r.mz().shift(1)).is_zero()
    b0, b0bar = b_split(r, 0)
    assert (b0 - MZSeries.from_term(2, 0, scalars([[1, 0], [0, 0]]))).is_zero()
    assert (b0bar - (r.mz() - b0)).is_zero()


def test_u_flow_const_potential():
    lax = lax_const()
    session = HierarchySession(lax)
    r = session.resolvent(0, 6)
    assert u_flow(lax, r, 1).is_zero()
    flow2 = u_flow(lax, r, 2)
    assert (flow2 - scalars([[0, F(-1, 2)], [F(1, 2), 0]])).is_zero()


def test_u_flow_x_potential_k2_frozen():
    lax = lax_x()
    session = HierarchySession(lax)
    r = session.resolvent(0, 6)
    flow = u_flow(lax, r, 2)
    expect = MatSeries([
        [XSeries.zero(N), XSeries.monomial(F(-1, 2), 2, N)],
        [XSeries.monomial(F(1, 2), 1, N), XSeries.zero(N)],
    ])
    assert (flow - expect).is_zero()


def test_u_flow_x_potential_k1_diagonal_defect():
    # the twisted commutator's diagonal is -x/6 at q=2: the first flow of
    # this potential genuinely leaves the zero-diagonal class
    lax = lax_x()
    session = HierarchySession(lax)
    r = session.resolvent(0, 6)
    with pytest.raises(DiagonalConsistencyError, match="diagonal"):
        u_flow(lax, r, 1)
    raw = -commutation_residual(lax, b_split(r, 1)[0])
    diag = raw.coeff(0)[0, 0]
    assert (diag - XSeries.monomial(F(-1, 6), 1, N)).is_zero()


def test_u_flow_equals_minus_bbar_commutator():
    lax = lax_x()
    session = HierarchySession(lax)
    r = session.resolvent(0, 7)
    b, bbar = b_split(r, 2)
    via_b = -commutation_residual(lax, b).coeff(0)
    via_bbar = -commutation_residual(lax, -bbar).coeff(0)
    assert (via_b - via_bbar).is_zero()


def test_u_flow_band_structure_via_operator_algebra():
    # the derivation-band part of [B, L]_q cancels identically: verified
    # on the honest operator composition, not just by construction
    lax = lax_const()
    session = HierarchySession(lax)
    r = session.resolvent(0, 6)
    b, _ = b_split(r, 2)
    l_op = QDOp(2, {1: MZSeries.identity(2, lax.proto().one_like()),
                    0: lax.u_minus_za()}, lax.calc.q)
    com = q_commutator(b, l_op, -4)
    for power, coeff in com.coeffs.items():
        if power != 0:
            assert coeff.is_zero()
    assert (com.coeff(0) + commutation_residual(lax, b)).is_zero()


def test_resolvent_flow_properties():
    lax = lax_x()
    session = HierarchySession(lax)
    # d_(1,1) R_2 = [B_(1,1), R_2]: a commutator, so exactly traceless
    flow = FlowTable(session.family(6)).r(1, ((1, 0),))
    for d in flow.terms:
        tr = flow.terms[d][0, 0] + flow.terms[d][1, 1]
        assert tr.is_zero()
    vac = lax_vacuum()
    rv = solve_resolvent_direct(vac, 0, 4)
    assert FlowTable([rv]).r(0, ((1, 0),)).is_zero()


@pytest.mark.parametrize("make", [lax_const, lax_x])
def test_zero_curvature(make):
    lax = make()
    session = HierarchySession(lax)
    fam = session.family(8)
    pairs = [((1, 0), (1, 1)), ((1, 0), (2, 0)), ((1, 1), (2, 0))]
    residuals = [
        (((k, a), (l, b)), verify_zero_curvature(lax, (k, fam[a]), (l, fam[b])))
        for (k, a), (l, b) in pairs + [((1, 0), (1, 0))]
    ]
    assert not any(nonzero(residuals))


def test_zero_curvature_rejects_resolvents_of_another_lax():
    # the x-dependent family solves its own hierarchy; asked about the
    # constant datum it must not answer for its own
    fam = HierarchySession(lax_x()).family(4)
    other = lax_const()
    with pytest.raises(ValueError, match="another Lax datum"):
        verify_zero_curvature(other, (1, fam[0]), (1, fam[1]))
    with pytest.raises(ValueError, match="another Lax datum"):
        verify_zero_curvature(
            other, (1, HierarchySession(other).family(4)[0]), (1, fam[1])
        )


# -- classical structure -----------------------------------------------------------


def classical_lax(rows):
    return LaxData([1, -1], MatSeries.from_scalars(rows, N), QCalc(1, N))


def test_classical_dressing_exists_for_full_potentials():
    lax = classical_lax([[0, 1], [1, 0]])
    d = solve_dressing(lax, 4)
    assert len(d.orders) == 5
    rep_w = d.mz()
    calc = lax.calc
    a_z = MZSeries.from_term(2, 1, lax.a_mat())
    u_mz = MZSeries.from_term(2, 0, lax.u)
    residual = (
        rep_w.map_entries(calc.derive) + (u_mz * rep_w) - (a_z * rep_w)
        + (rep_w.map_entries(calc.dilate) * a_z)
    )
    assert residual.is_zero()


def test_classical_first_order_matches_q_case_for_const_u():
    # constant potential: the first-order resolvent is the same matrix in
    # the classical and every q structure
    classical = solve_resolvent_direct(classical_lax([[0, 1], [1, 0]]), 0, 1)
    expect = scalars([[0, F(-1, 2)], [F(-1, 2), 0]])
    assert (classical.orders[1] - expect).is_zero()
    for q in QS:
        rq = solve_resolvent_direct(lax_const(q), 0, 1)
        assert (rq.orders[1] - classical.orders[1]).is_zero()


def test_classical_x_potential_first_order():
    x = XSeries.monomial(1, 1, N)
    z = XSeries.zero(N)
    o = XSeries.one(N)
    lax = LaxData([1, -1], MatSeries([[z, x], [o, z]]), QCalc(1, N))
    r = solve_resolvent_direct(lax, 0, 6)
    expect = MatSeries([
        [z, XSeries.monomial(F(-1, 2), 1, N)],
        [XSeries.const(F(-1, 2), N), z],
    ])
    assert (r.orders[1] - expect).is_zero()
    assert not any(nonzero([((), verify_resolvent(lax, r))]))
    flow = u_flow(lax, r, 1)
    for i in range(2):
        assert flow[i, i].is_zero()


def test_classical_route_agreement():
    lax = classical_lax([[0, 1], [1, 0]])
    d = solve_dressing(lax, 5)
    for alpha in range(2):
        conj = resolvent_from_dressing(d, alpha)
        direct = solve_resolvent_direct(lax, alpha, 5)
        diff = conj.mz().truncate_below(-5) - direct.mz()
        assert diff.is_zero()


def test_session_caches_and_concurrent_reads():
    import threading
    lax = lax_const()
    session = HierarchySession(lax)
    results = []

    def worker(alpha):
        results.append(session.resolvent(alpha, 5))

    threads = [threading.Thread(target=worker, args=(a % 2,)) for a in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert session.resolvent(0, 5) is session.resolvent(0, 5)
    assert len(results) == 6
