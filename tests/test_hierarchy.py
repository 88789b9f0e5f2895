"""Solvers and flow identities, frozen against independently derived values.

The frozen matrices below were derived by hand from the order-by-order
linear problems and cross-checked with an independent sympy evaluation
before being committed.
"""

import sys
from fractions import Fraction as F

import pytest

from qakns import calculus, hierarchy
from qakns.bilinear import inject_corruption
from qakns.hierarchy import (
    DiagonalConsistencyError,
    FlowTable,
    HierarchySession,
    LaxData,
    ResonanceError,
    _idempotent_repair,
    _next_order,
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
from qakns.report import nonzero
from qakns.scalars import AdmissibilityError
from qakns.series import XSeries
from qakns.zseries import NEG_INF, InsufficientDepthError, MZSeries

from helpers import q_derive_by_quotient, scalar_matrix

N = 8
QS = [F(2), F(1, 2), F(3, 5)]


def lax_const(q=F(2)):
    u = scalar_matrix([[0, 1], [1, 0]], N)
    return LaxData([1, -1], u, q)


def lax_x(q=F(2)):
    x = XSeries.monomial(1, 1, N)
    z = XSeries.zero(N)
    o = XSeries.one(N)
    return LaxData([1, -1], MatSeries([[z, x], [o, z]]), q)


def lax_tri(q=F(2)):
    x = XSeries.monomial(1, 1, N)
    z = XSeries.zero(N)
    return LaxData([1, -1], MatSeries([[z, x], [z, z]]), q)


def lax_vacuum(q=F(2)):
    z = XSeries.zero(N)
    return LaxData([1, -1], MatSeries([[z, z], [z, z]]), q)


def scalars(rows):
    return scalar_matrix(rows, N)


def test_validation_errors():
    z = XSeries.zero(N)
    with pytest.raises(ValueError, match="distinct"):
        LaxData([1, 1], MatSeries([[z, z], [z, z]]), F(2))
    with pytest.raises(ValueError, match="u_ii"):
        u = scalars([[1, 0], [0, 0]])
        LaxData([1, -1], u, F(2))
    with pytest.raises(ResonanceError):
        # a_2 * q**2 == a_1 at q = 2
        LaxData([4, 1], MatSeries([[z, z], [z, z]]), F(2))


def test_lax_data_owns_q_and_order(monkeypatch):
    # the x-order is U's; no second order can disagree with it
    u6 = scalar_matrix([[0, 1], [1, 0]], 6)
    lax = LaxData([1, -1], u6, F(2))
    assert (lax.q, lax.order, lax.classical) == (2, 6, False)
    r = solve_resolvent_direct(lax, 0, 3)
    assert {e.order for m in r.terms.values() for row in m.rows for e in row} == {6}
    # an inadmissible q is refused by the datum itself: (-1)**2 == 1
    with pytest.raises(AdmissibilityError, match="root of unity"):
        LaxData([1, -1], u6, F(-1))
    # q = 1 is the classical structure, whose diagonal solve integrates
    integrations = []
    real = calculus.q_antiderive

    def counting(g, q):
        integrations.append(q)
        return real(g, q)

    monkeypatch.setattr(calculus, "q_antiderive", counting)
    solve_resolvent_direct(lax, 0, 3)
    assert integrations == []
    classical = LaxData([1, -1], u6, 1)
    assert classical.classical and classical.order == 6
    solve_resolvent_direct(classical, 0, 3)
    assert integrations and set(integrations) == {1}


def test_dressing_first_order_frozen():
    d = solve_dressing(lax_const(), 1)
    assert (d.w.coeff(-1) - scalars([[0, F(1, 2)], [F(-1, 2), 0]])).is_zero()


def test_dressing_vacuum_identity():
    d = solve_dressing(lax_vacuum(), 5)
    for j in range(1, 6):
        assert d.w.coeff(-j).is_zero()
    assert d.w.is_exact


def test_dressing_obstruction_const_u():
    # the order-2 diagonal equation acquires the constant source 1/2,
    # which the dilation structure cannot absorb: no series dressing
    with pytest.raises(DiagonalConsistencyError, match="constant source"):
        solve_dressing(lax_const(), 2)


@pytest.mark.parametrize("make, solve, context", [
    (lax_const, lambda lax: solve_dressing(lax, 4), "dressing"),
    (lax_x, lambda lax: solve_resolvent_direct(lax, 0, 4, "zero"),
     "resolvent channel 1"),
], ids=["dressing", "resolvent"])
def test_classical_diagonal_source_must_vanish(monkeypatch, make, solve, context):
    # at q = 1 each order's diagonal integrates that of mult(w), which keeps
    # the next order's diagonal source zero; with the integral stubbed to
    # zero the source survives, and the step must refuse it
    lax = make(F(1))
    solve(lax)
    monkeypatch.setattr(calculus, "q_antiderive", lambda g, q: g.zero_like())
    with pytest.raises(DiagonalConsistencyError,
                       match=f"^{context}: diagonal source 1 must vanish, got"):
        solve(lax)


def test_dressing_obstruction_x_dependent_u():
    with pytest.raises(DiagonalConsistencyError):
        solve_dressing(lax_x(), 3)
    d2 = solve_dressing(lax_x(), 2)  # depth 2 is still consistent
    assert (d2.w.coeff(-1) - MatSeries([
        [XSeries.zero(N), XSeries.monomial(F(1, 3), 1, N)],
        [XSeries.const(F(-1, 2), N), XSeries.zero(N)],
    ])).is_zero()


def test_dressing_triangular_terminates():
    d = solve_dressing(lax_tri(), 6)
    assert d.w.is_exact
    assert (d.w.coeff(-1) - MatSeries([
        [XSeries.zero(N), XSeries.monomial(F(1, 3), 1, N)],
        [XSeries.zero(N), XSeries.zero(N)],
    ])).is_zero()
    assert (d.w.coeff(-2) - scalars([[0, F(1, 6)], [0, 0]])).is_zero()
    assert d.w.coeff(-3).is_zero()


def test_dressing_factorization_residual():
    lax = lax_tri()
    d = solve_dressing(lax, 6)
    w = d.w
    a_z = MZSeries.from_term(2, 1, lax.a_mat())
    u_mz = MZSeries.from_term(2, 0, lax.u)
    residual = (
        w.map_entries(lax.derive) + (u_mz * w) - (a_z * w)
        + (w.map_entries(lax.dilate) * a_z)
    )
    assert residual.is_zero()


@pytest.mark.parametrize("q", QS)
def test_resolvent_first_order_frozen(q):
    # constant potential: the first order is q-independent
    r = solve_resolvent_direct(lax_const(q), 0, 1)
    assert (r.coeff(-1) - scalars([[0, F(-1, 2)], [F(-1, 2), 0]])).is_zero()
    rx = solve_resolvent_direct(lax_x(q), 0, 2)
    expect1 = MatSeries([
        [XSeries.zero(N), XSeries.monomial(-1 / (1 + q), 1, N)],
        [XSeries.const(F(-1, 2), N), XSeries.zero(N)],
    ])
    assert (rx.coeff(-1) - expect1).is_zero()


def test_resolvent_second_order_frozen_orthogonal():
    r = solve_resolvent_direct(lax_const(), 0, 3)
    assert (r.coeff(-2) - scalars([[F(-1, 4), 0], [0, F(1, 4)]])).is_zero()
    assert (r.coeff(-3) - scalars([[0, F(1, 4)], [F(1, 4), 0]])).is_zero()
    rx = solve_resolvent_direct(lax_x(), 0, 2)
    expect2 = MatSeries([
        [XSeries.monomial(F(-1, 6), 1, N), XSeries.const(F(-1, 6), N)],
        [XSeries.zero(N), XSeries.monomial(F(1, 6), 1, N)],
    ])
    assert (rx.coeff(-2) - expect2).is_zero()


def test_resolvent_zero_normalized_differs():
    r = solve_resolvent_direct(lax_const(), 0, 3, "zero")
    assert r.coeff(-2).is_zero()
    assert r.coeff(-3).is_zero()


def test_resolvent_solve_sums_products_in_one_kernel_call(monkeypatch):
    # the README example: each step sigma(r) U - U r is one MatSeries.dot,
    # so every entry of each sum is reduced once, and each idempotent lift
    # reads constant terms only and forms no product
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
    assert calls["dot"] <= 6
    assert calls["from_ints"] <= 74
    monkeypatch.undo()
    assert verify_resolvent(lax, r).is_zero()


def test_vacuum_resolvent_is_projector():
    r = solve_resolvent_direct(lax_vacuum(), 0, 4)
    for j in range(1, 5):
        assert r.coeff(-j).is_zero()


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
    bumped = r + MZSeries.from_term(2, -1, scalars([[0, 1], [0, 0]]))
    ((_, witness),) = nonzero([((), verify_resolvent(lax, bumped))])
    assert witness is not None


def test_channel_sum_first_order():
    lax = lax_const()
    r1 = solve_resolvent_direct(lax, 0, 1)
    r2 = solve_resolvent_direct(lax, 1, 1)
    assert (r1.coeff(-1) + r2.coeff(-1)).is_zero()


@pytest.mark.parametrize("make", [lax_const, lax_x])
def test_orthogonality_and_partition(make):
    lax = make()
    session = HierarchySession(lax)
    fam = session.family(7)
    ident = MZSeries.identity(2, lax.proto())
    total = fam[0] + fam[1]
    assert (total - ident).is_zero()
    for a in range(2):
        for b in range(2):
            prod = fam[a] * fam[b]
            if a == b:
                assert (prod - fam[b]).is_zero()
            else:
                assert prod.is_zero()


def test_algebra_closure():
    lax = lax_x()
    session = HierarchySession(lax)
    fam = session.family(7)
    prod = fam[0] * fam[1]
    combo = fam[0] + fam[1].shift(-2).scale(F(3, 4))
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
            assert (conj.coeff(-j) - direct.coeff(-j)).is_zero()
        assert not any(nonzero([(alpha, verify_resolvent(lax, conj))]))


def test_route_agreement_first_order_everywhere():
    for make in (lax_const, lax_x):
        lax = make()
        d1 = solve_dressing(lax, 1)
        for alpha in range(2):
            conj = resolvent_from_dressing(d1, alpha)
            direct = solve_resolvent_direct(lax, alpha, 1)
            assert (conj.coeff(-1) - direct.coeff(-1)).is_zero()


def test_basis_expansion_of_normalization_difference():
    lax = lax_const()
    session = HierarchySession(lax)
    ortho = session.resolvent(0, 6)
    plain = session.resolvent(0, 6, "zero")
    base = [session.resolvent(b, 6, "zero") for b in range(2)]
    coeffs, remainder = expand_in_basis(ortho - plain, base)
    assert not any(nonzero([((), remainder)]))
    # leading repaired constants, as derived by hand
    assert coeffs[(0, 2)] == F(-1, 4)
    assert coeffs[(1, 2)] == F(1, 4)


def lax_n3(q=F(1, 3)):
    x = XSeries.monomial(1, 1, N)
    z = XSeries.zero(N)

    def c(v):
        return XSeries.const(v, N)

    u = MatSeries([[z, c(-2), x.scale(-2)], [c(-1), z, c(1)],
                   [x.scale(-2), c(1), z]])
    return LaxData([1, -1, 2], u, q)


def test_basis_expansion_needs_the_family_as_deep_as_the_series():
    session = HierarchySession(lax_n3())
    diff = session.resolvent(0, 5) - session.resolvent(0, 5, "zero")
    deep = [session.resolvent(b, 5, "zero") for b in range(3)]
    shallow = [session.resolvent(b, 2, "zero") for b in range(3)]
    coeffs, remainder = expand_in_basis(diff, deep)
    assert coeffs[(0, 4)] == F(-141, 40) and coeffs[(2, 4)] == F(7, 2)
    assert not any(nonzero([((), remainder)]))
    # the shallow family leaves z**-5 undetermined: it is not skipped
    with pytest.raises(InsufficientDepthError, match=r"z\*\*-5"):
        expand_in_basis(diff, shallow)


def _module_cache_sizes():
    """The size of every function cache held at module level in qakns."""
    return {
        f"{name}.{attr}": fn.cache_info().currsize
        for name, module in list(sys.modules.items())
        if name == "qakns" or name.startswith("qakns.")
        for attr, fn in vars(module).items() if hasattr(fn, "cache_info")
    }


def test_eig_weights_are_built_once_per_lax_data(monkeypatch):
    builds = []
    real = hierarchy.common_den

    def counted(values):
        builds.append(None)
        return real(values)

    monkeypatch.setattr(hierarchy, "common_den", counted)
    lax = lax_n3()
    solve_resolvent_direct(lax, 0, 3)
    tables = len(builds)
    # every ordered pair (j, i) of the three channels, the diagonal included
    assert tables == len(lax._eigs) == 9
    assert lax.eig_weights(2, 1) is lax.eig_weights(2, 1)
    for alpha in range(3):
        solve_resolvent_direct(lax, alpha, 3, "zero")
    assert len(builds) == tables


def test_no_module_cache_grows_across_solves():
    solve_resolvent_direct(lax_const(), 0, 3)
    sizes = _module_cache_sizes()
    for _ in range(3):  # a new LaxData each time, equal in value
        solve_resolvent_direct(lax_const(), 0, 3)
    assert _module_cache_sizes() == sizes


@pytest.mark.parametrize("q", [F(1, 3), F(1)], ids=["q", "classical"])
def test_a_second_solve_hashes_no_fraction(monkeypatch, q):
    # the weights of the dilation, the q-derivative, its inverse and the
    # eigen-division are read by integer keys or from the Lax datum
    lax = lax_n3(q)
    solve_resolvent_direct(lax, 0, 4)
    hashes = [0]
    real = F.__hash__

    def counted(self):
        hashes[0] += 1
        return real(self)

    monkeypatch.setattr(F, "__hash__", counted)
    solve_resolvent_direct(lax, 1, 4)
    monkeypatch.undo()
    assert hashes[0] == 0


def test_b_split():
    lax = lax_const()
    r = solve_resolvent_direct(lax, 0, 4)
    b, bbar = b_split(r, 1)
    e1z = MZSeries.from_term(2, 1, scalars([[1, 0], [0, 0]]))
    s = MZSeries.from_term(2, 0, scalars([[0, F(-1, 2)], [F(-1, 2), 0]]))
    assert (b - (e1z + s)).is_zero()
    assert ((b + bbar) - r.shift(1)).is_zero()
    b0, b0bar = b_split(r, 0)
    assert (b0 - MZSeries.from_term(2, 0, scalars([[1, 0], [0, 0]]))).is_zero()
    assert (b0bar - (r - b0)).is_zero()


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


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("make", [lax_const, lax_x])
def test_commutation_residual_is_the_literal_bracket(q, make):
    # the residual against D B - sigma(B)(U - zA) + (U - zA) B written out
    # with whole products and the defining quotient for D; on the
    # x-dependent U, sigma is not the identity, so the twist is exercised
    lax = make(q)
    m = lax.u_minus_za()
    r = HierarchySession(lax).resolvent(0, 6)
    for k in (1, 2):
        b, _ = b_split(r, k)
        db = b.map_entries(lambda e: q_derive_by_quotient(e, q))
        sb = b.map_entries(lambda e: calculus.dilate(e, q))
        literal = db - sb * m + m * b
        residual = commutation_residual(lax, b)
        assert not any(nonzero([((), residual - literal)]))
        if make is lax_x:
            assert not residual.is_zero()


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
    table = FlowTable(session.family(8))
    pairs = [((1, 0), (1, 1)), ((1, 0), (2, 0)), ((1, 1), (2, 0)), ((1, 0), (1, 0))]
    residuals = [(pair, verify_zero_curvature(table, *pair)) for pair in pairs]
    assert not any(nonzero(residuals))


# -- classical structure -----------------------------------------------------------


def classical_lax(rows):
    return LaxData([1, -1], scalar_matrix(rows, N), 1)


def test_classical_dressing_exists_for_full_potentials():
    lax = classical_lax([[0, 1], [1, 0]])
    d = solve_dressing(lax, 4)
    assert d.depth == 4
    rep_w = d.w
    a_z = MZSeries.from_term(2, 1, lax.a_mat())
    u_mz = MZSeries.from_term(2, 0, lax.u)
    residual = (
        rep_w.map_entries(lax.derive) + (u_mz * rep_w) - (a_z * rep_w)
        + (rep_w.map_entries(lax.dilate) * a_z)
    )
    assert residual.is_zero()


def test_classical_first_order_matches_q_case_for_const_u():
    # constant potential: the first-order resolvent is the same matrix in
    # the classical and every q structure
    classical = solve_resolvent_direct(classical_lax([[0, 1], [1, 0]]), 0, 1)
    expect = scalars([[0, F(-1, 2)], [F(-1, 2), 0]])
    assert (classical.coeff(-1) - expect).is_zero()
    for q in QS:
        rq = solve_resolvent_direct(lax_const(q), 0, 1)
        assert (rq.coeff(-1) - classical.coeff(-1)).is_zero()


def test_classical_x_potential_first_order():
    x = XSeries.monomial(1, 1, N)
    z = XSeries.zero(N)
    o = XSeries.one(N)
    lax = LaxData([1, -1], MatSeries([[z, x], [o, z]]), 1)
    r = solve_resolvent_direct(lax, 0, 6)
    expect = MatSeries([
        [z, XSeries.monomial(F(-1, 2), 1, N)],
        [XSeries.const(F(-1, 2), N), z],
    ])
    assert (r.coeff(-1) - expect).is_zero()
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
        diff = conj.truncate_below(-5) - direct
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


# -- a session reads shallower requests off its deepest solve ---------------------


SESSION_CASES = [
    (lax_vacuum, F(2)), (lax_tri, F(2)), (lax_const, F(2)), (lax_const, 1),
    (lax_x, F(3, 5)), (lax_x, 1), (lax_n3, F(1, 3)), (lax_n3, 1),
]


@pytest.mark.parametrize("normalization", ["orthogonal", "zero"])
@pytest.mark.parametrize("make, q", SESSION_CASES, ids=[
    f"{make.__name__}-q={q}".replace("/", "_") for make, q in SESSION_CASES])
def test_shallower_session_reads_equal_fresh_solves(make, q, normalization,
                                                    monkeypatch):
    import qakns.hierarchy as hy

    lax = make(q)
    session = HierarchySession(lax)
    solves = []
    real = hy.solve_resolvent_direct

    def counted(*args):
        solves.append(args[1:])
        return real(*args)

    monkeypatch.setattr(hy, "solve_resolvent_direct", counted)
    for alpha in range(lax.n):
        for depth in range(6, -1, -1):
            got = session.resolvent(alpha, depth, normalization)
            # MZSeries equality compares every term and zvalid
            assert got == solve_resolvent_direct(lax, alpha, depth, normalization)
    assert solves == [(alpha, 6, normalization) for alpha in range(lax.n)]


def test_session_cases_reach_an_exact_cut_and_one_just_short_of_it():
    # the zero-normalized triangular solve terminates at order 3: the cut at
    # depth 3 is exact, while at depth 2 the fresh solve cannot know that
    # order 3 vanishes and is unknown below z**-2
    session = HierarchySession(lax_tri())
    assert session.resolvent(0, 6, "zero").is_exact
    assert session.resolvent(0, 3, "zero").is_exact
    assert session.resolvent(0, 2, "zero").zvalid == -2
    assert session.resolvent(0, 0, "zero").zvalid == 0
    assert solve_resolvent_direct(lax_tri(), 0, 2, "zero").zvalid == -2


def test_a_session_request_that_raises_caches_nothing(monkeypatch):
    import qakns.hierarchy as hy

    lax = lax_n3()
    session = HierarchySession(lax)
    shallow = session.resolvent(0, 2)
    real = hy._next_order
    calls = [0]

    def failing(*args):
        calls[0] += 1
        if calls[0] == 4:
            raise DiagonalConsistencyError("injected at order 4")
        return real(*args)

    monkeypatch.setattr(hy, "_next_order", failing)
    with pytest.raises(DiagonalConsistencyError, match="order 4"):
        session.resolvent(0, 5)
    # the depth below it is solved afresh, not read off the failed solve
    # nor off the shallower one
    got = session.resolvent(0, 4)
    assert calls[0] == 8
    monkeypatch.undo()
    assert got == solve_resolvent_direct(lax, 0, 4)
    assert session.resolvent(0, 2) == shallow
    assert session.resolvent(0, 3) == solve_resolvent_direct(lax, 0, 3)


# -- the z-series carriers against the order-list rule they replaced ---------------


def ref_series(n, orders, exact):
    """sum orders[j] z**-j, unknown below the last order unless exact."""
    zvalid = NEG_INF if exact else 1 - len(orders)
    return MZSeries(n, {-j: m for j, m in enumerate(orders)}, zvalid=zvalid)


def ref_dressing_orders(lax, depth):
    ws = [MatSeries.identity(lax.n, lax.proto())]
    for _ in range(depth):
        ws.append(_next_order(lax, ws[-1], lambda w: ((-lax.u, w),), "dressing"))
    return ws


def ref_dressing(lax, orders):
    """A dressing terminates, and is exact, when its last order vanishes."""
    return ref_series(lax.n, orders, len(orders) > 1 and orders[-1].is_zero_exact())


def ref_resolvent(lax, alpha, depth, normalization):
    """The solver loop over an order list; only a zero-normalized series
    whose last order vanishes is exact."""
    context = f"resolvent channel {alpha+1}"
    unit = lax.unit(alpha)
    lift = unit - MatSeries.identity(lax.n, lax.proto())
    orders = [unit]
    for _ in range(depth):
        rho = _next_order(
            lax, orders[-1],
            lambda r: ((r.map(lax.dilate), lax.u), (-lax.u, r)), context,
        )
        if normalization == "orthogonal":
            rho = _idempotent_repair(alpha, lift, rho, orders)
        orders.append(rho)
    exact = normalization == "zero" and depth > 0 and orders[-1].is_zero_exact()
    return ref_series(lax.n, orders, exact)


def ref_conjugate(lax, w, depth, alpha):
    """w E_alpha w**-1 read into orders: all of them when exact, otherwise
    the known ones down to z**-depth."""
    unit = MZSeries.from_term(lax.n, 0, lax.unit(alpha))
    conj = w * unit * w.invert(-depth)
    if conj.is_exact:
        span = -min(min(conj.terms), -depth) if conj.terms else depth
        return ref_series(lax.n, [conj.coeff(-j) for j in range(span + 1)], True)
    orders = []
    for j in range(depth + 1):
        if -j < conj.zvalid:
            break
        orders.append(conj.coeff(-j))
    return ref_series(lax.n, orders, False)


def lax_classical():
    return classical_lax([[0, 1], [1, 0]])


CARRIER_CASES = [
    (lax_vacuum, 1), (lax_vacuum, 2), (lax_vacuum, 4), (lax_tri, 6),
    (lax_const, 1), (lax_x, 2), (lax_classical, 5),
]


@pytest.mark.parametrize("normalization", ["orthogonal", "zero"])
@pytest.mark.parametrize("make, depth", CARRIER_CASES)
def test_resolvent_series_matches_the_order_list_rule(make, depth, normalization):
    lax = make()
    for alpha in range(lax.n):
        got = solve_resolvent_direct(lax, alpha, depth, normalization)
        # MZSeries equality compares every term and zvalid
        assert got == ref_resolvent(lax, alpha, depth, normalization)


@pytest.mark.parametrize("make, depth", CARRIER_CASES)
def test_dressing_and_conjugates_match_the_order_list_rule(make, depth):
    lax = make()
    d = solve_dressing(lax, depth)
    ref_w = ref_dressing(lax, ref_dressing_orders(lax, depth))
    assert d.w == ref_w
    for alpha in range(lax.n):
        ref = ref_conjugate(lax, ref_w, depth, alpha)
        assert resolvent_from_dressing(d, alpha) == ref


def test_order_list_rule_cases_reach_both_validities():
    # the comparisons above see exact and inexact series on both routes
    assert solve_resolvent_direct(lax_vacuum(), 0, 4, "zero").is_exact
    assert solve_resolvent_direct(lax_vacuum(), 0, 4).zvalid == -4
    assert solve_dressing(lax_tri(), 6).w.is_exact
    assert resolvent_from_dressing(solve_dressing(lax_tri(), 6), 0).is_exact
    assert solve_dressing(lax_const(), 1).w.zvalid == -1
    assert resolvent_from_dressing(solve_dressing(lax_x(), 2), 0).zvalid == -2


@pytest.mark.parametrize("make, depth, zvalid", [
    (lax_vacuum, 1, -1), (lax_vacuum, 2, NEG_INF), (lax_tri, 6, NEG_INF),
])
def test_corrupted_dressing_keeps_the_order_list_rule(make, depth, zvalid):
    # w_1 gains the bump; the series stays exact only while its last order
    # still vanishes, so the depth-1 vacuum dressing becomes inexact
    lax = make()
    orders = ref_dressing_orders(lax, depth)
    orders[1] = orders[1] + MatSeries.diag_const([0, F(1, 3)], lax.proto())
    got = inject_corruption(solve_dressing(lax, depth), "1/3")
    assert got.w == ref_dressing(lax, orders)
    assert got.w.zvalid == zvalid
    assert got.depth == depth
