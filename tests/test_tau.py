"""Tau machinery: shifts, Baker assembly, the shift theorem, the limit."""

import json
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from qakns.matseries import MatSeries
from qakns.report import nonzero
from qakns.series import XSeries
from qakns.timepoly import TimePoly
from qakns.zseries import NEG_INF, MZSeries
from qakns.tau import (
    EXPQO_Z_DEPTH,
    TauCheckError,
    TauSpec,
    baker_from_tau,
    classical_limit_check,
    classical_residues,
    miwa_shift,
    q_shift_coeff,
    q_shift_times,
    substitution_commutes,
    taylor_agreement,
    verify_expqo,
    verify_tau_theorem,
)
from qakns.bilinear import lambda_pool

N = 8
QS = [F(2), F(1, 2), F(3, 5)]


def ctx2(tmax=6):
    return TimePoly.zero(tuple((k, a) for k in (1, 2) for a in range(2)), tmax, N)


def test_shift_coefficients():
    for q in QS:
        assert q_shift_coeff(1, q) == 1
    assert q_shift_coeff(2, F(2)) == F(-1, 6)


def test_q_shift_times_examples():
    ctx = ctx2()
    t11 = ctx.variable((1, 0))
    shifted = q_shift_times(t11, [1, -1], F(2))
    expect = t11 + ctx.constant(XSeries.monomial(1, 1, N))
    assert (shifted - expect).is_zero()
    t21 = ctx.variable((2, 0))
    shifted2 = q_shift_times(t21, [1, -1], F(2))
    expect2 = t21 + ctx.constant(XSeries.monomial(F(-1, 6), 2, N))
    assert (shifted2 - expect2).is_zero()
    one = ctx.constant(1)
    assert (q_shift_times(one, [1, -1], F(2)) - one).is_zero()


def test_q_shift_times_sums_each_monomial_once(monkeypatch):
    # one XSeries.dot per target monomial of each shift_var, not one
    # reduction per product and partial sum
    ctx = TimePoly.zero(((1, 0), (1, 1), (2, 0)), 4, 8)
    tau = ctx.from_monomials([
        ((0, 0, 0), 1), ((3, 0, 0), 1), ((1, 1, 1), 1), ((0, 0, 2), 1),
    ])
    calls = []
    real = XSeries.from_ints

    def from_ints(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(XSeries, "from_ints", staticmethod(from_ints))
    shifted = q_shift_times(tau, [1, -1], F(2))
    assert len(calls) <= 68
    monkeypatch.undo()
    # t_(1 1) -> t_(1 1) + x, t_(1 2) -> t_(1 2) - x, t_(2 1) -> t_(2 1) - x**2/6
    x = XSeries.monomial(1, 1, 8)
    t11, t12, t21 = (ctx.variable(v) + ctx.constant(s) for v, s in (
        ((1, 0), x), ((1, 1), -x), ((2, 0), XSeries.monomial(F(-1, 6), 2, 8))
    ))
    expect = ctx.constant(1) + t11 * t11 * t11 + t11 * t12 * t21 + t21 * t21
    assert shifted == expect


def test_miwa_examples():
    ctx = ctx2()
    one = ctx.constant(1)
    out = miwa_shift(one, 0)
    assert set(out) == {0} and (out[0] - one).is_zero()
    t = ctx.variable((1, 1))
    out = miwa_shift(t, 1)
    assert (out[0] - t).is_zero()
    assert (out[-1] + one).is_zero()
    sq = t * t
    out = miwa_shift(sq, 1)
    assert (out[0] - sq).is_zero()
    assert (out[-1] + t.scale(2)).is_zero()
    assert (out[-2] - one).is_zero()
    # unaffected channel
    out0 = miwa_shift(t, 0)
    assert set(out0) == {0}


def test_baker_from_tau_examples():
    ctx = ctx2()
    vac = baker_from_tau(ctx.constant(1), {}, 2)
    ident = MatSeries.identity(2, vac.proto)
    assert (vac.coeff(0) - ident).is_zero()
    for d in vac.terms:
        if d != 0:
            assert vac.terms[d].is_zero()
    # diagonal entry for tau = 1 + t11: (1 + t - z^-1)/(1 + t)
    tau = ctx.constant(1) + ctx.variable((1, 0))
    w = baker_from_tau(tau, {}, 2)
    inv = tau.invert()
    entry = w.coeff(-1)[0, 0]
    assert (entry + inv).is_zero()
    assert (w.coeff(0) - ident).is_zero()
    # off-diagonal companions enter with the z^-1 prefactor
    comp = {(0, 1): ctx.variable((1, 1))}
    w2 = baker_from_tau(tau, comp, 2)
    assert (w2.coeff(-1)[0, 1] - (ctx.variable((1, 1)) * inv)).is_zero()
    top = max(d for d in w2.terms if not w2.terms[d].is_zero())
    assert top == 0


def test_baker_rejects_zero_constant():
    ctx = ctx2()
    with pytest.raises(ZeroDivisionError):
        baker_from_tau(ctx.variable((1, 0)), {}, 2)


def test_baker_refuses_a_companion_truncated_in_t():
    # no terms, but known only through t-degree 1: the Miwa shift needs
    # the whole polynomial, so the companion may not read as an exact zero
    ctx = ctx2(tmax=4)
    t = ctx.variable((1, 1))
    comp = (t * t).with_tvalid(1) - (t * t).with_tvalid(1)
    assert comp.is_zero() and comp.tvalid == 1
    with pytest.raises(ValueError, match="needs an exact polynomial"):
        baker_from_tau(ctx.constant(1), {(0, 1): comp}, 2)


def test_baker_keeps_the_x_window_of_a_companion_zero_inside_it():
    ctx = ctx2(tmax=4)
    comp = ctx.constant(XSeries.zero(N).with_valid(2))
    w = baker_from_tau(ctx.constant(1), {(0, 1): comp}, 2)
    entry = w.coeff(-1)[0, 1]
    assert entry.is_zero() and not entry.is_exact
    assert entry.constant_term().valid == 2


@pytest.mark.parametrize("q", QS)
def test_expqo_exact(q):
    results = verify_expqo([1, -1], q, ctx2())
    assert not any(nonzero(results))


def test_expqo_rejects_an_x_order_below_its_z_depth():
    # through z**4 the shift amounts reach x**4; a shorter carrier would
    # compare truncated zeros
    ctx = TimePoly.zero(((1, 0), (1, 1)), 4, EXPQO_Z_DEPTH - 1)
    with pytest.raises(ValueError, match="beyond the x truncation"):
        verify_expqo([1, -1], F(2), ctx)


def test_expqo_z1_exponent():
    # at order z the shifted generator is t_(1 a) + a x
    ctx = ctx2()
    from qakns.calculus import graded_exp
    t = ctx.variable((1, 0))
    shift = ctx.constant(XSeries.monomial(1, 1, N))
    gens = {1: t + shift, 2: ctx.variable((2, 0))}
    rhs = graded_exp(gens, 2)
    assert (rhs[1] - (t + shift)).is_zero()


@pytest.mark.parametrize("q", QS)
def test_vacuum_passes_everything(q):
    ctx = ctx2()
    vac = TauSpec(ctx.constant(1), {}, 2)
    lams = lambda_pool([(1, 0), (1, 1)], 2)
    out = verify_tau_theorem(vac, [1, -1], q, 3, lams,
                             verify_expqo([1, -1], q, ctx))
    stages = {stage for (stage, _), _ in out}
    assert stages == {"substitution", "expqo", "q_bilinear", "taylor"}
    assert not any(nonzero(out))


def test_classical_precheck_rejects_non_solution():
    ctx = ctx2()
    bad = TauSpec(ctx.constant(1) + ctx.variable((1, 0)), {}, 2)
    records = classical_residues(bad, 2, [((1, 0),)])
    assert any(nonzero(records))
    with pytest.raises(TauCheckError):
        verify_tau_theorem(bad, [1, -1], F(2), 2, [(), ((1, 0),)],
                           verify_expqo([1, -1], F(2), ctx))


def test_substitutions_commute_generally():
    ctx = ctx2()
    t = ctx.variable((1, 0))
    s = ctx.variable((2, 1))
    spec = TauSpec(ctx.constant(1) + t * s + s, {}, 2)
    assert not any(nonzero(substitution_commutes(spec, [1, -1], F(2))))


def test_substitution_shifts_tau_once(monkeypatch):
    # the q-shift of tau is the same for every channel, so it runs once;
    # the other shifts are those of the Miwa-shifted entries
    import qakns.tau as tau_mod
    ctx = ctx2()
    spec = TauSpec(ctx.constant(1) + ctx.variable((1, 0)), {}, 2)
    entry_shifts, tau_shifts = [], []
    real_shift, real_map = tau_mod.q_shift_times, MZSeries.map_entries

    def map_entries(self, fn):
        entry_shifts.append(None)
        try:
            return real_map(self, fn)
        finally:
            entry_shifts.pop()

    def q_shift_times(p, a_values, q):
        if not entry_shifts:
            tau_shifts.append(p)
        return real_shift(p, a_values, q)

    monkeypatch.setattr(MZSeries, "map_entries", map_entries)
    monkeypatch.setattr(tau_mod, "q_shift_times", q_shift_times)
    records = substitution_commutes(spec, [1, -1], F(2))
    assert [c for c, _ in records] == [1, 2]
    assert len(tau_shifts) == 1 and tau_shifts[0] is spec.tau


def test_mechanism_agreement_on_non_solution():
    # the two-term and Taylor reductions are identities of the machinery:
    # they hold even for data that fails the bilinear residues. One time
    # degree above the x-order keeps every Taylor chain determined; at
    # tmax 4 the Taylor half determines no t-degree, and the verdict says so
    # (test_undetermined_taylor_half_fails_on_a_short_carrier)
    ctx = TimePoly.zero(tuple((k, a) for k in (1, 2) for a in range(2)), 7, 6)
    bad = TauSpec(ctx.constant(1) + ctx.variable((1, 0)), {}, 2)
    _, recs = taylor_agreement(bad, [1, -1], F(2), 1, [(), ((1, 0),)])
    assert recs and not any(nonzero(recs))
    qrecs, _ = taylor_agreement(bad, [1, -1], F(2), 2, [()])
    assert any(nonzero(qrecs))  # while the residues do fail


def test_classical_limit_cases():
    qs = [F(1) + F(1, 2**m) for m in (3, 4, 5, 6)]
    ctx = TimePoly.zero(((1, 0), (2, 0)), 6, N)
    t1, t2 = ctx.variable((1, 0)), ctx.variable((2, 0))
    norms, _ = classical_limit_check(t1, [1], qs)
    assert all(v == 0 for v in norms)
    _, ratios = classical_limit_check(t1 * t1, [1], qs)
    assert all(r == F(1, 2) for r in ratios)
    _, ratios2 = classical_limit_check(t2, [1], qs)
    assert all(r == F(1, 2) for r in ratios2)
    _, ratios3 = classical_limit_check(t1 * t1 * t2 + ctx.constant(1), [1], qs)
    lo, hi = F(45, 100), F(55, 100)
    assert all(lo <= r <= hi for r in ratios3)


def test_classical_limit_vacuum_zero():
    qs = [F(9, 8), F(17, 16)]
    ctx = TimePoly.zero(((1, 0),), 4, N)
    norms, _ = classical_limit_check(ctx.constant(1), [1], qs)
    assert all(v == 0 for v in norms)


def _mechanism_shape(tmax=7):
    """The carrier, tau and arguments of the tau.mechanism_agreement check."""
    ctx = TimePoly.zero(tuple((k, a) for k in (1, 2) for a in range(2)), tmax, 6)
    spec = TauSpec(ctx.constant(1) + ctx.variable((1, 0)), {}, 2)
    return spec, [1, -1], F(2), 1, [(), ((1, 0),)]


def _chain_reference(what, winv):
    """h(lam) by the memoized chain H_(lam+v) = d_v H_lam + H_lam g_v: reference.

    g_v = (d_v w + w z**k E_alpha) w**-1 is the flow factor of v = (k, alpha),
    built with whole z-series products; a flow the carrier does not hold
    has no t-derivative. Returns (h, g).
    """
    n = what.n
    g_memo, h_memo = {}, {}

    def g(k, alpha):
        if (k, alpha) not in g_memo:
            d_what = what.map_entries(lambda tp: tp.t_derive((k, alpha)))
            unit = MZSeries.from_term(n, k, MatSeries.unit(n, alpha, what.proto))
            g_memo[(k, alpha)] = (d_what * winv) + (what * unit * winv)
        return g_memo[(k, alpha)]

    def h(lam):
        lam = tuple(sorted(lam))
        if lam not in h_memo:
            if not lam:
                h_memo[lam] = MZSeries.identity(n, what.proto)
            else:
                prev, head = h(lam[:-1]), lam[-1]
                d_prev = prev.map_entries(lambda tp: tp.t_derive(head))
                h_memo[lam] = d_prev + prev * g(*head)
        return h_memo[lam]

    return h, g


def _agree_where_determined(got, ref):
    """`got` equals `ref` at every degree `ref` determines; returns the count
    of entries compared.

    Below z**0 the coefficients are equal: terms, tvalid and x-validity. At
    z**0 and above the chain's products leave some entries less determined
    in t, so there each entry's difference is zero and `got` may have the
    larger tvalid.
    """
    assert got.zvalid <= ref.zvalid
    count = 0
    for d in range(ref.zvalid, max(got.top(), ref.top()) + 1):
        x, y = got.coeff(d), ref.coeff(d)
        if d < 0:
            assert x == y, d
        for i in range(got.n):
            for j in range(got.n):
                u, v = x[i, j], y[i, j]
                assert u == v or (u - v).is_zero(), (d, i, j)
                assert u.tvalid >= v.tvalid, (d, i, j)
                count += 1
    return count


def _eta_pool(deltas: dict, xorder: int):
    """Taylor multi-indices with weights prod Delta_v**m_v / m_v!: reference.

    The flows are the keys of `deltas`. Each Delta_v has x-valuation k_v,
    so only multiplicities with sum k_v m_v <= xorder contribute in the
    truncated ring.
    """
    out = [((), XSeries.one(xorder))]
    var_list = sorted(deltas)

    def extend(idx, eta, weight, budget):
        if idx == len(var_list):
            return
        extend(idx + 1, eta, weight, budget)
        v = var_list[idx]
        m, w, used = 0, weight, 0
        while used + v[0] <= budget:
            m += 1
            used += v[0]
            w = (w * deltas[v]).scale(F(1, m))
            out.append((eta + (v,) * m, w))
            extend(idx + 1, eta + (v,) * m, w, budget - used)

    extend(0, (), XSeries.one(xorder), xorder)
    return out


@pytest.mark.parametrize("tau_kind", ["mechanism", "real"])
@pytest.mark.parametrize("q", [F(2), F(-1, 3)])
@pytest.mark.parametrize("xorder", [4, 6])
def test_graded_taylor_sum_matches_multiset_enumeration(xorder, q, tau_kind):
    # (graded sum) * w**-1 against sum over eta of Delta**eta / eta! h(lam+eta),
    # eta over the multisets of every flow (k, alpha) with k <= x-order, and
    # h the chain of flow factors, independent of `flow_step`
    from qakns.tau import flow_step, shift_difference, taylor_sum

    # the mechanism carrier adds a time of order 2, so the t-derivative of
    # S_2 is exercised; every other flow enters through z**k E_alpha only.
    # Equal a values keep the shifted real tau constant in x, so the
    # reference's whole-chain products stay small (a = [1, -1] agrees too,
    # at about 35 s per case at x-order 6); the mechanism tau carries x.
    if tau_kind == "real":
        spec = _real_tau(TimePoly.zero(((1, 0), (1, 1)), xorder + 1, xorder))
        a = [1, 1]
    else:
        ctx = TimePoly.zero(((1, 0), (1, 1), (2, 0)), xorder + 1, xorder)
        spec = TauSpec(ctx.constant(1) + ctx.variable((1, 0)), {}, 2)
        a = [1, -1]
    shifted = spec.mapped(lambda p: q_shift_times(p, a, q))
    what = baker_from_tau(shifted.tau, shifted.companions, 2)
    # a chain of total order K is known from floor + K; K <= x-order + 1
    winv = what.invert(-(xorder + 3))
    deltas = {
        (k, alpha): shift_difference(k, alpha, a, q, xorder)
        for k in range(1, xorder + 1) for alpha in range(2)
    }
    etas = _eta_pool(deltas, xorder)
    ref_h, _ = _chain_reference(what, winv)
    assert len(etas) == {4: 38, 6: 139}[xorder]
    pre = taylor_sum(what, deltas)
    one = XSeries.one(xorder)
    determined = nonzero_terms = 0
    for lam in [(), ((1, 0),)]:
        graded = pre
        for k, alpha in lam:
            graded = flow_step(graded, k, {alpha: one})
        for d in (-2, -1, 0):
            got = graded.product_coeff(winv, d)
            ref = None
            for eta, weight in etas:
                term = ref_h(lam + eta).coeff(d).map(
                    lambda tp: tp.scale_series(weight)
                )
                nonzero_terms += not term.is_zero()
                ref = term if ref is None else ref + term
            # terms, tvalid and x-validity alike
            assert got == ref, (lam, d)
            determined += min(e.tvalid for row in ref.rows for e in row) >= 0
    # every compared entry is determined, and the summed terms are not all
    # 0 = 0: on the solution tau every residue read vanishes, z**0 does not
    assert determined == 6 and nonzero_terms > 0


def test_taylor_agreement_reads_residues_of_leaf_chains(monkeypatch):
    calls = {"matmul": 0, "invert": 0}
    real_dot, real_invert = MatSeries.dot, MZSeries.invert

    def dot(blocks):
        # every block product, under `@` or in a z-degree block sum
        calls["matmul"] += len(blocks)
        return real_dot(blocks)

    def invert(x, floor):
        calls["invert"] += 1
        return real_invert(x, floor)

    monkeypatch.setattr(MatSeries, "dot", staticmethod(dot))
    monkeypatch.setattr(MZSeries, "invert", invert)
    _, recs = taylor_agreement(*_mechanism_shape())
    assert len(recs) == 8  # 4 records, each with its two halves
    # M = res(z**l L_lam(sigma(w) E_delta) w**-1) needs no Baker at [Aqx]_q,
    # so w is the only series inverted; the flow steps form no product, and
    # the whole check takes 129 block products (183 with D(H) built at every
    # degree, 290 with a second Baker and its inverse)
    assert calls["invert"] == 1
    assert calls["matmul"] <= 200


@pytest.mark.parametrize("tmax", [4, 7])
def test_taylor_sum_skipping_exact_zeros_keeps_the_records(monkeypatch, tmax):
    # the graded sum skips the t-derivatives along flows the carrier does not
    # hold; a multiset enumeration that forms every one of them, exact
    # zeros included, gives the same residuals
    import qakns.tau as tau_mod

    shape = _mechanism_shape(tmax)
    skipped = taylor_agreement(*shape)
    zeros = [0]

    def every_eta(what, deltas):
        chains = {(): what}

        def chain(eta):
            # P_(eta+v) = d_v P_eta + P_eta z**k E_alpha, with a matrix product
            if eta not in chains:
                prev, (k, alpha) = chain(eta[:-1]), eta[-1]
                d_prev = prev.map_entries(lambda tp: tp.t_derive((k, alpha)))
                zeros[0] += d_prev.is_zero_exact()
                unit = MatSeries.unit(2, alpha, what.proto)
                chains[eta] = d_prev + prev * MZSeries.from_term(2, k, unit)
            return chains[eta]

        acc = None
        for eta, weight in _eta_pool(deltas, 6):
            term = chain(eta).map_entries(lambda tp: tp.scale_series(weight))
            acc = term if acc is None else acc + term
        return acc

    monkeypatch.setattr(tau_mod, "taylor_sum", every_eta)
    summed = taylor_agreement(*shape)
    monkeypatch.undo()
    assert summed == skipped
    # at tmax 4 the longest chains determine no t-degree: the Taylor half
    # fails as undetermined there, and only as undetermined
    taylor = [w for (_, _, half), w in nonzero(summed[1]) if half == "taylor"]
    assert all(w[0] == "undetermined" for w in taylor)
    assert bool(taylor) == (tmax == 4)
    assert zeros[0] > 0


def test_taylor_half_on_determined_carrier():
    _, recs = taylor_agreement(*_mechanism_shape(tmax=7))
    assert recs
    assert not any(half == "taylor" for (_, _, half), _ in nonzero(recs))


@pytest.mark.parametrize("mutation", ["doubled_eta_terms", "carried_orders_only"])
def test_taylor_half_fails_under_a_broken_sum(monkeypatch, mutation):
    import qakns.tau as tau_mod

    real = tau_mod.taylor_sum

    def doubled(what, deltas):
        # 2 T - what: every eta != () term counted twice
        return real(what, deltas).scale(2) - what

    def carried_orders_only(what, deltas):
        # the pool of the tau's own times, which misses the flows E_delta
        # shifts without a time variable on the carrier
        return real(what, {v: s for v, s in deltas.items() if v in what.proto.vars})

    broken = doubled if mutation == "doubled_eta_terms" else carried_orders_only
    monkeypatch.setattr(tau_mod, "taylor_sum", broken)
    failed = nonzero(taylor_agreement(*_mechanism_shape())[1])
    # all four records fail their Taylor half, and only that half
    assert [label for label, _ in failed] == [
        (l, lam, "taylor") for lam in [(), ((1, 0),)] for l in (0, 1)
    ]


def test_mechanism_check_compares_determined_taylor_residuals(monkeypatch):
    # the carrier tau.mechanism_agreement runs on makes its Taylor half
    # more than 0 = 0: every compared coefficient has tvalid >= 0
    import qakns.tau as tau_mod
    from qakns.config import demo_config
    from qakns.suites import run_suite

    seen = []
    real = tau_mod.taylor_agreement

    def recorded(*args):
        recs = real(*args)
        seen.extend(recs[1])
        return recs

    monkeypatch.setattr(tau_mod, "taylor_agreement", recorded)
    cfg = demo_config()
    cfg = type(cfg)(**{**cfg.__dict__, "checks": ("tau.mechanism_agreement",)})
    (res,) = run_suite(cfg).checks
    assert res.status == "pass"
    taylor = [r for (_, _, half), r in seen if half == "taylor"]
    assert len(taylor) == 4
    for r in taylor:
        assert min(r[i, j].tvalid for i in range(2) for j in range(2)) >= 0


@pytest.mark.parametrize("tmax", [4, 7])
@pytest.mark.parametrize("q", [F(2), F(-1, 3), F(3, 5)])
@pytest.mark.parametrize("tau_kind", ["mechanism", "real"])
def test_h_matches_chain_reference(tau_kind, q, tmax):
    # P_lam w**-1 against the chain of flow factors, for lam up to length 3
    # over the carrier's flows and (3, 0), which the carrier does not hold
    from qakns.tau import flow_factor

    ctx = TimePoly.zero(tuple((k, a) for k in (1, 2) for a in range(2)), tmax, 6)
    # equal a values keep the shifted real tau constant in x, which keeps
    # the reference's whole-chain products small; the mechanism tau carries x
    if tau_kind == "real":
        spec, a = _real_tau(ctx), [1, 1]
    else:
        spec, a = TauSpec(ctx.constant(1) + ctx.variable((1, 0)), {}, 2), [1, -1]
    shifted = spec.mapped(lambda p: q_shift_times(p, a, q))
    what = baker_from_tau(shifted.tau, shifted.companions, 2)
    winv = what.invert(-10)
    ref_h, _ = _chain_reference(what, winv)
    empty = flow_factor(what, winv, ())
    assert empty == ref_h(()) and empty.is_exact
    lams = lambda_pool([(1, 0), (2, 1), (3, 0)], 3)
    assert ((3, 0),) * 3 in lams and len(lams) == 20
    compared = 0
    for lam in lams[1:]:
        compared += _agree_where_determined(flow_factor(what, winv, lam), ref_h(lam))
    assert compared > 0
    # the solution tau's factors vanish below z**0; the mechanism tau is no
    # solution, so its comparison there is more than 0 = 0
    below = any(
        not ref_h(lam).coeff(d).is_zero()
        for lam in lams[1:] for d in range(ref_h(lam).zvalid, 0)
    )
    assert below == (tau_kind == "mechanism")


def test_h_takes_a_flow_the_carrier_does_not_hold():
    # a time the carrier lacks has an exactly zero t-derivative, so
    # g = w z**k E_alpha w**-1 and the step costs no tvalid
    from qakns.tau import flow_factor

    ctx = TimePoly.zero(((1, 0), (1, 1)), 4, 6)
    spec = _real_tau(ctx)
    what = baker_from_tau(spec.tau, spec.companions, 2)
    winv = what.invert(-8)

    def h(lam):
        return flow_factor(what, winv, lam)

    unit = MZSeries.from_term(2, 3, MatSeries.unit(2, 0, what.proto))
    expect = what * unit * winv
    _, ref_g = _chain_reference(what, winv)
    assert ref_g(3, 0) == expect
    assert _agree_where_determined(h(((3, 0),)), expect) > 0
    assert not expect.is_zero()
    # a chain that ends in it is the chain before times that factor
    assert _agree_where_determined(h(((1, 0), (3, 0))), h(((1, 0),)) * expect) > 0


def _zexp_power_sum(gens, depth):
    """exp of sum_k z**k gens[k] as the power sum sum_m G**m / m!: reference."""
    any_gen = next(iter(gens.values()))
    acc = {0: any_gen.one_like()}
    term = {0: any_gen.one_like()}
    for m in range(1, depth + 1):
        nxt = {}
        for d, poly in term.items():
            for k, g in gens.items():
                if d + k <= depth:
                    add = (poly * g).scale(F(1, m))
                    nxt[d + k] = nxt[d + k] + add if d + k in nxt else add
        term = nxt
        for d, poly in term.items():
            acc[d] = acc[d] + poly if d in acc else poly
    return acc


def test_zexp_recurrence_matches_power_sum_on_time_variables():
    # the verify_expqo shape, at a depth beyond tmax so products overflow
    from qakns.calculus import graded_exp

    ctx = ctx2(tmax=3)
    for q in QS:
        gens = {
            k: ctx.constant(XSeries.monomial(q_shift_coeff(k, q), k, N))
            for k in range(1, 7)
        }
        for k in (1, 2):
            gens[k] = gens[k] + ctx.variable((k, 0))
        got, ref = graded_exp(gens, 6), _zexp_power_sum(gens, 6)
        assert got.keys() == ref.keys()
        for d in ref:
            assert got[d] == ref[d], (q, d)  # terms and tvalid
        assert any(p.tvalid == ctx.tmax for p in ref.values())


def test_zexp_recurrence_matches_power_sum_on_x_constants():
    # the E_delta shape: x-series constants in t, one generator per order
    from qakns.calculus import graded_exp
    from qakns.tau import shift_difference

    proto = ctx2().constant(1)
    families = [
        {k: shift_difference(k, alpha, [1, -1], q, N) for k in range(1, N + 1)}
        for q in QS for alpha in (0, 1)
    ]
    # E_delta itself collapses to 1 - (1-q) a x z; generic constants do not
    families.append(
        {k: XSeries.poly([F(1, k)] + [0] * (k - 1) + [F(k, 3)], N)
         for k in range(1, N + 1)}
    )
    for series in families:
        gens = {k: proto.scale_series(s) for k, s in series.items()}
        got, ref = graded_exp(gens, N), _zexp_power_sum(gens, N)
        assert got.keys() == ref.keys()
        for d in ref:
            assert got[d] == ref[d], d  # terms and tvalid
    assert not ref[N].is_zero()


@pytest.mark.parametrize("xorder", [6, 8, 16])
@pytest.mark.parametrize("q", [F(2), F(-1, 3), F(3, 5)])
def test_e_delta_closed_form_matches_power_sum(q, xorder):
    # I + (q-1) z A x against exp of sum_k z**k Delta_k over every x-order
    from qakns.tau import e_delta, shift_difference

    a_vals = [F(1), F(-3, 2)]
    proto = TimePoly.zero(((1, 0), (1, 1)), 4, xorder).constant(1)
    got = e_delta(a_vals, q, proto)
    assert set(got.terms) == {0, 1} and got.is_exact
    zero = proto.zero_like()
    for alpha in range(2):
        gens = {
            k: proto.scale_series(shift_difference(k, alpha, a_vals, q, xorder))
            for k in range(1, xorder + 1)
        }
        ref = _zexp_power_sum(gens, xorder)
        for d in range(xorder + 1):
            block = got.coeff(d)
            # terms, tvalid and the coefficients' x-validity
            assert block[alpha, alpha] == ref.get(d, zero), (alpha, d)
            assert block[alpha, 1 - alpha] == zero


def _real_tau(ctx):
    """tau = 1 - t_(1,1) + t_(1,2), companions -1 and 1: a known solution."""
    tau = ctx.constant(1) - ctx.variable((1, 0)) + ctx.variable((1, 1))
    comps = {(0, 1): ctx.constant(-1), (1, 0): ctx.constant(1)}
    return TauSpec(tau, comps, 2)


@pytest.mark.parametrize("xorder", [6, 8])
@pytest.mark.parametrize("q", [F(2), F(-1, 3), F(3, 5)])
def test_dilated_baker_is_the_baker_at_the_dilated_shift(q, xorder):
    # taylor_agreement builds the Baker at [Aqx]_q as the x -> qx dilation
    # of the one at [Ax]_q; the reference shifts by the dilated amounts
    from qakns.calculus import dilate

    ctx = TimePoly.zero(tuple((k, a) for k in (1, 2) for a in range(2)), 4, xorder)
    mechanism = TauSpec(ctx.constant(1) + ctx.variable((1, 0)), {}, 2)
    a_vals = [1, -1]
    for spec in (_real_tau(ctx), mechanism):
        def baker(amounts):
            shifted = spec.mapped(lambda p: q_shift_times(p, amounts, q))
            return baker_from_tau(shifted.tau, shifted.companions, 2)

        what = baker(a_vals)
        got = what.map_entries(lambda tp: tp.map_coeffs(lambda s: dilate(s, q)))
        ref = baker([q * a for a in a_vals])
        assert got.terms == ref.terms and got.zvalid == ref.zvalid
        assert any(not m.is_zero() for d, m in ref.terms.items() if d < 0)


def test_taylor_agreement_product_count_at_x16(monkeypatch):
    # the tau.theorem call on the vacuum spec of the deep_x shape
    ctx = TimePoly.zero(((1, 0), (1, 1), (2, 0)), 4, 16)
    lams = [lam for lam in lambda_pool(list(ctx.vars), 2) if len(lam) <= 1]
    calls = [0]
    real = XSeries.__mul__

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(XSeries, "__mul__", counted)
    _, recs = taylor_agreement(TauSpec(ctx.constant(1), {}, 2), [1, -1], F(2), 3, lams)
    monkeypatch.undo()
    assert len(recs) == 32  # 16 records, each with its two halves
    assert not any(nonzero(recs))
    # monomials above tvalid, rebuilt zero matrices and the power-sum E_delta
    # took 2,088 products, the chain reads 660; the graded sum takes 111
    assert calls[0] <= 800


def _miwa_binomial(p, beta):
    """miwa_shift as the product of binomials over each monomial: reference."""
    idxs = [i for i, (k, a) in enumerate(p.vars) if a == beta]
    out = {}
    for e, c in p.terms.items():
        expansions = [(0, {})]  # (z-degree, {var index: lowered amount})
        for i in idxs:
            k = p.vars[i][0]
            expansions = [
                (zdeg - k * j, {**lowered, i: j} if j else lowered)
                for zdeg, lowered in expansions for j in range(e[i] + 1)
            ]
        for zdeg, lowered in expansions:
            coeff, e2 = c, list(e)
            for i, j in lowered.items():
                k = p.vars[i][0]
                coeff = coeff.scale(F(math.comb(e[i], j)) * F(-1, k) ** j)
                e2[i] = e[i] - j
            poly = TimePoly(p.vars, {tuple(e2): coeff}, p.tmax, p.xorder)
            out[zdeg] = out[zdeg] + poly if zdeg in out else poly
    return out


def _baker_reference(tau, companions, n):
    """baker_from_tau assembled degree by degree from `_miwa_binomial`."""
    inv = tau.invert()
    rows = {}

    def entry(d, i, j, poly):
        if d not in rows:
            rows[d] = [[tau.zero_like() for _ in range(n)] for _ in range(n)]
        rows[d][i][j] = poly * inv

    for alpha in range(n):
        for d, poly in _miwa_binomial(tau, alpha).items():
            entry(d, alpha, alpha, poly)
    for (alpha, beta), comp in companions.items():
        for d, poly in _miwa_binomial(comp, beta).items():
            entry(d - 1, alpha, beta, poly)
    return MZSeries(n, {d: MatSeries(r) for d, r in rows.items()}, NEG_INF,
                    tau.zero_like())


def _random_poly(rng, ctx, terms, constant=None):
    """A seeded polynomial on ctx: a few monomials with x-series coefficients."""
    monomials = []
    for _ in range(terms):
        e = [0] * len(ctx.vars)
        for _ in range(rng.randint(1, ctx.tmax)):
            e[rng.randrange(len(e))] += 1
        if sum(e) <= ctx.tmax:
            monomials.append((e, F(rng.randint(-4, 4), rng.randint(1, 3))))
    if constant is not None:
        monomials.append(([0] * len(ctx.vars), constant))
    poly = ctx.from_monomials(monomials)
    # an x-dependent factor, so coefficients are series and not constants
    return poly.scale_series(XSeries.poly([1, rng.randint(-2, 2)], ctx.xorder))


def test_miwa_taylor_sum_matches_binomial_expansion():
    rng = random.Random(20)
    for n in (2, 3):
        ctx = TimePoly.zero(
            tuple((k, a) for k in (1, 2, 3) for a in range(n)), 5, 4
        )
        for _ in range(40):
            p = _random_poly(rng, ctx, rng.randint(1, 5))
            for beta in range(n):
                got, ref = miwa_shift(p, beta), _miwa_binomial(p, beta)
                for d in set(got) | set(ref):
                    assert got.get(d, ctx).terms == ref.get(d, ctx).terms


def test_taylor_agreement_reads_a_tau_deeper_than_its_reads():
    # tau = 1 + t_(2,1)**4 has Miwa reach 8, so its Baker reaches z**-8.
    # Cut at z**-6, that Baker would leave its inverse undetermined at
    # z**-4, which the q pass reads at l_max 3; the whole substitution
    # determines all 24 Taylor records, and each is zero
    ctx = TimePoly.zero(((1, 0), (1, 1), (2, 0)), 12, 4)
    t = ctx.variable((2, 0))
    spec = TauSpec(ctx.constant(1) + t * t * t * t, {}, 2)
    assert min(miwa_shift(spec.tau, 0)) == -8
    lams = [(), ((1, 0),), ((2, 0),)]
    _, recs = taylor_agreement(spec, [1, -1], F(2), 3, lams)
    taylor = [r for (_, _, half), r in recs if half == "taylor"]
    assert len(recs) == 24 and len(taylor) == 12
    assert not any(nonzero(recs))


def test_graded_apply_is_the_one_writer(monkeypatch):
    # the generators' exponential, the Miwa substitution and the Taylor sum
    # each run the recurrence of calculus.graded_apply, not a loop of their own
    from qakns import calculus, tau as tau_mod
    from qakns.tau import shift_difference, taylor_sum

    ctx = ctx2()
    t = ctx.variable((1, 1))
    what = baker_from_tau(ctx.constant(1) + t, {}, 2)
    real, calls = calculus.graded_apply, []

    def counting(seed, step, orders, depth):
        calls.append(type(seed).__name__)
        return real(seed, step, orders, depth)

    monkeypatch.setattr(calculus, "graded_apply", counting)
    monkeypatch.setattr(tau_mod, "graded_apply", counting)
    deltas = {(1, 0): shift_difference(1, 0, [1, -1], F(2), N)}
    for run, seed in [
        (lambda: calculus.graded_exp({1: t}, 3), "TimePoly"),
        (lambda: miwa_shift(t * t, 1), "TimePoly"),
        (lambda: taylor_sum(what, deltas), "MZSeries"),
    ]:
        calls.clear()
        run()
        assert calls == [seed]


def test_baker_from_tau_matches_binomial_reference():
    rng = random.Random(21)
    for n in (2, 3):
        ctx = TimePoly.zero(
            tuple((k, a) for k in (1, 2, 3) for a in range(n)), 4, 3
        )
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for _ in range(12):
            tau = _random_poly(rng, ctx, rng.randint(0, 4), constant=1)
            comps = {
                ij: _random_poly(rng, ctx, rng.randint(1, 3))
                for ij in rng.sample(pairs, rng.randint(0, len(pairs)))
            }
            comps = {ij: c for ij, c in comps.items() if not c.is_zero()}
            got = baker_from_tau(tau, comps, n)
            ref = _baker_reference(tau, comps, n)
            assert got.zvalid == ref.zvalid
            for d in set(got.terms) | set(ref.terms):
                a, b = got.coeff(d), ref.coeff(d)
                for i in range(n):
                    for j in range(n):
                        assert a[i, j].terms == b[i, j].terms, (d, i, j)


def test_expqo_fails_on_a_broken_shift_weight(monkeypatch):
    import qakns.tau as tau_mod

    real = tau_mod.q_shift_coeff
    monkeypatch.setattr(
        tau_mod, "q_shift_coeff",
        lambda k, q: real(k, q) + (1 if k == 2 else 0),
    )
    # channel 2 has a = 0, so its shift amounts vanish whatever the weight
    results = verify_expqo([1, 0], F(2), ctx2())
    assert [channel for channel, _ in results] == [1, 2]
    # z**2 at the one entry of the 1 x 1 residual: the right side gains the
    # extra weight times (a x)**2
    assert list(nonzero(results)) == [(1, (2, 0, 0, (0, 0, 0, 0), 2, F(-1)))]


def test_substitution_commutes_detects_one_differing_degree(monkeypatch):
    import qakns.tau as tau_mod

    ctx = ctx2()
    t, s = ctx.variable((1, 0)), ctx.variable((2, 0))
    spec = TauSpec(ctx.constant(1) + t * s + s, {}, 2)
    assert not any(nonzero(substitution_commutes(spec, [1, -1], F(2))))
    target = miwa_shift(spec.tau, 0)[-2]  # -(1 + t)/2: one Miwa component
    real = tau_mod.q_shift_times

    def scaled(p, *args, **kwargs):
        out = real(p, *args, **kwargs)
        return out.scale(3) if p == target else out

    monkeypatch.setattr(tau_mod, "q_shift_times", scaled)
    assert any(nonzero(substitution_commutes(spec, [1, -1], F(2))))


def _whole_products(monkeypatch):
    """Build g, every H_lam and the m = 1 reductions at every degree."""
    import qakns.bilinear as bl
    import qakns.tau as tau_mod

    real_h, real_g = tau_mod.flow_factor, tau_mod.x_factor_of
    real_dt = bl.derive_through
    monkeypatch.setattr(tau_mod, "flow_factor",
                        lambda what, winv, lam, lo=None: real_h(what, winv, lam))
    monkeypatch.setattr(tau_mod, "x_factor_of", lambda *args: real_g(*args[:5]))
    monkeypatch.setattr(bl, "derive_through",
                        lambda f, g, derive, dilate, *window: real_dt(f, g, derive, dilate))


RATIONAL = Path(__file__).resolve().parent.parent / "configs" / "tau_rational.json"


def _tau_theorem_case(kind, **changes):
    """(spec, a, q, l_max, lambdas, expqo) as tau.theorem runs it.

    "vacuum" is the demo config, "rational" configs/tau_rational.json, and
    "real" the demo config with the rational config's tau. `changes`
    replace top-level fields of the config data.
    """
    from qakns.config import DEMO_CONFIG, parse_config
    from qakns.suites import SuiteContext, _tau_spec_from_config

    rational = json.loads(RATIONAL.read_text())
    data = dict(DEMO_CONFIG)
    if kind == "rational":
        data = rational
    elif kind == "real":
        data["tau"] = rational["tau"]
    cfg = parse_config({**data, **changes})
    ctx = SuiteContext(cfg)
    lambdas = [lam for lam in ctx.lambdas() if len(lam) <= 1]
    return (_tau_spec_from_config(ctx), list(cfg.a), cfg.q, min(cfg.l_max, 3),
            lambdas, ctx.expqo)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return f"{type(exc).__name__}: {exc}"


def _q_pass(*args):
    """The q pass's records, the q-bilinear ones then the Taylor ones."""
    return [r for part in taylor_agreement(*args) for r in part]


@pytest.mark.parametrize("kind", ["mechanism", "vacuum", "real"])
def test_windowed_taylor_and_q_bilinear_match_the_whole_products(kind, monkeypatch):
    if kind == "mechanism":
        args = _mechanism_shape()
        runs = [(_q_pass, args)]
    else:
        spec, a, q, l_max, lambdas, expqo = _tau_theorem_case(kind)
        runs = [
            (_q_pass, (spec, a, q, l_max, lambdas)),
            (verify_tau_theorem, (spec, a, q, l_max, lambdas, expqo)),
        ]
    got = [_outcome(fn, *args) for fn, args in runs]
    _whole_products(monkeypatch)
    ref = [_outcome(fn, *args) for fn, args in runs]
    # labels, residues, tvalid and x-validity alike; or the same error text
    assert got == ref
    assert all(isinstance(r, list) and r for r in got)


# the reference pass's inverse depth per case: deep enough for the
# mechanism and vacuum residues, short of what the real and rational ones read
_REFERENCE_DEPTH = {"mechanism": 5, "vacuum": 6, "real": 6, "rational": 4}


def _q_bilinear_reference(spec, a_values, q, l_max, lambdas, depth):
    """The q-bilinear residues by a pass of their own: a second q-shifted
    Baker inverted at -depth, with `bilinear_residues` over the whole H and
    g: reference."""
    from qakns.bilinear import bilinear_residues, x_factor_of
    from qakns.calculus import dilate, q_derive
    from qakns.tau import flow_factor

    shifted = spec.mapped(lambda p: q_shift_times(p, a_values, q))
    what = baker_from_tau(shifted.tau, shifted.companions, spec.n)
    winv = what.invert(-depth)

    def derive_x(tp):
        return tp.map_coeffs(lambda s: q_derive(s, q))

    def dilate_x(tp):
        return tp.map_coeffs(lambda s: dilate(s, q))

    g = x_factor_of(what, winv, a_values, derive_x, dilate_x)
    return bilinear_residues(lambda lam: flow_factor(what, winv, lam), g,
                             derive_x, dilate_x, l_max, lambdas)


@pytest.mark.parametrize("q", [F(2), F(-1, 3), F(3, 5)])
@pytest.mark.parametrize("kind", ["mechanism", "vacuum"])
def test_q_bilinear_records_match_a_pass_of_their_own(kind, q):
    if kind == "mechanism":
        spec, a, _, l_max, lambdas = _mechanism_shape()
    else:
        spec, a, _, l_max, lambdas, _ = _tau_theorem_case(kind)
    got, _ = taylor_agreement(spec, a, q, l_max, lambdas)
    ref = _q_bilinear_reference(spec, a, q, l_max, lambdas, _REFERENCE_DEPTH[kind])
    assert len(got) == 2 * (l_max + 1) * len(lambdas)
    # labels, order, residues, tvalid and x-validity alike
    assert got == ref
    # the mechanism tau is no solution, so its comparison is more than 0 = 0
    assert any(nonzero(ref)) == (kind == "mechanism")


@pytest.mark.parametrize("kind", ["real", "rational"])
def test_q_bilinear_records_determined_where_a_pass_at_depth_raises(kind):
    # the real tau's q-bilinear residues read the inverse below -depth: the
    # pass of their own raises, and the one q pass returns them determined
    from qakns.zseries import InsufficientDepthError

    spec, a, q, l_max, lambdas, _ = _tau_theorem_case(kind)
    with pytest.raises(InsufficientDepthError):
        _q_bilinear_reference(spec, a, q, l_max, lambdas, _REFERENCE_DEPTH[kind])
    got, _ = taylor_agreement(spec, a, q, l_max, lambdas)
    assert len(got) == 2 * (l_max + 1) * len(lambdas) and not any(nonzero(got))


def test_tau_theorem_builds_and_inverts_two_bakers(monkeypatch):
    # the classical precheck's Baker and the q pass's, one inverse each
    import qakns.tau as tau_mod
    from qakns.config import demo_config
    from qakns.suites import run_suite

    calls = {"baker": 0, "invert": 0}
    real_baker, real_invert = tau_mod.baker_from_tau, MZSeries.invert

    def baker(*args):
        calls["baker"] += 1
        return real_baker(*args)

    def invert(x, floor):
        calls["invert"] += 1
        return real_invert(x, floor)

    monkeypatch.setattr(tau_mod, "baker_from_tau", baker)
    monkeypatch.setattr(MZSeries, "invert", invert)
    cfg = demo_config()
    cfg = type(cfg)(**{**cfg.__dict__, "checks": ("tau.theorem",)})
    (res,) = run_suite(cfg).checks
    assert res.status == "pass"
    assert calls == {"baker": 2, "invert": 2}


def test_tau_theorem_reports_the_l_max_it_reads(monkeypatch):
    # at l_max 8 the check reads l <= 3; its params name that l_max, and its
    # z window is the deepest degree its q-bilinear and Taylor stages compare
    import qakns.tau as tau_mod
    from qakns.config import DEMO_CONFIG, parse_config
    from qakns.suites import run_suite

    seen = []
    real = tau_mod.verify_tau_theorem

    def recorded(*args):
        seen.extend(real(*args))
        return seen

    monkeypatch.setattr(tau_mod, "verify_tau_theorem", recorded)
    data = {**DEMO_CONFIG, "l_max": 8, "checks": ["tau.theorem"]}
    (res,) = run_suite(parse_config(data)).checks
    assert res.status == "pass"
    assert res.params == {"lambdas": 4, "l_max": 3}
    assert res.max_degree_verified == {"z": 4, "t": 4}
    compared = {label[0] for (stage, label), _ in seen if stage == "taylor"}
    assert max(compared) + 1 == res.max_degree_verified["z"]


def test_rational_tau_config_verifies(capsys):
    from qakns.cli import main

    assert main(["verify", "--config", str(RATIONAL)]) == 0
    assert "30/30 checks passed" in capsys.readouterr().out
    out = verify_tau_theorem(*_tau_theorem_case("rational"))
    # 2 substitution, 2 expqo, 24 q-bilinear and 24 Taylor records; the
    # verdict also fails an entry that determines no coefficient
    assert len(out) == 52 and not any(nonzero(out))
    compared = [r for (stage, _), r in out if stage in ("q_bilinear", "taylor")]
    assert all(e.tvalid >= 0 for r in compared for row in r.rows for e in row)


def test_rational_tau_with_a_corrupted_companion_is_rejected():
    data = json.loads(RATIONAL.read_text())
    tau = data["tau"]
    tau["companions"]["1,2"] = [{"exponents": [0, 0, 0], "coeff": "-2"}]
    with pytest.raises(TauCheckError, match=r"l=0 m=0 lam=\[\(1,1\)\]"):
        verify_tau_theorem(*_tau_theorem_case("rational", tau=tau))


def test_a_rejected_tau_reports_its_witness_as_coordinates():
    from qakns.config import parse_config
    from qakns.suites import run_suite

    data = json.loads(RATIONAL.read_text())
    data["tau"]["companions"]["1,2"] = [{"exponents": [0, 0, 0], "coeff": "-2"}]
    (res,) = run_suite(parse_config({**data, "checks": ["tau.theorem"]})).checks
    assert res.status == "fail" and res.params == {"rejected": True}
    # entry (0, 0), time monomial 1, x**0: the residue is -1
    assert res.first_failure == {"coordinates": [
        "l=0 m=0 lam=[(1,1)]", "0", "0", "0", "0", "0", "0", "-1"]}


def test_rational_tau_fails_on_a_doubled_first_order_weight(monkeypatch):
    import collections

    import qakns.tau as tau_mod

    real = tau_mod.q_shift_coeff
    monkeypatch.setattr(tau_mod, "q_shift_coeff",
                        lambda k, q: real(k, q) * (2 if k == 1 else 1))
    out = verify_tau_theorem(*_tau_theorem_case("rational"))
    failed = collections.Counter(stage for (stage, _), _ in nonzero(out))
    assert len(out) == 52
    assert failed == {"q_bilinear": 3, "taylor": 3, "expqo": 2}


def test_real_tau_on_a_short_time_carrier_fails_as_undetermined():
    # at the demo shape (t = 4) half of the Taylor entries determine no
    # t-degree: the check fails and names one of them, it does not pass
    from qakns.config import DEMO_CONFIG, parse_config
    from qakns.suites import run_suite

    data = {**DEMO_CONFIG, "tau": json.loads(RATIONAL.read_text())["tau"],
            "checks": ["tau.theorem"]}
    (res,) = run_suite(parse_config(data)).checks
    assert res.status == "fail"
    coords = res.first_failure["coordinates"]
    assert coords[0] == "taylor" and "undetermined" in coords
    assert coords[-2:] == ["t", "-4"]


def test_undetermined_taylor_half_fails_on_a_short_carrier():
    # the mechanism tau on tmax 4: the Taylor chains longer than the carrier
    # holds leave the Taylor half with no determined t-degree
    ctx = TimePoly.zero(tuple((k, a) for k in (1, 2) for a in range(2)), 4, 6)
    spec = TauSpec(ctx.constant(1) + ctx.variable((1, 0)), {}, 2)
    _, recs = taylor_agreement(spec, [1, -1], F(2), 1, [(), ((1, 0),)])
    failed = list(nonzero(recs))
    assert [label for label, _ in failed] == [
        (l, lam, "taylor") for lam in [(), ((1, 0),)] for l in (0, 1)
    ]
    assert [w[0] for _, w in failed] == ["undetermined"] * 4
