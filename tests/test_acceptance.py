"""Acceptance criteria, one test per criterion, tolerance zero throughout.

Every assertion is coefficient-exact on rationals at desk scale
(n = 2 and 3, x-order 8, z-depth 6, q in {2, 1/2, 3/5}). Each criterion
prints a single PASS/FAIL line; run with `pytest -s` to see them all.

Criterion 3 contains 6 subchecks that are honestly red: the first flows
(1, 1) and (1, 2) of the x-dependent potential [[0, x], [1, 0]], at each
q, have the diagonal entry -x/6 and x/6 (at q = 2; analogous values at
the other q), for every admissible resolvent normalization. The flow's
zero-diagonal property holds classically and for x-constant potentials
but is not a theorem of the deformed bracket; see the decisions ledger
for the derivation.
"""

from fractions import Fraction as F

import pytest

from qakns.bilinear import (
    check_q_bilinear,
    inject_corruption,
    lambda_pool,
    reconstruct_from_bilinear,
)
from qakns.calculus import (
    dilate,
    exp_q_series,
    exp_series,
    q_derive,
)
from qakns.hierarchy import (
    DiagonalConsistencyError,
    FlowTable,
    HierarchySession,
    LaxData,
    b_split,
    resolvent_from_dressing,
    solve_dressing,
    solve_resolvent_direct,
    u_flow,
    verify_resolvent,
    verify_zero_curvature,
)
from qakns.matseries import MatSeries
from qakns.qop import pairing_lhs, pairing_oracle, pairing_rhs
from qakns.report import nonzero
from qakns.scalars import q_int
from qakns.series import XSeries
from qakns.timepoly import TimePoly
from qakns.tau import (
    TauSpec,
    classical_limit_check,
    taylor_agreement,
    verify_expqo,
    verify_tau_theorem,
)
from qakns.zseries import MZSeries

NX = 8
NZ = 6
QS = [F(2), F(1, 2), F(3, 5)]


def _line(num, name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} subchecks)"
    print(f"ACCEPTANCE {num} [{name}]: {status}")
    for msg in failures:
        print(f"    - {msg}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def lax_const(q):
    return LaxData([1, -1], MatSeries.from_scalars([[0, 1], [1, 0]], NX), q)


def lax_x(q):
    x = XSeries.monomial(1, 1, NX)
    z = XSeries.zero(NX)
    o = XSeries.one(NX)
    return LaxData([1, -1], MatSeries([[z, x], [o, z]]), q)


def lax_tri(q):
    x = XSeries.monomial(1, 1, NX)
    z = XSeries.zero(NX)
    return LaxData([1, -1], MatSeries([[z, x], [z, z]]), q)


def lax_n3(q, classical=False):
    x = XSeries.monomial(1, 1, NX)
    z = XSeries.zero(NX)
    o = XSeries.one(NX)
    rows = [[z, x, o], [o, z, z], [z, o, z]]
    return LaxData([1, -1, 3], MatSeries(rows), 1 if classical else q)


def test_criterion_1_q_calculus():
    failures = []
    for q in QS:
        f = XSeries.poly([F(3, 2), -1, 0, F(5, 7), 2, -3, 1, F(1, 9), 4], NX)
        g = XSeries.poly([1, F(-2, 5), 2, 0, 1, F(7, 3), -1, 2, F(1, 4)], NX)
        coeffs = f.coeffs
        # power additivity against the closed multi-step rule
        for m in range(3):
            for n_ in range(3):
                stepped = f
                for _ in range(m + n_):
                    stepped = q_derive(stepped, q)
                p = m + n_
                closed = []
                for k in range(NX + 1 - p):
                    c = coeffs[k + p]
                    for i in range(1, p + 1):
                        c *= q_int(k + i, q)
                    closed.append(c)
                if not (stepped - XSeries.poly(closed, NX).with_valid(NX - p)).is_zero():
                    failures.append(f"power additivity q={q} m={m} n={n_}")
        # both q-Leibniz forms
        lhs = q_derive(f * g, q)
        if not (lhs - (dilate(f, q) * q_derive(g, q) + q_derive(f, q) * g)).is_zero():
            failures.append(f"first Leibniz form q={q}")
        if not (lhs - (f * q_derive(g, q) + q_derive(f, q) * dilate(g, q))).is_zero():
            failures.append(f"second Leibniz form q={q}")
        # eigen-relation
        for c in (F(1), F(-1), F(2, 3)):
            e = exp_q_series(c, q, NX)
            if not (q_derive(e, q) - e.scale(c)).is_zero():
                failures.append(f"eigen-relation q={q} c={c}")
        # log identity
        args = [(k, (1 - q) ** k / (k * (1 - q**k))) for k in range(1, NX + 1)]
        if not (exp_series(args, NX) - exp_q_series(1, q, NX)).is_zero():
            failures.append(f"log identity q={q}")
        # reciprocal identity
        prod = exp_q_series(1, q, NX) * exp_q_series(-1, 1 / q, NX)
        if not (prod - XSeries.one(NX)).is_zero():
            failures.append(f"reciprocal identity q={q}")
    _line(1, "q-calculus suite", failures)


def test_criterion_2_residue_pairing():
    import random
    failures = []
    rng = random.Random(1729)

    def rnd_op(n):
        coeffs = {}
        for p in range(-2, 3):
            rows = [
                [XSeries.poly([F(rng.randint(-3, 3)) for _ in range(3)], NX)
                 for _ in range(n)]
                for _ in range(n)
            ]
            coeffs[p] = MatSeries(rows)
        return coeffs

    trials = 0
    for q in QS:
        for rep in range(8):
            n = 1 if rep % 2 else 2
            a_vals = [F(1)] if n == 1 else [F(1), F(-1)]
            p_op, q_op = rnd_op(n), rnd_op(n)
            lhs = pairing_lhs(p_op, q_op, a_vals, q)
            if not (pairing_rhs(p_op, q_op, a_vals, q) - lhs).is_zero():
                failures.append(f"rhs convention mismatch q={q} trial={rep}")
            if not (pairing_oracle(p_op, q_op, a_vals, q) - lhs).is_zero():
                failures.append(f"brute-force oracle mismatch q={q} trial={rep}")
            trials += 1
    if trials < 20:
        failures.append("fewer than 20 random pairs")
    # the frozen lhs example against the brute-force oracle
    for q in QS:
        g = XSeries.poly([1, 1, F(3, 7)], NX)
        p_op = {1: MatSeries.identity(1, XSeries.one(NX))}
        q_op = {-2: MatSeries([[g]])}
        lhs = pairing_lhs(p_op, q_op, [F(1)], q)
        expect = MatSeries([[dilate(g, 1 / q).scale(q**-2)]])
        if not (lhs - expect).is_zero():
            failures.append(f"frozen example value q={q}")
        if not (pairing_oracle(p_op, q_op, [F(1)], q) - lhs).is_zero():
            failures.append(f"frozen example oracle q={q}")
    _line(2, "residue pairing", failures)


def test_criterion_3_hierarchy():
    failures = []
    frozen_r1 = MatSeries.from_scalars([[0, F(-1, 2)], [F(-1, 2), 0]], NX)
    for q in QS:
        for label, make in (("const", lax_const), ("x", lax_x)):
            lax = make(q)
            session = HierarchySession(lax)
            fam = session.family(7)
            # commutation residual through z^-6
            for alpha in range(2):
                res = verify_resolvent(lax, fam[alpha])
                if any(nonzero([((), res)])) or res.zvalid > -6:
                    failures.append(f"qr residual {label} q={q} ch={alpha+1}")
            # orthogonality and partition, exact
            ident = MZSeries.identity(2, lax.proto())
            if not ((fam[0] + fam[1]) - ident).is_zero():
                failures.append(f"partition {label} q={q}")
            for a in range(2):
                for b in range(2):
                    prod = fam[a] * fam[b]
                    target = fam[b] if a == b else None
                    bad = not (prod - target).is_zero() if target is not None \
                        else not prod.is_zero()
                    if bad:
                        failures.append(f"orthogonality {label} q={q} ({a+1},{b+1})")
            # u_flow: z-free, derivation-free, zero-diagonal
            for (k, alpha) in ((1, 0), (1, 1), (2, 0)):
                try:
                    u_flow(lax, fam[alpha], k)
                except (DiagonalConsistencyError, ValueError) as exc:
                    failures.append(
                        f"u_flow structure {label} q={q} flow=({k},{alpha+1}): {exc}"
                    )
            # zero curvature on the stated flow pairs
            table = FlowTable(fam)
            for (k, a), (l, b) in (((1, 0), (1, 1)), ((1, 0), (2, 0)),
                                    ((1, 1), (2, 0))):
                res = verify_zero_curvature(table, (k, a), (l, b))
                if any(nonzero([((), res)])):
                    failures.append(f"zero curvature {label} q={q}")
        # frozen first order, both solver routes (constant potential)
        lax = lax_const(q)
        direct = solve_resolvent_direct(lax, 0, 1)
        conj = resolvent_from_dressing(solve_dressing(lax, 1), 0)
        if not (direct.coeff(-1) - frozen_r1).is_zero():
            failures.append(f"frozen first order (direct) q={q}")
        if not (conj.coeff(-1) - frozen_r1).is_zero():
            failures.append(f"frozen first order (dressing route) q={q}")
    # n = 3 spot check at q = 2
    lax3 = lax_n3(F(2))
    fam3 = HierarchySession(lax3).family(6)
    ident3 = MZSeries.identity(3, lax3.proto())
    total = fam3[0] + fam3[1] + fam3[2]
    if not (total - ident3).is_zero():
        failures.append("partition n=3")
    for alpha in range(3):
        if any(nonzero([((), verify_resolvent(lax3, fam3[alpha]))])):
            failures.append(f"qr residual n=3 ch={alpha+1}")
    _line(3, "hierarchy suite", failures)


def test_criterion_4_bilinear():
    failures = []
    for q in QS:
        lax = lax_tri(q)
        dressing = solve_dressing(lax, 10)
        lams = lambda_pool([(1, 0), (1, 1)], 2)
        records = check_q_bilinear(dressing, 4, lams)
        expected = (4 + 1) * 2 * len(lams)
        if len(records) != expected:
            failures.append(f"record count q={q}: {len(records)} != {expected}")
        for label, _ in nonzero(records):
            failures.append(f"qb1 q={q} {label}")
            break
        # reconstruction round-trips the operator data
        a_vals, u_rec, neg = reconstruct_from_bilinear(dressing)
        if not neg.is_zero() or a_vals != lax.a or not (u_rec - lax.u).is_zero():
            failures.append(f"reconstruction q={q}")
        # the suite can fail: injected corruption is detected
        corrupted = inject_corruption(dressing, "1/3")
        if not any(nonzero(check_q_bilinear(corrupted, 4, [()]))):
            failures.append(f"corruption undetected q={q}")
        _, _, neg_c = reconstruct_from_bilinear(corrupted)
        if neg_c.is_zero():
            failures.append(f"corruption invisible to reconstruction q={q}")
    _line(4, "bilinear suite", failures)


def test_criterion_5_tau():
    failures = []
    ctx = TimePoly.zero(tuple((k, a) for k in (1, 2) for a in range(2)), 6, NX)
    for q in QS:
        # the exponential-shift identity through z^4, all x-degrees
        for channel, witness in nonzero(verify_expqo([1, -1], q, ctx)):
            failures.append(f"expqo q={q} channel={channel}: {witness}")
    # vacuum passes the classical precheck and the q-stage at q = 2
    lams = lambda_pool([(1, 0), (1, 1)], 2)
    vacuum = TauSpec(ctx.constant(1), {}, 2)
    out = verify_tau_theorem(vacuum, [1, -1], F(2), 4, lams,
                             verify_expqo([1, -1], F(2), ctx))
    stages = {"q_bilinear": "vacuum q-bilinear",
              "taylor": "vacuum taylor agreement",
              "substitution": "vacuum substitution commutation"}
    failed = {stage for (stage, _), _ in nonzero(out)}
    failures += [text for stage, text in stages.items() if stage in failed]
    # the two proof-path evaluations agree term by term on data that is
    # not a solution, so the agreement is not an artifact of vanishing; one
    # time degree above the x-order keeps every compared entry determined
    small = TimePoly.zero(tuple((k, a) for k in (1, 2) for a in range(2)), 7, 6)
    nonsol = TauSpec(small.constant(1) + small.variable((1, 0)), {}, 2)
    _, recs = taylor_agreement(nonsol, [1, -1], F(2), 1, [(), ((1, 0),)])
    for (l, lam, _), _ in nonzero(recs):
        failures.append(f"mechanism agreement l={l} lam={lam}")
    # classical limit ratios within [0.45, 0.55] along q = 1 + 2^-m
    qs = [F(1) + F(1, 2**m) for m in (3, 4, 5, 6)]
    lctx = TimePoly.zero(((1, 0), (2, 0)), 6, NX)
    t1, t2 = lctx.variable((1, 0)), lctx.variable((2, 0))
    lo, hi = F(45, 100), F(55, 100)
    for label, poly in (("quadratic", t1 * t1), ("order-two time", t2),
                        ("mixed", t1 * t1 * t2 + lctx.constant(1))):
        _, ratios = classical_limit_check(poly, [1], qs)
        for r in ratios:
            if r is None or not (lo <= r <= hi):
                failures.append(f"limit ratio {label}: {r}")
    norms, _ = classical_limit_check(t1, [1], qs)
    if any(v != 0 for v in norms):
        failures.append("linear tau residual not identically zero")
    _line(5, "tau suite", failures)


def test_criterion_6_classical_crosscheck():
    failures = []
    examples = {
        "const": [[0, 1], [1, 0]],
    }
    x = XSeries.monomial(1, 1, NX)
    z = XSeries.zero(NX)
    o = XSeries.one(NX)
    mats = {
        "const": MatSeries.from_scalars(examples["const"], NX),
        "x": MatSeries([[z, x], [o, z]]),
    }
    for label, u in mats.items():
        lax = LaxData([1, -1], u, 1)
        # classical solvers reproduce the structure on the same examples
        for alpha in range(2):
            r = solve_resolvent_direct(lax, alpha, 7)
            res = verify_resolvent(lax, r)
            if any(nonzero([((), res)])) or res.zvalid > -6:
                failures.append(f"classical qr {label} ch={alpha+1}")
        dressing = solve_dressing(lax, 10)
        lams = lambda_pool([(1, 0), (1, 1)], 2)
        for residue, _ in nonzero(check_q_bilinear(dressing, 4, lams)):
            failures.append(f"classical bilinear {label} {residue}")
            break
        fam = HierarchySession(lax).family(7)
        ident = MZSeries.identity(2, lax.proto())
        if not ((fam[0] + fam[1]) - ident).is_zero():
            failures.append(f"classical partition {label}")
        for (k, alpha) in ((1, 0), (1, 1), (2, 0)):
            try:
                u_flow(lax, fam[alpha], k)
            except (DiagonalConsistencyError, ValueError) as exc:
                failures.append(f"classical u_flow {label} ({k},{alpha+1}): {exc}")
    _line(6, "classical cross-check", failures)
