"""The named verification checks and their orchestration.

Each check runs one identity family at the configured truncations and
returns a CheckResult; run_suite executes a selection in dependency order
(calculus, pairing, hierarchy, dressing, bilinear, tau, classical) and
assembles the deterministic report. Exit semantics live in the CLI.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import bilinear as bl
from . import hierarchy as hy
from . import qop
from . import tau as tau_mod
from .calculus import dilate, exp_q_series, exp_series, q_derive
from .config import ConfigError, RunConfig
from .matseries import MatSeries
from .report import CheckResult, Report, config_hash, describe_witness
from .scalars import frac, q_int
from .series import XSeries
from .zseries import MZSeries


class SuiteContext:
    """Shared lazily-built artifacts for one run."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._cache = {}

    def get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def calc(self):
        return self.get("calc", self.cfg.calc)

    @property
    def lax(self):
        return self.get("lax", self.cfg.lax)

    @property
    def session(self) -> hy.HierarchySession:
        return self.get("session", lambda: hy.HierarchySession(self.lax))

    @property
    def bilinear_lax(self):
        return self.get("blax", self.cfg.bilinear_lax)

    @property
    def dressing(self) -> hy.Dressing:
        return self.get(
            "dressing",
            lambda: hy.solve_dressing(
                self.bilinear_lax, self.cfg.required_dressing_depth()
            ),
        )

    @property
    def family(self):
        depth = self.cfg.required_resolvent_depth()
        return self.get("family", lambda: self.session.family(depth))

    @property
    def tau_ctx(self) -> tau_mod.TimeContext:
        def build():
            cfg = self.cfg
            if cfg.tau is not None and cfg.tau.variables:
                vars = cfg.tau.variables
            else:
                vars = tuple((k, a) for k in (1, 2) for a in range(cfg.n))
            return tau_mod.TimeContext(vars, cfg.n_t, cfg.n_x)
        return self.get("tau_ctx", build)

    def lambdas(self):
        return bl.lambda_pool(list(self.cfg.flows), self.cfg.lambda_max)


def _sample_series(order: int, seed: int, count: int = 4):
    rng = random.Random(seed)
    out = [
        XSeries.poly([1, 1], order),
        XSeries.poly([Fraction(1, 2), 0, Fraction(-2, 3), 1], order),
    ]
    for _ in range(count - len(out)):
        out.append(
            XSeries.poly(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(order + 1)],
                order,
            )
        )
    return out


def _result(name, params, ok, witness=None, degrees=None) -> CheckResult:
    return CheckResult(
        name=name,
        params=params,
        status="pass" if ok else "fail",
        max_degree_verified=degrees or {},
        first_failure=None if ok else describe_witness(witness),
    )


# -- calculus ------------------------------------------------------------------


def check_power_additivity(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    ok, witness = True, None
    for f in _sample_series(cfg.n_x, 11):
        for m in range(3):
            for n in range(3):
                stepped = f
                for _ in range(m + n):
                    stepped = q_derive(stepped, q)
                closed_coeffs = []
                p = m + n
                for k in range(cfg.n_x + 1 - p):
                    c = f.coeffs[k + p]
                    for i in range(1, p + 1):
                        c *= q_int(k + i, q)
                    closed_coeffs.append(c)
                closed = XSeries.poly(closed_coeffs, cfg.n_x).with_valid(
                    cfg.n_x - p
                )
                diff = stepped - closed
                if not diff.is_zero():
                    ok, witness = False, (m, n, diff.first_nonzero())
    return _result(
        "qcalc.power_additivity", {"q": str(q)}, ok, witness,
        {"x": cfg.n_x - 4},
    )


def check_leibniz_forms(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    ok, witness = True, None
    samples = _sample_series(cfg.n_x, 13)
    for f in samples[:2]:
        for g in samples[2:]:
            lhs = q_derive(f * g, q)
            form1 = dilate(f, q) * q_derive(g, q) + q_derive(f, q) * g
            form2 = f * q_derive(g, q) + q_derive(f, q) * dilate(g, q)
            if not (lhs - form1).is_zero() or not (lhs - form2).is_zero():
                ok, witness = False, (lhs - form1).first_nonzero()
    return _result("qcalc.leibniz_forms", {"q": str(q)}, ok, witness,
                   {"x": cfg.n_x - 1})


def check_expq_eigenvalue(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    ok, witness = True, None
    for c in (frac(1), cfg.a[0], frac(-2)):
        e = exp_q_series(c, q, cfg.n_x)
        diff = q_derive(e, q) - e.scale(c)
        if not diff.is_zero():
            ok, witness = False, (str(c), diff.first_nonzero())
    return _result("qcalc.expq_eigenvalue", {"q": str(q)}, ok, witness,
                   {"x": cfg.n_x - 1})


def check_expq_log_form(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    args = [
        (k, (1 - q) ** k / (k * (1 - q**k))) for k in range(1, cfg.n_x + 1)
    ]
    diff = exp_series(args, cfg.n_x) - exp_q_series(1, q, cfg.n_x)
    return _result("qcalc.expq_log_form", {"q": str(q)}, diff.is_zero(),
                   diff.first_nonzero(), {"x": cfg.n_x})


def check_expq_reciprocal(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    prod = exp_q_series(1, q, cfg.n_x) * exp_q_series(-1, 1 / q, cfg.n_x)
    diff = prod - XSeries.one(cfg.n_x)
    return _result("qcalc.expq_reciprocal", {"q": str(q)}, diff.is_zero(),
                   diff.first_nonzero(), {"x": cfg.n_x})


# -- residue pairing --------------------------------------------------------------


def _random_band_op(rng, n, order, q, band=(-2, 2), max_deg=2):
    coeffs = {}
    for p in range(band[0], band[1] + 1):
        if rng.random() < 0.3:
            continue
        rows = [
            [
                XSeries.poly(
                    [Fraction(rng.randint(-3, 3)) for _ in range(max_deg + 1)],
                    order,
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        coeffs[p] = MZSeries.from_term(n, 0, MatSeries(rows))
    if not coeffs:
        coeffs[0] = MZSeries.identity(n, XSeries.one(order))
    return qop.QDOp(n, coeffs, q)


def check_pairing_examples(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    order = cfg.n_x
    one = XSeries.one(order)
    ok, witness = True, None
    # order-2 negative power against the derivation, scalar case
    g = MatSeries([[XSeries.poly([1, 1, Fraction(3, 7)], order)]])
    p_op = qop.QDOp.basis_power(1, 1, q, one)
    q_op_ = qop.QDOp(1, {-2: MZSeries.from_term(1, 0, g)}, q)
    lhs = qop.pairing_lhs(p_op, q_op_, [frac(1)])
    expected = g.map(lambda s: dilate(s, 1 / q)).scale(q**-2)
    oracle = qop.pairing_oracle(p_op, q_op_, [frac(1)])
    if not (lhs - expected).is_zero() or not (oracle - lhs).is_zero():
        ok, witness = False, (lhs - expected).first_nonzero()
    # identities pair to zero
    ident = qop.QDOp.basis_power(cfg.n, 0, q, one)
    lhs0 = qop.pairing_lhs(ident, ident, cfg.a)
    rhs0 = qop.pairing_rhs(ident, ident, cfg.a)
    if not lhs0.is_zero() or not rhs0.is_zero():
        ok, witness = False, lhs0.first_nonzero()
    return _result("pairing.oracle_examples", {"q": str(q)}, ok, witness,
                   {"x": order - 1})


def check_pairing_random(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    rng = random.Random(2024)
    ok, witness = True, None
    trials = 24
    for trial in range(trials):
        n = 1 if trial % 3 == 0 else cfg.n
        a_vals = [frac(1)] if n == 1 else list(cfg.a)
        p_op = _random_band_op(rng, n, cfg.n_x, q)
        q_op_ = _random_band_op(rng, n, cfg.n_x, q)
        lhs = qop.pairing_lhs(p_op, q_op_, a_vals)
        rhs = qop.pairing_rhs(p_op, q_op_, a_vals)
        oracle = qop.pairing_oracle(p_op, q_op_, a_vals)
        if not (lhs - rhs).is_zero() or not (oracle - lhs).is_zero():
            ok, witness = False, (trial, (lhs - rhs).first_nonzero())
            break
    return _result(
        "pairing.random_pairs",
        {"q": str(q), "trials": trials, "band": 2},
        ok, witness, {"x": cfg.n_x - 2},
    )


def check_pairing_nonneg(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    rng = random.Random(5)
    ok, witness = True, None
    for _ in range(6):
        p_op = _random_band_op(rng, cfg.n, cfg.n_x, cfg.q, band=(0, 2))
        q_op_ = _random_band_op(rng, cfg.n, cfg.n_x, cfg.q, band=(0, 2))
        lhs = qop.pairing_lhs(p_op, q_op_, cfg.a)
        rhs = qop.pairing_rhs(p_op, q_op_, cfg.a)
        if not lhs.is_zero() or not rhs.is_zero():
            ok, witness = False, lhs.first_nonzero()
    return _result("pairing.nonneg_zero", {}, ok, witness, {})


# -- hierarchy ------------------------------------------------------------------


def _report_from_residual(name, params, rep: hy.ResidualReport) -> CheckResult:
    zv = rep.z_window[0]
    degrees = {}
    if zv not in (None,) and zv != float("-inf"):
        degrees["z"] = int(-zv)
    xv = rep.x_valid
    if xv != float("inf"):
        degrees["x"] = int(min(xv, 10**6))
    return _result(name, params, rep.ok, rep.first_failure, degrees)


def _qr_residual(name, params, session: hy.HierarchySession, depth: int):
    ok, witness = True, None
    for alpha in range(session.lax.n):
        rep = hy.verify_resolvent(session.lax, session.resolvent(alpha, depth))
        if not rep.ok:
            ok, witness = False, (alpha, rep.first_failure)
    return _result(name, params, ok, witness, {"z": depth - 1})


def check_qr_residual(ctx: SuiteContext) -> CheckResult:
    depth = ctx.cfg.required_resolvent_depth()
    return _qr_residual(
        "hierarchy.qr_residual", {"depth": depth, "q": str(ctx.cfg.q)},
        ctx.session, depth,
    )


def check_first_order_routes(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    d1 = hy.solve_dressing(ctx.lax, 1)
    ok, witness = True, None
    for alpha in range(cfg.n):
        conj = hy.resolvent_from_dressing(d1, alpha)
        direct = ctx.session.resolvent(alpha, 1)
        diff = conj.orders[1] - direct.orders[1]
        if not diff.is_zero():
            ok, witness = False, (alpha, diff.first_nonzero())
    return _result("hierarchy.first_order_routes", {}, ok, witness, {})


def check_orthogonality(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    fam = ctx.family
    ok, witness = True, None
    for a in range(cfg.n):
        for b in range(cfg.n):
            prod = fam[a].mz() * fam[b].mz()
            target = fam[b].mz() if a == b else MZSeries.zero(cfg.n)
            diff = prod - target if a == b else prod
            if not diff.is_zero():
                ok, witness = False, (a, b, diff.first_nonzero())
    return _result(
        "hierarchy.orthogonality", {"depth": fam[0].depth}, ok, witness,
        {"z": fam[0].depth},
    )


def check_partition(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    fam = ctx.family
    total = fam[0].mz()
    for r in fam[1:]:
        total = total + r.mz()
    diff = total - MZSeries.identity(cfg.n, ctx.lax.proto())
    return _result(
        "hierarchy.partition_of_identity", {}, diff.is_zero(),
        diff.first_nonzero(), {"z": fam[0].depth},
    )


def check_algebra_closure(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    fam = ctx.family
    ok, witness = True, None
    prod = fam[0].mz() * fam[-1].mz()
    rep = hy.verify_resolvent(ctx.lax, prod)
    if not rep.ok:
        ok, witness = False, rep.first_failure
    combo = fam[0].mz() + fam[-1].mz().shift(-1).scale(frac("2/3")) \
        - fam[0].mz().shift(-3).scale(frac(5))
    rep2 = hy.verify_resolvent(ctx.lax, combo)
    if not rep2.ok:
        ok, witness = False, rep2.first_failure
    return _result("hierarchy.algebra_closure", {}, ok, witness, {})


def check_basis_expansion(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    depth = min(cfg.required_resolvent_depth(), 5)
    ortho = ctx.session.resolvent(0, depth)
    plain = ctx.session.resolvent(0, depth, "zero")
    base = [ctx.session.resolvent(b, depth, "zero") for b in range(cfg.n)]
    try:
        coeffs = hy.expand_in_basis(ortho.mz() - plain.mz(), base)
        ok, witness = True, None
    except ValueError as exc:
        ok, witness, coeffs = False, str(exc), {}
    return _result(
        "hierarchy.basis_expansion",
        {"constants": {f"b{b+1},z{-j}": str(c) for (b, j), c in coeffs.items()}},
        ok, witness, {"z": depth},
    )


def check_u_flow(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    ok, witness = True, None
    params = {}
    for (k, alpha) in cfg.flows:
        depth = cfg.required_resolvent_depth()
        r = ctx.session.resolvent(alpha, depth)
        try:
            value = hy.u_flow(ctx.lax, r, k)
            params[f"flow({k},{alpha+1})"] = "ok"
        except (hy.DiagonalConsistencyError, ValueError) as exc:
            ok = False
            if witness is None:
                witness = f"flow ({k},{alpha+1}): {exc}"
            params[f"flow({k},{alpha+1})"] = "violated"
            continue
        # derivation-band freedom cross-checked on the operator algebra
        b_plus, b_minus = hy.b_split(r, k)
        alt = hy.flow_commutator(ctx.lax, -b_minus)
        diff = alt.coeff(0) - value
        if not diff.is_zero():
            ok, witness = False, ("avoided-band mismatch", diff.first_nonzero())
    return _result("hierarchy.u_flow_structure", params, ok, witness, {})


def check_zero_curvature(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    fam = ctx.family
    flows = list(cfg.flows)
    ok, witness = True, None
    pairs = []
    for i in range(len(flows)):
        for j in range(i, len(flows)):
            pairs.append((flows[i], flows[j]))
    for (k, a), (l, b) in pairs:
        rep = hy.verify_zero_curvature(ctx.lax, (k, fam[a]), (l, fam[b]))
        if not rep.ok:
            ok, witness = False, ((k, a + 1), (l, b + 1), rep.first_failure)
    return _result(
        "hierarchy.zero_curvature",
        {"pairs": [f"({k},{a+1})x({l},{b+1})" for (k, a), (l, b) in pairs]},
        ok, witness, {},
    )


# -- dressing and bilinear -----------------------------------------------------------


def check_dressing_factorization(ctx: SuiteContext) -> CheckResult:
    lax = ctx.bilinear_lax
    calc = lax.calc
    w = ctx.dressing.mz()
    a_z = MZSeries.from_term(lax.n, 1, lax.a_mat())
    u_mz = MZSeries.from_term(lax.n, 0, lax.u)
    residual = (
        w.map_entries(calc.derive)
        + (u_mz * w)
        - (a_z * w)
        + (w.map_entries(calc.dilate) * a_z)
    )
    return _report_from_residual(
        "dressing.factorization",
        {"depth": ctx.dressing.depth},
        hy.ResidualReport(residual),
    )


def _route_agreement(name, dressing: hy.Dressing, depth: int):
    """Conjugated dressing against the direct resolvent solve, per channel."""
    session = hy.HierarchySession(dressing.lax)
    ok, witness = True, None
    for alpha in range(dressing.lax.n):
        conj = hy.resolvent_from_dressing(dressing, alpha)
        direct = session.resolvent(alpha, depth)
        diff = conj.mz().truncate_below(-depth) - direct.mz()
        if not diff.is_zero():
            ok, witness = False, (alpha, diff.first_nonzero())
    return _result(name, {"depth": depth}, ok, witness, {"z": depth})


def check_route_agreement(ctx: SuiteContext) -> CheckResult:
    depth = min(ctx.dressing.depth, ctx.cfg.required_resolvent_depth())
    return _route_agreement("dressing.route_agreement", ctx.dressing, depth)


def _maybe_corrupt(ctx: SuiteContext) -> hy.Dressing:
    if ctx.cfg.inject_corruption:
        return bl.inject_corruption(ctx.dressing, "1/3")
    return ctx.dressing


def _bilinear_residues(name, params, ctx: SuiteContext, dressing: hy.Dressing):
    records = bl.check_q_bilinear(dressing, ctx.cfg.l_max, ctx.lambdas())
    bad = [r for r in records if not r.ok]
    witness = (bad[0].label(), bad[0].first_failure) if bad else None
    params = {**params, "l_max": ctx.cfg.l_max, "records": len(records)}
    return _result(name, params, not bad, witness, {"z": dressing.depth - 1})


def check_qb1(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    params = {"lambda_max": cfg.lambda_max, "corrupted": cfg.inject_corruption}
    return _bilinear_residues("bilinear.qb1", params, ctx, _maybe_corrupt(ctx))


def check_reconstruct(ctx: SuiteContext) -> CheckResult:
    lax = ctx.bilinear_lax
    dressing = _maybe_corrupt(ctx)
    try:
        a_vals, u_rec, neg = bl.reconstruct_from_bilinear(dressing)
    except ValueError as exc:
        return _result("bilinear.reconstruct_roundtrip", {}, False, str(exc), {})
    ok = neg.is_zero()
    witness = neg.first_nonzero()
    if ok:
        ok = a_vals == lax.a and (u_rec - lax.u).is_zero()
        if not ok:
            witness = ("recovered data mismatch",)
    for i in range(lax.n):
        if ok and not u_rec[i, i].is_zero():
            ok, witness = False, ("nonzero diagonal", i)
    return _result("bilinear.reconstruct_roundtrip", {}, ok, witness, {})


def check_adjoint_transpose(ctx: SuiteContext) -> CheckResult:
    dressing = ctx.dressing
    w = dressing.mz()
    w_star = bl.adjoint_baker(dressing)
    residual = bl.check_inverse_transpose(w, w_star)
    ok = residual.is_zero()
    witness = residual.first_nonzero()
    if ok and dressing.depth >= 1:
        first = w_star.coeff(-1) + dressing.orders[1].transpose()
        if not first.is_zero():
            ok, witness = False, ("first-order mismatch", first.first_nonzero())
    return _result("bilinear.adjoint_inverse_transpose", {}, ok, witness, {})


def check_corruption_detected(ctx: SuiteContext) -> CheckResult:
    if not ctx.cfg.inject_corruption:
        return _result(
            "bilinear.corruption_detected",
            {"note": "inactive without --inject-corruption"},
            True, None, {},
        )
    corrupted = bl.inject_corruption(ctx.dressing, "1/3")
    records = bl.check_q_bilinear(corrupted, ctx.cfg.l_max, [()])
    detected = any(not r.ok for r in records)
    return _result(
        "bilinear.corruption_detected", {"records": len(records)},
        detected, None if detected else "corruption slipped through", {},
    )


# -- tau ---------------------------------------------------------------------------


def check_expqo(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    results = tau_mod.verify_expqo(list(cfg.a), cfg.q, ctx.tau_ctx, 4)
    ok = all(r[1] for r in results)
    witness = None
    for alpha, good, w in results:
        if not good:
            witness = (alpha + 1, w)
            break
    return _result("tau.expqo", {"z_depth": 4}, ok, witness,
                   {"z": 4, "x": cfg.n_x})


def _tau_spec_from_config(ctx: SuiteContext) -> tau_mod.TauSpec:
    cfg = ctx.cfg
    tctx = ctx.tau_ctx
    if cfg.tau is None:
        return tau_mod.vacuum_spec(tctx, cfg.n)
    tau_poly = tctx.from_monomials(cfg.tau.monomials)
    companions = {
        key: tctx.from_monomials(mons)
        for key, mons in cfg.tau.companions.items()
    }
    return tau_mod.TauSpec(tau_poly, companions, cfg.n)


def check_tau_theorem(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    spec = _tau_spec_from_config(ctx)
    lambdas = [lam for lam in ctx.lambdas() if len(lam) <= 1]
    depth = cfg.l_max + 2
    try:
        results = tau_mod.verify_tau_theorem(
            spec, list(cfg.a), cfg.q, min(cfg.l_max, 3), lambdas, depth,
            ctx.tau_ctx, 4,
        )
    except tau_mod.TauCheckError as exc:
        return _result("tau.theorem", {"rejected": True}, False, str(exc), {})
    witness = None
    if not results["substitution_commutes"]:
        witness = "substitutions fail to commute"
    for alpha, good, w in results["expqo"]:
        if witness is None and not good:
            witness = ("expqo", alpha + 1, w)
    for rec in results["q_bilinear"]:
        if witness is None and not rec[3]:
            witness = ("q_bilinear", rec[0], rec[1], rec[2], rec[4])
    for rec in results["taylor"]:
        if witness is None and not (rec["two_term_ok"] and rec["taylor_ok"]):
            witness = ("taylor", rec["l"], rec["lam"])
    return _result(
        "tau.theorem",
        {"lambdas": len(lambdas), "depth": depth},
        witness is None, witness, {"z": depth, "t": cfg.n_t},
    )


def check_tau_gatekeeping(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    tctx = ctx.tau_ctx
    bad = tau_mod.TauSpec(
        tctx.constant(1) + tctx.variable(tctx.vars[0]), {}, cfg.n
    )
    lambdas = [(), (tctx.vars[0],)]
    try:
        tau_mod.verify_tau_theorem(
            bad, list(cfg.a), cfg.q, 2, lambdas, 4, tctx, 3
        )
        return _result(
            "tau.gatekeeping", {}, False,
            "a non-solution passed the classical precheck", {},
        )
    except tau_mod.TauCheckError:
        return _result("tau.gatekeeping", {}, True, None, {})


def check_tau_mechanism(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    # reduced carrier: the agreement is scale-independent and this check
    # multiplies deep truncated inverses
    vars = tuple((k, a) for k in (1, 2) for a in range(cfg.n))
    tctx = tau_mod.TimeContext(vars, 4, 6)
    poly = tctx.constant(1) + tctx.variable((1, 0))
    spec = tau_mod.TauSpec(poly, {}, cfg.n)
    records = tau_mod.taylor_agreement(
        spec, list(cfg.a), cfg.q, 1, [(), ((1, 0),)], 5
    )
    ok = all(r["two_term_ok"] and r["taylor_ok"] for r in records)
    witness = None
    for r in records:
        if not (r["two_term_ok"] and r["taylor_ok"]):
            witness = (r["l"], r["lam"], r["two_term_fail"] or r["taylor_fail"])
            break
    return _result(
        "tau.mechanism_agreement",
        {"on": "non-solution polynomial", "l_max": 1},
        ok, witness, {},
    )


def check_classical_limit(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    if not cfg.q_sequence:
        return _result("tau.classical_limit",
                       {"note": "no q sequence configured"}, True, None, {})
    tctx = tau_mod.TimeContext(((1, 0), (2, 0)), cfg.n_t, cfg.n_x)
    t1 = tctx.variable((1, 0))
    t2 = tctx.variable((2, 0))
    a_vals = [cfg.a[0]]
    cases = {
        "linear": t1,
        "quadratic": t1 * t1,
        "second_order_time": t2,
        "mixed": (t1 * t1) * t2 + tctx.constant(1),
    }
    lo, hi = frac("45/100"), frac("55/100")
    ok, witness = True, None
    ratio_report = {}
    for label, poly in cases.items():
        norms, ratios = tau_mod.classical_limit_check(
            poly, a_vals, list(cfg.q_sequence)
        )
        if label == "linear":
            if any(v != 0 for v in norms):
                ok, witness = False, (label, "expected exact vanishing")
            ratio_report[label] = "exact zero"
            continue
        for r in ratios:
            if r is None or not (lo <= r <= hi):
                ok, witness = False, (label, str(r))
        ratio_report[label] = [str(r) for r in ratios]
    return _result(
        "tau.classical_limit",
        {"ratios": ratio_report, "window": "[0.45, 0.55]"},
        ok, witness, {},
    )


# -- classical cross-checks --------------------------------------------------------


def check_classical_qr(ctx: SuiteContext) -> CheckResult:
    depth = ctx.cfg.required_resolvent_depth()
    session = hy.HierarchySession(ctx.cfg.lax(classical=True))
    return _qr_residual("classical.qr_residual", {"depth": depth}, session, depth)


def check_classical_prop1(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    dressing = hy.solve_dressing(
        cfg.bilinear_lax(classical=True), cfg.required_dressing_depth()
    )
    return _bilinear_residues("classical.bilinear", {}, ctx, dressing)


def check_classical_routes(ctx: SuiteContext) -> CheckResult:
    depth = min(ctx.cfg.required_resolvent_depth(), 5)
    dressing = hy.solve_dressing(ctx.cfg.lax(classical=True), depth)
    return _route_agreement("classical.route_agreement", dressing, depth)


CHECKS = [
    ("qcalc.power_additivity", check_power_additivity),
    ("qcalc.leibniz_forms", check_leibniz_forms),
    ("qcalc.expq_eigenvalue", check_expq_eigenvalue),
    ("qcalc.expq_log_form", check_expq_log_form),
    ("qcalc.expq_reciprocal", check_expq_reciprocal),
    ("pairing.oracle_examples", check_pairing_examples),
    ("pairing.random_pairs", check_pairing_random),
    ("pairing.nonneg_zero", check_pairing_nonneg),
    ("hierarchy.qr_residual", check_qr_residual),
    ("hierarchy.first_order_routes", check_first_order_routes),
    ("hierarchy.orthogonality", check_orthogonality),
    ("hierarchy.partition_of_identity", check_partition),
    ("hierarchy.algebra_closure", check_algebra_closure),
    ("hierarchy.basis_expansion", check_basis_expansion),
    ("hierarchy.u_flow_structure", check_u_flow),
    ("hierarchy.zero_curvature", check_zero_curvature),
    ("dressing.factorization", check_dressing_factorization),
    ("dressing.route_agreement", check_route_agreement),
    ("bilinear.qb1", check_qb1),
    ("bilinear.reconstruct_roundtrip", check_reconstruct),
    ("bilinear.adjoint_inverse_transpose", check_adjoint_transpose),
    ("bilinear.corruption_detected", check_corruption_detected),
    ("tau.expqo", check_expqo),
    ("tau.theorem", check_tau_theorem),
    ("tau.gatekeeping", check_tau_gatekeeping),
    ("tau.mechanism_agreement", check_tau_mechanism),
    ("tau.classical_limit", check_classical_limit),
    ("classical.qr_residual", check_classical_qr),
    ("classical.bilinear", check_classical_prop1),
    ("classical.route_agreement", check_classical_routes),
]


def select_checks(cfg: RunConfig, prefixes=None):
    """Names of the selected checks, in run order.

    Raises ConfigError for unknown names and for a non-empty selection
    that the prefixes reduce to nothing: neither may pass vacuously.
    """
    known = [name for name, _ in CHECKS]
    chosen = known if cfg.checks is None else cfg.checks
    unknown = [name for name in chosen if name not in known]
    if unknown:
        raise ConfigError(f"unknown check names: {', '.join(unknown)}")
    names = [
        name for name in known
        if name in chosen
        and (not prefixes or any(name.startswith(p) for p in prefixes))
    ]
    if chosen and not names:
        raise ConfigError(
            f"checks {', '.join(chosen)} are outside this command's scope "
            f"({', '.join(prefixes)})"
        )
    return names


def run_suite(cfg: RunConfig, prefixes=None) -> Report:
    ctx = SuiteContext(cfg)
    selection = set(select_checks(cfg, prefixes))
    results = []
    for name, fn in CHECKS:
        if name not in selection:
            continue
        start = time.perf_counter()
        try:
            res = fn(ctx)
        except Exception as exc:  # honest error reporting, not a crash
            res = CheckResult(
                name=name, params={}, status="error",
                first_failure={"error": f"{type(exc).__name__}: {exc}"},
            )
        res.ms = (time.perf_counter() - start) * 1000.0
        results.append(res)
    return Report(config_hash(cfg.canonical_json()), results)
