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
from itertools import chain

from . import bilinear as bl
from . import hierarchy as hy
from . import qop
from . import tau as tau_mod
from .calculus import dilate, exp_q_series, exp_series, q_derive
from .config import ConfigError, RunConfig, default_tau_times
from .matseries import MatSeries
from .report import CheckResult, Report, config_hash, describe_witness, nonzero
from .scalars import frac, q_int
from .series import XSeries
from .timepoly import TimePoly
from .zseries import MZSeries, InsufficientDepthError, derive_through


class SuiteContext:
    """Shared lazily-built artifacts for one run.

    Each Lax datum of the run has one `HierarchySession`, so a resolvent is
    solved once per run: `session` for the q datum, `classical_session` for
    its q = 1 counterpart and `bilinear_session` for the datum the dressing
    is solved against, which is `session` when the two data are one. The
    Lax data and the tau are the config's; only the q = 1 counterparts are
    built here. Nothing outlives the context.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._cache = {}

    def get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def lax(self) -> hy.LaxData:
        return self.get("lax", lambda: self.cfg.lax)

    @property
    def session(self) -> hy.HierarchySession:
        return self.get("session", lambda: hy.HierarchySession(self.lax))

    @property
    def classical_session(self) -> hy.HierarchySession:
        return self.get("classical_session", lambda: hy.HierarchySession(
            hy.LaxData(self.cfg.lax.a, self.cfg.lax.u, 1)))

    @property
    def bilinear_lax(self) -> hy.LaxData:
        return self.get("blax", lambda: self.cfg.bilinear_lax)

    @property
    def bilinear_session(self) -> hy.HierarchySession:
        if self.cfg.bilinear_lax is self.cfg.lax:
            return self.session
        return self.get("blax_session",
                        lambda: hy.HierarchySession(self.bilinear_lax))

    @property
    def dressing(self) -> hy.Dressing:
        return self.get(
            "dressing",
            lambda: hy.solve_dressing(
                self.bilinear_lax, self.cfg.required_dressing_depth()
            ),
        )

    @property
    def corrupted(self) -> hy.Dressing:
        """The dressing with `bl.inject_corruption` applied, which every
        check of a --inject-corruption run reads."""
        return self.get("corrupted",
                        lambda: bl.inject_corruption(self.dressing, "1/3"))

    @property
    def family(self):
        depth = self.cfg.required_resolvent_depth()
        return self.get("family", lambda: self.session.family(depth))

    @property
    def tau_ctx(self) -> TimePoly:
        """The zero of the run's tau time ring."""
        return self.get("tau_ctx", lambda: self.cfg.tau.tau.zero_like())

    @property
    def expqo(self):
        """The exponential-shift residuals that tau.expqo and the expqo
        stage of tau.theorem both read."""
        cfg = self.cfg
        return self.get("expqo", lambda: tau_mod.verify_expqo(
            list(cfg.a), cfg.q, self.tau_ctx))

    def oracle_factors(self, a_values) -> qop.OracleKernel:
        """The pairing oracle's kernel at these a, one per run, cut at the
        floor -PAIRING_BAND that every pairing check's bands stay above."""
        key = "oracle_factors:" + ",".join(map(str, a_values))
        return self.get(key, lambda: qop.OracleKernel(
            a_values, self.cfg.q, self.cfg.n_x, -PAIRING_BAND))

    def lambdas(self):
        return bl.lambda_pool(list(self.cfg.flows), self.cfg.lambda_max)


def _sample_series(order: int, seed: int):
    """Two fixed series and two random ones drawn from `seed`."""
    rng = random.Random(seed)
    out = [
        XSeries.poly([1, 1], order),
        XSeries.poly([Fraction(1, 2), 0, Fraction(-2, 3), 1], order),
    ]
    for _ in range(2):
        out.append(
            XSeries.poly(
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(order + 1)],
                order,
            )
        )
    return out


def _idle(cfg: RunConfig, name: str) -> str | None:
    """The note that check `name` reports when `cfg` leaves it nothing to
    compare, else None. Each such condition is written here only:
    `run_suite` reports the note without calling the check, and
    `select_checks` refuses a selection of idle checks."""
    notes = {
        "hierarchy.zero_curvature":
            len(cfg.flows) < 2 and "fewer than two flows configured",
        "bilinear.corruption_detected":
            not cfg.inject_corruption and "inactive without --inject-corruption",
        "tau.classical_limit": not cfg.q_sequence and "no q sequence configured",
    }
    return notes.get(name) or None


_PASS = object()


def _result(params, residuals=(), z=None, failures=()) -> CheckResult:
    """Pass when neither `failures` nor the verdict on the (label, residual)
    pairs `residuals` yields anything; otherwise the first item, `failures`
    first, is the witness.

    Checks hand in generators, so a failing check stops at its first failure
    and a passing one does all of its work. `max_degree_verified` is read
    off the residuals that passed: the least window on each axis, which
    `report.nonzero` folds as it walks them. A check whose residuals are
    single z-coefficients, and so carry no z, passes `z`: the deepest
    z-degree its own loop reads. `run_suite` names the result.
    """
    windows = {} if z is None else {"z": z}
    witness = next(chain(failures, nonzero(residuals, windows)), _PASS)
    ok = witness is _PASS
    return CheckResult(
        params=params,
        status="pass" if ok else "fail",
        max_degree_verified=windows,
        first_failure=None if ok else describe_witness(witness),
    )


# -- calculus ------------------------------------------------------------------


def check_power_additivity(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    q_ints = [q_int(k, q) for k in range(cfg.n_x + 1)]

    def residuals():
        # D**m D**n = D**(m+n) for m, n <= 2: one running derivative per
        # sample reaches each power p = m + n once
        for f in _sample_series(cfg.n_x, 11):
            coeffs = f.coeffs
            stepped = f
            for p in range(5):
                if p:
                    stepped = q_derive(stepped, q)
                closed_coeffs = []
                for k in range(cfg.n_x + 1 - p):
                    c = coeffs[k + p]
                    for i in range(1, p + 1):
                        c *= q_ints[k + i]
                    closed_coeffs.append(c)
                closed = XSeries.poly(closed_coeffs, cfg.n_x).with_valid(cfg.n_x - p)
                yield p, stepped - closed

    return _result({"q": str(q)}, residuals())


def check_leibniz_forms(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    samples = _sample_series(cfg.n_x, 13)

    def residuals():
        for f in samples[:2]:
            for g in samples[2:]:
                lhs = q_derive(f * g, q)
                yield (), lhs - (dilate(f, q) * q_derive(g, q) + q_derive(f, q) * g)
                yield "form2", lhs - (
                    f * q_derive(g, q) + q_derive(f, q) * dilate(g, q)
                )

    return _result({"q": str(q)}, residuals())


def check_expq_eigenvalue(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q

    def residuals():
        for c in dict.fromkeys((frac(1), cfg.a[0], frac(-2))):
            e = exp_q_series(c, q, cfg.n_x)
            yield str(c), q_derive(e, q) - e.scale(c)

    return _result({"q": str(q)}, residuals())


def check_expq_log_form(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    args = [(k, tau_mod.q_shift_coeff(k, q)) for k in range(1, cfg.n_x + 1)]
    diff = exp_series(args, cfg.n_x) - exp_q_series(1, q, cfg.n_x)
    return _result({"q": str(q)}, [((), diff)])


def check_expq_reciprocal(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    prod = exp_q_series(1, q, cfg.n_x) * exp_q_series(-1, 1 / q, cfg.n_x)
    diff = prod - XSeries.one(cfg.n_x)
    return _result({"q": str(q)}, [((), diff)])


# -- residue pairing --------------------------------------------------------------


# the random pairing operators' band: powers -PAIRING_BAND..PAIRING_BAND
PAIRING_BAND = 2


def _random_band_op(rng, n, order, band=(-PAIRING_BAND, PAIRING_BAND)):
    """{power: matrix} of integer polynomial coefficients of degree
    <= 2 <= order on a random subset of the band's powers (the identity
    when none is drawn)."""
    pad = [0] * (order - 2)
    coeffs = {}
    for p in range(band[0], band[1] + 1):
        if rng.random() < 0.3:
            continue
        rows = [
            [
                XSeries.from_ints(
                    [rng.randint(-3, 3) for _ in range(3)] + pad,
                    1, order + 1,
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        coeffs[p] = MatSeries(rows)
    if not coeffs:
        coeffs[0] = MatSeries.identity(n, XSeries.one(order))
    return coeffs


def check_pairing_examples(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    order = cfg.n_x
    one = XSeries.one(order)

    def residuals():
        # order-2 negative power against the derivation, scalar case
        g = MatSeries([[XSeries.poly([1, 1, Fraction(3, 7)], order)]])
        p, gl = {1: MatSeries.identity(1, one)}, {-2: g}
        lhs = qop.pairing_lhs(p, gl, [frac(1)], q)
        expected = g.map(lambda s: dilate(s, 1 / q)).scale(q**-2)
        oracle = qop.pairing_oracle(p, gl, [frac(1)], q,
                                    ctx.oracle_factors([frac(1)]))
        yield (), lhs - expected
        yield "oracle", oracle - lhs
        # identities pair to zero; the oracle forms the pairs k + l != -1
        # that the symbol sum skips
        ident = {0: MatSeries.identity(cfg.n, one)}
        yield (), qop.pairing_lhs(ident, ident, cfg.a, q)
        yield "oracle", qop.pairing_oracle(ident, ident, cfg.a, q,
                                           ctx.oracle_factors(cfg.a))

    return _result({"q": str(q)}, residuals())


def check_pairing_random(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    q = cfg.q
    rng = random.Random(2024)
    trials = 24

    def residuals():
        for trial in range(trials):
            n = 1 if trial % 3 == 0 else cfg.n
            a_vals = [frac(1)] if n == 1 else list(cfg.a)
            p = _random_band_op(rng, n, cfg.n_x)
            g = _random_band_op(rng, n, cfg.n_x)
            lhs = qop.pairing_lhs(p, g, a_vals, q)
            oracle = qop.pairing_oracle(p, g, a_vals, q,
                                        ctx.oracle_factors(a_vals))
            yield (trial, "oracle"), oracle - lhs

    return _result(
        {"q": str(q), "trials": trials, "band": PAIRING_BAND}, residuals(),
    )


def check_pairing_nonneg(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    rng = random.Random(5)

    def residuals():
        # no pair of the band [0, 2] has k + l = -1, so the symbol sum forms
        # no product; the oracle forms every pair
        kernel = ctx.oracle_factors(cfg.a)
        for _ in range(6):
            p = _random_band_op(rng, cfg.n, cfg.n_x, band=(0, 2))
            g = _random_band_op(rng, cfg.n, cfg.n_x, band=(0, 2))
            yield (), qop.pairing_lhs(p, g, cfg.a, cfg.q)
            yield "oracle", qop.pairing_oracle(p, g, cfg.a, cfg.q, kernel)

    return _result({}, residuals())


# -- hierarchy ------------------------------------------------------------------


def _qr_residual(params, session: hy.HierarchySession, depth: int):
    lax = session.lax
    residuals = (
        (alpha, hy.verify_resolvent(lax, session.resolvent(alpha, depth)))
        for alpha in range(lax.n)
    )
    return _result(params, residuals)


def check_qr_residual(ctx: SuiteContext) -> CheckResult:
    depth = ctx.cfg.required_resolvent_depth()
    return _qr_residual({"depth": depth, "q": str(ctx.cfg.q)}, ctx.session, depth)


def check_first_order_routes(ctx: SuiteContext) -> CheckResult:
    return _route_agreement(hy.solve_dressing(ctx.lax, 1), ctx.session, 1)


def check_orthogonality(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    fam = ctx.family
    depth = cfg.required_resolvent_depth()

    def residuals():
        for a in range(cfg.n):
            for b in range(cfg.n):
                prod = fam[a] * fam[b]
                yield (a, b), (prod - fam[b] if a == b else prod)

    return _result({"depth": depth}, residuals())


def check_partition(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    fam = ctx.family
    total = fam[0]
    for r in fam[1:]:
        total = total + r
    diff = total - MZSeries.identity(cfg.n, ctx.lax.proto())
    return _result({}, [((), diff)])


def check_algebra_closure(ctx: SuiteContext) -> CheckResult:
    fam = ctx.family

    def residuals():
        yield (), hy.verify_resolvent(ctx.lax, fam[0] * fam[-1])
        combo = fam[0] + fam[-1].shift(-1).scale(frac("2/3")) \
            - fam[0].shift(-3).scale(frac(5))
        yield (), hy.verify_resolvent(ctx.lax, combo)

    return _result({}, residuals())


def check_basis_expansion(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    depth = min(cfg.required_resolvent_depth(), 5)
    ortho = ctx.session.resolvent(0, depth)
    plain = ctx.session.resolvent(0, depth, "zero")
    base = [ctx.session.resolvent(b, depth, "zero") for b in range(cfg.n)]
    coeffs, remainder = hy.expand_in_basis(ortho - plain, base)
    return _result(
        {"constants": {f"b{b+1},z{-j}": str(c) for (b, j), c in coeffs.items()}},
        [((), remainder)],
    )


def check_u_flow(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    depth = cfg.required_resolvent_depth()
    # params record every flow's verdict, so all flows run even after a failure
    params = {}
    failures, residuals = [], []
    for (k, alpha) in cfg.flows:
        label = f"flow({k},{alpha+1})"
        r = ctx.session.resolvent(alpha, depth)
        try:
            value = hy.u_flow(ctx.lax, r, k)
        except InsufficientDepthError:
            raise  # a depth shortage is an error, not a flow violation
        except ValueError as exc:
            params[label] = "violated"
            failures.append(f"flow ({k},{alpha+1}): {exc}")
            continue
        params[label] = "ok"
        # derivation-band freedom: B_+ and -B_- give the same flow
        _, b_minus = hy.b_split(r, k)
        alt = hy.commutation_residual(ctx.lax, b_minus, 0, 0).coeff(0)
        residuals.append(("avoided-band mismatch", alt - value))
    return _result(params, residuals, failures=failures)


def check_zero_curvature(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    flows = list(cfg.flows)
    # a pair (f, f) is identically zero, whatever the resolvents are
    pairs = [(f, g) for i, f in enumerate(flows) for g in flows[i + 1:]]
    table = hy.FlowTable(ctx.family, hy.flow_reach(pairs))
    residuals = (
        (((k, a + 1), (l, b + 1)), hy.verify_zero_curvature(table, (k, a), (l, b)))
        for (k, a), (l, b) in pairs
    )
    return _result(
        {"pairs": [f"({k},{a+1})x({l},{b+1})" for (k, a), (l, b) in pairs]},
        residuals,
    )


# -- dressing and bilinear -----------------------------------------------------------


def check_dressing_factorization(ctx: SuiteContext) -> CheckResult:
    """D(w exp_q(zAx)) == (zA - U) w exp_q(zAx), reduced through exp_q."""
    lax = ctx.bilinear_lax
    w = ctx.dressing.w
    a_z = MZSeries.from_term(lax.n, 1, lax.a_mat())
    residual = derive_through(w, a_z, lax.derive, lax.dilate) + (
        lax.u_minus_za() * w
    )
    return _result({"depth": ctx.dressing.depth}, [((), residual)])


def _route_agreement(dressing: hy.Dressing, session: hy.HierarchySession,
                     depth: int):
    """Conjugated dressing against the direct resolvent solve, per channel,
    through z**-depth: the one route-agreement identity, which
    hierarchy.first_order_routes (depth 1), dressing.route_agreement and
    classical.route_agreement read. Each record reports the depth in its
    params and the z it compared, read off the residuals.

    `session` is the run's session of the dressing's Lax datum, so the
    direct solve is the one its other readers use (at q = 1, the one
    classical.qr_residual verifies); the conjugation route shares nothing
    with it.
    """

    def residuals():
        for alpha, conj in enumerate(dressing.resolvents()):
            direct = session.resolvent(alpha, depth)
            yield alpha, conj.truncate_below(-depth) - direct

    return _result({"depth": depth}, residuals())


def check_route_agreement(ctx: SuiteContext) -> CheckResult:
    depth = min(ctx.dressing.depth, ctx.cfg.required_resolvent_depth())
    return _route_agreement(ctx.dressing, ctx.bilinear_session, depth)


def _maybe_corrupt(ctx: SuiteContext) -> hy.Dressing:
    return ctx.corrupted if ctx.cfg.inject_corruption else ctx.dressing


def _bilinear_check(params, ctx: SuiteContext, dressing: hy.Dressing):
    records = bl.check_q_bilinear(dressing, ctx.cfg.l_max, ctx.lambdas())
    params = {**params, "l_max": ctx.cfg.l_max, "records": len(records)}
    # the records are the coefficients at z**-1..z**-(l_max+1)
    return _result(params, records, z=ctx.cfg.l_max + 1)


def check_qb1(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    params = {"lambda_max": cfg.lambda_max, "corrupted": cfg.inject_corruption}
    return _bilinear_check(params, ctx, _maybe_corrupt(ctx))


def check_reconstruct(ctx: SuiteContext) -> CheckResult:
    lax = ctx.bilinear_lax
    a_vals, u_rec, residual = bl.reconstruct_from_bilinear(_maybe_corrupt(ctx))
    a_rec = MatSeries.diag_const(a_vals, lax.proto())
    # a config's u has a zero diagonal, so u_rec == u checks u_rec's too
    return _result({}, [
        ((), residual),
        ("recovered data mismatch", u_rec - lax.u),
        ("recovered data mismatch", a_rec - lax.a_mat()),
    ])


def check_adjoint_transpose(ctx: SuiteContext) -> CheckResult:
    dressing = ctx.dressing
    w = dressing.w
    w_star = bl.adjoint_baker(dressing)

    def residuals():
        yield (), bl.check_inverse_transpose(w, w_star)
        if dressing.depth >= 1:
            first = w_star.coeff(-1) + w.coeff(-1).transpose()
            yield "first-order mismatch", first

    return _result({}, residuals())


def check_corruption_detected(ctx: SuiteContext) -> CheckResult:
    records = bl.check_q_bilinear(ctx.corrupted, ctx.cfg.l_max, [()])
    return _result(
        {"records": len(records)},
        failures=[] if any(nonzero(records)) else ["corruption slipped through"],
    )


# -- tau ---------------------------------------------------------------------------


def check_expqo(ctx: SuiteContext) -> CheckResult:
    z_depth = tau_mod.EXPQO_Z_DEPTH
    return _result({"z_depth": z_depth}, ctx.expqo, z=z_depth)


def check_tau_theorem(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    lambdas = [lam for lam in ctx.lambdas() if len(lam) <= 1]
    l_max = min(cfg.l_max, 3)
    try:
        residuals = tau_mod.verify_tau_theorem(
            cfg.tau, list(cfg.a), cfg.q, l_max, lambdas, ctx.expqo
        )
    except tau_mod.TauCheckError as exc:
        return _result({"rejected": True},
                       failures=[(exc.label, exc.witness)])
    # the q-bilinear and Taylor stages compare z**-1..z**-(l_max+1)
    params = {"lambdas": len(lambdas), "lambda_max": min(cfg.lambda_max, 1),
              "l_max": l_max}
    return _result(params, residuals, z=l_max + 1)


def check_tau_gatekeeping(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    ring = ctx.tau_ctx
    bad = tau_mod.TauSpec(
        ring.constant(1) + ring.variable(ring.vars[0]), {}, cfg.n
    )
    lambdas = [(), (ring.vars[0],)]
    try:
        tau_mod.verify_tau_theorem(bad, list(cfg.a), cfg.q, 2, lambdas, ctx.expqo)
    except tau_mod.TauCheckError:
        return _result({})
    return _result({}, failures=["a non-solution passed the classical precheck"])


def check_tau_mechanism(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    # reduced x-order: the agreement is scale-independent, and each record
    # is a product against one inverse taken well below z**-1. Its Taylor
    # sum chains up to x-order flow derivatives, so one more time degree
    # keeps it determined.
    xorder = 6
    ring = TimePoly.zero(default_tau_times(cfg.n), xorder + 1, xorder)
    poly = ring.constant(1) + ring.variable((1, 0))
    spec = tau_mod.TauSpec(poly, {}, cfg.n)
    l_max = 1
    _, records = tau_mod.taylor_agreement(
        spec, list(cfg.a), cfg.q, l_max, [(), ((1, 0),)]
    )
    by_record = (((l, lam), r) for (l, lam, _), r in records)
    # the records are the coefficients at z**-1..z**-(l_max+1)
    return _result({"on": "non-solution polynomial", "l_max": l_max},
                   by_record, z=l_max + 1)


def check_classical_limit(ctx: SuiteContext) -> CheckResult:
    cfg = ctx.cfg
    ring = TimePoly.zero(((1, 0), (2, 0)), cfg.n_t, cfg.n_x)
    t1 = ring.variable((1, 0))
    t2 = ring.variable((2, 0))
    a_vals = [cfg.a[0]]
    cases = {
        "linear": t1,
        "quadratic": t1 * t1,
        "second_order_time": t2,
        "mixed": (t1 * t1) * t2 + ring.constant(1),
    }
    lo, hi = frac("45/100"), frac("55/100")
    # params record every case's ratios, so all cases run even after a failure
    failures = []
    ratio_report = {}
    for label, poly in cases.items():
        norms, ratios = tau_mod.classical_limit_check(
            poly, a_vals, list(cfg.q_sequence)
        )
        if label == "linear":
            if any(v != 0 for v in norms):
                failures.append((label, "expected exact vanishing"))
            ratio_report[label] = "exact zero"
            continue
        failures += [
            (label, str(r)) for r in ratios if r is None or not (lo <= r <= hi)
        ]
        ratio_report[label] = [str(r) for r in ratios]
    return _result(
        {"ratios": ratio_report, "window": "[0.45, 0.55]"}, failures=failures,
    )


# -- classical cross-checks --------------------------------------------------------


def check_classical_qr(ctx: SuiteContext) -> CheckResult:
    depth = ctx.cfg.required_resolvent_depth()
    return _qr_residual({"depth": depth}, ctx.classical_session, depth)


def check_classical_prop1(ctx: SuiteContext) -> CheckResult:
    lax = ctx.cfg.bilinear_lax
    dressing = hy.solve_dressing(hy.LaxData(lax.a, lax.u, 1),
                                 ctx.cfg.required_dressing_depth())
    return _bilinear_check({}, ctx, dressing)


def check_classical_routes(ctx: SuiteContext) -> CheckResult:
    depth = min(ctx.cfg.required_resolvent_depth(), 5)
    session = ctx.classical_session
    dressing = hy.solve_dressing(session.lax, depth)
    return _route_agreement(dressing, session, depth)


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

    Raises ConfigError for an empty `checks` list, for unknown names, for
    a selection that the prefixes reduce to nothing or to checks that
    `cfg` leaves idle (no selection may pass vacuously), and for a flow
    that tau.theorem cannot differentiate along.
    """
    known = [name for name, _ in CHECKS]
    chosen = known if cfg.checks is None else cfg.checks
    if not chosen:
        raise ConfigError(
            "checks is an empty list: name at least one check, or give null "
            "to run every check"
        )
    unknown = [name for name in chosen if name not in known]
    if unknown:
        raise ConfigError(f"unknown check names: {', '.join(unknown)}")
    names = [
        name for name in known
        if name in chosen
        and (not prefixes or any(name.startswith(p) for p in prefixes))
    ]
    if not names:
        raise ConfigError(
            f"checks {', '.join(chosen)} are outside this command's scope "
            f"({', '.join(prefixes)})"
        )
    idle = [f"{name} ({note})" for name in names if (note := _idle(cfg, name))]
    if len(idle) == len(names):
        raise ConfigError(f"the selected checks compare nothing: {', '.join(idle)}")
    if "tau.theorem" in names and cfg.lambda_max >= 1:
        # the theorem differentiates the tau data along every flow
        variables = cfg.tau.tau.vars
        for k, a in cfg.flows:
            if (k, a) not in variables:
                raise ConfigError(
                    f"flows entry [{k}, {a+1}] is not a tau time variable, "
                    "which tau.theorem needs; the variables are "
                    + ", ".join(f"[{j}, {b+1}]" for j, b in variables)
                )
    return names


def run_hash(cfg: RunConfig) -> str:
    """The config hash that a run of `cfg` reports: the hash of its
    canonical JSON with the check selection in run order and without
    repeats, so spellings of one selection, in a config or by --check,
    hash alike. Names outside the suite, which `select_checks` refuses,
    are dropped."""
    if cfg.checks is not None:
        cfg = cfg.with_checks(n for n, _ in CHECKS if n in cfg.checks)
    return config_hash(cfg.canonical_json())


def run_suite(cfg: RunConfig, prefixes=None) -> Report:
    ctx = SuiteContext(cfg)
    selection = set(select_checks(cfg, prefixes))
    results = []
    for name, fn in CHECKS:
        if name not in selection:
            continue
        note = _idle(cfg, name)
        start = time.perf_counter()
        try:
            res = _result({"note": note}) if note else fn(ctx)
        except Exception as exc:  # honest error reporting, not a crash
            res = CheckResult(status="error", first_failure={
                "error": f"{type(exc).__name__}: {exc}"})
        res.name = name
        res.ms = (time.perf_counter() - start) * 1000.0
        results.append(res)
    return Report(run_hash(cfg), results)
