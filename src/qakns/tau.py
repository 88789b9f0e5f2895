"""Tau functions: time shifts, Baker assembly, and the shift theorem checks.

A tau function enters as a polynomial in finitely many flow times, with
off-diagonal companions supplied alongside it. The Baker dressing is read
off through the z-substitution t_(k beta) -> t_(k beta) - z**-k / k and
division by tau; the q-deformation substitutes
t_(k alpha) -> t_(k alpha) + (1-q)**k / (k (1-q**k)) * (a_alpha x)**k
first. Exponential factors are never expanded in z: identities reduce to
dressing-level statements whose residues are checked exactly.

Every check here is honest arithmetic: flow derivatives act on the time
polynomials themselves, the x-derivation acts inside the coefficients,
and the Taylor cross-check compares two independent evaluations of the
same residue.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .calculus import dilate, q_derive
from .matseries import MatSeries
from .scalars import frac
from .series import XSeries
from .timepoly import FlowIndex, TimePoly
from .zseries import MZSeries, NEG_INF


class TimeContext:
    """Shared carrier data for one tau computation."""

    __slots__ = ("vars", "tmax", "xorder")

    def __init__(self, vars, tmax: int, xorder: int):
        self.vars = tuple(sorted(set(vars)))
        self.tmax = tmax
        self.xorder = xorder

    def constant(self, c) -> TimePoly:
        return TimePoly.constant(c, self.vars, self.tmax, self.xorder)

    def variable(self, v: FlowIndex) -> TimePoly:
        return TimePoly.variable(v, self.vars, self.tmax, self.xorder)

    def zero(self) -> TimePoly:
        return TimePoly.zero(self.vars, self.tmax, self.xorder)

    def from_monomials(self, monomials) -> TimePoly:
        """Build from ((exponent tuple aligned to vars), coefficient) pairs."""
        out = self.zero()
        for e, c in monomials:
            term = {tuple(e): XSeries.const(frac(c), self.xorder)}
            out = out + TimePoly(self.vars, term, self.tmax, self.xorder)
        return out


def q_shift_coeff(k: int, q: Fraction) -> Fraction:
    """(1-q)**k / (k (1-q**k)): the k-th time-shift weight."""
    q = frac(q)
    return (1 - q) ** k / (k * (1 - q**k))


def q_shift_times(p: TimePoly, a_values, q, x_scale=1) -> TimePoly:
    """Shift every time variable by its channel's x-series amount.

    t_(k alpha) picks up q_shift_coeff(k) * (a_alpha * x_scale * x)**k;
    x_scale = q evaluates the shifted object at the dilated argument.
    """
    q = frac(q)
    scale = frac(x_scale)
    out = p
    for (k, alpha) in p.vars:
        if k > p.xorder:
            continue  # the shift amount vanishes in the truncated ring
        base = frac(a_values[alpha]) * scale
        amount = XSeries.monomial(q_shift_coeff(k, q) * base**k, k, p.xorder)
        out = out.shift_var((k, alpha), amount)
    return out


def shift_difference(k: int, alpha: int, a_values, q, xorder: int) -> XSeries:
    """Shift amount at qx minus at x: -(1-q)**k (a_alpha x)**k / k."""
    q = frac(q)
    if k > xorder:
        return XSeries.zero(xorder)
    c = q_shift_coeff(k, q) * (q**k - 1) * frac(a_values[alpha]) ** k
    return XSeries.monomial(c, k, xorder)


def miwa_shift(p: TimePoly, beta: int, depth: int):
    """Substitute t_(k beta) -> t_(k beta) - z**-k / k; collect z-degrees.

    Returns ({z-degree: TimePoly}, zvalid); degrees below -depth are
    dropped and zvalid marks the cut, or -inf when nothing was dropped.
    """
    if p.tvalid <= p.tmax:
        raise ValueError("miwa substitution needs an exact polynomial")
    idxs = [i for i, (k, a) in enumerate(p.vars) if a == beta]
    out: dict[int, TimePoly] = {}
    lost = False

    def put(d: int, poly: TimePoly):
        nonlocal lost
        if d < -depth:
            if not poly.is_zero():
                lost = True
            return
        cur = out.get(d)
        out[d] = poly if cur is None else cur + poly

    for e, c in p.terms.items():
        # expand the product of binomials over this monomial's beta-variables
        expansions = [(0, dict())]  # (z-degree, {var index: lowered amount})
        for i in idxs:
            k = p.vars[i][0]
            cur = []
            for zdeg, lowered in expansions:
                for j in range(e[i] + 1):
                    factor_deg = zdeg - k * j
                    if factor_deg < -depth:
                        lost = True
                        continue
                    low = dict(lowered)
                    if j:
                        low[i] = j
                    cur.append((factor_deg, low))
            expansions = cur
        for zdeg, lowered in expansions:
            coeff = c
            e2 = list(e)
            for i, j in lowered.items():
                k = p.vars[i][0]
                coeff = coeff.scale(
                    Fraction(math.comb(e[i], j)) * Fraction(-1, k) ** j
                )
                e2[i] = e[i] - j
            put(zdeg, TimePoly(p.vars, {tuple(e2): coeff}, p.tmax, p.xorder))
    zvalid = -depth if lost else NEG_INF
    return out, zvalid


def baker_from_tau(
    tau: TimePoly, companions: dict, n: int, depth: int
) -> MZSeries:
    """Assemble the dressing matrix from tau and its companions.

    Diagonal entries are tau(miwa-shifted in the channel) / tau; entry
    (alpha, beta) off the diagonal carries z**-1 times companion
    tau_(alpha beta) shifted in channel beta, divided by tau.
    """
    c0 = tau.constant_term()
    if c0.constant_term() == 0:
        raise ZeroDivisionError("tau has zero constant term")
    inv = tau.invert()
    rows_by_degree: dict[int, list[list[TimePoly]]] = {}
    zv = NEG_INF

    def ensure(d: int):
        if d not in rows_by_degree:
            rows_by_degree[d] = [
                [tau.zero_like() for _ in range(n)] for _ in range(n)
            ]

    for alpha in range(n):
        shifted, z_ok = miwa_shift(tau, alpha, depth)
        zv = max(zv, z_ok)
        for d, poly in shifted.items():
            ensure(d)
            rows_by_degree[d][alpha][alpha] = poly * inv
    for (alpha, beta), comp in companions.items():
        if alpha == beta:
            raise ValueError("companions are off-diagonal only")
        if comp.is_zero():
            continue
        shifted, z_ok = miwa_shift(comp, beta, depth - 1)
        zv = max(zv, z_ok - 1 if z_ok != NEG_INF else NEG_INF)
        for d, poly in shifted.items():
            ensure(d - 1)
            rows_by_degree[d - 1][alpha][beta] = poly * inv
    terms = {d: MatSeries(rows) for d, rows in rows_by_degree.items()}
    return MZSeries(n, terms, zv, tau.zero_like())


# -- dressing-level Baker data and the residue machinery ----------------------


def _tp_derive_x(q):
    def fn(tp: TimePoly) -> TimePoly:
        return tp.map_coeffs(lambda s: q_derive(s, q))
    return fn


def _tp_dilate_x(c):
    def fn(tp: TimePoly) -> TimePoly:
        return tp.map_coeffs(lambda s: dilate(s, c))
    return fn


class TauBaker:
    """A dressing built from tau data, with flow and x-derivative reducers."""

    def __init__(self, what: MZSeries, a_values, floor: int, q=None):
        self.what = what
        self.a = [frac(v) for v in a_values]
        self.n = what.n
        self.floor = floor
        self.q = frac(q) if q is not None else None
        self.winv = what.invert(floor)
        self._proto = what.proto
        self._h_memo: dict[tuple, MZSeries] = {}
        self._g_memo: dict[tuple, MZSeries] = {}
        self._x_factor: MZSeries | None = None

    def _unit_mz(self, alpha: int, k: int) -> MZSeries:
        mat = MatSeries.unit(self.n, alpha, self._proto)
        return MZSeries.from_term(self.n, k, mat)

    def g_flow(self, k: int, alpha: int) -> MZSeries:
        """(d_(k alpha) w) w**-1 at the dressing level."""
        got = self._g_memo.get((k, alpha))
        if got is not None:
            return got
        d_what = self.what.map_entries(lambda tp: tp.t_derive((k, alpha)))
        out = (d_what * self.winv) + (
            self.what * self._unit_mz(alpha, k) * self.winv
        )
        self._g_memo[(k, alpha)] = out
        return out

    def h(self, lam) -> MZSeries:
        """(iterated flow derivative of w) * w**-1, honest t-derivatives."""
        lam = tuple(sorted(lam))
        got = self._h_memo.get(lam)
        if got is not None:
            return got
        if not lam:
            out = MZSeries.identity(self.n, self._proto)
        else:
            head, tail = lam[-1], lam[:-1]
            prev = self.h(tail)
            d_prev = prev.map_entries(lambda tp: tp.t_derive(head))
            out = d_prev + (prev * self.g_flow(*head))
        self._h_memo[lam] = out
        return out

    def x_factor(self) -> MZSeries:
        """D_q w * w**-1 reduced to the dressing level (q-data only)."""
        if self.q is None:
            raise ValueError("x-derivative factor needs the q parameter")
        if self._x_factor is None:
            derive = _tp_derive_x(self.q)
            dil = _tp_dilate_x(self.q)
            a_z = MZSeries.from_term(
                self.n, 1, _diag_const_tp(self.a, self._proto)
            )
            num = self.what.map_entries(derive) + (
                self.what.map_entries(dil) * a_z
            )
            self._x_factor = num * self.winv
        return self._x_factor

    def residue(self, l: int, lam, m: int = 0) -> MatSeries:
        """res_z(z**l (D**m d**lam w) w**-1)."""
        h = self.h(lam)
        if m == 0:
            target = h
        elif m == 1:
            g = self.x_factor()
            target = h.map_entries(_tp_derive_x(self.q)) + (
                h.map_entries(_tp_dilate_x(self.q)) * g
            )
        else:
            raise ValueError("m must be 0 or 1")
        return target.shift(l).residue()


def _diag_const_tp(values, proto: TimePoly) -> MatSeries:
    n = len(values)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(proto.one_like().scale(values[i]))
            else:
                row.append(proto.zero_like())
        rows.append(row)
    return MatSeries(rows)


def _zexp_diag(gens: dict[int, list[XSeries]], n: int, depth: int,
               proto: TimePoly) -> MZSeries:
    """exp of sum_k z**k diag(gens[k]) as a diagonal z-power series.

    Generators are x-series constants in t; each channel is the scalar
    exponential `_zexp_poly` of its own generators.
    """
    one, zero = proto.one_like(), proto.zero_like()
    channels = [
        _zexp_poly(
            {k: one.scale_series(g[i]) for k, g in gens.items()} or {1: zero},
            depth,
        )
        for i in range(n)
    ]
    terms = {
        d: MatSeries([[channels[i][d] if i == j else zero for j in range(n)]
                      for i in range(n)])
        for d in channels[0]
    }
    return MZSeries(n, terms)


# -- named checks ---------------------------------------------------------------


def verify_expqo(a_values, q, ctx: TimeContext, z_depth: int):
    """exp_q(zAx) exp(sum z**k E t) == exp(sum z**k E t'), channel by channel.

    Returns a list of (channel, ok, first_failure) comparing the z-graded
    coefficients through z**z_depth, all x-degrees, exactly.
    """
    from .scalars import q_factorial

    if z_depth > ctx.xorder:
        raise ValueError("z depth beyond the x truncation makes the check vacuous")
    q = frac(q)
    results = []
    n = len(a_values)
    for alpha in range(n):
        kvars = {k for (k, a) in ctx.vars if a == alpha}
        gens = {k: ctx.variable((k, alpha)) for k in sorted(kvars)}
        lhs_exp = _zexp_poly(gens or {1: ctx.zero()}, z_depth)
        a = frac(a_values[alpha])
        expq = {
            j: ctx.constant(XSeries.monomial(a**j / q_factorial(j, q), j, ctx.xorder))
            for j in range(z_depth + 1)
        }
        lhs = _zconv(expq, lhs_exp, z_depth)
        # the shift applies at every order, whether or not a time variable
        # of that order is present (absent times are identically zero)
        shifted_gens = {}
        for k in range(1, z_depth + 1):
            amount = ctx.constant(
                XSeries.monomial(q_shift_coeff(k, q) * a**k, k, ctx.xorder)
            )
            shifted_gens[k] = gens[k] + amount if k in gens else amount
        rhs = _zexp_poly(shifted_gens, z_depth)
        ok = True
        first = None
        for d in range(z_depth + 1):
            diff = lhs.get(d, ctx.zero()) - rhs.get(d, ctx.zero())
            if not diff.is_zero():
                ok = False
                first = (d, diff.first_nonzero())
                break
        results.append((alpha, ok, first))
    return results


def _zexp_poly(gens: dict[int, TimePoly], depth: int) -> dict[int, TimePoly]:
    """exp of sum_k z**k gens[k] in the z-graded scalar algebra."""
    any_gen = next(iter(gens.values()))
    acc = {0: any_gen.one_like()}
    term = {0: any_gen.one_like()}
    for m in range(1, depth + 1):
        nxt: dict[int, TimePoly] = {}
        for d, poly in term.items():
            for k, g in gens.items():
                nd = d + k
                if nd > depth:
                    continue
                add = (poly * g).scale(Fraction(1, m))
                cur = nxt.get(nd)
                nxt[nd] = add if cur is None else cur + add
        term = nxt
        for d, poly in term.items():
            cur = acc.get(d)
            acc[d] = poly if cur is None else cur + poly
    return acc


def _zconv(a: dict[int, TimePoly], b: dict[int, TimePoly], depth: int):
    out: dict[int, TimePoly] = {}
    for da, ca in a.items():
        for db, cb in b.items():
            d = da + db
            if d > depth:
                continue
            prod = ca * cb
            cur = out.get(d)
            out[d] = prod if cur is None else cur + prod
    return out


class TauCheckError(ValueError):
    """A precondition of the shift theorem failed (gatekeeping)."""


class TauSpec:
    """One tau family: the scalar tau and its off-diagonal companions."""

    __slots__ = ("tau", "companions", "n")

    def __init__(self, tau: TimePoly, companions: dict | None, n: int):
        self.tau = tau
        self.companions = dict(companions or {})
        self.n = n

    def mapped(self, fn) -> "TauSpec":
        return TauSpec(
            fn(self.tau), {k: fn(v) for k, v in self.companions.items()}, self.n
        )


def classical_precheck(
    spec: TauSpec, a_values, l_max: int, lambdas, depth: int
) -> list:
    """The classical bilinear residues on the tau-built Baker data (m = 0)."""
    what = baker_from_tau(spec.tau, spec.companions, spec.n, depth)
    baker = TauBaker(what, a_values, -depth)
    records = []
    for lam in lambdas:
        for l in range(l_max + 1):
            res = baker.residue(l, lam, 0)
            records.append((l, lam, res.is_zero(), res.first_nonzero()))
    return records


def q_bilinear_on_tau(
    spec: TauSpec, a_values, q, l_max: int, lambdas, depth: int
) -> list:
    """The q-deformed bilinear residues on the shifted tau data, m in {0,1}."""
    q = frac(q)
    shifted = spec.mapped(lambda p: q_shift_times(p, a_values, q))
    what = baker_from_tau(shifted.tau, shifted.companions, spec.n, depth)
    baker = TauBaker(what, a_values, -depth, q)
    records = []
    for lam in lambdas:
        for m in (0, 1):
            for l in range(l_max + 1):
                res = baker.residue(l, lam, m)
                records.append((l, m, lam, res.is_zero(), res.first_nonzero()))
    return records


def substitution_commutes(spec: TauSpec, a_values, q, depth: int) -> bool:
    """q-shift then miwa equals miwa then q-shift, degree by degree.

    This is the construction half of the Baker identity w_q(t; x) =
    w(t + shifts): both substitutions act on disjoint data.
    """
    q = frac(q)
    for beta in range(spec.n):
        first, zv1 = miwa_shift(q_shift_times(spec.tau, a_values, q), beta, depth)
        pre, zv2 = miwa_shift(spec.tau, beta, depth)
        second = {d: q_shift_times(p, a_values, q) for d, p in pre.items()}
        degrees = set(first) | set(second)
        for d in degrees:
            if d < max(zv1, zv2):
                continue
            zero = spec.tau.zero_like()
            if not (first.get(d, zero) - second.get(d, zero)).is_zero():
                return False
    return True


def taylor_agreement(
    spec: TauSpec, a_values, q, l_max: int, lambdas, depth: int
) -> list:
    """Cross-check the two proof-path evaluations of the m = 1 residues.

    For each (l, lambda), with H the flow factor at shift [Ax]_q and H'
    the one at [Aqx]_q, and M := res_z(z**l H' w' E_delta w**-1):

    * two-term: x(q-1) * res_z(z**l (D_q H + (D H) G)) == M - res_z(z**l H)
    * Taylor:   M == sum over eta of Delta**eta / eta! * res_z(z**l H_(lam+eta))

    Both identities hold for any polynomial tau, bilinear or not; they
    certify the difference-quotient and Taylor machinery itself.
    """
    q = frac(q)
    n = spec.n
    xorder = spec.tau.xorder
    shifted = spec.mapped(lambda p: q_shift_times(p, a_values, q))
    shifted_q = spec.mapped(lambda p: q_shift_times(p, a_values, q, x_scale=q))
    what = baker_from_tau(shifted.tau, shifted.companions, n, depth)
    what_q = baker_from_tau(shifted_q.tau, shifted_q.companions, n, depth)
    # the exponential-difference factor carries positive z-degrees up to
    # the x-order, so the inverse must reach correspondingly deeper for
    # the mixed product's residue window to be determined
    floor = -max(depth, xorder + l_max + 2)
    baker = TauBaker(what, a_values, floor, q)
    baker_q = TauBaker(what_q, a_values, floor, q)
    proto = what.proto

    # the exponential ratio carries shift differences at every order,
    # whether or not a time variable of that order exists
    deltas = {
        k: [shift_difference(k, alpha, a_values, q, xorder) for alpha in range(n)]
        for k in range(1, xorder + 1)
    }
    e_delta = _zexp_diag(deltas, n, xorder, proto)

    mix = what_q * e_delta * baker.winv
    x_factor = baker.x_factor()
    derive = _tp_derive_x(q)
    dil = _tp_dilate_x(q)
    x_qm1 = XSeries.monomial(q - 1, 1, xorder)

    delta_of_var = {
        (k, alpha): deltas[k][alpha] for (k, alpha) in spec.tau.vars
    }
    etas = _eta_pool(spec.tau.vars, delta_of_var, xorder)
    records = []
    for lam in lambdas:
        h = baker.h(lam)
        h_q = baker_q.h(lam)
        for l in range(l_max + 1):
            direct = (h.map_entries(derive) + h.map_entries(dil) * x_factor)\
                .shift(l).residue()
            mixed = (h_q * mix).shift(l).residue()
            plain = h.shift(l).residue()
            lhs2 = direct.map(lambda tp: tp.scale_series(x_qm1))
            rhs2 = mixed - plain
            two_term_ok = (lhs2 - rhs2).is_zero()
            taylor = None
            for eta, weight in etas:
                res = baker.h(tuple(lam) + eta).shift(l).residue()
                contrib = res.map(lambda tp, w=weight: tp.scale_series(w))
                taylor = contrib if taylor is None else taylor + contrib
            taylor_ok = (mixed - taylor).is_zero()
            records.append(
                {
                    "l": l,
                    "lam": tuple(lam),
                    "two_term_ok": two_term_ok,
                    "taylor_ok": taylor_ok,
                    "two_term_fail": None if two_term_ok
                    else (lhs2 - rhs2).first_nonzero(),
                    "taylor_fail": None if taylor_ok
                    else (mixed - taylor).first_nonzero(),
                }
            )
    return records


def _eta_pool(vars, delta_of_var: dict, xorder: int):
    """Taylor multi-indices with weights prod Delta_v**m_v / m_v!.

    Each Delta_v has x-valuation k_v, so only multiplicities with
    sum k_v m_v <= xorder contribute in the truncated ring; the pool is
    finite and the Taylor identity is exact degree by degree.
    """
    out = [((), XSeries.one(xorder))]
    var_list = sorted(vars)

    def extend(idx: int, eta: tuple, weight: XSeries, budget: int):
        if idx == len(var_list):
            return
        extend(idx + 1, eta, weight, budget)
        v = var_list[idx]
        k = v[0]
        m = 0
        w = weight
        used = 0
        while used + k <= budget:
            m += 1
            used += k
            w = (w * delta_of_var[v]).scale(Fraction(1, m))
            out.append((eta + (v,) * m, w))
            extend(idx + 1, eta + (v,) * m, w, budget - used)

    extend(0, (), XSeries.one(xorder), xorder)
    return out


def classical_limit_check(poly: TimePoly, a_values, q_values):
    """Certify D_q(shifted tau) -> sum_b a_b d_(1 b) (shifted tau) as q -> 1.

    The residual of the deformed derivation against the classical flow
    combination is measured by its exact coefficient norm at each q; as
    q - 1 halves along the supplied sequence, successive norm ratios are
    returned for the caller to window-check.

    Returns (norms, ratios) as exact rationals (ratio None when the
    residual vanishes identically).
    """
    norms = []
    for q in q_values:
        q = frac(q)
        shifted = q_shift_times(poly, a_values, q)
        residual = shifted.map_coeffs(lambda s: q_derive(s, q))
        for (k, alpha) in shifted.vars:
            if k != 1:
                continue
            term = shifted.t_derive((1, alpha)).scale(frac(a_values[alpha]))
            residual = residual - term
        norms.append(_tp_norm(residual))
    ratios = []
    for prev, cur in zip(norms, norms[1:]):
        ratios.append(None if prev == 0 else cur / prev)
    return norms, ratios


def _tp_norm(p: TimePoly) -> Fraction:
    total = Fraction(0)
    for e, c in p.terms.items():
        if sum(e) > p.tvalid:
            continue
        top = min(c.valid, c.order)
        for k in range(top + 1):
            total += abs(c.coeffs[k])
    return total


def verify_tau_theorem(
    spec: TauSpec,
    a_values,
    q,
    l_max: int,
    lambdas,
    depth: int,
    ctx: TimeContext,
    z_depth_expqo: int = 4,
):
    """Full shift-theorem verification for one tau family.

    Order of business: the classical bilinear residues gate everything
    (the theorem's hypothesis); then the substitution-commutation and
    exponential-shift identities establish the Baker correspondence; the
    q-bilinear residues and the Taylor cross-check close the claim.
    Raises TauCheckError when the classical precheck rejects the input.
    """
    classical = classical_precheck(spec, a_values, l_max, lambdas, depth)
    bad = [r for r in classical if not r[2]]
    if bad:
        l, lam, _, witness = bad[0]
        raise TauCheckError(
            f"classical bilinear residue fails at l={l}, lam={lam}: {witness}"
        )
    results = {"classical": classical}
    results["substitution_commutes"] = substitution_commutes(
        spec, a_values, q, depth
    )
    results["expqo"] = verify_expqo(a_values, q, ctx, z_depth_expqo)
    results["q_bilinear"] = q_bilinear_on_tau(
        spec, a_values, q, l_max, lambdas, depth
    )
    results["taylor"] = taylor_agreement(
        spec, a_values, q, l_max, lambdas, depth
    )
    return results


def vacuum_spec(ctx: TimeContext, n: int) -> TauSpec:
    """The built-in example: tau = 1 with vanishing companions."""
    return TauSpec(ctx.constant(1), {}, n)
