"""Tau functions: time shifts, Baker assembly, and the shift theorem checks.

A tau function enters as a polynomial in finitely many flow times, with
off-diagonal companions supplied alongside it. Its ring starts at
`TimePoly.zero(vars, tmax, xorder)`, with the times in the order listed,
and the tau, its companions and every check's polynomials are built from
an element of that ring. The Baker dressing is read off through the
z-substitution t_(k beta) -> t_(k beta) - z**-k / k and division by tau;
the q-deformation substitutes
t_(k alpha) -> t_(k alpha) + (1-q)**k / (k (1-q**k)) * (a_alpha x)**k
first. The z-substitution is the finite Taylor sum of t-derivatives
exp(-sum_k z**-k / k d_(k beta)), which ends at the polynomial's own Miwa
reach, so the assembled Baker series is exact in z and takes no depth.
That sum, the two factors of the Taylor sum of the flow steps and the
z-exponentials of `verify_expqo` are each the exponential of a graded
operator, expanded by `calculus.graded_apply` up to its grade: the Miwa
reach, the x-order and `EXPQO_Z_DEPTH`; the z-exponentials through
`calculus.graded_exp`. The Taylor sum's factors are a time translation
and, per channel, a z-exponential of the shift differences, since the
flow steps' t-derivatives and right factors commute; they are paired
only up to the x-order, and no term is formed from an exact zero. The
Baker exponentials enter the residue identities through the q-Leibniz
reduction; an exponential in z is expanded only where `verify_expqo`
compares one directly or the Taylor sum scales by one, and the ratio
E_delta that `taylor_agreement` needs is the closed form the
q-exponential's eigen-relation gives.

Every check here is honest arithmetic: flow derivatives act on the time
polynomials themselves, and the x-derivation acts inside the coefficients.
One rule writes the Baker flow: with P_lam = (d**lam Psi) e**-xi,
`flow_step` is P_(lam+v) = d_v P_lam + P_lam z**k E_alpha, and the flow
factor is H_lam = P_lam w**-1. The Taylor cross-check reads M =
res(z**l L_lam(sigma(w) E_delta) w**-1), sigma the dilation x -> qx,
against the Taylor sum read the same way: the two halves share L_lam and
w**-1, while sigma(w) E_delta and the graded sum of shift differences are
independent evaluations.

`verify_tau_theorem` builds two Bakers and inverts each once: the
unshifted one for the classical precheck (`classical_residues`), and the
q-shifted one for the q pass (`taylor_agreement`), whose two-term half
reads the q-bilinear residues themselves. Each inverse is kept exactly
as deep as its reads, a floor derived from l_max, the x-order and the
largest flow weight of the lambdas.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from .bilinear import bilinear_residues
from .calculus import dilate, graded_apply, graded_exp, q_derive
from .hierarchy import flow_reach, x_factor_of
from .matseries import MatSeries
from .qop import exp_q_laurent
from .scalars import frac
from .series import XSeries
from .timepoly import TimePoly
from .zseries import MZSeries, NEG_INF


def q_shift_coeff(k: int, q: Fraction) -> Fraction:
    """(1-q)**k / (k (1-q**k)): the k-th time-shift weight."""
    q = frac(q)
    return (1 - q) ** k / (k * (1 - q**k))


def shift_amount(k: int, a, q, xorder: int) -> XSeries:
    """q_shift_coeff(k) * (a x)**k: the shift of a time of order k.

    Zero when k exceeds the x-order: the amount vanishes in the truncated
    ring.
    """
    if k > xorder:
        return XSeries.zero(xorder)
    return XSeries.monomial(q_shift_coeff(k, q) * frac(a) ** k, k, xorder)


def q_shift_times(p: TimePoly, a_values, q) -> TimePoly:
    """Shift every time variable by its channel's x-series amount.

    t_(k alpha) picks up shift_amount(k, a_alpha).
    """
    out = p
    for (k, alpha) in p.vars:
        amount = shift_amount(k, a_values[alpha], q, p.xorder)
        if not amount.is_zero():
            out = out.shift_var((k, alpha), amount)
    return out


def shift_difference(k: int, alpha: int, a_values, q, xorder: int) -> XSeries:
    """Shift amount at qx minus at x: -(1-q)**k (a_alpha x)**k / k."""
    return shift_amount(k, a_values[alpha], q, xorder).scale(frac(q) ** k - 1)


def miwa_shift(p: TimePoly, beta: int) -> dict:
    """Substitute t_(k beta) -> t_(k beta) - z**-k / k; collect z-degrees.

    The substitution is exp(S) p for S = -sum_k z**-k / k d_(k beta),
    graded by the power of z**-1: `graded_apply` with the step
    -d_(k beta). The sum ends at p's Miwa reach, the largest
    sum_k k e_(k beta) over its monomials: a term of a higher grade lowers
    some monomial by more weight than it holds, so it vanishes. Returns
    the exact {z-degree: TimePoly}; a degree with no terms has no entry.
    """
    if p.tvalid <= p.tmax:
        raise ValueError("miwa substitution needs an exact polynomial")
    flows = [(i, v) for i, v in enumerate(p.vars) if v[1] == beta]
    reach = max(
        (sum(v[0] * e[i] for i, v in flows) for e in p.terms), default=0
    )
    grades = graded_apply(
        p, lambda k, t: -t.t_derive((k, beta)), [v[0] for _, v in flows], reach
    )
    return {-d: t for d, t in grades.items() if t.terms}


def _placed(n: int, at: tuple, zero, series: dict) -> MZSeries:
    """The exact z-series {degree: entry} at entry `at` of n x n matrices."""
    def mat(poly):
        return MatSeries(
            [[poly if (i, j) == at else zero for j in range(n)] for i in range(n)]
        )

    return MZSeries(n, {d: mat(p) for d, p in series.items()}, proto=zero)


def baker_from_tau(tau: TimePoly, companions: dict, n: int) -> MZSeries:
    """Assemble the dressing matrix from tau and its companions.

    Diagonal entries are tau(miwa-shifted in the channel) / tau; entry
    (alpha, beta) off the diagonal carries z**-1 times companion
    tau_(alpha beta) shifted in channel beta, divided by tau. The Miwa
    substitutions are whole, so the series is exact in z. Every companion
    is substituted, a zero one too: one that vanishes only inside its
    x-window keeps that window, and one truncated in t is refused.
    """
    if tau.constant_term().constant_term() == 0:
        raise ZeroDivisionError("tau has zero constant term")
    zero = tau.zero_like()
    what = MZSeries.zero(n, zero)
    for alpha in range(n):
        what = what + _placed(n, (alpha, alpha), zero, miwa_shift(tau, alpha))
    for (alpha, beta), comp in companions.items():
        if alpha == beta:
            raise ValueError("companions are off-diagonal only")
        shifted = _placed(n, (alpha, beta), zero, miwa_shift(comp, beta))
        what = what + shifted.shift(-1)
    inv = tau.invert()
    return what.map_entries(lambda tp: tp * inv)


# -- dressing-level Baker data and the residue machinery ----------------------


def flow_factor(what: MZSeries, winv: MZSeries, lam, lo=NEG_INF) -> MZSeries:
    """(d**lam Psi) Psi**-1 = P_lam w**-1, with P_lam = `flows_applied`(w, lam).

    The empty lam gives the exact identity. Only the degrees from `lo`
    up are built, as by `MZSeries.product`.
    """
    if not lam:
        return MZSeries.identity(what.n, what.proto)
    return flows_applied(what, lam).product(winv, lo)


def _times_diag(p: MZSeries, k: int, cols) -> MZSeries:
    """p z**k times a diagonal: every degree raised by k, and each entry of
    column alpha mapped by cols[alpha], to an exact zero where that is None.
    No matrix product is formed."""
    zero = p.proto.zero_like()

    def scaled(m: MatSeries) -> MatSeries:
        return MatSeries._of(tuple(
            tuple(zero if f is None else f(e) for e, f in zip(r, cols))
            for r in m.rows
        ))

    return MZSeries(
        p.n, {d + k: scaled(m) for d, m in p.terms.items()}, p.zvalid + k, p.proto
    )


def flow_step(p: MZSeries, k: int, weights: dict) -> MZSeries:
    """sum over alpha of weights[alpha] * (d_(k alpha) p + p z**k E_alpha).

    With Psi = w e**xi, P_lam = (d**lam Psi) e**-xi obeys P_(lam+v) =
    d_v P_lam + P_lam z**k E_alpha for v = (k, alpha): this is that step,
    weighted per channel by x-series. A flow the carrier does not hold has
    no t-derivative. The right factor z**k diag(weights) scales columns.
    """
    out = _times_diag(p, k, [
        None if s is None else (lambda tp, s=s: tp.scale_series(s))
        for s in map(weights.get, range(p.n))
    ])
    for alpha, s in weights.items():
        v = (k, alpha)
        if v in p.proto.vars:
            out = out + p.map_entries(lambda tp: tp.t_derive(v).scale_series(s))
    return out


def flows_applied(p: MZSeries, lam) -> MZSeries:
    """L_lam p: one unit-weight `flow_step` per flow (k, alpha) of lam.

    With p = w this is P_lam; the steps commute, so the order of lam is
    immaterial.
    """
    one = XSeries.one(p.proto.xorder)
    for k, alpha in lam:
        p = flow_step(p, k, {alpha: one})
    return p


def taylor_sum(what: MZSeries, deltas: dict) -> MZSeries:
    """sum over multisets eta of Delta**eta / eta! * P_eta, with P_() = what.

    `deltas` maps flows (k, alpha) to Delta_(k alpha) = c x**k. The sum is
    exp(S) what for S = sum_v Delta_v (d_v + R_v), the commuting steps of
    `flow_step`, R_v the right factor z**k E_alpha. The t-derivatives d_v
    and the right factors commute, so exp(S) what = A diag(b): the time
    translation A = exp(sum_v Delta_v d_v) what, over the flows the carrier
    holds, by `graded_apply` in grades A_j of x-valuation j, and per
    channel the z-exponential b_alpha = exp(sum_k Delta_(k alpha) z**k),
    by `graded_exp` in z-degrees m, each b_m an x-series of valuation m.

    Only the pairs with j + m <= x-order are formed, as sum_m z**m
    (sum_(j <= x-order - m) A_j) diag(b_m), a column scaling per m: a pair
    above the x-order vanishes in the truncated ring, but formed it would
    be an inexact zero that narrows the t- and x-windows of the sum. A
    column whose b_m is an exact zero is not formed.
    """
    n, proto = what.n, what.proto
    xorder = proto.xorder
    # each channel's Deltas by order k, and k Delta_(k alpha) by order k
    # along the flows the carrier holds
    gens: list[dict] = [{} for _ in range(n)]
    held: dict[int, dict] = {}
    for (k, alpha), s in deltas.items():
        gens[alpha][k] = s
        if (k, alpha) in proto.vars:
            held.setdefault(k, {})[alpha] = s.scale(k)

    def translate(k, p):
        def entry(tp):
            terms = [tp.t_derive((k, alpha)).scale_series(s)
                     for alpha, s in held[k].items()]
            return sum(terms[1:], terms[0])
        return p.map_entries(entry)

    grades = graded_apply(what, translate, held, xorder)
    b = [graded_exp(g, xorder) if g else {} for g in gens]

    def column(s):
        if s is None or s.is_zero_exact():
            return None
        return lambda tp: tp.scale_series(s)

    # partial[r] is the sum of the A_j with j <= r; b_0 is the identity
    zero = MZSeries.zero(n, proto)
    partial = list(accumulate(grades.get(j, zero) for j in range(xorder + 1)))
    out = partial[xorder]
    for m in range(1, xorder + 1):
        cols = [column(b[alpha].get(m)) for alpha in range(n)]
        if any(cols):
            out = out + _times_diag(partial[xorder - m], m, cols)
    return out


def e_delta(a_values, q, proto: TimePoly) -> MZSeries:
    """E_delta = exp_q(zAqx) / exp_q(zAx) in closed form: I + (q-1) z A x.

    The q-exponential's eigen-relation D_q e = c e, which
    `qcalc.expq_eigenvalue` certifies, is e(qx) = (1 + (q-1) c x) e(x);
    at c = z a_alpha it gives each channel's ratio. Equivalently, the
    shift differences sum to sum_k z**k shift_difference(k) =
    log(1 + (q-1) z a_alpha x), exactly in the truncated ring.
    """
    one, qm1 = proto.one_like(), frac(q) - 1
    z1 = [one.scale_series(XSeries.monomial(qm1 * frac(a), 1, proto.xorder))
          for a in a_values]
    n = len(a_values)
    return MZSeries(n, {0: MatSeries.identity(n, proto), 1: MatSeries.diag(z1, proto)})


# -- named checks ---------------------------------------------------------------


# the one z-depth of the exponential-shift identity
EXPQO_Z_DEPTH = 4


def verify_expqo(a_values, q, ring: TimePoly):
    """exp_q(zAx) exp(sum z**k E t) == exp(sum z**k E t'), channel by channel.

    The times and truncations are those of `ring`'s elements. Returns
    (channel, residual) pairs, channels 1-based as reports number them;
    each residual is the 1 x 1 z-series of the difference through
    z**EXPQO_Z_DEPTH, at every x-degree.
    """
    z_depth = EXPQO_Z_DEPTH
    if z_depth > ring.xorder:
        raise ValueError("z depth beyond the x truncation makes the check vacuous")
    q = frac(q)
    zero = ring.zero_like()

    def scalar(series: dict) -> MZSeries:
        return _placed(1, (0, 0), zero, series)

    results = []
    for alpha in range(len(a_values)):
        kvars = {k for (k, a) in ring.vars if a == alpha}
        gens = {k: ring.variable((k, alpha)) for k in sorted(kvars)}
        lhs_exp = scalar(graded_exp(gens or {1: zero}, z_depth))
        a = frac(a_values[alpha])
        expq = exp_q_laurent([a], q, ring.xorder, +1, z_depth).map_entries(ring.constant)
        lhs = expq.product(lhs_exp, hi=z_depth)
        # the shift applies at every order, whether or not a time variable
        # of that order is present (absent times are identically zero)
        shifted_gens = {}
        for k in range(1, z_depth + 1):
            amount = ring.constant(shift_amount(k, a, q, ring.xorder))
            shifted_gens[k] = gens[k] + amount if k in gens else amount
        results.append(
            (alpha + 1, lhs - scalar(graded_exp(shifted_gens, z_depth)))
        )
    return results


class TauCheckError(ValueError):
    """A precondition of the shift theorem failed (gatekeeping): the
    classical residue `label` is nonzero, and `witness` is where, as
    `report.nonzero` gives it."""

    def __init__(self, label, witness):
        super().__init__(f"classical bilinear residue fails at {label}: {witness}")
        self.label, self.witness = label, witness


class TauSpec:
    """One tau family: the scalar tau and its off-diagonal companions."""

    __slots__ = ("tau", "companions", "n")

    def __init__(self, tau: TimePoly, companions: dict | None, n: int):
        self.tau = tau
        self.companions = dict(companions or {})
        self.n = n

    def __eq__(self, other) -> bool:
        return isinstance(other, TauSpec) and (
            self.tau, self.companions, self.n) == (
            other.tau, other.companions, other.n)

    def mapped(self, fn) -> "TauSpec":
        return TauSpec(
            fn(self.tau), {k: fn(v) for k, v in self.companions.items()}, self.n
        )


def classical_residues(spec: TauSpec, l_max: int, lambdas) -> list:
    """The classical precheck: res_z(z**l H_lam) on the unshifted Baker, m = 0.

    H_lam = P_lam w**-1 is read down to z**(-1-l_max) and P_lam reaches
    z**w, so the inverse is kept down to -(1 + l_max + w). Returns
    `bilinear_residues`' (label, residue) pairs.
    """
    what = baker_from_tau(spec.tau, spec.companions, spec.n)
    winv = what.invert(-(1 + l_max + flow_reach(lambdas)))
    return bilinear_residues(
        lambda lam: flow_factor(what, winv, lam), None, None, None, l_max, lambdas
    )


def substitution_commutes(spec: TauSpec, a_values, q) -> list:
    """q-shift then miwa equals miwa then q-shift, degree by degree.

    This is the construction half of the Baker identity w_q(t; x) =
    w(t + shifts): both substitutions act on disjoint data. Returns
    (channel, residual) pairs, channels 1-based.
    """
    q = frac(q)
    zero = spec.tau.zero_like()

    def shift(p):
        return q_shift_times(p, a_values, q)

    shifted = shift(spec.tau)
    out = []
    for beta in range(spec.n):
        first = _placed(1, (0, 0), zero, miwa_shift(shifted, beta))
        second = _placed(1, (0, 0), zero, miwa_shift(spec.tau, beta))
        out.append((beta + 1, first - second.map_entries(shift)))
    return out


def taylor_agreement(spec: TauSpec, a_values, q, l_max: int, lambdas) -> tuple:
    """The q pass: the q-bilinear residues and their Taylor cross-check.

    w is the Baker dressing at shift [Ax]_q, built and inverted once. With
    sigma the dilation x -> qx, L_lam the flow steps of `flows_applied`, H
    the flow factor L_lam(w) w**-1 and M := res_z(z**l L_lam(sigma(w)
    E_delta) w**-1), the q-bilinear residues are res_z(z**l H) (m = 0) and
    res_z(z**l (D_q H + (D H) G)) (m = 1), and for each (l, lambda):

    * two-term: x(q-1) * res_z(z**l (D_q H + (D H) G)) == M - res_z(z**l H)
    * Taylor:   M == sum over eta of Delta**eta / eta! * res_z(z**l H_(lam+eta))

    eta runs over the multisets of every flow (k, alpha) with k up to the
    x-order, in every channel: E_delta shifts all of them, whether or not
    tau carries their time. The Taylor side is res_z(z**l L_lam(T) w**-1),
    T the sum `taylor_sum` builds before the inverse. The halves share
    L_lam and w**-1; sigma(w) E_delta and the graded sum are independent.
    M is H'_lam sigma(w) E_delta w**-1 for the flow factor H' of the Baker
    sigma(w) at [Aqx]_q, because L_lam commutes with sigma and with right
    multiplication by the diagonal E_delta; so no second Baker is inverted.

    Both identities hold for any polynomial tau, bilinear or not; they
    certify the difference-quotient and Taylor machinery itself. Returns
    (q_bilinear, taylor): the q-bilinear residues as `bilinear_residues`
    labels and orders them, and ((l, lambda, half), residual) pairs, the
    "two_term" half first.

    Precondition: tau and its companions are constant in x. The shift
    amounts are monomials c_k x**k, so the Baker at [Aqx]_q is then the
    one at [Ax]_q with x -> qx.
    """
    q = frac(q)
    xorder = spec.tau.xorder
    shifted = spec.mapped(lambda p: q_shift_times(p, a_values, q))
    what = baker_from_tau(shifted.tau, shifted.companions, spec.n)
    # T_lam w**-1 is read at z**(-1-l), and T_lam reaches z**(xorder + w):
    # grade j of T reaches z**j and each flow of lam its order more. Every
    # other read of w**-1 stops above that.
    w = flow_reach(lambdas)
    winv = what.invert(-(1 + l_max + xorder + w))

    # the q-derivation and the dilation x -> qx, inside the time coefficients
    def derive_x(tp):
        return tp.map_coeffs(lambda s: q_derive(s, q))

    def dilate_x(tp):
        return tp.map_coeffs(lambda s: dilate(s, q))

    dilated_e = what.map_entries(dilate_x) * e_delta(a_values, q, what.proto)
    x_qm1 = XSeries.monomial(q - 1, 1, xorder)
    pre = taylor_sum(what, {
        (k, alpha): shift_difference(k, alpha, a_values, q, xorder)
        for k in range(1, xorder + 1) for alpha in range(spec.n)
    })
    # D(H) is read at z**-1-l_max..z**-1, and H's top degree is the flow
    # weight of lam: so g is read down to -1-l_max-w, and H down to
    # -1-l_max minus g's top
    g = x_factor_of(what, winv, a_values, derive_x, dilate_x, -1 - l_max - w)
    h_lo = -1 - l_max - max(g.top(), 0)
    q_bilinear = bilinear_residues(
        lambda lam: flow_factor(what, winv, lam, h_lo), g, derive_x, dilate_x,
        l_max, lambdas,
    )
    # per lam, the m = 0 residues for l = 0..l_max, then the m = 1 ones
    per_lam = 2 * (l_max + 1)
    out = []
    for i, lam in enumerate(lambdas):
        rows = [r for _, r in q_bilinear[i * per_lam:(i + 1) * per_lam]]
        m_lam = flows_applied(dilated_e, lam)
        pre_lam = flows_applied(pre, lam)
        for l in range(l_max + 1):
            plain, direct = rows[l], rows[l_max + 1 + l]
            mixed = m_lam.product_coeff(winv, -1 - l)
            lhs2 = direct.map(lambda tp: tp.scale_series(x_qm1))
            taylor = pre_lam.product_coeff(winv, -1 - l)
            out.append(((l, tuple(lam), "two_term"), lhs2 - (mixed - plain)))
            out.append(((l, tuple(lam), "taylor"), mixed - taylor))
    return q_bilinear, out


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
    for c in p.terms.values():
        total += Fraction(sum(map(abs, c.known)), c.den)
    return total


def verify_tau_theorem(spec: TauSpec, a_values, q, l_max: int, lambdas, expqo):
    """Full shift-theorem verification for one tau family.

    Order of business: the classical bilinear residues gate everything
    (the theorem's hypothesis); then the substitution-commutation and
    exponential-shift identities establish the Baker correspondence; the
    q pass's q-bilinear residues and Taylor cross-check close the claim.
    `expqo` is the exponential-shift stage: the (channel, residual) pairs
    of `verify_expqo` at these a and q, which depend on no tau family.
    Raises TauCheckError when the classical precheck rejects the input;
    otherwise returns the labelled residuals of the four stages in that
    order, each label tagged with its stage.
    """
    # the verdict rule lives in the report layer, which `import qakns` skips
    from .report import nonzero

    classical = classical_residues(spec, l_max, lambdas)
    bad = next(nonzero(classical), None)
    if bad is not None:
        raise TauCheckError(*bad)
    q_bilinear, taylor = taylor_agreement(spec, a_values, q, l_max, lambdas)
    stages = (
        ("substitution", substitution_commutes(spec, a_values, q)),
        ("expqo", expqo),
        ("q_bilinear", q_bilinear),
        ("taylor", taylor),
    )
    return [((tag, label), r) for tag, pairs in stages for label, r in pairs]

