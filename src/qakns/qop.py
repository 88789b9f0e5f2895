"""Finite-band q-(pseudo-)difference operators and the residue pairing.

An operator is a finite sum of powers of the basis derivation (the
q-derivative at dilation parameter `dparam`, or its 1/q counterpart for
adjoints) with matrix Laurent-series coefficients on the left. Composition
uses the q-Leibniz rule; negative powers expand term by term from the
inversion of that rule and are truncated at a caller-supplied band floor,
with `pvalid` recording the lowest exactly-known power.

The residue pairing of a pair (P, Q) against an invertible diagonal A is
computed on two routes:

* the z-series side, evaluating the eigenvalue symbols of P and of the
  shifted adjoint of Q against the q-exponential and extracting the z**-1
  coefficient -- this closed form is the package's ground truth;
* an operator-side residue, which reconciles with the z-series exactly
  only under a documented convention: compose P, A**-1, Q in the
  leading-symbol algebra (the dilation-twisted composition f.D**i o g.D**j
  = f.(D**i g).D**(i+j), dropping q-Leibniz corrections) after replacing
  the power-l coefficient g_l of Q by (-q)**l * g_l(q**l x). Under the
  full q-Leibniz composition no per-coefficient sign or argument twist
  reconciles the two sides: mismatched band sums produce derivative
  corrections at power -1 that the z-series side does not contain.
"""

from __future__ import annotations

from fractions import Fraction

from .calculus import dilate, q_derive
from .matseries import MatSeries
from .scalars import frac, q_int
from .series import XSeries
from .zseries import MZSeries, NEG_INF, product_floor


class BandError(ValueError):
    """Operator band violates an operation's requirements."""


def _dilate_mz(m: MZSeries, c) -> MZSeries:
    return m.map_entries(lambda s: dilate(s, c))


def _derive_mz(m: MZSeries, c) -> MZSeries:
    return m.map_entries(lambda s: q_derive(s, c))


class QDOp:
    """Sum of coefficient * D**power with the coefficients on the left."""

    __slots__ = ("n", "coeffs", "dparam", "pvalid")

    def __init__(self, n: int, coeffs: dict, dparam, pvalid=NEG_INF):
        self.n = n
        self.dparam = frac(dparam)
        kept = {}
        for p, m in coeffs.items():
            if m.n != n:
                raise ValueError("dimension mismatch")
            if p >= pvalid and not m.is_zero_exact():
                kept[p] = m
        self.coeffs = kept
        self.pvalid = pvalid

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_mz(m: MZSeries, dparam) -> "QDOp":
        """A multiplication operator (power zero)."""
        return QDOp(m.n, {0: m}, dparam)

    @staticmethod
    def basis_power(n: int, power: int, dparam, proto) -> "QDOp":
        """I * D**power."""
        return QDOp(n, {power: MZSeries.identity(n, proto)}, dparam)

    # -- structure --------------------------------------------------------

    def band(self) -> tuple[int, int] | None:
        if not self.coeffs:
            return None
        return min(self.coeffs), max(self.coeffs)

    def top(self) -> int | float:
        return max(self.coeffs) if self.coeffs else self.pvalid

    def coeff(self, p: int) -> MZSeries:
        got = self.coeffs.get(p)
        if got is not None:
            return got
        return MZSeries.zero(self.n, self._proto())

    def _proto(self):
        for m in self.coeffs.values():
            if m.proto is not None:
                return m.proto
        return None

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.coeffs.values())

    def first_nonzero(self):
        for p in sorted(self.coeffs):
            hit = self.coeffs[p].first_nonzero()
            if hit is not None:
                return (p,) + hit
        return None

    def map_coeffs(self, fn) -> "QDOp":
        return QDOp(
            self.n, {p: fn(m) for p, m in self.coeffs.items()}, self.dparam, self.pvalid
        )

    def _check(self, other: "QDOp"):
        if self.n != other.n or self.dparam != other.dparam:
            raise BandError("operators live in different basis algebras")

    # -- linear arithmetic ---------------------------------------------------

    def __add__(self, other: "QDOp") -> "QDOp":
        self._check(other)
        out = dict(self.coeffs)
        for p, m in other.coeffs.items():
            cur = out.get(p)
            out[p] = m if cur is None else cur + m
        return QDOp(self.n, out, self.dparam, max(self.pvalid, other.pvalid))

    def __sub__(self, other: "QDOp") -> "QDOp":
        return self + (-other)

    def __neg__(self) -> "QDOp":
        return self.map_coeffs(lambda m: -m)

    # -- composition ------------------------------------------------------------

    def _shift_through(self, m: MZSeries, power: int, floor) -> tuple[dict, bool]:
        """Normal form of D**power o m as ({power offset: coefficient}, lost).

        For power >= 0 this is the exact q-Leibniz expansion; for
        power < 0 the expansion of the inverted rule, truncated at the
        given offset floor. `lost` reports whether a nonzero tail was cut.
        """
        c = self.dparam
        out = {0: m}
        if power >= 0:
            for _ in range(power):
                nxt: dict[int, MZSeries] = {}
                for s, g in out.items():
                    up = _dilate_mz(g, c)
                    stay = _derive_mz(g, c)
                    cur = nxt.get(s + 1)
                    nxt[s + 1] = up if cur is None else cur + up
                    cur = nxt.get(s)
                    if not stay.is_zero_exact():
                        nxt[s] = stay if cur is None else cur + stay
                out = nxt
            return out, False
        # negative power: apply D**-1 o (.) repeatedly
        cinv = 1 / c
        lost = False
        for _ in range(-power):
            nxt = {}
            for s, g in out.items():
                term = _dilate_mz(g, cinv)
                shift = s - 1
                while True:
                    if shift < floor:
                        if not (term.is_zero() and term.is_exact):
                            lost = True
                        break
                    cur = nxt.get(shift)
                    nxt[shift] = term if cur is None else cur + term
                    term = -_dilate_mz(_derive_mz(term, c), cinv)
                    if term.is_zero_exact():
                        break
                    shift -= 1
            out = nxt
        return out, lost

    def compose(self, other: "QDOp", floor: int | None = None) -> "QDOp":
        """Operator product self o other, truncated at band floor."""
        self._check(other)
        if floor is None:
            bs, bo = self.band(), other.band()
            floor = min(0, (bs[0] if bs else 0) + (bo[0] if bo else 0))
        out: dict[int, MZSeries] = {}
        truncated = False
        for i, p in self.coeffs.items():
            for j, g in other.coeffs.items():
                expansion, lost = self._shift_through(g, i, floor - j)
                truncated = truncated or lost
                for s, coefmat in expansion.items():
                    power = s + j
                    if power < floor:
                        continue
                    term = p * coefmat
                    cur = out.get(power)
                    out[power] = term if cur is None else cur + term
        pv = product_floor(self.pvalid, self.top(), other.pvalid, other.top())
        if truncated:
            pv = max(pv, floor)
        return QDOp(self.n, out, self.dparam, pv)

    def apply(self, f: MZSeries) -> MZSeries:
        """Act on a function (matrix Laurent series); needs nonnegative band."""
        band = self.band()
        if band and band[0] < 0:
            raise BandError("negative powers do not act on functions")
        c = self.dparam
        acc: MZSeries | None = None
        for p, m in self.coeffs.items():
            g = f
            for _ in range(p):
                g = _derive_mz(g, c)
            term = m * g
            acc = term if acc is None else acc + term
        if acc is None:
            return MZSeries.zero(f.n, f.proto)
        return acc

    # -- adjoint and transforms ----------------------------------------------------

    def adjoint(self, floor: int | None = None) -> "QDOp":
        """Formal adjoint in the 1/q basis.

        (g D**j)* = (-1/q)**j D'**j o g^T with D' the derivation at the
        inverse dilation parameter; the transpose mirrors the trace
        pairing on matrix coefficients.
        """
        cinv = 1 / self.dparam
        proto = self._proto()
        acc: QDOp | None = None
        for j, g in self.coeffs.items():
            power = QDOp.basis_power(self.n, j, cinv, proto)
            mult = QDOp.from_mz(g.transpose(), cinv)
            term = power.compose(mult, floor).map_coeffs(
                lambda m, s=(-1 / self.dparam) ** j: m.scale(s)
            )
            acc = term if acc is None else acc + term
        if acc is None:
            return QDOp(self.n, {}, cinv, self.pvalid)
        return QDOp(acc.n, acc.coeffs, cinv, max(acc.pvalid, self.pvalid))

    def shift_x_over_q(self) -> "QDOp":
        """The |_(x/q) transform: power j picks up q**j and dilates by 1/q."""
        c = self.dparam
        out = {
            j: _dilate_mz(m, 1 / c).scale(c**j) for j, m in self.coeffs.items()
        }
        return QDOp(self.n, out, c, self.pvalid)

    def __repr__(self):
        if not self.coeffs:
            return "QDOp(0)"
        parts = [f"[{m!r}]*D^{p}" for p, m in sorted(self.coeffs.items())]
        return " + ".join(parts) + f" @c={self.dparam}"


def q_commutator(a, b, floor: int | None = None) -> QDOp:
    """[a, b]_q = (D a) o b - b o a with D acting on a's coefficients."""
    if isinstance(a, MZSeries):
        dparam = b.dparam if isinstance(b, QDOp) else None
        a = QDOp.from_mz(a, dparam)
    if isinstance(b, MZSeries):
        b = QDOp.from_mz(b, a.dparam)
    a._check(b)
    da = a.map_coeffs(lambda m: _dilate_mz(m, a.dparam))
    return da.compose(b, floor) - b.compose(a, floor)


# -- the residue pairing -------------------------------------------------------


def _band_mats(p: QDOp) -> dict[int, MatSeries]:
    out = {}
    for power, m in p.coeffs.items():
        if set(m.terms) - {0}:
            raise BandError("pairing expects z-independent coefficients")
        if 0 in m.terms:
            out[power] = m.terms[0]
    return out


def _pairing_operands(p: QDOp, q_op: QDOp):
    """The band matrices of P and Q and the x-order their coefficients fix."""
    proto = p._proto() or q_op._proto()
    if proto is None:
        raise BandError(
            "pairing of zero operators: no coefficient fixes the x-order"
        )
    return _band_mats(p), _band_mats(q_op), proto.order


def pairing_lhs(p: QDOp, q_op: QDOp, a_values) -> MatSeries:
    """z-residue of the eigenvalue-symbol product (the ground-truth side).

    Equals sum over k+l = -1 of (-q)**l * p_k * A**-1 * g_l(x/q).
    """
    q = p.dparam
    pk, gl, order = _pairing_operands(p, q_op)
    a_inv = [1 / frac(a) for a in a_values]
    acc = None
    for k, pm in pk.items():
        l = -1 - k
        gm = gl.get(l)
        if gm is None:
            continue
        ainv = MatSeries.diag_const(a_inv, pm.proto())
        shifted = gm.map(lambda s: dilate(s, 1 / q))
        term = (pm @ ainv @ shifted).scale((-q) ** l)
        acc = term if acc is None else acc + term
    if acc is None:
        return MatSeries.zero(p.n, XSeries.zero(order))
    return acc


def symbol_compose(dparam, *ops: dict) -> dict:
    """Leading-symbol product of {power: MatSeries} operands.

    Coefficients pass through powers by pure dilation, with no q-Leibniz
    correction terms: (f D**i) o (g D**j) = f * (D**i g) * D**(i+j).
    """
    acc = None
    for op in ops:
        if acc is None:
            acc = dict(op)
            continue
        nxt: dict[int, MatSeries] = {}
        for i, f in acc.items():
            for j, g in op.items():
                shifted = g.map(lambda s: dilate(s, dparam**i))
                term = f @ shifted
                cur = nxt.get(i + j)
                nxt[i + j] = term if cur is None else cur + term
        acc = nxt
    return acc or {}


def pairing_rhs(p: QDOp, q_op: QDOp, a_values) -> MatSeries:
    """Operator-side residue under the documented composition convention.

    The chain P o A**-1 o Q is composed in the leading-symbol algebra
    after the twist g_l -> (-q)**l * g_l(q**l x) on Q's coefficients; the
    result is the D**-1 coefficient of that product. See the module
    docstring for why the full q-Leibniz composition cannot be used.
    """
    q = p.dparam
    pk, gl, order = _pairing_operands(p, q_op)
    a_inv = [1 / frac(a) for a in a_values]
    ainv = {0: MatSeries.diag_const(a_inv, XSeries.zero(order))}
    q_twisted = {
        l: g.map(lambda s, ll=l: dilate(s, q**ll)).scale((-q) ** l)
        for l, g in gl.items()
    }
    chain = symbol_compose(q, pk, ainv, q_twisted)
    got = chain.get(-1)
    if got is None:
        return MatSeries.zero(p.n, XSeries.zero(order))
    return got


# z-degrees past the x truncation that `exp_q_laurent` stores as inexact zeros
EXP_GUARD = 4


def exp_q_laurent(a_values, q, order: int, sign: int = +1) -> MZSeries:
    """exp_q(z A x) (sign=+1) or exp_1/q(-z A x) (sign=-1) as a z-series.

    The z**j coefficient is the diagonal matrix ((sign*a_i)**j / [j]!) x**j.
    Degrees just past the x truncation vanish inside the stored window but
    carry hidden tails, so `EXP_GUARD` of them are stored as inexact zeros:
    derivations then lose validity there instead of silently claiming
    exactness. The sign=-1 variant uses the factorials at parameter 1/q.
    """
    base = frac(q) if sign > 0 else 1 / frac(q)
    n = len(a_values)
    avals = [frac(a) for a in a_values]
    terms = {}
    fj = Fraction(1)
    for j in range(order + 1):
        if j:
            fj *= q_int(j, base)  # [j]! as a running product
        entries = []
        for i in range(n):
            row = []
            for k in range(n):
                if i == k:
                    row.append(XSeries.monomial((sign * avals[i]) ** j / fj, j, order))
                else:
                    row.append(XSeries.zero(order))
            entries.append(row)
        terms[j] = MatSeries(entries)
    hidden = XSeries.zero(order).with_valid(order)
    for j in range(order + 1, order + EXP_GUARD + 1):
        terms[j] = MatSeries(
            [[hidden if i == k else XSeries.zero(order) for k in range(n)]
             for i in range(n)]
        )
    return MZSeries(n, terms)


def oracle_factors(a_values, q, order: int) -> tuple[MZSeries, MZSeries]:
    """exp_q(zAx) and exp_1/q(-zAx), the two factors `pairing_oracle` expands."""
    return (exp_q_laurent(a_values, q, order, +1),
            exp_q_laurent(a_values, q, order, -1))


def pairing_oracle(p: QDOp, q_op: QDOp, a_values, factors=None) -> MatSeries:
    """Brute-force z-expansion of the pairing's left side.

    Builds the q-exponential factors as honest Laurent series, applies P
    by repeated q-derivation (nonnegative powers) or by the verified
    eigenvalue extension (negative powers), assembles the shifted adjoint
    factor of Q, and sums the z-products of the two factors that land on
    the residue.
    Independent of the closed-form symbol sum in pairing_lhs.
    A caller pairing many operators at one a, q and x-order passes the
    `oracle_factors` it built once as `factors`.
    """
    q = p.dparam
    pk, gl, order = _pairing_operands(p, q_op)
    n = p.n
    splus, sminus = factors or oracle_factors(a_values, q, order)
    if splus.proto.order != order:
        raise ValueError("oracle factors built at another x-order")
    za = [frac(a) for a in a_values]

    def za_power(k: int) -> MZSeries:
        return MZSeries.from_term(
            n, k, MatSeries.diag_const([a**k for a in za], splus.proto)
        )

    # P acting on exp_q(zAx)
    left: MZSeries | None = None
    for k, pm in pk.items():
        if k >= 0:
            g = splus
            for _ in range(k):
                g = _derive_mz(g, q)
        else:
            g = za_power(k) * splus
        term = MZSeries.from_term(n, 0, pm) * g
        left = term if left is None else left + term
    # the shifted adjoint factor of Q acting leftward on exp_1/q(-zAx)
    right: MZSeries | None = None
    for l, gm in gl.items():
        eig = za_power(l).scale(Fraction(-1) ** l)
        shifted = MZSeries.from_term(
            n, 0, gm.map(lambda s: dilate(s, 1 / q))
        ).scale(q**l)
        term = (eig * sminus) * shifted
        right = term if right is None else right + term
    if left is None or right is None:
        return MatSeries.zero(n, splus.proto)
    return left.product_coeff(right, -1)
