"""Finite-band q-(pseudo-)difference operators and the residue pairing.

An operator is a finite sum of powers of the q-derivative D at dilation
parameter `dparam`, with matrix Laurent-series coefficients on the left.
The pairing routes read only its band coefficients. Composition uses the
q-Leibniz rule; negative powers expand term by term from the inversion of
that rule and are truncated at a caller-supplied band floor, with
`pvalid` recording the lowest exactly-known power. `compose` and
`q_commutator` are the reference that the tests check
`hierarchy.commutation_residual` against.

The residue pairing of a pair (P, Q) against an invertible diagonal A is
computed on three routes, each forming only the products that reach the
residue:

* `pairing_lhs`, the closed symbol sum over the powers k + l = -1, one
  `MatSeries.dot` with A**-1 and the sign folded into p_k's columns --
  this closed form is the package's ground truth;
* `pairing_rhs`, an operator-side residue, which reconciles with the
  z-series exactly only under a documented convention: the D**-1
  coefficient of P o A**-1 o Q in the leading-symbol algebra (the
  dilation-twisted composition f.D**i o g.D**j = f.(D**i g).D**(i+j),
  dropping q-Leibniz corrections) after replacing the power-l coefficient
  g_l of Q by (-q)**l * g_l(q**l x). It forms the same (k, l) pairs as
  `pairing_lhs`, so it is not an independent route. Under the full
  q-Leibniz composition no per-coefficient sign or argument twist
  reconciles the two sides: mismatched band sums produce derivative
  corrections at power -1 that the z-series side does not contain;
* `pairing_oracle`, the brute-force z-expansion of both exponential
  factors up to the degrees that pair onto z**-1, each factor summed once
  per z-degree, and the z**-1 coefficient of their product.

All three reject operands that differ in size or dilation parameter, or
an A of another size, before any product is formed.
"""

from __future__ import annotations

from fractions import Fraction

from .calculus import dilate, exp_q_series, q_derive
from .matseries import MatSeries
from .scalars import frac
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

    def __repr__(self):
        if not self.coeffs:
            return "QDOp(0)"
        parts = [f"[{m!r}]*D^{p}" for p, m in sorted(self.coeffs.items())]
        return " + ".join(parts) + f" @c={self.dparam}"


def q_commutator(a, b, floor: int | None = None) -> QDOp:
    """[a, b]_q = (D a) o b - b o a with D acting on a's coefficients.

    Either operand may be a multiplication by an MZSeries; the other one
    then fixes the dilation parameter.
    """
    if isinstance(a, MZSeries) and isinstance(b, MZSeries):
        raise BandError(
            "q_commutator of two MZSeries: neither operand fixes the "
            "dilation parameter"
        )
    if isinstance(a, MZSeries):
        a = QDOp.from_mz(a, b.dparam)
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


def _pairing_operands(p: QDOp, q_op: QDOp, a_values):
    """The band matrices of P and Q and the x-order their coefficients fix.

    P, Q and A must share one size and P, Q one dilation parameter; a
    mismatch raises ValueError naming the field, even when no pair of
    powers reaches the residue.
    """
    if p.n != q_op.n:
        raise ValueError(f"paired operators differ in n: {p.n} vs {q_op.n}")
    if p.dparam != q_op.dparam:
        raise ValueError(
            f"paired operators differ in dparam: {p.dparam} vs {q_op.dparam}"
        )
    if len(a_values) != p.n:
        raise ValueError(f"a_values has {len(a_values)} entries, not n = {p.n}")
    proto = p._proto() or q_op._proto()
    if proto is None:
        raise BandError(
            "pairing of zero operators: no coefficient fixes the x-order"
        )
    return _band_mats(p), _band_mats(q_op), proto.order


def pairing_lhs(p: QDOp, q_op: QDOp, a_values) -> MatSeries:
    """z-residue of the eigenvalue-symbol product (the ground-truth side).

    Equals sum over k+l = -1 of (-q)**l * p_k * A**-1 * g_l(x/q). A**-1
    and (-q)**l scale the columns of p_k, and the sum is one
    `MatSeries.dot` over every pair.
    """
    q = p.dparam
    pk, gl, order = _pairing_operands(p, q_op, a_values)
    a_inv = [1 / frac(a) for a in a_values]
    qinv = 1 / q
    blocks = []
    for k, pm in pk.items():
        l = -1 - k
        gm = gl.get(l)
        if gm is None:
            continue
        col = [c * (-q) ** l for c in a_inv]
        scaled = MatSeries._of(tuple(
            tuple(e.scale(c) for e, c in zip(row, col)) for row in pm.rows
        ))
        blocks.append((scaled, gm.map(lambda s: dilate(s, qinv))))
    if not blocks:
        return MatSeries.zero(p.n, XSeries.zero(order))
    return MatSeries.dot(blocks)


def pairing_rhs(p: QDOp, q_op: QDOp, a_values) -> MatSeries:
    """Operator-side residue under the documented composition convention.

    The D**-1 coefficient of P o A**-1 o Q in the leading-symbol algebra,
    after the twist g_l -> (-q)**l * g_l(q**l x) on Q's coefficients. For
    each power k, P o A**-1 is the one product p_k @ A**-1, and the
    twisted coefficient of l = -1 - k passes through D**k by dilation;
    every pair goes into one `MatSeries.dot`. Those are the (k, l) products
    that `pairing_lhs` sums, so this route agrees with it by construction.
    See the module docstring for why the full q-Leibniz composition
    cannot be used.
    """
    q = p.dparam
    pk, gl, order = _pairing_operands(p, q_op, a_values)
    ainv = MatSeries.diag_const([1 / frac(a) for a in a_values],
                                XSeries.zero(order))
    blocks = []
    for k, pm in pk.items():
        l = -1 - k
        gm = gl.get(l)
        if gm is None:
            continue
        twisted = gm.map(lambda s: dilate(s, q**l)).scale((-q) ** l)
        blocks.append((pm @ ainv, twisted.map(lambda s: dilate(s, q**k))))
    if not blocks:
        return MatSeries.zero(p.n, XSeries.zero(order))
    return MatSeries.dot(blocks)


# z-degrees past the x truncation that `exp_q_laurent` stores as inexact zeros
EXP_GUARD = 4


def exp_q_laurent(a_values, q, order: int, sign: int = +1) -> MZSeries:
    """exp_q(z A x) (sign=+1) or exp_1/q(-z A x) (sign=-1) as a z-series.

    The z**j coefficient is the diagonal matrix ((sign*a_i)**j / [j]!) x**j,
    read off `exp_q_series`, with the factorials at parameter 1/q for
    sign=-1. Degrees just past the x truncation vanish inside the stored
    window but carry hidden tails, so `EXP_GUARD` of them are stored as
    inexact zeros: derivations then lose validity there instead of
    silently claiming exactness.
    """
    base = frac(q) if sign > 0 else 1 / frac(q)
    proto = XSeries.zero(order)
    series = [exp_q_series(sign * frac(a), base, order).coeffs for a in a_values]
    terms = {
        j: MatSeries.diag([XSeries.monomial(e[j], j, order) for e in series], proto)
        for j in range(order + 1)
    }
    hidden = [proto.with_valid(order)] * len(a_values)
    for j in range(order + 1, order + EXP_GUARD + 1):
        terms[j] = MatSeries.diag(hidden, proto)
    return MZSeries(len(a_values), terms)


def oracle_factors(a_values, q, order: int) -> tuple[MZSeries, MZSeries]:
    """exp_q(zAx) and exp_1/q(-zAx), the two factors `pairing_oracle` expands."""
    return (exp_q_laurent(a_values, q, order, +1),
            exp_q_laurent(a_values, q, order, -1))


def _sum_by_degree(n: int, proto, parts) -> MZSeries:
    """The sum of z-series parts, each z-degree one `MatSeries.dot`.

    A part is (series, block): block(m) is the (A, B) pair that the
    series' coefficient m contributes at its degree. The floor is the
    largest of the parts' floors, as a chain of `+` gives it, and no
    degree below it is formed.
    """
    zv = max((s.zvalid for s, _ in parts), default=NEG_INF)
    by_degree: dict[int, list] = {}
    for s, block in parts:
        for d, m in s.terms.items():
            if d >= zv:
                by_degree.setdefault(d, []).append(block(m))
    return MZSeries(
        n, {d: MatSeries.dot(b) for d, b in by_degree.items()}, zv, proto
    )


def pairing_oracle(p: QDOp, q_op: QDOp, a_values, factors=None) -> MatSeries:
    """Brute-force z-expansion of the pairing's left side.

    Builds the q-exponential factors as honest Laurent series, applies P
    by repeated q-derivation (nonnegative powers) or by the verified
    eigenvalue extension (negative powers), assembles the shifted adjoint
    factor of Q, and sums the z-products of the two factors that land on
    the residue.
    Independent of the closed-form symbol sum in pairing_lhs.

    Only the degrees that pair onto z**-1 are built. The left factor
    sum_k p_k D**k exp_q(zAx) starts at degree min(0, min k) and the right
    factor sum_l (-zA)**l exp_1/q(-zAx) q**l g_l(x/q) at degree min l, so
    the residue reads the left one up to hi_left = -1 - min l and the
    right one up to hi_right = -1 - min(0, min k). Every operation on the
    way acts degree by degree, so each degree built is the one the whole
    expansion would hold. Each factor sums its parts once per z-degree,
    in one `MatSeries.dot` over the k (or l) that reach it.
    A caller pairing many operators at one a, q and x-order passes the
    `oracle_factors` it built once as `factors`.
    """
    q = p.dparam
    pk, gl, order = _pairing_operands(p, q_op, a_values)
    n = p.n
    splus, sminus = factors or oracle_factors(a_values, q, order)
    if splus.proto.order != order:
        raise ValueError("oracle factors built at another x-order")
    if not pk or not gl:
        return MatSeries.zero(n, splus.proto)
    hi_left = -1 - min(gl)
    hi_right = -1 - min(0, min(pk))
    za = [frac(a) for a in a_values]

    def za_power(k: int) -> MZSeries:
        return MZSeries.from_term(
            n, k, MatSeries.diag_const([a**k for a in za], splus.proto)
        )

    # P acting on exp_q(zAx); the q-derivations act degree by degree
    splus_low = MZSeries(
        n, {d: m for d, m in splus.terms.items() if d <= hi_left},
        splus.zvalid, splus.proto,
    )
    left_parts = []
    for k, pm in pk.items():
        if k >= 0:
            g = splus_low
            for _ in range(k):
                g = _derive_mz(g, q)
        else:
            g = za_power(k).product(splus, hi=hi_left)
        left_parts.append((g, lambda m, pm=pm: (pm, m)))
    left = _sum_by_degree(n, splus.proto, left_parts)
    # the shifted adjoint factor of Q acting leftward on exp_1/q(-zAx)
    right_parts = []
    for l, gm in gl.items():
        eig = za_power(l).scale(Fraction(-1) ** l)
        shifted = gm.map(lambda s: dilate(s, 1 / q)).scale(q**l)
        right_parts.append((eig.product(sminus, hi=hi_right),
                            lambda m, shifted=shifted: (m, shifted)))
    right = _sum_by_degree(n, splus.proto, right_parts)
    return left.product_coeff(right, -1)
