"""Finite-band q-(pseudo-)difference operators and the residue pairing.

An operator is a finite sum of powers of the q-derivative D at dilation
parameter `dparam`, with matrix Laurent-series coefficients on the left.
Composition uses the q-Leibniz rule; negative powers expand term by term
from the inversion of that rule and are truncated at a caller-supplied
band floor, with `pvalid` recording the lowest exactly-known power.
`compose` and `q_commutator` are the reference that the tests check
`hierarchy.commutation_residual` against.

The residue pairing of a pair (P, Q) against an invertible diagonal A
reads only the z-free band coefficients of P and Q, so each route takes
them as maps {power: MatSeries}, p for P and g for Q, together with the
one q of both. It is computed on three routes, each forming only the
products that reach the residue. The pairing checks compare the first
and the third; no check calls the second:

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
  factors. The residue is bilinear in the band matrices, so it splits into
  an operator-independent `OracleKernel` C(k, l), the z**-1 coefficient of
  the two exponential factors of one power pair, expanded once per run,
  and a per-pair contraction sum_k p_k (sum_l C(k, l) q**l g_l(x/q)) over
  every band pair (k, l). Where no pair has k + l = -1, `pairing_lhs`
  forms no product, and the oracle still forms every pair.

All three reject bands that differ in size, or an A of another size,
before any product is formed, and two empty bands, which fix no x-order.
"""

from __future__ import annotations

from .calculus import dilate, exp_q_series, q_derive
from .matseries import MatSeries
from .scalars import frac
from .series import XSeries
from .window import NEG_INF, add_terms, lower_terms, product_floor
from .zseries import MZSeries


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
        if any(m.n != n for m in coeffs.values()):
            raise ValueError("dimension mismatch")
        self.coeffs = lower_terms(coeffs, pvalid)
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
        out = add_terms(self.coeffs, other.coeffs)
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


def _band_size(p: dict, g: dict, a_values) -> tuple[int, int]:
    """The size and the x-order that the band matrices of P and Q fix.

    Both bands and A must share one size; a mismatch raises ValueError
    naming the field, even when no pair of powers reaches the residue.
    """
    mats = [*p.values(), *g.values()]
    if not mats:
        raise BandError("pairing of empty bands: no coefficient fixes the x-order")
    sizes = sorted({m.n for m in mats})
    if len(sizes) > 1:
        raise ValueError(f"paired bands differ in n: {sizes[0]} vs {sizes[-1]}")
    n = sizes[0]
    if len(a_values) != n:
        raise ValueError(f"a_values has {len(a_values)} entries, not n = {n}")
    return n, mats[0].proto().order


def pairing_lhs(p: dict, g: dict, a_values, q) -> MatSeries:
    """z-residue of the eigenvalue-symbol product (the ground-truth side).

    Equals sum over k+l = -1 of (-q)**l * p_k * A**-1 * g_l(x/q). A**-1
    and (-q)**l scale the columns of p_k, and the sum is one
    `MatSeries.dot` over every pair.
    """
    q = frac(q)
    n, order = _band_size(p, g, a_values)
    a_inv = [1 / frac(a) for a in a_values]
    qinv = 1 / q
    blocks = []
    for k, pm in p.items():
        l = -1 - k
        gm = g.get(l)
        if gm is None:
            continue
        col = [c * (-q) ** l for c in a_inv]
        scaled = MatSeries._of(tuple(
            tuple(e.scale(c) for e, c in zip(row, col)) for row in pm.rows
        ))
        blocks.append((scaled, gm.map(lambda s: dilate(s, qinv))))
    if not blocks:
        return MatSeries.zero(n, XSeries.zero(order))
    return MatSeries.dot(blocks)


def pairing_rhs(p: dict, g: dict, a_values, q) -> MatSeries:
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
    q = frac(q)
    n, order = _band_size(p, g, a_values)
    ainv = MatSeries.diag_const([1 / frac(a) for a in a_values],
                                XSeries.zero(order))
    blocks = []
    for k, pm in p.items():
        l = -1 - k
        gm = g.get(l)
        if gm is None:
            continue
        twisted = gm.map(lambda s: dilate(s, q**l)).scale((-q) ** l)
        blocks.append((pm @ ainv, twisted.map(lambda s: dilate(s, q**k))))
    if not blocks:
        return MatSeries.zero(n, XSeries.zero(order))
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


class OracleKernel:
    """The pairing oracle's operator-independent part at one a, q and x-order.

    The oracle's residue is bilinear in P's band matrices p_k and Q's g_l:
    res = sum over (k, l) of p_k C(k, l) q**l g_l(x/q), where C(k, l) is
    the z**-1 coefficient of L_k R_l, with L_k = D**k exp_q(zAx) for
    k >= 0 (honest q-derivations), (zA)**k exp_q(zAx) for k < 0, and
    R_l = (-zA)**l exp_1/q(-zAx). R_l starts at degree l and L_k at
    min(0, k), so C(k, l) reads L_k up to -1 - l and R_l up to
    -1 - min(0, k), and builds them only that far. Both exponentials are
    expanded once per kernel, and each C(k, l) on first use. Every
    operation acts degree by degree, so each degree built, guard degrees
    included, is the one the whole expansion holds; C is diagonal, so it
    commutes with the diagonal factors it sums.
    """

    def __init__(self, a_values, q, order: int):
        self.a = [frac(a) for a in a_values]
        self.q = frac(q)
        self.order = order
        self.splus = exp_q_laurent(a_values, q, order, +1)
        self.sminus = exp_q_laurent(a_values, q, order, -1)
        self._c: dict[tuple[int, int], MatSeries] = {}

    def _za_power(self, k: int, sign: int) -> MZSeries:
        return MZSeries.from_term(len(self.a), k, MatSeries.diag_const(
            [(sign * a) ** k for a in self.a], self.splus.proto))

    def _left(self, k: int, hi: int) -> MZSeries:
        """L_k up to degree hi; the q-derivations act degree by degree."""
        if k < 0:
            return self._za_power(k, 1).product(self.splus, hi=hi)
        s = self.splus
        got = MZSeries(s.n, {d: m for d, m in s.terms.items() if d <= hi},
                       s.zvalid, s.proto)
        for _ in range(k):
            got = _derive_mz(got, self.q)
        return got

    def _residue(self, k: int, l: int) -> MatSeries:
        right = self._za_power(l, -1).product(self.sminus, hi=-1 - min(0, k))
        return self._left(k, -1 - l).product_coeff(right, -1)

    def coeff(self, k: int, l: int) -> MatSeries:
        """C(k, l) = res_z(L_k R_l), built on first use."""
        got = self._c.get((k, l))
        if got is None:
            got = self._c[(k, l)] = self._residue(k, l)
        return got


def pairing_oracle(p: dict, g: dict, a_values, q, kernel=None) -> MatSeries:
    """Brute-force z-expansion of the pairing's left side.

    The residue of (sum_k p_k D**k exp_q(zAx)) times
    (sum_l (-zA)**l exp_1/q(-zAx) q**l g_l(x/q)), contracted through the
    `OracleKernel`: sum_k p_k (sum_l C(k, l) s_l) with s_l = q**l g_l(x/q),
    each sum one `MatSeries.dot`. Every band pair (k, l) enters, not only
    k + l = -1, so the kernel's vanishing off that line is exercised.
    Independent of the closed-form symbol sum in pairing_lhs: the two
    share only the dilation of g_l. A caller pairing many operators at
    one a, q and x-order passes the kernel it built once.
    """
    q = frac(q)
    n, order = _band_size(p, g, a_values)
    kernel = kernel or OracleKernel(a_values, q, order)
    if (kernel.a, kernel.q, kernel.order) != ([frac(a) for a in a_values], q, order):
        raise ValueError("oracle kernel built at another a, q or x-order")
    if not p or not g:
        return MatSeries.zero(n, kernel.splus.proto)
    shifted = {l: gm.map(lambda s: dilate(s, 1 / q)).scale(q**l)
               for l, gm in g.items()}
    return MatSeries.dot([
        (pm, MatSeries.dot([(kernel.coeff(k, l), s) for l, s in shifted.items()]))
        for k, pm in p.items()
    ])
