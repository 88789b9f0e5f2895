"""The residue pairing of two q-(pseudo-)difference operators.

An operator P = sum_k p_k D**k, D the q-derivative, enters the pairing
against an invertible diagonal A only through its z-free band matrices
p_k, so each route takes them as maps {power: MatSeries}, p for P and g
for Q, together with the one q of both. The pairing is computed on three
routes, each forming only the products that reach the residue. The
pairing checks compare the first and the third; no check calls the
second:

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
from .zseries import MZSeries


class BandError(ValueError):
    """Operator band violates an operation's requirements."""


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


def exp_q_laurent(a_values, q, order: int, sign: int = +1,
                  top: int | None = None) -> MZSeries:
    """exp_q(z A x) (sign=+1) or exp_1/q(-z A x) (sign=-1) as a z-series.

    The z**j coefficient is the diagonal matrix ((sign*a_i)**j / [j]!) x**j,
    read off `exp_q_series`, with the factorials at parameter 1/q for
    sign=-1. Degrees just past the x truncation vanish inside the stored
    window but carry hidden tails, so `EXP_GUARD` of them are stored as
    inexact zeros: derivations then lose validity there instead of
    silently claiming exactness. `top`, when given, keeps the degrees
    j <= top only, each the one the whole expansion holds; the caller
    must read no degree above it, where the result stores nothing.
    """
    base = frac(q) if sign > 0 else 1 / frac(q)
    proto = XSeries.zero(order)
    last = order + EXP_GUARD if top is None else min(top, order + EXP_GUARD)
    series = [exp_q_series(sign * frac(a), base, order).coeffs for a in a_values]
    terms = {
        j: MatSeries.diag([XSeries.monomial(e[j], j, order) for e in series], proto)
        for j in range(min(last, order) + 1)
    }
    hidden = [proto.with_valid(order)] * len(a_values)
    for j in range(order + 1, last + 1):
        terms[j] = MatSeries.diag(hidden, proto)
    return MZSeries(len(a_values), terms, proto=proto)


class OracleKernel:
    """The pairing oracle's operator-independent part at one a, q and x-order.

    The oracle's residue is bilinear in P's band matrices p_k and Q's g_l:
    res = sum over (k, l) of p_k C(k, l) q**l g_l(x/q), where C(k, l) is
    the z**-1 coefficient of L_k R_l, with L_k = D**k exp_q(zAx) for
    k >= 0 (honest q-derivations), (zA)**k exp_q(zAx) for k < 0, and
    R_l = (-zA)**l exp_1/q(-zAx). R_l starts at degree l and L_k at
    min(0, k), so C(k, l) reads L_k up to -1 - l and R_l up to
    -1 - min(0, k), and builds them only that far; both read the
    exponentials up to degree -1 - l - min(0, k). `floor` is the lowest
    power of D in either band, so both exponentials are expanded once per
    kernel, through the degree -1 - floor - min(0, floor) that the band
    reads and no further, and each C(k, l) on first use. A power below
    the floor would read past that cut, and raises BandError. Every
    operation acts degree by degree, so each degree built, guard degrees
    included, is the one the whole expansion holds; C is diagonal, so it
    commutes with the diagonal factors it sums.
    """

    def __init__(self, a_values, q, order: int, floor: int):
        self.a = [frac(a) for a in a_values]
        self.q = frac(q)
        self.order = order
        self.floor = floor
        top = -1 - floor - min(0, floor)
        self.splus = exp_q_laurent(a_values, q, order, +1, top)
        self.sminus = exp_q_laurent(a_values, q, order, -1, top)
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
            got = got.map_entries(lambda e: q_derive(e, self.q))
        return got

    def _residue(self, k: int, l: int) -> MatSeries:
        right = self._za_power(l, -1).product(self.sminus, hi=-1 - min(0, k))
        return self._left(k, -1 - l).product_coeff(right, -1)

    def coeff(self, k: int, l: int) -> MatSeries:
        """C(k, l) = res_z(L_k R_l), built on first use."""
        got = self._c.get((k, l))
        if got is None:
            if min(k, l) < self.floor:
                raise BandError(f"C({k}, {l}) reads past the exponentials of a "
                                f"kernel built for the band floor {self.floor}")
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
    one a, q and x-order passes the kernel it built once, for a floor at
    or below every power of both bands.
    """
    q = frac(q)
    n, order = _band_size(p, g, a_values)
    kernel = kernel or OracleKernel(a_values, q, order, min((*p, *g)))
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
