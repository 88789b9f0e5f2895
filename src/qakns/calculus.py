"""q-difference calculus on truncated x-series, and its classical limit.

Two "difference structures" drive every solver in this package: the
q-structure (dilation x -> qx, the q-derivative, and its right inverse)
and the classical structure (identity dilation, d/dx, integration with
zero constant). Solvers written against the shared interface run under
either structure unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .scalars import AdmissibilityError, check_q, common_den, frac, q_factorial, q_int
from .series import XSeries


@lru_cache(maxsize=256)
def _power_weights(c: Fraction, order: int) -> tuple[tuple[int, ...], int]:
    """c**k for k = 0..order as integers over one denominator."""
    p, r = c.numerator, c.denominator
    return tuple(p**k * r ** (order - k) for k in range(order + 1)), r**order


@lru_cache(maxsize=256)
def _int_weights(q, order: int, inverse: bool) -> tuple[tuple[int, ...], int]:
    """[k] for k = 1..order (k itself when q is None), or their
    reciprocals, as integers over one denominator; index 0 holds 0."""
    ws = [q_int(k, q) if q is not None else Fraction(k) for k in range(1, order + 1)]
    if inverse:
        ws = [1 / w for w in ws]
    nums, den = common_den(ws)
    return (0,) + nums, den


def dilate(f: XSeries, c) -> XSeries:
    """Substitute x -> c*x: coefficient k picks up a factor c**k."""
    ws, den = _power_weights(frac(c), f.order)
    return XSeries.from_ints(list(map(mul, f.nums, ws)), f.den * den, f.valid, f.top)


def _derive(f: XSeries, q) -> XSeries:
    """Degree k of the result is [k+1] * f_(k+1) (classical when q is None);
    one order of loss."""
    ws, den = _int_weights(q, f.order, False)
    out = list(map(mul, f.nums[1:], ws[1:]))
    out.append(0)
    valid = f.valid if f.is_exact else f.valid - 1
    return XSeries.from_ints(out, f.den * den, valid, f.top - 1)


def _antiderive(g: XSeries, q) -> XSeries:
    """Right inverse of `_derive` with zero constant term."""
    n = g.order
    ws, den = _int_weights(q, n, True)
    out = [0]
    out += map(mul, g.nums[:n], ws[1:])
    if g.is_exact:
        # the antiderivative of x**n overflows the stored window
        valid = n + 1 if g.top + 1 <= n else n
    else:
        valid = g.valid + 1
    return XSeries.from_ints(out, g.den * den, valid, g.top + 1)


def q_derive(f: XSeries, q) -> XSeries:
    """q-difference quotient (f(qx) - f(x)) / (x(q-1)), as [k] * f_k."""
    return _derive(f, frac(q))


def q_derive_by_quotient(f: XSeries, q) -> XSeries:
    """The defining quotient evaluated literally; oracle for q_derive."""
    q = frac(q)
    num = dilate(f, q) - f
    return num.shift_down().scale(1 / (q - 1))


def q_antiderive(g: XSeries, q) -> XSeries:
    """Right inverse of the q-derivative with zero constant term."""
    return _antiderive(g, frac(q))


def x_derive(f: XSeries) -> XSeries:
    """Classical d/dx: the q-derivative's rule with k in place of [k]."""
    return _derive(f, None)


def x_antiderive(g: XSeries) -> XSeries:
    """Classical integration with zero constant."""
    return _antiderive(g, None)


def exp_q_series(c, q, order: int) -> XSeries:
    """Series of the q-exponential of c*x: coefficient k is c**k / [k]!."""
    q = frac(q)
    c = frac(c)
    check_q(q, order)
    out = []
    p = Fraction(1)
    for k in range(order + 1):
        fk = q_factorial(k, q)
        if fk == 0:
            raise AdmissibilityError(f"vanishing q-factorial at k={k}")
        out.append(p / fk)
        p *= c
    return XSeries(out, order)


def exp_series(args, order: int) -> XSeries:
    """Series of exp(sum of c_k x**k) for degrees k >= 1, truncated.

    `args` is an iterable of (degree, coefficient) pairs.
    """
    pairs = [(k, frac(c)) for k, c in args]
    arg = XSeries.zero(order)
    lost = None
    for k, c in pairs:
        if k < 1:
            raise ValueError("exponent argument must have positive degree")
        if k <= order:
            arg = arg + XSeries.monomial(c, k, order)
        elif c != 0:
            lost = k if lost is None else min(lost, k)
    out = XSeries.one(order)
    term = XSeries.one(order)
    for m in range(1, order + 1):
        term = (term * arg).scale(Fraction(1, m))
        out = out + term
    if lost is not None:
        out = out.with_valid(lost - 1)
    return out


class QCalc:
    """The q-difference structure at a fixed admissible parameter."""

    classical = False

    def __init__(self, q, order: int):
        self.q = check_q(frac(q), order)
        self.order = order

    def dilate(self, f: XSeries) -> XSeries:
        return dilate(f, self.q)

    def derive(self, f: XSeries) -> XSeries:
        return q_derive(f, self.q)

    def antiderive(self, g: XSeries) -> XSeries:
        return q_antiderive(g, self.q)

    def dilation_eig(self, m: int) -> Fraction:
        """Eigenvalue of the dilation on the monomial x**m."""
        return self.q**m

    def __repr__(self):
        return f"QCalc(q={self.q}, order={self.order})"


class ClassicalCalc:
    """The classical structure: identity dilation and d/dx."""

    classical = True

    def __init__(self, order: int):
        self.q = None
        self.order = order

    def dilate(self, f: XSeries) -> XSeries:
        return f

    def derive(self, f: XSeries) -> XSeries:
        return x_derive(f)

    def antiderive(self, g: XSeries) -> XSeries:
        return x_antiderive(g)

    def dilation_eig(self, m: int) -> Fraction:
        return Fraction(1)

    def __repr__(self):
        return f"ClassicalCalc(order={self.order})"
