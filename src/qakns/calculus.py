"""q-difference calculus on truncated x-series, and its classical point.

The q-structure at a parameter q is three operations: the dilation
x -> qx (`dilate`), the q-derivative (`q_derive`) and its right inverse
with zero constant (`q_antiderive`). At q = 1 the same functions are the
classical structure: the dilation is the identity, [k] = k, so the
derivative is d/dx and the right inverse is integration. Solvers take q
from their `LaxData` and run under either structure unchanged.

Each operation has one body; `x_derive` and `x_antiderive` are the two
at q = 1. Their weights, q**k and [k], are cached by the integer
numerator and denominator of q, so a call hashes no `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .scalars import ONE, check_q, common_den, frac, q_int
from .series import XSeries
from .window import upper_shift


@lru_cache(maxsize=256)
def _power_weights(p: int, r: int, order: int) -> tuple[tuple[int, ...], int]:
    """(p/r)**k for k = 0..order as integers over one denominator."""
    return tuple(p**k * r ** (order - k) for k in range(order + 1)), r**order


@lru_cache(maxsize=256)
def _int_weights(p: int, r: int, order: int,
                 inverse: bool) -> tuple[tuple[int, ...], int]:
    """[k] at q = p/r for k = 1..order, or their reciprocals, as integers
    over one denominator; index 0 holds 0."""
    q = Fraction(p, r)
    ws = [q_int(k, q) for k in range(1, order + 1)]
    if inverse:
        ws = [1 / w for w in ws]
    nums, den = common_den(ws)
    return (0,) + nums, den


def dilate(f: XSeries, c) -> XSeries:
    """Substitute x -> c*x: coefficient k picks up a factor c**k.

    At c = 1 this is the identity, and so it is on a constant (the zero
    series included); carriers are immutable, so `f` itself is returned.
    """
    if f.top <= 0:
        return f
    c = frac(c)
    p, r = c.numerator, c.denominator
    if p == r:
        return f
    ws, den = _power_weights(p, r, f.order)
    return XSeries.from_ints(list(map(mul, f.nums, ws)), f.den * den, f.valid, f.top)


def q_derive(f: XSeries, q) -> XSeries:
    """q-difference quotient (f(qx) - f(x)) / (x(q-1)), as [k] * f_k.

    Degree k of the result is [k+1] * f_(k+1); one order of loss.
    """
    q = frac(q)
    ws, den = _int_weights(q.numerator, q.denominator, f.order, False)
    out = list(map(mul, f.nums[1:], ws[1:]))
    out.append(0)
    valid = upper_shift(f.order, f.valid, f.top, -1)
    return XSeries.from_ints(out, f.den * den, valid, f.top - 1)


def q_antiderive(g: XSeries, q) -> XSeries:
    """Right inverse of the q-derivative with zero constant term."""
    q = frac(q)
    n = g.order
    ws, den = _int_weights(q.numerator, q.denominator, n, True)
    out = [0]
    out += map(mul, g.nums[:n], ws[1:])
    valid = upper_shift(n, g.valid, g.top, 1)  # x**n overflows the window
    return XSeries.from_ints(out, g.den * den, valid, g.top + 1)


def x_derive(f: XSeries) -> XSeries:
    """Classical d/dx: the q-derivative at q = 1, where [k] = k."""
    return q_derive(f, ONE)


def x_antiderive(g: XSeries) -> XSeries:
    """Classical integration with zero constant: q_antiderive at q = 1."""
    return q_antiderive(g, ONE)


def exp_q_series(c, q, order: int) -> XSeries:
    """Series of the q-exponential of c*x: coefficient k is c**k / [k]!.

    `check_q` keeps every [k] nonzero, so coefficient k is coefficient
    k - 1 times c / [k].
    """
    q = check_q(frac(q), order)
    c = frac(c)
    out = [Fraction(1)]
    for k in range(1, order + 1):
        out.append(out[-1] * c / q_int(k, q))
    return XSeries(out, order)


def graded_apply(seed, step, orders, depth: int) -> dict:
    """exp(S) seed by grades, for S = sum_k S_k with S_k raising the grade by k.

    The S_k commute, so E = exp(S) seed solves z E' = (z S') E for a
    grading variable z: degree by degree d E_d = sum_(k <= d) k S_k E_(d-k)
    (Knuth, TAOCP vol. 2, 4.7), exact, with O(depth**2) steps. `step(k, e)`
    is k S_k e, for each k in `orders`. Returns {grade: E_d} through
    `depth`, E_0 = seed; a grade no sum of orders reaches has no entry.
    This is the one writer of an exponential in a graded ring: the
    generators of `graded_exp`, the Miwa substitution, and the time
    translation and the channels' z-exponentials of the tau layer's
    Taylor sum are its callers.
    """
    acc = {0: seed}
    orders = [k for k in orders if k <= depth]
    for d in range(1, depth + 1):
        total = None
        for k in orders:
            prev = acc.get(d - k)
            if prev is not None:
                term = step(k, prev)
                total = term if total is None else total + term
        if total is not None:
            acc[d] = total.scale(Fraction(1, d))
    return acc


def graded_exp(gens: dict, depth: int) -> dict:
    """exp of sum_k z**k gens[k] in a z-graded algebra, through z**depth.

    The generators are ring elements (x-series, time polynomials) keyed by
    their degree k >= 1; S_k is multiplication by z**k gens[k], so the step
    of `graded_apply` is e * (k gens[k]). Returns {degree: E_d}; a degree
    no sum of generator degrees reaches has no entry.
    """
    weighted = {k: g.scale(k) for k, g in gens.items() if k <= depth}
    seed = next(iter(gens.values())).one_like()
    return graded_apply(seed, lambda k, e: e * weighted[k], weighted, depth)


def exp_series(args, order: int) -> XSeries:
    """Series of exp(sum of c_k x**k) for degrees k >= 1, truncated.

    `args` is an iterable of (degree, coefficient) pairs. The coefficients
    come from `graded_exp` with x as the grading, over the rationals held
    as series of order 0. The exponential of a nonzero argument, even one
    nonzero only above the order, is no polynomial: it is exact through
    `order` only.
    """
    arg: dict[int, Fraction] = {}
    for k, c in args:
        if k < 1:
            raise ValueError("exponent argument must have positive degree")
        arg[k] = arg.get(k, 0) + frac(c)
    one = XSeries.one(order)
    if not any(arg.values()):
        return one
    gens = {k: XSeries.const(c, 0) for k, c in arg.items() if c and k <= order}
    if not gens:
        return one.with_valid(order)
    terms = graded_exp(gens, order)
    return XSeries(
        [terms[d].constant_term() if d in terms else 0 for d in range(order + 1)],
        order,
    )
