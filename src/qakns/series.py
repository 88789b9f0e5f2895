"""Dense truncated power series in x over exact rationals.

An XSeries stores coefficients for degrees 0..order. Alongside the
coefficients it carries `valid`, the largest degree up to which the stored
values are guaranteed exact. `valid == order + 1` is the "exact" sentinel:
the series is a genuine polynomial, all stored coefficients are exact and
the unstored tail is exactly zero. Operations propagate validity by the
rules of `window`, so that a computation can always be asserted only on
coefficients it actually determined; the q-derivative, for instance,
loses one order on inexact input but nothing on a polynomial.

The coefficients are held fraction-free: a tuple of integer numerators
`nums` over one positive denominator `den`, reduced so that
gcd(den, *nums) == 1 (and den == 1 for the zero series). Equal values
therefore have equal representations. A sum of products is reduced once:
`XSeries.dot` convolves every pair over the lcm of their denominators,
and `*` is its one-pair case. The convolution runs term by term: each
nonzero term of the shorter factor times each term of the other through
its top, cut at the order, one integer multiply-add apiece. The operands
are short, so a plain loop costs less than a slice update per term.
`top` is the highest degree with a nonzero numerator (-1 for the zero
series); it is computed once at construction and serves as the degree
and as the exact-zero test, so a pair with a zero operand is not
convolved. `coeffs` rebuilds the rational coefficients for reports and
witnesses.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd
from operator import add, neg, sub

from .scalars import ZERO, common_den, frac
from .window import upper_inverse, upper_product, upper_shift


class TruncationError(ValueError):
    """An operation needed coefficients beyond the stored truncation."""


class XSeries:
    __slots__ = ("nums", "den", "valid", "top")

    def __init__(self, coeffs: Sequence[Fraction], valid: int | None = None):
        nums, den = common_den(coeffs)
        if not nums:
            raise ValueError("empty coefficient list")
        n = len(nums) - 1
        self.nums = nums
        self.den = den
        self.valid = (n + 1) if valid is None else min(valid, n + 1)
        self.top = next((k for k in range(n, -1, -1) if nums[k]), -1)

    @staticmethod
    def from_ints(nums, den: int, valid: int, top: int | None = None) -> "XSeries":
        """Series with coefficients nums[k]/den, reduced to canonical form.

        `den` must be positive. `top`, when given, bounds the highest
        nonzero degree from above and saves part of the scan.
        """
        n = len(nums) - 1
        top = n if top is None or top > n else top
        while top >= 0 and not nums[top]:
            top -= 1
        if top < 0:
            top, den = -1, 1
        else:
            g = gcd(den, *nums)
            if g != 1:
                nums = [v // g for v in nums]
                den //= g
        return XSeries._raw(tuple(nums), den, valid if valid <= n else n + 1, top)

    @staticmethod
    def _raw(nums: tuple, den: int, valid: int, top: int) -> "XSeries":
        """A series from fields that are already canonical."""
        s = object.__new__(XSeries)
        s.nums, s.den, s.valid, s.top = nums, den, valid, top
        return s

    def _replace(self, valid: int) -> "XSeries":
        """The same coefficients with another validity bound."""
        if valid == self.valid:
            return self
        return XSeries._raw(self.nums, self.den, valid, self.top)

    # -- constructors -------------------------------------------------

    @staticmethod
    def poly(coeffs: Iterable, order: int) -> "XSeries":
        """Exact polynomial from low-degree coefficients, padded to order."""
        cs = [frac(c) for c in coeffs]
        if len(cs) > order + 1:
            for c in cs[order + 1:]:
                if c != 0:
                    raise TruncationError("polynomial degree exceeds truncation order")
            cs = cs[: order + 1]
        cs += [ZERO] * (order + 1 - len(cs))
        return XSeries(cs)

    @staticmethod
    def const(c, order: int) -> "XSeries":
        return XSeries.poly([frac(c)], order)

    @staticmethod
    def zero(order: int) -> "XSeries":
        return XSeries._raw((0,) * (order + 1), 1, order + 1, -1)

    @staticmethod
    def one(order: int) -> "XSeries":
        return XSeries._raw((1,) + (0,) * order, 1, order + 1, 0)

    @staticmethod
    def monomial(c, k: int, order: int) -> "XSeries":
        return XSeries.poly([ZERO] * k + [frac(c)], order)

    # -- ring protocol shared with TimePoly ---------------------------

    def zero_like(self) -> "XSeries":
        return XSeries.zero(self.order)

    def one_like(self) -> "XSeries":
        return XSeries.one(self.order)

    # -- structure -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(v, den) for v in self.nums)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def is_exact(self) -> bool:
        return self.valid >= len(self.nums)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    def is_one(self) -> bool:
        """True for the exact one: the constant 1 with nothing discarded."""
        return self.top == 0 and self.nums[0] == self.den \
            and self.valid >= len(self.nums)

    def is_zero(self) -> bool:
        """True if every coefficient within the validity window vanishes."""
        if self.top <= self.valid:
            return self.top < 0  # a nonzero nums[top] lies inside the window
        return not any(self.known)

    @property
    def known(self) -> tuple[int, ...]:
        """The numerators inside the validity window, through `top` at most."""
        return self.nums[: max(min(self.valid, self.top) + 1, 0)]

    def with_valid(self, valid: int) -> "XSeries":
        return self._replace(min(self.valid, valid))

    def _mismatch(self, other: "XSeries") -> TruncationError:
        return TruncationError(
            f"mismatched truncation orders: {self.order} vs {other.order}"
        )

    # -- arithmetic ------------------------------------------------------

    def _combine(self, other: "XSeries", op) -> "XSeries":
        """self op other for op in (add, sub), over the least common denominator."""
        a, b = self.nums, other.nums
        if len(a) != len(b):
            raise self._mismatch(other)
        va, vb = self.valid, other.valid
        valid = va if va < vb else vb
        if other.top < 0:
            return self._replace(valid)
        if self.top < 0 and op is add:
            return other._replace(valid)
        da, db = self.den, other.den
        if da == db:
            nums = list(map(op, a, b))
        else:
            g = gcd(da, db)
            ma, mb = db // g, da // g
            da *= ma
            nums = [op(x * ma, y * mb) for x, y in zip(a, b)]
        return XSeries.from_ints(nums, da, valid, max(self.top, other.top))

    def __add__(self, other: "XSeries") -> "XSeries":
        return self._combine(other, add)

    def __sub__(self, other: "XSeries") -> "XSeries":
        return self._combine(other, sub)

    def __neg__(self) -> "XSeries":
        return XSeries._raw(tuple(map(neg, self.nums)), self.den, self.valid, self.top)

    def __mul__(self, other: "XSeries") -> "XSeries":
        return XSeries.dot(((self, other),))

    @staticmethod
    def dot(pairs) -> "XSeries":
        """The sum of a * b over the (a, b) pairs, reduced once.

        Every product is convolved fraction-free into one numerator list
        over the lcm of the pairs' denominators, and the sum is reduced by
        one `from_ints` call. `valid` is the smallest window that
        `window.upper_product` gives any pair, so an exact zero operand
        leaves the sum exact. A single pair with an exact-one factor
        (`is_one`) returns the other factor itself: `upper_product` gives
        that product the other factor's window, so nothing is convolved.
        All operands share one order, which is checked first; an empty
        `pairs` raises ValueError.
        """
        pairs = list(pairs)
        if not pairs:
            raise ValueError("empty sum of products")
        first = pairs[0][0]
        size = len(first.nums)
        if len(pairs) == 1:
            b = pairs[0][1]
            if len(b.nums) != size:
                raise first._mismatch(b)
            if first.is_one():
                return b
            if b.is_one():
                return first
        n = size - 1
        valid = size
        live = []
        lcm = 1
        for a, b in pairs:
            an, bn = a.nums, b.nums
            if len(an) != size or len(bn) != size:
                raise (a if len(an) != len(bn) else first)._mismatch(b)
            ta, tb = a.top, b.top
            v = upper_product(n, a.valid, ta, b.valid, tb)
            if ta >= 0 and tb >= 0:
                d = a.den * b.den
                live.append((an, bn, ta, tb, d))
                if lcm % d:
                    lcm = lcm // gcd(lcm, d) * d
            if v < valid:
                valid = v
        out = [0] * size
        top = -1
        for an, bn, ta, tb, d in live:
            if ta > tb:  # the outer loop runs over the shorter factor
                an, bn, ta, tb = bn, an, tb, ta
            m = lcm // d
            for i in range(ta + 1):
                x = an[i]
                if x:
                    if m != 1:
                        x *= m
                    k = i  # out[i + j] += x * bn[j], cut where i + j > n
                    for y in bn[:tb + 1 if i + tb < n else size - i]:
                        out[k] += x * y
                        k += 1
            t = ta + tb if ta + tb < n else n
            if t > top:
                top = t
        return XSeries.from_ints(out, lcm, valid, top)

    def scale(self, c) -> "XSeries":
        c = frac(c)
        p, r = c.numerator, c.denominator
        return XSeries.from_ints(
            [p * v for v in self.nums], r * self.den, self.valid, self.top
        )

    def invert(self) -> "XSeries":
        """Multiplicative inverse as a truncated series (nonzero constant term).

        With a = A/den and integer A, 1/A has coefficient k equal to
        C_k / A_0**(k+1), where C_0 = 1 and
        C_k = -sum_{i=1..k} A_i C_(k-i) A_0**(i-1).
        """
        a = self.nums
        a0 = a[0]
        if a0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        n, top = self.order, self.top
        pw = [1]
        for _ in range(n):
            pw.append(pw[-1] * a0)
        c = [1] + [0] * n
        for k in range(1, n + 1):
            c[k] = -sum(
                a[i] * c[k - i] * pw[i - 1] for i in range(1, min(k, top) + 1)
            )
        nums = [self.den * ck * pw[n - k] for k, ck in enumerate(c)]
        den = pw[n] * a0
        if den < 0:
            nums, den = [-v for v in nums], -den
        return XSeries.from_ints(nums, den, upper_inverse(n, self.valid, top == 0))

    def shift_down(self) -> "XSeries":
        """Divide by x exactly; the constant term must vanish."""
        if self.nums[0] != 0:
            raise ValueError("not divisible by x: nonzero constant term")
        # the top coefficient came from degree order+1, unknown unless exact
        valid = upper_shift(self.order, self.valid, self.top, -1)
        return XSeries._raw(self.nums[1:] + (0,), self.den, valid, max(self.top - 1, -1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, XSeries)
            and self.nums == other.nums
            and self.den == other.den
            and self.valid == other.valid
        )

    def __hash__(self):
        return hash((self.nums, self.den, self.valid))

    def __repr__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        body = " + ".join(parts) if parts else "0"
        mark = "" if self.is_exact else f" (+O(x^{min(self.valid, self.order) + 1}))"
        return f"<{body}{mark}>"
