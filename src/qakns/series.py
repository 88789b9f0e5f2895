"""Dense truncated power series in x over exact rationals.

An XSeries stores coefficients for degrees 0..order. Alongside the
coefficients it carries `valid`, the largest degree up to which the stored
values are guaranteed exact. `valid == order + 1` is the "exact" sentinel:
the series is a genuine polynomial, all stored coefficients are exact and
the unstored tail is exactly zero. Operations propagate validity so that a
computation can always be asserted only on coefficients it actually
determined; the q-derivative, for instance, loses one order on inexact
input but nothing on a polynomial.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import ZERO, frac


class TruncationError(ValueError):
    """An operation needed coefficients beyond the stored truncation."""


class XSeries:
    __slots__ = ("coeffs", "valid")

    def __init__(self, coeffs: Sequence[Fraction], valid: int | None = None):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        n = len(self.coeffs) - 1
        self.valid = (n + 1) if valid is None else min(valid, n + 1)

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
        return XSeries.poly([], order)

    @staticmethod
    def one(order: int) -> "XSeries":
        return XSeries.poly([1], order)

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
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_exact(self) -> bool:
        return self.valid > self.order

    def degree(self) -> int | None:
        """Top degree of the stored support, or None for the zero series."""
        for k in range(self.order, -1, -1):
            if self.coeffs[k] != 0:
                return k
        return None

    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        """True if every coefficient within the validity window vanishes."""
        top = min(self.valid, self.order)
        return all(self.coeffs[k] == 0 for k in range(top + 1))

    def first_nonzero(self) -> tuple[int, Fraction] | None:
        """First (degree, value) with nonzero value inside the validity window."""
        top = min(self.valid, self.order)
        for k in range(top + 1):
            if self.coeffs[k] != 0:
                return k, self.coeffs[k]
        return None

    def with_valid(self, valid: int) -> "XSeries":
        return XSeries(self.coeffs, min(self.valid, valid))

    def _check(self, other: "XSeries"):
        if self.order != other.order:
            raise TruncationError(
                f"mismatched truncation orders: {self.order} vs {other.order}"
            )

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "XSeries") -> "XSeries":
        self._check(other)
        return XSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
            min(self.valid, other.valid),
        )

    def __sub__(self, other: "XSeries") -> "XSeries":
        self._check(other)
        return XSeries(
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
            min(self.valid, other.valid),
        )

    def __neg__(self) -> "XSeries":
        return XSeries([-a for a in self.coeffs], self.valid)

    def __mul__(self, other: "XSeries") -> "XSeries":
        self._check(other)
        n = self.order
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                if b != 0:
                    out[i + j] += a * b
        if self.is_exact and other.is_exact:
            da, db = self.degree(), other.degree()
            if da is None or db is None or da + db <= n:
                return XSeries(out)  # product is again a polynomial
            valid = n
        else:
            valid = min(self.valid, other.valid)
        return XSeries(out, valid)

    def scale(self, c) -> "XSeries":
        c = frac(c)
        return XSeries([c * a for a in self.coeffs], self.valid)

    def invert(self) -> "XSeries":
        """Multiplicative inverse as a truncated series (nonzero constant term)."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        n = self.order
        out = [ZERO] * (n + 1)
        out[0] = 1 / a0
        for k in range(1, n + 1):
            acc = ZERO
            for i in range(1, k + 1):
                acc += self.coeffs[i] * out[k - i]
            out[k] = -acc / a0
        if self.is_exact and self.degree() in (None, 0):
            return XSeries(out)  # the reciprocal of a constant is exact
        return XSeries(out, min(self.valid, n))

    def shift_down(self) -> "XSeries":
        """Divide by x exactly; the constant term must vanish."""
        if self.coeffs[0] != 0:
            raise ValueError("not divisible by x: nonzero constant term")
        out = list(self.coeffs[1:]) + [ZERO]
        # the top coefficient came from degree order+1, unknown unless exact
        valid = self.valid if self.is_exact else self.valid - 1
        return XSeries(out, valid)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, XSeries)
            and self.coeffs == other.coeffs
            and self.valid == other.valid
        )

    def __hash__(self):
        return hash((self.coeffs, self.valid))

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

