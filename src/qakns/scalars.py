"""Exact rational scalars and admissibility checks for the deformation parameter."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Parse an exact rational from an int, Fraction, or a "p/q" string.

    Floats are rejected: every quantity in this package is exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


def common_den(values) -> tuple[tuple[int, ...], int]:
    """Integer numerators over the least common denominator of exact rationals.

    For reduced inputs the result is reduced too: no prime divides the
    denominator and every numerator.
    """
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def frac_str(value: Fraction) -> str:
    """Serialize a rational as "p" or "p/q" (exact round-trip with frac)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class AdmissibilityError(ValueError):
    """The deformation parameter violates an invertibility requirement."""


def check_q(q: Fraction, order: int) -> Fraction:
    """Validate the deformation parameter against a truncation order.

    Requires q != 0, q != 1 and q**m != 1 for every 1 <= m <= order, so
    that the dilation-minus-identity map is invertible off constants and
    the q-integers [m] do not vanish.
    """
    q = frac(q)
    if q == 0:
        raise AdmissibilityError("deformation parameter must be nonzero")
    if q == 1:
        raise AdmissibilityError("deformation parameter must differ from 1")
    p = ONE
    for m in range(1, order + 1):
        p *= q
        if p == 1:
            raise AdmissibilityError(
                f"deformation parameter is a root of unity: q**{m} == 1"
            )
    return q


def q_int(k: int, q: Fraction) -> Fraction:
    """[k] = (q**k - 1)/(q - 1), and [k] = k at q = 1 (the classical structure)."""
    if k == 0:
        return ZERO
    if q == 1:
        return Fraction(k)
    return (q**k - 1) / (q - 1)


def q_factorial(k: int, q: Fraction) -> Fraction:
    """[k]! = [1][2]...[k]."""
    out = ONE
    for s in range(1, k + 1):
        out *= q_int(s, q)
    return out

