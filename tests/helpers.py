"""Builders and oracles that only the tests use.

The test modules import them by name: pytest puts this directory on
`sys.path`, since it is not a package.
"""

from qakns.calculus import dilate
from qakns.matseries import MatSeries
from qakns.scalars import frac
from qakns.series import XSeries
from qakns.window import upper_shift


def scalar_matrix(rows, order: int) -> MatSeries:
    """The matrix of rational constants `rows`, each an x-series of `order`."""
    return MatSeries([[XSeries.const(c, order) for c in r] for r in rows])


def q_derive_by_quotient(f: XSeries, q) -> XSeries:
    """The defining quotient (f(qx) - f(x)) / (x(q-1)) evaluated literally:
    an oracle for `calculus.q_derive`."""
    q = frac(q)
    return shift_down(dilate(f, q) - f).scale(1 / (q - 1))


def shift_down(f: XSeries) -> XSeries:
    """f / x exactly; the constant term must vanish. The top coefficient
    came from degree order + 1, unknown unless f is exact."""
    if f.constant_term() != 0:
        raise ValueError("not divisible by x: nonzero constant term")
    valid = upper_shift(f.order, f.valid, f.top, -1)
    return XSeries.from_ints(f.nums[1:], f.den, valid, f.order)
