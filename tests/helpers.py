"""Builders and oracles that only the tests use.

The test modules import them by name: pytest puts this directory on
`sys.path`, since it is not a package.
"""

from qakns.calculus import dilate
from qakns.matseries import MatSeries
from qakns.scalars import frac
from qakns.series import XSeries


def scalar_matrix(rows, order: int) -> MatSeries:
    """The matrix of rational constants `rows`, each an x-series of `order`."""
    return MatSeries([[XSeries.const(c, order) for c in r] for r in rows])


def q_derive_by_quotient(f: XSeries, q) -> XSeries:
    """The defining quotient (f(qx) - f(x)) / (x(q-1)) evaluated literally:
    an oracle for `calculus.q_derive`."""
    q = frac(q)
    return (dilate(f, q) - f).shift_down().scale(1 / (q - 1))
