"""Matrix-valued truncated Laurent series in the spectral variable z.

Terms are stored as a map from z-degree to a square MatSeries. `zvalid`
is the lowest degree at which stored coefficients are guaranteed exact:
degrees below it are unknown (typically the discarded tail of an inverse
or of a solved series), degrees above the stored support are exactly
zero. A fully exact object (finite support, nothing discarded) has
zvalid = -infinity.

Multiplication propagates the bound: a product is exact at degree d once
no unknown coefficient of either factor can reach d, which gives
    zvalid = max(a.zvalid + top(b), b.zvalid + top(a)).
That is `window.product_floor`, the lower-window rule; `product`, which
computes a window of a product, inherits it from the whole product;
`product_coeff` is its one-degree window.
`derive_through` is the one q-Leibniz reduction that the residue and
zero-curvature checks rest on.
"""

from __future__ import annotations

import math

from .matseries import MatSeries
from .window import NEG_INF, add_terms, lower_terms, product_floor


def derive_through(f: MZSeries, g: MZSeries, derive, dilate,
                   lo=NEG_INF, hi=math.inf) -> MZSeries:
    """D f + (sigma f) g at the degrees lo..hi: the q-Leibniz reduction through E.

    When D E = g E, the twisted Leibniz rule D(f E) = (D f) E + (sigma f)(D E)
    gives D(f E) = (D f + (sigma f) g) E, so E never needs expanding.
    `derive` and `dilate` act entrywise (sigma = id in the classical case).
    A caller that reads only some degrees passes their window, as to
    `MZSeries.product`; the floor is the whole result's, whatever the window.
    """
    near = {d: m for d, m in f.terms.items() if lo <= d <= hi}
    df = MZSeries(f.n, near, f.zvalid, f.proto).map_entries(derive)
    return df + f.map_entries(dilate).product(g, lo, hi)


class InsufficientDepthError(ValueError):
    """An assertion window reaches below the exactly-known z-degrees."""


class MZSeries:
    __slots__ = ("n", "terms", "zvalid", "proto", "_zero")

    def __init__(self, n: int, terms: dict, zvalid=NEG_INF, proto=None):
        self.n = n
        if any(m.n != n for m in terms.values()):
            raise ValueError("dimension mismatch")
        if proto is None and terms:
            proto = next(iter(terms.values())).proto()
        # inexact zeros are kept: they still bound what later checks may claim
        self.terms = lower_terms(terms, zvalid)
        self.zvalid = zvalid
        self.proto = proto
        self._zero = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_term(n: int, degree: int, mat: MatSeries) -> "MZSeries":
        return MZSeries(n, {degree: mat})

    @staticmethod
    def identity(n: int, proto) -> "MZSeries":
        return MZSeries(n, {0: MatSeries.identity(n, proto)})

    @staticmethod
    def zero(n: int, proto=None) -> "MZSeries":
        return MZSeries(n, {}, proto=proto)

    # -- structure ---------------------------------------------------------

    def top(self) -> int | float:
        """Highest degree that may carry a nonzero coefficient."""
        return max(self.terms) if self.terms else self.zvalid

    @property
    def is_exact(self) -> bool:
        return self.zvalid == NEG_INF

    def _zero_mat(self) -> MatSeries:
        """The zero coefficient, one shared matrix per series."""
        if self._zero is None:
            if self.proto is None:
                raise ValueError("series carries no coefficient prototype")
            self._zero = MatSeries.zero(self.n, self.proto)
        return self._zero

    def coeff(self, d: int) -> MatSeries:
        """Coefficient at degree d; raises when the degree is not known exactly."""
        if d < self.zvalid:
            raise InsufficientDepthError(f"z**{d} coefficient not determined")
        got = self.terms.get(d)
        return got if got is not None else self._zero_mat()

    def is_zero(self) -> bool:
        """All exactly-known coefficients vanish (to their own x/t validity)."""
        return all(m.is_zero() for m in self.terms.values())

    def is_zero_exact(self) -> bool:
        """Exactly zero with nothing hidden beyond any validity bound."""
        return self.is_exact and all(
            m.is_zero_exact() for m in self.terms.values()
        )

    def map_entries(self, fn) -> "MZSeries":
        proto = fn(self.proto) if self.proto is not None else None
        return MZSeries(
            self.n, {d: m.map(fn) for d, m in self.terms.items()}, self.zvalid, proto
        )

    def transpose(self) -> "MZSeries":
        return MZSeries(
            self.n,
            {d: m.transpose() for d, m in self.terms.items()},
            self.zvalid,
            self.proto,
        )

    # -- arithmetic -----------------------------------------------------------

    def _merge(self, other: "MZSeries", negate: bool) -> "MZSeries":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        zv = max(self.zvalid, other.zvalid)
        out = add_terms(self.terms, other.terms, negate)
        return MZSeries(self.n, out, zv, self.proto or other.proto)

    def __add__(self, other: "MZSeries") -> "MZSeries":
        return self._merge(other, False)

    def __sub__(self, other: "MZSeries") -> "MZSeries":
        return self._merge(other, True)

    def __neg__(self) -> "MZSeries":
        return MZSeries(
            self.n, {d: -m for d, m in self.terms.items()}, self.zvalid, self.proto
        )

    def product(self, other: "MZSeries", lo=NEG_INF, hi=math.inf) -> "MZSeries":
        """The degrees lo..hi of self * other, unknown below the product floor.

        Each degree d is one `MatSeries.dot` over the block pairs da + db = d.
        A caller that reads only some degrees passes their window; the
        floor is the whole product's, whatever the window.
        """
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        zv = product_floor(self.zvalid, self.top(), other.zvalid, other.top())
        a, b = self.terms, other.terms
        out: dict[int, MatSeries] = {}
        if a and b:
            for d in range(max(lo, zv, min(a) + min(b)),
                           min(hi, max(a) + max(b)) + 1):
                blocks = [(ma, mb) for da, ma in a.items()
                          if (mb := b.get(d - da)) is not None]
                if blocks:
                    out[d] = MatSeries.dot(blocks)
        return MZSeries(self.n, out, zv, self.proto or other.proto)

    def __mul__(self, other: "MZSeries") -> "MZSeries":
        return self.product(other)

    def product_coeff(self, other: "MZSeries", d: int) -> MatSeries:
        """(self * other).coeff(d): `product`'s one-degree window."""
        return self.product(other, d, d).coeff(d)

    def scale(self, c) -> "MZSeries":
        return MZSeries(
            self.n,
            {d: m.scale(c) for d, m in self.terms.items()},
            self.zvalid,
            self.proto,
        )

    def shift(self, k: int) -> "MZSeries":
        """Multiply by z**k."""
        return MZSeries(
            self.n, {d + k: m for d, m in self.terms.items()}, self.zvalid + k,
            self.proto,
        )

    def truncate_below(self, floor: int) -> "MZSeries":
        """Forget degrees below `floor` (the forgotten part becomes unknown)."""
        if self.is_exact and (not self.terms or min(self.terms) >= floor):
            return self
        return MZSeries(self.n, self.terms, max(self.zvalid, floor), self.proto)

    # -- projections ----------------------------------------------------------

    def project(self, sign: str) -> "MZSeries":
        """Keep degrees >= 0 ("plus") or < 0 ("minus")."""
        if sign == "plus":
            if self.zvalid > 0:
                raise InsufficientDepthError("nonnegative part not fully determined")
            kept = {d: m for d, m in self.terms.items() if d >= 0}
            # the discarded part is zero by definition: the result is exact
            return MZSeries(self.n, kept, proto=self.proto)
        if sign == "minus":
            kept = {d: m for d, m in self.terms.items() if d < 0}
            return MZSeries(self.n, kept, self.zvalid, self.proto)
        raise ValueError("sign must be 'plus' or 'minus'")

    # -- inversion ----------------------------------------------------------------

    def invert(self, floor: int) -> "MZSeries":
        """Inverse of I + (strictly negative degrees), kept down to z**floor."""
        proto = self.proto
        ident = self.terms.get(0)
        if ident is None or not (ident - MatSeries.identity(self.n, proto)).is_zero():
            raise ValueError("leading term is not the identity")
        if self.terms and max(self.terms) > 0:
            raise ValueError("positive degrees present")
        step = -MZSeries(
            self.n, {d: m for d, m in self.terms.items() if d < 0},
            self.zvalid, proto,
        )
        acc = MZSeries.identity(self.n, proto)
        term = MZSeries.identity(self.n, proto)

        def next_term(term):
            # an exact product is built whole: whether a nonzero degree falls
            # below the floor decides if truncating it forgets anything; an
            # inexact one is unknown from the floor down either way
            lo = NEG_INF if term.is_exact and step.is_exact else floor
            return term.product(step, lo).truncate_below(floor)

        lost = False
        for _ in range(max(0, -floor)):
            term = next_term(term)
            if term.is_zero_exact():
                break
            acc = acc + term
        else:
            # loop exhausted: account for the uncomputed remainder of the tail
            lost = not next_term(term).is_zero_exact()
        zv = max(acc.zvalid, self.zvalid, floor if lost else NEG_INF)
        return MZSeries(self.n, acc.terms, zv, proto)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MZSeries)
            and self.n == other.n
            and self.terms == other.terms
            and self.zvalid == other.zvalid
        )

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            body = " + ".join(f"z^{d}*{m!r}" for d, m in sorted(self.terms.items()))
        mark = "" if self.is_exact else f" (unknown below z^{self.zvalid})"
        return f"MZ[{body}{mark}]"

