"""Truncated multivariate polynomials in the flow times, over x-series.

Variables are flow labels (k, alpha); a monomial is an exponent tuple
aligned with the variable list. Total degree is capped at `tmax`, with
`tvalid` playing the same role the x-validity bound plays for XSeries:
monomials of total degree <= tvalid are exact, tvalid == tmax + 1 marks a
genuine polynomial with no discarded part. Coefficients are XSeries of
the ring's x-order, which the constructor checks, and carry their own
x-validity.

A ring starts at `TimePoly.zero(vars, tmax, xorder)`, which keeps `vars`
in the order listed and refuses a variable listed twice. Every other
element is built from one of the ring: `constant`, `variable` and
`from_monomials`, like `zero_like` and `one_like`, build in the element's
own ring.

No monomial above `tvalid` is stored: such a coefficient is undetermined,
so products never form one, and sums, `with_tvalid` and the constructor
drop what a lowered `tvalid` leaves undetermined.

TimePoly satisfies the same ring protocol as XSeries, so matrices and
z-Laurent series over time polynomials reuse MatSeries and MZSeries
unchanged.
"""

from __future__ import annotations

from math import comb
from operator import add

from .scalars import frac
from .series import XSeries
from .window import add_terms, upper_inverse, upper_product, upper_shift

FlowIndex = tuple[int, int]  # (k, channel), channel 0-based internally


def _within(terms: dict, tvalid: int) -> dict:
    """The terms of total degree <= tvalid."""
    return {e: c for e, c in terms.items() if sum(e) <= tvalid}


class TimePoly:
    __slots__ = ("vars", "terms", "tmax", "xorder", "tvalid", "_top")

    def __init__(self, vars: tuple, terms: dict, tmax: int, xorder: int,
                 tvalid: int | None = None):
        vars = tuple(vars)
        for e, c in terms.items():
            if len(e) != len(vars):
                raise ValueError("exponent arity mismatch")
            if sum(e) > tmax:
                raise ValueError("monomial beyond total-degree cap")
            if c.order != xorder:
                raise ValueError(
                    f"coefficient of x-order {c.order} in a ring of x-order {xorder}"
                )
        if tvalid is not None and tvalid <= tmax:
            terms = _within(terms, tvalid)
        self._fill(vars, terms, tmax, xorder,
                   tmax + 1 if tvalid is None else tvalid)

    def _fill(self, vars, terms, tmax, xorder, tvalid):
        self.vars = vars
        self.tmax = tmax
        self.xorder = xorder
        self.tvalid = min(tvalid, tmax + 1)
        self.terms = {
            e: c for e, c in terms.items() if not (c.is_zero() and c.is_exact)
        }
        self._top = None

    def _like(self, terms: dict, tvalid: int) -> "TimePoly":
        """Internal constructor: `terms` fit this carrier and lie within tvalid."""
        out = object.__new__(TimePoly)
        out._fill(self.vars, terms, self.tmax, self.xorder, tvalid)
        return out

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(vars: tuple, tmax: int, xorder: int) -> "TimePoly":
        """The zero of the ring over `vars`, in the order listed; a time
        listed twice raises ValueError."""
        vars = tuple(vars)
        twice = sorted({v for v in vars if vars.count(v) > 1})
        if twice:
            raise ValueError(f"time variables listed twice: {twice}")
        return TimePoly(vars, {}, tmax, xorder)

    def _monomial(self, e, c: XSeries) -> "TimePoly":
        """c * t**e in this ring, through the validating constructor."""
        return TimePoly(self.vars, {tuple(e): c}, self.tmax, self.xorder)

    def constant(self, c) -> "TimePoly":
        """c, an XSeries or a rational, in this ring."""
        if not isinstance(c, XSeries):
            c = XSeries.const(frac(c), self.xorder)
        return self._monomial((0,) * len(self.vars), c)

    def variable(self, v: FlowIndex) -> "TimePoly":
        """The time t_v of this ring."""
        i = self.vars.index(v)
        e = (int(j == i) for j in range(len(self.vars)))
        return self._monomial(e, XSeries.one(self.xorder))

    def from_monomials(self, monomials) -> "TimePoly":
        """The sum of c * t**e over (e, c) pairs: e aligned to vars, c rational."""
        return sum((self._monomial(e, XSeries.const(frac(c), self.xorder))
                    for e, c in monomials), self.zero_like())

    # -- ring protocol ------------------------------------------------------

    def zero_like(self) -> "TimePoly":
        return self._like({}, self.tmax + 1)

    def one_like(self) -> "TimePoly":
        return self.constant(1)

    @property
    def is_exact(self) -> bool:
        return self.tvalid > self.tmax and all(
            c.is_exact for c in self.terms.values()
        )

    @property
    def top(self) -> int:
        """The highest total degree of a stored monomial (-1 when none is),
        computed on first use."""
        if self._top is None:
            self._top = max(map(sum, self.terms), default=-1)
        return self._top

    def is_one(self) -> bool:
        """True for the exact one: the constant monomial, an exact-one
        coefficient, with nothing discarded in t."""
        if self.tvalid <= self.tmax or len(self.terms) != 1:
            return False
        (e, c), = self.terms.items()
        return not any(e) and c.is_one()

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.terms.values())

    def constant_term(self) -> XSeries:
        e0 = (0,) * len(self.vars)
        return self.terms.get(e0, XSeries.zero(self.xorder))

    def _check(self, other: "TimePoly"):
        if self.vars != other.vars or self.tmax != other.tmax \
                or self.xorder != other.xorder:
            raise ValueError("incompatible time-polynomial carriers")

    def __add__(self, other: "TimePoly") -> "TimePoly":
        self._check(other)
        # an empty operand leaves the other's terms; tvalid is still the min
        if not other.terms and self.tvalid <= other.tvalid:
            return self
        if not self.terms and other.tvalid <= self.tvalid:
            return other
        a, b = self.terms, other.terms
        # the more exact operand's terms above the other's tvalid are lost
        if self.tvalid < other.tvalid:
            b = _within(b, self.tvalid)
        elif other.tvalid < self.tvalid:
            a = _within(a, other.tvalid)
        return self._like(add_terms(a, b), min(self.tvalid, other.tvalid))

    def __sub__(self, other: "TimePoly") -> "TimePoly":
        return self + (-other)

    def __neg__(self) -> "TimePoly":
        return self._like({e: -c for e, c in self.terms.items()}, self.tvalid)

    def __mul__(self, other: "TimePoly") -> "TimePoly":
        return TimePoly.dot(((self, other),))

    @staticmethod
    def dot(pairs) -> "TimePoly":
        """The sum of p * q over the (p, q) pairs, one `XSeries.dot` per monomial.

        `tvalid` is the smallest window that `window.upper_product` gives
        any pair, read in the total t-degree: an exact zero operand (no
        terms, `tvalid > tmax`) gives an exact zero. No monomial above the
        result's `tvalid` is formed. A single pair with an exact-one factor
        (`is_one`) returns the other factor itself, as `XSeries.dot` does.
        All operands share one carrier, which is checked first; an empty
        `pairs` raises ValueError.
        """
        pairs = list(pairs)
        if not pairs:
            raise ValueError("empty sum of products")
        first = pairs[0][0]
        if len(pairs) == 1:
            q = pairs[0][1]
            first._check(q)
            if first.is_one():
                return q
            if q.is_one():
                return first
        tmax = first.tmax
        tvalid = tmax + 1
        live = []
        for p, q in pairs:
            first._check(p)
            first._check(q)
            if p.terms and q.terms:
                live.append((p, q))
            tvalid = min(tvalid, upper_product(tmax, p.tvalid, p.top, q.tvalid, q.top))
        cap = min(tvalid, tmax)
        groups: dict[tuple, list] = {}
        for p, q in live:
            right = [(eb, sum(eb), cb) for eb, cb in q.terms.items()]
            for ea, ca in p.terms.items():
                room = cap - sum(ea)
                for eb, db, cb in right:
                    if db <= room:
                        groups.setdefault(tuple(map(add, ea, eb)), []).append((ca, cb))
        dot = XSeries.dot
        return first._like({e: dot(g) for e, g in groups.items()}, tvalid)

    def scale(self, c) -> "TimePoly":
        c = frac(c)
        return self._like({e: s.scale(c) for e, s in self.terms.items()},
                          self.tvalid)

    def scale_series(self, s: XSeries) -> "TimePoly":
        if s.is_one() and s.order == self.xorder:
            return self
        return self._like({e: c * s for e, c in self.terms.items()}, self.tvalid)

    def map_coeffs(self, fn) -> "TimePoly":
        """Apply an x-series map (dilation, derivation, ...) to coefficients."""
        return self._like({e: fn(c) for e, c in self.terms.items()}, self.tvalid)

    # -- calculus in the times -------------------------------------------------

    def t_derive(self, v: FlowIndex) -> "TimePoly":
        """d/dt_v; a time the carrier does not hold gives an exact zero."""
        if v not in self.vars:
            return self.zero_like()
        i = self.vars.index(v)
        out = {  # lowering e_i by one is injective: no two terms meet
            tuple(x - 1 if j == i else x for j, x in enumerate(e)): c.scale(e[i])
            for e, c in self.terms.items() if e[i]
        }
        return self._like(out, upper_shift(self.tmax, self.tvalid, self.top, -1))

    def shift_var(self, v: FlowIndex, s: XSeries) -> "TimePoly":
        """Substitute t_v -> t_v + s(x), re-expanded exactly.

        Requires an exact polynomial: the substitution feeds every degree
        downward, so a discarded tail would contaminate all monomials.
        The pairs (C(e_i, j) c, s**j) are grouped by target monomial, and
        each monomial is one `XSeries.dot`, as in `TimePoly.dot`.
        """
        if self.tvalid <= self.tmax:
            raise ValueError("cannot shift a truncated time polynomial")
        i = self.vars.index(v)
        powers = [XSeries.one(self.xorder)]
        top = max((e[i] for e in self.terms), default=0)
        for _ in range(top):
            powers.append(powers[-1] * s)
        groups: dict[tuple, list] = {}
        for e, c in self.terms.items():
            for j in range(e[i] + 1):
                e2 = tuple(x - j if idx == i else x for idx, x in enumerate(e))
                groups.setdefault(e2, []).append((c.scale(comb(e[i], j)), powers[j]))
        dot = XSeries.dot
        return self._like({e: dot(g) for e, g in groups.items()}, self.tmax + 1)

    def invert(self) -> "TimePoly":
        """Inverse in the t-truncated ring; the constant term must invert.

        The geometric sum stops only at an exact zero: a term that vanishes
        inside its x-window still carries what the window leaves unknown.
        """
        c0 = self.constant_term()
        c0_inv = c0.invert()
        rest = self - self.constant(c0)
        nu = rest.scale_series(c0_inv)
        acc = self.one_like()
        term = self.one_like()
        for _ in range(self.tmax):
            term = -(term * nu)
            if term.is_zero() and term.is_exact:
                break
            acc = acc + term
        # the inverse of a t-exact t-constant stays polynomial in t; p is a
        # t-constant when no monomial of positive degree is stored
        tvalid = upper_inverse(self.tmax, self.tvalid, rest.top <= 0)
        return acc.scale_series(c0_inv).with_tvalid(tvalid)

    def with_tvalid(self, tvalid: int) -> "TimePoly":
        if tvalid >= self.tvalid:
            return self
        return self._like(_within(self.terms, tvalid), tvalid)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TimePoly)
            and self.vars == other.vars
            and self.terms == other.terms
            and self.tvalid == other.tvalid
        )

    def __repr__(self):
        if not self.terms:
            return "TP(0)"
        names = [f"t{k}_{a+1}" for k, a in self.vars]
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{names[i]}^{p}" if p > 1 else names[i]
                for i, p in enumerate(e) if p
            )
            parts.append(f"({c!r}){'*' + mono if mono else ''}")
        mark = "" if self.tvalid > self.tmax else f" (+O(t^{self.tvalid + 1}))"
        return " + ".join(parts) + mark
