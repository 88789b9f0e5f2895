"""Truncated multivariate polynomials in the flow times, over x-series.

Variables are flow labels (k, alpha); a monomial is an exponent tuple
aligned with the variable list. Total degree is capped at `tmax`, with
`tvalid` playing the same role the x-validity bound plays for XSeries:
monomials of total degree <= tvalid are exact, tvalid == tmax + 1 marks a
genuine polynomial with no discarded part. Coefficients are XSeries and
carry their own x-validity.

TimePoly satisfies the same ring protocol as XSeries, so matrices and
z-Laurent series over time polynomials reuse MatSeries and MZSeries
unchanged.
"""

from __future__ import annotations

from math import comb

from .scalars import frac
from .series import XSeries

FlowIndex = tuple[int, int]  # (k, channel), channel 0-based internally


class TimePoly:
    __slots__ = ("vars", "terms", "tmax", "xorder", "tvalid")

    def __init__(self, vars: tuple, terms: dict, tmax: int, xorder: int,
                 tvalid: int | None = None):
        self.vars = tuple(vars)
        self.tmax = tmax
        self.xorder = xorder
        self.tvalid = (tmax + 1) if tvalid is None else min(tvalid, tmax + 1)
        kept = {}
        for e, c in terms.items():
            if len(e) != len(self.vars):
                raise ValueError("exponent arity mismatch")
            if sum(e) > tmax:
                raise ValueError("monomial beyond total-degree cap")
            if not (c.is_zero() and c.is_exact):
                kept[e] = c
        self.terms = kept

    # -- constructors ----------------------------------------------------

    @staticmethod
    def constant(c, vars: tuple, tmax: int, xorder: int) -> "TimePoly":
        e0 = (0,) * len(vars)
        if isinstance(c, XSeries):
            return TimePoly(vars, {e0: c}, tmax, xorder)
        return TimePoly(vars, {e0: XSeries.const(frac(c), xorder)}, tmax, xorder)

    @staticmethod
    def variable(v: FlowIndex, vars: tuple, tmax: int, xorder: int) -> "TimePoly":
        i = vars.index(v)
        e = tuple(1 if j == i else 0 for j in range(len(vars)))
        return TimePoly(vars, {e: XSeries.one(xorder)}, tmax, xorder)

    @staticmethod
    def zero(vars: tuple, tmax: int, xorder: int) -> "TimePoly":
        return TimePoly(vars, {}, tmax, xorder)

    # -- ring protocol ------------------------------------------------------

    def zero_like(self) -> "TimePoly":
        return TimePoly(self.vars, {}, self.tmax, self.xorder)

    def one_like(self) -> "TimePoly":
        return TimePoly.constant(1, self.vars, self.tmax, self.xorder)

    @property
    def is_exact(self) -> bool:
        return self.tvalid > self.tmax and all(
            c.is_exact for c in self.terms.values()
        )

    @property
    def valid(self):
        """Minimum x-validity over coefficients (reporting hook)."""
        if not self.terms:
            return self.xorder + 1
        return min(c.valid for c in self.terms.values())

    def is_zero(self) -> bool:
        return all(
            c.is_zero() for e, c in self.terms.items() if sum(e) <= self.tvalid
        )

    def first_nonzero(self):
        for e in sorted(self.terms):
            if sum(e) <= self.tvalid:
                hit = self.terms[e].first_nonzero()
                if hit is not None:
                    return e, hit
        return None

    def constant_term(self) -> XSeries:
        e0 = (0,) * len(self.vars)
        return self.terms.get(e0, XSeries.zero(self.xorder))

    def _check(self, other: "TimePoly"):
        if self.vars != other.vars or self.tmax != other.tmax \
                or self.xorder != other.xorder:
            raise ValueError("incompatible time-polynomial carriers")

    def __add__(self, other: "TimePoly") -> "TimePoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            out[e] = c if cur is None else cur + c
        return TimePoly(self.vars, out, self.tmax, self.xorder,
                        min(self.tvalid, other.tvalid))

    def __sub__(self, other: "TimePoly") -> "TimePoly":
        return self + (-other)

    def __neg__(self) -> "TimePoly":
        return TimePoly(self.vars, {e: -c for e, c in self.terms.items()},
                        self.tmax, self.xorder, self.tvalid)

    def __mul__(self, other: "TimePoly") -> "TimePoly":
        self._check(other)
        out: dict[tuple, XSeries] = {}
        overflow = False
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                if sum(e) > self.tmax:
                    overflow = True
                    continue
                prod = ca * cb
                cur = out.get(e)
                out[e] = prod if cur is None else cur + prod
        if self.tvalid > self.tmax and other.tvalid > self.tmax and not overflow:
            tvalid = self.tmax + 1
        elif self.tvalid > self.tmax and other.tvalid > self.tmax:
            tvalid = self.tmax
        else:
            tvalid = min(self.tvalid, other.tvalid)
        return TimePoly(self.vars, out, self.tmax, self.xorder, tvalid)

    def scale(self, c) -> "TimePoly":
        c = frac(c)
        return TimePoly(self.vars, {e: s.scale(c) for e, s in self.terms.items()},
                        self.tmax, self.xorder, self.tvalid)

    def scale_series(self, s: XSeries) -> "TimePoly":
        return TimePoly(self.vars, {e: c * s for e, c in self.terms.items()},
                        self.tmax, self.xorder, self.tvalid)

    def map_coeffs(self, fn) -> "TimePoly":
        """Apply an x-series map (dilation, derivation, ...) to coefficients."""
        return TimePoly(self.vars, {e: fn(c) for e, c in self.terms.items()},
                        self.tmax, self.xorder, self.tvalid)

    # -- calculus in the times -------------------------------------------------

    def t_derive(self, v: FlowIndex) -> "TimePoly":
        i = self.vars.index(v)
        out: dict[tuple, XSeries] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = tuple(x - 1 if j == i else x for j, x in enumerate(e))
            add = c.scale(e[i])
            cur = out.get(e2)
            out[e2] = add if cur is None else cur + add
        tvalid = self.tvalid if self.tvalid > self.tmax else self.tvalid - 1
        return TimePoly(self.vars, out, self.tmax, self.xorder, tvalid)

    def shift_var(self, v: FlowIndex, s: XSeries) -> "TimePoly":
        """Substitute t_v -> t_v + s(x), re-expanded exactly.

        Requires an exact polynomial: the substitution feeds every degree
        downward, so a discarded tail would contaminate all monomials.
        """
        if self.tvalid <= self.tmax:
            raise ValueError("cannot shift a truncated time polynomial")
        i = self.vars.index(v)
        out: dict[tuple, XSeries] = {}
        powers = [XSeries.one(self.xorder)]
        top = max((e[i] for e in self.terms), default=0)
        for _ in range(top):
            powers.append(powers[-1] * s)
        for e, c in self.terms.items():
            for j in range(e[i] + 1):
                e2 = tuple(x - j if idx == i else x for idx, x in enumerate(e))
                add = c.scale(comb(e[i], j)) * powers[j]
                cur = out.get(e2)
                out[e2] = add if cur is None else cur + add
        return TimePoly(self.vars, out, self.tmax, self.xorder)

    def invert(self) -> "TimePoly":
        """Inverse in the t-truncated ring; the constant term must invert."""
        c0 = self.constant_term()
        c0_inv = c0.invert()
        rest = self - TimePoly.constant(c0, self.vars, self.tmax, self.xorder)
        nu = rest.scale_series(c0_inv)
        acc = self.one_like()
        term = self.one_like()
        for _ in range(self.tmax):
            term = -(term * nu)
            if term.is_zero():
                break
            acc = acc + term
        out = acc.scale_series(c0_inv)
        if rest.is_zero() and self.is_exact:
            return out  # inverse of a t-constant stays polynomial in t
        return out.with_tvalid(min(self.tvalid, self.tmax))

    def with_tvalid(self, tvalid: int) -> "TimePoly":
        return TimePoly(self.vars, self.terms, self.tmax, self.xorder,
                        min(self.tvalid, tvalid))

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
