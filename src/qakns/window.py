"""The precision model: the window rules of every truncated carrier.

Each carrier knows its coefficients exactly inside a window of its
grading, and this module holds every rule that moves a window through an
operation. There are two directions.

* An upper window, degrees <= v, on a carrier capped at degree `cap`:
  `XSeries.valid` in the x-degree, `TimePoly.tvalid` in the total
  t-degree. v == cap + 1 marks an exact carrier, with nothing discarded
  above the cap.
* A lower window, degrees >= f: `MZSeries.zvalid` in the z-degree.
  f == -inf marks an exact carrier.

`top` is a carrier's highest stored degree: -1 for an empty upper carrier,
and the floor itself for an empty lower one. An empty exact carrier is an
exact zero, and in a product it annihilates the other factor, whatever
that factor's window, in both directions. A zero known only through its
window keeps that window. A sum is exact where both terms are, which is
a plain min (upper) or max (lower) and is written where it is used.
`determined` is the one query the verdict asks of an upper window:
whether it holds any coefficient at all.
"""

from __future__ import annotations

import math

NEG_INF = -math.inf


def determined(v) -> bool:
    """Whether an upper window v determines any coefficient: degree 0 is in it."""
    return v >= 0


def upper_product(cap, va, ta, vb, tb):
    """Upper window of a * b from the windows v and tops t of the factors.

    Exact factors give an exact product unless a pair of their terms
    overflows the cap, which leaves the product known through the cap;
    an exact zero gives an exact zero; otherwise the smaller window holds.
    """
    if va > cap and vb > cap:
        return cap if ta + tb > cap else cap + 1
    if va > cap and ta < 0 or vb > cap and tb < 0:
        return cap + 1
    return va if va < vb else vb


def upper_shift(cap, v, top, k):
    """Upper window of a carrier whose degrees all move by k (x**k * a, a
    derivation for k = -1): an exact carrier stays exact unless a term
    moves past the cap, and an inexact one moves its window with it."""
    if v > cap:
        return cap if top + k > cap else cap + 1
    return v + k


def upper_inverse(cap, v, constant: bool):
    """Upper window of 1/a: the reciprocal of an exact constant is exact,
    and any other inverse is a series known through the cap at most."""
    if constant and v > cap:
        return cap + 1
    return v if v < cap else cap


def product_floor(a_floor, a_top, b_floor, b_top):
    """Lowest exactly-known degree of a graded product.

    Each factor is exact from its floor up to its top (a carrier with no
    stored terms reports its floor as its top); -inf marks an exact factor.
    """
    return max(a_floor + b_top, b_floor + a_top)


def lower_terms(terms: dict, floor) -> dict:
    """The term map a lower-window carrier stores: no degree below `floor`,
    where nothing is known, and no exact zero, which needs no storage."""
    return {d: m for d, m in terms.items() if d >= floor and not m.is_zero_exact()}


def add_terms(a: dict, b: dict, negate=False) -> dict:
    """a + b, or a - b with `negate`, degree by degree, for the carriers
    that store a map of terms; the sum's window is the caller's."""
    out = dict(a)
    for d, m in b.items():
        if negate:
            m = -m
        cur = out.get(d)
        out[d] = m if cur is None else cur + m
    return out
