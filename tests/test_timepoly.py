"""Time polynomials: ring structure, calculus, substitutions, inversion."""

from fractions import Fraction as F
from math import comb

import pytest

from qakns.report import undetermined
from qakns.series import XSeries
from qakns.timepoly import TimePoly

VARS = ((1, 0), (1, 1), (2, 0))
TMAX = 4
N = 6


def const(c):
    return TimePoly.zero(VARS, TMAX, N).constant(c)


def var(v):
    return TimePoly.zero(VARS, TMAX, N).variable(v)


def test_ring_basics():
    t = var((1, 0))
    s = var((1, 1))
    p = (t + s) * (t - s)
    expect = t * t - s * s
    assert (p - expect).is_zero()
    assert (const(1) * p - p).is_zero()
    assert (p - p).is_zero()
    assert (-p + p).is_zero()


def test_total_degree_truncation_marks_validity():
    t = var((1, 0))
    p4 = t * t * t * t
    assert p4.is_exact
    p5 = p4 * t
    assert not p5.is_exact
    assert p5.tvalid == TMAX
    assert p5.is_zero()  # nothing stored survives within the cap


def test_t_derive():
    t, s = var((1, 0)), var((1, 1))
    p = t * t * s + s
    d = p.t_derive((1, 0))
    assert (d - (const(2) * t * s)).is_zero()
    ds = p.t_derive((1, 1))
    assert (ds - (t * t + const(1))).is_zero()
    assert p.t_derive((2, 0)).is_zero()


def test_t_derive_along_a_time_the_carrier_does_not_hold():
    # p does not depend on that time: its derivative is exactly zero, even
    # where p itself is known only through its tvalid
    p = (const(1) + var((1, 0))).invert()
    assert p.tvalid == TMAX
    d = p.t_derive((3, 1))
    assert d.terms == {} and d.tvalid == TMAX + 1


def test_exact_zero_times_a_truncated_polynomial_is_exact():
    # the rule itself is checked on every carrier in test_window.py; here,
    # adding such a product to an exact polynomial keeps that one exact
    t = var((1, 0))
    inv = (const(1) + t).invert()
    zero = TimePoly.zero(VARS, TMAX, N)
    assert (t + zero * inv) == t and (t + zero * inv).is_exact


def ref_shift_var(p, v, s):
    """t_v -> t_v + s by one product per (monomial, power), folded with +."""
    i = p.vars.index(v)
    out = {}
    powers = [XSeries.one(p.xorder)]
    for _ in range(max((e[i] for e in p.terms), default=0)):
        powers.append(powers[-1] * s)
    for e, c in p.terms.items():
        for j in range(e[i] + 1):
            e2 = tuple(x - j if idx == i else x for idx, x in enumerate(e))
            add = c.scale(comb(e[i], j)) * powers[j]
            out[e2] = add if e2 not in out else out[e2] + add
    return TimePoly(p.vars, out, p.tmax, p.xorder)


def test_shift_var_binomial():
    t = var((1, 0))
    u = var((1, 1))
    c = XSeries([F(1, 3), 0, F(-1, 4), 0, 0, 0, 0], valid=4)
    # several monomials shift onto each target monomial
    many = t * t * t + (t * t * u).scale(F(3, 2)) + t * u + const(c) * t + const(2)
    for s in (
        XSeries.monomial(1, 1, N),
        # inexact: the shift's validity reaches every shifted monomial
        XSeries([F(1, 2), F(-2, 3), 0, F(5, 7), 1, 0, 0], valid=3),
    ):
        p = t * t
        shifted = p.shift_var((1, 0), s)
        expect = t * t + const(2).scale_series(s) * t + const(1).scale_series(s * s)
        assert (shifted - expect).is_zero()
        assert shifted == ref_shift_var(p, (1, 0), s)
        assert many.shift_var((1, 0), s) == ref_shift_var(many, (1, 0), s)


def test_shift_requires_exact_polynomial():
    t = var((1, 0))
    capped = (t * t).with_tvalid(1)
    with pytest.raises(ValueError):
        capped.shift_var((1, 0), XSeries.one(N))


def test_invert_geometric():
    t = var((1, 0))
    p = const(1) + t
    inv = p.invert()
    prod = p * inv
    assert (prod - const(1)).is_zero()
    assert inv.tvalid == TMAX
    # coefficients alternate sign
    for e, c in inv.terms.items():
        deg = sum(e)
        assert c.constant_term() == F(-1) ** deg


def test_invert_needs_unit_constant():
    t = var((1, 0))
    with pytest.raises(ZeroDivisionError):
        t.invert()


def test_invert_scaled_constant_is_exact():
    p = const(F(3, 2))
    inv = p.invert()
    assert inv.is_exact
    assert (p * inv - const(1)).is_zero()


def test_invert_of_a_t_constant_reads_only_the_t_window():
    # coefficients known only through an x-window do not make the inverse
    # of a t-constant a truncated polynomial in t
    p = const(F(3, 2)).map_coeffs(lambda c: c.with_valid(2))
    inv = p.invert()
    assert inv.tvalid == TMAX + 1 and not inv.is_exact
    assert (p * inv - const(1)).is_zero()
    assert p.with_tvalid(3).invert().tvalid == 3


def test_invert_keeps_a_term_that_vanishes_only_inside_its_window():
    # p = 1 + t*r with r zero only through x**3: the t-coefficient of 1/p
    # is -r, unknown above x**3, so the inverse is neither exact nor a
    # t-constant, and each power of t keeps r's x-window
    vars_, tmax = ((1, 0),), 3
    r = XSeries.zero(N).with_valid(3)
    ring = TimePoly.zero(vars_, tmax, N)
    t = ring.variable((1, 0))
    p = ring.constant(1) + t.scale_series(r)
    inv = p.invert()
    assert not inv.is_exact and inv.tvalid == tmax
    assert sorted(inv.terms) == [(0,), (1,), (2,), (3,)]
    for d in (1, 2, 3):
        c = inv.terms[(d,)]
        assert c.is_zero() and c.valid == 3
    assert (p * inv - ring.constant(1)).is_zero()


def test_coefficient_x_validity_propagates():
    t = var((1, 0))
    limited = const(1).map_coeffs(lambda s: s.with_valid(2))
    p = t.scale_series(XSeries.monomial(1, 1, N)) + limited
    windows = {}
    assert undetermined(p, windows) is None and windows["x"] == 2


def test_constructor_rejects_malformed_terms():
    one = XSeries.one(N)
    with pytest.raises(ValueError, match="arity"):
        TimePoly(VARS, {(1, 0): one}, TMAX, N)
    with pytest.raises(ValueError, match="cap"):
        TimePoly(VARS, {(3, 2, 0): one}, TMAX, N)
    # from_monomials builds through the same constructor
    with pytest.raises(ValueError, match="arity"):
        const(0).from_monomials([((1, 0), 1)])
    with pytest.raises(ValueError, match="cap"):
        const(0).from_monomials([((3, 2, 0), 1)])
    # operations on valid carriers keep dropping exact zeros
    t = var((1, 0))
    assert (t - t).terms == {} and (t - t) == TimePoly.zero(VARS, TMAX, N)


def test_constructor_rejects_a_coefficient_of_another_x_order():
    # a foreign order is refused where it enters the ring, not at the first
    # sum as a TruncationError that names neither the ring nor the term
    ring = TimePoly.zero(VARS, TMAX, 4)
    with pytest.raises(ValueError, match="x-order 2 in a ring of x-order 4"):
        ring.constant(XSeries.one(2))
    with pytest.raises(ValueError, match="x-order 6 in a ring of x-order 4"):
        TimePoly(VARS, {(1, 0, 0): XSeries.one(6)}, TMAX, 4)
    assert ring.constant(XSeries.one(4)) == ring.constant(1)


def test_ring_keeps_the_listed_order():
    ring = TimePoly.zero(((2, 0), (1, 0)), 4, 4)
    assert ring.vars == ((2, 0), (1, 0))
    assert ring.from_monomials([((1, 0), 1)]) == ring.variable((2, 0))


def test_ring_refuses_a_time_listed_twice():
    with pytest.raises(ValueError, match=r"listed twice: \[\(1, 0\)\]"):
        TimePoly.zero(((1, 0), (2, 0), (1, 0)), 4, 4)


def _general_mul(a, b):
    """Terms and tvalid of a * b by the full pair loop and its tvalid rule.

    An exact zero operand gives an exact zero, whatever the other's tvalid.
    """
    if any(not p.terms and p.tvalid > TMAX for p in (a, b)):
        return {}, TMAX + 1
    out, overflow = {}, False
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            if sum(e) > TMAX:
                overflow = True
            else:
                out[e] = out[e] + ca * cb if e in out else ca * cb
    exact = a.tvalid > TMAX and b.tvalid > TMAX
    tvalid = (TMAX + (not overflow)) if exact else min(a.tvalid, b.tvalid)
    return {e: c for e, c in out.items() if not (c.is_zero() and c.is_exact)}, tvalid


def _general_add(a, b):
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out[e] + c if e in out else c
    out = {e: c for e, c in out.items() if not (c.is_zero() and c.is_exact)}
    return out, min(a.tvalid, b.tvalid)


def _agrees(got, reference):
    """got holds exactly the reference's terms within tvalid, at its tvalid.

    Terms above tvalid are undetermined: the reference forms some of them,
    the kernel stores none.
    """
    terms, tvalid = reference
    determined = {e: c for e, c in terms.items() if sum(e) <= tvalid}
    return got.tvalid == tvalid and got.terms == determined


def test_empty_operand_matches_general_loop():
    t, s = var((1, 0)), var((1, 1))
    full = t * t * s + const(F(2, 3)).scale_series(XSeries.monomial(1, 1, N))
    inexact_x = const(1).map_coeffs(lambda c: c.with_valid(2))
    empty = TimePoly.zero(VARS, TMAX, N)
    operands = {
        "empty exact": empty,
        "empty truncated": empty.with_tvalid(2),
        "empty at tvalid -1": empty.with_tvalid(-1),
        "full exact": full,
        "full truncated": full.with_tvalid(3),
        "inexact x": inexact_x,
        "top degree": t * t * t * t,
    }
    for na, a in operands.items():
        for nb, b in operands.items():
            if a.terms and b.terms:
                continue  # the differential covers an empty operand on either side
            assert _agrees(a * b, _general_mul(a, b)), (na, "*", nb)
            assert _agrees(a + b, _general_add(a, b)), (na, "+", nb)
            assert _agrees(a - b, _general_add(a, -b)), (na, "-", nb)


def test_general_loop_reference_on_nonempty_operands():
    # the reference above is the rule the short cut must reproduce; pin it
    # against the kernel where both operands carry terms
    t, s = var((1, 0)), var((1, 1))
    for a in (t * t * s, (t + s).with_tvalid(2), const(3) + t * t * t):
        for b in (t * s, s.with_tvalid(1), t + const(1)):
            assert _agrees(a * b, _general_mul(a, b))
            assert _agrees(a + b, _general_add(a, b))


def _random_operand(rng):
    """An exact, t-truncated or x-inexact polynomial with a few terms."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = tuple(rng.randint(0, 2) for _ in VARS)
        if sum(e) <= TMAX:
            coeffs = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
            terms[e] = XSeries.poly(coeffs, N)
    p = TimePoly(VARS, terms, TMAX, N)
    shape = rng.choice(("exact", "truncated", "inexact x"))
    if shape == "truncated":
        return p.with_tvalid(rng.randint(-1, TMAX))
    if shape == "inexact x":
        return p.map_coeffs(lambda c: c.with_valid(rng.randint(1, N)))
    return p


def test_capped_product_matches_pair_loop_on_random_operands():
    import random

    rng = random.Random(12)
    overflowed = truncated = 0
    for _ in range(300):
        a, b = _random_operand(rng), _random_operand(rng)
        ref = _general_mul(a, b)
        assert _agrees(a * b, ref), (a, b)
        assert _agrees(a + b, _general_add(a, b)), (a, b)
        exact = a.tvalid > TMAX and b.tvalid > TMAX
        overflowed += exact and ref[1] == TMAX
        truncated += not exact
    # both tvalid rules are exercised, the overflow flag among them
    assert overflowed > 10 and truncated > 100


def test_no_term_above_tvalid_along_random_chains():
    import random

    rng = random.Random(5)
    for _ in range(40):
        p = _random_operand(rng)
        for _ in range(8):
            op = rng.choice(("+", "*", "d", "cap"))
            if op == "+":
                p = p + _random_operand(rng)
            elif op == "*":
                p = p * _random_operand(rng)
            elif op == "d":
                p = p.t_derive(rng.choice(VARS))
            else:
                p = p.with_tvalid(rng.randint(-1, TMAX + 1))
            assert all(sum(e) <= p.tvalid for e in p.terms), (op, p)
