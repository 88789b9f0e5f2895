"""Matrix Laurent series: products, inversion, projections, validity."""

import math
import random
from fractions import Fraction as F

import pytest

from qakns.calculus import dilate, q_derive
from qakns.matseries import MatSeries
from qakns.qop import exp_q_laurent
from qakns.series import XSeries
from qakns.timepoly import TimePoly
from qakns.zseries import InsufficientDepthError, MZSeries, derive_through

N = 8


def ident(n=2):
    return MZSeries.identity(n, XSeries.one(N))


def mat(rows):
    return MatSeries.from_scalars(rows, N)


def test_za_times_inverse():
    a = MZSeries.from_term(2, 1, mat([[1, 0], [0, -1]]))
    ainv = MZSeries.from_term(2, -1, mat([[1, 0], [0, -1]]))
    assert ((a * ainv) - ident()).is_zero()


def test_identity_neutral():
    s = MZSeries(2, {0: mat([[1, 0], [0, 1]]), -1: mat([[0, 2], [3, 0]])})
    assert ((ident() * s) - s).is_zero()


def test_first_order_inverse_convolution():
    w1 = mat([[0, F(1, 2)], [F(-1, 2), 0]])
    s_plus = ident() + MZSeries.from_term(2, -1, w1)
    s_minus = ident() - MZSeries.from_term(2, -1, w1)
    prod = s_plus * s_minus
    expect = ident() - MZSeries.from_term(2, -2, w1 @ w1)
    assert (prod - expect).is_zero()


def test_nilpotent_inverse_exact():
    nil = mat([[0, 1], [0, 0]])
    s = ident() + MZSeries.from_term(2, -1, nil)
    inv = s.invert(-6)
    assert inv.is_exact
    assert (inv - (ident() - MZSeries.from_term(2, -1, nil))).is_zero()


def test_neumann_inverse_roundtrip():
    w1 = mat([[0, F(1, 2)], [F(-1, 2), 0]])
    s = ident() + MZSeries.from_term(2, -1, w1)
    inv = s.invert(-6)
    assert ((s * inv) - ident()).is_zero()
    assert ((inv * s) - ident()).is_zero()
    assert (inv.invert(-6) - s).is_zero()
    assert inv.zvalid == -6  # honest marking of the cut tail


def whole_neumann_inverse(s, floor):
    """The Neumann series of `invert`, each term multiplied out whole."""
    step = -MZSeries(
        s.n, {d: m for d, m in s.terms.items() if d < 0}, s.zvalid, s.proto
    )
    acc = term = MZSeries.identity(s.n, s.proto)
    lost = False
    for _ in range(-floor):
        term = (term * step).truncate_below(floor)
        if term.is_zero_exact():
            break
        acc = acc + term
    else:
        lost = not (term * step).truncate_below(floor).is_zero_exact()
    zv = max(acc.zvalid, s.zvalid, floor if lost else -math.inf)
    return MZSeries(s.n, acc.terms, zv, s.proto)


def test_invert_matches_the_whole_neumann_build():
    rng = random.Random(23)
    nil = mat([[0, 1], [0, 0]])
    exact = 0
    for trial in range(60):
        terms = {0: mat([[1, 0], [0, 1]])}
        for d in range(-rng.randint(1, 3), 0):
            if rng.random() < 0.8:
                terms[d] = MatSeries(
                    [[_rnd_xseries(rng, trial % 2 == 0) for _ in range(2)]
                     for _ in range(2)]
                )
        if trial % 5 == 0:
            # nilpotent lowest block: products below the floor may vanish
            terms[min(terms) - 1] = nil
        zvalid = -math.inf if trial % 3 else -rng.randint(2, 8)
        s = MZSeries(2, terms, zvalid)
        for floor in (-1, -2, -3, -5):
            inv = s.invert(floor)
            assert inv == whole_neumann_inverse(s, floor), (trial, floor)
            exact += inv.is_exact
    assert exact > 0


def test_invert_requires_identity_leading_term():
    s = MZSeries.from_term(2, 0, mat([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        s.invert(-4)


def test_projections_and_residue():
    a = mat([[1, 0], [0, -1]])
    r = mat([[0, 1], [1, 0]])
    s = MZSeries(2, {1: a, -1: r})
    assert (s.project("plus") - MZSeries.from_term(2, 1, a)).is_zero()
    assert (s.project("minus") - MZSeries.from_term(2, -1, r)).is_zero()
    assert (s.project("plus") + s.project("minus") - s).is_zero()
    assert (s.coeff(-1) - r).is_zero()
    assert s.project("plus").coeff(-1).is_zero()


def test_mul_validity_rule():
    w1 = mat([[0, 1], [1, 0]])
    tail = MZSeries(2, {-1: w1}, zvalid=-3)  # unknown below z^-3
    za = MZSeries.from_term(2, 1, mat([[1, 0], [0, -1]]))
    prod = tail * za
    assert prod.zvalid == -2  # one order lost against a degree-1 factor
    exact = MZSeries.from_term(2, -1, w1)
    assert (exact * exact).is_exact


def test_residue_depth_guard():
    s = MZSeries(2, {0: mat([[1, 0], [0, 1]])}, zvalid=0)
    with pytest.raises(InsufficientDepthError):
        s.coeff(-1)


def test_mz_associativity_random():
    rng = random.Random(9)

    def rnd():
        terms = {}
        for d in range(-2, 2):
            terms[d] = mat(
                [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            )
        return MZSeries(2, terms)

    for _ in range(5):
        a, b, c = rnd(), rnd(), rnd()
        assert (((a * b) * c) - (a * (b * c))).is_zero()


def test_inexact_zero_entries_are_kept():
    # zero-within-validity must not be silently promoted to exact zero
    limited = XSeries.zero(N).with_valid(3)
    m = MatSeries([[limited, XSeries.zero(N)], [XSeries.zero(N), limited]])
    s = MZSeries(2, {-1: m})
    assert (-1) in s.terms
    assert s.is_zero()
    assert s.min_entry_valid() == 3


def test_mul_stores_nothing_below_its_floor():
    a = MZSeries(
        2, {0: mat([[1, 0], [0, 1]]), -1: mat([[0, 1], [1, 0]]),
            -2: mat([[2, 0], [0, 3]])},
        zvalid=-2,
    )
    b = MZSeries(
        2, {1: mat([[1, 0], [0, -1]]), 0: mat([[1, 2], [3, 4]]),
            -1: mat([[0, 1], [0, 0]])},
    )
    for prod in (a * b, b * a):
        assert prod.zvalid == -1  # a's floor, raised by b's degree-1 term
        assert min(prod.terms) >= prod.zvalid
    expect = a.coeff(0) @ b.coeff(-1) + a.coeff(-1) @ b.coeff(0) \
        + a.coeff(-2) @ b.coeff(1)
    assert ((a * b).coeff(-1) - expect).is_zero()


def _exp_classical(a_values, order, guard=4):
    """sum_j z**j diag(a**j / j!) x**j, with inexact zeros past the x order."""
    hidden = XSeries.zero(order).with_valid(order)

    def diag(entries):
        n = len(entries)
        zero = XSeries.zero(order)
        return MatSeries([[entries[i] if i == j else zero for j in range(n)]
                          for i in range(n)])

    terms = {
        j: diag([XSeries.monomial(F(a) ** j / math.factorial(j), j, order)
                 for a in a_values])
        for j in range(order + 1)
    }
    for j in range(order + 1, order + guard + 1):
        terms[j] = diag([hidden] * len(a_values))
    return MZSeries(len(a_values), terms)


def _laurent_factor():
    """An x-dependent I + f_1 z**-1 + f_2 z**-2 with full 2x2 coefficients."""
    def xmat(rows):
        return MatSeries([[XSeries.poly(c, N) for c in r] for r in rows])

    return MZSeries(2, {
        0: xmat([[[1, 2], [0, 0, 1]], [[F(1, 3)], [1, -1]]]),
        -1: xmat([[[0, 1], [2]], [[-1, 0, 3], [F(1, 2), 1]]]),
        -2: xmat([[[5], [0, F(-2, 7)]], [[0, 0, 0, 1], [1]]]),
    })


def _calculus(q):
    """The entrywise derivation and dilation at q, as the solvers pass them."""
    return (lambda s: q_derive(s, q)), (lambda s: dilate(s, q))


@pytest.mark.parametrize("classical", [False, True], ids=["q", "classical"])
def test_derive_through_is_the_leibniz_reduction(classical):
    # D(f E) == (D f + (sigma f) zA) E for D E = zA E, inside the known window
    a_values = [2, F(-1, 3)]
    if classical:
        derive, sigma = _calculus(1)
        e = _exp_classical(a_values, N)
    else:
        derive, sigma = _calculus(F(3, 2))
        e = exp_q_laurent(a_values, F(3, 2), N)
    a_mat = MatSeries.diag_const(a_values, XSeries.zero(N))
    a_z = MZSeries.from_term(2, 1, a_mat)
    f = _laurent_factor()
    lhs = (f * e).map_entries(derive)
    rhs = derive_through(f, a_z, derive, sigma) * e
    assert not lhs.is_zero() and lhs.min_entry_valid() >= N - 1
    assert (lhs - rhs).is_zero()
    if not classical:
        # the dilation is what makes the rule twisted: sigma = id fails
        untwisted = derive_through(f, a_z, derive, lambda s: s) * e
        assert not (lhs - untwisted).is_zero()


def test_windowed_derive_through_keeps_the_whole_floor():
    derive, sigma = _calculus(F(3, 2))
    f = _laurent_factor()
    g = MZSeries(2, {
        1: MatSeries.diag_const([2, F(-1, 3)], XSeries.zero(N)),
        -1: f.coeff(-1),
    }, zvalid=-2)
    whole = derive_through(f, g, derive, sigma)
    assert whole.zvalid == -2 and set(whole.terms) == {-2, -1, 0, 1}
    for lo, hi in ((-1, -1), (-4, 0), (0, 1), (2, 5)):
        part = derive_through(f, g, derive, sigma, lo, hi)
        assert part.zvalid == whole.zvalid
        assert part.terms == {
            d: m for d, m in whole.terms.items() if lo <= d <= hi
        }


# -- product_coeff: one degree of a product -----------------------------------

TVARS = ((1, 0), (2, 0))
TMAX = 2


def _rnd_xseries(rng, exact=False):
    if rng.random() < 0.2:
        return XSeries.zero(N)
    s = XSeries.poly(
        [F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(3)], N
    )
    return s if exact or rng.random() < 0.7 else s.with_valid(rng.randint(2, N))


def _rnd_timepoly(rng, exact=False):
    terms = {}
    for e in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1)):
        if rng.random() < 0.5:
            terms[e] = _rnd_xseries(rng, exact)
    tvalid = None if exact or rng.random() < 0.7 else rng.randint(0, TMAX)
    return TimePoly(TVARS, terms, TMAX, N, tvalid)


def _rnd_mz(rng, entry, lo=-4, hi=2):
    terms = {
        d: MatSeries([[entry(rng) for _ in range(2)] for _ in range(2)])
        for d in range(lo, hi + 1)
        if rng.random() < 0.7
    }
    zvalid = -math.inf if rng.random() < 0.5 else rng.randint(lo - 1, lo + 2)
    proto = entry(rng).zero_like()
    return MZSeries(2, terms, zvalid, proto)


def _cancelling_pair(rng, entry, exact):
    """a, b whose product vanishes at z**0: M N + M (-N) = 0.

    With exact entries the zero is exact and the product stores nothing
    there; otherwise it is a zero within validity and stays stored.
    """
    m, nn = (
        MatSeries([[entry(rng, exact) for _ in range(2)] for _ in range(2)])
        for _ in range(2)
    )
    return MZSeries(2, {0: m, 1: m}), MZSeries(2, {0: nn, -1: -nn})


def _pairs():
    rng = random.Random(17)
    for entry in (_rnd_xseries, _rnd_timepoly):
        for _ in range(20):
            yield _rnd_mz(rng, entry), _rnd_mz(rng, entry)
        for exact in (True, True, False):
            yield _cancelling_pair(rng, entry, exact)
        yield _rnd_mz(rng, entry), MZSeries.zero(2, entry(rng).zero_like())


def test_product_coeff_matches_full_product():
    cancelled = 0  # degrees whose pairs sum to an exact zero
    for a, b in _pairs():
        full = a * b
        floor = full.zvalid
        if full.terms:
            lo, hi = min(full.terms), max(full.terms)
        else:
            lo = hi = 0 if floor == -math.inf else floor
        if floor != -math.inf:
            lo = floor
        for d in range(lo - 1, hi + 2):
            if d < floor:
                with pytest.raises(InsufficientDepthError):
                    full.coeff(d)
                with pytest.raises(InsufficientDepthError):
                    a.product_coeff(b, d)
                continue
            assert a.product_coeff(b, d) == full.coeff(d)
            if d not in full.terms and any(d - da in b.terms for da in a.terms):
                cancelled += 1
    assert cancelled > 0
