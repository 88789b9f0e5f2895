"""The sum-of-products kernels against the pairwise product-and-add loops.

`XSeries.dot`, `TimePoly.dot` and `MatSeries.dot` form a whole sum of
products and reduce it once. The references below are the pairwise loops
they replace: one reduced product per pair, folded with `+`. Both must
give the same numerators, denominator, `valid`, `top` and `tvalid`.

`ref_xmul` and `ref_tmul` keep the product rules that each carrier wrote
for itself before they shared one precision model (`qakns.window`).
`ref_xmul_shared` is the shared rule, under which an exact-zero factor
gives an exact zero; a differential test pins where the two differ.
A single pair with an exact-one factor skips the convolution; its tests
hold that path to the general one field by field.
"""

import random
from fractions import Fraction as F
from math import gcd
from operator import add, mul

import pytest

from qakns.matseries import MatSeries
from qakns.series import TruncationError, XSeries
from qakns.timepoly import TimePoly

N = 6
VARS = ((1, 0), (1, 1), (2, 0))
TMAX = 4
DENS = (1, 2, 3, 4, 6, 7, 12)


# -- references: one reduced product per pair, folded with + --------------


def ref_xmul(a, b):
    """a * b by the pairwise kernel: convolve, then reduce. A zero factor
    keeps the smaller `valid`, as in the earlier XSeries rule."""
    an, bn = a.nums, b.nums
    if len(an) != len(bn):
        raise a._mismatch(b)
    n = len(an) - 1
    ta, tb = a.top, b.top
    va, vb = a.valid, b.valid
    if va > n and vb > n:
        valid = n + 1 if ta < 0 or tb < 0 or ta + tb <= n else n
    else:
        valid = min(va, vb)
    if ta < 0:
        return a._replace(valid)
    if tb < 0:
        return b._replace(valid)
    rb = bn[::-1]
    top = min(ta + tb, n)
    out = [0] * (n + 1)
    for k in range(top + 1):
        lo = k - tb if k > tb else 0
        hi = k if k < ta else ta
        out[k] = sum(map(mul, an[lo:hi + 1], rb[n - k + lo:n - k + hi + 1]))
    return XSeries.from_ints(out, a.den * b.den, valid, top)


def exact_zero(s):
    return s.top < 0 and s.is_exact


def ref_xmul_shared(a, b):
    """`ref_xmul` under the shared rule: an exact-zero factor annihilates."""
    prod = ref_xmul(a, b)
    if exact_zero(a) or exact_zero(b):
        return prod._replace(prod.order + 1)
    return prod


def ref_xdot(pairs):
    acc = None
    for a, b in pairs:
        term = ref_xmul_shared(a, b)
        acc = term if acc is None else acc._combine(term, add)
    return acc


def ref_tmul(p, q):
    """p * q by the pair loop over monomials, coefficients by `ref_xmul`."""
    p._check(q)
    tmax = p.tmax
    if not p.terms or not q.terms:
        for z in (p, q):
            if not z.terms and z.tvalid > tmax:
                return z
        return p._like({}, min(p.tvalid, q.tvalid))
    exact = p.tvalid > tmax and q.tvalid > tmax
    cap = tmax if exact else min(p.tvalid, q.tvalid)
    out, overflow = {}, False
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            if sum(ea) + sum(eb) > cap:
                overflow = True
                continue
            e = tuple(map(add, ea, eb))
            prod = ref_xmul(ca, cb)
            out[e] = prod if e not in out else out[e]._combine(prod, add)
    if not exact:
        tvalid = cap
    else:
        tvalid = tmax if overflow else tmax + 1
    return p._like(out, tvalid)


def ref_tdot(pairs):
    acc = None
    for p, q in pairs:
        term = ref_tmul(p, q)
        acc = term if acc is None else acc + term
    return acc


def ref_matmul(a, b, mul_entry):
    n = a.n
    return MatSeries([
        [_fold([mul_entry(a[i, k], b[k, j]) for k in range(n)]) for j in range(n)]
        for i in range(n)
    ])


def _fold(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def fields(s):
    return s.nums, s.den, s.valid, s.top


def tfields(p):
    return p.tvalid, {e: fields(c) for e, c in p.terms.items()}


# -- operands ----------------------------------------------------------------


def rnd_x(rng, order=N, big=False):
    """Zero (exact or not), constant, sparse, dense or a polynomial of
    degree up to the order, with mixed denominators, exact or not; with
    `big`, numerators and denominators run to some 80 bits."""
    kind = rng.randrange(6)
    if kind == 0:
        z = XSeries.zero(order)
        return z if rng.random() < 0.5 else z.with_valid(rng.randint(-1, order))
    top = (0, rng.randrange(order + 1), order, order, order)[kind - 1]
    cs = [F(0)] * (order + 1)
    for k in range(top + 1):
        if kind != 2 or rng.random() < 0.5 or k == top:
            cs[k] = F(rng.randint(-9, 9) or 1, rng.choice(DENS))
            if big:
                cs[k] *= F(rng.getrandbits(80) | 1, rng.getrandbits(72) | 1)
    s = XSeries(cs)
    return s if rng.random() < 0.6 else s.with_valid(rng.randint(-1, order))


def rnd_t(rng):
    """Exact, t-truncated or x-inexact; exact zero, tvalid-only zero, or a
    high-degree polynomial whose products overflow tmax."""
    kind = rng.randrange(7)
    zero = TimePoly.zero(VARS, TMAX, N)
    if kind == 0:
        return zero
    if kind == 1:
        return zero.with_tvalid(rng.randint(-1, TMAX))
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = tuple(rng.randint(0, 2) for _ in VARS)
        if sum(e) <= TMAX and (kind != 2 or sum(e) >= 2):
            terms[e] = rnd_x(rng)
    p = TimePoly(VARS, terms, TMAX, N)
    if kind == 3:
        return p.with_tvalid(rng.randint(-1, TMAX))
    if kind == 4:
        return p.map_coeffs(lambda c: c.with_valid(rng.randint(1, N)))
    return p


# -- XSeries.dot ---------------------------------------------------------------


def test_xseries_dot_matches_pairwise_loop():
    rng = random.Random(21)
    # the x-order of the operands, and whether their coefficients are wide
    for order, big, trials in ((N, False, 600), (16, False, 300),
                               (N, True, 300), (16, True, 300)):
        seen = {"mixed dens": 0, "exact zero": 0, "inexact zero": 0,
                "overflow": 0, "inexact": 0, "swapped": 0, "cut": 0,
                "wide": 0}
        for _ in range(trials):
            pairs = [(rnd_x(rng, order, big), rnd_x(rng, order, big))
                     for _ in range(rng.randint(1, 6))]
            got, ref = XSeries.dot(pairs), ref_xdot(pairs)
            assert fields(got) == fields(ref), pairs
            assert gcd(got.den, *got.nums) == 1
            live = [(a, b) for a, b in pairs if a.top >= 0 and b.top >= 0]
            seen["mixed dens"] += len({a.den * b.den for a, b in live}) > 1
            for a, b in pairs:
                for s in (a, b):
                    seen["exact zero"] += s.top < 0 and s.is_exact
                    seen["inexact zero"] += s.top < 0 and not s.is_exact
                seen["overflow"] += (a.is_exact and b.is_exact and a.top >= 0
                                     and b.top >= 0 and a.top + b.top > order)
            for a, b in live:
                # the kernel runs over the shorter factor's nonzero terms,
                # and cuts a term's products at the order
                seen["swapped"] += a.top > b.top
                short, tb = (b, a.top) if a.top > b.top else (a, b.top)
                seen["cut"] += sum(1 for i, x in enumerate(short.nums)
                                   if x and i + tb > order)
                seen["wide"] += max(map(abs, a.nums + b.nums)).bit_length() > 64
            seen["inexact"] += not ref.is_exact
        assert all(v > 20 for k, v in seen.items() if k != "wide"), (order, seen)
        assert (seen["wide"] > 20) == big, (order, seen)


class Counted(int):
    """An integer numerator that counts the products it takes part in."""

    calls = 0

    def __mul__(self, other):
        Counted.calls += 1
        return int(self) * int(other)

    __rmul__ = __mul__


def test_xseries_dot_multiplies_over_the_shorter_factor():
    # one product per nonzero term of the shorter factor and term of the
    # other, cut at the order; the pairs share a denominator, so no term
    # is scaled to the lcm. Looping over the longer factor gives the same
    # sum, so only the count tells the two apart
    def series(nums):
        nums = tuple(map(Counted, nums))
        return XSeries._raw(nums, 1, N + 1, max(k for k, v in enumerate(nums) if v))

    dense = series([1, -2, 3, -4, 5, -6, 7])
    sparse = series([0, 0, 0, 5, 0, 0, 0])  # shorter: top 3 < 6
    for a, b in ((dense, sparse), (sparse, dense)):
        Counted.calls = 0
        got = XSeries.dot([(a, b)])
        assert Counted.calls == N + 1 - 3  # the one term x**3, cut at x**N
        assert got.nums == (0, 0, 0, 5, -10, 15, -20)


def test_shared_rule_differs_from_the_earlier_xseries_rule_only_on_an_exact_zero():
    # TimePoly's earlier rule already was the shared one: the pairwise
    # test above holds its product to `ref_tmul` unchanged
    rng = random.Random(25)
    differ = 0
    for _ in range(600):
        a, b = rnd_x(rng), rnd_x(rng)
        got, old = a * b, ref_xmul(a, b)
        if (exact_zero(a) or exact_zero(b)) and not old.is_exact:
            # the window becomes exact; the coefficients are the same
            assert got.is_exact and (got.nums, got.den) == (old.nums, old.den)
            differ += 1
        else:
            assert fields(got) == fields(old)
    assert differ > 20


def test_xseries_dot_cancels_to_a_canonical_zero():
    a, b = XSeries.poly([F(1, 3), 2], N), XSeries.poly([1, F(-1, 5)], N)
    got = XSeries.dot([(a, b), (-a, b)])
    assert fields(got) == ((0,) * (N + 1), 1, N + 1, -1)
    hidden = XSeries.dot([(a, b), (-a, b.with_valid(2))])
    assert fields(hidden) == ((0,) * (N + 1), 1, 2, -1)


def test_xseries_dot_errors():
    one4, one5 = XSeries.one(4), XSeries.one(5)
    with pytest.raises(TruncationError):
        XSeries.dot([(one4, one5)])
    with pytest.raises(TruncationError):
        XSeries.dot([(one4, one4), (one5, one5)])
    with pytest.raises(TruncationError):
        XSeries.dot([(one4, one4), (one4, one5)])
    with pytest.raises(ValueError, match="empty"):
        XSeries.dot([])


# -- TimePoly.dot ----------------------------------------------------------------


def test_timepoly_dot_matches_pairwise_loop():
    rng = random.Random(22)
    seen = {"overflow": 0, "truncated": 0, "exact zero": 0,
            "tvalid-only zero": 0}
    for _ in range(300):
        pairs = [(rnd_t(rng), rnd_t(rng)) for _ in range(rng.randint(1, 4))]
        got, ref = TimePoly.dot(pairs), ref_tdot(pairs)
        assert tfields(got) == tfields(ref), pairs
        p, q = pairs[0]  # `*` is the one-pair case
        assert tfields(p * q) == tfields(ref_tmul(p, q))
        for p, q in pairs:
            exact = p.tvalid > TMAX and q.tvalid > TMAX
            seen["overflow"] += exact and ref_tmul(p, q).tvalid == TMAX
            seen["truncated"] += not exact
            for z in (p, q):
                seen["exact zero"] += not z.terms and z.tvalid > TMAX
                seen["tvalid-only zero"] += not z.terms and z.tvalid <= TMAX
    assert all(v > 20 for v in seen.values()), seen


def test_timepoly_dot_errors():
    t = TimePoly.zero(VARS, TMAX, N).variable((1, 0))
    other = TimePoly.zero(VARS, TMAX + 1, N).variable((1, 0))
    with pytest.raises(ValueError, match="incompatible"):
        TimePoly.dot([(t, other)])
    with pytest.raises(ValueError, match="incompatible"):
        TimePoly.dot([(t, t), (other, other)])
    with pytest.raises(ValueError, match="empty"):
        TimePoly.dot([])


# -- the exact-one path ------------------------------------------------------
#
# A single pair with an exact-one factor returns the other factor itself.
# The general path is forced by a second pair with an exact-zero factor,
# which adds no term and leaves the window alone.


def x_partners(rng):
    """Exact, inexact, exact-zero and window-only-zero partners, a
    constant 2 and an inexact one among them, and random operands."""
    one, zero = XSeries.one(N), XSeries.zero(N)
    fixed = [XSeries.poly([F(1, 3), 0, -2], N),
             XSeries.poly([5, 1], N).with_valid(3), zero, zero.with_valid(2), zero.with_valid(-1), XSeries.const(2, N),
             one, one.with_valid(N)]
    return fixed + [rnd_x(rng) for _ in range(200)]


def inexact_x_ones():
    """The constant 1 known only through a window: valid <= order."""
    return [XSeries.one(N).with_valid(v) for v in range(-1, N + 1)]


def test_xseries_dot_returns_the_partner_of_an_exact_one():
    rng = random.Random(27)
    one, zero = XSeries.one(N), XSeries.zero(N)
    assert one.is_one() and not any(s.is_one() for s in inexact_x_ones())
    for b in x_partners(rng):
        general = XSeries.dot([(one, b), (zero, b)])
        for pair in ((one, b), (b, one)):
            got = XSeries.dot([pair])
            assert got is b or b.is_one() and got is one  # two ones: either
            assert fields(got) == fields(general), b
        # an inexact one takes the general path: a fresh product
        for inexact in inexact_x_ones():
            if b.is_one():
                continue
            for pair in ((inexact, b), (b, inexact)):
                got = XSeries.dot([pair])
                assert got is not b
                assert fields(got) == fields(XSeries.dot([pair, (zero, b)])), b
        with pytest.raises(TruncationError):
            XSeries.dot([(XSeries.one(N + 1), b)])
        with pytest.raises(TruncationError):
            XSeries.dot([(b, XSeries.one(N - 1))])


def test_timepoly_dot_returns_the_partner_of_an_exact_one():
    rng = random.Random(28)
    ring = TimePoly.zero(VARS, TMAX, N)
    one, zero = ring.one_like(), ring.zero_like()
    # ones known only through a t- or x-window, another constant, a lone
    # time and a one plus a time: each takes the general path
    not_ones = [one.with_tvalid(v) for v in range(TMAX + 1)] + [
        ring.constant(XSeries.one(N).with_valid(v)) for v in range(-1, N + 1)
    ] + [ring.constant(2), ring.variable(VARS[0]), one + ring.variable(VARS[0])]
    assert one.is_one() and not any(p.is_one() for p in not_ones)
    partners = [zero, zero.with_tvalid(1), zero.with_tvalid(-1), one,
                *not_ones, *(rnd_t(rng) for _ in range(200))]
    for q in partners:
        general = TimePoly.dot([(one, q), (zero, q)])
        for pair in ((one, q), (q, one)):
            got = TimePoly.dot([pair])
            assert got is q or q.is_one() and got is one  # two ones: either
            assert tfields(got) == tfields(general), q
        if not q.is_one():
            for p in not_ones:
                for pair in ((p, q), (q, p)):
                    got = TimePoly.dot([pair])
                    assert got is not q
                    assert tfields(got) == tfields(TimePoly.dot([pair, (zero, q)]))
        for other in (TimePoly.zero(VARS, TMAX + 1, N),
                      TimePoly.zero(VARS, TMAX, N + 1),
                      TimePoly.zero(VARS[:2], TMAX, N)):
            with pytest.raises(ValueError, match="incompatible"):
                TimePoly.dot([(other.one_like(), q)])
            with pytest.raises(ValueError, match="incompatible"):
                TimePoly.dot([(q, other.one_like())])


def test_scale_series_by_an_exact_one_returns_the_polynomial():
    rng = random.Random(29)
    zero = XSeries.zero(N)
    for p in [rnd_t(rng) for _ in range(200)]:
        assert p.scale_series(XSeries.one(N)) is p
        for s in inexact_x_ones() + [XSeries.const(2, N), XSeries.one(N)]:
            got = p.scale_series(s)
            general = p.map_coeffs(lambda c: XSeries.dot([(c, s), (zero, c)]))
            assert tfields(got) == tfields(general), (p, s)
            assert (got is p) == s.is_one()
        if p.terms:
            with pytest.raises(TruncationError):
                p.scale_series(XSeries.one(N + 1))


# -- MatSeries.dot -----------------------------------------------------------------


@pytest.mark.parametrize("ring", ["xseries", "timepoly"])
def test_matseries_dot_matches_pairwise_loop(ring):
    rng = random.Random(24)
    entry, mul_entry, eq = {
        "xseries": (rnd_x, ref_xmul_shared, fields),
        "timepoly": (rnd_t, ref_tmul, tfields),
    }[ring]
    for _ in range(25):
        n = rng.choice((2, 3))
        blocks = [
            tuple(MatSeries([[entry(rng) for _ in range(n)] for _ in range(n)])
                  for _ in range(2))
            for _ in range(rng.randint(1, 3))
        ]
        got = MatSeries.dot(blocks)
        ref = _fold([ref_matmul(a, b, mul_entry) for a, b in blocks])
        for i in range(n):
            for j in range(n):
                assert eq(got[i, j]) == eq(ref[i, j]), (i, j)
        a, b = blocks[0]
        one = ref_matmul(a, b, mul_entry)
        assert all(eq((a @ b)[i, j]) == eq(one[i, j])
                   for i in range(n) for j in range(n))


def ref_matdot(blocks):
    """Every pair (A[i, k], B[k, j]) of every block, handed to the ring dot."""
    n = blocks[0][0].n
    dot = type(blocks[0][0][0, 0]).dot
    return [[dot([(a[i, k], b[k, j]) for a, b in blocks for k in range(n)])
             for j in range(n)] for i in range(n)]


def rnd_block(rng, n, entry, proto):
    """A dense random block, or a diagonal, unit, identity or zero one."""
    kind = rng.randrange(6)
    if kind == 0:
        return MatSeries.diag([entry(rng) for _ in range(n)], proto)
    if kind == 1:
        return MatSeries.unit(n, rng.randrange(n), proto)
    if kind == 2:
        return MatSeries.identity(n, proto)
    if kind == 3:
        return MatSeries.zero(n, proto)
    return MatSeries([[entry(rng) for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("ring", ["xseries", "timepoly"])
def test_matseries_dot_matches_the_all_pairs_dot(ring):
    # only live pairs are formed: an exact-zero factor adds no term, and an
    # entry whose pairs all have one is the ring's exact zero
    rng = random.Random(26)
    entry, proto, eq = {
        "xseries": (rnd_x, XSeries.zero(N), fields),
        "timepoly": (rnd_t, TimePoly.zero(VARS, TMAX, N), tfields),
    }[ring]
    seen = {"n": set(), "blocks": set(), "all dead": 0, "window zero": 0}
    for _ in range(150):
        n = rng.choice((1, 2, 3))
        blocks = [(rnd_block(rng, n, entry, proto), rnd_block(rng, n, entry, proto))
                  for _ in range(rng.choice((1, 1, 2, 3)))]
        got, ref = MatSeries.dot(blocks), ref_matdot(blocks)
        for i in range(n):
            for j in range(n):
                assert eq(got[i, j]) == eq(ref[i][j]), (n, i, j)
                pairs = [(a[i, k], b[k, j]) for a, b in blocks for k in range(n)]
                live = [not (a.is_zero() and a.is_exact or b.is_zero() and b.is_exact)
                        for a, b in pairs]
                seen["all dead"] += not any(live)
                seen["window zero"] += any(
                    s.is_zero() and not s.is_exact for pair in pairs for s in pair)
        seen["n"].add(n)
        seen["blocks"].add(len(blocks) > 1)
    assert seen["n"] == {1, 2, 3} and seen["blocks"] == {False, True}
    assert seen["all dead"] > 50 and seen["window zero"] > 50, seen


def test_matseries_dot_errors():
    one = XSeries.one(N)
    m2 = MatSeries.identity(2, one)
    m3 = MatSeries.identity(3, one)
    with pytest.raises(ValueError, match="dimension mismatch"):
        MatSeries.dot([(m2, m3)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        MatSeries.dot([(m2, m2), (m3, m3)])
    with pytest.raises(ValueError, match="empty"):
        MatSeries.dot([])


def test_matmul_reduces_each_entry_once(monkeypatch):
    # an n x n product over x-series makes n**2 reductions; one reduced
    # product per pair and one per partial sum made 45 at n = 3
    rng = random.Random(25)
    n = 3

    def dense():
        return XSeries.poly([F(rng.randint(1, 9), rng.choice(DENS))
                             for _ in range(3)], N)

    a, b = (MatSeries([[dense() for _ in range(n)] for _ in range(n)])
            for _ in range(2))
    calls = []
    from_ints = XSeries.from_ints

    def counting(*args):
        calls.append(None)
        return from_ints(*args)

    monkeypatch.setattr(XSeries, "from_ints", staticmethod(counting))
    a @ b
    assert len(calls) == n * n
