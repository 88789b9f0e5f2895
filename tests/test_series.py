"""Truncated x-series arithmetic and the validity lattice."""

from fractions import Fraction as F

import pytest

from qakns.report import first_nonzero
from qakns.series import TruncationError, XSeries

N = 8


def poly(*cs):
    return XSeries.poly(list(cs), N)


def test_difference_of_squares():
    assert ((poly(1, 1) * poly(1, -1)) - poly(1, 0, -1)).is_zero()


def test_monomial_product():
    x = XSeries.monomial(1, 1, N)
    assert (x * x - XSeries.monomial(1, 2, N)).is_zero()


def test_exp_times_exp_minus_by_direct_convolution():
    # oracle: coefficients 1/k! convolved directly
    import math
    e = XSeries.poly([F(1, math.factorial(k)) for k in range(N + 1)], N)
    em = XSeries.poly([F((-1) ** k, math.factorial(k)) for k in range(N + 1)], N)
    ce, cem = e.coeffs, em.coeffs
    expect = [F(0)] * (N + 1)
    for i in range(N + 1):
        for j in range(N + 1 - i):
            expect[i + j] += ce[i] * cem[j]
    assert expect == [1] + [0] * N
    prod = e * em
    assert (prod - XSeries.one(N)).is_zero()


def test_mul_is_commutative_and_associative():
    import random
    rng = random.Random(3)
    for _ in range(10):
        a, b, c = (
            XSeries.poly([F(rng.randint(-5, 5)) for _ in range(N + 1)], N)
            for _ in range(3)
        )
        assert ((a * b) - (b * a)).is_zero()
        assert (((a * b) * c) - (a * (b * c))).is_zero()


def test_truncation_mismatch_rejected():
    with pytest.raises(TruncationError):
        XSeries.one(4) * XSeries.one(5)


def test_poly_overflow_rejected():
    with pytest.raises(TruncationError):
        XSeries.poly([1] * (N + 3), N)


def test_validity_of_truncated_product():
    a = poly(*range(1, N + 2))  # degree 8 polynomial
    b = poly(1, 1)
    prod = a * b  # true degree 9: stored window exact, tail unknown
    assert prod.valid == N
    assert not prod.is_exact
    exact = poly(1, 2) * poly(3, 4)
    assert exact.is_exact


def test_validity_min_rule_and_is_zero_window():
    a = poly(0, 0, 0, 0, 1).with_valid(3)  # x^4 sits beyond the window
    assert a.is_zero()
    b = a + poly(0, 1)
    assert b.valid == 3
    assert first_nonzero(b) == (1, F(1))


def test_invert_roundtrip_and_constant_exactness():
    s = poly(2, 1, F(1, 3))
    inv = s.invert()
    assert ((s * inv) - XSeries.one(N)).is_zero()
    assert inv.valid == N  # non-constant reciprocal is a truncated series
    c = poly(F(7, 2)).invert()
    assert c.is_exact and c.coeffs[0] == F(2, 7)


def test_shift_down():
    x = XSeries.monomial(F(5), 3, N)
    assert (x.shift_down() - XSeries.monomial(F(5), 2, N)).is_zero()
    with pytest.raises(ValueError):
        poly(1, 1).shift_down()


# -- differential tests against a plain-Fraction reference ---------------
#
# A reference series is a (coefficient list, valid) pair; the functions
# below restate the validity rules on Fractions, independently of the
# integer-numerator kernel. `ref_mul` keeps the product rule that XSeries
# had before the carriers shared one precision model, and
# `ref_mul_shared` is the shared rule: the two differ only where an exact
# zero meets a truncated factor.

import math
import random

from qakns.matseries import MatSeries

DENS = (1, 2, 3, 4, 6, 7, 12)


def random_ref(rng, n=N):
    """A reference operand: zero, constant, sparse or dense; exact or not."""
    kind = rng.randrange(5)
    top = (-1, 0, rng.randrange(n + 1), n, n)[kind]
    cs = [F(0)] * (n + 1)
    for k in range(top + 1):
        if kind != 2 or rng.random() < 0.5 or k == top:
            cs[k] = F(rng.randint(-9, 9) or 1, rng.choice(DENS))
    valid = n + 1 if rng.random() < 0.5 else rng.randint(-1, n)
    return cs, valid


def ref_degree(cs):
    return max((k for k, c in enumerate(cs) if c), default=None)


def ref_add(a, b, sign=1):
    return [x + sign * y for x, y in zip(a[0], b[0])], min(a[1], b[1])


def ref_mul(a, b):
    """The earlier XSeries rule: a zero factor keeps the smaller `valid`."""
    (ca, va), (cb, vb) = a, b
    n = len(ca) - 1
    out = [F(0)] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += ca[i] * cb[j]
    if va > n and vb > n:
        da, db = ref_degree(ca), ref_degree(cb)
        return out, (n + 1 if da is None or db is None or da + db <= n else n)
    return out, min(va, vb)


def ref_exact_zero(a):
    return ref_degree(a[0]) is None and a[1] > len(a[0]) - 1


def ref_mul_shared(a, b):
    """The shared rule: as `ref_mul`, but an exact-zero factor gives an
    exact zero."""
    out, valid = ref_mul(a, b)
    if ref_exact_zero(a) or ref_exact_zero(b):
        return out, len(out)
    return out, valid


def ref_invert(a):
    cs, v = a
    n = len(cs) - 1
    out = [1 / cs[0]]
    for k in range(1, n + 1):
        out.append(-sum(cs[i] * out[k - i] for i in range(1, k + 1)) / cs[0])
    if v > n and ref_degree(cs) == 0:
        return out, n + 1
    return out, min(v, n)


def ref_shift_down(a):
    cs, v = a
    n = len(cs) - 1
    return cs[1:] + [F(0)], (v if v > n else v - 1)


def assert_canonical(s):
    assert s.den > 0
    assert math.gcd(s.den, *s.nums) == 1
    nonzero = [k for k, v in enumerate(s.nums) if v]
    assert s.top == (nonzero[-1] if nonzero else -1)
    if not nonzero:
        assert s.den == 1


def assert_matches(s, ref):
    assert s.coeffs == tuple(ref[0])
    assert s.valid == ref[1]
    assert_canonical(s)


def test_kernel_matches_fraction_reference():
    rng = random.Random(6)
    for _ in range(400):
        a, b = random_ref(rng), random_ref(rng)
        sa, sb = XSeries(*a), XSeries(*b)
        assert_matches(sa, (a[0], min(a[1], N + 1)))
        assert_matches(sa + sb, ref_add(a, b))
        assert_matches(sa - sb, ref_add(a, b, -1))
        assert_matches(-sa, ([-c for c in a[0]], a[1]))
        assert_matches(sa * sb, ref_mul_shared(a, b))
        c = F(rng.randint(-4, 4), rng.choice(DENS))
        assert_matches(sa.scale(c), ([c * x for x in a[0]], a[1]))
        if a[0][0]:
            assert_matches(sa.invert(), ref_invert(a))
        else:
            assert_matches(sa.shift_down(), ref_shift_down(a))


def test_equal_values_are_equal_and_hash_alike():
    rng = random.Random(7)
    for _ in range(200):
        a, b = random_ref(rng), random_ref(rng)
        sa, sb = XSeries(*a), XSeries(*b)
        back = (sa + sb) - sb
        assert back == sa.with_valid(sb.valid)
        assert hash(back) == hash(sa.with_valid(sb.valid))
        assert sa * sb == sb * sa and hash(sa * sb) == hash(sb * sa)
        assert sa + sa == sa.scale(2)
    half = XSeries.poly([F(1, 2), F(3, 2)], N)
    assert half == XSeries.poly([1, 3], N).scale(F(1, 2))
    assert (half.nums[:2], half.den) == ((1, 3), 2)
    zero = half - half
    assert zero == XSeries.zero(N) and (zero.den, zero.top) == (1, -1)


# -- the zero fast path keeps every validity rule --------------------------


def test_adding_zero_keeps_min_valid():
    zero = XSeries.zero(N)
    inexact = poly(1, 2, 3).with_valid(4)
    assert zero + inexact == inexact and inexact + zero == inexact
    assert inexact - zero == inexact and zero - inexact == -inexact
    hidden = zero.with_valid(2)
    for total in (hidden + poly(1, 2), poly(1, 2) + hidden):
        assert total.coeffs[:2] == (1, 2) and total.valid == 2


def test_matmul_with_zero_entries_matches_entrywise_reference():
    rng = random.Random(8)
    n = 3
    inexact = 0
    for _ in range(20):
        refs = [[[random_ref(rng) for _ in range(n)] for _ in range(n)]
                for _ in range(2)]
        for rows in refs:  # an exact and an inexact zero entry per matrix
            rows[rng.randrange(n)][rng.randrange(n)] = ([F(0)] * (N + 1), N + 1)
            rows[rng.randrange(n)][rng.randrange(n)] = (
                [F(0)] * (N + 1), rng.randint(-1, N)
            )
        a, b = (MatSeries([[XSeries(*e) for e in r] for r in rows]) for rows in refs)
        prod = a @ b
        for i in range(n):
            for j in range(n):
                acc = None
                for k in range(n):
                    term = ref_mul_shared(refs[0][i][k], refs[1][k][j])
                    acc = term if acc is None else ref_add(acc, term)
                assert_matches(prod[i, j], acc)
                inexact += acc[1] <= N
    assert inexact > 150  # nearly all of the 180 entries are inexact


def test_matseries_sum_rejects_a_dimension_mismatch():
    one = XSeries.one(N)
    m2, m3 = MatSeries.identity(2, one), MatSeries.identity(3, one)
    for a, b in ((m2, m3), (m3, m2)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            a + b
        with pytest.raises(ValueError, match="dimension mismatch"):
            a - b
    assert m2 + m2 == m2.scale(2) and (m3 - m3).is_zero_exact()


def test_matseries_constructor_rejects_non_square_rows():
    one = XSeries.one(N)
    with pytest.raises(ValueError, match="square"):
        MatSeries([[one, one], [one]])
    with pytest.raises(ValueError, match="square"):
        MatSeries([[one, one]])
    m = MatSeries([[one, one.scale(2)], [one.scale(3), one.scale(4)]])
    assert m.transpose()[0, 1] == one.scale(3)
    assert (m @ m.transpose()).transpose() == m @ m.transpose()


def test_matseries_exact_zero_is_decided_once(monkeypatch):
    scans = [0]
    real = XSeries.is_zero

    def counted(s):
        scans[0] += 1
        return real(s)

    monkeypatch.setattr(XSeries, "is_zero", counted)
    zero, one = XSeries.zero(N), XSeries.one(N)
    assert MatSeries.zero(2, one).is_zero_exact() and scans[0] == 0
    hidden = MatSeries([[zero, zero.with_valid(3)], [zero, zero]])
    exact = MatSeries([[zero, zero], [zero, zero]])
    for _ in range(3):
        assert not hidden.is_zero_exact()
        assert exact.is_zero_exact()
    # one scan per matrix: the hidden zero stops it at the second entry,
    # and the exact zero reads every entry once
    assert scans[0] == 2 + 4
    assert hidden.live == ((1,), ()) and exact.live == ((), ())
    # `live` scans the hidden zero's four entries; the exact zero's came
    # with its verdict
    assert scans[0] == 6 + 4
    assert not (exact + MatSeries.identity(2, one)).is_zero_exact()
