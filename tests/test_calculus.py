"""q-difference calculus: derivations, exponentials, both structures."""

from fractions import Fraction as F

import pytest

from qakns.calculus import (
    dilate,
    exp_q_series,
    exp_series,
    q_antiderive,
    q_derive,
    q_derive_by_quotient,
    x_antiderive,
    x_derive,
)
from qakns.hierarchy import LaxData
from qakns.matseries import MatSeries
from qakns.scalars import AdmissibilityError, check_q, q_int
from qakns.series import XSeries

N = 8
QS = [F(2), F(1, 2), F(3, 5)]


def test_dilate_examples():
    x3 = XSeries.monomial(1, 3, N)
    assert (dilate(x3, 2) - XSeries.monomial(8, 3, N)).is_zero()
    f = XSeries.poly([1, 2, 3], N)
    assert dilate(f, 1) is f
    assert (dilate(dilate(f, F(2)), F(1, 2)) - f).is_zero()
    # a constant, exact or not, and the zero series are fixed
    for g in (XSeries.const(F(-3, 4), N), XSeries.zero(N).with_valid(3),
              XSeries.const(5, N).with_valid(0)):
        assert dilate(g, F(3, 5)) is g


@pytest.mark.parametrize("q", QS)
def test_q_derive_monomials(q):
    # D_q x^2 = (1+q) x, via the defining quotient as oracle
    x2 = XSeries.monomial(1, 2, N)
    expect = XSeries.monomial(1 + q, 1, N)
    assert (q_derive(x2, q) - expect).is_zero()
    assert (q_derive_by_quotient(x2, q) - expect).is_zero()
    assert q_derive(XSeries.const(5, N), q).is_zero()
    assert (q_derive(XSeries.monomial(1, 1, N), q) - XSeries.one(N)).is_zero()


def test_q_derive_at_two():
    assert q_derive(XSeries.monomial(1, 2, N), F(2)).coeffs[1] == 3


@pytest.mark.parametrize("q", QS)
def test_quotient_oracle_on_random_series(q):
    import random
    rng = random.Random(17)
    for _ in range(6):
        f = XSeries.poly([F(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(N + 1)], N)
        assert (q_derive(f, q) - q_derive_by_quotient(f, q)).is_zero()


@pytest.mark.parametrize("q", QS)
def test_antiderive(q):
    one = XSeries.one(N)
    assert (q_antiderive(one, q) - XSeries.monomial(1, 1, N)).is_zero()
    x = XSeries.monomial(1, 1, N)
    assert (q_antiderive(x, q) - XSeries.monomial(1 / (1 + q), 2, N)).is_zero()
    assert q_antiderive(XSeries.zero(N), q).is_zero()
    # right inverse
    import random
    rng = random.Random(23)
    g = XSeries.poly([F(rng.randint(-5, 5)) for _ in range(N)], N)
    assert (q_derive(q_antiderive(g, q), q) - g).is_zero()


def test_expq_coefficients():
    # coefficient k is 1/[k]!: k=2 gives 1/(1+q); at q=2 both cited values
    for q in QS:
        e = exp_q_series(1, q, N)
        assert e.coeffs[2] == 1 / (1 + q)
    e2 = exp_q_series(1, F(2), N)
    assert e2.coeffs[2] == F(1, 3)
    assert e2.coeffs[3] == F(1, 21)
    assert (exp_q_series(0, F(2), N) - XSeries.one(N)).is_zero()


@pytest.mark.parametrize("q", QS)
def test_expq_eigen_relation(q):
    for c in (F(1), F(-3), F(2, 7)):
        e = exp_q_series(c, q, N)
        assert (q_derive(e, q) - e.scale(c)).is_zero()


def test_exp_series_examples():
    import math
    coeffs = exp_series([(1, 1)], N).coeffs
    for k in range(N + 1):
        assert coeffs[k] == F(1, math.factorial(k))
    mixed = exp_series([(1, 1), (2, 1)], N)
    assert mixed.coeffs[2] == F(3, 2)
    with pytest.raises(ValueError):
        exp_series([(0, 1)], N)


def test_exp_series_is_no_polynomial():
    # exp(x) has a nonzero x**(N+1) term, so the series is exact through N
    # only; d/dx exp = exp then holds inside the window
    e = exp_series([(1, 1)], N)
    assert not e.is_exact and e.valid == N
    assert (x_derive(e) - e).is_zero()
    # exp(0) is the polynomial 1; an argument above N leaves a tail
    assert exp_series([(2, 0), (N + 2, 1), (N + 2, -1)], N) == XSeries.one(N)
    for k in (N + 1, N + 2):
        assert exp_series([(k, 1)], N) == XSeries.one(N).with_valid(N)


@pytest.mark.parametrize("q", QS)
def test_expq_log_identity(q):
    args = [(k, (1 - q) ** k / (k * (1 - q**k))) for k in range(1, N + 1)]
    assert (exp_series(args, N) - exp_q_series(1, q, N)).is_zero()


@pytest.mark.parametrize("q", QS)
def test_expq_reciprocal(q):
    prod = exp_q_series(1, q, N) * exp_q_series(-1, 1 / q, N)
    assert (prod - XSeries.one(N)).is_zero()


@pytest.mark.parametrize("q", QS)
def test_power_additivity(q):
    # iterated derivation equals the closed multi-step coefficient rule
    f = XSeries.poly([F(3, 2), -1, 0, F(5, 7), 2, -3, 1, F(1, 9), 4], N)
    coeffs = f.coeffs
    for m in range(4):
        for n_ in range(4 - m):
            stepped = f
            for _ in range(m + n_):
                stepped = q_derive(stepped, q)
            p = m + n_
            closed = []
            for k in range(N + 1 - p):
                c = coeffs[k + p]
                for i in range(1, p + 1):
                    c *= q_int(k + i, q)
                closed.append(c)
            diff = stepped - XSeries.poly(closed, N).with_valid(N - p)
            assert diff.is_zero()


@pytest.mark.parametrize("q", QS)
def test_leibniz_both_forms(q):
    import random
    rng = random.Random(5)
    for _ in range(5):
        f, g = (XSeries.poly([F(rng.randint(-4, 4)) for _ in range(N + 1)], N)
                for _ in range(2))
        lhs = q_derive(f * g, q)
        assert (lhs - (dilate(f, q) * q_derive(g, q) + q_derive(f, q) * g)).is_zero()
        assert (lhs - (f * q_derive(g, q) + q_derive(f, q) * dilate(g, q))).is_zero()


def test_admissibility():
    with pytest.raises(AdmissibilityError):
        check_q(F(0), N)
    with pytest.raises(AdmissibilityError):
        check_q(F(1), N)
    with pytest.raises(AdmissibilityError):
        check_q(F(-1), N)  # (-1)**2 == 1
    assert check_q(F(3, 5), N) == F(3, 5)


def vacuum_lax(q):
    """A Lax datum at q with U = 0: the structure its solvers run under."""
    return LaxData([1, -1], MatSeries.from_scalars([[0, 0], [0, 0]], N), q)


def test_classical_structure():
    lax = vacuum_lax(1)
    x2 = XSeries.monomial(1, 2, N)
    assert (lax.derive(x2) - XSeries.monomial(2, 1, N)).is_zero()
    assert (lax.dilate(x2) - x2).is_zero()
    assert (lax.antiderive(XSeries.one(N)) - XSeries.monomial(1, 1, N)).is_zero()
    assert (x_derive(x_antiderive(x2)) - x2).is_zero()
    assert lax.q**5 == 1
    # q = 1 is the classical point, though check_q rejects it (test_admissibility)
    assert lax.classical
    assert all(q_int(k, F(1)) == k for k in range(N + 1))


def test_qcalc_structure():
    lax = vacuum_lax(F(2))
    assert (lax.q, lax.order) == (2, N)
    assert not lax.classical


EXACT = XSeries.poly([1, 2, 3], N)
OVERFLOW = XSeries.monomial(1, N, N)  # its antiderivative leaves the window
INEXACT = XSeries.poly([1, 1, 1], N).with_valid(5)
DERIVATIONS = [
    ("q_derive", lambda f: q_derive(f, F(2))),
    ("x_derive", x_derive),
    ("q_antiderive", lambda f: q_antiderive(f, F(2))),
    ("x_antiderive", x_antiderive),
]


@pytest.mark.parametrize(
    "name, fn", DERIVATIONS, ids=[name for name, _ in DERIVATIONS]
)
@pytest.mark.parametrize(
    "f, derived, antiderived",
    [(EXACT, N + 1, N + 1), (OVERFLOW, N + 1, N), (INEXACT, 4, 6)],
    ids=["exact", "overflow", "inexact"],
)
def test_derivation_validity(name, fn, f, derived, antiderived):
    expected = antiderived if name.endswith("antiderive") else derived
    assert fn(f).valid == expected


# -- differential tests against a plain-Fraction reference ---------------
#
# A reference series is a (coefficient list, valid) pair; the functions
# below restate the calculus on Fractions, independently of the
# integer-numerator kernel.

import math
import random

DENS = (1, 2, 3, 5, 6, 9)


def random_ref(rng, n=N):
    """A reference operand: zero, constant, sparse or dense; exact or not."""
    kind = rng.randrange(5)
    top = (-1, 0, rng.randrange(n + 1), n, n)[kind]
    cs = [F(0)] * (n + 1)
    for k in range(top + 1):
        if kind != 2 or rng.random() < 0.5 or k == top:
            cs[k] = F(rng.randint(-9, 9) or 1, rng.choice(DENS))
    valid = n + 1 if rng.random() < 0.5 else rng.randint(0, n)
    return cs, valid


def ref_derive(a, ints):
    cs, v = a
    n = len(cs) - 1
    out = [ints(k + 1) * cs[k + 1] for k in range(n)] + [F(0)]
    return out, (v if v > n else v - 1)


def ref_antiderive(a, ints):
    cs, v = a
    n = len(cs) - 1
    out = [F(0)] + [cs[k] / ints(k + 1) for k in range(n)]
    if v > n:
        d = max((k for k, c in enumerate(cs) if c), default=None)
        return out, (n + 1 if d is None or d + 1 <= n else n)
    return out, v + 1


def assert_matches(s, ref):
    assert s.coeffs == tuple(ref[0])
    assert s.valid == ref[1]
    assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
    if not any(s.nums):
        assert s.den == 1 and s.top == -1


@pytest.mark.parametrize("q", QS + [F(-2), F(-1, 3)])
def test_calculus_matches_fraction_reference(q):
    rng = random.Random(int(q * 30))
    classical = vacuum_lax(1)
    for _ in range(60):
        a = random_ref(rng)
        f = XSeries(*a)
        c = rng.choice([q, 1 / q, F(0), F(-3, 4), F(1)])
        assert_matches(dilate(f, c), ([c**k * x for k, x in enumerate(a[0])], a[1]))
        assert_matches(q_derive(f, q), ref_derive(a, lambda k: q_int(k, q)))
        assert_matches(q_antiderive(f, q), ref_antiderive(a, lambda k: q_int(k, q)))
        assert_matches(x_derive(f), ref_derive(a, F))
        assert_matches(x_antiderive(f), ref_antiderive(a, F))
        assert_matches(classical.derive(f), ref_derive(a, F))
        assert_matches(classical.antiderive(f), ref_antiderive(a, F))
