"""Oracles for what the solvers claim and for what they leave unformed.

* The x-truncation oracle: a solve at a low x-order claims only
  coefficients that the same solve at a high x-order has.
* The lift invariant: the idempotent defect K is the diagonal constant
  that `_idempotent_repair` reads off the orders' constant terms.
* Windowed reads: a `FlowTable` given its reach, and a commutation
  residual given a degree window, give what the whole series give there.
"""

import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations_with_replacement

import pytest

from qakns.hierarchy import (
    FlowTable,
    HierarchySession,
    LaxData,
    _idempotent_repair,
    _next_order,
    b_split,
    commutation_residual,
    resolvent_from_dressing,
    solve_dressing,
    solve_resolvent_direct,
    verify_zero_curvature,
)
from qakns.matseries import MatSeries
from qakns.series import XSeries
from qakns.zseries import InsufficientDepthError

QS = [F(2), F(1, 2), F(3, 5), F(-1, 3), F(1)]
# no a_j * q**m equals another a_i for the q above
A = {2: [1, -1], 3: [1, -1, 5]}
HIGH = 14


def random_u(rng, n, triangular=False):
    """Off-diagonal polynomial entries of degree <= 2, some x-dependent."""
    rows = [[[0] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and (not triangular or j > i):
                rows[i][j] = [rng.choice([0, 1, -1, 2]) for _ in range(3)]
    rows[0][n - 1][1] = rows[0][n - 1][1] or 1  # keep U x-dependent
    return rows


def lax_at(a, rows, q, order):
    u = MatSeries([[XSeries.poly(c, order) for c in r] for r in rows])
    return LaxData(a, u, q)


def assert_claims_hold(low, high, label):
    """Each coefficient that `low` claims is `high`'s: inside the windows,
    and past the x-cap too wherever an entry of `low` claims to be exact."""
    lowest = min(min(low.terms, default=0), min(high.terms, default=0))
    for d in range(int(max(low.zvalid, lowest)), 1):
        got, ref = low.coeff(d), high.coeff(d)
        for i in range(low.n):
            for j in range(low.n):
                e, h = got[i, j], ref[i, j]
                claimed = e.order if e.is_exact else e.valid
                for k in range(min(claimed, e.order) + 1):
                    assert e.coeffs[k] == h.coeffs[k], (label, d, i, j, k)
                if e.is_exact:
                    assert not any(h.coeffs[e.order + 1:]), (label, d, i, j)


def solve_cases():
    rng = random.Random(36)
    for n in (2, 3):
        for q in QS:
            # a q-dressing exists for a triangular potential; a classical
            # one for any
            for triangular in (False, True):
                yield n, q, triangular, random_u(rng, n, triangular)


@pytest.mark.parametrize("n, q, triangular, rows", list(solve_cases()))
def test_a_low_x_order_solve_claims_only_what_a_high_one_has(n, q, triangular,
                                                            rows):
    depth = 4
    high = lax_at(A[n], rows, q, HIGH)
    for low_order in (4, 5, 6):
        low = lax_at(A[n], rows, q, low_order)
        for alpha in range(n):
            for norm in ("orthogonal", "zero"):
                assert_claims_hold(
                    solve_resolvent_direct(low, alpha, depth, norm),
                    solve_resolvent_direct(high, alpha, depth, norm),
                    ("resolvent", low_order, alpha, norm))
        if q != 1 and not triangular:
            continue  # no q-dressing exists for a generic potential
        d_low, d_high = solve_dressing(low, depth), solve_dressing(high, depth)
        assert_claims_hold(d_low.w, d_high.w, ("dressing", low_order))
        for alpha in range(n):
            assert_claims_hold(resolvent_from_dressing(d_low, alpha),
                               resolvent_from_dressing(d_high, alpha),
                               ("conjugate", low_order, alpha))


def test_the_oracle_sees_the_classical_dressing_at_a_short_x_order():
    # a classical dressing at x-order 4 of an x-dependent potential: its
    # diagonal integrates a series known through the cap, which stays
    # inexact, so the next order's diagonal source still vanishes
    rows = [[[0], [-2], [0, -2]], [[-1], [0], [1]], [[0, -2], [1], [0]]]
    low = lax_at([1, -1, 2], rows, 1, 4)
    d = solve_dressing(low, 5)
    assert_claims_hold(d.w, solve_dressing(lax_at([1, -1, 2], rows, 1, HIGH), 5).w,
                       "dressing")


@pytest.mark.parametrize("n, q", [(n, q) for n in (2, 3) for q in QS])
def test_the_idempotent_defect_is_the_lifted_diagonal_constant(n, q):
    rng = random.Random(f"{n}:{q}")
    lax = lax_at(A[n], random_u(rng, n), q, 8)
    neg_u = -lax.u
    for alpha in range(n):
        unit = lax.unit(alpha)
        lift = unit - MatSeries.identity(n, lax.proto())
        orders = [unit]
        for m in range(1, 6):
            rho = _next_order(
                lax, orders[-1],
                lambda r: ((r.map(lax.dilate), lax.u), (neg_u, r)), "test")
            blocks = [(lift, rho), (rho, orders[0])] + [
                (orders[a], orders[m - a]) for a in range(1, m)]
            K = MatSeries.dot(blocks)
            consts = [K[i, i].constant_term() for i in range(n)]
            assert (K - MatSeries.diag_const(consts, lax.proto())).is_zero()
            lifted = _idempotent_repair(alpha, lift, rho, orders)
            signs = [-c if i == alpha else c for i, c in enumerate(consts)]
            assert lifted == rho + MatSeries.diag_const(signs, lax.proto())
            orders.append(lifted)


def test_the_idempotent_defect_is_not_vacuous():
    # the lift moves a constant on the potentials above
    lax = lax_at(A[3], random_u(random.Random("3:2"), 3), F(2), 8)
    assert solve_resolvent_direct(lax, 0, 3) != \
        solve_resolvent_direct(lax, 0, 3, "zero")


# (q, triangular): three inexact families, and an exact one, the
# conjugates of a terminating dressing
FAMILIES = [(F(2), False), (F(-1, 3), False), (F(1), False), (F(1, 2), True)]


@lru_cache(maxsize=None)
def family(q, triangular):
    rng = random.Random(f"family:{q}:{triangular}")
    lax = lax_at(A[3], random_u(rng, 3, triangular), q, 6)
    if triangular:
        return solve_dressing(lax, 8).resolvents()
    return HierarchySession(lax).family(6)


FLOWS = [(0, 0), (1, 0), (1, 2), (2, 1)]


def indices(max_len):
    return [()] + [mu for m in range(1, max_len + 1)
                   for mu in combinations_with_replacement(FLOWS, m)]


def weight(mu):
    return sum(k for k, _ in mu)


@pytest.mark.parametrize("reach", [2, 3, 4])
@pytest.mark.parametrize("case", FAMILIES)
def test_a_windowed_flow_table_reads_what_the_whole_one_does(case, reach):
    fam = family(*case)
    whole, windowed = FlowTable(fam), FlowTable(fam, reach)
    seen = 0
    for g in FLOWS:
        for mu in indices(2):
            if g[0] + weight(mu) <= reach:
                assert windowed.b(g, mu) == whole.b(g, mu), (g, mu)
                seen += len(mu) == 2
    for lam in indices(3):
        if weight(lam) <= reach:
            assert windowed.factor(lam) == whole.factor(lam), lam
    for g1, g2 in combinations_with_replacement(FLOWS, 2):
        if g1[0] + g2[0] <= reach:
            assert verify_zero_curvature(windowed, g1, g2) == \
                verify_zero_curvature(whole, g1, g2)
    assert seen  # |mu| = 2 was compared
    # a derivative read past the reach is refused, not read off zeros
    with pytest.raises(InsufficientDepthError):
        windowed.b((reach, 0), ((1, 0),))


@pytest.mark.parametrize("case", FAMILIES[:3])
def test_a_windowed_flow_derivative_keeps_its_degrees(case):
    whole, windowed = FlowTable(family(*case)), FlowTable(family(*case), 3)
    for mu in ([(1, 0)], [(1, 0), (1, 2)], [(0, 0), (2, 1)]):
        mu = tuple(mu)
        got, ref = windowed.r(1, mu), whole.r(1, mu)
        lo = weight(mu) - 3
        assert got.zvalid == max(ref.zvalid, lo)
        assert got.terms == {d: m for d, m in ref.terms.items() if d >= lo}


@pytest.mark.parametrize("q", QS)
def test_the_degree_zero_commutation_residual_is_the_whole_ones(q):
    lax = lax_at(A[3], random_u(random.Random(str(q)), 3), q, 6)
    for alpha, r in enumerate(HierarchySession(lax).family(5)):
        for k in (1, 2):
            for part in b_split(r, k):
                got = commutation_residual(lax, part, 0, 0).coeff(0)
                assert got == commutation_residual(lax, part).coeff(0)

