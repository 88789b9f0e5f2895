"""Baker-level bilinear identities on solver-produced dressings.

The exponential factors of the Baker function are never expanded in z;
every check reduces them symbolically first. Two reductions carry all the
content:

* time flows: iterated flow derivatives of the Baker function factor as
  f_lam times the Baker function. The factors come from
  `hierarchy.FlowTable`, the one place the flow rule d R = [B, R] is
  written, built once per dressing over the channel family that
  `Dressing.resolvents()` conjugates;
* the x-derivation: D_q w * w**-1 equals (D_q what + z (D what) A) * what**-1
  exactly, computed honestly from the dressing series. For a dressing
  that solves the hierarchy this is zA - U; for a corrupted one it grows
  negative z-degrees, which is what the residue checks detect.

Both x-derivative reductions are the q-Leibniz rule `zseries.derive_through`:
through exp_q(zAx) for the factor itself, and through the Baker function
for the m = 1 residues. The residue family itself is `bilinear_residues`,
the one engine for solver dressings (here) and tau-built dressings (the
classical precheck `tau.classical_residues`, and the q pass
`tau.taylor_agreement`, whose two-term half reads the same records).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .hierarchy import Dressing, FlowTable, flow_reach
from .matseries import MatSeries
from .scalars import frac
from .zseries import MZSeries, NEG_INF, derive_through


def x_factor_of(w: MZSeries, w_inv: MZSeries, a_values, derive, dilate,
                lo=NEG_INF) -> MZSeries:
    """D w * w**-1 = (D w + sigma(w) zA) * w**-1 for the dressing w.

    The exponential exp_q(zAx) is reduced by the q-Leibniz rule
    `derive_through`; `derive` and `dilate` act on the entries of w. A
    caller that reads only the degrees from `lo` up passes it on to
    `MZSeries.product`; the floor is the whole product's.
    """
    a_z = MZSeries.from_term(w.n, 1, MatSeries.diag_const(a_values, w.proto))
    return derive_through(w, a_z, derive, dilate).product(w_inv, lo)


def x_derivative_factor(dressing: Dressing) -> MZSeries:
    """D_q w * w**-1 reduced to the dressing level, computed honestly.

    Equals zA - U exactly when the dressing solves the hierarchy; any
    violation shows up as negative z-degrees.
    """
    lax = dressing.lax
    return x_factor_of(
        dressing.w, dressing.inverse(), lax.a, lax.derive, lax.dilate
    )


def lambda_pool(flows, max_len: int):
    """Multisets of flow labels up to the given length (order is immaterial:
    honest time derivatives commute, and the flow calculus mirrors them),
    shortest first, each a sorted tuple."""
    return [tuple(sorted(lam)) for k in range(max_len + 1)
            for lam in combinations_with_replacement(flows, k)]


def bilinear_residues(flow_factor, g, derive, dilate, l_max: int, lambdas) -> list:
    """Residue family res_z(z**l (D**m flow-derivative of w) w**-1) == 0.

    `flow_factor(lam)` is the flow-derivative factor at the dressing level
    and `g` the x-derivative factor D w * w**-1, through which m = 1
    reduces by the q-Leibniz rule (`derive`, `dilate` act on the entries).
    With g None only m = 0 runs. The m = 1 reduction builds only the
    degrees the residues read. Returns (label, residue) pairs over
    lambda, then m, then l, labelled `l=0 m=1 lam=[(1,2)]` (channels
    1-based).
    """
    out = []
    for lam in lambdas:
        factor = flow_factor(lam)
        reduced = [factor]
        if g is not None:
            reduced.append(
                derive_through(factor, g, derive, dilate, -1 - l_max, -1))
        flows = ",".join(f"({k},{a+1})" for k, a in lam)
        for m, target in enumerate(reduced):
            out += [
                (f"l={l} m={m} lam=[{flows}]", target.coeff(-1 - l))
                for l in range(l_max + 1)
            ]
    return out


def check_q_bilinear(dressing: Dressing, l_max: int, lambdas) -> list:
    """The residue family on a solver dressing, m in {0, 1}.

    The flow table forms the flow derivatives only as far as the factors
    of `lambdas` read them.
    """
    lax = dressing.lax
    lambdas = list(lambdas)
    table = FlowTable(dressing.resolvents(), flow_reach(lambdas))
    return bilinear_residues(
        table.factor, x_derivative_factor(dressing),
        lax.derive, lax.dilate, l_max, lambdas,
    )


def adjoint_baker(dressing: Dressing) -> MZSeries:
    """The adjoint dressing (w**-1)^T."""
    return dressing.inverse().transpose()


def check_inverse_transpose(w: MZSeries, w_star: MZSeries):
    """w * (w*)^T must be the identity: no stray z-degrees survive."""
    n = w.n
    prod = w * w_star.transpose()
    ident = MZSeries.identity(n, w.proto)
    residual = prod - ident
    return residual


def reconstruct_from_bilinear(dressing: Dressing):
    """Read (A, U) back off the x-derivative factor g of the dressing.

    g's top symbol is zA and its zero-order term is -U; A is read off the
    constant terms of the z**1 diagonal. Returns (a_values, u_matrix,
    residual) with residual = g - (zA - U): the negative degrees (the
    bilinear identity at lambda = []) and any part of the z**1 symbol
    that is not a constant diagonal.
    """
    g = x_derivative_factor(dressing)
    top = g.coeff(1)
    a_values = [top[i, i].constant_term() for i in range(g.n)]
    za = MZSeries.from_term(g.n, 1, MatSeries.diag_const(a_values, g.proto))
    u = -g.coeff(0)
    return a_values, u, g - za + MZSeries.from_term(g.n, 0, u)


def inject_corruption(dressing: Dressing, value) -> Dressing:
    """Add a constant to the last diagonal entry of w_1, as a z**-1 term.

    Breaks the factorization unless the bump happens to be absorbed by the
    constant-diagonal gauge freedom (right multiplication by I + c E z**-1),
    which is why the injection targets the last channel: on the shipped
    examples that direction is not gauge.
    """
    if dressing.depth < 1:
        raise ValueError("need at least depth 1 to corrupt")
    lax = dressing.lax
    bump = MatSeries.diag_const([0] * (lax.n - 1) + [frac(value)], lax.proto())
    orders = [dressing.w.coeff(-k) for k in range(dressing.depth + 1)]
    orders[1] = orders[1] + bump
    return Dressing(orders, lax)
