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
the one engine for solver dressings (here) and tau-built dressings
(`tau.bilinear_on_tau`).
"""

from __future__ import annotations

from typing import NamedTuple

from .hierarchy import Dressing, FlowTable
from .matseries import MatSeries
from .scalars import frac
from .series import XSeries
from .zseries import MZSeries, derive_through


def x_factor_of(w: MZSeries, w_inv: MZSeries, a_values, derive, dilate) -> MZSeries:
    """D w * w**-1 = (D w + sigma(w) zA) * w**-1 for the dressing w.

    The exponential exp_q(zAx) is reduced by the q-Leibniz rule
    `derive_through`; `derive` and `dilate` act on the entries of w.
    """
    a_z = MZSeries.from_term(w.n, 1, MatSeries.diag_const(a_values, w.proto))
    return derive_through(w, a_z, derive, dilate) * w_inv


def x_derivative_factor(dressing: Dressing) -> MZSeries:
    """D_q w * w**-1 reduced to the dressing level, computed honestly.

    Equals zA - U exactly when the dressing solves the hierarchy; any
    violation shows up as negative z-degrees.
    """
    lax = dressing.lax
    return x_factor_of(
        dressing.mz(), dressing.inverse(), lax.a, lax.calc.derive, lax.calc.dilate
    )


class BilinearRecord(NamedTuple):
    """One residue res_z(z**l (D**m d**lam w) w**-1); ok when it vanishes."""

    l: int
    m: int
    lam: tuple
    ok: bool
    first_failure: tuple | None

    def label(self):
        lam = ",".join(f"({k},{a+1})" for k, a in self.lam)
        return f"l={self.l} m={self.m} lam=[{lam}]"

    def __repr__(self):
        state = "ok" if self.ok else f"FAIL {self.first_failure}"
        return f"<qb {self.label()}: {state}>"


def lambda_pool(flows, max_len: int):
    """Multisets of flow labels up to the given length (order is immaterial:
    honest time derivatives commute, and the flow calculus mirrors them)."""
    pool = [()]
    seen = {()}
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for lam in frontier:
            for f in flows:
                cand = tuple(sorted(lam + (f,)))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        pool.extend(nxt)
        frontier = nxt
    return pool


def bilinear_residues(
    flow_factor, g, derive, dilate, l_max: int, lambdas
) -> list[BilinearRecord]:
    """Residue family res_z(z**l (D**m flow-derivative of w) w**-1) == 0.

    `flow_factor(lam)` is the flow-derivative factor at the dressing level
    and `g` the x-derivative factor D w * w**-1, through which m = 1
    reduces by the q-Leibniz rule (`derive`, `dilate` act on the entries).
    With g None only m = 0 runs. Records run over lambda, then m, then l.
    """
    records = []
    for lam in lambdas:
        f = flow_factor(lam)
        reduced = [f] if g is None else [f, derive_through(f, g, derive, dilate)]
        for m, target in enumerate(reduced):
            for l in range(l_max + 1):
                res = target.coeff(-1 - l)
                records.append(
                    BilinearRecord(l, m, lam, res.is_zero(), res.first_nonzero())
                )
    return records


def check_q_bilinear(
    dressing: Dressing, l_max: int, lambdas
) -> list[BilinearRecord]:
    """The residue family on a solver dressing, m in {0, 1}."""
    calc = dressing.lax.calc
    return bilinear_residues(
        FlowTable(dressing.resolvents()).factor, x_derivative_factor(dressing),
        calc.derive, calc.dilate, l_max, lambdas,
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
    """Read (A, U) back off the x-derivative factor of the dressing.

    The factor's top symbol is zA and its zero-order term is -U; negative
    degrees must vanish (that is the bilinear identity at lambda = []).
    Returns (a_values, u_matrix, negative_residual).
    """
    lax = dressing.lax
    g = x_derivative_factor(dressing)
    neg = g.project("minus")
    top = g.coeff(1)
    a_values = []
    for i in range(lax.n):
        entry = top[i, i]
        c = entry.constant_term()
        rest = entry - XSeries.const(c, entry.order)
        if not rest.is_zero():
            raise ValueError(f"top symbol entry {i+1} is not constant: {entry!r}")
        a_values.append(c)
        for j in range(lax.n):
            if i != j and not top[i, j].is_zero():
                raise ValueError("top symbol is not diagonal")
    u = -g.coeff(0)
    return a_values, u, neg


def inject_corruption(dressing: Dressing, value="1", channel: int = -1) -> Dressing:
    """Add a constant to one diagonal entry of w_1.

    Breaks the factorization unless the bump happens to be absorbed by the
    constant-diagonal gauge freedom (right multiplication by I + c E z**-1),
    which is why the injection targets the last channel by default: on the
    shipped examples that direction is not gauge.
    """
    if dressing.depth < 1:
        raise ValueError("need at least depth 1 to corrupt")
    lax = dressing.lax
    channel = channel % lax.n
    bump = MatSeries.diag_const(
        [frac(value) if i == channel else 0 for i in range(lax.n)], lax.proto()
    )
    orders = list(dressing.orders)
    orders[1] = orders[1] + bump
    return Dressing(orders, lax)
