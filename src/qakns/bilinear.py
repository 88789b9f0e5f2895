"""Baker-level bilinear identities on solver-produced dressings.

The exponential factors of the Baker function are never expanded in z;
every check reduces them symbolically first. Two reductions carry all the
content:

* time flows: iterated flow derivatives of the Baker function factor as
  f(B) times the Baker function, where f is built by the recursion
  f' = d f + f * B with d B_(l beta) = (z**l [B_(k alpha), R_beta])_+;
  the factor is evaluated here by a small expression calculus closed
  under that differentiation;
* the x-derivation: D_q w * w**-1 equals (D_q what + z (D what) A) * what**-1
  exactly, computed honestly from the dressing series. For a dressing
  that solves the hierarchy this is zA - U; for a corrupted one it grows
  negative z-degrees, which is what the residue checks detect.

Both x-derivative reductions are the q-Leibniz rule `zseries.derive_through`:
through exp_q(zAx) for the factor itself, and through the Baker function
for the m = 1 residues.
"""

from __future__ import annotations

from .hierarchy import Dressing, LaxData, Resolvent, resolvent_from_dressing
from .matseries import MatSeries
from .scalars import frac
from .series import XSeries
from .zseries import MZSeries, derive_through

FlowIndex = tuple[int, int]


class FlowScope:
    """Solved channel resolvents backing the flow-expression calculus."""

    def __init__(self, lax: LaxData, family: list[Resolvent]):
        self.lax = lax
        self.family = family

    @staticmethod
    def from_dressing(dressing: Dressing) -> "FlowScope":
        lax = dressing.lax
        fam = [resolvent_from_dressing(dressing, a) for a in range(lax.n)]
        return FlowScope(lax, fam)


class _Expr:
    __slots__ = ("_value",)

    def __init__(self):
        self._value = None

    def value(self) -> MZSeries:
        if self._value is None:
            self._value = self._compute()
        return self._value

    def _compute(self) -> MZSeries:
        raise NotImplementedError

    def d(self, flow: FlowIndex) -> "_Expr":
        raise NotImplementedError


class _Const(_Expr):
    __slots__ = ("mz", "scope")

    def __init__(self, scope: FlowScope, mz: MZSeries):
        super().__init__()
        self.scope = scope
        self.mz = mz

    def _compute(self):
        return self.mz

    def d(self, flow):
        return _Const(self.scope, MZSeries.zero(self.mz.n, self.mz.proto))


class _R(_Expr):
    __slots__ = ("scope", "beta")

    def __init__(self, scope: FlowScope, beta: int):
        super().__init__()
        self.scope = scope
        self.beta = beta

    def _compute(self):
        return self.scope.family[self.beta].mz()

    def d(self, flow):
        k, alpha = flow
        return _comm(_B(self.scope, k, alpha), self)


class _Sum(_Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: _Expr, b: _Expr):
        super().__init__()
        self.a, self.b = a, b

    def _compute(self):
        return self.a.value() + self.b.value()

    def d(self, flow):
        return _Sum(self.a.d(flow), self.b.d(flow))


class _Neg(_Expr):
    __slots__ = ("a",)

    def __init__(self, a: _Expr):
        super().__init__()
        self.a = a

    def _compute(self):
        return -self.a.value()

    def d(self, flow):
        return _Neg(self.a.d(flow))


class _Prod(_Expr):
    __slots__ = ("a", "b")

    def __init__(self, a: _Expr, b: _Expr):
        super().__init__()
        self.a, self.b = a, b

    def _compute(self):
        return self.a.value() * self.b.value()

    def d(self, flow):
        return _Sum(_Prod(self.a.d(flow), self.b), _Prod(self.a, self.b.d(flow)))


class _ShiftProj(_Expr):
    """(z**l * inner)_+ ; commutes with every flow derivative."""

    __slots__ = ("l", "inner")

    def __init__(self, l: int, inner: _Expr):
        super().__init__()
        self.l = l
        self.inner = inner

    def _compute(self):
        return self.inner.value().shift(self.l).project("plus")

    def d(self, flow):
        return _ShiftProj(self.l, self.inner.d(flow))


def _comm(a: _Expr, b: _Expr) -> _Expr:
    return _Sum(_Prod(a, b), _Neg(_Prod(b, a)))


def _B(scope: FlowScope, k: int, alpha: int) -> _Expr:
    return _ShiftProj(k, _R(scope, alpha))


def flow_polynomial(scope: FlowScope, lam) -> MZSeries:
    """The factor f with (iterated flow derivative of w) = f * w."""
    return _flow_expr(scope, lam).value()


def _flow_expr(scope: FlowScope, lam) -> _Expr:
    proto = scope.lax.proto()
    f: _Expr = _Const(scope, MZSeries.identity(scope.lax.n, proto))
    for (k, alpha) in lam:
        f = _Sum(f.d((k, alpha)), _Prod(f, _B(scope, k, alpha)))
    return f


def x_derivative_factor(dressing: Dressing) -> MZSeries:
    """D_q w * w**-1 reduced to the dressing level, computed honestly.

    Equals zA - U exactly when the dressing solves the hierarchy; any
    violation shows up as negative z-degrees.
    """
    lax = dressing.lax
    w = dressing.mz()
    floor = min(-dressing.depth, w.bottom() if w.terms else 0)
    winv = w.invert(int(floor))
    a_z = MZSeries.from_term(lax.n, 1, lax.a_mat())
    return derive_through(w, a_z, lax.calc.derive, lax.calc.dilate) * winv


class BilinearRecord:
    __slots__ = ("l", "m", "lam", "ok", "first_failure")

    def __init__(self, l, m, lam, residue: MatSeries):
        self.l = l
        self.m = m
        self.lam = lam
        self.ok = residue.is_zero()
        self.first_failure = residue.first_nonzero()

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


def check_q_bilinear(
    dressing: Dressing,
    l_max: int,
    lambdas,
    m_values=(0, 1),
    scope: FlowScope | None = None,
) -> list[BilinearRecord]:
    """Residue family res_z(z**l (D**m flow-derivative of w) w**-1) == 0."""
    calc = dressing.lax.calc
    scope = scope or FlowScope.from_dressing(dressing)
    g = x_derivative_factor(dressing) if 1 in m_values else None
    records = []
    for lam in lambdas:
        f = flow_polynomial(scope, lam)
        reduced = {0: f}
        if g is not None:
            reduced[1] = derive_through(f, g, calc.derive, calc.dilate)
        for m in m_values:
            target = reduced[m]
            for l in range(l_max + 1):
                res = target.shift(l).residue()
                records.append(BilinearRecord(l, m, lam, res))
    return records


def adjoint_baker(dressing: Dressing) -> MZSeries:
    """The adjoint dressing (w**-1)^T."""
    w = dressing.mz()
    return w.invert(-dressing.depth).transpose()


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
        [frac(value) if i == channel else 0 for i in range(lax.n)], lax.order
    )
    orders = list(dressing.orders)
    orders[1] = orders[1] + bump
    return Dressing(orders, lax)
