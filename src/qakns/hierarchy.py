"""Lax structure, dressing and resolvent solvers, flows, and their checks.

All solvers run against a difference structure (QCalc or ClassicalCalc),
so the classical hierarchy is the same code path. Order-by-order linear
problems have the shape (D w)A - A w = F; off-diagonal entries invert
coefficient-wise with eigenvalues a_j*sigma(m) - a_i, which non-resonance
keeps nonzero. Diagonals differ by structure:

* q-structure: a_i(D - 1) is invertible off constants; the constant part
  of F's diagonal must vanish or no series solution exists at all (the
  dilation structure, unlike integration, cannot absorb constants). For
  dressings this genuinely fails on generic inputs; the error is raised,
  not papered over.
* classical structure: the diagonal of F must vanish identically and the
  diagonal of the solution comes from the next order's consistency, by
  integration with zero constant.

Resolvents support two normalizations. "zero" sets every free diagonal
constant to zero; the resulting basis solves the commutation identity but
is not multiplicative. "orthogonal" (default) lifts the constants order
by order so that R_a R_b = delta * R_b holds exactly; when the dressing
exists the conjugation route reproduces this family.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .calculus import ClassicalCalc, QCalc
from .matseries import MatSeries
from .scalars import ZERO, frac
from .series import XSeries
from .zseries import MZSeries, NEG_INF

Calc = QCalc | ClassicalCalc


class ResonanceError(ValueError):
    """a_j * sigma(m) == a_i made an order-by-order solve singular."""


class DiagonalConsistencyError(ValueError):
    """A diagonal equation has no series solution (nonzero constant source)."""


class LaxData:
    """The operator data: diagonal A, off-diagonal potential U, structure."""

    __slots__ = ("n", "a", "u", "calc")

    def __init__(self, a, u: MatSeries, calc: Calc):
        self.a = [frac(v) for v in a]
        self.n = len(self.a)
        self.u = u
        self.calc = calc
        self._validate()

    def _validate(self):
        if self.u.n != self.n:
            raise ValueError("U dimension does not match A")
        if len(set(self.a)) != self.n:
            raise ValueError("eigenvalues of A must be distinct")
        if any(v == 0 for v in self.a):
            raise ValueError("eigenvalues of A must be nonzero")
        for i in range(self.n):
            if not self.u[i, i].is_zero():
                raise ValueError("U must have zero diagonal (u_ii = 0)")
        order = self.calc.order
        for m in range(order + 1):
            sig = self.calc.dilation_eig(m)
            for i in range(self.n):
                for j in range(self.n):
                    if i != j and self.a[j] * sig == self.a[i]:
                        raise ResonanceError(
                            f"resonance: a_{j+1} * sigma({m}) == a_{i+1}"
                        )

    @property
    def order(self) -> int:
        return self.calc.order

    def proto(self) -> XSeries:
        return XSeries.zero(self.order)

    def a_mat(self) -> MatSeries:
        return MatSeries.diag_const(self.a, self.order)

    def u_minus_za(self) -> MZSeries:
        """U - zA as a matrix Laurent series."""
        return MZSeries(self.n, {0: self.u, 1: -self.a_mat()})

    def unit(self, alpha: int) -> MatSeries:
        return MatSeries.unit(self.n, alpha, self.proto())


class Dressing:
    """I + w_1 z**-1 + ... + w_K z**-K with the factorization property."""

    __slots__ = ("orders", "lax")

    def __init__(self, orders, lax: LaxData):
        self.orders = list(orders)
        self.lax = lax

    @property
    def depth(self) -> int:
        return len(self.orders) - 1

    @property
    def terminated(self) -> bool:
        """An exactly vanishing order propagates: the series is finite."""
        return self.depth > 0 and self.orders[-1].is_zero_exact()

    def mz(self) -> MZSeries:
        zv = NEG_INF if self.terminated else -self.depth
        return MZSeries(
            self.lax.n, {-k: m for k, m in enumerate(self.orders)}, zvalid=zv
        )


class Resolvent:
    """Channel resolvent: E_alpha + R(1) z**-1 + ... + R(J) z**-J."""

    __slots__ = ("alpha", "orders", "lax", "exact")

    def __init__(self, alpha: int, orders, lax: LaxData, exact: bool = False):
        self.alpha = alpha
        self.orders = list(orders)
        self.lax = lax
        self.exact = exact

    @property
    def depth(self) -> int:
        return len(self.orders) - 1

    def mz(self) -> MZSeries:
        zv = NEG_INF if self.exact else -self.depth
        return MZSeries(
            self.lax.n, {-j: m for j, m in enumerate(self.orders)}, zvalid=zv
        )


def _solve_offdiag(lax: LaxData, F: MatSeries) -> MatSeries:
    """Off-diagonal part of (D w)A - A w = F, coefficient by coefficient."""
    n, order = lax.n, lax.order
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(XSeries.zero(order))
                continue
            src = F[i, j]
            top = min(src.valid, order)
            coeffs = [ZERO] * (order + 1)
            for m in range(top + 1):
                if src.coeffs[m] == 0:
                    continue
                eig = lax.a[j] * lax.calc.dilation_eig(m) - lax.a[i]
                if eig == 0:
                    raise ResonanceError(f"resonance at entry {(i, j)} degree {m}")
                coeffs[m] = src.coeffs[m] / eig
            row.append(XSeries(coeffs, src.valid))
        rows.append(row)
    return MatSeries(rows)


def _solve_diag_q(lax: LaxData, F: MatSeries, context: str) -> list[XSeries]:
    """Diagonal part under the q-structure: invert a_i (D - 1), zero constant."""
    out = []
    order = lax.order
    for i in range(lax.n):
        src = F[i, i]
        if src.valid >= 0 and src.coeffs[0] != 0:
            raise DiagonalConsistencyError(
                f"{context}: diagonal equation {i+1} has constant source "
                f"{src.coeffs[0]}; a_i(D-1) cannot produce constants"
            )
        top = min(src.valid, order)
        coeffs = [ZERO] * (order + 1)
        for m in range(1, top + 1):
            eig = lax.a[i] * (lax.calc.dilation_eig(m) - 1)
            coeffs[m] = src.coeffs[m] / eig
        out.append(XSeries(coeffs, src.valid))
    return out


def _with_diag(mat: MatSeries, diag) -> MatSeries:
    rows = [list(r) for r in mat.rows]
    for i, d in enumerate(diag):
        rows[i][i] = d
    return MatSeries(rows)


def _assert_diag_consistent(F: MatSeries, context: str):
    for i in range(F.n):
        if not F[i, i].is_zero():
            raise DiagonalConsistencyError(
                f"{context}: diagonal source {i+1} must vanish, got {F[i, i]!r}"
            )


def solve_dressing(lax: LaxData, depth: int) -> Dressing:
    """Solve the conjugating series order by order to the given depth.

    Raises DiagonalConsistencyError when no series dressing exists; under
    the q-structure this happens for generic potentials (the diagonal
    equations acquire constant sources the dilation cannot absorb).
    """
    calc = lax.calc
    ws = [MatSeries.identity(lax.n, lax.proto())]
    for _ in range(depth):
        wk = ws[-1]
        F = -wk.map(calc.derive) - (lax.u @ wk)
        w = _solve_offdiag(lax, F)
        if calc.classical:
            _assert_diag_consistent(F, "dressing")
            uw = lax.u @ w
            diag = [calc.antiderive(-uw[i, i]) for i in range(lax.n)]
            w = _with_diag(w, diag)
        else:
            w = _with_diag(w, _solve_diag_q(lax, F, "dressing"))
        ws.append(w)
    return Dressing(ws, lax)


def _idempotent_repair(alpha, unit, rho, prior, context) -> MatSeries:
    """Lift the free diagonal constants so the partial sums stay idempotent."""
    n = unit.n
    mid = None
    for a in range(1, len(prior)):
        term = prior[a] @ prior[len(prior) - a]
        mid = term if mid is None else mid + term
    K = (unit @ rho) + (rho @ unit) - rho
    if mid is not None:
        K = K + mid
    consts = []
    for i in range(n):
        kii = K[i, i]
        c = kii.constant_term()
        rest = kii - XSeries.const(c, kii.order)
        if not rest.is_zero():
            raise DiagonalConsistencyError(
                f"{context}: idempotent lift blocked by nonconstant defect {kii!r}"
            )
        consts.append(-c if i == alpha else c)
    for i in range(n):
        for j in range(n):
            if i != j and not K[i, j].is_zero():
                raise DiagonalConsistencyError(
                    f"{context}: idempotent lift blocked at entry {(i, j)}"
                )
    order = rho.proto().order
    fix = MatSeries.diag_const(consts, order)
    return rho + fix


def solve_resolvent_direct(
    lax: LaxData, alpha: int, depth: int, normalization: str = "orthogonal"
) -> Resolvent:
    """Order-by-order solve of the commutation identity for channel alpha.

    normalization:
      "orthogonal" -- free diagonal constants lifted so the channel family
                      is a system of orthogonal idempotents (default);
      "zero"       -- every free constant set to zero.
    """
    if normalization not in ("orthogonal", "zero"):
        raise ValueError("normalization must be 'orthogonal' or 'zero'")
    calc = lax.calc
    unit = lax.unit(alpha)
    orders = [unit]
    for j in range(depth):
        rj = orders[-1]
        F = -rj.map(calc.derive) + (rj.map(calc.dilate) @ lax.u) - (lax.u @ rj)
        rho = _solve_offdiag(lax, F)
        if calc.classical:
            _assert_diag_consistent(F, f"resolvent channel {alpha+1}")
            com = (rho @ lax.u) - (lax.u @ rho)
            diag = [calc.antiderive(com[i, i]) for i in range(lax.n)]
            rho = _with_diag(rho, diag)
        else:
            rho = _with_diag(
                rho, _solve_diag_q(lax, F, f"resolvent channel {alpha+1}")
            )
        if normalization == "orthogonal":
            rho = _idempotent_repair(
                alpha, unit, rho, orders, f"resolvent channel {alpha+1}"
            )
        orders.append(rho)
    exact = normalization == "zero" and depth > 0 and orders[-1].is_zero_exact()
    return Resolvent(alpha, orders, lax, exact)


def resolvent_from_dressing(dressing: Dressing, alpha: int) -> Resolvent:
    """Conjugate the channel projector by the dressing series."""
    lax = dressing.lax
    depth = dressing.depth
    w = dressing.mz()
    winv = w.invert(-depth)
    unit = MZSeries.from_term(lax.n, 0, lax.unit(alpha))
    conj = w * unit * winv
    if conj.is_exact:
        span = -min(conj.bottom(), -depth) if conj.terms else depth
        orders = [conj.coeff(-j) for j in range(span + 1)]
        return Resolvent(alpha, orders, lax, exact=True)
    orders = []
    for j in range(depth + 1):
        if -j < conj.zvalid:
            break
        orders.append(conj.coeff(-j))
    return Resolvent(alpha, orders, lax)


def b_split(r: Resolvent, k: int) -> tuple[MZSeries, MZSeries]:
    """(z**k R)_+ and (z**k R)_- for the flow generators."""
    shifted = r.mz().shift(k)
    return shifted.project("plus"), shifted.project("minus")


def commutation_residual(lax: LaxData, r: MZSeries) -> MZSeries:
    """derive(R) - (D R)(U - zA) + (U - zA) R; zero for resolvents."""
    calc = lax.calc
    m = lax.u_minus_za()
    dr = r.map_entries(calc.derive)
    tw = r.map_entries(calc.dilate)
    return dr - (tw * m) + (m * r)


class ResidualReport:
    """Outcome of an exactness check on a matrix Laurent residual."""

    __slots__ = ("ok", "first_failure", "z_window", "x_valid")

    def __init__(self, residual: MZSeries):
        self.ok = residual.is_zero()
        self.first_failure = residual.first_nonzero()
        self.z_window = (residual.zvalid, residual.top())
        self.x_valid = residual.min_entry_valid()

    def __repr__(self):
        state = "ok" if self.ok else f"FAIL at {self.first_failure}"
        return f"<residual {state}; z>={self.z_window[0]}, x<={self.x_valid}>"


def verify_resolvent(lax: LaxData, r) -> ResidualReport:
    mz = r.mz() if isinstance(r, Resolvent) else r
    return ResidualReport(commutation_residual(lax, mz))


def u_flow(lax: LaxData, r: Resolvent, k: int) -> MatSeries:
    """The potential's flow: the multiplication part of [B, L]_q.

    The derivation-band part cancels identically; the result must be
    z-free and, when the hierarchy preserves the zero diagonal, diagonal
    free. Violations raise, since downstream flow identities rely on them.
    """
    b_plus, _ = b_split(r, k)
    flow = flow_commutator(lax, b_plus)
    bad = {d for d in flow.terms if d != 0 and not flow.terms[d].is_zero()}
    if bad:
        raise ValueError(f"flow has z-degrees {sorted(bad)}; expected z-free")
    value = flow.coeff(0)
    for i in range(lax.n):
        if not value[i, i].is_zero():
            raise DiagonalConsistencyError(
                f"flow diagonal entry {i+1} is {value[i, i]!r}, expected zero"
            )
    return value


def flow_commutator(lax: LaxData, b: MZSeries) -> MZSeries:
    """Multiplication part of the twisted commutator of b with the Lax operator.

    (D b)(U - zA) - (U - zA) b - derive(b); the derivation-band terms of
    the full operator bracket cancel exactly and are not materialized.
    """
    calc = lax.calc
    m = lax.u_minus_za()
    tw = b.map_entries(calc.dilate)
    return (tw * m) - (m * b) - b.map_entries(calc.derive)


def resolvent_flow(b_k: MZSeries, r_beta: Resolvent) -> MZSeries:
    """Plain commutator [B, R]: the time derivative of a resolvent."""
    r = r_beta.mz()
    return (b_k * r) - (r * b_k)


def flow_of_b(lax: LaxData, b_k: MZSeries, r_beta: Resolvent, l: int) -> MZSeries:
    """d_(k alpha) B_(l beta) = (z**l [B_(k alpha), R_beta])_+."""
    return resolvent_flow(b_k, r_beta).shift(l).project("plus")


def verify_zero_curvature(
    lax: LaxData,
    flow1: tuple[int, Resolvent],
    flow2: tuple[int, Resolvent],
) -> ResidualReport:
    """d1 B2 - d2 B1 = [B1, B2], evaluated exactly on solved resolvents."""
    k, r_alpha = flow1
    l, r_beta = flow2
    b1, _ = b_split(r_alpha, k)
    b2, _ = b_split(r_beta, l)
    d1b2 = flow_of_b(lax, b1, r_beta, l)
    d2b1 = flow_of_b(lax, b2, r_alpha, k)
    bracket = (b1 * b2) - (b2 * b1)
    return ResidualReport(d1b2 - d2b1 - bracket)


def expand_in_basis(
    s: MZSeries, family: list[Resolvent]
) -> dict[tuple[int, int], Fraction]:
    """Write a leading-term-free resolvent as sum of c_b(z) R_b, c constant.

    Returns {(beta, z_power): constant}; raises if the remainder at some
    order is not a constant-diagonal combination (the computational
    content of the basis property).
    """
    lax = family[0].lax
    depth = min(r.depth for r in family)
    coeffs: dict[tuple[int, int], Fraction] = {}
    acc = s
    for j in range(1, depth + 1):
        if -j < max(acc.zvalid, s.zvalid):
            break
        cur = acc.coeff(-j)
        consts = []
        for beta in range(lax.n):
            c = cur[beta, beta].constant_term()
            consts.append(c)
            if c != 0:
                coeffs[(beta, j)] = c
        for beta, c in enumerate(consts):
            if c == 0:
                continue
            acc = acc - family[beta].mz().shift(-j).scale(c)
        rem = acc.coeff(-j)
        if not rem.is_zero():
            raise ValueError(
                f"residual at z**-{j} outside the constant-diagonal span: {rem!r}"
            )
    return coeffs


class HierarchySession:
    """Resolvent cache for one Lax datum; safe for concurrent reads."""

    def __init__(self, lax: LaxData):
        self.lax = lax
        self._lock = threading.Lock()
        self._resolvents: dict[tuple[int, int, str], Resolvent] = {}

    def resolvent(
        self, alpha: int, depth: int, normalization: str = "orthogonal"
    ) -> Resolvent:
        key = (alpha, depth, normalization)
        with self._lock:
            got = self._resolvents.get(key)
        if got is not None:
            return got
        solved = solve_resolvent_direct(self.lax, alpha, depth, normalization)
        with self._lock:
            self._resolvents.setdefault(key, solved)
        return solved

    def family(self, depth: int, normalization: str = "orthogonal"):
        return [
            self.resolvent(alpha, depth, normalization)
            for alpha in range(self.lax.n)
        ]
