"""Lax structure, dressing and resolvent solvers, flows, and their checks.

All solvers run against a `QCalc`; at q = 1 it is the classical structure,
so the classical hierarchy is the same code path. Both order-by-order
solvers take one step, `_next_order`: with F = mult(prev) - D prev, solve
(D w)A - A w = F. Off-diagonal entries invert coefficient-wise with
eigenvalues a_j*sigma(m) - a_i, which non-resonance keeps nonzero.
Diagonals differ by structure, and that step is the only place they do:

* q-structure: a_i(D - 1) is invertible off constants; the constant part
  of F's diagonal must vanish or no series solution exists at all (the
  dilation structure, unlike integration, cannot absorb constants). For
  dressings this genuinely fails on generic inputs; the error is raised,
  not papered over.
* classical structure (q = 1): the diagonal of F must vanish identically
  and the diagonal of the solution comes from the next order's
  consistency, by integrating the diagonal of mult(w) with zero constant.

Residuals of the commutation identity go through the q-Leibniz reduction
`zseries.derive_through`, shared with the bilinear and tau checks.

Resolvents support two normalizations. "zero" sets every free diagonal
constant to zero; the resulting basis solves the commutation identity but
is not multiplicative. "orthogonal" (default) lifts the constants order
by order so that R_a R_b = delta * R_b holds exactly; when the dressing
exists the conjugation route reproduces this family.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .calculus import QCalc
from .matseries import MatSeries
from .scalars import ZERO, common_den, frac
from .series import XSeries
from .zseries import MZSeries, NEG_INF, derive_through


class ResonanceError(ValueError):
    """a_j * sigma(m) == a_i made an order-by-order solve singular."""


class DiagonalConsistencyError(ValueError):
    """A diagonal equation has no series solution (nonzero constant source)."""


class LaxData:
    """The operator data: diagonal A, off-diagonal potential U, structure."""

    __slots__ = ("n", "a", "u", "calc")

    def __init__(self, a, u: MatSeries, calc: QCalc):
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
        return MatSeries.diag_const(self.a, self.proto())

    def u_minus_za(self) -> MZSeries:
        """U - zA as a matrix Laurent series."""
        return MZSeries(self.n, {0: self.u, 1: -self.a_mat()})

    def unit(self, alpha: int) -> MatSeries:
        return MatSeries.unit(self.n, alpha, self.proto())


class Dressing:
    """I + w_1 z**-1 + ... + w_K z**-K with the factorization property.

    The dressing owns the Baker data every consumer reads: its inverse
    w**-1 (determined down to z**-K) and the channel family w E_a w**-1.
    Both are computed once, on first use; a modified dressing is a new
    object and never sees them.
    """

    __slots__ = ("orders", "lax", "_inverse", "_resolvents")

    def __init__(self, orders, lax: LaxData):
        self.orders = list(orders)
        self.lax = lax
        self._inverse = None
        self._resolvents = None

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

    def inverse(self) -> MZSeries:
        """w**-1 down to z**-depth."""
        if self._inverse is None:
            self._inverse = self.mz().invert(-self.depth)
        return self._inverse

    def resolvents(self) -> list[Resolvent]:
        """The conjugated channel family, one resolvent per channel."""
        if self._resolvents is None:
            self._resolvents = [
                resolvent_from_dressing(self, a) for a in range(self.lax.n)
            ]
        return self._resolvents


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


@lru_cache(maxsize=256)
def _eig_weights(calc: QCalc, a_out: Fraction, a_in: Fraction):
    """1/(a_out*sigma(m) - a_in) for m = 0..order as integers over one
    denominator; where the eigenvalue vanishes the weight is 0 and the
    degree is listed."""
    eigs = [a_out * calc.dilation_eig(m) - a_in for m in range(calc.order + 1)]
    nums, den = common_den([1 / e if e else ZERO for e in eigs])
    return nums, den, tuple(m for m, e in enumerate(eigs) if not e)


def _divide_by_eigs(lax: LaxData, src: XSeries, j: int, i: int) -> XSeries:
    """src_m / (a_j*sigma(m) - a_i) inside src's validity window, zero above
    it; a vanishing eigenvalue against a nonzero coefficient is a resonance."""
    ws, den, zeros = _eig_weights(lax.calc, lax.a[j], lax.a[i])
    top = max(min(src.valid, src.top, lax.order), -1)
    for m in zeros:
        if m <= top and src.nums[m]:
            raise ResonanceError(f"resonance at entry {(i, j)} degree {m}")
    out = list(map(mul, src.nums[: top + 1], ws))
    out += [0] * (lax.order - top)
    return XSeries.from_ints(out, src.den * den, src.valid, top)


def _solve_offdiag(lax: LaxData, F: MatSeries) -> MatSeries:
    """Off-diagonal part of (D w)A - A w = F, coefficient by coefficient."""
    n = lax.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(XSeries.zero(lax.order))
                continue
            row.append(_divide_by_eigs(lax, F[i, j], j, i))
        rows.append(row)
    return MatSeries(rows)


def _solve_diag_q(lax: LaxData, F: MatSeries, context: str) -> list[XSeries]:
    """Diagonal part under the q-structure: invert a_i (D - 1), zero constant."""
    out = []
    for i in range(lax.n):
        src = F[i, i]
        if src.valid >= 0 and src.nums[0]:
            raise DiagonalConsistencyError(
                f"{context}: diagonal equation {i+1} has constant source "
                f"{src.constant_term()}; a_i(D-1) cannot produce constants"
            )
        out.append(_divide_by_eigs(lax, src, i, i))
    return out


def _with_diag(mat: MatSeries, diag) -> MatSeries:
    rows = [list(r) for r in mat.rows]
    for i, d in enumerate(diag):
        rows[i][i] = d
    return MatSeries(rows)


def _next_order(lax: LaxData, prev: MatSeries, mult, context: str) -> MatSeries:
    """The next order w: (D w)A - A w = F with F = mult(prev) - D prev.

    `mult` is the solver's multiplication part. Classically F's diagonal
    must vanish and w's diagonal integrates that of mult(w); under the
    q-structure it inverts a_i(D - 1) against F's diagonal.
    """
    calc = lax.calc
    F = mult(prev) - prev.map(calc.derive)
    w = _solve_offdiag(lax, F)
    if calc.classical:
        for i in range(lax.n):
            if not F[i, i].is_zero():
                raise DiagonalConsistencyError(
                    f"{context}: diagonal source {i+1} must vanish, got {F[i, i]!r}"
                )
        src = mult(w)
        diag = [calc.antiderive(src[i, i]) for i in range(lax.n)]
    else:
        diag = _solve_diag_q(lax, F, context)
    return _with_diag(w, diag)


def solve_dressing(lax: LaxData, depth: int) -> Dressing:
    """Solve the conjugating series order by order to the given depth.

    Raises DiagonalConsistencyError when no series dressing exists; under
    the q-structure this happens for generic potentials (the diagonal
    equations acquire constant sources the dilation cannot absorb).
    """
    ws = [MatSeries.identity(lax.n, lax.proto())]
    for _ in range(depth):
        ws.append(_next_order(lax, ws[-1], lambda w: -(lax.u @ w), "dressing"))
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
    return rho + MatSeries.diag_const(consts, rho.proto())


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
    u, dilate = lax.u, lax.calc.dilate
    context = f"resolvent channel {alpha+1}"
    unit = lax.unit(alpha)
    orders = [unit]
    for _ in range(depth):
        rho = _next_order(
            lax, orders[-1], lambda r: (r.map(dilate) @ u) - (u @ r), context
        )
        if normalization == "orthogonal":
            rho = _idempotent_repair(alpha, unit, rho, orders, context)
        orders.append(rho)
    exact = normalization == "zero" and depth > 0 and orders[-1].is_zero_exact()
    return Resolvent(alpha, orders, lax, exact)


def resolvent_from_dressing(dressing: Dressing, alpha: int) -> Resolvent:
    """Conjugate the channel projector by the dressing series."""
    lax = dressing.lax
    depth = dressing.depth
    unit = MZSeries.from_term(lax.n, 0, lax.unit(alpha))
    conj = dressing.mz() * unit * dressing.inverse()
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
    """derive(R) - (sigma R)(U - zA) + (U - zA) R; zero for resolvents.

    Its negative is the multiplication part of the twisted commutator of R
    with the Lax operator: the derivation-band terms of the full operator
    bracket cancel exactly and are not materialized.
    """
    m = lax.u_minus_za()
    return derive_through(r, -m, lax.calc.derive, lax.calc.dilate) + (m * r)


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
    flow = -commutation_residual(lax, b_plus)
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
    """Resolvent cache for one Lax datum: each key is solved once."""

    def __init__(self, lax: LaxData):
        self.lax = lax
        self._resolvents: dict[tuple[int, int, str], Resolvent] = {}

    def resolvent(
        self, alpha: int, depth: int, normalization: str = "orthogonal"
    ) -> Resolvent:
        key = (alpha, depth, normalization)
        got = self._resolvents.get(key)
        if got is None:
            got = solve_resolvent_direct(self.lax, alpha, depth, normalization)
            self._resolvents[key] = got
        return got

    def family(self, depth: int, normalization: str = "orthogonal"):
        return [
            self.resolvent(alpha, depth, normalization)
            for alpha in range(self.lax.n)
        ]
