"""Lax structure, dressing and resolvent solvers, flows, and their checks.

A channel resolvent R_a = E_a + R(1) z**-1 + ... is an `MZSeries`: exact
when its series terminates, otherwise unknown below z**-depth. A
`Dressing` holds its series w with its depth. Consumers read orders as
`coeff(-j)`.

The one flow rule, d_(k a) R_b = [B_(k a), R_b] with B = (z**k R)_+, is
`FlowTable`: it memoizes the flow derivatives of the resolvents, of the
generators B and of the Baker flow factors. The bilinear residues read
them from it, and so does the zero-curvature check, which reads every
flow pair from one table over the channel family.

All solvers run against the q of their `LaxData`; at q = 1 it is the
classical structure, so the classical hierarchy is the same code path.
Both order-by-order solvers take one step, `_next_order`: with
F = mult(prev) - D prev, solve (D w)A - A w = F. Off-diagonal entries
invert coefficient-wise with eigenvalues a_j*sigma(m) - a_i, which
non-resonance keeps nonzero; the `LaxData` holds their reciprocals, one
table per (j, i), built on first use, so no module state outlives a
datum.
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
from itertools import groupby, product
from math import comb
from operator import mul

from . import calculus
from .matseries import MatSeries
from .scalars import ZERO, check_q, common_den, frac
from .series import XSeries
from .zseries import MZSeries, NEG_INF, derive_through


class ResonanceError(ValueError):
    """a_j * sigma(m) == a_i made an order-by-order solve singular."""


class DiagonalConsistencyError(ValueError):
    """A diagonal equation has no series solution (nonzero constant source)."""


class LaxData:
    """The operator data: diagonal A, off-diagonal potential U, and the
    deformation parameter q; q = 1 is the classical structure.

    U's x-order is the order of every solve, and any q other than 1 must
    pass `check_q` at it. The datum also holds the eigen-weights of the
    order-by-order solves, one table per pair of channels (j, i), built on
    first use (`eig_weights`).
    """

    __slots__ = ("n", "a", "u", "q", "order", "classical", "_eigs")

    def __init__(self, a, u: MatSeries, q):
        self.a = [frac(v) for v in a]
        self.n = len(self.a)
        self.u = u
        self.order = u.proto().order
        q = frac(q)
        self.classical = q == 1
        self.q = q if self.classical else check_q(q, self.order)
        self._eigs = {}
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
        for m in range(self.order + 1):
            sig = self.q**m
            for i in range(self.n):
                for j in range(self.n):
                    if i != j and self.a[j] * sig == self.a[i]:
                        raise ResonanceError(
                            f"resonance: a_{j+1} * sigma({m}) == a_{i+1}"
                        )

    def dilate(self, f: XSeries) -> XSeries:
        return calculus.dilate(f, self.q)

    def derive(self, f: XSeries) -> XSeries:
        return calculus.q_derive(f, self.q)

    def antiderive(self, g: XSeries) -> XSeries:
        return calculus.q_antiderive(g, self.q)

    def proto(self) -> XSeries:
        return XSeries.zero(self.order)

    def a_mat(self) -> MatSeries:
        return MatSeries.diag_const(self.a, self.proto())

    def u_minus_za(self) -> MZSeries:
        """U - zA as a matrix Laurent series."""
        return MZSeries(self.n, {0: self.u, 1: -self.a_mat()})

    def unit(self, alpha: int) -> MatSeries:
        return MatSeries.unit(self.n, alpha, self.proto())

    def eig_weights(self, j: int, i: int):
        """1/(a_j*sigma(m) - a_i) for m = 0..order as integers over one
        denominator; where the eigenvalue vanishes the weight is 0 and the
        degree is listed."""
        got = self._eigs.get((j, i))
        if got is None:
            eigs = [self.a[j] * self.q**m - self.a[i]
                    for m in range(self.order + 1)]
            nums, den = common_den([1 / e if e else ZERO for e in eigs])
            got = nums, den, tuple(m for m, e in enumerate(eigs) if not e)
            self._eigs[(j, i)] = got
        return got


class Dressing:
    """w = I + w_1 z**-1 + ... + w_K z**-K with the factorization property.

    The constructor sets w's validity from K = depth: exact when w_K
    vanishes exactly (a vanishing order propagates, so the series is
    finite), otherwise unknown below z**-K. The dressing owns the Baker
    data every consumer reads: its inverse w**-1 (determined down to
    z**-K) and the channel family w E_a w**-1. Both are computed once, on
    first use; a modified dressing is a new object and never sees them.
    """

    __slots__ = ("w", "depth", "lax", "_inverse", "_resolvents")

    def __init__(self, w: MZSeries, depth: int, lax: LaxData):
        finite = depth > 0 and w.coeff(-depth).is_zero_exact()
        self.w = MZSeries(lax.n, w.terms, NEG_INF if finite else -depth, w.proto)
        self.depth = depth
        self.lax = lax
        self._inverse = None
        self._resolvents = None

    def inverse(self) -> MZSeries:
        """w**-1 down to z**-depth."""
        if self._inverse is None:
            self._inverse = self.w.invert(-self.depth)
        return self._inverse

    def resolvents(self) -> list[MZSeries]:
        """The conjugated channel family, one resolvent per channel."""
        if self._resolvents is None:
            self._resolvents = [
                resolvent_from_dressing(self, a) for a in range(self.lax.n)
            ]
        return self._resolvents


def _divide_by_eigs(lax: LaxData, src: XSeries, j: int, i: int) -> XSeries:
    """src_m / (a_j*sigma(m) - a_i) inside src's validity window, zero above
    it; a vanishing eigenvalue against a nonzero coefficient is a resonance."""
    ws, den, zeros = lax.eig_weights(j, i)
    known = src.known
    for m in zeros:
        if m < len(known) and known[m]:
            raise ResonanceError(f"resonance at entry {(i, j)} degree {m}")
    out = list(map(mul, known, ws))
    out += [0] * (lax.order + 1 - len(known))
    return XSeries.from_ints(out, src.den * den, src.valid, len(known) - 1)


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
        if any(src.known[:1]):
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
    F = mult(prev) - prev.map(lax.derive)
    w = _solve_offdiag(lax, F)
    if lax.classical:
        for i in range(lax.n):
            if not F[i, i].is_zero():
                raise DiagonalConsistencyError(
                    f"{context}: diagonal source {i+1} must vanish, got {F[i, i]!r}"
                )
        src = mult(w)
        diag = [lax.antiderive(src[i, i]) for i in range(lax.n)]
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
    return Dressing(MZSeries(lax.n, {-k: m for k, m in enumerate(ws)}), depth, lax)


def _idempotent_repair(alpha, lift, rho, prior, context) -> MatSeries:
    """Lift the free diagonal constants so the partial sums stay idempotent.

    The defect at order m = len(prior) is K = sum_(a=0..m) R_a R_(m-a) - rho
    with R_0 = E the channel projector and R_m = rho; `lift` is E - I, which
    carries the -rho, so K is one `MatSeries.dot` over m + 1 block pairs.
    """
    n = rho.n
    m = len(prior)
    K = MatSeries.dot(
        [(lift, rho), (rho, prior[0])]
        + [(prior[a], prior[m - a]) for a in range(1, m)]
    )
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
) -> MZSeries:
    """Order-by-order solve of the commutation identity for channel alpha.

    The series is unknown below z**-depth, except that a zero-normalized
    solve whose last order vanishes exactly has terminated and is exact.

    normalization:
      "orthogonal" -- free diagonal constants lifted so the channel family
                      is a system of orthogonal idempotents (default);
      "zero"       -- every free constant set to zero.
    """
    if normalization not in ("orthogonal", "zero"):
        raise ValueError("normalization must be 'orthogonal' or 'zero'")
    u, neg_u, dilate = lax.u, -lax.u, lax.dilate
    context = f"resolvent channel {alpha+1}"
    unit = lax.unit(alpha)
    lift = unit - MatSeries.identity(lax.n, lax.proto())
    orders = [unit]
    for _ in range(depth):
        rho = _next_order(
            lax, orders[-1],
            lambda r: MatSeries.dot(((r.map(dilate), u), (neg_u, r))), context
        )
        if normalization == "orthogonal":
            rho = _idempotent_repair(alpha, lift, rho, orders, context)
        orders.append(rho)
    exact = normalization == "zero" and depth > 0 and orders[-1].is_zero_exact()
    return MZSeries(
        lax.n, {-j: m for j, m in enumerate(orders)}, NEG_INF if exact else -depth
    )


def resolvent_from_dressing(dressing: Dressing, alpha: int) -> MZSeries:
    """w E_alpha w**-1: the channel projector conjugated by the dressing.

    Exact when w and its inverse are; otherwise unknown below z**-depth at
    the lowest, since w**-1 is cut there and both factors have top degree 0.
    """
    lax = dressing.lax
    unit = MZSeries.from_term(lax.n, 0, lax.unit(alpha))
    return dressing.w * unit * dressing.inverse()


def b_split(r: MZSeries, k: int) -> tuple[MZSeries, MZSeries]:
    """(z**k R)_+ and (z**k R)_- for the flow generators."""
    shifted = r.shift(k)
    return shifted.project("plus"), shifted.project("minus")


def commutation_residual(lax: LaxData, r: MZSeries) -> MZSeries:
    """derive(R) - (sigma R)(U - zA) + (U - zA) R; zero for resolvents.

    Its negative is the multiplication part of the twisted commutator of R
    with the Lax operator: the derivation-band terms of the full operator
    bracket cancel exactly and are not materialized.
    """
    m = lax.u_minus_za()
    return derive_through(r, -m, lax.derive, lax.dilate) + (m * r)


def verify_resolvent(lax: LaxData, r: MZSeries) -> MZSeries:
    """The commutation residual of a resolvent; zero for resolvents of `lax`."""
    return commutation_residual(lax, r)


def u_flow(lax: LaxData, r: MZSeries, k: int) -> MatSeries:
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


def _leibniz(mu: tuple, term) -> MZSeries:
    """The Leibniz sum over the sub-multisets nu of the sorted tuple mu:
    C(mu, nu) * term(nu, mu - nu), C the product of binomials over the
    multiplicities."""
    groups = [(g, len(list(run))) for g, run in groupby(mu)]
    acc = None
    for counts in product(*(range(m + 1) for _, m in groups)):
        nu, rest, c = (), (), 1
        for (g, m), j in zip(groups, counts):
            nu, rest, c = nu + (g,) * j, rest + (g,) * (m - j), c * comb(m, j)
        v = term(nu, rest)
        v = v if c == 1 else v.scale(c)
        acc = v if acc is None else acc + v
    return acc


def _bracket(a: MZSeries, b: MZSeries) -> MZSeries:
    return (a * b) - (b * a)


class FlowTable:
    """The one flow rule, d_(k a) R_b = [B_(k a), R_b] with B_(k a) =
    (z**k R_a)_+, and what follows from it, each entry computed once.

    A flow g = (k, a) indexes `family` by channel. A derivative index mu
    is a multiset, written as a sorted tuple: the flows commute on a
    family of commuting resolvents (the zero-curvature identity).

    * r(b, mu) = d_mu R_b; d_(g+mu) R_b = sum C(mu,nu) [d_nu B_g, d_(mu-nu) R_b];
    * b(g, mu) = d_mu B_g = (z**k r(a, mu))_+;
    * factor(lam, mu) = d_mu f_lam, where d_lam w = f_lam w: f_() = I and
      f_(lam,g) = d_g f_lam + f_lam B_g, expanded by Leibniz.
    """

    def __init__(self, family: list[MZSeries]):
        self.family = family
        self._r: dict = {}
        self._b: dict = {}
        self._f: dict = {}

    def r(self, beta: int, mu: tuple = ()) -> MZSeries:
        got = self._r.get((beta, mu))
        if got is None:
            if not mu:
                got = self.family[beta]
            else:
                g = mu[0]
                got = _leibniz(mu[1:], lambda nu, rest: _bracket(
                    self.b(g, nu), self.r(beta, rest)))
            self._r[(beta, mu)] = got
        return got

    def b(self, g: tuple[int, int], mu: tuple = ()) -> MZSeries:
        got = self._b.get((g, mu))
        if got is None:
            k, alpha = g
            got = self._b[(g, mu)] = self.r(alpha, mu).shift(k).project("plus")
        return got

    def factor(self, lam: tuple, mu: tuple = ()) -> MZSeries:
        got = self._f.get((lam, mu))
        if got is None:
            if not lam:
                r0 = self.family[0]
                got = (MZSeries.zero if mu else MZSeries.identity)(r0.n, r0.proto)
            elif len(lam) == 1:
                got = self.b(lam[0], mu)
            else:
                prev, g = lam[:-1], lam[-1]
                got = self.factor(prev, tuple(sorted(mu + (g,)))) + _leibniz(
                    mu, lambda nu, rest: self.factor(prev, nu) * self.b(g, rest)
                )
            self._f[(lam, mu)] = got
        return got


def verify_zero_curvature(
    table: FlowTable, g1: tuple[int, int], g2: tuple[int, int]
) -> MZSeries:
    """d_g1 B_g2 - d_g2 B_g1 - [B_g1, B_g2] for two flows g = (k, alpha) of
    the table's family; zero when the flows commute."""
    bracket = _bracket(table.b(g1), table.b(g2))
    return table.b(g2, (g1,)) - table.b(g1, (g2,)) - bracket


def expand_in_basis(
    s: MZSeries, family: list[MZSeries]
) -> dict[tuple[int, int], Fraction]:
    """Write a leading-term-free resolvent as sum of c_b(z) R_b, c constant.

    The expansion runs down to s's depth: z**zvalid, or its lowest stored
    degree when s is exact. Returns {(beta, z_power): constant}; raises if
    the remainder at some order is not a constant-diagonal combination (the
    computational content of the basis property), and raises
    `InsufficientDepthError` at the first order that the family, shallower
    than s, leaves undetermined.
    """
    depth = -min(s.terms, default=0) if s.is_exact else -s.zvalid
    coeffs: dict[tuple[int, int], Fraction] = {}
    acc = s
    for j in range(1, depth + 1):
        cur = acc.coeff(-j)
        consts = []
        for beta in range(s.n):
            c = cur[beta, beta].constant_term()
            consts.append(c)
            if c != 0:
                coeffs[(beta, j)] = c
        for beta, c in enumerate(consts):
            if c == 0:
                continue
            acc = acc - family[beta].shift(-j).scale(c)
        rem = acc.coeff(-j)
        if not rem.is_zero():
            raise ValueError(
                f"residual at z**-{j} outside the constant-diagonal span: {rem!r}"
            )
    return coeffs


class HierarchySession:
    """The resolvents of one Lax datum, each (channel, normalization) solved
    once at the deepest depth requested so far.

    A solve to depth d is the first d orders of the same solve taken
    deeper, so a shallower request reads the deepest cached solve cut at
    z**-d: the same terms and the same window as a fresh depth-d solve.
    That solve is exact when its order d has vanished, and a zero order
    stays zero: so the cut is exact when the deeper solve is and has no
    term at z**-d, and otherwise unknown below z**-d. A request that
    raises caches nothing.
    """

    def __init__(self, lax: LaxData):
        self.lax = lax
        self._deepest: dict[tuple[int, str], tuple[int, MZSeries]] = {}

    def resolvent(
        self, alpha: int, depth: int, normalization: str = "orthogonal"
    ) -> MZSeries:
        key = (alpha, normalization)
        got = self._deepest.get(key)
        if got is not None and got[0] >= depth:
            deeper = got[1]
            if deeper.zvalid == -depth or (
                deeper.is_exact and min(deeper.terms) > -depth
            ):
                return deeper
            return MZSeries(self.lax.n, deeper.terms, -depth, deeper.proto)
        series = solve_resolvent_direct(self.lax, alpha, depth, normalization)
        self._deepest[key] = (depth, series)
        return series

    def family(self, depth: int):
        """The orthogonal channel family through `depth`."""
        return [self.resolvent(alpha, depth) for alpha in range(self.lax.n)]
