"""Lax structure, dressing and resolvent solvers, flows, and their checks.

A channel resolvent R_a = E_a + R(1) z**-1 + ... is an `MZSeries`, and
a `Dressing` holds its series w with its depth. One rule, `_solved`,
sets the z-window of every solve, fresh or read off a deeper cached one:
exact when the solve terminates on an order that vanished exactly,
otherwise unknown below z**-depth. Consumers read orders as
`coeff(-j)`.

The one flow rule, d_(k a) R_b = [B_(k a), R_b] with B = (z**k R)_+, is
`FlowTable`: it memoizes the flow derivatives of the resolvents, of the
generators B and of the Baker flow factors. The bilinear residues read
them from it, and so does the zero-curvature check, which reads every
flow pair from one table over the channel family. Each reader tells the
table how far it reads, and the table forms each flow derivative only
from the z-degree that the generators read of it.

All solvers run against the q of their `LaxData`; at q = 1 it is the
classical structure, so the classical hierarchy is the same code path.
Both order-by-order solvers take one step, `_next_order`: with
F = mult(prev) - D prev, solve (D w)A - A w = F and build w once. Each
off-diagonal entry divides F's coefficient-wise by the eigenvalues
a_j*sigma(m) - a_i (`_divide_by_eigs`), which non-resonance keeps
nonzero; the `LaxData` holds their reciprocals, one table per (j, i),
built on first use, so no module state outlives a datum. The step reads
the structure only for the diagonal:

* q-structure: a_i(D - 1) is invertible off constants, so the diagonal
  divides too, by a_i(sigma(m) - 1); the constant part of F's diagonal
  must vanish or no series solution exists at all (the dilation
  structure, unlike integration, cannot absorb constants). For dressings
  this genuinely fails on generic inputs; the error is raised, not
  papered over.
* classical structure (q = 1): the diagonal of F must vanish identically
  and the diagonal of the solution comes from the next order's
  consistency, by integrating the diagonal of mult(w) with zero constant;
  only that diagonal of mult(w) is formed.

Residuals of the commutation identity go through the q-Leibniz reduction
`zseries.derive_through`, shared with the bilinear and tau checks.

Resolvents support two normalizations. "zero" sets every free diagonal
constant to zero; the resulting basis solves the commutation identity but
is not multiplicative. "orthogonal" (default) lifts the constants order
by order so that R_a R_b = delta * R_b holds exactly; when the dressing
exists the conjugation route reproduces this family. The lift reads its
constants off the orders' x**0 coefficients and forms no product; the
orthogonality and route-agreement checks form the full products.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, product
from math import comb, gcd
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
    first use (`eig_weights`). Two data are equal when their A, U and q
    are.
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

    def __eq__(self, other) -> bool:
        return isinstance(other, LaxData) and (self.a, self.u, self.q) == (
            other.a, other.u, other.q)

    def dilate(self, f: XSeries) -> XSeries:
        return calculus.dilate(f, self.q)

    def derive(self, f: XSeries) -> XSeries:
        return calculus.q_derive(f, self.q)

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
        denominator; where the eigenvalue vanishes the weight is 0."""
        got = self._eigs.get((j, i))
        if got is None:
            eigs = [self.a[j] * self.q**m - self.a[i]
                    for m in range(self.order + 1)]
            got = self._eigs[(j, i)] = common_den(
                [1 / e if e else ZERO for e in eigs])
        return got


def _solved(n: int, orders: list[MatSeries], terminates: bool) -> MZSeries:
    """The series sum_j orders[j] z**-j of a solve to depth d = len(orders) - 1.

    The one window rule of the solvers: exact when the solve terminates
    on an order d > 0 that vanished exactly (a vanishing order propagates,
    so the series is finite), otherwise unknown below z**-d.
    """
    d = len(orders) - 1
    exact = terminates and d > 0 and orders[-1].is_zero_exact()
    return MZSeries(n, {-j: m for j, m in enumerate(orders)}, NEG_INF if exact else -d)


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


class Dressing:
    """w = I + w_1 z**-1 + ... + w_K z**-K with the factorization property.

    The constructor takes the orders I, w_1, ..., w_K and sets w's window
    by the solvers' one rule (`_solved`): a dressing terminates, so w is
    exact when w_K vanishes exactly. The dressing owns the Baker
    data every consumer reads: its inverse w**-1 (determined down to
    z**-K), the channel family w E_a w**-1 and the x-derivative factor
    D w * w**-1. Each is computed once, on first use; a modified dressing
    is a new object and never sees them.
    """

    __slots__ = ("w", "depth", "lax", "_inverse", "_resolvents", "_x_factor")

    def __init__(self, orders: list[MatSeries], lax: LaxData):
        self.w = _solved(lax.n, orders, True)
        self.depth = len(orders) - 1
        self.lax = lax
        self._inverse = None
        self._resolvents = None
        self._x_factor = None

    def inverse(self) -> MZSeries:
        """w**-1 down to z**-depth."""
        if self._inverse is None:
            self._inverse = self.w.invert(-self.depth)
        return self._inverse

    def x_factor(self) -> MZSeries:
        """D w * w**-1, computed honestly from the dressing series: zA - U
        exactly when the dressing solves the hierarchy, and any violation
        shows up as negative z-degrees."""
        if self._x_factor is None:
            lax = self.lax
            self._x_factor = x_factor_of(
                self.w, self.inverse(), lax.a, lax.derive, lax.dilate)
        return self._x_factor

    def resolvents(self) -> list[MZSeries]:
        """The conjugated channel family, one resolvent per channel."""
        if self._resolvents is None:
            self._resolvents = [
                resolvent_from_dressing(self, a) for a in range(self.lax.n)
            ]
        return self._resolvents


def _divide_by_eigs(lax: LaxData, src: XSeries, j: int, i: int) -> XSeries:
    """src_m / (a_j*sigma(m) - a_i) inside src's validity window, zero above
    it. `LaxData` has rejected every resonance, so an eigenvalue vanishes
    only on the diagonal at m = 0, where the source's constant is zero;
    its weight is 0."""
    ws, den = lax.eig_weights(j, i)
    known = src.known
    out = list(map(mul, known, ws))
    out += [0] * (lax.order + 1 - len(known))
    return XSeries.from_ints(out, src.den * den, src.valid, len(known) - 1)


def _next_order(lax: LaxData, prev: MatSeries, blocks, context: str) -> MatSeries:
    """The next order w: (D w)A - A w = F with F = mult(prev) - D prev.

    `blocks(w)` is the solver's multiplication part mult(w) as the block
    pairs of one `MatSeries.dot`. Only the diagonal reads the structure:
    classically F's diagonal must vanish and w's integrates that of
    mult(w), of which only the n diagonal entries are formed; under the
    q-structure F's diagonal must have no constant term and w's divides it
    by a_i(sigma(m) - 1).
    """
    n = lax.n
    F = MatSeries.dot(blocks(prev)) - prev.map(lax.derive)
    zero = lax.proto()
    rows = [[zero if i == j else _divide_by_eigs(lax, F[i, j], j, i)
             for j in range(n)] for i in range(n)]
    if lax.classical:
        for i in range(n):
            if not F[i, i].is_zero():
                raise DiagonalConsistencyError(
                    f"{context}: diagonal source {i+1} must vanish, got {F[i, i]!r}"
                )
        # u_ii = 0, so mult(w)'s diagonal does not read w's
        src = MatSeries.dot_diagonal(blocks(MatSeries(rows)))
        for i in range(n):
            rows[i][i] = calculus.q_antiderive(src[i], 1)
    else:
        for i in range(n):
            if any(F[i, i].known[:1]):
                raise DiagonalConsistencyError(
                    f"{context}: diagonal equation {i+1} has constant source "
                    f"{F[i, i].constant_term()}; a_i(D-1) cannot produce constants"
                )
            rows[i][i] = _divide_by_eigs(lax, F[i, i], i, i)
    return MatSeries(rows)


def solve_dressing(lax: LaxData, depth: int) -> Dressing:
    """Solve the conjugating series order by order to the given depth.

    Raises DiagonalConsistencyError when no series dressing exists; under
    the q-structure this happens for generic potentials (the diagonal
    equations acquire constant sources the dilation cannot absorb).
    """
    neg_u = -lax.u
    ws = [MatSeries.identity(lax.n, lax.proto())]
    for _ in range(depth):
        ws.append(_next_order(lax, ws[-1], lambda w: ((neg_u, w),), "dressing"))
    return Dressing(ws, lax)


def _idempotent_repair(alpha, lift, rho, prior) -> MatSeries:
    """Lift the free diagonal constants so the partial sums stay idempotent.

    The defect at order m = len(prior) is K = sum_(a=0..m) R_a R_(m-a) - rho
    with R_0 = E the channel projector and R_m = rho; `lift` is E - I, which
    carries the -rho. K is a constant diagonal: by q-Leibniz R**2 solves
    the commutation identity as R does, and equals R through order m - 1,
    so (R**2)_m and rho solve the same order-m step and differ by a free
    constant. The constant term of a product is the product of the
    constant terms, so K's diagonal is read off the x**0 coefficients of
    the orders and K itself is not formed (tests/test_solver_oracles.py
    forms it whole and checks that it is this constant).
    """
    n, m = rho.n, len(prior)
    blocks = [(lift, rho), (rho, prior[0])] + [
        (prior[a], prior[m - a]) for a in range(1, m)
    ]
    consts = []
    for i in range(n):
        num, den = 0, 1  # the sum of the x**0 products over their lcm
        for a, b in blocks:
            for k, x in enumerate(a.rows[i]):
                y = b.rows[k][i]
                p = x.nums[0] * y.nums[0]
                if p:
                    d = x.den * y.den
                    lcm = den // gcd(den, d) * d
                    num, den = num * (lcm // den) + p * (lcm // d), lcm
        c = Fraction(num, den)
        consts.append(-c if i == alpha else c)
    return rho + MatSeries.diag_const(consts, rho.proto())


def solve_resolvent_direct(
    lax: LaxData, alpha: int, depth: int, normalization: str = "orthogonal"
) -> MZSeries:
    """Order-by-order solve of the commutation identity for channel alpha.

    The window is `_solved`'s: a zero-normalized solve terminates, so it
    is exact when its last order vanished exactly; an orthogonal one is
    unknown below z**-depth.

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
            lax, orders[-1], lambda r: ((r.map(dilate), u), (neg_u, r)), context
        )
        if normalization == "orthogonal":
            rho = _idempotent_repair(alpha, lift, rho, orders)
        orders.append(rho)
    return _solved(lax.n, orders, normalization == "zero")


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


def commutation_residual(lax: LaxData, r: MZSeries, *window) -> MZSeries:
    """derive(R) - (sigma R)(U - zA) + (U - zA) R; zero for resolvents.

    Its negative is the multiplication part of the twisted commutator of R
    with the Lax operator: the derivation-band terms of the full operator
    bracket cancel exactly and are not materialized. A caller that reads
    only some degrees passes their window (lo, hi), as to
    `MZSeries.product`.
    """
    m = lax.u_minus_za()
    return derive_through(r, -m, lax.derive, lax.dilate, *window) + m.product(
        r, *window)


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


def _bracket(a: MZSeries, b: MZSeries, lo=NEG_INF) -> MZSeries:
    return a.product(b, lo) - b.product(a, lo)


def flow_reach(lams) -> int:
    """The largest total flow order, the sum of k over the flows g = (k, a),
    of the flow multisets `lams`; 0 when there are none."""
    return max((sum(k for k, _ in lam) for lam in lams), default=0)


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

    `reach`, when given, is the largest total order k + w(mu) of any
    b(g, mu) the caller reads, w(mu) being mu's total flow order; a factor
    f_lam reads b up to w(lam). Then r(b, mu) is formed only from degree
    w(mu) - reach up, which is what b reads of it: z**k r(a, mu) from
    degree 0. The window holds through the Leibniz sum, since the bracket
    [b(g, nu), r(b, rest)] reads r(b, rest) there only from
    w(rest) - reach up; `flow_reach` gives the reach of a set of lambdas
    or of flow pairs. Without `reach` every r is the whole series.
    """

    def __init__(self, family: list[MZSeries], reach: int | None = None):
        self.family = family
        self._floor = NEG_INF if reach is None else -reach
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
                lo = self._floor + flow_reach((mu,))
                got = _leibniz(mu[1:], lambda nu, rest: _bracket(
                    self.b(g, nu), self.r(beta, rest), lo))
                if lo > got.zvalid:  # the degrees below lo were not formed
                    got = MZSeries(got.n, got.terms, lo, got.proto)
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
) -> tuple[dict[tuple[int, int], Fraction], MZSeries]:
    """Write a leading-term-free resolvent as sum of c_b(z) R_b, c constant.

    The expansion runs down to s's depth: z**zvalid, or its lowest stored
    degree when s is exact. At each order z**-j it reads the constants
    c_(b, j) off the diagonal of what is left and subtracts
    c_(b, j) z**-j R_b. Returns ({(beta, j): c_(beta, j)}, remainder); the
    remainder is zero exactly when s lies in the constant-diagonal span
    (the computational content of the basis property), and it carries the
    witness and the window of that verdict. Raises `InsufficientDepthError`
    at the first order that the family, shallower than s, leaves
    undetermined.
    """
    depth = -min(s.terms, default=0) if s.is_exact else -s.zvalid
    coeffs: dict[tuple[int, int], Fraction] = {}
    acc = s
    for j in range(1, depth + 1):
        cur = acc.coeff(-j)
        for beta in range(s.n):
            c = cur[beta, beta].constant_term()
            if c != 0:
                coeffs[(beta, j)] = c
                acc = acc - family[beta].shift(-j).scale(c)
    return coeffs, acc


class HierarchySession:
    """The resolvents of one Lax datum, each (channel, normalization) solved
    once at the deepest depth requested so far.

    A solve to depth d is the first d orders of the same solve taken
    deeper, so a shallower request reads the deepest cached solve's orders
    through z**-d and windows them by the solvers' one rule (`_solved`):
    the same terms and the same window as a fresh depth-d solve. A
    request at the cached depth returns the cached series itself. A
    request that raises caches nothing.
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
            if got[0] == depth:
                return deeper
            orders = [deeper.coeff(-j) for j in range(depth + 1)]
            return _solved(self.lax.n, orders, normalization == "zero")
        series = solve_resolvent_direct(self.lax, alpha, depth, normalization)
        self._deepest[key] = (depth, series)
        return series

    def family(self, depth: int):
        """The orthogonal channel family through `depth`."""
        return [self.resolvent(alpha, depth) for alpha in range(self.lax.n)]
