"""Square matrices over a coefficient ring (x-series or time polynomials).

Entries only need the ring protocol: +, -, unary -, the sum-of-products
kernel `dot`, is_zero(), is_zero_exact(), zero_like(), one_like().
Matrices are immutable; every operation returns a fresh object. A
matrix's exact-zero pattern is therefore decided once: `live` lists, per
row, the columns whose entry is not an exact zero, computed on first use
by `dot` (`MatSeries.zero` is known to have none). `is_zero_exact`
reads `live` once it is built; before that it scans only up to the
first live entry, and keeps its verdict.

`MatSeries.dot` sums block products with one ring `dot` per entry, over
every block and inner index together, so each entry of a sum of products
is reduced once; `@` is its one-block case. It forms only the pairs whose
two entries are both live: an exact-zero factor annihilates the product
(`window.upper_product`) and adds no term, so an entry with no live pair
is the ring's exact zero. A zero known only through its window is live.
"""

from __future__ import annotations

from operator import add, sub

from .scalars import frac


class MatSeries:
    __slots__ = ("rows", "_live", "_zero")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")
        self._live = self._zero = None

    @classmethod
    def _of(cls, rows: tuple) -> "MatSeries":
        """Internal constructor: `rows` is already a square tuple of tuples."""
        m = object.__new__(cls)
        m.rows = rows
        m._live = m._zero = None
        return m

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(n: int, proto) -> "MatSeries":
        z = proto.zero_like()
        m = MatSeries._of(((z,) * n,) * n)
        m._live = ((),) * n
        return m

    @staticmethod
    def diag(entries, proto) -> "MatSeries":
        """Diagonal matrix of `entries`, zeros shaped like proto elsewhere."""
        z = proto.zero_like()
        n = len(entries)
        return MatSeries(
            [[entries[i] if i == j else z for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def identity(n: int, proto) -> "MatSeries":
        return MatSeries.diag([proto.one_like()] * n, proto)

    @staticmethod
    def diag_const(values, proto) -> "MatSeries":
        """Diagonal matrix of rational constants over entries shaped like proto."""
        o = proto.one_like()
        return MatSeries.diag([o.scale(v) for v in values], proto)

    @staticmethod
    def unit(n: int, alpha: int, proto) -> "MatSeries":
        """The projector with a single 1 at position (alpha, alpha)."""
        z, o = proto.zero_like(), proto.one_like()
        return MatSeries.diag([o if i == alpha else z for i in range(n)], proto)

    # -- structure -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def proto(self):
        return self.rows[0][0]

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.rows for e in r)

    @property
    def live(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the columns whose entry is not an exact zero."""
        if self._live is None:
            self._live = tuple(
                tuple([j for j, e in enumerate(r) if not e.is_zero_exact()])
                for r in self.rows
            )
        return self._live

    def is_zero_exact(self) -> bool:
        """Exactly the zero matrix, with nothing hidden beyond validity."""
        if self._live is not None:
            return not any(self._live)
        if self._zero is None:
            self._zero = all(e.is_zero_exact() for r in self.rows for e in r)
            if self._zero:
                self._live = ((),) * len(self.rows)
        return self._zero

    def map(self, fn) -> "MatSeries":
        return MatSeries._of(tuple(tuple(fn(e) for e in r) for r in self.rows))

    def transpose(self) -> "MatSeries":
        return MatSeries._of(tuple(zip(*self.rows)))

    # -- arithmetic --------------------------------------------------------

    def _entrywise(self, other: "MatSeries", op) -> "MatSeries":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return MatSeries._of(tuple(
            tuple(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows)
        ))

    def __add__(self, other: "MatSeries") -> "MatSeries":
        return self._entrywise(other, add)

    def __sub__(self, other: "MatSeries") -> "MatSeries":
        return self._entrywise(other, sub)

    def __neg__(self) -> "MatSeries":
        return MatSeries._of(tuple(tuple(-a for a in r) for r in self.rows))

    def __matmul__(self, other: "MatSeries") -> "MatSeries":
        return MatSeries.dot(((self, other),))

    @staticmethod
    def dot(blocks) -> "MatSeries":
        """The sum of A @ B over a sequence of (A, B) blocks.

        Entry (i, j) is one `dot` of the entry ring over every live pair
        (A[i, k], B[k, j]), all blocks and all k together, so it is
        reduced once; with no live pair it is the ring's exact zero. All
        blocks share one dimension; an empty `blocks` raises ValueError.
        """
        if not blocks:
            raise ValueError("empty sum of block products")
        n = blocks[0][0].n
        pairs = [[[] for _ in range(n)] for _ in range(n)]
        for a, b in blocks:
            if a.n != n or b.n != n:
                raise ValueError("dimension mismatch")
            b_live = b.live
            for row, ks, out in zip(a.rows, a.live, pairs):
                for k in ks:
                    x, b_row = row[k], b.rows[k]
                    for j in b_live[k]:
                        out[j].append((x, b_row[j]))
        proto = blocks[0][0].proto()
        dot, zero = type(proto).dot, proto.zero_like()
        return MatSeries._of(tuple(
            tuple(dot(p) if p else zero for p in row) for row in pairs
        ))

    @staticmethod
    def dot_diagonal(blocks) -> list:
        """The diagonal entries of `dot(blocks)`, one ring `dot` each, over
        the same live pairs; the other entries are not formed."""
        proto = blocks[0][0].proto()
        dot, zero = type(proto).dot, proto.zero_like()
        out = []
        for i in range(blocks[0][0].n):
            p = [(a.rows[i][k], b.rows[k][i])
                 for a, b in blocks for k in a.live[i] if i in b.live[k]]
            out.append(dot(p) if p else zero)
        return out

    def scale(self, c) -> "MatSeries":
        c = frac(c)
        return self.map(lambda e: e.scale(c))

    def __eq__(self, other) -> bool:
        return isinstance(other, MatSeries) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "MatSeries(" + "; ".join(
            ", ".join(repr(e) for e in r) for r in self.rows
        ) + ")"
