"""Dense exact linear algebra over a field context.

Everything is elimination-based with deterministic pivoting (first nonzero
entry in scan order); arithmetic is exact so no pivoting heuristics are
needed and echelon forms are canonical.  The reduced column echelon form
is the transpose of the reduced row echelon form of the transpose.
"""

from __future__ import annotations

from .fields import same_context


class Matrix:

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx, rows):
        rows = [list(r) for r in rows]
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        self.ctx = ctx
        self.rows = rows

    @classmethod
    def zeros(cls, ctx, nrows, ncols):
        return cls(ctx, [[ctx.zero] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, ctx, n):
        m = cls.zeros(ctx, n, n)
        for i in range(n):
            m.rows[i][i] = ctx.one
        return m

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return self.rows == other.rows and same_context(self.ctx, other.ctx)
        return NotImplemented

    def transpose(self):
        return Matrix(self.ctx, [list(col) for col in zip(*self.rows)]) if self.rows \
            else Matrix(self.ctx, [])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        zero = self.ctx.zero
        bt = list(zip(*other.rows))
        out = []
        for r in self.rows:
            out.append([sum((a * b for a, b in zip(r, col) if a and b), zero)
                        for col in bt])
        return Matrix(self.ctx, out)

    def _eliminated(self):
        """Row reduction; returns (rows, pivot column indices)."""
        rows = [list(r) for r in self.rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        pivots = []
        pr = 0
        for pc in range(nc):
            pivot_row = None
            for r in range(pr, nr):
                if rows[r][pc]:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            inv = rows[pr][pc].inverse()
            rows[pr] = [inv * v for v in rows[pr]]
            for r in range(nr):
                if r != pr and rows[r][pc]:
                    factor = rows[r][pc]
                    rows[r] = [v - factor * w for v, w in zip(rows[r], rows[pr])]
            pivots.append(pc)
            pr += 1
            if pr == nr:
                break
        return rows, pivots

    def rref(self):
        rows, _ = self._eliminated()
        return Matrix(self.ctx, rows)

    def rcef(self):
        return self.transpose().rref().transpose()

    def rank(self):
        return len(self._eliminated()[1])

    def __repr__(self):
        body = ",\n ".join("[" + ", ".join(self.ctx.format(v) for v in r) + "]"
                           for r in self.rows)
        return f"[{body}]"


def solve_row_system(a, b):
    """The unique row vector X with X * a = b, for square nonsingular a."""
    n = a.nrows
    if n != a.ncols:
        raise ValueError("matrix must be square")
    if len(b) != n:
        raise ValueError("right-hand side has the wrong length")
    at = a.transpose()
    aug = Matrix(a.ctx, [at.rows[i] + [b[i]] for i in range(n)])
    rows, pivots = aug._eliminated()
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [rows[i][n] for i in range(n)]


def left_kernel(a):
    """Basis rows for { v : v * a = 0 }."""
    ctx = a.ctx
    at = a.transpose()
    rows, pivots = at._eliminated()
    m = a.nrows
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for j in free:
        v = [ctx.zero] * m
        v[j] = ctx.one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][j]
        basis.append(v)
    return basis
