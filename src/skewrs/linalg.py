"""Dense exact linear algebra over a field context.

Everything is elimination-based with deterministic pivoting (first nonzero
entry in scan order); arithmetic is exact so no pivoting heuristics are
needed and echelon forms are canonical.  The reduced column echelon form
is the transpose of the reduced row echelon form of the transpose.

A matrix stores the raw values of its entries in ``raw`` and eliminates on
them through the context's raw protocol; ``rows`` wraps them as Elements.
"""

from __future__ import annotations

from functools import reduce

from .fields import Element, require_context, same_context


class Matrix:

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx, rows):
        rows = [list(r) for r in rows]
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        require_context(ctx, (v for r in rows for v in r))
        self.ctx = ctx
        self.raw = [[v.raw for v in r] for r in rows]

    @classmethod
    def from_raw(cls, ctx, rows):
        """A matrix of equal-length rows of canonical raw values, taken as
        they are."""
        m = cls.__new__(cls)
        m.ctx, m.raw = ctx, rows
        return m

    @property
    def rows(self):
        ctx = self.ctx
        return [[Element(ctx, v) for v in r] for r in self.raw]

    @property
    def nrows(self):
        return len(self.raw)

    @property
    def ncols(self):
        return len(self.raw[0]) if self.raw else 0

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return self.raw == other.raw and same_context(self.ctx, other.ctx)
        return NotImplemented

    def transpose(self):
        return Matrix.from_raw(self.ctx, [list(col) for col in zip(*self.raw)])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        ctx = self.ctx
        zero, add, mul = ctx.zero_raw, ctx.add, ctx.mul
        bt = list(zip(*other.raw))
        return Matrix.from_raw(ctx, [
            [reduce(add, (mul(a, b) for a, b in zip(r, col) if a != zero and b != zero), zero)
             for col in bt]
            for r in self.raw])

    def _eliminated(self):
        """Row reduction on raw values; returns (rows, pivot column indices)."""
        ctx = self.ctx
        zero, mul, neg, add_scaled = ctx.zero_raw, ctx.mul, ctx.neg, ctx.add_scaled
        rows = [list(r) for r in self.raw]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        pivots = []
        pr = 0
        for pc in range(nc):
            pivot_row = None
            for r in range(pr, nr):
                if rows[r][pc] != zero:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
            # left of pc the pivot row is zero and at pc it is one, so an
            # update clears row[pc] and takes factor * prow off the rest
            prow = rows[pr]
            inv = ctx.inv(prow[pc])
            prow[pc:] = [mul(inv, v) for v in prow[pc:]]
            tail = prow[pc + 1:]
            for r, row in enumerate(rows):
                factor = row[pc]
                if r != pr and factor != zero:
                    row[pc] = zero
                    add_scaled(row, neg(factor), tail, pc + 1)
            pivots.append(pc)
            pr += 1
            if pr == nr:
                break
        return rows, pivots

    def rref(self):
        return Matrix.from_raw(self.ctx, self._eliminated()[0])

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
    ctx = a.ctx
    require_context(ctx, b)
    aug = Matrix.from_raw(ctx, [[row[i] for row in a.raw] + [b[i].raw] for i in range(n)])
    rows, pivots = aug._eliminated()
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [Element(ctx, rows[i][n]) for i in range(n)]
