"""Dense exact linear algebra over a field context.

One kernel does every elimination: ``eliminate(ctx, rows)`` reduces a
list of raw rows in place to reduced row echelon form, with deterministic
pivoting (first nonzero entry in scan order), and returns the pivot
columns.  Arithmetic is exact, so no pivoting heuristics are needed and
echelon forms are canonical.  ``Matrix.rref`` and ``rank``,
``solve_row_system`` and the PGZ decoder's locator and value solves all
call it; the reduced column echelon form is the transpose of the reduced
row echelon form of the transpose.

A matrix is a ``fields.Value``, with no hash, holding its entries' raw
values in lists of rows; ``rows`` wraps them as Elements.
"""

from __future__ import annotations

from .fields import Element, Value, require_context


def eliminate(ctx, rows):
    """Reduce rows, a list of lists of raw values, in place to reduced row
    echelon form; returns the pivot column of each nonzero row, in order."""
    zero, one, mul, neg, add_scaled = ctx.zero_raw, ctx.one_raw, ctx.mul, ctx.neg, ctx.add_scaled
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
        # the pivot row is scaled to one at pc, written as one and not
        # multiplied out.  Left of pc the pivot row is zero, so an update
        # clears row[pc] and takes factor * prow off the rest
        prow = rows[pr]
        inv = ctx.inv(prow[pc])
        tail = [mul(inv, v) for v in prow[pc + 1:]]
        prow[pc:] = [one] + tail
        for r, row in enumerate(rows):
            factor = row[pc]
            if r != pr and factor != zero:
                row[pc] = zero
                add_scaled(row, neg(factor), tail, pc + 1)
        pivots.append(pc)
        pr += 1
    return pivots


class Matrix(Value):

    __slots__ = ()
    # its raw rows are lists, so a matrix has no hash
    __hash__ = None

    def __init__(self, ctx, rows):
        rows = [list(r) for r in rows]
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        require_context(ctx, (v for r in rows for v in r))
        super().__init__(ctx, [[v.raw for v in r] for r in rows])

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

    def transpose(self):
        return Matrix.from_raw(self.ctx, [list(col) for col in zip(*self.raw)])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        ctx = self.ctx
        add_scaled = ctx.add_scaled
        rows = self._operand(other)
        out = [[ctx.zero_raw] * other.ncols for _ in self.raw]
        for row, r in zip(out, self.raw):
            # r times other: other's rows scaled by r's entries, summed
            for a, b in zip(r, rows):
                add_scaled(row, a, b, 0)
        return Matrix.from_raw(ctx, out)

    def rref(self):
        rows = [list(r) for r in self.raw]
        eliminate(self.ctx, rows)
        return Matrix.from_raw(self.ctx, rows)

    def rcef(self):
        return self.transpose().rref().transpose()

    def rank(self):
        return len(eliminate(self.ctx, [list(r) for r in self.raw]))

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
    rows = [[row[i] for row in a.raw] + [b[i].raw] for i in range(n)]
    if eliminate(ctx, rows) != list(range(n)):
        raise ValueError("matrix is singular")
    return [Element(ctx, row[n]) for row in rows]
