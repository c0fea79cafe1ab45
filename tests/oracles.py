"""Independent reference routes and helpers that only the tests use.

``locate_by_rref`` is the paper's echelon branch as it is written: the
twisted shift rows x^i * rho are evaluated at the beta-roots, the
evaluated matrix is row-reduced, and the columns of its unit rows are the
positions that hold no error.  ``pgz.locate_positions`` reaches the same
positions through the trace-dual table without building either matrix.

``right_eval`` evaluates by the twisted norms directly, the definition
that ``codes.evaluate`` shortcuts through the conjugate table.
"""

from fractions import Fraction

from skewrs import Element, SkewPolynomial, left_divmod
from skewrs.linalg import Matrix
from skewrs.pgz import BRANCH_DIRECT, BRANCH_ECHELON, LocateFailure
from skewrs.skewpoly import twisted_shift_rows


def norm_column(gamma, n):
    """All twisted norms N_0(gamma) ... N_(n-1)(gamma) in one sweep, where
    N_i(gamma) = gamma * sigma(gamma) * ... * sigma^(i-1)(gamma)."""
    ctx = gamma.ctx
    out = [ctx.one]
    acc = ctx.one
    for k in range(n - 1):
        acc = acc * ctx.sigma(gamma, k)
        out.append(acc)
    return out


def right_eval(f, gamma):
    """Right evaluation of f at gamma: the left remainder of f by x - gamma.

    Equals sum_i f_i N_i(gamma); zero exactly when x - gamma right-divides f.
    """
    norms = norm_column(gamma, len(f.raw))
    return sum((fi * ni for fi, ni in zip(f.coeffs, norms) if fi), f.ctx.zero)


def contains(code, f):
    """Membership test: g right-divides f."""
    return left_divmod(f, code.g)[1].is_zero


def monomial(ctx, c, k):
    """c * x^k."""
    return SkewPolynomial(ctx, (ctx.zero,) * k + (c,))


def fixed_field_check(ctx, x):
    """True when sigma fixes x, i.e. x lies in the invariant subfield."""
    return ctx.sigma_raw(x.raw, 1) == x.raw


def from_fraction(ctx, fr):
    """A rational number in Q(chi); a Fraction is already in lowest terms
    with a positive denominator, so the raw value is canonical as built."""
    fr = Fraction(fr)
    return Element(ctx, ((fr.numerator,) + (0,) * (ctx.dim - 1), fr.denominator))


def zeros(ctx, nrows, ncols):
    return Matrix.from_raw(ctx, [[ctx.zero_raw] * ncols for _ in range(nrows)])


def identity(ctx, n):
    m = zeros(ctx, n, n)
    for i in range(n):
        m.raw[i][i] = ctx.one_raw
    return m


def left_kernel(a):
    """Basis rows for { v : v * a = 0 }."""
    ctx = a.ctx
    rows, pivots = a.transpose()._eliminated()
    m = a.nrows
    free = [j for j in range(m) if j not in pivots]
    basis = []
    for j in free:
        v = [ctx.zero_raw] * m
        v[j] = ctx.one_raw
        for r, pc in enumerate(pivots):
            v[pc] = ctx.neg(rows[r][j])
        basis.append([Element(ctx, c) for c in v])
    return basis


def shift_echelon(f, n, evaluate_row):
    """Row-reduce the evaluations of the twisted shift rows of f (each
    row of n raw coefficients mapped to its n raw values by evaluate_row)
    and sort the reduced rows into unit rows (a single nonzero entry,
    equal to one) and the rest.

    Returns (the unit rows' columns, the indices of the other rows); the
    second list is empty exactly when every row is a unit row.
    """
    ctx = f.ctx
    zero, one = ctx.zero_raw, ctx.one_raw
    shifted = Matrix.from_raw(ctx, [evaluate_row([c.raw for c in row])
                                    for row in twisted_shift_rows(f, n)])
    columns, others = [], []
    for i, row in enumerate(shifted.rref().raw):
        support = [j for j, v in enumerate(row) if v != zero]
        if len(support) == 1 and row[support[0]] == one:
            columns.append(support[0])
        else:
            others.append(i)
    return columns, others


def locate_by_rref(code, mu, rho):
    """(positions, branch) as ``pgz.locate_positions`` returns them, by
    conjugate sums and the row echelon form; raises LocateFailure where it
    does."""
    ctx, n = code.ctx, code.n

    def evaluate_row(raw):
        return ctx.conjugate_sums(code.conj_table, raw, n, code.r)

    zeros = [j for j, v in enumerate(evaluate_row(rho.raw)) if ctx.is_zero(v)]
    if len(zeros) == mu:
        return zeros, BRANCH_DIRECT
    kept, _ = shift_echelon(rho, n, evaluate_row)
    if not kept:
        raise LocateFailure("no canonical rows survive the echelon reduction")
    return [j for j in range(n) if j not in kept], BRANCH_ECHELON
