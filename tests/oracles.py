"""Independent reference routes and helpers that only the tests use.

``locate_by_rref`` is the paper's echelon branch as it is written: the
twisted shift rows x^i * rho are evaluated at the beta-roots, the
evaluated matrix is row-reduced, and the columns of its unit rows are the
positions that hold no error.  ``pgz.locate_positions`` reaches the same
positions through the trace-dual table without building either matrix.

``right_eval`` evaluates by the twisted norms directly, the definition
that ``codes.evaluate`` shortcuts through the conjugate table.

``sigma_by_ladder`` is sigma on F_q(z) as the definition reads: every
coefficient's power of the Moebius substitution by its own ladder, then a
gcd.  ``gcrd_by_divmod`` is Euclid on full left divisions.

``dual_conjugates`` reads the trace-dual conjugates off the inverse of the
conjugate matrix, which ``codes.build_code`` reaches by one row solve.
"""

import functools
from fractions import Fraction

from skewrs import CodeError, Element, SkewPolynomial, left_divmod
from skewrs.codes import conjugate_matrix, dual_support
from skewrs.fields import poly_add, poly_divmod, poly_mul, poly_scale, poly_trim, power
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


def full_beta_decomposition_test(f, code):
    """Indices k such that f is the lclm of x - sigma^k(beta) over them,
    or None when f does not decompose into such linear factors.

    f must be monic and right-divide x^n - 1.
    """
    ctx, n = code.ctx, code.n
    if f.is_zero or f.leading != ctx.one:
        raise CodeError("polynomial must be monic")
    if f.degree > n:
        raise CodeError("degree exceeds the code length")
    xn1 = SkewPolynomial(ctx, [-ctx.one] + [ctx.zero] * (n - 1) + [ctx.one])
    if not left_divmod(xn1, f)[1].is_zero:
        raise CodeError("polynomial does not right-divide x^n - 1")
    support = dual_support(code, f, 0)
    return set(support) if len(support) == f.degree else None


def dual_conjugates(code):
    """The trace-dual conjugates sigma^k(alpha*), k < n, as Elements: the
    solution of X * C(alpha) = e_0 is the first row of C(alpha)^(-1), read
    off the reduced form of [C(alpha) | I]."""
    ctx, n = code.ctx, code.n
    c = conjugate_matrix(ctx, code.conj, range(n), n)
    aug = Matrix.from_raw(ctx, [row + unit for row, unit in zip(c.raw, identity(ctx, n).raw)])
    return [Element(ctx, v) for v in aug.rref().raw[0][n:]]


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


def sigma_by_ladder(ctx, u, k):
    """sigma^k of a raw F_q(z) value: num and den each become
    sum_i p_i * (az+b)^i * (cz+d)^(m-i), m = max(deg num, deg den), with
    both powers of every term by square-and-multiply, and the fraction is
    then reduced by a gcd."""
    k %= ctx.order
    num, den = u
    if k == 0 or not num:
        return u
    base = ctx.base
    mul = functools.partial(poly_mul, base)
    a, b, c, d = ctx._mob_pows[k]
    lin_num, lin_den = poly_trim(base, [b, a]), poly_trim(base, [d, c])
    m = max(len(num), len(den)) - 1

    def subst(poly):
        acc = ()
        for i, coeff in enumerate(poly):
            if coeff:
                term = mul(power(mul, (1,), lin_num, i), power(mul, (1,), lin_den, m - i))
                acc = poly_add(base, acc, poly_scale(base, term, coeff))
        return acc

    return ctx._make(subst(num), subst(den))


def gcrd_by_divmod(ctx, f, g):
    """The monic gcrd of two raw polynomials by Euclid, each step a full
    left division that builds its quotient and remainder."""
    while g:
        f, g = g, poly_divmod(ctx, f, g)[1]
    return poly_scale(ctx, f, ctx.inv(f[-1])) if f else f
