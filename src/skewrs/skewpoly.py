"""Skew polynomial arithmetic over a field with automorphism sigma.

Polynomials live in L[x;sigma] under the commutation rule x*c = sigma(c)*x.
Coefficients are stored lowest degree first; the zero polynomial is the
empty coefficient tuple.  "Left division of g by f" always means writing
g = q*f + rem with deg rem < deg f, so f right-divides g exactly when the
remainder vanishes.
"""

from __future__ import annotations

from .fields import join_terms, power, same_context
from .linalg import Matrix


class SkewPolynomial:

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one,))

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, (c,))

    @classmethod
    def variable(cls, ctx):
        return cls(ctx, (ctx.zero, ctx.one))

    @classmethod
    def monomial(cls, ctx, c, k):
        return cls(ctx, (ctx.zero,) * k + (c,))

    # -- structure -------------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ctx.zero

    def vector(self, n):
        """Coefficient vector of length n (degree must be < n)."""
        if self.degree >= n:
            raise ValueError(f"degree {self.degree} does not fit in length {n}")
        return [self.coeff(i) for i in range(n)]

    def __eq__(self, other):
        if isinstance(other, SkewPolynomial):
            return self.coeffs == other.coeffs and same_context(self.ctx, other.ctx)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return SkewPolynomial(self.ctx, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SkewPolynomial(self.ctx, [-c for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return SkewPolynomial(self.ctx, ())
        ctx = self.ctx
        out = [ctx.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, fi in enumerate(self.coeffs):
            if not fi:
                continue
            for j, gj in enumerate(other.coeffs):
                if gj:
                    out[i + j] = out[i + j] + fi * ctx.sigma(gj, i)
        return SkewPolynomial(ctx, out)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined for skew polynomials")
        if self.degree == 0:
            return SkewPolynomial(self.ctx, (self.coeffs[0] ** k,))
        return power(SkewPolynomial.__mul__, SkewPolynomial.one(self.ctx), self, k)

    def scale_left(self, c):
        """c * f for a field constant c."""
        return SkewPolynomial(self.ctx, [c * a for a in self.coeffs])

    def monic(self):
        if self.is_zero:
            return self
        inv = self.leading.inverse()
        return self.scale_left(inv) if inv != self.ctx.one else self

    def _check(self, other):
        if not same_context(self.ctx, other.ctx):
            raise ValueError("operands live over different field contexts")

    def __repr__(self):
        fmt = self.ctx.format
        return join_terms([(fmt(c), i) for i, c in enumerate(self.coeffs) if c], "x")

    __str__ = __repr__


def left_divmod(g, f):
    """Quotient and remainder of the left division g = q*f + rem."""
    if f.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    g._check(f)
    ctx = g.ctx
    df = f.degree
    rem = list(g.coeffs)
    if len(rem) - 1 < df:
        return SkewPolynomial.zero(ctx), g
    q = [ctx.zero] * (len(rem) - df)
    flead = f.leading
    while len(rem) - 1 >= df:
        k = len(rem) - 1 - df
        qk = rem[-1] / ctx.sigma(flead, k)
        q[k] = qk
        for j, fj in enumerate(f.coeffs):
            if fj:
                rem[k + j] = rem[k + j] - qk * ctx.sigma(fj, k)
        rem.pop()
        while rem and not rem[-1]:
            rem.pop()
    return SkewPolynomial(ctx, q), SkewPolynomial(ctx, rem)


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
    ctx = f.ctx
    acc = ctx.zero
    npow = ctx.one
    for i, fi in enumerate(f.coeffs):
        if fi:
            acc = acc + fi * npow
        npow = npow * ctx.sigma(gamma, i)
    return acc


def gcrd(f, g):
    """Greatest common right divisor, monic."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcrd(0, 0) is undefined")
    while not g.is_zero:
        f, g = g, left_divmod(f, g)[1]
    return f.monic()


def lclm(f, g):
    """Least common left multiple, monic, via the extended Euclidean scheme."""
    if f.is_zero or g.is_zero:
        raise ValueError("lclm requires nonzero polynomials")
    ctx = f.ctx
    r0, r1 = f, g
    u0, u1 = SkewPolynomial.one(ctx), SkewPolynomial.zero(ctx)
    while not r1.is_zero:
        q, r = left_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
    return (u1 * f).monic()


def lclm_many(polys):
    """Left-to-right fold of the binary lclm over an iterable."""
    it = iter(polys)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("lclm of an empty collection") from None
    for p in it:
        acc = lclm(acc, p)
    return acc


def twisted_shift_rows(f, n):
    """Rows of the (n - deg f) x n matrix whose i-th row holds the
    coefficients of x^i * f, i.e. sigma^i applied and shifted right by i."""
    ctx = f.ctx
    m = f.degree
    if m < 0 or m > n:
        raise ValueError("polynomial does not fit")
    rows = []
    for i in range(n - m):
        row = [ctx.zero] * n
        for j, c in enumerate(f.coeffs):
            row[i + j] = ctx.sigma(c, i)
        rows.append(row)
    return rows


def shift_echelon(f, n, evaluate_row):
    """Row-reduce the evaluations of the twisted shift rows of f (each
    length-n row mapped to its n values by evaluate_row) and sort the
    reduced rows into unit rows (a single nonzero entry, equal to one)
    and the rest.

    Returns (the unit rows' columns, the indices of the other rows); the
    second list is empty exactly when every row is a unit row.
    """
    ctx = f.ctx
    shifted = Matrix(ctx, [evaluate_row(row) for row in twisted_shift_rows(f, n)])
    columns, others = [], []
    for i, row in enumerate(shifted.rref().rows):
        support = [j for j, v in enumerate(row) if v]
        if len(support) == 1 and row[support[0]] == ctx.one:
            columns.append(support[0])
        else:
            others.append(i)
    return columns, others
