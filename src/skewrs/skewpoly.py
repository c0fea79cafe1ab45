"""Skew polynomial arithmetic over a field with automorphism sigma.

Polynomials live in L[x;sigma] under the commutation rule x*c = sigma(c)*x.
Coefficients are stored lowest degree first; the zero polynomial is the
empty coefficient tuple.  "Left division of g by f" always means writing
g = q*f + rem with deg rem < deg f, so f right-divides g exactly when the
remainder vanishes.

A polynomial stores the raw values of its coefficients in ``raw``;
``coeffs`` wraps them as Elements.  Sums, products, scaling, left division
and gcrd are the sigma-twisted kernels of ``fields`` on ``raw``, the same
ones that compute F_q[z] inside F_q(z).
"""

from __future__ import annotations

from .fields import (Element, join_terms, poly_add, poly_divmod, poly_gcrd,
                     poly_mul, poly_neg, poly_scale, poly_trim, power,
                     same_context)


class SkewPolynomial:

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx, coeffs=()):
        coeffs = tuple(coeffs)
        if not all(same_context(c.ctx, ctx) for c in coeffs):
            raise ValueError("coefficients live over a different field context")
        self.ctx = ctx
        self.raw = poly_trim(ctx, [c.raw for c in coeffs])

    @classmethod
    def _of_raw(cls, ctx, raw):
        # raw comes from a kernel, so it has no trailing zero
        f = cls.__new__(cls)
        f.ctx, f.raw = ctx, raw
        return f

    @property
    def coeffs(self):
        return tuple(Element(self.ctx, v) for v in self.raw)

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

    # -- structure -------------------------------------------------------------

    @property
    def degree(self):
        return len(self.raw) - 1

    @property
    def is_zero(self):
        return not self.raw

    @property
    def leading(self):
        if not self.raw:
            raise ValueError("zero polynomial has no leading coefficient")
        return Element(self.ctx, self.raw[-1])

    def coeff(self, i):
        if 0 <= i < len(self.raw):
            return Element(self.ctx, self.raw[i])
        return self.ctx.zero

    def vector(self, n):
        """Coefficient vector of length n (degree must be < n)."""
        if self.degree >= n:
            raise ValueError(f"degree {self.degree} does not fit in length {n}")
        return list(self.coeffs) + [self.ctx.zero] * (n - len(self.raw))

    def __eq__(self, other):
        if isinstance(other, SkewPolynomial):
            return self.raw == other.raw and same_context(self.ctx, other.ctx)
        return NotImplemented

    def __hash__(self):
        return hash(self.raw)

    def __bool__(self):
        return bool(self.raw)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return self._of_raw(self.ctx, poly_add(self.ctx, self.raw, other.raw))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of_raw(self.ctx, poly_neg(self.ctx, self.raw))

    def __mul__(self, other):
        self._check(other)
        return self._of_raw(self.ctx, poly_mul(self.ctx, self.raw, other.raw))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined for skew polynomials")
        if self.degree == 0:
            return SkewPolynomial(self.ctx, (self.leading ** k,))
        return power(SkewPolynomial.__mul__, SkewPolynomial.one(self.ctx), self, k)

    def scale_left(self, c):
        """c * f for a field constant c."""
        self._check(c)
        return self._of_raw(self.ctx, poly_scale(self.ctx, self.raw, c.raw))

    def monic(self):
        if self.is_zero:
            return self
        return self.scale_left(self.leading.inverse())

    def _check(self, other):
        if not same_context(self.ctx, other.ctx):
            raise ValueError("operands live over different field contexts")

    def __repr__(self):
        fmt = self.ctx.format
        return join_terms([(fmt(c), i) for i, c in enumerate(self.coeffs) if c], "x")

    __str__ = __repr__


def left_divmod(g, f):
    """Quotient and remainder of the left division g = q*f + rem."""
    g._check(f)
    q, rem = poly_divmod(g.ctx, g.raw, f.raw)
    return SkewPolynomial._of_raw(g.ctx, q), SkewPolynomial._of_raw(g.ctx, rem)


def gcrd(f, g):
    """Greatest common right divisor, monic."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcrd(0, 0) is undefined")
    f._check(g)
    return SkewPolynomial._of_raw(f.ctx, poly_gcrd(f.ctx, f.raw, g.raw))


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
    zero, zero_raw, sigma = ctx.zero, ctx.zero_raw, ctx.sigma_raw
    rows = []
    for i in range(n - m):
        shifted = [Element(ctx, c if c == zero_raw else sigma(c, i)) for c in f.raw]
        rows.append([zero] * i + shifted + [zero] * (n - m - 1 - i))
    return rows
