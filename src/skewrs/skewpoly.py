"""Skew polynomial arithmetic over a field with automorphism sigma.

Polynomials live in L[x;sigma] under the commutation rule x*c = sigma(c)*x.
Coefficients are stored lowest degree first; the zero polynomial is the
empty coefficient tuple.  "Left division of g by f" always means writing
g = q*f + rem with deg rem < deg f, so f right-divides g exactly when the
remainder vanishes.

A polynomial is a ``fields.Value`` holding its coefficients' raw values;
``coeffs`` wraps them as Elements.  Sums, products, scaling and left
division are the sigma-twisted kernels of ``fields`` on ``raw``, the same
ones that compute F_q[z] inside F_q(z).
"""

from __future__ import annotations

from .fields import (Element, Value, join_terms, poly_add, poly_divmod, poly_mul,
                     poly_neg, poly_pow, poly_scale, poly_trim, poly_twist,
                     require_context)


class SkewPolynomial(Value):

    __slots__ = ()

    def __init__(self, ctx, coeffs=()):
        coeffs = tuple(coeffs)
        require_context(ctx, coeffs)
        super().__init__(ctx, poly_trim(ctx, [c.raw for c in coeffs]))

    @property
    def coeffs(self):
        return tuple(Element(self.ctx, v) for v in self.raw)

    # -- constructors --------------------------------------------------------

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

    def vector(self, n):
        """Coefficient vector of length n (degree must be < n)."""
        if self.degree >= n:
            raise ValueError(f"degree {self.degree} does not fit in length {n}")
        return list(self.coeffs) + [self.ctx.zero] * (n - len(self.raw))

    def __bool__(self):
        return bool(self.raw)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        return self.from_raw(self.ctx, poly_add(self.ctx, self.raw, self._operand(other)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.from_raw(self.ctx, poly_neg(self.ctx, self.raw))

    def __mul__(self, other):
        return self.from_raw(self.ctx, poly_mul(self.ctx, self.raw, self._operand(other)))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined for skew polynomials")
        return self.from_raw(self.ctx, poly_pow(self.ctx, self.raw, k))

    def scale_left(self, c):
        """c * f for a field constant c."""
        return self.from_raw(self.ctx, poly_scale(self.ctx, self.raw, self._operand(c)))

    def monic(self):
        if self.is_zero:
            return self
        return self.scale_left(self.leading.inverse())

    def __repr__(self):
        return poly_text(self.ctx, self.coeffs)

    __str__ = __repr__


def poly_text(ctx, coeffs):
    """The polynomial in x with these coefficients, lowest first, each
    printed by ctx, which needs only their raw values: any context of their
    field prints them alike."""
    fmt = ctx.format
    return join_terms([(fmt(c), i) for i, c in enumerate(coeffs) if c], "x")


def left_divmod(g, f):
    """Quotient and remainder of the left division g = q*f + rem."""
    q, rem = poly_divmod(g.ctx, g.raw, g._operand(f))
    return SkewPolynomial.from_raw(g.ctx, q), SkewPolynomial.from_raw(g.ctx, rem)


def lclm(f, g):
    """Least common left multiple, monic, via the extended Euclidean scheme."""
    if f.is_zero or g.is_zero:
        raise ValueError("lclm requires nonzero polynomials")
    ctx = f.ctx
    r0, r1 = f, g
    u0, u1 = SkewPolynomial(ctx, (ctx.one,)), SkewPolynomial(ctx)
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
    zero = ctx.zero
    rows = []
    for i in range(n - m):
        shifted = [Element(ctx, c) for c in poly_twist(ctx, f.raw, i)]
        rows.append([zero] * i + shifted + [zero] * (n - m - 1 - i))
    return rows
