"""Exact field arithmetic for the three supported coefficient fields.

Each backend bundles a field L with a finite-order automorphism sigma:

* ``FiniteField``       -- GF(p^d) with sigma a power of Frobenius.
* ``RationalFunctions`` -- F_q(z) with sigma a Moebius substitution on z
                           that fixes F_q pointwise.
* ``CyclotomicField``   -- Q(chi) for chi a primitive m-th root of unity
                           (m prime) with sigma(chi) = chi^k.

This module reads no text: a modulus string goes to
``parsing.parse_int_poly`` and a Moebius coefficient string to
``parsing.parse_element`` over the base field.

All arithmetic is exact.  Every backend is a context that computes on raw
values through one small protocol, with the same names everywhere:

    add(u, v)  neg(u)  mul(u, v)  inv(u)  pow(u, k)  add_product(a, c, b)
    sigma_raw(u, k)  add_scaled(acc, c, src, shift)  kernel_rows(low, count)
    conjugate_table(values)  conjugate_sums(table, vec, count, offset)
    conjugate_zeros(table, vec, count, offset)

with the constants ``zero_raw``, ``one_raw`` and ``generator_raw``, and
``symbols``, the map from each name the parser knows to its raw value;
none may be x, the parser's polynomial variable.
Raw values are canonical (below), so u is zero exactly when
``u == ctx.zero_raw``.

``add_product(a, c, b)`` is a + c * b, the one multiply-accumulate of every
sum of products; ``add_scaled`` does acc[shift + j] += c * src[j] with it
in place, skipping zero src[j] and at once done on a zero c: the inner loop
of polynomial products, divisions and elimination.  The generic version is
add(a, mul(c, b)).  F_q(z) builds a + c * b as one unreduced fraction,
summed by ``_sum`` as its add is, and Q(chi) as one integer vector over one
denominator, convolved by ``_accumulate``; each reduces it once, where mul
then add reduce twice, and its mul is the step onto zero.  A tabled field
of characteristic 2 keeps its own add_scaled: it looks up log c once and
XORs in exp[log c + log src[j]].  ``kernel_rows(low, count)`` gives the
rows sigma^i(low), i < count, of ``codes.dual_support``'s recurrence and
end factors for w: the twists and no factors, but over F_q(z), which
clears low once and twists the cleared row, so w stays in F_q[z].

F_q(z) applies sigma with no gcd at all: the substitution of L/D = (az+b)/
(cz+d) into num/den, both multiplied by D^m for m the larger degree, is
already in lowest terms, because as binary forms of degree m num and den
are coprime and an invertible linear change of variables keeps them so.
The same substitution kernel twists kernel_rows' cleared row.  Its Euclid
keeps only the remainders and reduces them in place.

The conjugate methods serve the right evaluations at the beta-roots of a
skew Reed-Solomon code (see ``codes``): unscaled sums u_k = sum_i vec_i *
c_(k+i) over a per-code table of the conjugates c_k = sigma^k(alpha) (or
of the trace dual's), or, from ``conjugate_zeros``, only whether each is
zero.  The evaluation at sigma^k(beta) is sigma^k(alpha)^(-1) * u_k, one
more product, for the caller to take.  The generic versions run on
add_product; a tabled field of characteristic 2 keeps the values'
discrete logs and XORs its terms in the log domain.  F_q(z) keeps the
values over the lcm of their denominators and clears vec to the lcm of
its own once per call, one gcd per distinct denominator after the first;
an output is then a sum of F_q[z] products and costs one more gcd, a
zero test none.  Q(chi) accumulates each output's integer cyclic
convolutions over a common denominator with ``_accumulate`` and reduces it
once; its zero test reduces nothing, as a sum is zero exactly when the
accumulated length-m vector has equal entries.

Raw values are canonical, so two values are equal exactly when they denote
the same element:

* GF(p^d)  -- an int packing the coefficient digits in base p;
* F_q(z)   -- ``(num, den)``, coprime low-first tuples of GF(q) ints with
              ``den`` monic;
* Q(chi)   -- ``(coords, den)``, integer coordinates over the power basis
              1, chi, ..., chi^(m-2) and a positive denominator with no
              common factor.

``Value``, a context and a canonical raw value, is the base of
``Element(ctx, raw)``, the one element class, of ``SkewPolynomial`` and of
``Matrix``: it owns equality, hashing, ``from_raw`` and the one check that
a second operand shares the context, else FieldError.  Element operators
then delegate to the context.  Contexts are immutable and safe to share.

Finite fields of size up to 2^16 get exp/log tables with respect to a
primitive element, so multiplication, inversion and Frobenius application
are table lookups.  For p = 2 the tables come from one walk over the
powers of the modulus root a, where times a is a shift and a conditional
XOR, and a is primitive exactly when the walk first returns to 1 after
2^d - 1 steps.  Odd characteristic, and a non-primitive root, take the
general route: find a primitive element (the root first) by its order and
walk its powers by general multiplication.
Elements of degree d > 1 print as powers of the modulus root whenever
that root is primitive (all bundled examples qualify), otherwise in
polynomial form, and GF(p)'s as integers; printing then parsing
round-trips either way.

Q(chi) inverts by the norm: u times the product of its other Galois
conjugates chi -> chi^e (2 <= e < m) is the rational N(u), so u^-1 is that
product divided by N(u).

Polynomials have one arithmetic: the ``poly_*`` kernels on low-first
tuples of raw values, twisted by x*c = sigma(c)*x.  Over a context they are
L[x;sigma], which ``SkewPolynomial`` wraps; over a base field with sigma =
id (``frobenius_power=0``, which F_q(z) demands) they are F_q[z].
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

_TABLE_LIMIT = 1 << 16
# GF(p^d) needs p < 2^31 and p^d <= 2^64 (see FiniteField)
_CHAR_BOUND = 1 << 31
_SIZE_LIMIT = 1 << 64
# Q(chi_m) with sigma of order n needs m^3 + m^2 * n^3 <= this (see CyclotomicField)
_CYCLOTOMIC_BUDGET = 10 ** 7

# exp/log tables and the modulus root's primitivity by (p, d, modulus), least
# recently used first (see FiniteField).  No field writes to them, and two
# builds racing on a miss at worst walk twice.
_shared_tables = {}
_SHARED_TABLE_COUNT = 4


class FieldError(ValueError):
    pass


class FormatError(FieldError):
    """A value too large to print, a fault of the input rather than the code."""


def same_context(a, b):
    """True when two contexts denote the same field with the same sigma."""
    return a is b or a.key == b.key


def require_context(ctx, items):
    """Raise FieldError unless every item (an Element or a polynomial)
    lives over ctx: code that computes on raw values meets no operator
    check of its own."""
    if not all(same_context(x.ctx, ctx) for x in items):
        raise FieldError("elements belong to different field contexts")


def _symbols(names):
    """A backend's ``symbols``, once none of them is x, which
    ``parsing.parse_poly`` reads as the polynomial variable."""
    if "x" in names:
        raise FieldError("the symbol 'x' names the polynomial variable; choose another")
    return names


def power(mul, one, u, k):
    """u^k for k >= 0 by square-and-multiply, with one the identity of mul."""
    r = one
    while k:
        if k & 1:
            r = mul(r, u)
        k >>= 1
        if k:
            u = mul(u, u)
    return r


def _atomic(s):
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            return False
    return True


def join_terms(terms, var):
    """Print a sum of (coefficient text, exponent) terms, given lowest
    exponent first, as a polynomial in ``var``, highest power first.  A
    leading minus on an atomic coefficient becomes the term's sign, a unit
    coefficient is dropped, and a compound one is parenthesised before its
    power of var.  No terms print as "0"."""
    out = ""
    for cs, i in reversed(terms):
        sign = "+"
        if cs[0] == "-" and _atomic(cs[1:]):
            sign, cs = "-", cs[1:]
        if i:
            vs = f"{var}^{i}" if i > 1 else var
            if cs == "1":
                cs = vs
            elif _atomic(cs):
                cs = f"{cs}*{vs}"
            else:
                cs = f"({cs})*{vs}"
        if out:
            out = f"{out} {sign} {cs}"
        elif sign == "-":
            out = "-" + cs
        else:
            out = cs
    return out or "0"


class Value:
    """A canonical raw value and its context; two of one type are equal
    exactly when their raw values are and their contexts denote one field."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx, raw):
        self.ctx = ctx
        self.raw = raw

    @classmethod
    def from_raw(cls, ctx, raw):
        """The value of a canonical raw value, taken as it is."""
        v = cls.__new__(cls)
        v.ctx, v.raw = ctx, raw
        return v

    def __eq__(self, other):
        if type(other) is type(self):
            return self.raw == other.raw and same_context(self.ctx, other.ctx)
        return NotImplemented

    def __hash__(self):
        return hash(self.raw)

    def _operand(self, other):
        """other's raw value, once other is known to live over self's context."""
        if other.ctx is not self.ctx:
            require_context(self.ctx, (other,))
        return other.raw


class Element(Value):
    """A field element: ``Element(ctx, raw)`` for a canonical raw value."""

    __slots__ = ()

    def __bool__(self):
        return self.raw != self.ctx.zero_raw

    def __add__(self, other):
        ctx = self.ctx
        return Element(ctx, ctx.add(self.raw, self._operand(other)))

    def __sub__(self, other):
        ctx = self.ctx
        return Element(ctx, ctx.add(self.raw, ctx.neg(self._operand(other))))

    def __neg__(self):
        return Element(self.ctx, self.ctx.neg(self.raw))

    def __mul__(self, other):
        ctx = self.ctx
        return Element(ctx, ctx.mul(self.raw, self._operand(other)))

    def __truediv__(self, other):
        ctx = self.ctx
        return Element(ctx, ctx.mul(self.raw, ctx.inv(self._operand(other))))

    def __pow__(self, k):
        return Element(self.ctx, self.ctx.pow(self.raw, k))

    def inverse(self):
        return Element(self.ctx, self.ctx.inv(self.raw))

    def __repr__(self):
        return self.ctx.format(self)

    __str__ = __repr__


class FieldContext:
    """What the backends share on top of the raw protocol.

    A backend supplies ``key``, ``order``, ``zero_raw``, ``one_raw``,
    ``generator_raw``, ``symbols``, the raw operations add, neg, mul, inv
    and sigma_raw (plus pow where it has a faster route), and
    ``from_int``, ``random_element`` and ``format``.
    """

    # built on access: a context holding Elements of itself would be a
    # reference cycle, freed with its tables only by the cyclic collector
    zero = property(lambda self: Element(self, self.zero_raw))
    one = property(lambda self: Element(self, self.one_raw))
    generator = property(lambda self: Element(self, self.generator_raw))

    def element(self, raw):
        return Element(self, raw)

    def pow(self, u, k):
        if k < 0:
            u, k = self.inv(u), -k
        return power(self.mul, self.one_raw, u, k)

    def add_product(self, a, c, b):
        """a + c * b, the one multiply-accumulate of every sum of products."""
        return self.add(a, self.mul(c, b))

    def add_scaled(self, acc, c, src, shift):
        """acc[shift + j] += c * src[j] in place, skipping zero src[j]: the
        one inner loop of polynomial products, divisions and elimination."""
        zero, add_product = self.zero_raw, self.add_product
        if c == zero:
            return
        for j, b in enumerate(src, shift):
            if b != zero:
                acc[j] = add_product(acc[j], c, b)

    def kernel_rows(self, low, count):
        """The rows that ``codes.dual_support``'s recurrence w_(i+mu) =
        -sum_k row_i[k] * w_(i+k) runs on, row i < count for sigma^i(low),
        and the end factors that w's entries are multiplied by after it
        (None for none): w comes out times one nonzero common factor.  Here
        the rows are the twists themselves."""
        return [poly_twist(self, low, i) for i in range(count)], None

    def conjugate_table(self, values):
        """What ``conjugate_sums`` reads: the n raw values c_k, here twice
        over (so no index wraps)."""
        return list(values) * 2

    def conjugate_sums(self, table, vec, count, offset):
        """For k = offset + j, 0 <= j < count, the raw value
        sum_i vec_i * c_(k+i), indices mod n, over the table of the values
        c_k; vec holds at most n raw values, lowest degree first."""
        n = len(table) // 2
        zero, add_product = self.zero_raw, self.add_product
        terms = [(i, v) for i, v in enumerate(vec) if v != zero]
        out = []
        for k in range(offset, offset + count):
            k %= n
            acc = zero
            for i, v in terms:
                acc = add_product(acc, v, table[k + i])
            out.append(acc)
        return out

    def conjugate_zeros(self, table, vec, count, offset):
        """For the same k, whether each ``conjugate_sums`` output is zero."""
        zero = self.zero_raw
        return [v == zero for v in self.conjugate_sums(table, vec, count, offset)]

    def sigma(self, x, k=1):
        """sigma^k(x) for any integer k (k reduced mod the automorphism order)."""
        require_context(self, (x,))
        return Element(self, self.sigma_raw(x.raw, k))

    def random_nonzero(self, rng, *args):
        while True:
            x = self.random_element(rng, *args)
            if x:
                return x


# ---------------------------------------------------------------------------
# GF(p^d)
# ---------------------------------------------------------------------------

def _factorize(n):
    fs = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs[d] = fs.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fs[n] = fs.get(n, 0) + 1
    return fs


def _coprime(f, g, p):
    """True when f and g, low-first coefficient lists over F_p with f's top
    coefficient nonzero, have no common factor: Euclid, in place."""
    while g and g[-1] == 0:
        g.pop()
    while g:
        inv = pow(g[-1], -1, p)
        while len(f) >= len(g):
            c, shift = f[-1] * inv % p, len(f) - len(g)
            for i, y in enumerate(g):
                f[shift + i] = (f[shift + i] - c * y) % p
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    return len(f) == 1


class FiniteField(FieldContext):
    """GF(p^d) presented as F_p[a]/(modulus), sigma = Frobenius^e.

    ``modulus`` is monic irreducible of degree d, given as a low-first
    coefficient list or as text in the generator symbol, which
    ``parsing.parse_int_poly`` reads.  p must be below 2^31 and p^d at most
    2^64; both are checked first, as the primality and irreducibility tests
    would otherwise run for as long as the numbers ask.  Raw values pack
    the coefficient vector in base p, so the residue class of the
    symbol itself has value p; at d = 1 the symbol is the modulus root,
    -modulus[0] mod p, and a modulus whose root is 0 is refused.

    A field of size up to 2^16 takes its exp/log tables from those of the
    few most recently used moduli, shared process-wide whatever sigma is,
    and walks them only on a miss; the shared tables outlive the field.
    Tables are stored only for a modulus that passed Rabin's irreducibility
    test, so a hit also certifies the modulus and the test runs only on a
    miss.  Its sigma multipliers are its own.
    """

    def __init__(self, p, degree, modulus, generator="a", frobenius_power=1):
        if p >= _CHAR_BOUND:
            raise FieldError(f"characteristic {p} is not below 2^31")
        if _factorize(p) != {p: 1}:
            raise FieldError(f"characteristic {p} is not prime")
        if degree < 1:
            raise FieldError(f"degree must be at least 1, got {degree}")
        # p >= 2, so a degree past 64 is too large without taking the power
        if degree > 64 or p ** degree > _SIZE_LIMIT:
            raise FieldError(f"field size {p}^{degree} exceeds 2^64")
        if isinstance(modulus, str):
            from .parsing import parse_int_poly
            modulus = parse_int_poly(modulus, generator)
        modulus = [c % p for c in modulus]
        while modulus and modulus[-1] == 0:
            modulus.pop()
        if len(modulus) != degree + 1:
            raise FieldError(f"modulus degree {len(modulus) - 1} != {degree}")
        if modulus[-1] != 1:
            raise FieldError("modulus must be monic")
        # at degree 1 the symbol is the modulus root, which must not be zero
        if degree == 1 and modulus[0] == 0:
            raise FieldError(f"modulus {generator} has the root 0, which the "
                             f"symbol {generator!r} cannot name")
        self.char = p
        self.degree = degree
        self.modulus = tuple(modulus)
        self.generator_symbol = generator
        self.frobenius_power = frobenius_power % degree
        self.size = p ** degree
        self.order = degree // math.gcd(degree, frobenius_power)
        # residue of a^d used during reduction: a^d = -(f - a^d)
        self._adeg_digits = [(-c) % p for c in modulus[:degree]]
        self._adeg = self._pack(self._adeg_digits)
        # only a modulus that passed Rabin's test has shared tables
        key = (p, degree, self.modulus)
        if key not in _shared_tables and not self._is_irreducible():
            raise FieldError("modulus is not irreducible")
        self.generator_raw = p if degree > 1 else -modulus[0] % p
        self._exp = None
        self._log = None
        self._sigma_mult = None
        self.generator_primitive = False
        if self.size <= _TABLE_LIMIT:
            tables = _shared_tables.pop(key, None) or self._walk_tables()
            _shared_tables[key] = tables
            for stale in list(_shared_tables)[:-_SHARED_TABLE_COUNT]:
                _shared_tables.pop(stale, None)
            self._exp, self._log, self.generator_primitive = tables
            # sigma^k multiplies discrete logs by p^(e*k mod d)
            self._sigma_mult = [pow(p, (self.frobenius_power * k) % degree, self.size - 1)
                                for k in range(self.order)]
        self.key = ("ff", p, degree, self.modulus, self.frobenius_power)
        self.zero_raw = 0
        self.one_raw = 1
        self.symbols = _symbols({generator: self.generator_raw})

    # -- packed-int helpers ------------------------------------------------

    def _pack(self, digits):
        v = 0
        for c in reversed(digits):
            v = v * self.char + c
        return v

    def _digits(self, v):
        p = self.char
        out = []
        for _ in range(self.degree):
            v, r = divmod(v, p)
            out.append(r)
        return out

    def add(self, u, v):
        if self.char == 2:
            return u ^ v
        p = self.char
        # at degree 1 the packed value is the one digit
        if self.degree == 1:
            return (u + v) % p
        return self._pack([(x + y) % p for x, y in zip(self._digits(u), self._digits(v))])

    def neg(self, u):
        if self.char == 2:
            return u
        p = self.char
        if self.degree == 1:
            return -u % p
        return self._pack([(-x) % p for x in self._digits(u)])

    def _raw_mul(self, u, v):
        # schoolbook product with on-the-fly reduction by the modulus
        p, d = self.char, self.degree
        if p == 2:
            r = 0
            top = 1 << d
            while u:
                if u & 1:
                    r ^= v
                u >>= 1
                v <<= 1
                if v & top:
                    v = (v ^ top) ^ self._adeg
            return r
        du, dv = self._digits(u), self._digits(v)
        acc = [0] * (2 * d - 1)
        for i, x in enumerate(du):
            if x:
                for j, y in enumerate(dv):
                    acc[i + j] = (acc[i + j] + x * y) % p
        # fold coefficients of a^k for k >= d using a^d's residue
        for k in range(2 * d - 2, d - 1, -1):
            c = acc[k]
            if c:
                acc[k] = 0
                # a^k = a^(k-d) * a^d
                for j, y in enumerate(self._adeg_digits):
                    acc[k - d + j] = (acc[k - d + j] + c * y) % p
        return self._pack(acc[:d])

    def _is_irreducible(self):
        # Rabin: x^(p^d) == x mod f, and gcd(x^(p^(d/l)) - x, f) = 1 for
        # each prime l | d
        p, d = self.char, self.degree
        if d == 1:
            return True
        # the symbol a packs to p
        if power(self._raw_mul, 1, p, p ** d) != p:
            return False
        for ell in _factorize(d):
            h = self._digits(power(self._raw_mul, 1, p, p ** (d // ell)))
            h[1] = (h[1] - 1) % p
            if not _coprime(list(self.modulus), h, p):
                return False
        return True

    def _element_order(self, u):
        n = self.size - 1
        order = n
        for q in _factorize(n):
            while order % q == 0 and power(self._raw_mul, 1, u, order // q) == 1:
                order //= q
        return order

    def _walk_tables(self):
        # (exp, log, generator_primitive), shared by every field on the modulus
        q, p, d = self.size, self.char, self.degree
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        walked = p == 2 and d > 1
        if walked:
            # walk 1, a, a^2, ...: times a is a shift, folding a^d back in
            top = 1 << d
            fold = top ^ self._adeg
            v = 1
            for i in range(q - 1):
                exp[i] = v
                log[v] = i
                v <<= 1
                if v & top:
                    v ^= fold
            # a of order m < q - 1 comes back to 1 at step m, so the walk
            # leaves log[1] > 0 exactly when a is not primitive
            primitive = log[1] == 0
        else:
            primitive = self._element_order(self.generator_raw) == q - 1
        if not (walked and primitive):
            prim = self.generator_raw if primitive else next(
                c for c in range(2, q) if self._element_order(c) == q - 1)
            acc = 1
            for i in range(q - 1):
                exp[i] = acc
                log[acc] = i
                acc = self._raw_mul(acc, prim)
        exp[q - 1:] = exp[:q - 1]
        return exp, log, primitive

    # -- raw protocol (the rational-function backend calls it on its base) --

    def mul(self, u, v):
        if u == 0 or v == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[u] + self._log[v]]
        return self._raw_mul(u, v)

    def inv(self, u):
        if u == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(self.size - 1 - self._log[u]) % (self.size - 1)]
        return power(self._raw_mul, 1, u, self.size - 2)

    def pow(self, u, k):
        if u and self._exp is not None:
            return self._exp[(self._log[u] * k) % (self.size - 1)]
        return super().pow(u, k)

    def sigma_raw(self, u, k=1):
        k %= self.order
        if k == 0 or u == 0:
            return u
        if self._exp is not None:
            return self._exp[(self._log[u] * self._sigma_mult[k]) % (self.size - 1)]
        return power(self._raw_mul, 1, u, self.char ** ((self.frobenius_power * k) % self.degree))

    def add_scaled(self, acc, c, src, shift):
        if self._exp is None or c == 0 or self.char != 2:
            return super().add_scaled(acc, c, src, shift)
        # every term is exp[log c + log b], with log c looked up once, and
        # addition in characteristic 2 is XOR
        exp, log = self._exp, self._log
        lc = log[c]
        for j, b in enumerate(src, shift):
            if b:
                acc[j] ^= exp[lc + log[b]]

    def conjugate_table(self, values):
        if self._exp is None or self.char != 2:
            return super().conjugate_table(values)
        # the conjugates of a normal element and of its trace dual are
        # nonzero, so all have logs
        log = self._log
        return [log[c] for c in values] * 2

    def conjugate_sums(self, table, vec, count, offset):
        if self._exp is None or self.char != 2:
            return super().conjugate_sums(table, vec, count, offset)
        # every term is exp[log v_i + log c]
        exp, log = self._exp, self._log
        n = len(table) // 2
        terms = [(i, log[v]) for i, v in enumerate(vec) if v]
        out = []
        for k in range(offset, offset + count):
            k %= n
            acc = 0
            for i, lv in terms:
                acc ^= exp[lv + table[k + i]]
            out.append(acc)
        return out

    # -- context API ---------------------------------------------------------

    def from_int(self, k):
        return Element(self, k % self.char)

    def elements(self):
        for v in range(self.size):
            yield Element(self, v)

    def random_element(self, rng):
        return Element(self, rng.randrange(self.size))

    def random_nonzero(self, rng):
        return Element(self, rng.randrange(1, self.size))

    def format(self, x):
        v = x.raw
        # GF(p) prints integers, whatever its symbol's order
        if v and self.generator_primitive and self.degree > 1:
            terms = (("1", self._log[v]),)
        else:
            terms = [(str(c), i) for i, c in enumerate(self._digits(v)) if c]
        return join_terms(terms, self.generator_symbol)

    def __repr__(self):
        return f"GF({self.char}^{self.degree}), sigma=Frobenius^{self.frobenius_power}"


# ---------------------------------------------------------------------------
# sigma-twisted polynomials: low-first raw tuples with no trailing zero
# ---------------------------------------------------------------------------

def poly_trim(ctx, c):
    zero = ctx.zero_raw
    n = len(c)
    while n and c[n - 1] == zero:
        n -= 1
    return tuple(c[:n])


def poly_twist(ctx, f, k):
    """sigma^k applied to every coefficient of f, as x^k * c = sigma^k(c) *
    x^k needs; f itself when sigma^k is the identity."""
    if k % ctx.order == 0:
        return f
    sigma = ctx.sigma_raw
    return [sigma(c, k) for c in f]


def poly_add(ctx, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    add = ctx.add
    for i, c in enumerate(g):
        out[i] = add(out[i], c)
    return poly_trim(ctx, out)


def poly_neg(ctx, f):
    return tuple(map(ctx.neg, f))


def poly_scale(ctx, f, c):
    """c*f for a constant c."""
    if c == ctx.zero_raw:
        return ()
    if c == ctx.one_raw:
        return f
    mul = ctx.mul
    return tuple(mul(c, a) for a in f)


def poly_mul(ctx, f, g):
    """f*g: row i adds f_i * sigma^i(g), shifted up by i."""
    if not f or not g:
        return ()
    zero = ctx.zero_raw
    add_scaled = ctx.add_scaled
    out = [zero] * (len(f) + len(g) - 1)
    twisted = ctx.order > 1
    for i, a in enumerate(f):
        if a != zero:
            add_scaled(out, a, poly_twist(ctx, g, i) if twisted else g, i)
    return poly_trim(ctx, out)


def poly_pow(ctx, f, k):
    """f^k for k >= 0: a constant's power in the field, a power of x, (x^m)^k
    included, as a monomial, and any other f by square-and-multiply."""
    zero, one = ctx.zero_raw, ctx.one_raw
    if len(f) == 1:
        return (ctx.pow(f[0], k),)
    if f and f[-1] == one and all(c == zero for c in f[:-1]):
        return (zero,) * ((len(f) - 1) * k) + (one,)
    return power(functools.partial(poly_mul, ctx), (one,), f, k)


def _left_reduce(ctx, rem, g, q=None):
    """Left division in place: step k takes q_k * x^k * g = q_k *
    sigma^k(g) * x^k off the list rem, from the top down, and stores q_k in
    q[k] when a quotient list is given.  Afterwards rem[:deg g] is the
    remainder; the entries above it are stale."""
    dg = len(g) - 1
    zero = ctx.zero_raw
    mul, neg, add_scaled = ctx.mul, ctx.neg, ctx.add_scaled
    inv_lead = ctx.inv(g[-1])
    # step k clears rem[k + dg] by construction, and nothing reads it again,
    # so only g's lower terms are taken off
    low = g[:dg]
    twisted = ctx.order > 1
    for k in range(len(rem) - 1 - dg, -1, -1):
        c = rem[k + dg]
        if c != zero:
            lk = poly_twist(ctx, low, k) if twisted else low
            qk = mul(c, inv_lead if lk is low else ctx.sigma_raw(inv_lead, k))
            if q is not None:
                q[k] = qk
            add_scaled(rem, neg(qk), lk, k)


def poly_divmod(ctx, f, g):
    """Left division f = q*g + rem with deg rem < deg g."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    dg = len(g) - 1
    rem = list(f)
    q = [ctx.zero_raw] * (len(f) - dg)
    _left_reduce(ctx, rem, g, q)
    return poly_trim(ctx, q), poly_trim(ctx, rem[:dg])


def poly_gcrd(ctx, f, g):
    """The monic greatest common right divisor; () when f = g = ().
    Euclid keeps only its remainders, in two lists reduced in place."""
    zero = ctx.zero_raw
    f, g = list(f), list(g)
    while g:
        _left_reduce(ctx, f, g)
        del f[len(g) - 1:]
        while f and f[-1] == zero:
            f.pop()
        f, g = g, f
    return poly_scale(ctx, tuple(f), ctx.inv(f[-1])) if f else ()


# ---------------------------------------------------------------------------
# F_q(z)
# ---------------------------------------------------------------------------

_RF_ONE = ((1,), (1,))
# F_q(z) with sigma of order n needs n <= this (see RationalFunctions)
_MAX_MOBIUS_ORDER = 17


class RationalFunctions(FieldContext):
    """F_q(z) with sigma(z) = (az+b)/(cz+d) fixing F_q pointwise.

    The Moebius coefficients are constants of the base field: text, read by
    ``parsing.parse_element``, elements of the base or its raw values.  The
    base's own sigma must be the identity.  Sigma's order is derived by
    iterating the 2x2 matrix until it becomes a scalar, and refused past 17:
    a code build takes O(n^2) operations for sigma of order n, on fractions
    whose degrees grow with n.  At n = 17 a build takes 67 to 70 ms over
    F_16(z) and 40 to 43 ms over F_17(z), at every delta (best of five,
    in-process, Python 3.11 on a 2-vCPU host).  Fractions are kept
    reduced with a monic denominator after every operation so intermediate
    expressions stay small, and each result pays at most one gcd: a sum
    and a + c * b (``add_product``, by ``_sum`` as ``add`` is, and ``mul``
    as the step onto zero) reduce once, in ``_make``, and not at all over
    a denominator of one; an inverse and sigma need none, as they map
    coprime pairs to coprime pairs and only make the denominator monic, in
    ``_monic``, as ``_make`` does last.  One substitution kernel,
    p -> p(L/D) * D^m for sigma^k(z) = L/D and one m for all its inputs,
    serves sigma and ``kernel_rows``, which clears its low coefficients
    once and substitutes the cleared row.  Clearing them, or a conjugate
    sum's word, to the lcm of the denominators costs one gcd per distinct
    denominator after the first.
    """

    def __init__(self, base: FiniteField, mobius, variable="z"):
        if base.order != 1:
            raise FieldError("the base of F_q(z) needs sigma = id (frobenius_power=0)")
        self.base = base
        self.char = base.char
        self.variable = variable
        self.size = None
        a, b, c, d = (self._base_raw(c) for c in mobius)
        det = base.add_product(base.mul(a, d), base.neg(b), c)
        if det == 0:
            raise FieldError("Moebius coefficient matrix is singular")
        self.mobius = (a, b, c, d)
        # M^k scalar  <=>  sigma^k is the identity on z
        self._mob_pows = [(1, 0, 0, 1)]
        m = self.mobius
        for k in range(1, _MAX_MOBIUS_ORDER + 1):
            if m[1] == m[2] == 0 and m[0] == m[3]:
                break
            self._mob_pows.append(m)
            m = self._mat_mul(m, self.mobius)
        else:
            raise FieldError(f"sigma's order is past the bound n <= {_MAX_MOBIUS_ORDER}")
        self.order = k
        self.key = ("rf", base.key, self.mobius)
        self.zero_raw = ((), (1,))
        self.one_raw = _RF_ONE
        self.generator_raw = ((0, 1), (1,))
        self.symbols = _symbols({variable: self.generator_raw, **{
            name: self.from_base(v).raw for name, v in base.symbols.items()}})

    def _base_raw(self, c):
        base = self.base
        if isinstance(c, str):
            from .parsing import parse_element
            return parse_element(base, c).raw
        if isinstance(c, Element):
            require_context(base, (c,))
            return c.raw
        if not (isinstance(c, int) and 0 <= c < base.size):
            raise FieldError(f"{c!r} is not a raw value of {base!r}")
        return c

    def _mat_mul(self, m1, m2):
        a, b, c, d = m1
        e, f, g, h = m2
        B = self.base
        return (B.add_product(B.mul(a, e), b, g),
                B.add_product(B.mul(a, f), b, h),
                B.add_product(B.mul(c, e), d, g),
                B.add_product(B.mul(c, f), d, h))

    # -- canonical fractions -------------------------------------------------

    def _make(self, num, den):
        base = self.base
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return (), (1,)
        # a polynomial is in lowest terms as it stands
        if den == (1,):
            return num, den
        g = poly_gcrd(base, num, den)
        if len(g) > 1:
            num = poly_divmod(base, num, g)[0]
            den = poly_divmod(base, den, g)[0]
        return self._monic(num, den)

    def _monic(self, num, den):
        # num/den with both scaled by the inverse of den's leading coefficient
        base = self.base
        inv = base.inv(den[-1])
        return poly_scale(base, num, inv), poly_scale(base, den, inv)

    def _sum(self, xn, xd, yn, yd):
        # xn/xd + yn/yd as one unreduced fraction, reduced once
        base = self.base
        if xd == yd:
            return self._make(poly_add(base, xn, yn), xd)
        return self._make(poly_add(base, poly_mul(base, xn, yd), poly_mul(base, yn, xd)),
                          poly_mul(base, xd, yd))

    # -- raw protocol ----------------------------------------------------------

    def add(self, u, v):
        # the other operand of a zero is canonical already: no gcd needed
        if not u[0]:
            return v
        if not v[0]:
            return u
        return self._sum(*u, *v)

    def neg(self, u):
        return poly_neg(self.base, u[0]), u[1]

    def mul(self, u, v):
        return self.add_product(self.zero_raw, u, v)

    def add_product(self, a, c, b):
        # a + c * b is one unreduced fraction, reduced once; a product by one
        # would still pay for a gcd, and a + b is what add does already
        if b == _RF_ONE:
            c, b = b, c
        if c == _RF_ONE:
            return self.add(a, b)
        (an, ad), (cn, cd), (bn, bd) = a, c, b
        if not cn or not bn:
            return a
        base = self.base
        pn = poly_mul(base, cn, bn)
        pd = bd if cd == (1,) else poly_mul(base, cd, bd)
        return self._sum(an, ad, pn, pd) if an else self._make(pn, pd)

    def inv(self, u):
        if not u[0]:
            raise ZeroDivisionError("inverse of zero")
        if u == _RF_ONE:
            return u
        # den/num is in lowest terms already: only make its denominator monic
        num, den = u
        return self._monic(den, num)

    def _substitute(self, polys, k, m):
        """p(L/D) * D^m, sigma^k(p) times one factor, for each F_q[z]
        polynomial p of degree at most m; sigma^k(z) = L/D = (az+b)/(cz+d)."""
        base = self.base
        add_scaled = base.add_scaled
        a, b, c, d = self._mob_pows[k % self.order]

        def times(p, lo, hi):
            # p * (hi*z + lo) in m + 1 slots; p's top slot is zero here
            out = [0] * (m + 1)
            add_scaled(out, lo, p, 0)
            add_scaled(out, hi, p[:m], 1)
            return out

        # Horner in L over the powers of D: acc = acc * L + p_i * D^(m-i)
        accs = [[p[m] if m < len(p) else 0] + [0] * m for p in polys]
        dpow = [1] + [0] * m
        for i in range(m - 1, -1, -1):
            dpow = times(dpow, d, c)
            for j, p in enumerate(polys):
                acc = accs[j] = times(accs[j], b, a)
                if i < len(p) and p[i]:
                    add_scaled(acc, p[i], dpow, 0)
        return [poly_trim(base, acc) for acc in accs]

    def sigma_raw(self, u, k=1):
        """num(L/D) * D^m over den(L/D) * D^m, for m = max(deg num,
        deg den), with no gcd: as binary forms of degree m, num and den are
        coprime, and the invertible linear substitution (X, Y) -> (L, D)
        keeps them so."""
        k %= self.order
        num, den = u
        if k == 0 or not num:
            return u
        return self._monic(*self._substitute(u, k, max(len(num), len(den)) - 1))

    def _over_one_denominator(self, fracs):
        # the numerators over the lcm L of the nonzero fractions' distinct
        # denominators, and L: L grows by d / gcd(L, d), one gcd per
        # denominator after the first, and each numerator is multiplied by
        # L/d, one exact division per denominator
        base = self.base
        cofactors = dict.fromkeys(d for num, d in fracs if num)
        dens = iter(cofactors)
        den = next(dens, (1,))
        for d in dens:
            g = poly_gcrd(base, den, d)
            den = poly_mul(base, den, poly_divmod(base, d, g)[0] if len(g) > 1 else d)
        if len(cofactors) < 2:
            return [num for num, _ in fracs], den
        for d in cofactors:
            cofactors[d] = poly_divmod(base, den, d)[0]
        return [poly_mul(base, num, cofactors[d]) if num else () for num, d in fracs], den

    def kernel_rows(self, low, count):
        # low is cleared once, to N_k / d; with one m for all, row i is
        # sigma^i(N_k / d) = P_i(N_k) / P_i(d), P_i the substitution of
        # sigma^i, over the scale d_i = P_i(d), with no gcd.  w_j is kept
        # times D_j = d_0 * ... * d_(j-mu) (one for j < mu), so w_(i+mu)
        # comes times D_(i+mu), and row i's coefficient k times D_(i+mu-1) /
        # D_(i+k): the d_l for max(i+k-mu+1, 0) <= l < i.  w_j times
        # d_(j-mu+1) * ... * d_(count-1) at the end gives all of w the factor
        # D_(count+mu-1), and w stays in F_q[z]
        mu = len(low)
        nums, den = self._over_one_denominator(low)
        polys = nums + [den]
        m = max(map(len, polys)) - 1
        mul, one = self.mul, self.one_raw
        out, scales = [], []
        for i in range(count):
            *row, scale = self._substitute(polys, i, m) if i else polys
            row, factor = [(num, (1,)) for num in row], one
            for k in range(mu - 2, -1, -1):
                if i + k - mu + 1 >= 0:
                    factor = mul(factor, scales[i + k - mu + 1])
                row[k] = mul(row[k], factor)
            out.append(row)
            scales.append((scale, (1,)))
        suffix = [one]
        for d in reversed(scales):
            suffix.append(mul(d, suffix[-1]))
        suffix.reverse()
        return out, [suffix[max(j - mu + 1, 0)] for j in range(count + mu)]

    def conjugate_table(self, values):
        # the values' numerators over the lcm D of their denominators, twice
        # over, and D
        nums, den = self._over_one_denominator(values)
        return nums * 2, den

    def _numerator_sums(self, table, vec, count, offset):
        # with vec over one denominator V, sum_i vec_i * c_(k+i) is a sum of
        # F_q[z] products over V * D: returns V * D and, per output, that
        # numerator (untrimmed)
        nums, den = table
        n = len(nums) // 2
        base = self.base
        add_scaled = base.add_scaled
        terms = [i for i, v in enumerate(vec) if v[0]]
        cleared, vden = self._over_one_denominator([vec[i] for i in terms])
        width = max(map(len, cleared), default=0) + max(map(len, nums)) - 1
        out = []
        for k in range(offset, offset + count):
            k %= n
            acc = [0] * width
            for i, u in zip(terms, cleared):
                c = nums[k + i]
                if len(c) < len(u):
                    c, u = u, c
                for j, a in enumerate(u):
                    if a:
                        add_scaled(acc, a, c, j)
            out.append(acc)
        return poly_mul(base, vden, den), out

    def conjugate_sums(self, table, vec, count, offset):
        # each output pays for one gcd, in _make
        base = self.base
        den, sums = self._numerator_sums(table, vec, count, offset)
        return [self._make(poly_trim(base, acc), den) for acc in sums]

    def conjugate_zeros(self, table, vec, count, offset):
        # a sum is zero exactly when its numerator is: no gcd past clearing vec
        return [not any(acc) for acc in self._numerator_sums(table, vec, count, offset)[1]]

    # -- context API ---------------------------------------------------------

    def from_int(self, k):
        return self.from_base(k % self.char)

    def from_base(self, c):
        v = self._base_raw(c)
        return Element(self, ((v,) if v else (), (1,)))

    def random_element(self, rng, num_degree=1, den_degree=1):
        base = self.base
        num = [rng.randrange(base.size) for _ in range(num_degree + 1)]
        den = ()
        while not den:
            den = poly_trim(base, [rng.randrange(base.size) for _ in range(den_degree + 1)])
        return Element(self, self._make(poly_trim(base, num), den))

    def format(self, x):
        num, den = x.raw
        num = self._format_poly(num)
        if den == (1,):
            return num
        den = self._format_poly(den)
        if " + " in num or num.startswith("-"):
            num = f"({num})"
        return f"{num}/({den})"

    def _format_poly(self, poly):
        base = self.base
        return join_terms([(base.format(Element(base, c)), i) for i, c in enumerate(poly) if c],
                          self.variable)

    def __repr__(self):
        a, b, c, d = self.mobius
        B = self.base
        fmt = lambda v: B.format(B.element(v))
        return (f"GF({B.char}^{B.degree})({self.variable}), "
                f"sigma({self.variable})=({fmt(a)}*{self.variable}+{fmt(b)})/"
                f"({fmt(c)}*{self.variable}+{fmt(d)})")


# ---------------------------------------------------------------------------
# Q(chi), chi a primitive m-th root of unity, m prime
# ---------------------------------------------------------------------------

class CyclotomicField(FieldContext):
    """Q(chi) with chi^m = 1 primitive, m prime, and sigma(chi) = chi^k.

    A sum (``add``, as a + b * 1), an a + c * b (``add_product``, and ``mul``
    as the step onto zero) and a conjugate sum gather their integer
    coordinates over one denominator with ``_accumulate``, whose outer loop
    runs over the second operand's nonzero coordinates, and reduce the
    content once, in ``_make``.  A zero test of conjugate sums reduces
    nothing: it asks only whether the accumulated vector's entries are
    equal.  A Galois image needs no reduction (an automorphism keeps Z[chi]
    and so the content), nor does the inverse of one.

    A code build costs about m^3 integer products (the norm inverse) plus
    m^2 * n^2 (the lclm of the beta-roots), n sigma's order.  The bound
    m^3 + m^2 * n^3 <= 10^7 is kept from an n^3 linear solve that builds no
    longer make, so it is loose: at its edges a build takes 35 ms (m = 211,
    sigma(chi) = chi^(-1)) and 38 to 40 ms (m = 23, sigma of full order),
    at every delta (best of five, in-process, Python 3.11 on a 2-vCPU
    host).  Past it a field is refused, on m^3 before m is factorised and
    sigma's powers walked.
    """

    def __init__(self, order, exponent, symbol="chi"):
        m = order
        bound = "the bound m^3 + m^2*n^3 <= 10^7"
        if m ** 3 > _CYCLOTOMIC_BUDGET:
            raise FieldError(f"root order {m} is past {bound}")
        if m < 3 or _factorize(m) != {m: 1}:
            raise FieldError(f"root order {m} must be an odd prime")
        if math.gcd(exponent, m) != 1:
            raise FieldError("sigma exponent must be coprime to the root order")
        self.char = 0
        self.size = None
        self.root_order = m
        self.exponent = exponent % m
        self.symbol = symbol
        self.dim = m - 1
        self._sigma_exp = exps = [1]
        while (e := exps[-1] * exponent % m) != 1:
            exps.append(e)
        self.order = n = len(exps)
        if m ** 3 + m ** 2 * n ** 3 > _CYCLOTOMIC_BUDGET:
            raise FieldError(f"root order {m} with sigma of order {n} is past {bound}")
        self.key = ("cyc", m, self.exponent)
        self.zero_raw = ((0,) * self.dim, 1)
        self.one_raw = ((1,) + (0,) * (self.dim - 1), 1)
        self.generator_raw = ((0, 1) + (0,) * (self.dim - 2), 1)
        self.symbols = _symbols({symbol: self.generator_raw})

    def _make(self, num, den):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num = tuple(-a for a in num)
            den = -den
        g = den
        for a in num:
            g = math.gcd(g, a)
            if g == 1:
                break
        if g > 1:
            num = tuple(a // g for a in num)
            den //= g
        return num, den

    def _reduce_cyclic(self, full):
        # length-m coordinate vector mod (chi^m - 1) down to the power basis
        top = full[self.dim]
        return tuple(full[i] - top for i in range(self.dim))

    # -- raw protocol ----------------------------------------------------------

    def add(self, u, v):
        # one, a monomial, goes second: _accumulate loops over its one term
        return self.add_product(u, v, self.one_raw)

    def neg(self, u):
        return tuple(-a for a in u[0]), u[1]

    def _accumulate(self, full, den, u, v):
        # full/den += u * v in place, full a length-m integer vector over
        # the powers of chi; returns the common denominator.  The outer loop
        # runs over v's nonzero coordinates: every conjugate chi^e but
        # chi^(m-1) is a monomial, and so is one
        m = self.root_order
        d = u[1] * v[1]
        g = math.gcd(den, d)
        if d != g:
            scale = d // g
            full[:] = [x * scale for x in full]
            den *= scale
        w = den // d
        for i, b in enumerate(v[0]):
            if b:
                b *= w
                for l, a in enumerate(u[0], i):
                    if a:
                        full[l % m] += a * b
        return den

    def mul(self, u, v):
        return self.add_product(self.zero_raw, u, v)

    def add_product(self, a, c, b):
        # a + c * b is one integer vector over one denominator, reduced
        # once; a zero a takes c * b's denominator, so nothing is scaled
        an, ad = a
        full = [*an, 0]
        den = self._accumulate(full, ad if any(an) else c[1] * b[1], c, b)
        return self._make(self._reduce_cyclic(full), den)

    def _full_sums(self, table, vec, count, offset):
        # per output k, sum_i vec_i * c_(k+i) as a length-m integer vector
        # over a common denominator
        n, m = len(table) // 2, self.root_order
        accumulate = self._accumulate
        terms = [(i, v) for i, v in enumerate(vec) if any(v[0])]
        for k in range(offset, offset + count):
            k %= n
            full, den = [0] * m, 1
            for i, v in terms:
                den = accumulate(full, den, v, table[k + i])
            yield full, den

    def conjugate_sums(self, table, vec, count, offset):
        # each output is reduced once, in _make
        reduce_cyclic = self._reduce_cyclic
        return [self._make(reduce_cyclic(full), den)
                for full, den in self._full_sums(table, vec, count, offset)]

    def conjugate_zeros(self, table, vec, count, offset):
        # the reduced coordinates are full[i] - full[m-1], so a sum is zero
        # exactly when full's entries are equal
        m = self.root_order
        return [full.count(full[0]) == m
                for full, _ in self._full_sums(table, vec, count, offset)]

    def inv(self, u):
        if u == self.zero_raw:
            raise ZeroDivisionError("inverse of zero")
        if u == self.one_raw:
            return u
        # u times its other Galois conjugates is the rational norm N(u)
        rest = self._conjugate(u, 2)
        for e in range(3, self.root_order):
            rest = self.mul(rest, self._conjugate(u, e))
        (c, *_), d = self.mul(u, rest)
        coords, den = rest
        return self._make(tuple(a * d for a in coords), den * c)

    def sigma_raw(self, u, k=1):
        k %= self.order
        if k == 0:
            return u
        return self._conjugate(u, self._sigma_exp[k])

    def _conjugate(self, u, e):
        # the automorphism chi -> chi^e maps Z[chi] onto itself, so it keeps
        # the coordinates' content and the result is canonical as built
        m = self.root_order
        full = [0] * m
        for j, a in enumerate(u[0]):
            if a:
                full[(j * e) % m] += a
        return self._reduce_cyclic(full), u[1]

    # -- context API ---------------------------------------------------------

    def from_int(self, k):
        return Element(self, ((k,) + (0,) * (self.dim - 1), 1))

    def random_element(self, rng, height=4):
        num = tuple(rng.randint(-height, height) for _ in range(self.dim))
        return Element(self, self._make(num, rng.randint(1, height)))

    def format(self, x):
        num, den = x.raw
        try:
            terms = [(str(Fraction(a, den)), i) for i, a in enumerate(num) if a]
        except ValueError:   # past the interpreter's int_max_str_digits
            raise FormatError("a coordinate is too long to print in decimal") from None
        return join_terms(terms, self.symbol)

    def __repr__(self):
        return f"Q(chi), chi^{self.root_order}=1, sigma(chi)=chi^{self.exponent}"
