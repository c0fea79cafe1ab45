"""Exact field arithmetic for the three supported coefficient fields.

Each backend bundles a field L with a finite-order automorphism sigma:

* ``FiniteField``       -- GF(p^d) with sigma a power of Frobenius.
* ``RationalFunctions`` -- F_q(z) with sigma a Moebius substitution on z
                           that fixes F_q pointwise.
* ``CyclotomicField``   -- Q(chi) for chi a primitive m-th root of unity
                           (m prime) with sigma(chi) = chi^k.

All arithmetic is exact.  Every backend is a context that computes on raw
values through one small protocol, with the same names everywhere:

    add(u, v)  neg(u)  mul(u, v)  inv(u)  pow(u, k)
    sigma_raw(u, k)  is_zero(u)  add_scaled(acc, c, src, shift)
    conjugate_table(conj, conj_inv)  conjugate_sums(table, vec, count, offset)
    conjugate_zeros(table, vec, count, offset)

``add_scaled`` does acc[shift + j] += c * src[j] in place, skipping zero
src[j]: it is the one inner loop of polynomial products and divisions and
of matrix elimination.  The generic version runs on add and mul; a tabled
field of characteristic 2 looks up log c once and XORs in
exp[log c + log src[j]].  F_q(z) builds each acc_j + c * src_j as one
unreduced fraction and Q(chi) as one integer vector over one denominator,
and each reduces it once, so an updated entry costs one gcd where mul
then add cost two.

F_q(z) applies sigma with no gcd at all: the substitution of L/D = (az+b)/
(cz+d) into num/den, both multiplied by D^m for m the larger degree, is
already in lowest terms, because as binary forms of degree m num and den
are coprime and an invertible linear change of variables keeps them so.
Its Euclid keeps only the remainders and reduces them in place.

The conjugate methods are the right evaluations at the beta-roots of a
skew Reed-Solomon code (see ``codes``): sums of vec_i * sigma^(k+i)(alpha)
over a table of conjugates that the context prepares once per code, or,
from ``conjugate_zeros``, only whether each sum is zero.  The generic
versions run on add and mul; a tabled finite field keeps the conjugates'
discrete logs and sums in the log domain.  F_q(z) keeps the conjugates
over one shared denominator and clears vec to one denominator per call,
so an output is a sum of F_q[z] products and costs one gcd, or none for a
zero test; Q(chi) sums each output's integer cyclic convolutions over a
common denominator and reduces it once.

Raw values are canonical, so two values are equal exactly when they denote
the same element:

* GF(p^d)  -- an int packing the coefficient digits in base p;
* F_q(z)   -- ``(num, den)``, coprime low-first tuples of GF(q) ints with
              ``den`` monic;
* Q(chi)   -- ``(coords, den)``, integer coordinates over the power basis
              1, chi, ..., chi^(m-2) and a positive denominator with no
              common factor.

``Element(ctx, raw)`` is the one element class for all backends: an
immutable value object whose operators check that both operands share a
context and then delegate to it.  Contexts are immutable after
construction and safe to share.

Finite fields of size up to 2^16 get exp/log tables with respect to a
primitive element, so multiplication, inversion and Frobenius application
are table lookups.  For p = 2 the tables come from one walk over the
powers of the modulus root a, where times a is a shift and a conditional
XOR, and a is primitive exactly when the walk first returns to 1 after
2^d - 1 steps.  Odd characteristic, and a non-primitive root, take the
general route: find a primitive element (the root first) by its order and
walk its powers by general multiplication.
Elements print as powers of the modulus root whenever that root is
primitive (all bundled examples qualify), otherwise in polynomial form;
printing then parsing round-trips either way.

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
import operator
from fractions import Fraction

_TABLE_LIMIT = 1 << 16


class FieldError(ValueError):
    pass


def same_context(a, b):
    """True when two contexts denote the same field with the same sigma."""
    return a is b or a.key == b.key


def _require_same(a, b):
    if a.key != b.key:
        raise FieldError("elements belong to different field contexts")


def require_context(ctx, items):
    """Raise FieldError unless every item (an Element or a polynomial)
    lives over ctx: code that computes on raw values meets no operator
    check of its own."""
    if not all(same_context(x.ctx, ctx) for x in items):
        raise FieldError("elements belong to different field contexts")


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


class Element:
    """A field element: a canonical raw value and the context it lives in."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx, raw):
        self.ctx = ctx
        self.raw = raw

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.raw == other.raw and same_context(self.ctx, other.ctx)
        if isinstance(other, int):
            return self == self.ctx.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.raw)

    def __bool__(self):
        return not self.ctx.is_zero(self.raw)

    def __add__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx:
            _require_same(ctx, other.ctx)
        return Element(ctx, ctx.add(self.raw, other.raw))

    def __sub__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx:
            _require_same(ctx, other.ctx)
        return Element(ctx, ctx.add(self.raw, ctx.neg(other.raw)))

    def __neg__(self):
        return Element(self.ctx, self.ctx.neg(self.raw))

    def __mul__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx:
            _require_same(ctx, other.ctx)
        return Element(ctx, ctx.mul(self.raw, other.raw))

    def __truediv__(self, other):
        ctx = self.ctx
        if other.ctx is not ctx:
            _require_same(ctx, other.ctx)
        return Element(ctx, ctx.mul(self.raw, ctx.inv(other.raw)))

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
    ``generator_raw``, the raw operations add, neg, mul, inv, sigma_raw and
    is_zero (plus pow where it has a faster route), and
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

    def add_scaled(self, acc, c, src, shift):
        """acc[shift + j] += c * src[j] in place, skipping zero src[j]: the
        one inner loop of polynomial products, divisions and elimination."""
        zero, add, mul = self.zero_raw, self.add, self.mul
        for j, b in enumerate(src, shift):
            if b != zero:
                acc[j] = add(acc[j], mul(c, b))

    def conjugate_table(self, conj, conj_inv):
        """What ``conjugate_sums`` reads: the raw conjugates sigma^k(alpha),
        k < n, twice over (so no index wraps), and their inverses."""
        return list(conj) * 2, list(conj_inv)

    def conjugate_sums(self, table, vec, count, offset):
        """For k = offset + j, 0 <= j < count, the raw value
        sigma^k(alpha)^(-1) * sum_i vec_i * sigma^(k+i)(alpha), indices mod
        n; vec holds at most n raw values, lowest degree first."""
        conj, conj_inv = table
        n = len(conj_inv)
        add, mul = self.add, self.mul
        terms = [(i, v) for i, v in enumerate(vec) if not self.is_zero(v)]
        out = []
        for k in range(offset, offset + count):
            k %= n
            acc = self.zero_raw
            for i, v in terms:
                acc = add(acc, mul(v, conj[k + i]))
            out.append(mul(acc, conj_inv[k]))
        return out

    def conjugate_zeros(self, table, vec, count, offset):
        """For the same k, whether each ``conjugate_sums`` output is zero."""
        return [self.is_zero(v) for v in self.conjugate_sums(table, vec, count, offset)]

    def sigma(self, x, k=1):
        """sigma^k(x) for any integer k (k reduced mod the automorphism order)."""
        return Element(self, self.sigma_raw(x.raw, k))

    def random_nonzero(self, rng, *args):
        while True:
            x = self.random_element(rng, *args)
            if x:
                return x


# ---------------------------------------------------------------------------
# integer-coefficient polynomial text, used for moduli ("a^12+a^7+...+1")
# ---------------------------------------------------------------------------

def parse_int_poly(text, symbol):
    """Parse a sum of integer-coefficient powers of ``symbol`` into a
    low-first coefficient list.  Only what a modulus line needs."""
    s = text.replace(" ", "").replace("*", "")
    if not s:
        raise FieldError("empty polynomial")
    # normalize leading sign, then split into signed terms
    terms = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur:
            terms.append(cur)
            cur = ch if ch == "-" else ""
        else:
            cur += ch
    terms.append(cur)
    coeffs = {}
    for term in terms:
        t = term
        sign = 1
        if t.startswith("-"):
            sign, t = -1, t[1:]
        if t.startswith("+"):
            t = t[1:]
        if not t:
            raise FieldError(f"malformed term in {text!r}")
        if symbol in t:
            head, _, tail = t.partition(symbol)
            c = int(head) if head else 1
            if tail.startswith("^"):
                k = int(tail[1:])
            elif tail == "":
                k = 1
            else:
                raise FieldError(f"malformed term {term!r}")
        else:
            c, k = int(t), 0
        coeffs[k] = coeffs.get(k, 0) + sign * c
    deg = max(coeffs)
    return [coeffs.get(i, 0) for i in range(deg + 1)]


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


class FiniteField(FieldContext):
    """GF(p^d) presented as F_p[a]/(modulus), sigma = Frobenius^e.

    ``modulus`` is monic irreducible of degree d, given as a low-first
    coefficient list or as text in the generator symbol.  Raw values pack
    the coefficient vector in base p, so the residue class of the
    symbol itself has value p.
    """

    kind = "finite-field"

    def __init__(self, p, degree, modulus, generator="a", frobenius_power=1):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise FieldError(f"characteristic {p} is not prime")
        if degree < 1:
            raise FieldError(f"degree must be at least 1, got {degree}")
        if isinstance(modulus, str):
            modulus = parse_int_poly(modulus, generator)
        modulus = [c % p for c in modulus]
        while modulus and modulus[-1] == 0:
            modulus.pop()
        if len(modulus) != degree + 1:
            raise FieldError(f"modulus degree {len(modulus) - 1} != {degree}")
        if modulus[-1] != 1:
            raise FieldError("modulus must be monic")
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
        if not self._is_irreducible():
            raise FieldError("modulus is not irreducible")
        self._exp = None
        self._log = None
        self._sigma_mult = None
        self.generator_primitive = False
        if self.size <= _TABLE_LIMIT:
            self._build_tables()
        self.key = ("ff", p, degree, self.modulus, self.frobenius_power)
        self.zero_raw = 0
        self.one_raw = 1
        self.generator_raw = p if degree > 1 else 1 % p

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
        return self._pack([(x + y) % p for x, y in zip(self._digits(u), self._digits(v))])

    def neg(self, u):
        if self.char == 2:
            return u
        p = self.char
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
        # Rabin: x^(p^d) == x mod f, and x^(p^(d/l)) != x for prime l | d
        p, d = self.char, self.degree
        if d == 1:
            return True
        # the symbol a packs to p
        if self._raw_pow_frob(p, d) != p:
            return False
        for ell in _factorize(d):
            xe = self._raw_pow_frob(p, d // ell)
            if xe == p:
                return False
        return True

    def _raw_pow_frob(self, u, k):
        # u^(p^k) by repeated p-th powering
        for _ in range(k):
            u = power(self._raw_mul, 1, u, self.char)
        return u

    def _element_order(self, u):
        n = self.size - 1
        order = n
        for q in _factorize(n):
            while order % q == 0 and power(self._raw_mul, 1, u, order // q) == 1:
                order //= q
        return order

    def _build_tables(self):
        q, p, d = self.size, self.char, self.degree
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        gen_val = p if d > 1 else 1 % p
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
            self.generator_primitive = log[1] == 0
        else:
            self.generator_primitive = self._element_order(gen_val) == q - 1
        if not (walked and self.generator_primitive):
            prim = gen_val if self.generator_primitive else next(
                c for c in range(2, q) if self._element_order(c) == q - 1)
            acc = 1
            for i in range(q - 1):
                exp[i] = acc
                log[acc] = i
                acc = self._raw_mul(acc, prim)
        exp[q - 1:] = exp[:q - 1]
        self._exp = exp
        self._log = log
        # sigma^k multiplies discrete logs by p^(e*k mod d)
        self._sigma_mult = [pow(self.char, (self.frobenius_power * k) % self.degree, q - 1)
                            for k in range(self.order)]

    # -- raw protocol (the rational-function backend calls it on its base) --

    def is_zero(self, u):
        return u == 0

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
        return self._raw_pow_frob(u, (self.frobenius_power * k) % self.degree)

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

    def conjugate_table(self, conj, conj_inv):
        if self._exp is None:
            return super().conjugate_table(conj, conj_inv)
        # the conjugates of a normal element are nonzero, so all have logs
        log = self._log
        return [log[c] for c in conj] * 2, [log[c] for c in conj_inv]

    def conjugate_sums(self, table, vec, count, offset):
        if self._exp is None:
            return super().conjugate_sums(table, vec, count, offset)
        # every term is exp[log v_i + log c]; the sum is scaled once, by
        # exp[log acc + log c_inv]
        exp, log = self._exp, self._log
        logs, inv_logs = table
        n = len(inv_logs)
        add = operator.xor if self.char == 2 else self.add
        terms = [(i, log[v]) for i, v in enumerate(vec) if v]
        out = []
        for k in range(offset, offset + count):
            k %= n
            acc = 0
            for i, lv in terms:
                acc = add(acc, exp[lv + logs[k + i]])
            out.append(exp[log[acc] + inv_logs[k]] if acc else 0)
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
        if v and self.generator_primitive:
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


def _twist(ctx, f, k):
    # x^k * c = sigma^k(c) * x^k; sigma^k is the identity when order | k
    if k % ctx.order == 0:
        return f
    sigma, zero = ctx.sigma_raw, ctx.zero_raw
    return [c if c == zero else sigma(c, k) for c in f]


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
            add_scaled(out, a, _twist(ctx, g, i) if twisted else g, i)
    return poly_trim(ctx, out)


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
            lk = _twist(ctx, low, k) if twisted else low
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
_MAX_MOBIUS_ORDER = 512


class RationalFunctions(FieldContext):
    """F_q(z) with sigma(z) = (az+b)/(cz+d) fixing F_q pointwise.

    The Moebius coefficients are elements of the base field, whose own
    sigma must be the identity; sigma's order is derived by iterating the
    2x2 coefficient matrix until it becomes a scalar.  Fractions are kept
    reduced with a monic denominator after every operation so intermediate
    expressions stay small, and each result pays at most one gcd: a sum, a
    product, an ``add_scaled`` entry and a conjugate sum reduce once; an
    inverse and sigma need none, as they map coprime pairs to coprime pairs
    and only make the denominator monic.
    """

    kind = "rational-function"

    def __init__(self, base: FiniteField, mobius, variable="z"):
        if base.order != 1:
            raise FieldError("the base of F_q(z) needs sigma = id (frobenius_power=0)")
        self.base = base
        self.char = base.char
        self.variable = variable
        self.size = None
        mob = []
        for c in mobius:
            if isinstance(c, str):
                from .parsing import parse_element
                mob.append(parse_element(base, c).raw)
            elif isinstance(c, Element):
                mob.append(c.raw)
            else:
                mob.append(int(c))
        a, b, c, d = mob
        det = base.add(base.mul(a, d), base.neg(base.mul(b, c)))
        if det == 0:
            raise FieldError("Moebius coefficient matrix is singular")
        self.mobius = (a, b, c, d)
        # M^k scalar  <=>  sigma^k is the identity on z
        self._mob_pows = [(1, 0, 0, 1)]
        m = self.mobius
        for k in range(1, _MAX_MOBIUS_ORDER + 1):
            if self._is_scalar(m):
                break
            self._mob_pows.append(m)
            m = self._mat_mul(m, self.mobius)
        else:
            raise FieldError("automorphism order exceeds bound")
        self.order = k
        self.key = ("rf", base.key, self.mobius)
        self.zero_raw = ((), (1,))
        self.one_raw = _RF_ONE
        self.generator_raw = ((0, 1), (1,))

    def _mat_mul(self, m1, m2):
        a, b, c, d = m1
        e, f, g, h = m2
        B = self.base
        return (B.add(B.mul(a, e), B.mul(b, g)),
                B.add(B.mul(a, f), B.mul(b, h)),
                B.add(B.mul(c, e), B.mul(d, g)),
                B.add(B.mul(c, f), B.mul(d, h)))

    def _is_scalar(self, m):
        a, b, c, d = m
        return b == 0 and c == 0 and a == d and a != 0

    # -- canonical fractions -------------------------------------------------

    def _make(self, num, den):
        base = self.base
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return (), (1,)
        g = poly_gcrd(base, num, den)
        if len(g) > 1:
            num = poly_divmod(base, num, g)[0]
            den = poly_divmod(base, den, g)[0]
        inv = base.inv(den[-1])
        return poly_scale(base, num, inv), poly_scale(base, den, inv)

    # -- raw protocol ----------------------------------------------------------

    def is_zero(self, u):
        return not u[0]

    def add(self, u, v):
        # the other operand of a zero is canonical already: no gcd needed
        if not u[0]:
            return v
        if not v[0]:
            return u
        base = self.base
        (xn, xd), (yn, yd) = u, v
        if xd == yd:
            return self._make(poly_add(base, xn, yn), xd)
        num = poly_add(base, poly_mul(base, xn, yd), poly_mul(base, yn, xd))
        return self._make(num, poly_mul(base, xd, yd))

    def neg(self, u):
        return poly_neg(self.base, u[0]), u[1]

    def mul(self, u, v):
        # a product by one would still pay for a gcd
        if u == _RF_ONE:
            return v
        if v == _RF_ONE:
            return u
        (xn, xd), (yn, yd) = u, v
        base = self.base
        return self._make(poly_mul(base, xn, yn), poly_mul(base, xd, yd))

    def inv(self, u):
        if not u[0]:
            raise ZeroDivisionError("inverse of zero")
        if u == _RF_ONE:
            return u
        # den/num is in lowest terms already: only make its denominator monic
        num, den = u
        c = self.base.inv(num[-1])
        return poly_scale(self.base, den, c), poly_scale(self.base, num, c)

    def add_scaled(self, acc, c, src, shift):
        # acc_j + c * b_j is one unreduced fraction, reduced once; with
        # c = 1 that is what add does already
        if c == _RF_ONE:
            return super().add_scaled(acc, c, src, shift)
        if not c[0]:
            return
        base = self.base
        cn, cd = c
        for j, (bn, bd) in enumerate(src, shift):
            if not bn:
                continue
            an, ad = acc[j]
            pn = poly_mul(base, cn, bn)
            pd = bd if cd == (1,) else poly_mul(base, cd, bd)
            if not an:
                acc[j] = self._make(pn, pd)
            elif ad == pd:
                acc[j] = self._make(poly_add(base, an, pn), ad)
            else:
                acc[j] = self._make(poly_add(base, poly_mul(base, an, pd), poly_mul(base, pn, ad)),
                                    poly_mul(base, ad, pd))

    def sigma_raw(self, u, k=1):
        """num(L/D) * D^m over den(L/D) * D^m, for sigma^k(z) = L/D with
        L = az+b, D = cz+d and m = max(deg num, deg den), with no gcd: as
        binary forms of degree m, num and den are coprime, and the
        invertible linear substitution (X, Y) -> (L, D) keeps them so."""
        k %= self.order
        num, den = u
        if k == 0 or not num:
            return u
        base = self.base
        add_scaled = base.add_scaled
        a, b, c, d = self._mob_pows[k]
        m = max(len(num), len(den)) - 1

        def times(p, lo, hi):
            # p * (hi*z + lo) in m + 1 slots; p's top slot is zero here
            out = [0] * (m + 1)
            if lo:
                add_scaled(out, lo, p, 0)
            if hi:
                add_scaled(out, hi, p[:m], 1)
            return out

        # Horner in L over the powers of D: acc = acc * L + p_i * D^(m-i)
        polys = (num, den)
        accs = [[p[m] if m < len(p) else 0] + [0] * m for p in polys]
        dpow = [1] + [0] * m
        for i in range(m - 1, -1, -1):
            dpow = times(dpow, d, c)
            for j, p in enumerate(polys):
                acc = accs[j] = times(accs[j], b, a)
                if i < len(p) and p[i]:
                    add_scaled(acc, p[i], dpow, 0)
        num, den = (poly_trim(base, acc) for acc in accs)
        inv = base.inv(den[-1])
        return poly_scale(base, num, inv), poly_scale(base, den, inv)

    def _over_one_denominator(self, fracs):
        # the numerators over the product of the distinct denominators, and
        # that product: no gcd
        base = self.base
        dens = list(dict.fromkeys(d for _, d in fracs))
        nums = []
        for num, d in fracs:
            for e in dens:
                if e != d:
                    num = poly_mul(base, num, e)
            nums.append(num)
        return nums, functools.reduce(functools.partial(poly_mul, base), dens, (1,))

    def conjugate_table(self, conj, conj_inv):
        # the conjugates' numerators over one shared denominator D, twice
        # over, and each inverse conjugate divided by D
        nums, den = self._over_one_denominator(conj)
        return nums * 2, [(cn, poly_mul(self.base, cd, den)) for cn, cd in conj_inv]

    def _numerator_sums(self, table, vec, count, offset):
        # with vec over one denominator V, sum_i vec_i * c_(k+i) is a sum of
        # F_q[z] products over V * D: returns V and, per output, that
        # numerator (untrimmed) and the output's scale
        nums, scales = table
        n = len(scales)
        add_scaled = self.base.add_scaled
        terms = [i for i, v in enumerate(vec) if v[0]]
        cleared, den = self._over_one_denominator([vec[i] for i in terms])
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
            out.append((acc, scales[k]))
        return den, out

    def conjugate_sums(self, table, vec, count, offset):
        # each output pays for one gcd, in _make
        base = self.base
        den, sums = self._numerator_sums(table, vec, count, offset)
        return [self._make(poly_mul(base, poly_trim(base, acc), sn), poly_mul(base, den, sd))
                for acc, (sn, sd) in sums]

    def conjugate_zeros(self, table, vec, count, offset):
        # a sum is zero exactly when its numerator is: no gcd at all
        return [not any(acc) for acc, _ in self._numerator_sums(table, vec, count, offset)[1]]

    # -- context API ---------------------------------------------------------

    def from_int(self, k):
        return self.from_base(k % self.char)

    def from_base(self, c):
        v = c.raw if isinstance(c, Element) else int(c)
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

    A sum, a product, an ``add_scaled`` entry and a conjugate sum each
    gather their integer coordinates over one denominator and reduce the
    content once.  A Galois image needs no reduction (an automorphism maps
    Z[chi] onto itself, so it keeps the content), and neither does the
    inverse of one.
    """

    kind = "cyclotomic"

    def __init__(self, order, exponent, symbol="chi"):
        m = order
        if m < 3 or any(m % d == 0 for d in range(2, int(m ** 0.5) + 1)):
            raise FieldError(f"root order {m} must be an odd prime")
        if math.gcd(exponent, m) != 1:
            raise FieldError("sigma exponent must be coprime to the root order")
        self.char = 0
        self.size = None
        self.root_order = m
        self.exponent = exponent % m
        self.symbol = symbol
        self.dim = m - 1
        n = 1
        e = self.exponent % m
        while e != 1:
            e = (e * exponent) % m
            n += 1
        self.order = n
        self._sigma_exp = [pow(exponent, t, m) for t in range(n)]
        self.key = ("cyc", m, self.exponent)
        self.zero_raw = ((0,) * self.dim, 1)
        self.one_raw = ((1,) + (0,) * (self.dim - 1), 1)
        self.generator_raw = ((0, 1) + (0,) * (self.dim - 2), 1)

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

    def is_zero(self, u):
        return not any(u[0])

    def add(self, u, v):
        (xn, d1), (yn, d2) = u, v
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        return self._make(tuple(a * m1 + b * m2 for a, b in zip(xn, yn)), d1 * m1)

    def neg(self, u):
        return tuple(-a for a in u[0]), u[1]

    def mul(self, u, v):
        m = self.root_order
        full = [0] * m
        for i, a in enumerate(u[0]):
            if a:
                for j, b in enumerate(v[0]):
                    if b:
                        full[(i + j) % m] += a * b
        return self._make(self._reduce_cyclic(full), u[1] * v[1])

    def add_scaled(self, acc, c, src, shift):
        # acc_j + c * b_j is one integer vector over one denominator,
        # reduced once
        m = self.root_order
        cn, cd = c
        cterms = [(i, a) for i, a in enumerate(cn) if a]
        if not cterms:
            return
        for j, (bn, bd) in enumerate(src, shift):
            if not any(bn):
                continue
            an, ad = acc[j]
            d = cd * bd
            g = math.gcd(ad, d)
            sa, sp = d // g, ad // g
            full = [x * sa for x in an]
            full.append(0)
            for i, a in cterms:
                a *= sp
                for l, b in enumerate(bn, i):
                    if b:
                        full[l % m] += a * b
            acc[j] = self._make(self._reduce_cyclic(full), ad * sa)

    def conjugate_sums(self, table, vec, count, offset):
        # each output's cyclic convolutions accumulate in one length-m
        # integer vector over a common denominator; the product by the
        # inverse conjugate then reduces its content once, in _make, and a
        # unit scale (the dual table's) is no product at all
        conj, conj_inv = table
        n, m, one = len(conj_inv), self.root_order, self.one_raw
        terms = [(i, [(j, a) for j, a in enumerate(v[0]) if a], v[1])
                 for i, v in enumerate(vec) if any(v[0])]
        out = []
        for k in range(offset, offset + count):
            k %= n
            full, den = [0] * m, 1
            for i, coords, vd in terms:
                cn, cd = conj[k + i]
                d = vd * cd
                g = math.gcd(den, d)
                if d != g:
                    scale = d // g
                    full = [x * scale for x in full]
                    den *= scale
                w = den // d
                for j, a in coords:
                    a *= w
                    for l, b in enumerate(cn, j):
                        if b:
                            full[l % m] += a * b
            s = conj_inv[k]
            out.append(self._make(self._reduce_cyclic(full), den) if s == one
                       else self.mul((self._reduce_cyclic(full), den), s))
        return out

    def inv(self, u):
        if self.is_zero(u):
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
        return join_terms([(str(Fraction(a, den)), i) for i, a in enumerate(num) if a],
                          self.symbol)

    def __repr__(self):
        return f"Q(chi), chi^{self.root_order}=1, sigma(chi)=chi^{self.exponent}"
