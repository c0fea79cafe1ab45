"""Exact field arithmetic for the three supported coefficient fields.

Each backend bundles a field L with a finite-order automorphism sigma:

* ``FiniteField``       -- GF(p^d) with sigma a power of Frobenius.
* ``RationalFunctions`` -- F_q(z) with sigma a Moebius substitution on z
                           that fixes F_q pointwise.
* ``CyclotomicField``   -- Q(chi) for chi a primitive m-th root of unity
                           (m prime) with sigma(chi) = chi^k.

All arithmetic is exact.  Every backend is a context that computes on raw
values through one protocol of twelve names, the same everywhere:

    add(u, v)  neg(u)  mul(u, v)  inv(u)  pow(u, k)  sigma_raw(u, k)
    add_product(a, c, b)  add_scaled(acc, c, src, shift)
    kernel_rows(low, count)  conjugate_table(values)
    conjugate_sums(table, vec, count, offset)
    conjugate_zeros(table, vec, count, offset)

with the constants ``zero_raw``, ``one_raw`` and ``generator_raw``, and
``symbols``, the map from each name the parser knows to its raw value;
none may be x, the parser's polynomial variable.

Raw values are canonical, so two values are equal exactly when they denote
the same element, and u is zero exactly when ``u == ctx.zero_raw``:

* GF(p^d)  -- an int packing the coefficient digits in base p;
* F_q(z)   -- ``(num, den)``, coprime low-first tuples of GF(q) ints with
              ``den`` monic;
* Q(chi)   -- ``(coords, den)``, integer coordinates over the power basis
              1, chi, ..., chi^(m-2) and a positive denominator with no
              common factor.

Where each family of kernels states its contract:

* the protocol -- ``FieldContext``'s generic methods, and each backend's
  class docstring for its own routes;
* F_q[z]'s ``poly_product``, ``poly_gcd``, ``poly_quotient`` and
  ``poly_sums``, all of F_q(z)'s polynomial work -- ``FiniteField``, the
  one kind of base that F_q(z) takes;
* the sigma-twisted ``poly_*`` functions on low-first raw tuples, L[x;sigma]
  under x*c = sigma(c)*x -- each function;
* elements, polynomials and matrices over a context -- ``Value``.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

_TABLE_LIMIT = 1 << 16
# GF(p^d) needs p < 2^31 and p^d <= 2^64 (see FiniteField)
_CHAR_BOUND = 1 << 31
_SIZE_LIMIT = 1 << 64
# Q(chi_m) with sigma of order n needs m^3 + m^2 * n^3 <= this (see CyclotomicField).
# It is loose: it was set for an n^3 linear solve that builds no longer make and for
# m - 2 products per inverse, where the norm chain takes about 2 log2(m); raising it
# is a separate decision, on a measured build cost
_CYCLOTOMIC_BUDGET = 10 ** 7
# below this many products a tabled GF(2^d)'s schoolbook sums cost less than packing
# (measured crossover: near 1,000 at one output, 100 at four; see poly_sums)
_PACKED_SUMS_MIN = 400

# exp/log tables, the modulus root's primitivity and a^d's residue (digits and
# packed) by (p, d, modulus), least recently used first (see FiniteField).  No
# field writes to them, and two builds racing on a miss at worst walk twice.
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
    """A canonical raw value and its context, the base of ``Element``,
    ``SkewPolynomial`` and ``Matrix``: two of one type are equal exactly
    when their raw values are and their contexts denote one field, and a
    second operand passes one check that it shares the context, else
    FieldError."""

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
    """A field element, ``Element(ctx, raw)`` for a canonical raw value: the
    one element class, whose operators delegate to the context."""

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
    """What the backends share on top of the raw protocol, and the
    protocol's generic methods, which a backend overrides where it has a
    route of its own.

    A backend supplies ``key``, ``order``, ``zero_raw``, ``one_raw``,
    ``generator_raw``, ``symbols``, the raw operations add, neg, mul, inv
    and sigma_raw (plus pow where it has a faster route), and
    ``from_int``, ``random_element`` and ``format``.  Contexts are safe to
    share: what one builds after construction, F_q(z)'s substitution
    tables, only caches values, and two threads racing on a miss at worst
    build a table twice and keep one past the cap.
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
        """acc[shift + j] += c * src[j] in place, skipping zero src[j] and
        at once done on a zero c: the one inner loop of polynomial products,
        divisions and elimination."""
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
        over (so no index wraps).  The values are nonzero, as a normal
        element's conjugates and a code's dual table values are."""
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

    def random_nonzero(self, rng):
        while True:
            x = self.random_element(rng)
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

    A field of size up to 2^16 multiplies, inverts and applies Frobenius
    by lookups in exp/log tables with respect to a primitive element.  It
    takes them from those of the few most recently used moduli, shared
    process-wide whatever sigma is, with the residue of a^d that reduces
    products, and walks them only on a miss; the shared tables outlive the
    field.  Tables are stored only for a modulus that passed Rabin's
    irreducibility test, so a hit also certifies the modulus and the test
    runs only on a miss.  Its sigma multipliers are its own.  Both
    certificates on a miss are power tests (``_is_irreducible`` and
    ``_is_primitive``).
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
            modulus = parsing.parse_int_poly(modulus, generator)
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
        # shared tables carry a^d's residue -(f - a^d), which reduces products
        key = (p, degree, self.modulus)
        tables = _shared_tables.get(key)
        if tables:
            self._adeg_digits, self._adeg = tables[3:]
        else:
            self._adeg_digits = [(-c) % p for c in modulus[:degree]]
            self._adeg = self._pack(self._adeg_digits)
            if not self._is_irreducible():
                raise FieldError("modulus is not irreducible")
        self.generator_raw = p if degree > 1 else -modulus[0] % p
        self._exp = None
        self._log = None
        self._sigma_mult = None
        self.generator_primitive = False
        if self.size <= _TABLE_LIMIT:
            tables = _shared_tables.pop(key, None) or \
                self._walk_tables() + (self._adeg_digits, self._adeg)
            _shared_tables[key] = tables
            if len(_shared_tables) > _SHARED_TABLE_COUNT:   # only after a miss
                del _shared_tables[next(iter(_shared_tables))]
            self._exp, self._log, self.generator_primitive = tables[:3]
            # sigma^k multiplies discrete logs by p^(e*k) = (p^e)^k, mod q - 1
            # as p^d = q is 1 there
            step, m = p ** self.frobenius_power % (self.size - 1), 1 % (self.size - 1)
            self._sigma_mult = []
            for _ in range(self.order):
                self._sigma_mult.append(m)
                m = m * step % (self.size - 1)
        # tabled and of characteristic 2: the kernels below run in the log domain
        self._log_domain = self._exp is not None and p == 2
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
        # Rabin: a^(p^d) = a mod f, and h = prod over primes l | d of
        # a^(p^(d/l)) - a is a unit.  Once a^(p^d) = a, F_p[a]/(f) is a
        # product of fields of degrees dividing d, where h is a unit exactly
        # when h^(q-1) = 1, and a product is a unit exactly when each
        # factor is, that is, coprime to f
        p, d = self.char, self.degree
        if d == 1:
            return True
        # the symbol a packs to p
        if power(self._raw_mul, 1, p, p ** d) != p:
            return False
        h = 1
        for ell in _factorize(d):
            frobenius = power(self._raw_mul, 1, p, p ** (d // ell))
            h = self._raw_mul(h, self.add(frobenius, self.neg(p)))
        return power(self._raw_mul, 1, h, self.size - 1) == 1

    def _is_primitive(self, u):
        # nonzero u generates GF(q)^* exactly when u^((q-1)/l) != 1 for
        # each prime l | q - 1
        n = self.size - 1
        return all(power(self._raw_mul, 1, u, n // ell) != 1 for ell in _factorize(n))

    def _walk_tables(self):
        # (exp, log, generator_primitive), shared by every field on the
        # modulus: the powers of the root if it is primitive, else of the
        # least primitive packed value, which goes first into each product,
        # as the product loops over its first operand's digits
        q = self.size
        primitive = self._is_primitive(self.generator_raw)
        prim = self.generator_raw if primitive else next(
            c for c in range(2, q) if self._is_primitive(c))
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._raw_mul(prim, acc)
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
        if not self._log_domain or c == 0:
            return super().add_scaled(acc, c, src, shift)
        # every term is exp[log c + log b], with log c looked up once, and
        # addition in characteristic 2 is XOR
        exp, log = self._exp, self._log
        lc = log[c]
        for j, b in enumerate(src, shift):
            if b:
                acc[j] ^= exp[lc + log[b]]

    # F_q[z]'s kernels, all of an F_q(z)'s polynomial work over this field:
    # on trimmed raw tuples, with sigma = id, as F_q(z) demands of its base

    def poly_sums(self, terms, polys, starts):
        """For each s in starts, sum_(i, u) u * polys[s + i] over the pairs
        of terms, as trimmed raw tuples: F_q(z)'s conjugate sums.
        Characteristic 2 packs the call (``_packed_sums``), but a tabled
        field sums a call of fewer than ``_PACKED_SUMS_MIN`` coefficient
        products (outputs * terms * the longest term * the longest
        polynomial) by ``_schoolbook_sums``, as odd p sums every call."""
        if self.char != 2 or not terms or self._log_domain and (
                len(starts) * len(terms) * max([len(u) for _, u in terms])
                * max(map(len, polys)) < _PACKED_SUMS_MIN):
            return self._schoolbook_sums(terms, polys, starts)
        return self._packed_sums(terms, polys, starts)

    def _schoolbook_sums(self, terms, polys, starts):
        # one add_scaled per nonzero coefficient of the shorter factor
        add_scaled = self.add_scaled
        width = max((len(u) for _, u in terms), default=0) + max(map(len, polys)) - 1
        out = []
        for s in starts:
            acc = [0] * width
            for i, u in terms:
                c = polys[s + i]
                if len(c) < len(u):
                    c, u = u, c
                for j, a in enumerate(u):
                    if a:
                        add_scaled(acc, a, c, j)
            out.append(poly_trim(self, acc))
        return out

    def _packed_sums(self, terms, polys, starts):
        # Kronecker substitution (von zur Gathen & Gerhard, Modern Computer
        # Algebra, 8.4): over F_2, bit e of the z^j coefficient goes to slot
        # j*w + e, b bits wide, with w = 2d - 1 slots per coefficient for
        # the a-degree 2d - 2 of a product.  An integer product counts in
        # each slot the bit products that land there, at most
        # min(ulen, plen) * d per term: b bits hold the sum's counts with no
        # carry, and each count's low bit is its F_2 coefficient
        d, w = self.degree, 2 * self.degree - 1
        ulen = max([len(u) for _, u in terms])
        plen = max(map(len, polys))
        b = (len(terms) * min(ulen, plen) * d).bit_length() or 1
        gap = "0" * (b - 1)

        def pack(poly):
            # w bits to a coefficient, then bit k moved up to bit k * b
            v = 0
            for c in reversed(poly):
                v = v << w | c
            return int(gap.join(bin(v)[2:]), 2)

        packed = {}
        terms = [(i, pack(u)) for i, u in terms]
        modulus, mask = self._adeg | 1 << d, (1 << w) - 1
        lows = ((1 << w * (ulen + plen)) - 1) // mask     # bit 0 of each coefficient
        out = []
        for s in starts:
            acc = 0
            for i, u in terms:
                poly = polys[s + i]
                p = packed.get(poly)
                if p is None:
                    p = packed[poly] = pack(poly)
                acc += u * p
            digits = format(acc, "b")
            # every b-th digit up from the lowest is a slot's parity: c
            # holds w bits to a coefficient again
            c = int(digits[(len(digits) - 1) % b::b], 2)
            # a^e = a^(e-d) * modulus + lower terms, top down: modulus times
            # bit e of each coefficient, shifted up by e - d, clears it
            for e in range(2 * d - 2, d - 1, -1):
                high = (c >> e) & lows
                if high:
                    c ^= (high * modulus) << (e - d)
            # zero only now: an unfolded nonzero can be a multiple of the modulus
            out.append(tuple([(c >> x) & mask for x in range(0, c.bit_length(), w)]))
        return out

    # A tabled field of characteristic 2 runs the product, gcd and quotient
    # in the log domain (von zur Gathen & Gerhard, Modern Computer Algebra,
    # ch. 3): the fixed operand's logs are looked up once per call (a gcd's
    # divisor once per Euclid step), each term is one XOR of exp[la + lb] in
    # place, and the inverse of a leading coefficient has the log
    # q - 1 - log lead.  A quotient digit's log is brought below q - 1
    # before it is added to another, so every exp index stays below 2(q - 1)

    def poly_product(self, f, g):
        """f * g: with ``poly_gcd`` and ``poly_quotient``, all of F_q(z)'s
        F_q[z] work but sums.  ``poly_mul`` off the log domain."""
        if not self._log_domain or not f or not g:
            return poly_mul(self, f, g)
        exp, log = self._exp, self._log
        if len(f) < len(g):
            f, g = g, f
        terms = [(j, log[b]) for j, b in enumerate(g) if b]
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                la = log[a]
                for j, lb in terms:
                    out[i + j] ^= exp[la + lb]
        # the leading term is the product of the two nonzero leading ones
        return tuple(out)

    def _log_reduce(self, rem, g, quot=None):
        # _left_reduce with sigma = id: rem[:deg g] is the remainder
        # afterwards, and quot, when given, takes the quotient's digits
        exp, log, top = self._exp, self._log, self.size - 1
        dg = len(g) - 1
        inv_lead = top - log[g[-1]]
        low = [(j, log[b]) for j, b in enumerate(g[:dg]) if b]
        for k in range(len(rem) - 1 - dg, -1, -1):
            c = rem[k + dg]
            if c:
                lq = log[c] + inv_lead
                if lq >= top:
                    lq -= top
                if quot is not None:
                    quot[k] = exp[lq]
                for j, lb in low:
                    rem[k + j] ^= exp[lq + lb]

    def poly_gcd(self, f, g):
        """The monic gcd of f and g, () when f = g = ().  ``poly_gcrd`` off
        the log domain."""
        if not self._log_domain:
            return poly_gcrd(self, f, g)
        # poly_gcrd's Euclid
        f, g = list(f), list(g)
        while g:
            self._log_reduce(f, g)
            del f[len(g) - 1:]
            while f and not f[-1]:
                f.pop()
            f, g = g, f
        if not f:
            return ()
        exp, log = self._exp, self._log
        inv_lead = self.size - 1 - log[f[-1]]
        return tuple([exp[log[c] + inv_lead] if c else 0 for c in f])

    def poly_quotient(self, f, g):
        """The quotient of f by g, exact where g divides f.  ``poly_divmod``'s
        off the log domain."""
        if not self._log_domain or not g:
            return poly_divmod(self, f, g)[0]
        # the quotient's m + 1 digits depend only on the top m + 1
        # coefficients of g and the top 2m + 1 of f, so the rest is cut off
        m = len(f) - len(g)
        if m < 0:
            return ()
        cut = len(g) - 1 - m
        if cut > 0:
            f, g = f[cut:], g[cut:]
        quot = [0] * (m + 1)
        self._log_reduce(list(f), g, quot)
        # the leading digit is f's leading coefficient over g's
        return tuple(quot)

    def conjugate_table(self, values):
        if not self._log_domain:
            return super().conjugate_table(values)
        # the values' logs; zero has none (log[0] is 0, the log of one)
        if 0 in values:
            raise FieldError("a conjugate table takes nonzero values: zero has no discrete log")
        log = self._log
        return [log[c] for c in values] * 2

    def conjugate_sums(self, table, vec, count, offset):
        if not self._log_domain:
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
        """A power of the modulus root when d > 1 and that root is primitive
        (as in every bundled example), else the polynomial form, and an
        integer over GF(p), whatever its symbol's order: the parser reads
        either back to the same value."""
        v = x.raw
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
# the most coefficients one F_q(z)'s kept substitution tables hold in all
_SUBSTITUTION_LIMIT = 1 << 16


class RationalFunctions(FieldContext):
    """F_q(z) with sigma(z) = (az+b)/(cz+d) fixing F_q pointwise.

    The base F_q is a ``FiniteField`` with sigma = id (built with
    ``frobenius_power=0``), and every F_q[z] product, gcd, exact quotient
    and conjugate sum is one of its four F_q[z] kernels.  The Moebius
    coefficients are constants of the base: text, read by
    ``parsing.parse_element``, elements of the base or its raw values.
    Sigma's order is derived by iterating the 2x2 matrix until it becomes
    a scalar, and refused past 17: a code build takes O(n^2) operations for
    sigma of order n, on fractions whose degrees grow with n (README gives
    measured build times).

    Fractions are kept reduced with a monic denominator after every
    operation so intermediate expressions stay small, and each result pays
    at most one gcd: a sum and a + c * b (``add_product``, by ``_sum`` as
    ``add`` is, and ``mul`` as the step onto zero) reduce once, in
    ``_make``, and not at all over a denominator of one; an inverse and
    sigma need none, as they map coprime pairs to coprime pairs and only
    make the denominator monic, in ``_monic``, as ``_make`` does last.  One
    substitution kernel, ``_substitute`` over the tables of ``_images``,
    serves sigma and ``kernel_rows``.
    """

    def __init__(self, base: FiniteField, mobius, variable="z"):
        if not isinstance(base, FiniteField):
            raise FieldError(f"the base of F_q(z) must be a FiniteField, not {base!r}")
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
        # _images' tables by (k mod n, m), and how many coefficients they hold
        self._tables = {}
        self._table_size = 0

    def _base_raw(self, c):
        base = self.base
        if isinstance(c, str):
            return parsing.parse_element(base, c).raw
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
        g = base.poly_gcd(num, den)
        if len(g) > 1:
            num = base.poly_quotient(num, g)
            den = base.poly_quotient(den, g)
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
        product = base.poly_product
        return self._make(poly_add(base, product(xn, yd), product(yn, xd)), product(xd, yd))

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
        pn = base.poly_product(cn, bn)
        pd = bd if cd == (1,) else base.poly_product(cd, bd)
        return self._sum(an, ad, pn, pd) if an else self._make(pn, pd)

    def inv(self, u):
        if not u[0]:
            raise ZeroDivisionError("inverse of zero")
        if u == _RF_ONE:
            return u
        # den/num is in lowest terms already: only make its denominator monic
        num, den = u
        return self._monic(den, num)

    def _images(self, k, m):
        """The images B_i = L^i * D^(m-i), i <= m, of z^i under p -> p(L/D)
        * D^m for sigma^k(z) = L/D = (az+b)/(cz+d): B_0 = D^m, then B_i =
        B_(i-1) * L / D, built on first use in O(m^2).  Kept per (k mod n,
        m) while the kept tables fit under _SUBSTITUTION_LIMIT, else built
        for this call only."""
        k %= self.order
        key = (k, m)
        images = self._tables.get(key)
        if images is not None:
            return images
        base = self.base
        product, quotient = base.poly_product, base.poly_quotient
        a, b, c, d = self._mob_pows[k]
        num, den = poly_trim(base, (b, a)), poly_trim(base, (d, c))
        image = (1,)
        for _ in range(m):
            image = product(den, image)
        images = [image]
        for _ in range(m):
            image = quotient(product(num, image), den)
            images.append(image)
        size = self._table_size + sum(map(len, images))
        if size <= _SUBSTITUTION_LIMIT:
            self._tables[key] = images
            self._table_size = size
        return images

    def _substitute(self, polys, k, m):
        """p(L/D) * D^m, sigma^k(p) times one factor, for each F_q[z]
        polynomial p of degree at most m: the sum of p_i * B_i over the
        images of ``_images``, one add_scaled per nonzero coefficient."""
        base = self.base
        add_scaled = base.add_scaled
        images = self._images(k, m)
        out = []
        for p in polys:
            acc = [0] * (m + 1)
            for c, image in zip(p, images):
                if c:
                    add_scaled(acc, c, image, 0)
            out.append(poly_trim(base, acc))
        return out

    def sigma_raw(self, u, k=1):
        """num(L/D) * D^m over den(L/D) * D^m, for m = max(deg num,
        deg den), with no gcd: as binary forms of degree m, num and den are
        coprime, and the invertible linear substitution (X, Y) -> (L, D)
        keeps them so."""
        num, den = u
        if k % self.order == 0 or not num:
            return u
        return self._monic(*self._substitute(u, k, max(len(num), len(den)) - 1))

    def _over_one_denominator(self, fracs):
        # the numerators over the lcm L of the nonzero fractions' distinct
        # denominators, and L: L grows by d / gcd(L, d), one gcd per
        # denominator after the first, and each numerator is multiplied by
        # L/d, one exact division per denominator; a denominator of one
        # takes neither, as it divides L with L itself for quotient
        base = self.base
        cofactors = dict.fromkeys(d for num, d in fracs if num)
        dens = (d for d in cofactors if d != (1,))
        den = next(dens, (1,))
        product, quotient = base.poly_product, base.poly_quotient
        for d in dens:
            g = base.poly_gcd(den, d)
            den = product(den, quotient(d, g) if len(g) > 1 else d)
        if len(cofactors) < 2:
            return [num for num, _ in fracs], den
        for d in cofactors:
            cofactors[d] = quotient(den, d) if d != (1,) else den
        return [product(num, cofactors[d]) if num else () for num, d in fracs], den

    def kernel_rows(self, low, count):
        # low is cleared once, to N_k / d; with one m for all, row i is
        # sigma^i(N_k / d) = P_i(N_k) / P_i(d), P_i the substitution of
        # sigma^i, the sums over the table of (i, m), over the scale d_i =
        # P_i(d), with no gcd.  w_j is kept
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
        # F_q[z] products over V * D, the base's poly_sums: returns V and,
        # per output, that numerator
        nums = table[0]
        n = len(nums) // 2
        terms = [i for i, v in enumerate(vec) if v[0]]
        cleared, vden = self._over_one_denominator([vec[i] for i in terms])
        starts = [k % n for k in range(offset, offset + count)]
        return vden, self.base.poly_sums(list(zip(terms, cleared)), nums, starts)

    def conjugate_sums(self, table, vec, count, offset):
        # each output pays for one gcd, in _make
        vden, sums = self._numerator_sums(table, vec, count, offset)
        den = self.base.poly_product(vden, table[1])
        return [self._make(num, den) for num in sums]

    def conjugate_zeros(self, table, vec, count, offset):
        # a sum is zero exactly when its numerator is: no gcd past clearing vec
        return [not num for num in self._numerator_sums(table, vec, count, offset)[1]]

    # -- context API ---------------------------------------------------------

    def from_int(self, k):
        return self.from_base(k % self.char)

    def from_base(self, c):
        v = self._base_raw(c)
        return Element(self, ((v,) if v else (), (1,)))

    def random_element(self, rng):
        """A fraction whose numerator and denominator have degree at most 1."""
        base = self.base
        num = [rng.randrange(base.size) for _ in range(2)]
        den = ()
        while not den:
            den = poly_trim(base, [rng.randrange(base.size) for _ in range(2)])
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

def _is_prime(n):
    """Miller-Rabin with bases 2, 7 and 61, exact below 4,759,123,141
    (Jaeschke, Math. Comp. 61(204), 1993)."""
    if n < 2 or n % 2 == 0 or n in (7, 61):
        return n in (2, 7, 61)
    d = n - 1
    while d % 2 == 0:
        d //= 2
    for a in (2, 7, 61):
        t, x = d, pow(a, d, n)
        while t != n - 1 and x not in (1, n - 1):
            t, x = t * 2, x * x % n
        if x != n - 1 and t % 2 == 0:
            return False
    return True


def _split_prime(m):
    """The largest prime q = 1 (mod m) below 2^30 and the powers zeta^i, i <
    m - 1, of zeta = h^((q-1)/m) != 1 for the least h >= 2: zeta has order
    m, as m is prime, so chi -> zeta is a ring map Z[chi] -> F_q (q splits
    completely in Q(chi_m))."""
    q = ((1 << 30) - 2) // m * m + 1
    # one gcd with 2 * 3 * 5 * ... * 31 drops most composites before Miller-Rabin
    while math.gcd(q, 200560490130) != 1 or not _is_prime(q):
        q -= m
    zeta = next(z for h in range(2, q) if (z := pow(h, (q - 1) // m, q)) != 1)
    powers = [1]
    while len(powers) < m - 1:
        powers.append(powers[-1] * zeta % q)
    return q, powers


class CyclotomicField(FieldContext):
    """Q(chi) with chi^m = 1 primitive, m prime, and sigma(chi) = chi^k.

    A sum (``add``, as a + b * 1), an a + c * b (``add_product``, and ``mul``
    as the step onto zero) and a conjugate sum gather their integer
    coordinates over one denominator with ``_accumulate`` and reduce the
    content once, in ``_make``.  A Galois image needs no reduction
    (``_conjugate``), nor does the inverse of one.

    A prime q = 1 (mod m) splits completely in Q(chi_m) (Washington,
    Introduction to Cyclotomic Fields, Thm 2.13), so chi -> zeta, zeta of
    order m in F_q, is a ring map.  The field takes the largest such q below
    2^30.  A zero test of conjugate sums is one-sided: an output whose image
    sum is nonzero is nonzero, and only the rest (all of them when q divides
    a denominator) are accumulated, with no reduction: such a sum is zero
    exactly when its vector's entries are equal.  No answer depends on q.

    A code build costs about 2 m^2 log2(m) integer products (the norm
    chain) plus m^2 * n^2 (the lclm of the beta-roots), n sigma's order,
    under the bound m^3 + m^2 * n^3 <= 10^7 (README gives build times at
    its edges).  Past it a field is refused, on m^3 before m is factorised,
    sigma's powers walked or the split prime sought.
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
        # tau: chi -> chi^g, g a primitive root mod m, generates the Galois
        # group (the inverse's chain); the split prime q and zeta give the
        # one-sided zero test of conjugate sums (see conjugate_zeros)
        primes = _factorize(m - 1)
        self._primitive = next(g for g in range(2, m)
                               if all(pow(g, (m - 1) // l, m) != 1 for l in primes))
        self._prime, self._zeta_powers = _split_prime(m)
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

    def conjugate_table(self, values):
        # the values twice over, as the generic table, beside their images
        # in F_q twice over (None when q divides a denominator)
        images = self._images(values)
        return list(values) * 2, images and images * 2

    def _images(self, values):
        # each value's image under the ring map chi -> zeta into F_q, or
        # None when q divides a denominator
        q, powers = self._prime, self._zeta_powers
        out = []
        for coords, den in values:
            if den % q == 0:
                return None
            x = sum(map(operator.mul, coords, powers))
            out.append((x if den == 1 else x * pow(den, -1, q)) % q)
        return out

    def _full_sum(self, values, terms, k):
        # sum_i vec_i * c_(k+i) over the (i, vec_i) of terms, as a length-m
        # integer vector over a common denominator
        accumulate = self._accumulate
        full, den = [0] * self.root_order, 1
        for i, v in terms:
            den = accumulate(full, den, v, values[k + i])
        return full, den

    def conjugate_sums(self, table, vec, count, offset):
        # each output is reduced once, in _make
        values = table[0]
        n = len(values) // 2
        terms = [(i, v) for i, v in enumerate(vec) if any(v[0])]
        out = []
        for k in range(offset, offset + count):
            full, den = self._full_sum(values, terms, k % n)
            out.append(self._make(self._reduce_cyclic(full), den))
        return out

    def conjugate_zeros(self, table, vec, count, offset):
        # one-sided (class docstring); the reduced coordinates are
        # full[i] - full[m-1], so a sum is zero when full's entries are equal
        values, images = table
        n, m, q = len(values) // 2, self.root_order, self._prime
        terms = [(i, v) for i, v in enumerate(vec) if any(v[0])]
        term_images = images and self._images([v for _, v in terms])
        out = []
        for k in range(offset, offset + count):
            k %= n
            if term_images and sum(x * images[k + i]
                                   for (i, _), x in zip(terms, term_images)) % q:
                out.append(False)
            else:
                full = self._full_sum(values, terms, k)[0]
                out.append(full.count(full[0]) == m)
        return out

    def inv(self, u):
        if u == self.zero_raw:
            raise ZeroDivisionError("inverse of zero")
        if u == self.one_raw:
            return u
        # Itoh & Tsujii (Inf. Comput. 78(3), 1988): tau: chi -> chi^g
        # generates the Galois group, and P_k = prod_(i<k) tau^i(u) follows
        # P_2k = P_k * tau^k(P_k), P_(k+1) = P_k * tau^k(u) to P_(m-2), so
        # rest = tau(P_(m-2)) = r / e is the product of u's other
        # conjugates.  Keeping u's denominator lets _make cancel content on
        # the way.  For u = a / d, N(u) = c / (d * e), c = sum_i a_i *
        # (r_(-i) - r_(1-i)) (indices mod m, r_(m-1) = 0) the constant
        # coordinate of a * r, and u^(-1) = r * d / c
        m, g = self.root_order, self._primitive
        mul, conjugate = self.mul, self._conjugate
        p, k = u, 1
        for bit in bin(m - 2)[3:]:
            p = mul(p, conjugate(p, pow(g, k, m)))
            k *= 2
            if bit == "1":
                p = mul(p, conjugate(u, pow(g, k, m)))
                k += 1
        rest = (*conjugate(p, g)[0], 0)
        norm = sum(x * (rest[-i] - rest[1 - i]) for i, x in enumerate(u[0]))
        return self._make(tuple(x * u[1] for x in rest[:-1]), norm)

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

    def random_element(self, rng):
        """Integer coordinates in [-4, 4] over a denominator in 1..4."""
        num = tuple(rng.randint(-4, 4) for _ in range(self.dim))
        return Element(self, self._make(num, rng.randint(1, 4)))

    def format(self, x):
        num, den = x.raw
        try:
            terms = [(str(Fraction(a, den)), i) for i, a in enumerate(num) if a]
        except ValueError:   # past the interpreter's int_max_str_digits
            raise FormatError("a coordinate is too long to print in decimal") from None
        return join_terms(terms, self.symbol)

    def __repr__(self):
        return f"Q(chi), chi^{self.root_order}=1, sigma(chi)=chi^{self.exponent}"


# parsing imports the names above, so it is bound here, once, not per call
from . import parsing  # noqa: E402
