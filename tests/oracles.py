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
gcd.  ``gcrd_by_divmod`` is Euclid on full left divisions; ``gcrd`` is
the kernel's Euclid on polynomials.  ``over_product_denominator`` clears
F_q(z) fractions to the product of their distinct denominators, with no
gcd; ``RationalFunctions._over_one_denominator`` clears them to the lcm.

``inverse_by_conjugates`` is Q(chi)'s inverse as the norm is defined: u
times its m - 2 other Galois conjugates chi -> chi^e is the rational N(u),
one product per conjugate.  ``CyclotomicField.inv`` reaches the same
inverse by an addition chain of about 2 log2(m - 2) products.

``decode_by_stages`` is ``pgz.decode`` stage by stage on Elements: the
syndrome matrix as a ``Matrix``, rho off its ``rcef``, the error values
by ``solve_row_system`` on the conjugate matrix, and the corrected word by
Element subtraction, verified by ``left_divmod``.  ``pgz.decode`` reaches
the same report on raw values, with one elimination for rho and one for
the values.

``dual_conjugates`` reads the trace-dual conjugates off the inverse of the
conjugate matrix, ``generator_by_hankel`` solves the generator's lower
coefficients from its Hankel system, and ``is_normal_by_rank`` is the rank
of the conjugate matrix; ``codes.build_code`` reaches all three by the
root-by-root lclm of ``codes.root_lclm``.

``rabin_by_euclid`` is Rabin's irreducibility test as it is first stated,
with a gcd per prime l | d on coefficient lists over F_p;
``FiniteField._is_irreducible`` replaces the gcds by one power test.

``modulus_by_shape`` is the modulus reader that ``parsing.parse_int_poly``
replaced: the whole text tokenized, each token spelt as one character, and
each term of that shape string matched by a pattern.  The new reader reads
each term's sign, coefficient, symbol and exponent in one pass over the text.

``ParserByMethods`` is the recursive-descent parser that ``parsing._Parser``
replaced: the same grammar, bounds and errors, with each token read through
``peek``, ``advance`` and ``expect`` calls.  The new parser reads the token
list in place.

``codewords`` lists all q^k codewords of a finite-field code, and
``min_distance_oracle`` is their least nonzero weight, over one codeword
of each scalar class.  ``cli.parity_check_distance`` reaches the same
distance from the minors of the parity-check matrix.

``nearest_codeword_equivalence`` decodes every word of every radius-t
ball around every codeword and compares each report with the ball's
center.  ``cli.error_pattern_equivalence`` reaches the same verdict by
linearity, one decode per error pattern up to scale on the zero codeword,
so the walk does about q^k * (q - 1) times its work, and counts each of
its faulty patterns q^k * (q - 1) times.
"""

import functools
import itertools
import re
from fractions import Fraction

from skewrs import CodeError, Element, SkewPolynomial, left_divmod
from skewrs.codes import conjugate_matrix, dual_support, encode, evaluate, evaluations
from skewrs.fields import (poly_add, poly_divmod, poly_gcrd, poly_mul, poly_neg, poly_pow,
                           poly_scale, poly_trim, power, require_context)
from skewrs.linalg import Matrix, eliminate, solve_row_system
from skewrs.parsing import MAX_EXPONENT, MAX_NESTING, ParseError, _tokenize
from skewrs.pgz import (BRANCH_ALL_ZERO, BRANCH_DIRECT, BRANCH_ECHELON, DecodeReport,
                        LocateFailure, _as_vector, decode, locate_positions)
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


def coeff(f, i):
    """The coefficient of x^i in f; zero above its degree."""
    return Element(f.ctx, f.raw[i]) if 0 <= i < len(f.raw) else f.ctx.zero


def gcrd(f, g):
    """Greatest common right divisor, monic."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcrd(0, 0) is undefined")
    require_context(f.ctx, (g,))
    return SkewPolynomial(f.ctx, [Element(f.ctx, v) for v in poly_gcrd(f.ctx, f.raw, g.raw)])


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


def generator_by_hankel(ctx, conj, r, d):
    """The raw monic generator x^d + sum_(k<d) g_k x^k that vanishes at
    sigma^m(beta), m = r .. r+d-1: sum_k g_k * sigma^(m+k)(alpha) =
    -sigma^(m+d)(alpha) is one d x d Hankel system in the conjugates."""
    n = len(conj)
    low = solve_row_system(conjugate_matrix(ctx, conj, range(r, r + d), d),
                           [Element(ctx, ctx.neg(conj[(m + d) % n])) for m in range(r, r + d)])
    return tuple(v.raw for v in low) + (ctx.one_raw,)


def is_normal_by_rank(ctx, alpha):
    """True when the conjugate matrix C(alpha) has full rank n."""
    n = ctx.order
    conj = [ctx.sigma_raw(alpha.raw, k) for k in range(n)]
    return conjugate_matrix(ctx, conj, range(n), n).rank() == n


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
    rows = a.transpose().raw
    pivots = eliminate(ctx, rows)
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
        return evaluations(code, ctx.conjugate_sums(code.conj_table, raw, n, code.r), code.r)

    zeros = [j for j, v in enumerate(evaluate_row(rho.raw)) if v == ctx.zero_raw]
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


def over_product_denominator(ctx, fracs):
    """Raw F_q(z) fractions as (numerators, D) over the product D of their
    distinct denominators: each numerator times D/d, d its denominator, by
    one exact division per denominator.  It takes the place of
    ``RationalFunctions._over_one_denominator``, which clears to the lcm."""
    base = ctx.base
    mul = functools.partial(poly_mul, base)
    cofactors = dict.fromkeys(d for _, d in fracs)
    den = functools.reduce(mul, cofactors, (1,))
    for d in cofactors:
        cofactors[d] = poly_divmod(base, den, d)[0]
    return [mul(num, cofactors[d]) for num, d in fracs], den


def inverse_by_conjugates(ctx, u):
    """The raw inverse of a raw Q(chi) value u: the product of chi -> chi^e
    of u for 2 <= e < m, over N(u), that product times u."""
    if u == ctx.zero_raw:
        raise ZeroDivisionError("inverse of zero")
    if u == ctx.one_raw:
        return u
    rest = ctx._conjugate(u, 2)
    for e in range(3, ctx.root_order):
        rest = ctx.mul(rest, ctx._conjugate(u, e))
    (c, *_), d = ctx.mul(u, rest)
    coords, den = rest
    return ctx._make(tuple(a * d for a in coords), den * c)


def gcrd_by_divmod(ctx, f, g):
    """The monic gcrd of two raw polynomials by Euclid, each step a full
    left division that builds its quotient and remainder."""
    while g:
        f, g = g, poly_divmod(ctx, f, g)[1]
    return poly_scale(ctx, f, ctx.inv(f[-1])) if f else f


def decode_by_stages(code, y):
    """The ``DecodeReport`` of ``pgz.decode`` for y, computed stage by
    stage on Elements, matrices and polynomials."""
    try:
        vec = _as_vector(code, y)
    except (TypeError, ValueError) as exc:
        return DecodeReport(syndromes=[], branch=None,
                            failure=f"invalid received word: {exc}")
    ctx, n, t, r, conj = code.ctx, code.n, code.t, code.r, code.conj
    s = evaluate(code, vec, 2 * t, r)

    def fail(reason, branch, **kw):
        return DecodeReport(syndromes=s, branch=branch, failure=reason, **kw)

    mu, rho, positions, values, branch = 0, None, [], [], BRANCH_ALL_ZERO
    if any(s):
        st = Matrix(ctx, [[ctx.sigma(s[i + j], -j) * Element(ctx, conj[(r + i) % n])
                           for j in range(t)] for i in range(t + 1)])
        rows = st.rcef().rows
        mu = sum(1 for j in range(t) if any(row[j] for row in rows))
        if mu == 0:
            return fail("locator extraction failed: zero syndrome matrix has no locator", None)
        if any(rows[i][j] != (ctx.one if i == j else ctx.zero)
               for i in range(mu) for j in range(mu)):
            return fail("locator extraction failed: echelon form lacks the identity block",
                        None)
        rho = SkewPolynomial(ctx, [-rows[mu][i] for i in range(mu)] + [ctx.one])
        try:
            positions, branch = locate_positions(code, mu, rho)
        except LocateFailure as exc:
            return fail(f"position search failed: {exc}", BRANCH_ECHELON, mu=mu, rho=rho)
        nu = len(positions)
        if nu > t:
            return fail(f"{nu} candidate error positions exceed capability t={t}",
                        branch, mu=mu, rho=rho, positions=positions)
        rhs = [Element(ctx, conj[(r + i) % n]) * s[i] for i in range(nu)]
        try:
            values = solve_row_system(
                conjugate_matrix(ctx, conj, [r + k for k in positions], nu), rhs)
        except ValueError as exc:
            return fail(f"value solve failed: {exc}", branch, mu=mu, rho=rho,
                        positions=positions)
    err = [ctx.zero] * n
    corrected = list(vec)
    for k, v in zip(positions, values):
        err[k] = v
        corrected[k] = vec[k] - v
    q, rem = left_divmod(SkewPolynomial(ctx, corrected), code.g)
    if not rem.is_zero:
        return fail("generator does not divide the corrected word", branch,
                    mu=mu, rho=rho, positions=positions, values=values)
    return DecodeReport(syndromes=s, mu=mu, rho=rho, branch=branch,
                        positions=positions, values=values, error=err,
                        codeword=corrected, message=q)


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


def rabin_by_euclid(p, modulus):
    """Rabin: monic f of degree d over F_p, a low-first list, is irreducible
    exactly when x^(p^d) = x mod f and gcd(x^(p^(d/l)) - x, f) = 1 for each
    prime l | d."""
    d = len(modulus) - 1

    def mulmod(u, v):
        acc = [0] * (2 * d)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                acc[i + j] = (acc[i + j] + x * y) % p
        for k in range(2 * d - 1, d - 1, -1):
            c = acc[k]
            for j in range(d + 1):
                acc[k - d + j] = (acc[k - d + j] - c * modulus[j]) % p
        return acc[:d]

    x = [0, 1] + [0] * (d - 2) if d > 1 else [-modulus[0] % p]
    frobenius = [x]                 # x^(p^k) mod f for k = 0 ... d
    for _ in range(d):
        frobenius.append(power(mulmod, [1] + [0] * (d - 1), frobenius[-1], p))
    if frobenius[d] != x:
        return False
    for ell in (l for l in range(2, d + 1) if d % l == 0 and all(l % k for k in range(2, l))):
        h = [(c - y) % p for c, y in zip(frobenius[d // ell], x)]
        if not _coprime(list(modulus), h, p):
            return False
    return True


# modulus tokens spelt one character each: 0 an int, a the symbol, ? another name, $ the end
_SPELLING = {"int": "0", "name": "?", "end": "$"}
_MODULUS_TERM = re.compile(r"(0\*?)?a(\^0)?|0")


def modulus_by_shape(text, symbol):
    """The low-first integer coefficients of a modulus in ``symbol``."""
    tokens = _tokenize(text)
    if tokens[0][0] not in ("+", "-"):
        tokens.insert(0, ("+", "+", 0))
    shape = "".join("a" if value == symbol else _SPELLING.get(kind, kind)
                    for kind, value, _ in tokens)
    ends = [j for j, ch in enumerate(shape) if ch in "+-$"]
    coeffs = {}
    for s, e in zip(ends, ends[1:]):
        if not _MODULUS_TERM.fullmatch(shape, s + 1, e):
            raise ParseError(f"expected a term c*{symbol}^k", tokens[s + 1][2])
        c = tokens[s + 1][1] if shape[s + 1] == "0" else 1
        k = tokens[e - 1][1] if shape[e - 2:e] == "^0" else int(shape[e - 1] == "a")
        if k > MAX_EXPONENT:   # before the dense list below is built
            raise ParseError(f"exponent {k} exceeds {MAX_EXPONENT}", tokens[e - 1][2])
        coeffs[k] = coeffs.get(k, 0) + (-c if shape[s] == "-" else c)
    return [coeffs.get(j, 0) for j in range(max(coeffs) + 1)]


class ParserByMethods:

    def __init__(self, ctx, text, symbols):
        self.ctx = ctx
        self.symbols = symbols
        # split unknown names into known one-character symbols so that in
        # "az^5" the exponent binds to z alone, as adjacency notation reads
        self.tokens = []
        for kind, tok, pos in _tokenize(text):
            if kind == "name" and tok not in symbols and \
                    all(ch in symbols for ch in tok):
                self.tokens.extend(("name", ch, pos + i)
                                   for i, ch in enumerate(tok))
            else:
                self.tokens.append((kind, tok, pos))
        self.pos = 0
        # the largest exponent, multiplied through nested powers, so far
        self.exponent = 1
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # -- grammar ------------------------------------------------------------

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = poly_add(self.ctx, value, rhs if op == "+" else poly_neg(self.ctx, rhs))
        return value

    def term(self):
        value = self.unary()
        while True:
            kind = self.peek()[0]
            if kind in ("*", "/"):
                tok = self.advance()
                rhs = self.unary()
                value = poly_mul(self.ctx, value, rhs) if tok[0] == "*" else \
                    self._divide(value, rhs, tok[2])
            elif kind in ("name", "int", "("):
                value = poly_mul(self.ctx, value, self.unary())
            else:
                return value

    def nested(self, parse, pos):
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def unary(self):
        if self.peek()[0] == "-":
            tok = self.advance()
            return poly_neg(self.ctx, self.nested(self.unary, tok[2]))
        return self.power()

    def power(self):
        outer, self.exponent = self.exponent, 1
        value = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            k = tok[1]
            self.exponent *= k
            ctx, degree = self.ctx, len(value) - 1
            if degree > 0 and degree * k > ctx.order:
                raise ParseError(f"power of degree {degree * k} exceeds n = {ctx.order}", tok[2])
            if ctx.size is None and self.exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {self.exponent} exceeds {MAX_EXPONENT}"
                                 " over an infinite field", tok[2])
            value = poly_pow(ctx, value, k)
        self.exponent = max(outer, self.exponent)
        return value

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "(":
            inner = self.nested(self.expr, pos)
            closing = self.advance()
            if closing[0] != ")":
                raise ParseError("missing closing parenthesis", closing[2])
            return inner
        if kind == "int":
            return poly_trim(self.ctx, (self.ctx.from_int(value).raw,))
        if kind == "name":
            if value in self.symbols:
                return self.symbols[value]
            raise ParseError(f"unknown symbol {value!r}", pos)
        raise ParseError(f"unexpected {value!r}", pos)

    def _divide(self, lhs, rhs, pos):
        if not rhs:
            raise ParseError("division by zero", pos)
        if len(rhs) > 1:
            raise ParseError("division by a non-constant polynomial", pos)
        return poly_scale(self.ctx, lhs, self.ctx.inv(rhs[0]))


def parse_by_methods(ctx, text, symbols):
    """The raw value of text, read by ``ParserByMethods`` over ``symbols``."""
    return ParserByMethods(ctx, text, symbols).parse()


def codewords(code):
    """All codewords of a finite-field code, as coefficient vectors."""
    ctx = code.ctx
    if ctx.size is None:
        raise CodeError("codeword enumeration needs a finite field")
    k = code.dimension
    for msg in itertools.product(list(ctx.elements()), repeat=k):
        f = SkewPolynomial(ctx, msg)
        yield encode(code, f).vector(code.n)


def min_distance_oracle(code, budget=1 << 20):
    """Exhaustive minimum Hamming weight over the nonzero codewords m * g.
    Scaling keeps the weight and lambda * (m * g) = (lambda * m) * g, so
    one codeword per scalar class is enough: m runs over the monic
    messages, (q^k - 1) / (q - 1) of them."""
    ctx = code.ctx
    if ctx.size is None:
        raise CodeError("distance enumeration needs a finite field")
    k = code.dimension
    count = (ctx.size ** k - 1) // (ctx.size - 1)
    if count > budget:
        raise CodeError(f"enumeration of {count} codewords exceeds budget {budget}")
    elements = list(ctx.elements())
    best = None
    for degree in range(k):
        for low in itertools.product(elements, repeat=degree):
            vec = encode(code, SkewPolynomial(ctx, low + (ctx.one,))).vector(code.n)
            w = sum(1 for v in vec if v)
            if best is None or w < best:
                best = w
    return best


def nearest_codeword_equivalence(code):
    """Decode every word within the packing radius t of a codeword and
    compare against the ball center; the balls are disjoint, so the center
    is the unique nearest codeword.  Returns the disagreement count."""
    ctx = code.ctx
    ball = {}
    nonzero = [e for e in ctx.elements() if e]
    for cw in codewords(code):
        key = tuple(v.raw for v in cw)
        if key in ball:
            raise CodeError("codeword enumeration repeated a word")
        ball[key] = cw
        for w in range(1, code.t + 1):
            for positions in itertools.combinations(range(code.n), w):
                for values in itertools.product(nonzero, repeat=w):
                    noisy = list(cw)
                    for pos, e in zip(positions, values):
                        noisy[pos] = noisy[pos] + e
                    nkey = tuple(v.raw for v in noisy)
                    if nkey in ball:
                        raise CodeError("balls are not disjoint")
                    ball[nkey] = cw
    mismatches = 0
    for key, center in ball.items():
        word = [ctx.element(v) for v in key]
        report = decode(code, word)
        if not report.ok or report.codeword != center:
            mismatches += 1
    return mismatches
