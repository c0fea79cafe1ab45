"""Construction of skew Reed-Solomon codes.

A code is determined by a field context with automorphism sigma of order
n, a normal element alpha (its sigma-conjugates form a basis over the
invariant subfield), an offset r >= 0 and a designed distance delta.  With
beta = alpha^(-1) * sigma(alpha), the generator is the least common left
multiple of x - sigma^(r+i)(beta) for 0 <= i <= delta-2; the code is the
left ideal it generates modulo x^n - 1 and corrects t = (delta-1)//2
errors.

The twisted norms of the beta-roots telescope:
N_i(sigma^k(beta)) = sigma^k(alpha)^(-1) * sigma^(k+i)(alpha).  So every
right evaluation at a beta-root is one sum over the conjugates
sigma^k(alpha), times one inverse conjugate.  The code keeps the raw
conjugates and their inverses, k < n, and two tables that the field
context prepares once and sums over on raw values (``ctx.conjugate_table``
and ``ctx.conjugate_sums``; a tabled finite field sums in the log domain,
and F_q(z) over GF(2^d) by packed F_q[z] products):
of the conjugates, and of the trace-dual conjugates below.  The tables are
unscaled: a sum is u_k = sum_i vec_i * sigma^(k+i)(alpha), and the
evaluation at sigma^k(beta) is ``conj_inv[k] * u_k``, which ``evaluate``,
``evaluation_matrix`` and the decoder's reported syndromes take; the
decoder's own solves read u straight (see ``pgz``).  A code with r > 0
reads the same tables from index r, all indices taken mod n, so the
decoder never branches on r.

``root_lclm`` extends an lclm by beta-roots one root at a time, with no
linear solve (Lam & Leroy, J. Algebra 1988).  For the monic g so far and
a = sigma^m(beta), S = sum_k g_k * sigma^(m+k)(alpha), g's conjugate sum
at offset m, is sigma^m(alpha) times g's right value at a.  S = 0 means
that a is already a root of g; otherwise lclm(g, x - a) = (x - sigma(S)
* S^(-1)) * g.  A build walks each beta-root once: c is the lclm of the
generator's roots m = r .. r+delta-2 (mod n) other than m = 0, taken
from m = r; the generator is c, extended by root 0 when it is one of
them; and the lclm h of every root but m = 0 extends c over the other
nonzero roots from m = 1.  That is n - 1 steps when delta = n or 0 is not
a root of the generator, n steps otherwise, each O(n) operations.

The conjugate matrix C(alpha) holds sigma^(s+j)(alpha) at row s, column
j, and the trace-dual conjugates X_i = sigma^i(alpha*),
Tr(sigma^i(alpha) * sigma^j(alpha*)) = delta_ij (Lidl & Niederreiter,
Finite Fields, ch. 2), solve X * C(alpha) = e_0; row j of C(alpha)^(-1)
is X rotated by j.  The lclm h_j of every beta-root but m = j sums to
zero against every row m != j, so X_(j+k) = (h_j)_k / lambda_j, for
lambda_j, h_j's conjugate sum at offset j (``trace_dual``).  The build
reads X off h = h_0, or at delta = n off the generator, which is then
h_(r-1), with no second walk.  alpha is normal exactly when it is nonzero
and no step meets S = 0 and lambda_j != 0, for any j; the build refuses
alpha at the first step that fails, and ``is_normal`` walks h_0.
``conjugate_matrix`` is the one reader of C(alpha)'s entries but the
decoder, which takes rows r+k raw from ``conj`` (``pgz._error_values``):
``evaluation_matrix`` scales its column j by sigma^j(alpha)^(-1), and the
parity-check matrix (``cli``) is its rows r .. r+n-1 cut to delta - 1.

Encoding and the decoder's verify run on the generator rows sigma^i(g),
i < k = n - delta + 1, kept below g's monic top as raw tuples
(``SkewRSCode.rows``).  They depend only on the code, so they are filled
once, on first use, each row the twist of the one before, and not at
build time, which does not need them: ``encode`` sums m_i times row i
shifted up by i onto x^(deg g) * m, and ``left_divide``, the verify's
division, subtracts quotient digit q_k times row k, where g monic makes
q_k the word's current coefficient k + deg g.  Neither applies sigma, nor
inverts or multiplies by g's leading coefficient, as the generic kernels
``poly_mul`` and ``fields._left_reduce`` do for every digit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .fields import (CyclotomicField, Element, FiniteField, RationalFunctions,
                     poly_trim, poly_twist, require_context)
from .linalg import Matrix
from .parsing import ParseError, parse_element
# lclm_many is bound here because perfbench/tracing.py times it by this name
from .skewpoly import SkewPolynomial, lclm_many


class CodeError(ValueError):
    pass


NOT_NORMAL = "alpha is not a normal element"


def conjugate_matrix(ctx, conj, starts, size):
    """The matrix with one row per s in starts, holding conj[(s + j) % n]
    for j < size, over the n raw conjugates conj = sigma^k(alpha), k < n."""
    n = len(conj)
    return Matrix.from_raw(ctx, [[conj[(s + j) % n] for j in range(size)] for s in starts])


def root_lclm(ctx, table, roots, g=None):
    """The monic lclm of g (raw, lowest degree first; by default 1) and
    x - sigma^m(beta) for m in roots (mod n), added one root at a time in
    that order, over ``ctx.conjugate_table`` of the n raw conjugates
    sigma^k(alpha); a raw coefficient tuple.  The roots are distinct mod n
    and none is a root of g, so a step that meets S = 0 means that alpha
    is not normal, and raises CodeError."""
    zero = ctx.zero_raw
    g = [ctx.one_raw] if g is None else list(g)
    for m in roots:
        s, = ctx.conjugate_sums(table, g, 1, m)
        if s == zero:
            raise CodeError(NOT_NORMAL)
        b = ctx.neg(ctx.mul(ctx.sigma_raw(s, 1), ctx.inv(s)))
        # (x + b) * g: coefficient j is sigma(g_(j-1)) + b * g_j
        twisted = [zero] + poly_twist(ctx, g, 1)
        ctx.add_scaled(twisted, b, g, 0)
        g = twisted
    return tuple(g)


def trace_dual(ctx, table, h, j=0):
    """The raw trace-dual conjugates sigma^k(alpha*), k < n, from h, the
    lclm of every beta-root but sigma^j(beta), j < n: h / lambda_j is row
    j of C(alpha)^(-1), lambda_j = sum_i h_i * sigma^(j+i)(alpha) over the
    conjugate table, and that row is the dual conjugates rotated by j, so
    sigma^k(alpha*) = h_(k-j) / lambda_j.  lambda_j = 0 raises CodeError."""
    lam, = ctx.conjugate_sums(table, h, 1, j)
    if lam == ctx.zero_raw:
        raise CodeError(NOT_NORMAL)
    inv = ctx.inv(lam)
    return [ctx.mul(h[k - j], inv) for k in range(len(h))]


def is_normal(ctx, alpha):
    """True when the sigma-conjugates of alpha form a basis over the
    invariant subfield (its n beta-roots are independent)."""
    require_context(ctx, (alpha,))
    if not alpha:   # a tabled field's conjugate table refuses zero, which has no log
        return False
    table = ctx.conjugate_table([ctx.sigma_raw(alpha.raw, k) for k in range(ctx.order)])
    try:
        trace_dual(ctx, table, root_lclm(ctx, table, range(1, ctx.order)))
    except CodeError:
        return False
    return True


def find_normal_element(ctx):
    """A normal element: the backend generator when it qualifies, else a
    random search seeded with 0, so the same context finds the same one."""
    if is_normal(ctx, ctx.generator):
        return ctx.generator
    rng = random.Random(0)
    for _ in range(64):   # random candidates to try before giving up
        cand = ctx.random_nonzero(rng)
        if is_normal(ctx, cand):
            return cand
    raise CodeError("no normal element found; is sigma's order correct?")


@dataclass
class SkewRSCode:
    ctx: object
    alpha: object
    beta: object
    r: int
    delta: int
    g: SkewPolynomial
    t: int
    n: int
    # the raw conjugates sigma^k(alpha), k < n, and their inverses
    conj: list
    conj_inv: list
    # ctx.conjugate_table of the conjugates, and of the trace-dual
    # conjugates sigma^k(alpha*)
    conj_table: object
    dual_table: object
    # the generator rows, filled by ``generator_rows`` on first use, for
    # ``encode`` and the verify's ``left_divide``; not an init field, so a
    # ``dataclasses.replace`` of the code fills its own
    rows: list = field(default=None, init=False, compare=False, repr=False)

    @property
    def dimension(self):
        return self.n - self.delta + 1

    def __repr__(self):
        return (f"SkewRSCode(n={self.n}, delta={self.delta}, t={self.t}, "
                f"r={self.r}, dim={self.dimension})")


def evaluations(code, sums, offset):
    """The raw right evaluations at sigma^k(beta), k = offset + j, from the
    raw conjugate sums u_j = sum_i vec_i * sigma^(k+i)(alpha) of a word:
    sigma^k(alpha)^(-1) * u_j."""
    mul, conj_inv, n = code.ctx.mul, code.conj_inv, code.n
    return [mul(u, conj_inv[(offset + j) % n]) for j, u in enumerate(sums)]


def evaluate(code, vec, count, offset):
    """Right evaluations of the word vec (coefficients lowest degree
    first) at sigma^(offset+j)(beta) for 0 <= j < count; vec has at most n
    coefficients."""
    ctx = code.ctx
    if len(vec) > code.n:
        raise ValueError(f"a word has at most n = {code.n} coefficients, got {len(vec)}")
    require_context(ctx, vec)
    sums = ctx.conjugate_sums(code.conj_table, [v.raw for v in vec], count, offset)
    return [Element(ctx, v) for v in evaluations(code, sums, offset)]


def evaluation_matrix(code):
    """Row i holds the evaluations of x^i at sigma^j(beta), so entry
    (i, j) is N_i(sigma^j(beta)) = sigma^j(alpha)^(-1) * sigma^(i+j)(alpha)."""
    ctx, n = code.ctx, code.n
    rows = conjugate_matrix(ctx, code.conj, range(n), n).raw
    return Matrix.from_raw(ctx, [list(map(ctx.mul, code.conj_inv, row)) for row in rows])


def build_code(ctx, alpha, r, delta):
    """The code with generator the lclm of x - sigma^m(beta), m = r ..
    r+delta-2, and its trace-dual table, from one walk over the beta-roots
    (module docstring); CodeError when alpha is not normal."""
    n = ctx.order
    if not 2 <= delta <= n:
        raise CodeError(f"designed distance must be within [2, {n}], got {delta}")
    if r < 0:
        raise CodeError("root offset must be nonnegative")
    require_context(ctx, (alpha,))
    if not alpha:
        raise CodeError(NOT_NORMAL)
    sigma = ctx.sigma_raw
    conj = [sigma(alpha.raw, k) for k in range(n)]
    table = ctx.conjugate_table(conj)
    roots = [(r + i) % n for i in range(delta - 1)]
    c = root_lclm(ctx, table, [m for m in roots if m])
    g = root_lclm(ctx, table, (0,), c) if 0 in roots else c
    if delta == n:
        dual = trace_dual(ctx, table, g, (r - 1) % n)
    else:
        dual = trace_dual(ctx, table, root_lclm(
            ctx, table, [m for m in range(1, n) if m not in roots], c))
    inv = ctx.inv(alpha.raw)
    return SkewRSCode(
        ctx=ctx, alpha=alpha, beta=Element(ctx, ctx.mul(inv, conj[1])), r=r, delta=delta,
        g=SkewPolynomial.from_raw(ctx, g), t=(delta - 1) // 2, n=n, conj=conj,
        conj_inv=[sigma(inv, k) for k in range(n)], conj_table=table,
        dual_table=ctx.conjugate_table(dual))


def generator_rows(code):
    """The raw rows sigma^i(g_0 .. g_(deg g - 1)), i < k, each the twist of
    the one before (see ``SkewRSCode.rows``)."""
    rows = code.rows
    if rows is None:
        sigma = code.ctx.sigma_raw
        rows = [code.g.raw[:-1]]
        for _ in range(1, code.dimension):
            rows.append(tuple(map(sigma, rows[-1])))
        code.rows = rows
    return rows


def encode(code, message):
    """message * g; the message must have at most n - delta + 1 coefficients.
    x^i * g = sigma^i(g) * x^i and g is monic, so the product is x^deg g *
    message plus each m_i times row i, shifted up by i."""
    if message.degree > code.n - code.delta:
        raise CodeError(
            f"message degree {message.degree} exceeds {code.n - code.delta}")
    ctx = code.ctx
    if message.ctx is not ctx:
        require_context(ctx, (message,))
    out = [ctx.zero_raw] * (code.delta - 1) + list(message.raw)
    for i, (c, row) in enumerate(zip(message.raw, generator_rows(code))):
        ctx.add_scaled(out, c, row, i)
    # the message's top coefficient stays on top: only zero needs trimming
    return SkewPolynomial.from_raw(ctx, tuple(out) if message.raw else ())


def left_divide(code, word):
    """(q, rem), raw, of the left division word = q * g + rem of a raw word
    of at most n coefficients: as g is monic, step k, from the top down,
    takes quotient digit q_k = the word's current coefficient k + deg g and
    subtracts q_k times row k, shifted up by k."""
    ctx, dg = code.ctx, code.delta - 1
    zero, neg, add_scaled = ctx.zero_raw, ctx.neg, ctx.add_scaled
    rows = generator_rows(code)
    rem = list(word)
    q = [zero] * (len(rem) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + dg]
        if c != zero:
            q[k] = c
            add_scaled(rem, neg(c), rows[k], k)
    return poly_trim(ctx, q), poly_trim(ctx, rem[:dg])


def dual_support(code, f, offset):
    """Sorted j < n such that no unit vector e_j lies in the row space W of
    the twisted shift rows x^i * f, i < n - deg f, evaluated at
    sigma^(offset+j)(beta); f is monic.  These are the supports of
    N^(-1) * w over a basis w of ker T, T the shift matrix, whose entries
    are the dual sums of w up to nonzero factors.  T has a one at column
    i + mu of row i, mu = deg f, so forward substitution gives the basis:
    w_s = 1 for one s < mu and w_(i+mu) = -sum_(k<mu) sigma^i(f_k) * w_(i+k).

    Only the zero pattern of the dual sums counts, and a nonzero factor
    keeps it, so w may be kept scaled: ``ctx.kernel_rows`` gives the rows
    sigma^i(f_k) that the recurrence runs on and, when they are scaled, one
    end factor per entry that brings w to one common factor (F_q(z) clears
    f's low coefficients once and twists the cleared row, so that w stays
    in F_q[z]); elsewhere the rows are the twists as they are.
    """
    ctx, n = code.ctx, code.n
    zero, one, add_product = ctx.zero_raw, ctx.one_raw, ctx.add_product
    mu = len(f.raw) - 1
    rows, ends = ctx.kernel_rows(f.raw[:mu], n - mu)
    support = set()
    for s in range(mu):
        w = [zero] * n
        w[s] = one
        for i, row in enumerate(rows):
            acc = zero
            for c, v in zip(row, w[i:]):
                if v != zero:
                    acc = add_product(acc, c, v)
            w[i + mu] = ctx.neg(acc)
        if ends is not None:
            w = list(map(ctx.mul, ends, w))
        zeros = ctx.conjugate_zeros(code.dual_table, w, n, offset)
        support.update(j for j, z in enumerate(zeros) if not z)
        if len(support) == n:
            break
    return sorted(support)


# ---------------------------------------------------------------------------
# code-spec configuration files: "key = value" lines, '#' comments
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    pass


def _parse_kv(text):
    out, first = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, eq, value = raw.partition("#")[0].partition("=")
        key = key.strip()
        if not eq:
            if key:   # not a blank or comment-only line
                raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
            continue
        if key in first:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {first[key]}")
        first[key] = lineno
        out[key] = value.strip()
    return out


def _need(kv, key):
    if key not in kv:
        raise ConfigError(f"missing required key {key!r}")
    return kv[key]


def _need_int(kv, key, default=None):
    """key's value as an integer; a value that int() refuses is a
    ConfigError naming the key and the value, cut short past 40 characters."""
    value = _need(kv, key) if default is None else kv.get(key, default)
    try:
        return int(value)
    except ValueError:
        shown = value if len(value) <= 40 else value[:37] + "..."
        raise ConfigError(f"{key}: expected an integer, got {shown!r}") from None


def context_from_config(text):
    kv = _parse_kv(text)
    kind = _need(kv, "field.kind")
    if kind in ("finite-field", "rational-function"):
        # F_q(z) takes its constants from a base field with trivial sigma
        try:   # the modulus text is the one thing here that raises ParseError
            ctx = FiniteField(
                _need_int(kv, "field.p"), _need_int(kv, "field.degree"),
                _need(kv, "field.modulus"), generator=kv.get("field.generator", "a"),
                frobenius_power=0 if kind == "rational-function"
                else _need_int(kv, "sigma.frobenius_power"))
        except ParseError as exc:
            raise ConfigError(f"field.modulus: {exc}") from exc
        if kind == "rational-function":
            values = [s.strip() for s in _need(kv, "sigma.mobius").split(",")]
            if len(values) != 4:
                raise ConfigError("sigma.mobius needs four comma-separated values")
            mob = []
            for i, value in enumerate(values, start=1):
                try:
                    mob.append(parse_element(ctx, value))
                except ParseError as exc:
                    raise ConfigError(f"sigma.mobius: value {i} of 4: {exc}") from exc
            ctx = RationalFunctions(ctx, mob, variable=kv.get("field.variable", "z"))
    elif kind == "cyclotomic":
        ctx = CyclotomicField(_need_int(kv, "cyclotomic.order"),
                              _need_int(kv, "sigma.exponent"),
                              symbol=kv.get("cyclotomic.symbol", "chi"))
    else:
        raise ConfigError(f"unknown field.kind {kind!r}")
    return ctx, kv


def code_from_config(text):
    """Build (ctx, code) from a configuration document; any error is a ConfigError."""
    try:
        ctx, kv = context_from_config(text)
        try:
            alpha = parse_element(ctx, _need(kv, "alpha"))
        except ParseError as exc:
            raise ConfigError(f"alpha: {exc}") from exc
        code = build_code(ctx, alpha, _need_int(kv, "r", "0"), _need_int(kv, "delta"))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return ctx, code
