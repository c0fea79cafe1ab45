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
sigma^k(alpha).  The code keeps the raw conjugates, k < n, and two
tables that the field context prepares once and sums over on raw values
(``ctx.conjugate_table`` and ``ctx.conjugate_sums``; a tabled finite field
sums in the log domain): the conjugates with their inverses, and the
trace-dual conjugates below with unit scales.  ``evaluation_matrix``
reads the evaluation matrix N off the first table on demand.  A code with
r > 0 reads the same tables from index r, all indices taken mod n, so the
decoder never branches on r.

Three linear systems of the decoder are conjugate systems, whose row s
holds sigma^(s+j)(alpha), j < size, and ``conjugate_matrix`` builds all
of them.  The conjugate matrix C(alpha) (rows s < n) is nonsingular
exactly when alpha is normal, and its inverse is C(alpha*) for the
trace-dual alpha*: Tr(sigma^i(alpha) * sigma^j(alpha*)) = delta_ij (Lidl &
Niederreiter, Finite Fields, ch. 2).  ``build_code`` solves
X * C(alpha) = e_0 once for X_i = sigma^i(alpha*), the dual table that
``dual_support`` sums over.  The generator g = x^d + sum_(k<d) g_k x^k,
d = delta-1, vanishes at sigma^m(beta) exactly when
sum_k g_k * sigma^(m+k)(alpha) = -sigma^(m+d)(alpha), so it is one d x d
Hankel solve, rows m = r..r+d-1, nonsingular because the lclm of d
beta-roots has degree d (Lam & Leroy, J. Algebra 1988).  The error values
at positions k solve the system with rows r+k (``pgz.error_values``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fields import (CyclotomicField, Element, FieldError, FiniteField,
                     RationalFunctions, require_context)
from .linalg import Matrix, solve_row_system
# lclm_many is bound here because perfbench/tracing.py times it by this name
from .skewpoly import SkewPolynomial, lclm_many


class CodeError(ValueError):
    pass


def conjugate_matrix(ctx, conj, starts, size):
    """The matrix with one row per s in starts, holding conj[(s + j) % n]
    for j < size, over the n raw conjugates conj = sigma^k(alpha), k < n."""
    n = len(conj)
    return Matrix.from_raw(ctx, [[conj[(s + j) % n] for j in range(size)] for s in starts])


def is_normal(ctx, alpha):
    """True when the sigma-conjugates of alpha form a basis over the
    invariant subfield (the conjugate matrix is nonsingular)."""
    if not alpha:
        return False
    n = ctx.order
    conj = [ctx.sigma_raw(alpha.raw, k) for k in range(n)]
    return conjugate_matrix(ctx, conj, range(n), n).rank() == n


def find_normal_element(ctx, rng=None):
    """A normal element: the backend generator when it qualifies, else a
    random search."""
    if is_normal(ctx, ctx.generator):
        return ctx.generator
    if rng is None:
        import random
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
    # the raw conjugates sigma^k(alpha), k < n
    conj: list
    # ctx.conjugate_table of the conjugates with their inverses, and of the
    # trace-dual conjugates sigma^k(alpha*) with unit scales
    conj_table: object
    dual_table: object

    @property
    def dimension(self):
        return self.n - self.delta + 1

    def __repr__(self):
        return (f"SkewRSCode(n={self.n}, delta={self.delta}, t={self.t}, "
                f"r={self.r}, dim={self.dimension})")


def evaluate(code, vec, count, offset):
    """Right evaluations of the word vec (coefficients lowest degree
    first) at sigma^(offset+j)(beta) for 0 <= j < count: each value is
    sigma^k(alpha)^(-1) * sum_i vec_i * sigma^(k+i)(alpha), k = offset+j."""
    ctx = code.ctx
    require_context(ctx, vec)
    sums = ctx.conjugate_sums(code.conj_table, [v.raw for v in vec], count, offset)
    return [Element(ctx, v) for v in sums]


def evaluation_matrix(code):
    """Row i holds the evaluations of x^i at sigma^j(beta), so entry
    (i, j) is the twisted norm N_i(sigma^j(beta))."""
    ctx, n = code.ctx, code.n
    return Matrix.from_raw(ctx, [
        ctx.conjugate_sums(code.conj_table, [ctx.zero_raw] * i + [ctx.one_raw], n, 0)
        for i in range(n)])


def build_code(ctx, alpha, r, delta):
    n = ctx.order
    if not 2 <= delta <= n:
        raise CodeError(f"designed distance must be within [2, {n}], got {delta}")
    if r < 0:
        raise CodeError("root offset must be nonnegative")
    sigma = ctx.sigma_raw
    conj = [sigma(alpha.raw, k) for k in range(n)]
    # X * C(alpha) = e_0 is solved by X_i = sigma^i(alpha*) when alpha is normal
    try:
        dual = solve_row_system(conjugate_matrix(ctx, conj, range(n), n),
                                [ctx.one] + [ctx.zero] * (n - 1))
    except ValueError:
        raise CodeError("alpha is not a normal element") from None
    inv = ctx.inv(alpha.raw)
    # the generator's lower coefficients solve the d x d Hankel system
    d = delta - 1
    low = solve_row_system(conjugate_matrix(ctx, conj, range(r, r + d), d),
                           [Element(ctx, ctx.neg(conj[(m + d) % n])) for m in range(r, r + d)])
    return SkewRSCode(
        ctx=ctx, alpha=alpha, beta=Element(ctx, ctx.mul(inv, conj[1])), r=r, delta=delta,
        g=SkewPolynomial(ctx, low + [ctx.one]), t=(delta - 1) // 2, n=n, conj=conj,
        conj_table=ctx.conjugate_table(conj, [sigma(inv, k) for k in range(n)]),
        dual_table=ctx.conjugate_table([v.raw for v in dual], [ctx.one_raw] * n))


def encode(code, message):
    """message * g; the message must have at most n - delta + 1 coefficients."""
    if message.degree > code.n - code.delta:
        raise CodeError(
            f"message degree {message.degree} exceeds {code.n - code.delta}")
    return message * code.g


def dual_support(code, f, offset):
    """Sorted j < n such that no unit vector e_j lies in the row space W of
    the twisted shift rows x^i * f, i < n - deg f, evaluated at
    sigma^(offset+j)(beta); f is monic.  These are the supports of
    N^(-1) * w over a basis w of ker T, T the shift matrix, whose entries
    are the dual sums of w up to nonzero factors.  T has a one at column
    i + mu of row i, mu = deg f, so forward substitution gives the basis:
    w_s = 1 for one s < mu and w_(i+mu) = -sum_(k<mu) sigma^i(f_k) * w_(i+k).
    """
    ctx, n = code.ctx, code.n
    zero, one, add, mul = ctx.zero_raw, ctx.one_raw, ctx.add, ctx.mul
    mu = len(f.raw) - 1
    twisted = [[ctx.sigma_raw(c, i) for c in f.raw[:mu]] for i in range(n - mu)]
    support = set()
    for s in range(mu):
        w = [zero] * n
        w[s] = one
        for i, row in enumerate(twisted):
            acc = zero
            for c, v in zip(row, w[i:]):
                if v != zero:
                    acc = add(acc, mul(c, v))
            w[i + mu] = ctx.neg(acc)
        zeros = ctx.conjugate_zeros(code.dual_table, w, n, offset)
        support.update(j for j, z in enumerate(zeros) if not z)
        if len(support) == n:
            break
    return sorted(support)


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
    """Exhaustive minimum Hamming weight over all nonzero codewords."""
    ctx = code.ctx
    if ctx.size is None:
        raise CodeError("distance enumeration needs a finite field")
    count = ctx.size ** code.dimension
    if count > budget:
        raise CodeError(f"enumeration of {count} codewords exceeds budget {budget}")
    best = None
    for vec in codewords(code):
        w = sum(1 for v in vec if v)
        if w and (best is None or w < best):
            best = w
    return best


# ---------------------------------------------------------------------------
# code-spec configuration files: "key = value" lines, '#' comments
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    pass


def _parse_kv(text):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _need(kv, key):
    if key not in kv:
        raise ConfigError(f"missing required key {key!r}")
    return kv[key]


def context_from_config(text):
    kv = _parse_kv(text)
    kind = _need(kv, "field.kind")
    try:
        if kind in ("finite-field", "rational-function"):
            # F_q(z) takes its constants from a base field with trivial sigma
            ctx = FiniteField(
                int(_need(kv, "field.p")), int(_need(kv, "field.degree")),
                _need(kv, "field.modulus"), generator=kv.get("field.generator", "a"),
                frobenius_power=0 if kind == "rational-function"
                else int(_need(kv, "sigma.frobenius_power")))
            if kind == "rational-function":
                mob = [s.strip() for s in _need(kv, "sigma.mobius").split(",")]
                if len(mob) != 4:
                    raise ConfigError("sigma.mobius needs four comma-separated values")
                ctx = RationalFunctions(ctx, mob, variable=kv.get("field.variable", "z"))
        elif kind == "cyclotomic":
            ctx = CyclotomicField(int(_need(kv, "cyclotomic.order")),
                                  int(_need(kv, "sigma.exponent")),
                                  symbol=kv.get("cyclotomic.symbol", "chi"))
        else:
            raise ConfigError(f"unknown field.kind {kind!r}")
    except (FieldError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return ctx, kv


def code_from_config(text):
    """Build (ctx, code) from a configuration document."""
    ctx, kv = context_from_config(text)
    from .parsing import parse_element, ParseError
    try:
        alpha = parse_element(ctx, _need(kv, "alpha"))
    except ParseError as exc:
        raise ConfigError(f"alpha: {exc}") from exc
    try:
        code = build_code(ctx, alpha, int(kv.get("r", "0")), int(_need(kv, "delta")))
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    return ctx, code
