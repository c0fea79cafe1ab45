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
sigma^k(alpha).  The code keeps the conjugates, k < n, with their
inverses, and a table of them that the field context prepares once and
sums over on raw values (``ctx.conjugate_table`` and
``ctx.conjugate_sums``; a tabled finite field sums in the log domain).
``evaluation_matrix`` reads the evaluation matrix N off it on demand.  A
code with r > 0 reads the same table from index r, all indices taken
mod n, so the decoder never branches on r.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fields import (CyclotomicField, Element, FieldError, FiniteField,
                     RationalFunctions, require_context)
from .linalg import Matrix
from .skewpoly import SkewPolynomial, left_divmod, lclm_many, shift_echelon


class CodeError(ValueError):
    pass


def conjugate_matrix(ctx, alpha):
    """n x n matrix with entry (i, j) = sigma^(i+j)(alpha), n = ctx.order."""
    n = ctx.order
    conj = [ctx.sigma_raw(alpha.raw, k) for k in range(2 * n - 1)]
    return Matrix.from_raw(ctx, [conj[i:i + n] for i in range(n)])


def is_normal(ctx, alpha):
    """True when the sigma-conjugates of alpha form a basis over the
    invariant subfield (the conjugate matrix is nonsingular)."""
    if not alpha:
        return False
    return conjugate_matrix(ctx, alpha).rank() == ctx.order


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
    # the conjugates sigma^k(alpha) for k < n and their inverses
    conj: list
    conj_inv: list
    # the same, prepared by ctx.conjugate_table for ctx.conjugate_sums
    conj_table: object

    @property
    def dimension(self):
        return self.n - self.delta + 1

    def contains(self, f):
        """Membership test: g right-divides f."""
        return left_divmod(f, self.g)[1].is_zero

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
    if not is_normal(ctx, alpha):
        raise CodeError("alpha is not a normal element")
    conj = [ctx.sigma(alpha, k) for k in range(n)]
    alpha_inv = alpha.inverse()
    conj_inv = [ctx.sigma(alpha_inv, k) for k in range(n)]
    beta = alpha_inv * conj[1]
    conj_table = ctx.conjugate_table([c.raw for c in conj], [c.raw for c in conj_inv])
    x = SkewPolynomial.variable(ctx)
    factors = [x - SkewPolynomial.constant(ctx, ctx.sigma(beta, (r + i) % n))
               for i in range(delta - 1)]
    g = lclm_many(factors)
    return SkewRSCode(ctx=ctx, alpha=alpha, beta=beta, r=r, delta=delta, g=g,
                      t=(delta - 1) // 2, n=n, conj=conj, conj_inv=conj_inv,
                      conj_table=conj_table)


def encode(code, message):
    """message * g; the message must have at most n - delta + 1 coefficients."""
    if message.degree > code.n - code.delta:
        raise CodeError(
            f"message degree {message.degree} exceeds {code.n - code.delta}")
    return message * code.g


def full_beta_decomposition_test(f, code):
    """Indices k such that f is the lclm of x - sigma^k(beta) over them,
    or None when f does not decompose into such linear factors.

    f must be monic and right-divide x^n - 1.
    """
    ctx, n = code.ctx, code.n
    if f.is_zero or f.leading != ctx.one:
        raise CodeError("polynomial must be monic")
    m = f.degree
    if m > n:
        raise CodeError("degree exceeds the code length")
    xn1 = SkewPolynomial(ctx, [-ctx.one] + [ctx.zero] * (n - 1) + [ctx.one])
    if not left_divmod(xn1, f)[1].is_zero:
        raise CodeError("polynomial does not right-divide x^n - 1")
    if m == n:
        return set(range(n))
    unit_cols, others = shift_echelon(
        f, n, lambda row: ctx.conjugate_sums(code.conj_table, row, n, 0))
    if others:
        return None
    return set(range(n)).difference(unit_cols)


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
