"""Construction of skew Reed-Solomon codes.

A code is determined by a field context with automorphism sigma of order
n, a normal element alpha (its sigma-conjugates form a basis over the
invariant subfield), an offset r >= 0 and a designed distance delta.  With
beta = alpha^(-1) * sigma(alpha), the generator is the least common left
multiple of x - sigma^(r+i)(beta) for 0 <= i <= delta-2; the code is the
left ideal it generates modulo x^n - 1 and corrects t = (delta-1)//2
errors.

Codes with r > 0 are decoded by substituting sigma^r(alpha) for alpha,
which reduces everything to the r = 0 case; the substituted data is kept
on the code object so the decoder never branches on r.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .fields import FiniteField, RationalFunctions, CyclotomicField, FieldError
from .linalg import Matrix
from .skewpoly import SkewPolynomial, left_divmod, lclm_many, norm_column, shift_echelon


class CodeError(ValueError):
    pass


def conjugate_matrix(ctx, alpha, n=None):
    """n x n matrix with entry (i, j) = sigma^(i+j)(alpha)."""
    n = n or ctx.order
    conj = [ctx.sigma(alpha, k) for k in range(2 * n - 1)]
    return Matrix(ctx, [[conj[i + j] for j in range(n)] for i in range(n)])


def is_normal(ctx, alpha):
    """True when the sigma-conjugates of alpha form a basis over the
    invariant subfield (the conjugate matrix is nonsingular)."""
    if not alpha:
        return False
    return conjugate_matrix(ctx, alpha).rank() == ctx.order


def find_normal_element(ctx, rng=None, max_trials=64):
    """A normal element: the backend generator when it qualifies, else a
    random search."""
    if is_normal(ctx, ctx.generator):
        return ctx.generator
    if rng is None:
        import random
        rng = random.Random(0)
    for _ in range(max_trials):
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
    N: Matrix
    t: int
    n: int
    # narrow-sense working data used by the decoder (differs only for r > 0)
    alpha_w: object = field(repr=False, default=None)
    beta_w: object = field(repr=False, default=None)
    N_w: Matrix = field(repr=False, default=None)
    conj_alpha_w: list = field(repr=False, default=None)

    @property
    def dimension(self):
        return self.n - self.delta + 1

    def beta_root(self, j):
        """sigma^j of the working beta."""
        return self.ctx.sigma(self.beta_w, j)

    def contains(self, f):
        """Membership test: g right-divides f."""
        return left_divmod(f, self.g)[1].is_zero

    def __repr__(self):
        return (f"SkewRSCode(n={self.n}, delta={self.delta}, t={self.t}, "
                f"r={self.r}, dim={self.dimension})")


def evaluation_matrix(ctx, beta, n):
    """Column j holds the norms N_0 ... N_(n-1) of sigma^j(beta)."""
    cols = [norm_column(ctx.sigma(beta, j), n) for j in range(n)]
    return Matrix(ctx, [[cols[j][i] for j in range(n)] for i in range(n)])


def build_code(ctx, alpha, r, delta):
    n = ctx.order
    if not 2 <= delta <= n:
        raise CodeError(f"designed distance must be within [2, {n}], got {delta}")
    if r < 0:
        raise CodeError("root offset must be nonnegative")
    if not is_normal(ctx, alpha):
        raise CodeError("alpha is not a normal element")
    beta = alpha.inverse() * ctx.sigma(alpha)
    x = SkewPolynomial.variable(ctx)
    factors = [x - SkewPolynomial.constant(ctx, ctx.sigma(beta, (r + i) % n))
               for i in range(delta - 1)]
    g = lclm_many(factors)
    N = evaluation_matrix(ctx, beta, n)
    t = (delta - 1) // 2
    r_ = r % n
    alpha_w = ctx.sigma(alpha, r_)
    beta_w = ctx.sigma(beta, r_)
    N_w = N if r_ == 0 else Matrix(
        ctx, [[N.rows[i][(j + r_) % n] for j in range(n)] for i in range(n)])
    conj = [ctx.sigma(alpha_w, k) for k in range(2 * n)]
    return SkewRSCode(ctx=ctx, alpha=alpha, beta=beta, r=r, delta=delta, g=g,
                      N=N, t=t, n=n, alpha_w=alpha_w, beta_w=beta_w, N_w=N_w,
                      conj_alpha_w=conj)


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
    unit_cols, others = shift_echelon(f, code.N)
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
        out[key.strip()] = (value.strip(), lineno)
    return out


def context_from_config(text):
    kv = _parse_kv(text)

    def need(key):
        if key not in kv:
            raise ConfigError(f"missing required key {key!r}")
        return kv[key][0]

    def get(key, default=None):
        return kv[key][0] if key in kv else default

    kind = need("field.kind")
    try:
        if kind == "finite-field":
            ctx = FiniteField(
                int(need("field.p")), int(need("field.degree")),
                need("field.modulus"), generator=get("field.generator", "a"),
                frobenius_power=int(need("sigma.frobenius_power")))
        elif kind == "rational-function":
            base = FiniteField(
                int(need("field.p")), int(need("field.degree")),
                need("field.modulus"), generator=get("field.generator", "a"),
                frobenius_power=0)
            mob = [s.strip() for s in need("sigma.mobius").split(",")]
            if len(mob) != 4:
                raise ConfigError("sigma.mobius needs four comma-separated values")
            ctx = RationalFunctions(base, mob, variable=get("field.variable", "z"))
        elif kind == "cyclotomic":
            ctx = CyclotomicField(int(need("cyclotomic.order")),
                                  int(need("sigma.exponent")),
                                  symbol=get("cyclotomic.symbol", "chi"))
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

    def need(key):
        if key not in kv:
            raise ConfigError(f"missing required key {key!r}")
        return kv[key][0]

    from .parsing import parse_element, ParseError
    try:
        alpha = parse_element(ctx, need("alpha"))
    except ParseError as exc:
        raise ConfigError(f"alpha: {exc}") from exc
    try:
        code = build_code(ctx, alpha, int(kv.get("r", ("0", 0))[0]),
                          int(need("delta")))
    except CodeError as exc:
        raise ConfigError(str(exc)) from exc
    return ctx, code
