"""Peterson-Gorenstein-Zierler decoding for skew Reed-Solomon codes.

Pipeline for a received word y of length n, on raw values throughout:

1. syndromes: s_i = left remainder of y by x - sigma^(r+i)(beta), 0 <= i < 2t.
   The twisted norms telescope, N_l(sigma^k(beta)) = sigma^k(alpha)^(-1) *
   sigma^(k+l)(alpha), so s_i = sigma^(r+i)(alpha)^(-1) * u_i for the
   conjugate sum u_i = sum_l y_l * sigma^(r+i+l)(alpha) (``codes``).  The
   decoder computes u; s is one more product each, for the report.
2. syndrome matrix S of shape (t+1) x t with entry (i, j) =
   sigma^(-j)(s_(i+j)) * sigma^(r+i)(alpha).  By step 1,
   sigma^(-j)(s_(i+j)) = sigma^(r+i)(alpha)^(-1) * sigma^(-j)(u_(i+j)), so
   the entry is sigma^(-j)(u_(i+j)): S is read off u with no product.
3. locator seed rho from the reduced column echelon form of S, rref(S^T)^T:
   one elimination of the rows of S^T gives mu = rank S, a lower bound on
   the number of errors, as its pivot count.
4. error positions: the zero coordinates of rho's evaluation vector when
   their count equals mu (direct branch); otherwise the dual supports of
   the kernel of rho's twisted shift matrix (echelon branch,
   ``codes.dual_support``): the columns that no unit row of the paper's
   row echelon form H_rho keeps, found with no shift rows and no rref.
5. error values: one elimination of the conjugate system, augmented by
   its right-hand side sigma^(r+i)(alpha) * s_i, which is u_i.

The decoder then verifies the correction by left-dividing the corrected
word by the generator g, which also yields the message as the quotient; a
nonzero remainder produces an explicit failure report instead of a silent
wrong answer.  g is monic, so each quotient digit is the word's top
coefficient at its step, taken off with the code's generator rows
sigma^k(g) (``codes.left_divide``), with no sigma, inverse or product per
digit.  No second syndrome pass is needed: g is the lclm of
x - sigma^(r+i)(beta) for 0 <= i <= delta-2 and 2t <= delta-1, so g
right-dividing the word already makes every syndrome vanish.

Elements, rho and the message are built once, for the ``DecodeReport``;
the public stage functions run the same raw kernels on Elements, and take
and give syndromes s, turning them into sums u where a kernel reads u.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .codes import dual_support, evaluate, evaluations, left_divide
from .fields import Element, require_context, same_context
from .linalg import Matrix, eliminate
# left_divmod is bound here because perfbench/tracing.py replays the verify
# stage through it by this name
from .skewpoly import SkewPolynomial, left_divmod

BRANCH_ALL_ZERO = "all-zero"
BRANCH_DIRECT = "direct"
BRANCH_ECHELON = "echelon"


@dataclass
class DecodeReport:
    syndromes: list
    branch: Optional[str]      # None when decoding stopped before a branch
    mu: int = 0
    rho: Optional[SkewPolynomial] = None
    positions: list = field(default_factory=list)
    values: list = field(default_factory=list)
    error: Optional[list] = None
    codeword: Optional[list] = None
    message: Optional[SkewPolynomial] = None
    failure: Optional[str] = None

    @property
    def ok(self):
        return self.failure is None

    def to_text(self, ctx):
        """The report as "key = value" lines, every value printed by ctx."""
        fmt = ctx.format
        lines = [f"status = {'ok' if self.ok else 'failed'}"]
        if self.failure:
            lines.append(f"failure = {self.failure}")
        lines.append("syndromes = " + "; ".join(fmt(s) for s in self.syndromes))
        lines.append(f"mu = {self.mu}")
        if self.rho is not None:
            lines.append(f"rho = {SkewPolynomial(ctx, self.rho.coeffs)}")
        if self.branch is not None:
            lines.append(f"branch = {self.branch}")
        lines.append("positions = " + ", ".join(str(k) for k in self.positions))
        lines.append("values = " + "; ".join(fmt(v) for v in self.values))
        if self.error is not None:
            lines.append(f"error = {SkewPolynomial(ctx, self.error)}")
        if self.codeword is not None:
            lines.append(f"codeword = {SkewPolynomial(ctx, self.codeword)}")
        if self.message is not None:
            lines.append(f"message = {SkewPolynomial(ctx, self.message.coeffs)}")
        return "\n".join(lines) + "\n"


def _as_vector(code, y):
    if isinstance(y, SkewPolynomial):
        y = y.vector(code.n)
    y = list(y)
    if len(y) != code.n:
        raise ValueError(f"received word must have length {code.n}")
    ctx = code.ctx
    if not all(isinstance(v, Element) and (v.ctx is ctx or same_context(v.ctx, ctx)) for v in y):
        raise ValueError("received word has entries outside the code's field")
    return y


def syndromes(code, y):
    """The 2t syndromes of y: its right evaluations at sigma^(r+i)(beta)."""
    return evaluate(code, _as_vector(code, y), 2 * code.t, code.r)


def _sums(code, s):
    """The raw conjugate sums u_i = sigma^(r+i)(alpha) * s_i from the
    syndromes s, given as Elements."""
    mul, conj, n, r = code.ctx.mul, code.conj, code.n, code.r
    return [mul(conj[(r + i) % n], v.raw) for i, v in enumerate(s)]


def _syndrome_columns(code, u):
    """The rows of S^T for the raw conjugate sums u: row j holds
    sigma^(-j)(u_(i+j)) for i <= t."""
    t, sigma = code.t, code.ctx.sigma_raw
    return [[sigma(u[i + j], -j) for i in range(t + 1)] for j in range(t)]


def build_syndrome_matrix(code, s):
    """(t+1) x t matrix with entry (i, j) = sigma^(-j)(s_(i+j)) * sigma^(r+i)(alpha)."""
    ctx, t = code.ctx, code.t
    if len(s) != 2 * t:
        raise ValueError(f"expected {2 * t} syndromes")
    require_context(ctx, s)
    cols = _syndrome_columns(code, _sums(code, s))
    return Matrix.from_raw(ctx, [[col[i] for col in cols] for i in range(t + 1)])


def _locator_seed(ctx, cols):
    """(mu, rho's raw coefficients) off the rows of S^T, reduced in place:
    rcef(S) is their transpose, so its identity block means pivots 0 .. mu-1
    and rho_i is minus reduced row i's entry in column mu."""
    pivots = eliminate(ctx, cols)
    mu = len(pivots)
    if mu == 0:
        raise ValueError("zero syndrome matrix has no locator")
    if pivots != list(range(mu)):
        raise ValueError("echelon form lacks the identity block")
    return mu, tuple(ctx.neg(cols[i][mu]) for i in range(mu)) + (ctx.one_raw,)


def extract_rho(st):
    """(mu, rho) read off the reduced column echelon form of the syndrome
    matrix: mu is the rank and the first mu entries of row mu carry the
    lower coefficients of the monic degree-mu locator seed."""
    ctx = st.ctx
    mu, rho = _locator_seed(ctx, st.transpose().raw)
    return mu, SkewPolynomial.from_raw(ctx, rho)


class LocateFailure(Exception):
    pass


def locate_positions(code, mu, rho):
    """Error positions for a locator seed rho of degree mu.

    Direct branch: the beta-roots of rho when there are exactly mu of
    them.  Echelon branch: the beta-roots of the full locator that rho
    completes to, read off the dual table.
    """
    ctx, n = code.ctx, code.n
    require_context(ctx, (rho,))
    zeros = [j for j, z in enumerate(ctx.conjugate_zeros(code.conj_table, rho.raw, n, code.r))
             if z]
    if len(zeros) == mu:
        return zeros, BRANCH_DIRECT
    positions = dual_support(code, rho, code.r)
    if len(positions) == n:
        raise LocateFailure("no canonical rows survive the echelon reduction")
    return positions, BRANCH_ECHELON


def _error_values(code, positions, u):
    """The raw error values at the positions from the raw conjugate sums u:
    one elimination of the transposed conjugate system, augmented by its
    right-hand side sigma^(r+i)(alpha) * s_i = u_i."""
    ctx, n, r, conj = code.ctx, code.n, code.r, code.conj
    nu = len(positions)
    if nu == 0:
        raise ValueError("no positions")
    rows = [[conj[(r + k + i) % n] for k in positions] + [u[i]] for i in range(nu)]
    if eliminate(ctx, rows) != list(range(nu)):
        raise ValueError("matrix is singular")
    return [row[nu] for row in rows]


def error_values(code, positions, s):
    """Solve for the error values at the given positions from the leading
    syndromes; the conjugate matrix is nonsingular for distinct positions."""
    ctx = code.ctx
    s = s[:len(positions)]
    require_context(ctx, s)
    return [Element(ctx, v) for v in _error_values(code, positions, _sums(code, s))]


def decode(code, y):
    """Full decode of a received word; never returns a wrong answer on a
    path that passes verification, and never raises on a malformed word."""
    try:
        vec = _as_vector(code, y)
    except (TypeError, ValueError) as exc:
        return DecodeReport(syndromes=[], branch=None,
                            failure=f"invalid received word: {exc}")
    ctx, t = code.ctx, code.t
    raw = [v.raw for v in vec]
    u = ctx.conjugate_sums(code.conj_table, raw, 2 * t, code.r)
    s = [Element(ctx, v) for v in evaluations(code, u, code.r)]

    def fail(reason, branch, **kw):
        return DecodeReport(syndromes=s, branch=branch, failure=reason, **kw)

    mu, rho, positions, values, branch = 0, None, [], [], BRANCH_ALL_ZERO
    corrected = raw
    if any(v != ctx.zero_raw for v in u):
        try:
            mu, rho = _locator_seed(ctx, _syndrome_columns(code, u))
        except ValueError as exc:
            return fail(f"locator extraction failed: {exc}", None)
        rho = SkewPolynomial.from_raw(ctx, rho)
        try:
            positions, branch = locate_positions(code, mu, rho)
        except LocateFailure as exc:
            return fail(f"position search failed: {exc}", BRANCH_ECHELON,
                        mu=mu, rho=rho)
        nu = len(positions)
        if nu > t:
            return fail(f"{nu} candidate error positions exceed capability t={t}",
                        branch, mu=mu, rho=rho, positions=positions)
        try:
            raw_values = _error_values(code, positions, u)
        except ValueError as exc:
            return fail(f"value solve failed: {exc}", branch, mu=mu, rho=rho,
                        positions=positions)
        values = [Element(ctx, v) for v in raw_values]
        corrected = list(raw)
        for k, v in zip(positions, raw_values):
            corrected[k] = ctx.add(raw[k], ctx.neg(v))
    q, rem = left_divide(code, corrected)
    if rem:
        return fail("generator does not divide the corrected word", branch,
                    mu=mu, rho=rho, positions=positions, values=values)
    err = [ctx.zero] * code.n
    codeword = list(vec)
    for k, v in zip(positions, values):
        err[k] = v
        codeword[k] = Element(ctx, corrected[k])
    return DecodeReport(syndromes=s, mu=mu, rho=rho, branch=branch,
                        positions=positions, values=values, error=err,
                        codeword=codeword, message=SkewPolynomial.from_raw(ctx, q))
