"""Peterson-Gorenstein-Zierler decoding for skew Reed-Solomon codes.

Pipeline for a received word y of length n:

1. syndromes: s_i = left remainder of y by x - sigma^(r+i)(beta), 0 <= i < 2t.
2. syndrome matrix S of shape (t+1) x t with entry (i, j) =
   sigma^(-j)(s_(i+j)) * sigma^(r+i)(alpha).
3. locator seed rho from the reduced column echelon form of S; its degree
   mu = rank S is a lower bound on the number of errors.
4. error positions: the zero coordinates of rho's evaluation vector when
   their count equals mu (direct branch); otherwise the dual supports of
   the kernel of rho's twisted shift matrix (echelon branch,
   ``codes.dual_support``): the columns that no unit row of the paper's
   row echelon form H_rho keeps, found with no shift rows and no rref.
5. error values: the unique solution of a conjugate-matrix linear system.

The decoder then verifies the correction by left-dividing the corrected
word by the generator g, which also yields the message as the quotient; a
nonzero remainder produces an explicit failure report instead of a silent
wrong answer.  No second syndrome pass is needed: g is the lclm of
x - sigma^(r+i)(beta) for 0 <= i <= delta-2 and 2t <= delta-1, so g
right-dividing the word already makes every syndrome vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .codes import conjugate_matrix, dual_support, evaluate
from .fields import Element, require_context, same_context
from .linalg import Matrix, solve_row_system
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
    if not all(isinstance(v, Element) and same_context(v.ctx, code.ctx) for v in y):
        raise ValueError("received word has entries outside the code's field")
    return y


def syndromes(code, y):
    """The 2t syndromes of y: its right evaluations at sigma^(r+i)(beta)."""
    return evaluate(code, _as_vector(code, y), 2 * code.t, code.r)


def build_syndrome_matrix(code, s):
    """(t+1) x t matrix with entry (i, j) = sigma^(-j)(s_(i+j)) * sigma^(r+i)(alpha)."""
    ctx, t, n, r = code.ctx, code.t, code.n, code.r
    if len(s) != 2 * t:
        raise ValueError(f"expected {2 * t} syndromes")
    require_context(ctx, s)
    sigma, mul = ctx.sigma_raw, ctx.mul
    s = [v.raw for v in s]
    return Matrix.from_raw(ctx, [
        [mul(sigma(s[i + j], -j), code.conj[(r + i) % n]) for j in range(t)]
        for i in range(t + 1)])


def extract_rho(st):
    """(mu, rho) read off the reduced column echelon form of the syndrome
    matrix: mu is the rank and the first mu entries of row mu carry the
    lower coefficients of the monic degree-mu locator seed."""
    ctx = st.ctx
    reduced = st.rcef()
    rows, zero, one = reduced.raw, ctx.zero_raw, ctx.one_raw
    mu = sum(1 for j in range(reduced.ncols) if any(row[j] != zero for row in rows))
    if mu == 0:
        raise ValueError("zero syndrome matrix has no locator")
    for i in range(mu):
        for j in range(mu):
            if rows[i][j] != (one if i == j else zero):
                raise ValueError("echelon form lacks the identity block")
    coeffs = [Element(ctx, ctx.neg(rows[mu][i])) for i in range(mu)] + [ctx.one]
    return mu, SkewPolynomial(ctx, coeffs)


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


def error_values(code, positions, s):
    """Solve for the error values at the given positions from the leading
    syndromes; the conjugate matrix is nonsingular for distinct positions."""
    ctx, n, r, conj = code.ctx, code.n, code.r, code.conj
    nu = len(positions)
    if nu == 0:
        raise ValueError("no positions")
    rhs = [Element(ctx, conj[(r + i) % n]) * s[i] for i in range(nu)]
    return solve_row_system(conjugate_matrix(ctx, conj, [r + k for k in positions], nu), rhs)


def decode(code, y):
    """Full decode of a received word; never returns a wrong answer on a
    path that passes verification, and never raises on a malformed word."""
    try:
        vec = _as_vector(code, y)
    except (TypeError, ValueError) as exc:
        return DecodeReport(syndromes=[], branch=None,
                            failure=f"invalid received word: {exc}")
    ctx = code.ctx
    s = evaluate(code, vec, 2 * code.t, code.r)

    def fail(reason, branch, **kw):
        return DecodeReport(syndromes=s, branch=branch, failure=reason, **kw)

    mu, rho, positions, values, branch = 0, None, [], [], BRANCH_ALL_ZERO
    if any(s):
        st = build_syndrome_matrix(code, s)
        try:
            mu, rho = extract_rho(st)
        except ValueError as exc:
            return fail(f"locator extraction failed: {exc}", None)
        try:
            positions, branch = locate_positions(code, mu, rho)
        except LocateFailure as exc:
            return fail(f"position search failed: {exc}", BRANCH_ECHELON,
                        mu=mu, rho=rho)
        nu = len(positions)
        if nu > code.t:
            return fail(f"{nu} candidate error positions exceed capability t={code.t}",
                        branch, mu=mu, rho=rho, positions=positions)
        try:
            values = error_values(code, positions, s)
        except ValueError as exc:
            return fail(f"value solve failed: {exc}", branch, mu=mu, rho=rho,
                        positions=positions)
    err = [ctx.zero] * code.n
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
