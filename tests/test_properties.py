"""Property suite for the decoder's contract.

It ranges over every backend, odd characteristic, offsets r > 0, designed
distances 2, 5 and n, and every error weight 0..n.  At weight <= t the
error and the message come back exactly; above t the decoder either
reports a failure or returns a codeword within distance t of the received
word.  It never raises.

Decoding is L-homogeneous: a word scaled by lambda != 0 reaches the same
verdict, mu, rho, branch, positions and failure, with its syndromes,
values, error, codeword and message scaled by lambda.  ``skewrs oracle``
decodes its error patterns up to scale on the strength of this.

On the same codes, the echelon branch's positions and failures equal the
row echelon route it replaces, and the Hankel generator equals the lclm
of its linear factors.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from skewrs import (CyclotomicField, FiniteField, RationalFunctions,
                    SkewPolynomial, build_code, decode, encode,
                    find_normal_element, lclm_many)
from skewrs.pgz import (LocateFailure, build_syndrome_matrix, extract_rho,
                        locate_positions, syndromes)

from conftest import GF4096_MODULUS
from oracles import contains, locate_by_rref

# name: (field factory, order n of sigma, offsets r)
FIELDS = {
    "gf4096": (lambda: FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10), 6, (1, 5, 7)),
    "f4z": (lambda: RationalFunctions(FiniteField(2, 2, "a^2 + a + 1", frobenius_power=0),
                                      ("1", "a", "1", "a^2")), 5, (2,)),
    "cyclotomic": (lambda: CyclotomicField(7, 3), 6, (4,)),
    "gf81": (lambda: FiniteField(3, 4, "a^4 + 2a^3 + 2", frobenius_power=1), 4, (0,)),
    "gf125": (lambda: FiniteField(5, 3, "a^3 + 3a + 2", frobenius_power=1), 3, (0,)),
    "gf729": (lambda: FiniteField(3, 6, "a^6 + a^5 + 2", frobenius_power=1), 6, (2,)),
}
CASES = [(name, r, delta) for name, (_, n, offsets) in FIELDS.items() for r in offsets
         for delta in sorted({2, 5, n}) if delta <= n]


@pytest.fixture(scope="module")
def property_codes():
    out = {}
    for name, (make, n, _) in FIELDS.items():
        ctx = make()
        assert ctx.order == n
        alpha = find_normal_element(ctx)
        for case in CASES:
            if case[0] == name:
                out[case] = build_code(ctx, alpha, case[1], case[2])
    return out


@pytest.mark.parametrize("case", CASES, ids=[f"{n}-r{r}-d{d}" for n, r, d in CASES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_decode_contract(property_codes, case, data):
    code = property_codes[case]
    ctx, n = code.ctx, code.n
    weight = data.draw(st.integers(0, n), label="weight")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    msg = SkewPolynomial(ctx, [ctx.random_element(rng) for _ in range(code.dimension)])
    err = [ctx.zero] * n
    for pos in rng.sample(range(n), weight):
        err[pos] = ctx.random_nonzero(rng)
    received = [c + e for c, e in zip(encode(code, msg).vector(n), err)]
    report = decode(code, received)
    if weight <= code.t:
        assert report.ok, report.failure
        assert report.error == err and report.message == msg
    elif report.ok:
        assert contains(code, SkewPolynomial(ctx, report.codeword))
        assert encode(code, report.message).vector(n) == report.codeword
        assert sum(1 for a, b in zip(report.codeword, received) if a != b) <= code.t
    else:
        assert report.failure and "\n" not in report.failure


HOMOGENEITY_CASES = [case for case in CASES if case[0] in ("gf4096", "f4z", "cyclotomic", "gf81")]


@pytest.mark.parametrize("case", HOMOGENEITY_CASES,
                         ids=[f"{n}-r{r}-d{d}" for n, r, d in HOMOGENEITY_CASES])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_decode_is_homogeneous(property_codes, case, data):
    code = property_codes[case]
    ctx, n = code.ctx, code.n
    weight = data.draw(st.integers(0, n), label="weight")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    msg = SkewPolynomial(ctx, [ctx.random_element(rng) for _ in range(code.dimension)])
    err = [ctx.zero] * n
    for pos in rng.sample(range(n), weight):
        err[pos] = ctx.random_nonzero(rng)
    received = [c + e for c, e in zip(encode(code, msg).vector(n), err)]
    lam = ctx.random_nonzero(rng)
    plain = decode(code, received)
    scaled = decode(code, [lam * y for y in received])

    def times(vec):
        return None if vec is None else [lam * v for v in vec]

    for key in ("failure", "mu", "rho", "branch", "positions"):
        assert getattr(scaled, key) == getattr(plain, key), key
    for key in ("syndromes", "values", "error", "codeword"):
        assert getattr(scaled, key) == times(getattr(plain, key)), key
    if plain.message is None:
        assert scaled.message is None
    else:
        assert scaled.message == SkewPolynomial(ctx, times(plain.message.coeffs))


def _located(code, mu, rho, locate):
    try:
        return locate(code, mu, rho)
    except LocateFailure as exc:
        return str(exc)


@pytest.mark.parametrize("case", CASES, ids=[f"{n}-r{r}-d{d}" for n, r, d in CASES])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_locate_equals_rref_oracle(property_codes, case, data):
    # the seed of a word of weight t+1..n (for t >= 1), and a random monic
    # seed of any degree, which reaches every code including delta = 2
    code = property_codes[case]
    ctx, n = code.ctx, code.n
    weight = data.draw(st.integers(code.t + 1, n), label="weight")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    seeds = []
    err = [ctx.zero] * n
    for pos in rng.sample(range(n), weight):
        err[pos] = ctx.random_nonzero(rng)
    s = syndromes(code, err)
    if any(s):
        try:
            seeds.append(extract_rho(build_syndrome_matrix(code, s)))
        except ValueError:
            pass
    mu = rng.randint(1, n)
    seeds.append((mu, SkewPolynomial(ctx, [ctx.random_element(rng) for _ in range(mu)]
                                     + [ctx.one])))
    for mu, rho in seeds:
        assert _located(code, mu, rho, locate_positions) == \
            _located(code, mu, rho, locate_by_rref)


@pytest.mark.parametrize("case", CASES, ids=[f"{n}-r{r}-d{d}" for n, r, d in CASES])
def test_generator_equals_lclm_fold(property_codes, case):
    code = property_codes[case]
    ctx, n = code.ctx, code.n
    x = SkewPolynomial.variable(ctx)
    factors = [x - SkewPolynomial(ctx, (ctx.sigma(code.beta, (code.r + i) % n),))
               for i in range(code.delta - 1)]
    assert code.g == lclm_many(factors)
