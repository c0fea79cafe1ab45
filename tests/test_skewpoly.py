import itertools

import pytest

from skewrs import SkewPolynomial, gcrd, lclm, lclm_many, left_divmod, parse_poly

from conftest import rng_for, random_poly, random_nonzero_poly
from oracles import monomial, norm_column, right_eval


def linear_factor(ctx, gamma):
    return SkewPolynomial(ctx, (-gamma, ctx.one))


def x_pow_n_minus_1(ctx):
    n = ctx.order
    return SkewPolynomial(ctx, [-ctx.one] + [ctx.zero] * (n - 1) + [ctx.one])


# -- multiplication ----------------------------------------------------------

def test_coefficients_must_share_the_field(gf4096, gf16):
    with pytest.raises(ValueError):
        SkewPolynomial(gf4096, [gf16.generator, gf16.one])


def test_mul_by_one_is_identity(gf4096):
    rng = rng_for("mulone")
    f = random_poly(gf4096, rng, 5)
    assert f * SkewPolynomial.one(gf4096) == f
    assert SkewPolynomial.one(gf4096) * f == f


def test_commutation_rule_against_sigma(all_contexts):
    for name, ctx in all_contexts.items():
        rng = rng_for(f"commute-{name}")
        x = SkewPolynomial.variable(ctx)
        for _ in range(50):
            c = ctx.random_element(rng)
            lhs = x * SkewPolynomial.constant(ctx, c)
            rhs = monomial(ctx, ctx.sigma(c), 1)
            assert lhs == rhs


def test_known_product(gf4096, code_gf):
    m = parse_poly(gf4096, "x + a")
    c = m * code_gf.g
    assert c == parse_poly(
        gf4096, "x^5 + a^3953x^4 + a^1333x^3 + a^2604x^2 + a^1596x + a^760")


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_ring_axioms_on_random_triples(all_contexts, name):
    ctx = all_contexts[name]
    rng = rng_for(f"ring-{name}")
    rounds = 200
    for _ in range(rounds):
        f = random_poly(ctx, rng, 3)
        g = random_poly(ctx, rng, 3)
        h = random_poly(ctx, rng, 3)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_degree_law(all_contexts, name):
    ctx = all_contexts[name]
    rng = rng_for(f"deglaw-{name}")
    for _ in range(100):
        f = random_nonzero_poly(ctx, rng, rng.randrange(4))
        g = random_nonzero_poly(ctx, rng, rng.randrange(4))
        assert (f * g).degree == f.degree + g.degree


# -- left division ------------------------------------------------------------

def test_divmod_self(gf4096, code_gf):
    q, r = left_divmod(code_gf.g, code_gf.g)
    assert q == SkewPolynomial.one(gf4096)
    assert r.is_zero


def test_generator_vanishes_on_defining_factor(gf4096, code_gf):
    beta = code_gf.beta
    factor = linear_factor(gf4096, beta)
    assert left_divmod(code_gf.g, factor)[1].is_zero


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_divmod_round_trip(all_contexts, name):
    ctx = all_contexts[name]
    rng = rng_for(f"divmod-{name}")
    rounds = 500 if name == "gf4096" else 100
    for _ in range(rounds):
        f = random_nonzero_poly(ctx, rng, rng.randrange(1, 4))
        q = random_poly(ctx, rng, rng.randrange(4))
        r = random_poly(ctx, rng, f.degree - 1)
        g = q * f + r
        q2, r2 = left_divmod(g, f)
        assert q2 == q and r2 == r


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_euclidean_law(all_contexts, name):
    ctx = all_contexts[name]
    rng = rng_for(f"euclid-{name}")
    for _ in range(100):
        g = random_poly(ctx, rng, 5)
        f = random_nonzero_poly(ctx, rng, 3)
        q, r = left_divmod(g, f)
        assert q * f + r == g
        assert r.degree < f.degree


def test_division_by_zero_rejected(gf4096):
    f = SkewPolynomial.one(gf4096)
    with pytest.raises(ZeroDivisionError):
        left_divmod(f, SkewPolynomial.zero(gf4096))


# -- norms and right evaluation ------------------------------------------------

def test_norm_zero_is_one(all_contexts):
    for ctx in all_contexts.values():
        rng = rng_for("norm0")
        assert norm_column(ctx.random_element(rng), 1) == [ctx.one]


def test_norm_values_from_reference_code(gf4096):
    a = gf4096.generator
    beta = a ** 1023
    col = norm_column(beta, 7)
    assert col[6] == gf4096.one
    assert col[2] == a ** 255


def test_norm_column_matches_norm(gf4096):
    rng = rng_for("normcol")
    gamma = gf4096.random_element(rng)
    col = norm_column(gamma, 7)
    for i in range(7):
        # N_i(gamma) = gamma * sigma(gamma) * ... * sigma^(i-1)(gamma)
        expected = gf4096.one
        for k in range(i):
            expected = expected * gf4096.sigma(gamma, k)
        assert col[i] == expected


def test_right_eval_constant(all_contexts):
    for ctx in all_contexts.values():
        rng = rng_for("reconst")
        c = ctx.random_element(rng)
        gamma = ctx.random_element(rng)
        assert right_eval(SkewPolynomial.constant(ctx, c), gamma) == c


def test_generator_right_evaluates_to_zero_on_roots(code_gf, gf4096):
    for k in range(4):
        assert not right_eval(code_gf.g, gf4096.sigma(code_gf.beta, k))


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_right_eval_agrees_with_division_remainder(all_contexts, name):
    # two independent code paths must agree
    ctx = all_contexts[name]
    rng = rng_for(f"dualroute-{name}")
    rounds = 500 if name == "gf4096" else 100
    for _ in range(rounds):
        f = random_poly(ctx, rng, 4)
        gamma = ctx.random_element(rng)
        value = right_eval(f, gamma)
        rem = left_divmod(f, linear_factor(ctx, gamma))[1]
        if value:
            assert rem.coeffs == (value,)
        else:
            assert rem.is_zero


# -- gcrd / lclm ---------------------------------------------------------------

def test_gcrd_lclm_of_self(gf4096, code_gf):
    g = code_gf.g
    two_g = g.scale_left(gf4096.generator)
    assert gcrd(two_g, two_g) == g
    assert lclm(two_g, two_g) == g


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_gcrd_is_a_monic_common_right_divisor(all_contexts, name):
    ctx = all_contexts[name]
    rng = rng_for(f"gcrd-{name}")
    for _ in range(5):
        h = random_nonzero_poly(ctx, rng, 2)
        f = random_nonzero_poly(ctx, rng, 2) * h
        g = random_nonzero_poly(ctx, rng, 1) * h
        d = gcrd(f, g)
        assert d.leading == ctx.one
        assert left_divmod(f, d)[1].is_zero and left_divmod(g, d)[1].is_zero
        assert left_divmod(d, h)[1].is_zero
        # the raw values and the Elements describe the same polynomial
        assert d.raw == tuple(c.raw for c in d.coeffs)
        assert d == SkewPolynomial(ctx, d.coeffs)


def test_reference_generator_is_iterated_lclm(gf4096):
    a = gf4096.generator
    factors = [linear_factor(gf4096, a ** e)
               for e in (1023, 3327, 3903, 4047)]
    assert lclm_many(factors) == parse_poly(
        gf4096, "x^4 + a^2103x^3 + a^687x^2 + a^1848x + a^759")


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_lclm_of_all_conjugates_is_xn_minus_1(all_contexts, all_codes, name):
    ctx = all_contexts[name]
    beta = all_codes[name].beta
    factors = [linear_factor(ctx, ctx.sigma(beta, k)) for k in range(ctx.order)]
    assert lclm_many(factors) == x_pow_n_minus_1(ctx)


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_degree_formula(all_contexts, name):
    ctx = all_contexts[name]
    rng = rng_for(f"degform-{name}")
    rounds = 200
    for _ in range(rounds):
        f = random_nonzero_poly(ctx, rng, rng.randrange(1, 4))
        g = random_nonzero_poly(ctx, rng, rng.randrange(1, 4))
        d = gcrd(f, g)
        m = lclm(f, g)
        assert d.degree + m.degree == f.degree + g.degree
        assert left_divmod(f, d)[1].is_zero and left_divmod(g, d)[1].is_zero
        assert left_divmod(m, f)[1].is_zero and left_divmod(m, g)[1].is_zero


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_lclm_of_distinct_conjugates_has_full_degree(all_contexts, all_codes, name):
    # every subset of conjugate linear factors stays independent
    ctx = all_contexts[name]
    beta = all_codes[name].beta
    n = ctx.order
    factors = [linear_factor(ctx, ctx.sigma(beta, k)) for k in range(n)]
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            assert lclm_many([factors[k] for k in subset]).degree == size


def test_lclm_fold_order_is_irrelevant(gf4096, code_gf):
    rng = rng_for("shuffle")
    beta = code_gf.beta
    factors = [linear_factor(gf4096, gf4096.sigma(beta, k)) for k in range(5)]
    reference = lclm_many(factors)
    for _ in range(10):
        shuffled = factors[:]
        rng.shuffle(shuffled)
        assert lclm_many(shuffled) == reference


def test_lclm_gcrd_zero_inputs_rejected(gf4096):
    zero = SkewPolynomial.zero(gf4096)
    one = SkewPolynomial.one(gf4096)
    with pytest.raises(ValueError):
        gcrd(zero, zero)
    with pytest.raises(ValueError):
        lclm(one, zero)
