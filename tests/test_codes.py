import pytest

from skewrs import (CodeError, ConfigError, FiniteField, SkewPolynomial,
                    build_code, code_from_config, encode, evaluate,
                    find_normal_element, is_normal, left_divmod,
                    min_distance_oracle, parse_poly)
from skewrs.codes import conjugate_matrix, evaluation_matrix
from skewrs.fields import FieldContext

from conftest import rng_for, random_poly
from oracles import (contains, dual_conjugates, full_beta_decomposition_test, identity,
                     monomial, norm_column, right_eval)


def test_zero_is_not_normal(gf4096):
    assert not is_normal(gf4096, gf4096.zero)


def test_one_is_not_normal_for_nontrivial_sigma(gf4096):
    assert not is_normal(gf4096, gf4096.one)


def test_reference_normal_elements(gf4096, rational, cyclotomic):
    assert is_normal(gf4096, gf4096.generator)
    assert is_normal(rational, rational.generator)
    assert is_normal(cyclotomic, cyclotomic.generator)


def test_find_normal_element(all_contexts):
    for ctx in all_contexts.values():
        alpha = find_normal_element(ctx)
        assert is_normal(ctx, alpha)


def test_find_normal_element_skips_non_normal_generator(gf16):
    # the modulus root of this field has linearly dependent conjugates
    assert not is_normal(gf16, gf16.generator)
    alpha = find_normal_element(gf16)
    assert is_normal(gf16, alpha)


def test_build_rejects_bad_parameters(gf4096):
    a = gf4096.generator
    with pytest.raises(CodeError):
        build_code(gf4096, a, 0, 1)
    with pytest.raises(CodeError):
        build_code(gf4096, a, 0, 7)
    with pytest.raises(CodeError):
        build_code(gf4096, a, -1, 5)
    with pytest.raises(CodeError):
        build_code(gf4096, gf4096.one, 0, 5)


def test_reference_generator(code_gf, gf4096):
    assert code_gf.g == parse_poly(
        gf4096, "x^4 + a^2103x^3 + a^687x^2 + a^1848x + a^759")
    assert code_gf.t == 2
    assert code_gf.beta == gf4096.generator ** 1023


def test_scaled_reference_generator(code_cy, cyclotomic):
    printed = parse_poly(
        cyclotomic,
        "2x^4 + (-chi^5 - chi^3 - chi^2)x^3 + (chi^3 + chi + 1)x^2"
        " + (chi^5 + chi^4 + 1)x + chi^5 - chi^2 + chi + 1")
    two = SkewPolynomial.constant(cyclotomic, cyclotomic.from_int(2))
    assert two * code_cy.g == printed


def test_delta_two_code_is_single_factor(gf4096):
    code = build_code(gf4096, gf4096.generator, 0, 2)
    assert code.t == 0
    assert code.g == SkewPolynomial(gf4096, (-code.beta, gf4096.one))


def test_encode_zero_and_length_limit(code_gf, gf4096):
    zero = SkewPolynomial.zero(gf4096)
    assert encode(code_gf, zero).is_zero
    too_long = monomial(gf4096, gf4096.one, code_gf.n - code_gf.delta + 1)
    with pytest.raises(CodeError):
        encode(code_gf, too_long)


def test_generator_divides_x_n_minus_1(all_codes):
    for code in all_codes.values():
        ctx = code.ctx
        xn1 = SkewPolynomial(
            ctx, [-ctx.one] + [ctx.zero] * (code.n - 1) + [ctx.one])
        assert left_divmod(xn1, code.g)[1].is_zero


@pytest.mark.parametrize("name", ["gf4096", "gf81", "gf125", "rational", "cyclotomic"])
def test_dual_conjugates_invert_the_conjugate_matrix(sum_codes, name):
    # C(alpha) * C(alpha*) = I: Tr(sigma^i(alpha) * sigma^j(alpha*)) = delta_ij
    code = sum_codes[name]
    ctx, n = code.ctx, code.n
    dual = dual_conjugates(code)
    assert conjugate_matrix(ctx, code.conj, range(n), n) * \
        conjugate_matrix(ctx, [v.raw for v in dual], range(n), n) == identity(ctx, n)
    assert dual[1] == ctx.sigma(dual[0])


def test_build_rejects_a_non_normal_alpha(gf16):
    # the modulus root of this field has linearly dependent conjugates
    with pytest.raises(CodeError, match="alpha is not a normal element"):
        build_code(gf16, gf16.generator, 0, 3)


def test_evaluation_matrix_is_nonsingular(all_codes):
    for code in all_codes.values():
        assert evaluation_matrix(code).rank() == code.n


def test_codeword_evaluations_vanish_on_defining_set(all_codes):
    for name, code in all_codes.items():
        ctx = code.ctx
        rng = rng_for(f"eval-{name}")
        msg = random_poly(ctx, rng, code.n - code.delta)
        vec = encode(code, msg).vector(code.n)
        N = evaluation_matrix(code)
        for col in range(code.delta - 1):
            acc = ctx.zero
            for i, v in enumerate(vec):
                if v:
                    acc = acc + v * N.rows[i][col]
            assert not acc


def test_vector_matrix_route_equals_polynomial_route(all_codes):
    # v(f) * N column j must equal the right evaluation at sigma^j(beta)
    for name, code in all_codes.items():
        ctx = code.ctx
        N = evaluation_matrix(code)
        rng = rng_for(f"route-{name}")
        for _ in range(20):
            f = random_poly(ctx, rng, code.n - 1)
            vec = f.vector(code.n)
            for j in range(code.n):
                acc = ctx.zero
                for i, v in enumerate(vec):
                    if v:
                        acc = acc + v * N.rows[i][j]
                assert acc == right_eval(f, ctx.sigma(code.beta, j))


def test_full_beta_decomposition_of_generator(all_codes):
    for code in all_codes.values():
        assert full_beta_decomposition_test(code.g, code) == set(range(code.delta - 1))


def test_full_beta_decomposition_single_factor(code_gf, gf4096):
    for k in range(code_gf.n):
        f = SkewPolynomial(gf4096, (-gf4096.sigma(code_gf.beta, k), gf4096.one))
        assert full_beta_decomposition_test(f, code_gf) == {k}


def test_divisor_without_beta_roots_is_not_decomposable(code_gf, gf4096):
    # x + a^981 right-divides x^6 - 1 but has no beta-root at all: it is
    # the locator seed that forces the decoder's echelon branch
    f = parse_poly(gf4096, "x + a^981")
    assert full_beta_decomposition_test(f, code_gf) is None
    assert all(bool(v) for v in evaluate(code_gf, f.vector(code_gf.n), code_gf.n, 0))


def test_full_beta_decomposition_rejects_non_divisor(code_gf, gf4096):
    with pytest.raises(CodeError):
        full_beta_decomposition_test(parse_poly(gf4096, "x + a"), code_gf)


def test_shift_property_of_codewords(all_codes):
    # (c_0..c_{n-1}) in C  =>  (sigma(c_{n-1}), sigma(c_0), ..)
    for name, code in all_codes.items():
        ctx = code.ctx
        rng = rng_for(f"shift-{name}")
        rounds = 100 if name != "rational" else 25
        for _ in range(rounds):
            msg = random_poly(ctx, rng, code.n - code.delta)
            vec = encode(code, msg).vector(code.n)
            shifted = [ctx.sigma(vec[-1])] + [ctx.sigma(v) for v in vec[:-1]]
            assert contains(code, SkewPolynomial(ctx, shifted))


def test_nonzero_offset_reduces_to_narrow_sense(gf4096):
    code = build_code(gf4096, gf4096.generator, 2, 4)
    assert code.g.degree == 3
    # the one table is the unshifted conjugates of alpha and their inverses
    assert code.conj == [gf4096.sigma(code.alpha, k).raw for k in range(code.n)]
    assert code.conj_table == gf4096.conjugate_table(code.conj,
                                                     [gf4096.inv(c) for c in code.conj])
    assert full_beta_decomposition_test(code.g, code) == {2, 3, 4}
    # read from index r, the table evaluates at the shifted beta-roots:
    # x^i at sigma^(r+j)(beta) is the norm N_i(sigma^(r+j)(beta))
    n = code.n
    rows = [evaluate(code, [gf4096.one if k == i else gf4096.zero for k in range(n)],
                     n, code.r) for i in range(n)]
    for j in range(n):
        column = norm_column(gf4096.sigma(code.beta, code.r + j), n)
        assert [row[j] for row in rows] == column


@pytest.fixture(scope="module")
def sum_codes(all_codes):
    """The three backend codes plus two tabled odd-characteristic ones."""
    codes = dict(all_codes)
    for name, ctx in (("gf81", FiniteField(3, 4, "a^4 + 2a^3 + 2", frobenius_power=1)),
                      ("gf125", FiniteField(5, 3, "a^3 + 3a + 2", frobenius_power=1))):
        codes[name] = build_code(ctx, find_normal_element(ctx), 0, 2)
    return codes


@pytest.mark.parametrize("name", ["gf4096", "gf81", "gf125", "rational", "cyclotomic"])
def test_conjugate_sums_equal_the_generic_route(sum_codes, name):
    # over the conjugate table and over the dual table, whose scales are one
    code = sum_codes[name]
    ctx, n = code.ctx, code.n
    tables = [(code.conj_table, FieldContext.conjugate_table(
                  ctx, code.conj, [ctx.inv(c) for c in code.conj])),
              (code.dual_table, FieldContext.conjugate_table(
                  ctx, [v.raw for v in dual_conjugates(code)], [ctx.one_raw] * n))]
    rng = rng_for(f"conjugate-sums-{name}")
    # zeros, ones and random values, in words of every length up to n; and
    # 7, whose sums over the Q(chi_7) dual (denominator 7) must be reduced
    words = [[rng.choice((ctx.zero, ctx.one, ctx.random_element(rng))).raw
              for _ in range(rng.randrange(n + 1))] for _ in range(4)]
    for vec in words + [[ctx.from_int(7).raw]]:
        for offset in range(2 * n + 1):
            for count in range(n + 1):
                for table, generic in tables:
                    assert ctx.conjugate_sums(table, vec, count, offset) == \
                        FieldContext.conjugate_sums(ctx, generic, vec, count, offset)


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_evaluate_is_right_evaluation_at_the_beta_roots(all_codes, name):
    code = all_codes[name]
    ctx, n = code.ctx, code.n
    rng = rng_for(f"evaluate-oracle-{name}")
    for _ in range(2):
        vec = [ctx.random_element(rng) for _ in range(n)]
        f = SkewPolynomial(ctx, vec)
        for k in range(2 * n):
            assert evaluate(code, vec, n, k) == \
                [right_eval(f, ctx.sigma(code.beta, k + j)) for j in range(n)]


def test_min_distance_of_small_mds_codes(gf16, gf8):
    code43 = build_code(gf16, find_normal_element(gf16), 0, 3)
    assert min_distance_oracle(code43) == 3
    code33 = build_code(gf8, find_normal_element(gf8), 0, 3)
    assert min_distance_oracle(code33) == 3


def test_min_distance_declines_over_budget(gf16):
    code = build_code(gf16, find_normal_element(gf16), 0, 3)
    with pytest.raises(CodeError):
        min_distance_oracle(code, budget=10)


def test_min_distance_declines_infinite_field(code_rf):
    with pytest.raises(CodeError):
        min_distance_oracle(code_rf)


def test_generator_weight_equals_distance(code_gf):
    assert sum(1 for c in code_gf.g.coeffs if c) == code_gf.delta


def test_config_round_trip():
    text = """
field.kind = finite-field
field.p = 2
field.degree = 4
field.modulus = a^4 + a + 1
sigma.frobenius_power = 1
alpha = a^3
delta = 3
"""
    ctx, code = code_from_config(text)
    assert code.n == 4 and code.delta == 3 and code.t == 1


def test_config_errors():
    with pytest.raises(ConfigError):
        code_from_config("field.kind = finite-field\n")  # missing keys
    with pytest.raises(ConfigError):
        code_from_config("nonsense line\n")
    with pytest.raises(ConfigError):
        code_from_config("""
field.kind = finite-field
field.p = 2
field.degree = 4
field.modulus = a^4 + a + 1
sigma.frobenius_power = 1
alpha = a^3
delta = 9
""")  # delta out of range
