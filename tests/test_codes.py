import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from skewrs import (CodeError, ConfigError, CyclotomicField, FieldError, FiniteField,
                    RationalFunctions, SkewPolynomial, build_code,
                    code_from_config, encode, evaluate, find_normal_element,
                    is_normal, left_divmod, parse_poly)
from skewrs import fields
from skewrs.codes import (conjugate_matrix, dual_support, evaluation_matrix, left_divide,
                          root_lclm)
from skewrs.fields import FieldContext

from conftest import rng_for, random_poly
from oracles import (contains, dual_conjugates, full_beta_decomposition_test,
                     generator_by_hankel, identity, is_normal_by_rank, min_distance_oracle,
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
    two = SkewPolynomial(cyclotomic, (cyclotomic.from_int(2),))
    assert two * code_cy.g == printed


def test_delta_two_code_is_single_factor(gf4096):
    code = build_code(gf4096, gf4096.generator, 0, 2)
    assert code.t == 0
    assert code.g == SkewPolynomial(gf4096, (-code.beta, gf4096.one))


def test_encode_zero_and_length_limit(code_gf, gf4096):
    zero = SkewPolynomial(gf4096)
    assert encode(code_gf, zero).is_zero
    too_long = monomial(gf4096, gf4096.one, code_gf.n - code_gf.delta + 1)
    with pytest.raises(CodeError):
        encode(code_gf, too_long)


def test_encode_refusals_keep_their_errors(code_gf, gf4096, gf16):
    with pytest.raises(CodeError, match="^message degree 2 exceeds 1$"):
        encode(code_gf, monomial(gf4096, gf4096.one, 2))
    with pytest.raises(FieldError, match="^elements belong to different field contexts$"):
        encode(code_gf, monomial(gf16, gf16.one, 1))


# the generator rows against the generic kernels: odd characteristic,
# Frobenius and its cube, F_q(z) up to n = 9, and Q(chi) with sigma of order
# 4, 6 and 3
ROW_FIELDS = {
    "gf16-frob": lambda: FiniteField(2, 4, "a^4 + a + 1", frobenius_power=1),
    "gf16-frob3": lambda: FiniteField(2, 4, "a^4 + a + 1", frobenius_power=3),
    "gf81": lambda: FiniteField(3, 4, "a^4 + 2a^3 + 2", frobenius_power=1),
    "gf125": lambda: FiniteField(5, 3, "a^3 + 3a + 2", frobenius_power=1),
    "gf9z": lambda: RationalFunctions(FiniteField(3, 2, "a^2 + 1", frobenius_power=0),
                                      ("1", "a", "1", "0")),
    "f4z": lambda: RationalFunctions(FiniteField(2, 2, "a^2 + a + 1", frobenius_power=0),
                                     ("1", "a", "1", "a^2")),
    "f8z": lambda: RationalFunctions(FiniteField(2, 3, "a^3 + a + 1", frobenius_power=0),
                                     ("0", "1", "1", "a")),
    "chi5": lambda: CyclotomicField(5, 2),
    "chi7-3": lambda: CyclotomicField(7, 3),
    "chi7-2": lambda: CyclotomicField(7, 2),
}


@pytest.fixture(scope="module")
def row_fields():
    out = {}
    for name, make in ROW_FIELDS.items():
        ctx = make()
        out[name] = ctx, find_normal_element(ctx)
    return out


@pytest.mark.parametrize("name", ROW_FIELDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_generator_rows_equal_the_generic_kernels(row_fields, name, data):
    # encode is m * g, and the verify's division is left_divmod by g, raw
    # for raw, at every delta in [2, n] (n - 1 rows down to one), r in
    # {0, 1, n - 1, n + 2}, on codewords, words g does not divide and
    # words shorter than n
    ctx, alpha = row_fields[name]
    n = ctx.order
    delta = data.draw(st.integers(2, n), label="delta")
    r = data.draw(st.sampled_from((0, 1, n - 1, n + 2)), label="r")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    code = build_code(ctx, alpha, r, delta)
    assert code.rows is None
    msg = random_poly(ctx, rng, code.dimension - 1)
    cw = encode(code, msg)
    assert cw.raw == (msg * code.g).raw
    assert len(code.rows) == code.dimension and code.rows[0] == code.g.raw[:-1]
    pos = rng.randrange(n)
    off_code = cw + monomial(ctx, ctx.random_nonzero(rng), pos)
    for word in (cw, off_code, random_poly(ctx, rng, rng.randrange(n))):
        q, rem = left_divmod(word, code.g)
        assert left_divide(code, word.raw) == (q.raw, rem.raw)
    assert left_divide(code, cw.raw) == (msg.raw, ())
    # a codeword plus an error of weight one is none, as the distance is delta >= 2
    assert left_divide(code, off_code.raw)[1] != ()


def test_the_rows_are_filled_on_first_use_and_not_copied(code_gf, gf4096):
    code = build_code(gf4096, gf4096.generator, 0, 5)
    assert code.rows is None and code == code_gf
    encode(code, monomial(gf4096, gf4096.one, 1))
    assert len(code.rows) == 2 and code == code_gf
    # a replaced generator gets rows of its own
    other = dataclasses.replace(code, g=code.g * SkewPolynomial.variable(gf4096))
    assert other.rows is None


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
    # the one table is the unshifted conjugates of alpha, and the code
    # keeps their inverses beside it
    assert code.conj == [gf4096.sigma(code.alpha, k).raw for k in range(code.n)]
    assert code.conj_inv == [gf4096.inv(c) for c in code.conj]
    assert code.conj_table == gf4096.conjugate_table(code.conj)
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
    # over the conjugate table and over the dual table, both unscaled
    code = sum_codes[name]
    ctx, n = code.ctx, code.n
    tables = [(code.conj_table, FieldContext.conjugate_table(ctx, code.conj)),
              (code.dual_table, FieldContext.conjugate_table(
                  ctx, [v.raw for v in dual_conjugates(code)]))]
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


@pytest.fixture(scope="module")
def generator_codes(sum_codes):
    """The sum codes plus one over GF(9)(z), sigma(z) = (z + a)/z of order 5."""
    base = FiniteField(3, 2, "a^2 + 1", frobenius_power=0)
    ctx = RationalFunctions(base, ("1", "a", "1", "0"))
    return dict(sum_codes, gf9z=build_code(ctx, find_normal_element(ctx), 0, 2))


@pytest.mark.parametrize("name", ["gf4096", "gf81", "gf125", "rational", "cyclotomic", "gf9z"])
def test_generator_equals_the_hankel_solution(generator_codes, name):
    # the root-by-root lclm against the d x d Hankel solve, for every delta
    # and offsets below, at and past n
    code = generator_codes[name]
    ctx, n = code.ctx, code.n
    for r in (0, 1, n - 1, n, 2 * n + 1):
        for delta in range(2, n + 1):
            g = build_code(ctx, code.alpha, r, delta).g
            assert g.raw == generator_by_hankel(ctx, code.conj, r, delta - 1)


def _f8z_code():
    # F_8(z), sigma(z) = 1/(z + a), n = 9
    ctx = RationalFunctions(FiniteField(2, 3, "a^3 + a + 1", frobenius_power=0),
                            ("0", "1", "1", "a"))
    return build_code(ctx, ctx.generator, 0, 2)


@pytest.mark.parametrize("name", ["gf4096", "gf81", "gf125", "rational", "cyclotomic", "gf9z",
                                  "f8z"])
def test_dual_table_is_the_inverse_row_for_every_offset_and_delta(generator_codes, name):
    # build_code's one root walk hands the dual either the lclm h of every
    # root but m = 0 or, at delta = n, g itself rotated by r - 1; either way
    # the table is the first row of C(alpha)^(-1)
    code = _f8z_code() if name == "f8z" else generator_codes[name]
    ctx, n = code.ctx, code.n
    want = ctx.conjugate_table([v.raw for v in dual_conjugates(code)])
    for r in (0, 1, n - 1, n, 2 * n + 1):
        for delta in range(2, n + 1):
            assert build_code(ctx, code.alpha, r, delta).dual_table == want


@pytest.mark.parametrize("power, modulus, degree", [(3, "a^4 + a + 1", 4),
                                                    (2, "a^6 + a + 1", 6)],
                         ids=["gf16-frob3", "gf64-frob2"])
def test_build_refuses_exactly_the_non_normal_alphas_at_every_split(power, modulus, degree):
    # each step that can refuse does so for some alpha, r and delta here:
    # the walk of c (g's roots but m = 0), root 0's step, h's walk from c,
    # and lambda at j = 0 and, at delta = n, at j = r - 1
    ctx = FiniteField(2, degree, modulus, frobenius_power=power)
    n = ctx.order
    for alpha in ctx.elements():
        normal = is_normal_by_rank(ctx, alpha)
        for r in (0, 1, n - 1):
            for delta in sorted({2, n - 1, n}):
                if normal:
                    build_code(ctx, alpha, r, delta)
                else:
                    with pytest.raises(CodeError, match="^alpha is not a normal element$"):
                        build_code(ctx, alpha, r, delta)


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic", "f8z"])
def test_build_walks_each_beta_root_once(all_codes, name, monkeypatch):
    # root_lclm twists the product once per root step.  g and h share
    # every root of g but m = 0, so a build takes n steps when 0 is one of
    # g's roots and delta < n, and n - 1 otherwise: at delta = n, g is
    # already the lclm of every root but r - 1
    code = _f8z_code() if name == "f8z" else all_codes[name]
    ctx, n = code.ctx, code.n
    calls = []
    monkeypatch.setattr("skewrs.codes.poly_twist",
                        lambda *a: calls.append(a) or fields.poly_twist(*a))
    for r in (0, 2):
        for delta in (2, n - 1, n):
            calls.clear()
            build_code(ctx, code.alpha, r, delta)
            shared_zero = delta < n and 0 in {(r + i) % n for i in range(delta - 1)}
            assert len(calls) == (n if shared_zero else n - 1)


@pytest.mark.parametrize("p, degree, modulus, power, count", [
    (2, 4, "a^4 + a + 1", 3, 8),
    (2, 6, "a^6 + a + 1", 1, 24),
    (2, 6, "a^6 + a + 1", 2, 27),
    (3, 4, "a^4 + 2a^3 + 2", 1, 32),
], ids=["gf16-frob3", "gf64-frob", "gf64-frob2", "gf81-frob"])
def test_is_normal_agrees_with_the_rank_of_the_conjugate_matrix(p, degree, modulus, power,
                                                                 count):
    # every element; the normal ones number Phi_q(x^n - 1), q the fixed
    # field's size, and each one's dual table is the inverse's first row
    ctx = FiniteField(p, degree, modulus, frobenius_power=power)
    normal = [x for x in ctx.elements() if is_normal(ctx, x)]
    assert normal == [x for x in ctx.elements() if is_normal_by_rank(ctx, x)]
    assert len(normal) == count
    for alpha in normal:
        code = build_code(ctx, alpha, 0, 2)
        assert code.dual_table == ctx.conjugate_table([v.raw for v in dual_conjugates(code)])


@pytest.mark.parametrize("name", ["f8z", "cyclotomic"])
def test_dual_support_reduces_once_per_nonzero_term(all_codes, name, monkeypatch):
    # w_(i+mu) = -sum_k sigma^i(f_k) * w_(i+k) is a chain of a + c * b
    # steps.  Over Q(chi) each is reduced once, in _make.  Over F_8(z)
    # (sigma(z) = 1/(z + a), n = 9) f's low coefficients are cleared once
    # per call to the lcm of their distinct denominators, one gcd for each
    # after the first; the rows are the substitutions of the cleared ones,
    # with no gcd, and w stays in F_8[z], so the steps take no gcd.  The
    # zero tests over the dual table are not counted.  Over F_8(z) the
    # support is also the one that the unscaled rows give.
    if name == "f8z":
        ctx = RationalFunctions(FiniteField(2, 3, "a^3 + a + 1", frobenius_power=0),
                                ("0", "1", "1", "a"))
        code = build_code(ctx, ctx.generator, 0, 5)
    else:
        code = all_codes[name]
    ctx, n = code.ctx, code.n
    calls, words = [], []
    if name == "f8z":
        gcrd = fields.poly_gcrd
        monkeypatch.setattr(fields, "poly_gcrd", lambda *a: calls.append(a) or gcrd(*a))
    else:
        make = CyclotomicField._make
        monkeypatch.setattr(CyclotomicField, "_make",
                            lambda self, *a: calls.append(a) or make(self, *a))
    zeros = ctx.conjugate_zeros

    def uncounted_zeros(table, w, count, offset):
        words.append(list(w))
        before = len(calls)
        out = zeros(table, w, count, offset)
        del calls[before:]
        return out

    monkeypatch.setattr(ctx, "conjugate_zeros", uncounted_zeros)
    rng = rng_for(f"dual-support-reductions-{name}")
    total = 0
    for mu in (2, 3):
        for _ in range(5):
            f = SkewPolynomial(ctx, [ctx.random_nonzero(rng) for _ in range(mu)] + [ctx.one])
            calls.clear()
            words.clear()
            offset = rng.randrange(n)
            support = dual_support(code, f, offset)
            if name == "f8z":
                assert len(calls) == max(len({d for num, d in f.raw[:mu] if num}) - 1, 0)
                with monkeypatch.context() as m:
                    m.setattr(RationalFunctions, "kernel_rows", FieldContext.kernel_rows)
                    assert dual_support(code, f, offset) == support
            else:
                terms = sum(v != ctx.zero_raw for w in words for i in range(n - mu)
                            for v in w[i:i + mu])
                assert len(calls) <= terms
            total += len(calls)
    assert total


def test_dual_support_of_a_root_lclm_over_f8z_is_its_roots():
    # F_8(z), sigma(z) = 1/(z + a), n = 9: the lclm of x - sigma^m(beta) for
    # count consecutive m has exactly those beta-roots, read at an offset.
    # Degrees 3 and up meet kernel_rows' scaled start entries
    ctx = RationalFunctions(FiniteField(2, 3, "a^3 + a + 1", frobenius_power=0),
                            ("0", "1", "1", "a"))
    code = build_code(ctx, ctx.generator, 0, 2)
    n = code.n
    for count in range(1, 6):
        for start in range(n):
            f = SkewPolynomial.from_raw(ctx, root_lclm(ctx, code.conj, range(start, start + count)))
            for offset in (0, 4):
                assert dual_support(code, f, offset) == sorted(
                    (start + k - offset) % n for k in range(count))


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
