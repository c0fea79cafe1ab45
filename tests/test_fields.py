import gc
import itertools
import math
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import skewrs
from skewrs import (CyclotomicField, Element, FieldError, FiniteField,
                    RationalFunctions, build_code, find_normal_element,
                    parse_element)
from skewrs.fields import poly_divmod, poly_gcrd, poly_mul, poly_trim

from conftest import GF4096_MODULUS, rng_for
from oracles import (dual_conjugates, fixed_field_check, from_fraction, gcrd_by_divmod,
                     over_product_denominator, sigma_by_ladder)

N_PAIRS = 1000


def test_sigma_of_generator_matches_frobenius_power(gf4096):
    a = gf4096.generator
    assert gf4096.sigma(a, 1) == a ** 1024


def test_sigma_order_is_six(gf4096):
    a = gf4096.generator
    assert gf4096.sigma(a, gf4096.order) == a
    for k in range(1, gf4096.order):
        assert gf4096.sigma(a, k) != a


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_sigma_has_exact_order_on_generator(all_contexts, name):
    ctx = all_contexts[name]
    gen = ctx.generator
    assert ctx.sigma(gen, ctx.order) == gen
    for k in range(1, ctx.order):
        assert ctx.sigma(gen, k) != gen


def test_sigma_negative_power_is_inverse(gf4096):
    a = gf4096.generator
    x = a ** 321
    assert gf4096.sigma(gf4096.sigma(x, 1), -1) == x
    assert gf4096.sigma(x, -2) == gf4096.sigma(x, gf4096.order - 2)


def test_rational_sigma_of_z(rational):
    z = rational.generator
    expected = parse_element(rational, "(z+a)/(z+a^2)")
    assert rational.sigma(z, 1) == expected


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic", "gf17"])
def test_field_axioms_on_random_pairs(all_contexts, name):
    # GF(17) takes the degree-1 route of odd-characteristic add and neg
    ctx = all_contexts.get(name) or FiniteField(17, 1, "a + 14", frobenius_power=0)
    rng = rng_for(f"axioms-{name}")
    one = ctx.one
    for _ in range(N_PAIRS):
        x = ctx.random_element(rng)
        y = ctx.random_element(rng)
        z = ctx.random_element(rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x and x * y == y * x
        if y:
            assert (x * y) / y == x
            assert y * y.inverse() == one


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_sigma_is_a_field_homomorphism(all_contexts, name):
    ctx = all_contexts[name]
    rng = rng_for(f"hom-{name}")
    for _ in range(N_PAIRS):
        x = ctx.random_element(rng)
        y = ctx.random_element(rng)
        k = rng.randrange(ctx.order)
        assert ctx.sigma(x + y, k) == ctx.sigma(x, k) + ctx.sigma(y, k)
        assert ctx.sigma(x * y, k) == ctx.sigma(x, k) * ctx.sigma(y, k)


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic", "f256z", "f9z"])
def test_print_parse_round_trip(round_trip_contexts, name):
    ctx = round_trip_contexts[name]
    rng = rng_for(f"roundtrip-{name}")
    for _ in range(N_PAIRS):
        x = ctx.random_element(rng)
        assert parse_element(ctx, ctx.format(x)) == x


def test_fixed_field_membership(gf4096):
    assert fixed_field_check(gf4096, gf4096.one)
    assert not fixed_field_check(gf4096, gf4096.generator)


def test_fixed_field_sum_of_all_roots(cyclotomic):
    # oracle: sigma permutes chi^j -> chi^(3j mod 7); the sum over all
    # primitive roots is invariant under any such permutation
    chi = cyclotomic.generator
    x = sum((chi ** k for k in range(2, 7)), chi)
    exponents = [(3 * j) % 7 for j in range(1, 7)]
    oracle_image = sum((chi ** e for e in exponents[1:]), chi ** exponents[0])
    assert oracle_image == x
    assert fixed_field_check(cyclotomic, x)
    assert not fixed_field_check(cyclotomic, chi)


def test_power_notation_reduces_large_exponents(gf4096):
    x = parse_element(gf4096, "a^2103")
    assert x == gf4096.generator ** 2103
    # printing stays within [0, p^d - 2]
    assert gf4096.format(x) == "a^2103"
    wrapped = parse_element(gf4096, "a^6198")  # 6198 = 2103 + 4095
    assert wrapped == x


def test_zero_parses_everywhere(all_contexts):
    for ctx in all_contexts.values():
        assert parse_element(ctx, "0") == ctx.zero


def test_rational_canonical_form_is_reduced_and_monic(rational):
    x = parse_element(rational, "(z+a)/(z^2+a^2*z)")
    z = rational.generator
    a = rational.from_base(rational.base.generator)
    assert x == (z + a) / (z * z + a * a * z)
    # denominator monic and coprime to the numerator
    assert x.raw[1][-1] == 1
    num_times_back = x * (z * z + a * a * z)
    assert num_times_back == z + a
    rng = rng_for("rf-canonical")
    for _ in range(100):
        u = rational.random_element(rng, 2, 2)
        v = rational.random_element(rng, 2, 2)
        for w in (u * v, u.inverse() if u else u):
            num, den = w.raw
            assert den[-1] == 1
            assert poly_gcrd(rational.base, num, den) == (1,)


def test_rational_base_must_have_trivial_sigma():
    twisted = FiniteField(2, 2, "a^2 + a + 1", frobenius_power=1)
    with pytest.raises(FieldError):
        RationalFunctions(twisted, ("1", "a", "1", "a^2"))


def test_rational_product_by_one_is_the_operand(rational):
    rng = rng_for("rf-one")
    one = rational.one.raw
    assert rational.inv(one) is one
    for _ in range(50):
        x = rational.random_element(rng).raw
        if x != one:
            assert rational.mul(one, x) is x and rational.mul(x, one) is x


def _counted_gcrd(monkeypatch):
    """The list that records each poly_gcrd call from now on."""
    real, calls = skewrs.fields.poly_gcrd, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(skewrs.fields, "poly_gcrd", counted)
    return calls


def test_rational_sum_with_zero_makes_no_gcd(rational, monkeypatch):
    rng = rng_for("rf-zero-add")
    xs = [rational.random_element(rng, 3, 3).raw for _ in range(50)]
    calls = _counted_gcrd(monkeypatch)
    zero = rational.zero.raw
    for x in xs:
        assert rational.add(zero, x) is x and rational.add(x, zero) is x
    assert calls == []


def test_rational_sums_reduce_once_per_output(code_rf, monkeypatch):
    # clearing vec to the lcm of its distinct denominators pays one gcd per
    # denominator after the first; then each nonzero output pays one, in
    # _make, not one per term, and a zero output none
    ctx, n = code_rf.ctx, code_rf.n
    rng = rng_for("rf-sums-gcd")
    words = [[ctx.random_nonzero(rng, 2, 2).raw for _ in range(n)] for _ in range(4)]
    calls = _counted_gcrd(monkeypatch)
    for vec in words:
        clearing = len({den for _, den in vec}) - 1
        for offset in range(n):
            for count in range(1, n + 1):
                calls.clear()
                sums = ctx.conjugate_sums(code_rf.conj_table, vec, count, offset)
                assert len(calls) == clearing + sum(v != ctx.zero_raw for v in sums)


RATIONAL_CONTEXTS = {
    # odd characteristic, sigma(z) = (z + a)/z of order 5
    "gf9z": lambda: RationalFunctions(FiniteField(3, 2, "a^2 + 1", frobenius_power=0),
                                      ("1", "a", "1", "0")),
    # an affine sigma (c = 0): sigma(z) = (z + 1)/a, of order 3
    "affine": lambda: RationalFunctions(FiniteField(2, 2, "a^2 + a + 1", frobenius_power=0),
                                        ("1", "1", "0", "a")),
    # sigma(z) = 1/(z + a) of order 9
    "f8z": lambda: RationalFunctions(FiniteField(2, 3, "a^3 + a + 1", frobenius_power=0),
                                     ("0", "1", "1", "a")),
}


def _rational_context(name, request):
    if name in RATIONAL_CONTEXTS:
        return RATIONAL_CONTEXTS[name]()
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["rational", "gf9z", "affine"])
def test_sigma_raw_equals_the_ladder_oracle(name, request):
    ctx = _rational_context(name, request)
    rng = rng_for(f"sigma-ladder-{name}")
    elements = [ctx.zero_raw, ctx.one_raw, ctx.generator_raw]
    for deg in range(13):
        for _ in range(2):
            other = rng.randrange(13)
            elements.append(ctx.random_element(rng, deg, other).raw)
            elements.append(ctx.random_element(rng, other, deg).raw)
    for u in elements:
        for k in range(-ctx.order, 2 * ctx.order + 1):
            assert ctx.sigma_raw(u, k) == sigma_by_ladder(ctx, u, k)


@pytest.mark.parametrize("name", ["rational", "gf9z", "affine"])
def test_rational_sigma_makes_no_gcd(name, request, monkeypatch):
    ctx = _rational_context(name, request)
    rng = rng_for(f"sigma-no-gcd-{name}")
    xs = [ctx.random_element(rng, rng.randrange(9), rng.randrange(9)).raw for _ in range(30)]
    calls = _counted_gcrd(monkeypatch)
    for x in xs:
        for k in range(ctx.order):
            ctx.sigma_raw(x, k)
    assert calls == []


@pytest.mark.parametrize("name", ["rational", "gf9z"])
def test_rational_add_scaled_reduces_once_per_entry(name, request, monkeypatch):
    ctx = _rational_context(name, request)
    rng = rng_for(f"add-scaled-gcd-{name}")
    cases = []
    for _ in range(60):
        src = [rng.choice((ctx.zero, ctx.one, ctx.random_nonzero(rng, 2, 2))).raw
               for _ in range(rng.randrange(6))]
        acc = [rng.choice((ctx.zero, ctx.one, ctx.random_element(rng, 2, 2))).raw
               for _ in range(len(src) + 2)]
        c = rng.choice((ctx.one, ctx.random_nonzero(rng, 2, 2))).raw
        cases.append((acc, c, src))
    calls = _counted_gcrd(monkeypatch)
    for acc, c, src in cases:
        calls.clear()
        ctx.add_scaled(acc, c, src, rng.randrange(3))
        assert len(calls) <= sum(1 for b in src if b != ctx.zero_raw)


def _clearing_words(ctx, rng):
    """Words over F_q(z) whose nonzero entries have repeated denominators,
    denominators that share a factor, coprime ones and one alone, with zero
    entries among them."""
    base = ctx.base

    def poly(deg):
        return poly_trim(base, [rng.randrange(base.size) for _ in range(deg)] + [1])

    def frac(den):
        return ctx._make(poly_trim(base, [rng.randrange(base.size) for _ in range(4)]), den)

    p, q, s = poly(1), poly(2), poly(2)
    zero = ctx.zero_raw
    return [[frac(p), frac(p), frac(poly_mul(base, p, q)), frac(s), zero],
            [frac(poly_mul(base, p, q)), zero, frac(poly_mul(base, q, s)), frac(q)],
            [zero, frac(s), zero],
            [frac(poly_mul(base, p, p)), frac(p), frac(poly_mul(base, s, p))],
            [zero, zero],
            []]


@pytest.mark.parametrize("name", ["rational", "gf9z", "affine", "f8z"])
def test_lcm_and_product_clearings_agree(name, request, monkeypatch):
    # conjugate_table, conjugate_sums and conjugate_zeros with fractions
    # cleared to the lcm of their denominators, and to their product
    ctx = _rational_context(name, request)
    n = ctx.order
    conj = [ctx.sigma_raw(find_normal_element(ctx).raw, k) for k in range(n)]
    rng = rng_for(f"clearings-{name}")
    values = [conj] + _clearing_words(ctx, rng)[:2]
    words = _clearing_words(ctx, rng)
    words.append([ctx.random_element(rng, 2, 2).raw for _ in range(n)])
    # the lcm is a proper divisor of the product
    assert ctx._over_one_denominator(words[0])[1] != over_product_denominator(ctx, words[0])[1]
    results = []
    for clearing in (None, over_product_denominator):
        with monkeypatch.context() as patch:
            if clearing:
                patch.setattr(RationalFunctions, "_over_one_denominator", clearing)
            tables = [ctx.conjugate_table(v) for v in values]
            # a table denotes its values whatever denominator they share
            for (nums, den), v in zip(tables, values):
                assert [ctx._make(num, den) for num in nums] == v * 2
            out = []
            for table, v in zip(tables, values):
                for vec in words:
                    vec = vec[:len(v)]
                    for offset in (0, n - 1, n, 2 * n + 1):
                        for count in {0, 1, len(v)}:
                            out.append(ctx.conjugate_sums(table, vec, count, offset))
                            out.append(ctx.conjugate_zeros(table, vec, count, offset))
            results.append(out)
    assert results[0] == results[1]
    assert any(any(z) for z in results[0][1::2])


def _counted_cyclotomic_make(monkeypatch):
    """The list that records each CyclotomicField._make call from now on."""
    real, calls = CyclotomicField._make, []

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(CyclotomicField, "_make", counted)
    return calls


def test_cyclotomic_product_reduces_once(cyclotomic, monkeypatch):
    ctx = cyclotomic
    rng = rng_for("cy-mul-make")
    xs = [rng.choice((ctx.zero, ctx.one, ctx.random_element(rng))).raw for _ in range(60)]
    calls = _counted_cyclotomic_make(monkeypatch)
    for x, y in zip(xs, xs[1:]):
        calls.clear()
        ctx.mul(x, y)
        assert len(calls) == 1


def test_cyclotomic_add_scaled_reduces_once_per_entry(cyclotomic, monkeypatch):
    ctx = cyclotomic
    rng = rng_for("cy-add-scaled-make")
    cases = []
    for _ in range(60):
        src = [rng.choice((ctx.zero, ctx.one, ctx.random_nonzero(rng))).raw
               for _ in range(rng.randrange(6))]
        acc = [rng.choice((ctx.zero, ctx.one, ctx.random_element(rng))).raw
               for _ in range(len(src) + 2)]
        c = rng.choice((ctx.zero, ctx.one, ctx.random_nonzero(rng))).raw
        cases.append((acc, c, src))
    calls = _counted_cyclotomic_make(monkeypatch)
    for acc, c, src in cases:
        calls.clear()
        ctx.add_scaled(acc, c, src, rng.randrange(3))
        assert len(calls) <= sum(1 for b in src if b != ctx.zero_raw)


@pytest.mark.parametrize("table", ["conj_table", "dual_table"])
def test_cyclotomic_sums_reduce_once_per_output(code_cy, monkeypatch, table):
    # over either table, each output is reduced once, in _make
    ctx, n = code_cy.ctx, code_cy.n
    table = getattr(code_cy, table)
    rng = rng_for("cy-sums-make")
    words = [[rng.choice((ctx.zero, ctx.random_nonzero(rng))).raw for _ in range(n)]
             for _ in range(6)]
    words.append([ctx.zero_raw] * n)
    calls = _counted_cyclotomic_make(monkeypatch)
    for vec in words:
        for offset in range(n):
            for count in range(1, n + 1):
                calls.clear()
                ctx.conjugate_sums(table, vec, count, offset)
                assert len(calls) == count


POLY_CONTEXTS = ["gf9", "f4", "gf16", "gf4096", "rational", "cyclotomic"]


@pytest.mark.parametrize("name", POLY_CONTEXTS)
def test_poly_gcrd_equals_the_divmod_euclid(name, request):
    # F_9[z] and F_4[z] (sigma = id), then skew rings over each backend
    bases = {"gf9": (3, "a^2 + 1"), "f4": (2, "a^2 + a + 1")}
    if name in bases:
        p, modulus = bases[name]
        ctx = FiniteField(p, 2, modulus, frobenius_power=0)
    else:
        ctx = request.getfixturevalue(name)
    rng = rng_for(f"gcrd-oracle-{name}")

    def poly(deg):
        return poly_trim(ctx, [ctx.random_element(rng).raw for _ in range(deg + 1)])

    const = (ctx.random_nonzero(rng).raw,)
    cases = [((), ()), ((), poly(3)), (poly(3), ()), (const, poly(3)), (poly(4), const),
             (const, ()), ((), const), ((ctx.one_raw,), const)]
    for _ in range(25):
        # a planted common right factor h
        h = poly(rng.randrange(1, 4))
        f, g = poly_mul(ctx, poly(rng.randrange(5)), h), poly_mul(ctx, poly(rng.randrange(5)), h)
        cases.append((f, g))
        got = poly_gcrd(ctx, f, g)
        if got and h:
            assert poly_divmod(ctx, got, h)[1] == ()
    for f, g in cases:
        assert poly_gcrd(ctx, f, g) == gcrd_by_divmod(ctx, f, g)


PROTOCOL_CONTEXTS = ["gf4096", "gf81", "gf125", "gf4096-untabled", "rational", "gf9z",
                     "cyclotomic", "chi7-order3"]


def _protocol_context(name, request, monkeypatch):
    # tabled GF(2^12), odd characteristic, untabled GF(2^12), F_q(z) over
    # GF(4) and GF(9), Q(chi_7) with sigma of order 6 and of order 3
    if name == "chi7-order3":
        return CyclotomicField(7, 2)
    finite = {"gf4096": (2, 12, GF4096_MODULUS, 10), "gf81": (3, 4, "a^4 + 2a^3 + 2", 1),
              "gf125": (5, 3, "a^3 + 3a + 2", 1)}
    field, _, untabled = name.partition("-")
    if field not in finite:
        return _rational_context(name, request)
    if untabled:
        monkeypatch.setattr(skewrs.fields, "_TABLE_LIMIT", 1 << 11)
    p, degree, modulus, e = finite[field]
    ctx = FiniteField(p, degree, modulus, frobenius_power=e)
    assert (ctx._exp is None) == bool(untabled)
    return ctx


@pytest.mark.parametrize("name", PROTOCOL_CONTEXTS)
def test_add_scaled_equals_element_arithmetic(name, request, monkeypatch):
    # the expected row is built with Element operators, not with add_scaled
    ctx = _protocol_context(name, request, monkeypatch)
    rng = rng_for(f"add-scaled-{name}")
    for _ in range(40):
        src = [rng.choice((ctx.zero, ctx.random_nonzero(rng)))
               for _ in range(rng.randrange(7))]
        for shift in range(4):
            acc = [ctx.random_element(rng) for _ in range(shift + len(src) + 1)]
            for c in (ctx.one, ctx.random_nonzero(rng)):
                expected = list(acc)
                for j, b in enumerate(src, shift):
                    expected[j] = expected[j] + c * b
                got = [a.raw for a in acc]
                ctx.add_scaled(got, c.raw, [b.raw for b in src], shift)
                assert got == [a.raw for a in expected]


@pytest.mark.parametrize("name", PROTOCOL_CONTEXTS)
def test_add_product_equals_element_arithmetic(name, request, monkeypatch):
    # every triple over zero, one and random values: a = 0, c = 1, b = 1
    ctx = _protocol_context(name, request, monkeypatch)
    rng = rng_for(f"add-product-{name}")
    values = [ctx.zero, ctx.one] + [ctx.random_nonzero(rng) for _ in range(4)]
    for a in values:
        for c in values:
            for b in values:
                assert ctx.add_product(a.raw, c.raw, b.raw) == (a + c * b).raw


@pytest.mark.parametrize("name", PROTOCOL_CONTEXTS)
def test_kernel_rows_give_w_times_one_common_factor(name, request, monkeypatch):
    # dual_support's recurrence w_(i+mu) = -sum_k row_i[k] * w_(i+k) from
    # w_s = 1, s < mu, over kernel_rows(low, count) and then its end
    # factors, against the recurrence over sigma^i(low_k) in Element
    # arithmetic.  F_q(z) keeps w in F_q[z]; on every other backend the
    # rows are the twists themselves.  low has zero coefficients, and
    # count = 0 (mu = n) gives no rows
    ctx = _protocol_context(name, request, monkeypatch)
    rng = rng_for(f"kernel-rows-{name}")
    zero = ctx.zero_raw
    cases = []
    for mu in (1, 2, 3, 4):
        low = [rng.choice((ctx.zero, ctx.one, ctx.random_nonzero(rng))) for _ in range(mu)]
        cases += [(low, 5), (low, 0)]
    cases += [([ctx.zero, ctx.random_nonzero(rng), ctx.zero], 4), ([ctx.zero] * 2, 3)]
    for low, count in cases:
        mu, n = len(low), len(low) + count
        rows, ends = ctx.kernel_rows(tuple(c.raw for c in low), count)
        assert len(rows) == count
        twists = [[ctx.sigma(c, i) for c in low] for i in range(count)]
        if not isinstance(ctx, RationalFunctions):
            assert ends is None
            assert [list(row) for row in rows] == [[c.raw for c in row] for row in twists]
            continue
        assert len(ends) == n
        for s in range(mu):
            want = [ctx.zero] * n
            want[s] = ctx.one
            for i, row in enumerate(twists):
                want[i + mu] = -sum((c * v for c, v in zip(row, want[i:])), ctx.zero)
            w = [zero] * n
            w[s] = ctx.one_raw
            for i, row in enumerate(rows):
                acc = zero
                for c, v in zip(row, w[i:]):
                    acc = ctx.add_product(acc, c, v)
                assert acc[1] == (1,)
                w[i + mu] = ctx.neg(acc)
            w = list(map(ctx.mul, ends, w))
            assert w[s] != zero
            assert w == [ctx.mul(w[s], v.raw) for v in want]


@pytest.mark.parametrize("name", PROTOCOL_CONTEXTS)
def test_conjugate_zeros_equal_zero_sums(name, request, monkeypatch):
    ctx = _protocol_context(name, request, monkeypatch)
    code = build_code(ctx, find_normal_element(ctx), 0, 2)
    n = code.n
    rng = rng_for(f"conjugate-zeros-{name}")
    # the shifted conjugates of alpha* summed over alpha's table, and the
    # other way round, vanish at every output but one; the rest are random
    conj = [ctx.element(c) for c in code.conj]
    words = [(table, [other[(i + j) % n] for i in range(n)])
             for table, other in ((code.conj_table, dual_conjugates(code)),
                                  (code.dual_table, conj))
             for j in range(n)]
    for _ in range(4):
        vec = [rng.choice((ctx.zero, ctx.one, ctx.random_element(rng)))
               for _ in range(rng.randrange(n + 1))]
        words += [(code.conj_table, vec), (code.dual_table, vec)]
    zeros_seen = 0
    for table, vec in words:
        c = ctx.random_nonzero(rng)
        raw, scaled = [v.raw for v in vec], [(c * v).raw for v in vec]
        for offset in range(2 * n):
            for count in range(n + 1):
                expected = [v == ctx.zero_raw
                            for v in ctx.conjugate_sums(table, raw, count, offset)]
                assert ctx.conjugate_zeros(table, raw, count, offset) == expected
                assert ctx.conjugate_zeros(table, scaled, count, offset) == expected
                zeros_seen += sum(expected)
    assert zeros_seen


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic", "gf9z", "gf2^20"])
def test_every_route_to_zero_gives_the_canonical_zero(name, request):
    # zero tests compare raw values with zero_raw, which is sound only if
    # every way of producing zero produces exactly that value
    if name == "gf2^20":
        ctx = FiniteField(2, 20, "a^20 + a^3 + 1", frobenius_power=1)
        assert ctx._exp is None
    else:
        ctx = _rational_context(name, request)
    zero = ctx.zero_raw
    conj = [ctx.sigma_raw(ctx.generator_raw, k) for k in range(ctx.order)]
    table = ctx.conjugate_table(conj)
    assert ctx.neg(zero) == zero and (-ctx.zero).raw == zero
    assert all(ctx.sigma_raw(zero, k) == zero for k in range(-1, ctx.order + 1))
    rng = rng_for(f"canonical-zero-{name}")
    for _ in range(10):
        x, c = ctx.random_nonzero(rng), ctx.random_nonzero(rng).raw
        assert (x - x).raw == zero
        assert (ctx.zero * x).raw == zero and (x * ctx.zero).raw == zero
        acc = [ctx.neg(ctx.mul(c, x.raw))]
        ctx.add_scaled(acc, c, [x.raw], 0)
        assert acc == [zero]
        # x*c_1 * c_0 - x*c_0 * c_1 at output k = 0
        vec = [ctx.mul(x.raw, conj[1]), ctx.neg(ctx.mul(x.raw, conj[0]))]
        assert ctx.conjugate_sums(table, vec, 1, 0) == [zero]


def test_nonmonic_denominator_text_canonicalizes(rational):
    lhs = parse_element(rational, "(a z^5 + a^2 z^4)/(a^2 z^5 + a^2 z^4 + a z + a)")
    rhs = parse_element(rational, "(a^2 z^5 + z^4)/(z^5 + z^4 + a^2 z + a^2)")
    assert lhs == rhs


def test_odd_characteristic_field_arithmetic():
    # GF(9) with a non-primitive modulus root exercises the digit-based
    # addition path and polynomial-form printing
    F9 = FiniteField(3, 2, "a^2 + 1", frobenius_power=1)
    assert not F9.generator_primitive
    rng = rng_for("gf9")
    for _ in range(300):
        x = F9.random_element(rng)
        y = F9.random_element(rng)
        assert (x + y) - y == x
        if y:
            assert (x * y) / y == x
        assert parse_element(F9, F9.format(x)) == x
    assert F9.sigma(F9.generator) == F9.generator ** 3
    assert F9.sigma(F9.generator, 2) == F9.generator


def test_bad_moduli_are_rejected():
    with pytest.raises(FieldError):
        FiniteField(2, 4, "a^4 + a^2 + 1")  # (a^2+a+1)^2, reducible
    with pytest.raises(FieldError):
        FiniteField(4, 2, "a^2 + a + 1")  # composite characteristic
    with pytest.raises(FieldError):
        FiniteField(2, 3, "a^2 + a + 1")  # degree mismatch
    with pytest.raises(FieldError):
        FiniteField(2, 0, "1")  # no extension at all
    with pytest.raises(FieldError, match="modulus a has the root 0"):
        FiniteField(5, 1, "a")  # GF(p)'s symbol would name zero


@pytest.mark.parametrize("p, modulus, root", [(17, "a + 14", 3), (5, "a + 1", 4), (3, "a + 1", 2)])
def test_the_gf_p_symbol_is_the_modulus_root(p, modulus, root):
    F = FiniteField(p, 1, modulus)
    a = parse_element(F, "a")
    assert a.raw == root and a == F.generator
    assert (a + F.from_int(F.modulus[0])).raw == 0
    # GF(p) keeps printing integers, whether or not its root is primitive
    assert F.format(a) == str(root) and F.format(a * a) == str(root * root % p)


@pytest.mark.parametrize("make", [
    lambda: FiniteField(2, 4, "x^4 + x + 1", generator="x"),
    lambda: RationalFunctions(FiniteField(2, 2, "a^2 + a + 1", frobenius_power=0),
                              ("1", "a", "1", "a^2"), variable="x"),
    lambda: CyclotomicField(7, 3, symbol="x"),
], ids=["finite-field", "rational-function", "cyclotomic"])
def test_a_field_symbol_named_x_is_refused(make):
    # parse_poly reads x as the polynomial variable, so a field symbol x
    # would silently turn every message's x into a constant
    with pytest.raises(FieldError, match="the symbol 'x' names the polynomial variable"):
        make()


@pytest.mark.parametrize("p, degree, irreducible", [(2, 6, 9), (2, 12, 335), (3, 6, 116)])
def test_rabin_accepts_exactly_the_irreducible_moduli(monkeypatch, p, degree, irreducible):
    # irreducible is (1/d) * sum over k | d of mu(d/k) * p^k; with no tables
    # and none shared, only the irreducibility test runs on each modulus
    monkeypatch.setattr(skewrs.fields, "_TABLE_LIMIT", 0)
    monkeypatch.setattr(skewrs.fields, "_shared_tables", {})
    accepted = 0
    for low in itertools.product(range(p), repeat=degree):
        try:
            FiniteField(p, degree, list(low) + [1])
        except FieldError:
            continue
        accepted += 1
    assert accepted == irreducible


@pytest.mark.parametrize("p, degree, modulus", [
    # a(a+1)(a^3+a+1)(a^3+a^2+1)(a^4+a+1): each factor degree divides 12,
    # so a^(2^12) = a, but no factor has degree 12/2 or 12/3
    (2, 12, "a^12 + a^9 + a^8 + a^5 + a^2 + a"),
    # factor degrees 1, 2, 2 and 5
    (3, 10, [1, 2, 0, 2, 0, 1, 0, 0, 0, 2, 1]),
], ids=["gf2^12", "gf3^10"])
def test_a_reducible_modulus_whose_factor_degrees_divide_d_is_refused(p, degree, modulus):
    with pytest.raises(FieldError, match="not irreducible"):
        FiniteField(p, degree, modulus)


@pytest.mark.parametrize("p, degree, modulus, message", [
    (1000000000000000003, 1, "a + 1", "below 2\\^31"),
    (1 << 31, 1, "a + 1", "below 2\\^31"),
    (2, 200000, "a^200000 + a + 1", "exceeds 2\\^64"),
    (3, 41, [1] * 42, "exceeds 2\\^64"),
], ids=["p-1e18", "p-2^31", "2^200000", "3^41"])
def test_a_field_past_the_size_bounds_is_refused_at_once(p, degree, modulus, message):
    # without the bounds, trial division of p or Rabin's test would not end
    start = time.perf_counter()
    with pytest.raises(FieldError, match=message):
        FiniteField(p, degree, modulus)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("p, degree, modulus", [
    ((1 << 31) - 1, 1, "a + 1"),
    (2, 64, "a^64 + a^4 + a^3 + a + 1"),
], ids=["p-2^31-1", "2^64"])
def test_fields_at_the_size_bounds_are_built(p, degree, modulus):
    F = FiniteField(p, degree, modulus)
    # over GF(p) the symbol is the root of a + 1, so x is -2
    x = F.generator - F.one
    assert F.size == p ** degree and x * x.inverse() == F.one


@pytest.mark.parametrize("m, exponent, message", [
    (100003, 2, "root order 100003 is past"),
    (1000000000000000003, 2, "root order 1000000000000000003 is past"),
    (223, 222, "root order 223 is past"),
    (29, 2, "root order 29 with sigma of order 28 is past"),
], ids=["m-100003", "m-1e18", "m-223", "m-29-full-order"])
def test_a_cyclotomic_field_past_the_cost_bound_is_refused_at_once(m, exponent, message):
    # without the bound, trial division of m, the walk over sigma's powers
    # or the first code build would run for as long as m asks
    start = time.perf_counter()
    with pytest.raises(FieldError, match=message + " the bound m\\^3 \\+ m\\^2\\*n\\^3 <= 10\\^7"):
        CyclotomicField(m, exponent)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("m, exponent, n", [(211, 210, 2), (23, 5, 22), (17, 3, 16)])
def test_cyclotomic_fields_within_the_cost_bound_are_built(m, exponent, n):
    assert CyclotomicField(m, exponent).order == n


def test_the_largest_cyclotomic_code_in_use_still_builds():
    # Q(chi_17) with sigma of full order, n = 16, delta = 9
    ctx = CyclotomicField(17, 3)
    assert build_code(ctx, ctx.generator, 0, 9).g.degree == 8


@pytest.mark.parametrize("degree, modulus, mobius", [
    (8, "a^8 + a^4 + a^3 + a^2 + 1", ("a", "0", "0", "1")),
    (6, "a^6 + a + 1", ("a^3", "0", "0", "1")),
], ids=["order-255", "order-21"])
def test_a_mobius_map_past_the_order_bound_is_refused_at_once(degree, modulus, mobius):
    # without the bound, a code over F_256(z) with sigma(z) = a*z would
    # take minutes to build
    start = time.perf_counter()
    with pytest.raises(FieldError, match="sigma's order is past the bound n <= 17"):
        RationalFunctions(FiniteField(2, degree, modulus, frobenius_power=0), mobius)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("degree, modulus, n", [(3, "a^3 + a + 1", 9), (4, "a^4 + a + 1", 17)])
def test_mobius_maps_within_the_order_bound_are_built(degree, modulus, n):
    # sigma(z) = 1/(z + a)
    base = FiniteField(2, degree, modulus, frobenius_power=0)
    assert RationalFunctions(base, ("0", "1", "1", "a")).order == n


def test_the_largest_rational_function_code_in_use_still_builds():
    # F_16(z) with sigma(z) = 1/(z + a), n = 17, delta = 2
    ctx = RationalFunctions(FiniteField(2, 4, "a^4 + a + 1", frobenius_power=0),
                            ("0", "1", "1", "a"))
    assert build_code(ctx, ctx.generator, 0, 2).g.degree == 1


def _reference_tables(F):
    """exp/log by general multiplication: the modulus root when it is
    primitive (-modulus[0] mod p when d = 1), else the least primitive
    packed value."""
    q = F.size
    gen = F.char if F.degree > 1 else -F.modulus[0] % F.char
    primitive = F._element_order(gen) == q - 1
    prim = gen if primitive else next(
        c for c in range(2, q) if F._element_order(c) == q - 1)
    exp, log, acc = [0] * (2 * (q - 1)), [0] * q, 1
    for i in range(q - 1):
        exp[i] = exp[i + q - 1] = acc
        log[acc] = i
        acc = F._raw_mul(acc, prim)
    # sigma^k(x) = x^(p^(e*k mod d))
    sigma_mult = [pow(F.char, F.frobenius_power * k % F.degree, q - 1)
                  for k in range(F.order)]
    return exp, log, primitive, sigma_mult


@pytest.mark.parametrize("p, d, modulus, primitive", [
    (2, 12, "a^12 + a^7 + a^6 + a^5 + a^3 + a + 1", True),
    (2, 4, "a^4 + a + 1", True),
    (2, 4, "a^4 + a^3 + a^2 + a + 1", False),
    (2, 8, "a^8 + a^4 + a^3 + a + 1", False),
    (3, 4, "a^4 + 2a^3 + 2", True),
    (5, 3, "a^3 + 3a + 2", True),
    (5, 3, "a^3 + a + 1", False),
    (3, 6, "a^6 + a^5 + 2", True),
    (2, 1, "a + 1", True),
    (3, 1, "a + 1", True),
    (5, 1, "a + 1", False),
])
def test_tables_match_a_general_multiplication_walk(p, d, modulus, primitive):
    F = FiniteField(p, d, modulus, frobenius_power=1)
    assert F.generator_primitive is primitive
    assert (F._exp, F._log, F.generator_primitive, F._sigma_mult) == _reference_tables(F)


def test_gf65536_tables_follow_the_modulus_root():
    F = FiniteField(2, 16, "a^16 + a^12 + a^3 + a + 1", frobenius_power=1)
    assert F.generator_primitive
    q, exp = F.size, F._exp
    assert exp[0] == 1 and exp[q - 1:] == exp[:q - 1]
    for i in range(q - 1):
        assert exp[i + 1] == F._raw_mul(exp[i], 2)
        assert F._log[exp[i]] == i


def test_fields_on_one_modulus_share_tables_but_not_sigma():
    F1 = FiniteField(2, 12, GF4096_MODULUS, frobenius_power=1)
    F10 = FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10)
    assert F1._exp is F10._exp and F1._log is F10._log
    assert F1._sigma_mult != F10._sigma_mult
    for F in (F1, F10):
        assert (F._exp, F._log, F.generator_primitive, F._sigma_mult) == _reference_tables(F)


@pytest.mark.parametrize("tabled_first", [True, False], ids=["tabled-first", "untabled-first"])
def test_the_table_limit_is_checked_before_the_shared_tables(monkeypatch, tabled_first):
    def build(tabled):
        with monkeypatch.context() as m:
            if not tabled:
                m.setattr(skewrs.fields, "_TABLE_LIMIT", 1 << 11)
            return FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10)

    first = build(tabled_first)
    second = build(not tabled_first)
    tabled, untabled = (first, second) if tabled_first else (second, first)
    assert tabled._exp is not None and tabled._sigma_mult is not None
    assert untabled._exp is None and untabled._log is None and untabled._sigma_mult is None
    assert not untabled.generator_primitive


@pytest.mark.parametrize("p, d, modulus", [
    (2, 12, GF4096_MODULUS),             # shift-and-reduce walk
    (2, 8, "a^8 + a^4 + a^3 + a + 1"),   # non-primitive root: general walk
    (5, 3, "a^3 + a + 1"),               # odd p, non-primitive root
])
def test_a_cold_walk_equals_the_shared_tables(monkeypatch, p, d, modulus):
    shared = FiniteField(p, d, modulus)
    monkeypatch.setattr(skewrs.fields, "_shared_tables", {})
    cold = FiniteField(p, d, modulus)
    assert cold._exp is not shared._exp
    assert (cold._exp, cold._log, cold.generator_primitive) == \
           (shared._exp, shared._log, shared.generator_primitive)


def test_shared_tables_keep_the_four_most_recently_used_moduli(monkeypatch):
    monkeypatch.setattr(skewrs.fields, "_shared_tables", {})
    moduli = [(2, 4, "a^4 + a + 1"), (2, 4, "a^4 + a^3 + 1"), (2, 4, "a^4 + a^3 + a^2 + a + 1"),
              (2, 3, "a^3 + a + 1"), (2, 3, "a^3 + a^2 + 1")]
    fields = [FiniteField(*m) for m in moduli]
    keys = [(F.char, F.degree, F.modulus) for F in fields]
    assert list(skewrs.fields._shared_tables) == keys[1:]
    # building one again makes it the most recent, so the least recent goes
    assert FiniteField(*moduli[2])._exp is fields[2]._exp
    assert FiniteField(*moduli[0])._exp is not fields[0]._exp
    assert list(skewrs.fields._shared_tables) == [keys[3], keys[4], keys[2], keys[0]]


@pytest.fixture
def irreducibility_tests(monkeypatch):
    """Empty shared tables, and the moduli that Rabin's test ran on since."""
    monkeypatch.setattr(skewrs.fields, "_shared_tables", {})
    tested = []
    rabin = FiniteField._is_irreducible

    def counted(self):
        tested.append(self.modulus)
        return rabin(self)

    monkeypatch.setattr(FiniteField, "_is_irreducible", counted)
    return tested


def test_a_shared_table_hit_skips_the_irreducibility_test(irreducibility_tests):
    F1 = FiniteField(2, 12, GF4096_MODULUS, frobenius_power=1)
    assert irreducibility_tests == [F1.modulus]
    F10 = FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10)
    assert irreducibility_tests == [F1.modulus]
    assert F10._exp is F1._exp


def test_an_evicted_modulus_is_tested_again(irreducibility_tests):
    first = (2, 4, "a^4 + a + 1")
    others = [(2, 4, "a^4 + a^3 + 1"), (2, 4, "a^4 + a^3 + a^2 + a + 1"),
              (2, 3, "a^3 + a + 1"), (2, 3, "a^3 + a^2 + 1")]
    modulus = FiniteField(*first).modulus
    for m in others:
        FiniteField(*m)
    assert irreducibility_tests.count(modulus) == 1
    FiniteField(*first)
    assert irreducibility_tests.count(modulus) == 2
    assert len(irreducibility_tests) == 6


def test_an_untabled_field_is_always_tested(irreducibility_tests, monkeypatch):
    monkeypatch.setattr(skewrs.fields, "_TABLE_LIMIT", 1 << 11)
    for _ in range(2):
        FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10)
    assert len(irreducibility_tests) == 2


def test_a_reducible_modulus_beside_a_shared_one_is_refused(irreducibility_tests):
    FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10)
    with pytest.raises(FieldError, match="not irreducible"):
        FiniteField(2, 12, "a^12 + 1", frobenius_power=10)
    assert len(irreducibility_tests) == 2


def test_singular_mobius_rejected(rational):
    with pytest.raises(FieldError):
        RationalFunctions(rational.base, ("1", "a", "a^2", "a^3"))


@pytest.mark.parametrize("mobius", [(1, 5, 1, 3), (1, -1, 1, 3)], ids=["past-q", "negative"])
def test_mobius_ints_must_be_raw_values_of_the_base(rational, mobius):
    with pytest.raises(FieldError, match="not a raw value"):
        RationalFunctions(rational.base, mobius)


def test_mobius_elements_must_live_in_the_base(rational, gf16):
    with pytest.raises(FieldError, match="different field contexts"):
        RationalFunctions(rational.base, (1, gf16.generator, 1, 3))


def test_from_base_refuses_an_element_of_another_field(rational, gf4096):
    with pytest.raises(FieldError, match="different field contexts"):
        rational.from_base(gf4096.element(3000))


def test_division_by_zero_raises(all_contexts):
    for ctx in all_contexts.values():
        with pytest.raises(ZeroDivisionError):
            ctx.one / ctx.zero


def test_one_element_class_over_raw_values(all_contexts):
    for ctx in all_contexts.values():
        x = ctx.generator
        assert type(x) is Element and type(ctx.zero) is Element
        assert ctx.element(x.raw) == x
        assert (x * x).raw == ctx.mul(x.raw, x.raw)
        assert ctx.zero.raw == ctx.zero_raw and x.raw != ctx.zero_raw


@pytest.mark.parametrize("make", [
    lambda: FiniteField(2, 12, "a^12 + a^7 + a^6 + a^5 + a^3 + a + 1", frobenius_power=10),
    lambda: RationalFunctions(FiniteField(2, 2, "a^2 + a + 1", frobenius_power=0),
                              ("1", "a", "1", "a^2")),
    lambda: CyclotomicField(7, 3),
], ids=["gf4096", "rational", "cyclotomic"])
def test_a_dropped_context_is_freed_without_the_cycle_collector(make):
    gc.disable()
    try:
        ctx = make()
        x = ctx.generator * ctx.one + ctx.zero
        ref = weakref.ref(ctx)
        del ctx, x
        assert ref() is None
    finally:
        gc.enable()


def test_operands_must_share_a_field(gf4096, gf16):
    twin = FiniteField(2, 4, "a^4 + a + 1", frobenius_power=1)
    assert twin.one + gf16.one == gf16.zero
    with pytest.raises(FieldError):
        gf4096.one + gf16.one


def test_public_names_resolve():
    for name in skewrs.__all__:
        assert getattr(skewrs, name) is not None, name


def test_cyclotomic_galois_images_and_unit_inverse_are_canonical(cyclotomic):
    # an automorphism keeps the coordinates' content, so no image needs
    # reducing, and the inverse of one is one itself
    one = cyclotomic.one_raw
    assert cyclotomic.inv(one) is one
    rng = rng_for("cyc-galois-canonical")
    for _ in range(300):
        coords = tuple(rng.choice((0, 2, 3, 5, 6, 10, 15, 30)) * rng.randint(-9, 9)
                       for _ in range(cyclotomic.dim))
        x = cyclotomic._make(coords, rng.choice((1, 2, 3, 6, 30, 60)))
        for e in range(2, cyclotomic.root_order):
            v = cyclotomic._conjugate(x, e)
            assert cyclotomic._make(*v) == v


@st.composite
def cyclotomic_cases(draw):
    m = draw(st.sampled_from([3, 5, 7, 11, 13]))
    ctx = CyclotomicField(m, draw(st.integers(1, m - 1)))
    coords = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=m - 1, max_size=m - 1))
    den = draw(st.integers(1, 10 ** 6))
    x = ctx.zero
    for i, c in enumerate(coords):
        x = x + from_fraction(ctx, Fraction(c, den)) * ctx.generator ** i
    return ctx, x, coords[0], den


@settings(deadline=None)
@given(cyclotomic_cases())
def test_cyclotomic_inverse_by_norm(case):
    ctx, x, c, den = case
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()
    if c:
        rational = from_fraction(ctx, Fraction(c, den))
        assert rational.inverse() == from_fraction(ctx, Fraction(den, c))
    if not x:
        return
    y = x.inverse()
    assert x * y == ctx.one
    assert y.inverse() == x
    coords, d = y.raw
    assert d > 0 and math.gcd(*coords, d) == 1


def test_untabled_powers_equal_the_tabled_ones(gf4096, monkeypatch):
    # the generic square-and-multiply, negative exponents through the inverse
    monkeypatch.setattr(skewrs.fields, "_TABLE_LIMIT", 1 << 11)
    monkeypatch.setattr(skewrs.fields, "_shared_tables", {})
    untabled = FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10)
    assert untabled._exp is None and gf4096._exp is not None
    rng = rng_for("untabled-pow")
    for u in [1, 2, gf4096.generator_raw] + [rng.randrange(1, 4096) for _ in range(20)]:
        for k in (-3, 0, 1, 4095, 10 ** 6):
            assert untabled.pow(u, k) == gf4096.pow(u, k)
    for k in (0, 1, 4095, 10 ** 6):
        assert untabled.pow(0, k) == gf4096.pow(0, k)
    assert parse_element(untabled, "a^3953") == parse_element(gf4096, "a^3953")


def test_equal_elements_of_two_equal_contexts_hash_equal(gf4096):
    other = FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10)
    assert other is not gf4096
    rng = rng_for("hash-across-contexts")
    for raw in [0, 1] + [rng.randrange(4096) for _ in range(20)]:
        u, v = gf4096.element(raw), other.element(raw)
        assert u == v and hash(u) == hash(v)
    assert len({gf4096.generator, other.generator, gf4096.one, other.one}) == 2
