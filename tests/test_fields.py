import gc
import math
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import skewrs
from skewrs import (CyclotomicField, Element, FieldError, FiniteField,
                    RationalFunctions, parse_element)
from skewrs.fields import poly_gcrd

from conftest import GF4096_MODULUS, rng_for

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


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_field_axioms_on_random_pairs(all_contexts, name):
    ctx = all_contexts[name]
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
    assert gf4096.fixed_field_check(gf4096.one)
    assert not gf4096.fixed_field_check(gf4096.generator)


def test_fixed_field_sum_of_all_roots(cyclotomic):
    # oracle: sigma permutes chi^j -> chi^(3j mod 7); the sum over all
    # primitive roots is invariant under any such permutation
    chi = cyclotomic.generator
    x = sum((chi ** k for k in range(2, 7)), chi)
    exponents = [(3 * j) % 7 for j in range(1, 7)]
    oracle_image = sum((chi ** e for e in exponents[1:]), chi ** exponents[0])
    assert oracle_image == x
    assert cyclotomic.fixed_field_check(x)
    assert not cyclotomic.fixed_field_check(chi)


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
        num, den = (u * v).raw
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


def test_rational_sum_with_zero_makes_no_gcd(rational, monkeypatch):
    rng = rng_for("rf-zero-add")
    xs = [rational.random_element(rng, 3, 3).raw for _ in range(50)]
    real, calls = skewrs.fields.poly_gcrd, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(skewrs.fields, "poly_gcrd", counted)
    zero = rational.zero.raw
    for x in xs:
        assert rational.add(zero, x) is x and rational.add(x, zero) is x
    assert calls == []


def test_rational_sums_reduce_once_per_output(code_rf, monkeypatch):
    # a sum output pays for one gcd, in _make, not one per term
    ctx, n = code_rf.ctx, code_rf.n
    rng = rng_for("rf-sums-gcd")
    words = [[ctx.random_nonzero(rng, 2, 2).raw for _ in range(n)] for _ in range(4)]
    real, calls = skewrs.fields.poly_gcrd, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(skewrs.fields, "poly_gcrd", counted)
    for vec in words:
        for offset in range(n):
            for count in range(1, n + 1):
                calls.clear()
                ctx.conjugate_sums(code_rf.conj_table, vec, count, offset)
                assert 0 < len(calls) <= count


@pytest.mark.parametrize("name", ["gf4096", "gf81", "gf125", "gf4096-untabled",
                                  "rational", "cyclotomic"])
def test_add_scaled_equals_element_arithmetic(name, request, monkeypatch):
    # the expected row is built with Element operators, not with add_scaled
    finite = {"gf4096": (2, 12, GF4096_MODULUS, 10), "gf81": (3, 4, "a^4 + 2a^3 + 2", 1),
              "gf125": (5, 3, "a^3 + 3a + 2", 1)}
    field, _, untabled = name.partition("-")
    if field in finite:
        if untabled:
            monkeypatch.setattr(skewrs.fields, "_TABLE_LIMIT", 1 << 11)
        p, degree, modulus, e = finite[field]
        ctx = FiniteField(p, degree, modulus, frobenius_power=e)
        assert (ctx._exp is None) == bool(untabled)
    else:
        ctx = request.getfixturevalue(name)
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


def _reference_tables(F):
    """exp/log by general multiplication: the modulus root when it is
    primitive (the symbol reads as 1 when d = 1), else the least
    primitive packed value."""
    q = F.size
    gen = F.char if F.degree > 1 else 1 % F.char
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
    (3, 1, "a + 1", False),
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


def test_singular_mobius_rejected(rational):
    with pytest.raises(FieldError):
        RationalFunctions(rational.base, ("1", "a", "a^2", "a^3"))


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
        assert ctx.is_zero(ctx.zero.raw) and not ctx.is_zero(x.raw)


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


@st.composite
def cyclotomic_cases(draw):
    m = draw(st.sampled_from([3, 5, 7, 11, 13]))
    ctx = CyclotomicField(m, draw(st.integers(1, m - 1)))
    coords = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=m - 1, max_size=m - 1))
    den = draw(st.integers(1, 10 ** 6))
    x = ctx.zero
    for i, c in enumerate(coords):
        x = x + ctx.from_fraction(Fraction(c, den)) * ctx.generator ** i
    return ctx, x, coords[0], den


@settings(deadline=None)
@given(cyclotomic_cases())
def test_cyclotomic_inverse_by_norm(case):
    ctx, x, c, den = case
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()
    if c:
        rational = ctx.from_fraction(Fraction(c, den))
        assert rational.inverse() == ctx.from_fraction(Fraction(den, c))
    if not x:
        return
    y = x.inverse()
    assert x * y == ctx.one
    assert y.inverse() == x
    coords, d = y.raw
    assert d > 0 and math.gcd(*coords, d) == 1
