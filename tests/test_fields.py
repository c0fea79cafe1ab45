import functools
import gc
import itertools
import math
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import skewrs
from skewrs import (CyclotomicField, Element, FieldError, FiniteField,
                    RationalFunctions, build_code, find_normal_element,
                    parse_element)
from skewrs.fields import FieldContext, poly_divmod, poly_gcrd, poly_mul, poly_trim

from conftest import GF4096_MODULUS, rng_for
from oracles import (dual_conjugates, fixed_field_check, from_fraction, gcrd_by_divmod,
                     inverse_by_conjugates, over_product_denominator, rabin_by_euclid,
                     sigma_by_ladder)

N_PAIRS = 1000


def random_fraction(ctx, rng, num_degree, den_degree, nonzero=False):
    """An element of F_q(z) whose numerator and denominator have degree at
    most num_degree and den_degree, drawn as ``random_element`` draws its
    degree-1 ones; with nonzero, drawn again until it is nonzero."""
    base = ctx.base
    while True:
        num = poly_trim(base, [rng.randrange(base.size) for _ in range(num_degree + 1)])
        den = ()
        while not den:
            den = poly_trim(base, [rng.randrange(base.size) for _ in range(den_degree + 1)])
        if num or not nonzero:
            return Element(ctx, ctx._make(num, den))


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
        u = random_fraction(rational, rng, 2, 2)
        v = random_fraction(rational, rng, 2, 2)
        for w in (u * v, u.inverse() if u else u):
            num, den = w.raw
            assert den[-1] == 1
            assert poly_gcrd(rational.base, num, den) == (1,)


def test_rational_base_must_have_trivial_sigma():
    twisted = FiniteField(2, 2, "a^2 + a + 1", frobenius_power=1)
    with pytest.raises(FieldError):
        RationalFunctions(twisted, ("1", "a", "1", "a^2"))


def test_rational_base_must_be_a_finite_field():
    # sigma(z) = -z has order 2, but the F_q[z] kernels are FiniteField's:
    # another base is refused by name, before sigma's order is sought
    with pytest.raises(FieldError, match="must be a FiniteField"):
        RationalFunctions(CyclotomicField(7, 1), ("-1", "0", "0", "1"))


def test_rational_product_by_one_is_the_operand(rational):
    rng = rng_for("rf-one")
    one = rational.one.raw
    assert rational.inv(one) is one
    for _ in range(50):
        x = rational.random_element(rng).raw
        if x != one:
            assert rational.mul(one, x) is x and rational.mul(x, one) is x


def _counted_gcd(monkeypatch):
    """The list that records each F_q[z] gcd from now on: every one is a
    call of the base field's ``poly_gcd``, whether the log-domain override
    runs it or hands it to the generic ``poly_gcrd``."""
    real, calls = FiniteField.poly_gcd, []

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(FiniteField, "poly_gcd", counted)
    return calls


def test_rational_sum_with_zero_makes_no_gcd(rational, monkeypatch):
    rng = rng_for("rf-zero-add")
    xs = [random_fraction(rational, rng, 3, 3).raw for _ in range(50)]
    calls = _counted_gcd(monkeypatch)
    zero = rational.zero.raw
    for x in xs:
        assert rational.add(zero, x) is x and rational.add(x, zero) is x
    assert calls == []


def test_rational_sums_reduce_once_per_output(code_rf, monkeypatch):
    # clearing vec to the lcm of its distinct denominators pays one gcd per
    # denominator after the first, and none for one; then each nonzero
    # output pays one, in _make, not one per term, and a zero output none
    ctx, n = code_rf.ctx, code_rf.n
    rng = rng_for("rf-sums-gcd")
    words = [[random_fraction(ctx, rng, 2, 2, nonzero=True).raw for _ in range(n)] for _ in range(4)]
    calls = _counted_gcd(monkeypatch)
    for vec in words:
        clearing = max(len({den for _, den in vec} - {(1,)}) - 1, 0)
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


@pytest.mark.parametrize("name", ["rational", "gf9z", "affine", "f8z"])
def test_sigma_raw_equals_the_ladder_oracle(name, request):
    # every k in -n..2n, against one ladder per power of sigma: F_4(z),
    # odd p, an affine sigma (D constant) and sigma(z) = 1/(z + a) (L
    # constant).  Fractions drawn with every degree bound up to 12, then up
    # to 40 in steps of 4, come in pairs with one bound, ascending, so most
    # later sigmas of a power reuse a substitution table; the kept tables
    # stay within the cap
    ctx = _rational_context(name, request)
    n = ctx.order
    rng = rng_for(f"sigma-ladder-{name}")
    elements = [ctx.zero_raw, ctx.one_raw, ctx.generator_raw]
    for deg in [*range(13), *range(16, 41, 4)]:
        for _ in range(2 if deg < 13 else 1):
            other = rng.randrange(deg + 1)
            elements.append(random_fraction(ctx, rng, deg, other).raw)
            elements.append(random_fraction(ctx, rng, other, deg).raw)
    for u in elements:
        want = [sigma_by_ladder(ctx, u, k) for k in range(n)]
        for k in range(-n, 2 * n + 1):
            assert ctx.sigma_raw(u, k) == want[k % n]
    assert sum(map(len, itertools.chain(*ctx._tables.values()))) == ctx._table_size
    assert ctx._table_size <= skewrs.fields._SUBSTITUTION_LIMIT


def _fraction_of_degree(ctx, rng, m):
    """A nonzero fraction whose larger degree is exactly m."""
    while True:
        u = random_fraction(ctx, rng, m, m, nonzero=True).raw
        if max(map(len, u)) == m + 1:
            return u


def _counted_products(monkeypatch):
    """The list that records each F_q[z] product from now on, at the base
    field's ``poly_product``."""
    real, calls = FiniteField.poly_product, []

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(FiniteField, "poly_product", counted)
    return calls


@pytest.mark.parametrize("name", ["rational", "gf9z", "affine", "f8z"])
def test_rational_sigma_reuses_its_tables(name, request, monkeypatch):
    # the first sigma^k of a degree-m fraction builds the table of (k mod n,
    # m) with 2m products; a second, of another fraction of the same m and
    # of k, k + n or k - n, builds none, and sigma^k of a lower or higher m
    # builds its own.  A fresh context, as the fixture's keeps its tables
    ctx = _rational_context(name, request)
    ctx = RationalFunctions(ctx.base, ctx.mobius)
    n = ctx.order
    rng = rng_for(f"sigma-reuse-{name}")
    m = 6
    first, second = (_fraction_of_degree(ctx, rng, m) for _ in range(2))
    calls = _counted_products(monkeypatch)
    for k in range(1, n):
        calls.clear()
        ctx.sigma_raw(first, k)
        assert len(calls) == 2 * m
        calls.clear()
        for j in (k, k + n, k - n):
            ctx.sigma_raw(second, j)
            ctx.sigma_raw(first, j)
        assert calls == []
    assert sorted(ctx._tables) == [(k, m) for k in range(1, n)]
    ctx.sigma_raw(ctx.generator_raw, 1)
    assert len(calls) == 2 and (1, 1) in ctx._tables


@pytest.mark.parametrize("name", ["rational", "gf9z"])
def test_a_table_past_the_cap_is_used_and_not_kept(name, request, monkeypatch):
    # with room for 60 coefficients, sigma of a degree-9 fraction (a table
    # of 100) still equals the ladder oracle and keeps nothing, and a
    # degree-2 one (a table of at most 9) is kept; the kept tables never
    # pass the cap
    monkeypatch.setattr(skewrs.fields, "_SUBSTITUTION_LIMIT", 60)
    ctx = _rational_context(name, request)
    ctx = RationalFunctions(ctx.base, ctx.mobius)
    rng = rng_for(f"sigma-cap-{name}")
    big, small = _fraction_of_degree(ctx, rng, 9), _fraction_of_degree(ctx, rng, 2)
    calls = _counted_products(monkeypatch)
    for _ in range(2):
        calls.clear()
        assert ctx.sigma_raw(big, 1) == sigma_by_ladder(ctx, big, 1)
        assert len(calls) == 18
    assert ctx._tables == {} and ctx._table_size == 0
    for k in range(1, ctx.order):
        assert ctx.sigma_raw(small, k) == sigma_by_ladder(ctx, small, k)
        assert ctx.sigma_raw(big, k) == sigma_by_ladder(ctx, big, k)
    assert sorted(ctx._tables) == [(k, 2) for k in range(1, ctx.order)]
    assert 0 < ctx._table_size == sum(map(len, itertools.chain(*ctx._tables.values()))) <= 60


@pytest.mark.parametrize("name", ["rational", "gf9z", "affine"])
def test_rational_sigma_makes_no_gcd(name, request, monkeypatch):
    ctx = _rational_context(name, request)
    rng = rng_for(f"sigma-no-gcd-{name}")
    xs = [random_fraction(ctx, rng, rng.randrange(9), rng.randrange(9)).raw for _ in range(30)]
    calls = _counted_gcd(monkeypatch)
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
        src = [rng.choice((ctx.zero, ctx.one, random_fraction(ctx, rng, 2, 2, nonzero=True))).raw
               for _ in range(rng.randrange(6))]
        acc = [rng.choice((ctx.zero, ctx.one, random_fraction(ctx, rng, 2, 2))).raw
               for _ in range(len(src) + 2)]
        c = rng.choice((ctx.one, random_fraction(ctx, rng, 2, 2, nonzero=True))).raw
        cases.append((acc, c, src))
    calls = _counted_gcd(monkeypatch)
    for acc, c, src in cases:
        calls.clear()
        ctx.add_scaled(acc, c, src, rng.randrange(3))
        assert len(calls) <= sum(1 for b in src if b != ctx.zero_raw)


@pytest.mark.parametrize("name", ["rational", "gf9z", "f4z-untabled"])
def test_rational_make_of_a_common_factor_makes_one_gcd(name, request, monkeypatch):
    # the positive control of the counts above: a pair that is not coprime
    # is reduced by exactly one gcd, on the log-domain route (F_4(z)) and
    # the generic one (GF(9)(z), and F_4(z) over an untabled GF(4))
    if name == "f4z-untabled":
        monkeypatch.setattr(skewrs.fields, "_TABLE_LIMIT", 0)
        ctx = RationalFunctions(FiniteField(2, 2, "a^2 + a + 1", frobenius_power=0),
                                ("1", "a", "1", "a^2"))
        assert ctx.base._exp is None
    else:
        ctx = _rational_context(name, request)
    base = ctx.base
    assert (base._exp is not None and base.char == 2) == (name == "rational")
    # (1 + z)(z + a) / z^2 (z + a), whose reduced form is (1 + z) / z^2
    num, den, common = (1, 1), (0, 0, 1), (base.generator_raw, 1)
    calls = _counted_gcd(monkeypatch)
    got = ctx._make(poly_mul(base, num, common), poly_mul(base, den, common))
    assert len(calls) == 1
    assert got == (num, den)


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
    words.append([random_fraction(ctx, rng, 2, 2).raw for _ in range(n)])
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


def _order(F, u):
    """The least k >= 1 with u^k = 1, by brute force."""
    k, acc = 1, u
    while acc != 1:
        k, acc = k + 1, F._raw_mul(acc, u)
    return k


def _reference_tables(F):
    """exp/log by general multiplication: the modulus root when it is
    primitive (-modulus[0] mod p when d = 1), else the least primitive
    packed value, with orders found by brute force."""
    q = F.size
    gen = F.char if F.degree > 1 else -F.modulus[0] % F.char
    primitive = _order(F, gen) == q - 1
    prim = gen if primitive else next(c for c in range(2, q) if _order(F, c) == q - 1)
    exp, log, acc = [0] * (2 * (q - 1)), [0] * q, 1
    for i in range(q - 1):
        exp[i] = exp[i + q - 1] = acc
        log[acc] = i
        acc = F._raw_mul(acc, prim)
    # sigma^k(x) = x^(p^(e*k mod d))
    sigma_mult = [pow(F.char, F.frobenius_power * k % F.degree, q - 1)
                  for k in range(F.order)]
    return exp, log, primitive, sigma_mult


def _monic_moduli(p, d):
    """Every monic modulus of degree d over F_p, low-first, but a at d = 1,
    whose root 0 no symbol may name."""
    return [list(low) + [1] for low in itertools.product(range(p), repeat=d)
            if d > 1 or low[0]]


# every irreducible monic modulus of GF(2^d), d <= 6, and GF(3^d), d <= 3;
# whether the root is primitive is the brute-force reference's to say
_SMALL_IRREDUCIBLE = [pytest.param(p, d, m, None, id=f"{p}-{d}-{''.join(map(str, m[::-1]))}")
                      for p, top in ((2, 6), (3, 3)) for d in range(1, top + 1)
                      for m in _monic_moduli(p, d) if rabin_by_euclid(p, m)]


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
] + _SMALL_IRREDUCIBLE)
def test_tables_match_a_general_multiplication_walk(p, d, modulus, primitive):
    F = FiniteField(p, d, modulus, frobenius_power=1)
    if primitive is not None:
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
    (2, 12, GF4096_MODULUS),             # primitive root: walk by a
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


def test_a_shared_table_hit_skips_the_irreducibility_test(irreducibility_tests, monkeypatch):
    # nor does it walk the tables, test an element for primitivity, pack
    # a^d's residue again or take a power per sigma multiplier
    calls = []
    for name in ("_walk_tables", "_is_primitive", "_pack"):
        def counted(self, *args, name=name, method=getattr(FiniteField, name)):
            calls.append(name)
            return method(self, *args)
        monkeypatch.setattr(FiniteField, name, counted)

    def counted_pow(*args):
        calls.append("pow")
        return pow(*args)

    monkeypatch.setattr(skewrs.fields, "pow", counted_pow, raising=False)
    F1 = FiniteField(2, 12, GF4096_MODULUS, frobenius_power=1)
    assert irreducibility_tests == [F1.modulus]
    assert calls == ["_pack", "_walk_tables", "_is_primitive"]
    del calls[:]
    F10 = FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10)
    assert irreducibility_tests == [F1.modulus]
    assert calls == []
    assert F10._exp is F1._exp
    assert F10._adeg_digits is F1._adeg_digits and F10._adeg == F1._adeg
    assert F10._sigma_mult == [pow(2, 10 * k % 12, F10.size - 1) for k in range(F10.order)]


@pytest.mark.parametrize("p, degrees", [(2, range(2, 9)), (3, range(2, 5)), (5, (2, 3)),
                                        (7, (2, 3))])
def test_rabin_agrees_with_the_euclid_reference(irreducibility_tests, p, degrees):
    moduli = [m for d in degrees for m in _monic_moduli(p, d)]
    for m in moduli:
        try:
            FiniteField(p, len(m) - 1, m)
            accepted = True
        except FieldError:
            accepted = False
        assert accepted == rabin_by_euclid(p, m), m
    # every modulus ran the test: none was certified by shared tables
    assert len(irreducibility_tests) == len(moduli)


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


# -- Q(chi): the inverse's chain and the split-prime zero test ------------------------

# two sigma exponents per root order, one of full order where the bound allows
INVERSE_FIELDS = [(3, 2), (3, 1), (5, 2), (5, 4), (7, 3), (7, 2), (11, 2), (11, 10),
                  (13, 2), (13, 3), (23, 5), (23, 22)]


@pytest.mark.parametrize("m, exponent", INVERSE_FIELDS)
@settings(deadline=None, max_examples=30)
@given(coords=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=22, max_size=22),
       den=st.integers(1, 10 ** 6), shape=st.sampled_from(["dense", "rational", "quotient"]))
@example(coords=[1] + [0] * 21, den=1, shape="rational")
@example(coords=[-6] + [0] * 21, den=35, shape="rational")
@example(coords=[0] * 21 + [1], den=1, shape="dense")
def test_cyclotomic_inverse_equals_the_conjugate_product(m, exponent, coords, den, shape):
    # raw-equal to the product of all m - 2 other conjugates over the norm,
    # on one, rationals, dense values and quotients, whose coordinates and
    # denominator share most of their norm, as a decode's pivots do
    ctx = CyclotomicField(m, exponent)
    coords = coords[:m - 1]
    if shape == "rational":
        coords[1:] = [0] * (m - 2)
    if not any(coords):
        return
    u = ctx._make(tuple(coords), den)
    if shape == "quotient":
        v = ctx._make(tuple(reversed(coords)), den + 1)
        u = ctx.mul(u, inverse_by_conjugates(ctx, v))
    assert ctx.inv(u) == inverse_by_conjugates(ctx, u)


def _counted_accumulate(monkeypatch):
    """The list that records each CyclotomicField._accumulate call from now on."""
    real, calls = CyclotomicField._accumulate, []

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(CyclotomicField, "_accumulate", counted)
    return calls


@pytest.mark.parametrize("m", [3, 5, 7, 11, 13, 23, 211])
def test_a_cyclotomic_inverse_takes_a_logarithmic_chain(m, monkeypatch):
    # at most 2 * ceil(log2(m - 2)) + 1 products, where the conjugate
    # product takes m - 2
    ctx = CyclotomicField(m, m - 1)
    rng = rng_for(f"inverse-chain-{m}")
    xs = [ctx.random_nonzero(rng).raw for _ in range(2 if m == 211 else 20)]
    xs.append(ctx.from_int(-5).raw)
    calls = _counted_accumulate(monkeypatch)
    for x in xs:
        calls.clear()
        ctx.inv(x)
        assert len(calls) <= 2 * math.ceil(math.log2(m - 2)) + 1
    if m < 211:
        calls.clear()
        inverse_by_conjugates(ctx, xs[0])
        assert len(calls) == m - 2


def test_the_split_prime_maps_z_chi_into_f_q():
    # q is the largest prime = 1 (mod m) below 2^30, zeta has order m, and
    # chi -> zeta respects sums and products
    assert [n for n in range(200) if skewrs.fields._is_prime(n)] == [
        n for n in range(2, 200) if all(n % d for d in range(2, n))]
    assert not skewrs.fields._is_prime(3215031751)   # a strong pseudoprime to 2, 3, 5, 7
    for m in (3, 5, 7, 11, 13, 23, 211):
        q, powers = skewrs.fields._split_prime(m)
        assert q % m == 1 and q < 1 << 30 and len(powers) == m - 1
        assert all(q % d for d in range(2, math.isqrt(q) + 1))
        assert not any(skewrs.fields._is_prime(c) for c in range(q + m, 1 << 30, m))
        zeta = powers[1]
        assert zeta != 1 and pow(zeta, m, q) == 1
        if m > 23:
            continue
        ctx = CyclotomicField(m, 2 if m == 3 else m - 1)
        rng = rng_for(f"split-prime-{m}")
        for _ in range(20):
            x, y = ctx.random_element(rng).raw, ctx.random_element(rng).raw
            ix, iy, isum, iprod = ctx._images([x, y, ctx.add(x, y), ctx.mul(x, y)])
            assert isum == (ix + iy) % q and iprod == ix * iy % q


ZERO_TEST_FIELDS = {"chi5": (5, 2), "chi7-3": (7, 3), "chi7-2": (7, 2), "chi11": (11, 2)}


@functools.cache
def _zero_test_code(name):
    ctx = CyclotomicField(*ZERO_TEST_FIELDS[name])
    return build_code(ctx, find_normal_element(ctx), 0, 2)


def _planted_zero_words(code):
    """(table, vec) pairs whose conjugate sums vanish at some outputs: the
    shifted dual conjugates over the conjugate table, and the other way
    round, vanish at every output but one; the generator of the code with
    all n - 1 roots but one vanishes at its roots; and words of entries
    over unequal denominators, the last solved so that output 0 vanishes."""
    ctx, n = code.ctx, code.n
    conj, dual = code.conj, [v.raw for v in dual_conjugates(code)]
    words = [(table, [other[(i + j) % n] for i in range(n)])
             for table, other in ((code.conj_table, dual), (code.dual_table, conj))
             for j in range(n)]
    words.append((code.conj_table, list(build_code(ctx, code.alpha, 1, n).g.raw)))
    rng = rng_for(f"planted-zeros-{code.ctx.key}")
    for table, values in ((code.conj_table, conj), (code.dual_table, dual)):
        for _ in range(3):
            vec = [ctx._make(tuple(rng.randint(-9, 9) for _ in range(ctx.dim)), d)
                   for d in rng.sample(range(1, 30), n - 1)]
            acc = ctx.zero_raw
            for v, c in zip(vec, values):
                acc = ctx.add_product(acc, v, c)
            words.append((table, vec + [ctx.neg(ctx.mul(acc, ctx.inv(values[-1])))]))
    return words


@pytest.mark.parametrize("table", ["conj_table", "dual_table"])
@pytest.mark.parametrize("name", sorted(ZERO_TEST_FIELDS))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_cyclotomic_zero_test_equals_the_generic_route(name, table, data):
    # the one-sided image test gives what comparing each conjugate_sums
    # output with zero gives, on drawn vectors and on drawn multiples of
    # the planted zero words
    code = _zero_test_code(name)
    ctx, n = code.ctx, code.n
    entry = st.builds(lambda c, d: ctx._make(tuple(c), d),
                      st.lists(st.integers(-9, 9), min_size=ctx.dim, max_size=ctx.dim),
                      st.integers(1, 9))
    if data.draw(st.booleans()):
        tab = getattr(code, table)
        vec = data.draw(st.lists(st.one_of(st.just(ctx.zero_raw), st.just(ctx.one_raw), entry),
                                 max_size=n))
    else:
        tab, vec = data.draw(st.sampled_from(_planted_zero_words(code)))
        c = data.draw(entry)
        vec = [ctx.mul(c, v) for v in vec]
    count, offset = data.draw(st.integers(0, n)), data.draw(st.integers(0, 2 * n))
    assert ctx.conjugate_zeros(tab, vec, count, offset) == \
        FieldContext.conjugate_zeros(ctx, tab, vec, count, offset)


@pytest.mark.parametrize("name", sorted(ZERO_TEST_FIELDS))
def test_cyclotomic_zero_test_falls_back_where_the_image_cannot_tell(name):
    # planted: sums that are exactly zero; nonzero sums whose image
    # vanishes (entries times q); entries, and a table's values, whose
    # denominator is a multiple of q, which have no image
    code = _zero_test_code(name)
    ctx, n = code.ctx, code.n
    q = ctx._prime
    times_q, over_q = ctx.from_int(q).raw, ctx.inv(ctx.from_int(3 * q).raw)
    cases = []
    for table, vec in _planted_zero_words(code):
        cases.append((table, vec, "exact zeros"))
        cases.append((table, [ctx.mul(times_q, v) for v in vec], "no image"))
        cases.append((table, [ctx.mul(over_q, v) for v in vec], "q in a denominator"))
    for table in (code.conj_table, code.dual_table):
        cases.append((table, [times_q], "nonzero, image zero"))
        cases.append((table, [ctx.one_raw, over_q], "q in a denominator"))
    over_q_table = ctx.conjugate_table([ctx.mul(over_q, c) for c in code.conj])
    assert over_q_table[1] is None
    cases.append((over_q_table, [ctx.one_raw], "q in a table's denominator"))
    for table, vec, kind in cases:
        want = FieldContext.conjugate_zeros(ctx, table, vec, n, 0)
        assert ctx.conjugate_zeros(table, vec, n, 0) == want, kind
        if kind == "nonzero, image zero":
            assert ctx._images(vec) == [0] and not any(want)
        if kind == "exact zeros":
            assert any(want)


@pytest.mark.parametrize("name", sorted(ZERO_TEST_FIELDS))
def test_a_cyclotomic_zero_test_sums_exactly_only_where_the_image_vanishes(name, monkeypatch):
    # an output costs one _accumulate per nonzero entry only when it is
    # zero; a call whose sums are all nonzero makes none
    code = _zero_test_code(name)
    ctx, n = code.ctx, code.n
    rng = rng_for(f"zero-test-counts-{name}")
    words = [(table, vec) for table, vec in _planted_zero_words(code)]
    for _ in range(6):
        vec = [rng.choice((ctx.zero, ctx.one, ctx.random_element(rng))).raw for _ in range(n)]
        words += [(code.conj_table, vec), (code.dual_table, vec)]
    calls = _counted_accumulate(monkeypatch)
    none_zero = some_zero = 0
    for table, vec in words:
        terms = sum(1 for v in vec if v != ctx.zero_raw)
        for offset in range(n):
            calls.clear()
            zeros = ctx.conjugate_zeros(table, vec, n, offset)
            assert len(calls) == terms * sum(zeros)
            none_zero += not any(zeros)
            some_zero += any(zeros)
    assert none_zero and some_zero


def test_a_refused_cyclotomic_field_never_searches_for_a_split_prime(monkeypatch):
    # the search runs after every bound check: past the bound, below 2^30
    # there may be no prime = 1 (mod m) to find
    monkeypatch.setattr(skewrs.fields, "_split_prime",
                        lambda m: pytest.fail(f"split-prime search for m = {m}"))
    for m, exponent in [(100003, 2), (10 ** 18 + 3, 2), (223, 222), (29, 2), (9, 2), (7, 14)]:
        with pytest.raises(FieldError):
            CyclotomicField(m, exponent)


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


# -- packed F_2^d[z] sums -----------------------------------------------------------

# GF(2), and every irreducible modulus of characteristic 2 that a field in
# these tests is built on
CHAR2_MODULI = ["a + 1", "a^2 + a + 1", "a^3 + a + 1", "a^3 + a^2 + 1", "a^4 + a + 1",
                "a^4 + a^3 + 1", "a^4 + a^3 + a^2 + a + 1", "a^5 + a^2 + 1", "a^6 + a + 1",
                "a^8 + a^4 + a^3 + a + 1", "a^8 + a^4 + a^3 + a^2 + 1", GF4096_MODULUS,
                "a^16 + a^12 + a^3 + a + 1", "a^20 + a^3 + 1", "a^64 + a^4 + a^3 + a + 1"]


def _char2_degree(modulus):
    return int(modulus.split()[0].partition("^")[2] or 1)


@functools.cache
def _char2_field(modulus):
    # built in the first test that asks, not at import, so that a fault in
    # construction fails those tests and leaves the module collectable
    return FiniteField(2, _char2_degree(modulus), modulus, frobenius_power=0)


@st.composite
def poly_sum_cases(draw):
    """A char-2 modulus and a poly_sums call on its field: table
    polynomials, some zero, terms at distinct offsets, unequal lengths,
    coefficients biased to all ones (the largest slot counts) and starts,
    repeats allowed."""
    modulus = draw(st.sampled_from(CHAR2_MODULI))
    ctx = _char2_field(modulus)
    coeff = st.one_of(st.just(ctx.size - 1), st.just(0), st.integers(0, ctx.size - 1))
    poly = st.lists(coeff, max_size=9).map(lambda c: poly_trim(ctx, c))
    n = draw(st.integers(1, 5))
    polys = draw(st.lists(poly, min_size=n, max_size=n)) * 2
    offsets = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    terms = [(i, draw(poly)) for i in offsets]
    starts = draw(st.lists(st.integers(0, n - 1), max_size=n + 1))
    return modulus, terms, polys, starts


def _all_ones_case(modulus, terms, length):
    # T terms and table entries of L all-ones coefficients: the slot of
    # z^(L-1) * a^(d-1) counts T * L * d bit products, the slot bound itself
    ones = (2 ** _char2_degree(modulus) - 1,) * length
    return modulus, [(i, ones) for i in range(terms)], [ones] * (2 * terms), list(range(terms))


@settings(max_examples=400, deadline=None)
@given(poly_sum_cases())
@example(_all_ones_case("a + 1", 1, 4))
@example(_all_ones_case("a^2 + a + 1", 2, 4))
def test_packed_poly_sums_equal_the_schoolbook_route(case):
    # the packing kernel on every drawn call, and poly_sums on whichever
    # side of its size rule the call falls
    modulus, terms, polys, starts = case
    ctx = _char2_field(modulus)
    want = ctx._schoolbook_sums(terms, polys, starts)
    if terms:
        assert ctx._packed_sums(terms, polys, starts) == want
    assert ctx.poly_sums(terms, polys, starts) == want


def _slot_boundary_cases():
    # all-ones cases whose largest slot count T * L * d is 2^k - 1 (k bits
    # hold it) or 2^k (k + 1 bits)
    moduli = {1: "a + 1", 2: "a^2 + a + 1", 3: "a^3 + a + 1", 4: "a^4 + a + 1",
              8: "a^8 + a^4 + a^3 + a + 1"}
    for k in range(1, 9):
        for count in (2 ** k - 1, 2 ** k):
            for d, modulus in moduli.items():
                if count % d == 0:
                    terms = math.gcd(count // d, 4)
                    yield modulus, terms, count // d // terms


@pytest.mark.parametrize("modulus, terms, length", list(_slot_boundary_cases()))
def test_packed_poly_sums_at_each_slot_width_boundary(modulus, terms, length):
    _, full, polys, starts = _all_ones_case(modulus, terms, length)
    ctx = _char2_field(modulus)
    for case in (full, [(i, u[:1]) for i, u in full]):
        assert ctx._packed_sums(case, polys, starts) == ctx._schoolbook_sums(case, polys, starts)


@pytest.mark.parametrize("modulus", CHAR2_MODULI[1:])
def test_packed_poly_sums_fold_a_multiple_of_the_modulus_to_zero(modulus):
    # a^(d-1) * a^(j+1) + r * a^j, with the modulus a^d + r, is a^j times
    # the modulus before it is folded: zero, and in the top coefficient of
    # a longer sum, a sum one coefficient shorter
    ctx = _char2_field(modulus)
    d = ctx.degree
    rest = sum(c << i for i, c in enumerate(ctx.modulus[:d]))
    for j in range(d - 1):
        terms = [(0, (1 << (d - 1),)), (1, (rest,))]
        polys = [(1 << (j + 1),), (1 << j,)] * 2
        assert ctx._packed_sums(terms, polys, [0]) == [()]
        terms = [(0, (1, 1 << (d - 1))), (1, (0, 0, rest))]
        polys = [(0, 1 << (j + 1)), (1 << j,)] * 2
        assert ctx._packed_sums(terms, polys, [0]) == [(0, 1 << (j + 1))]
        assert ctx._schoolbook_sums(terms, polys, [0]) == [(0, 1 << (j + 1))]


@pytest.mark.parametrize("modulus", ["a^2 + a + 1", "a^3 + a + 1", "a^4 + a + 1",
                                     "a^20 + a^3 + 1"], ids=["f4", "f8", "f16", "f2^20"])
def test_poly_sums_pack_only_from_the_product_bound(modulus, monkeypatch):
    # the bases of F_4(z), F_8(z) and F_16(z): a call whose outputs * terms *
    # longest term * longest polynomial is below the bound takes the
    # schoolbook route, one at the bound packs, and both equal the
    # schoolbook result; an untabled field packs every call
    ctx = _char2_field(modulus)
    packed = []
    kernel = FiniteField._packed_sums
    monkeypatch.setattr(FiniteField, "_packed_sums",
                        lambda self, *a: packed.append(a) or kernel(self, *a))
    rng = rng_for(f"pack-rule-{modulus}")
    # two terms of 2 and 4 coefficients over polynomials of 5: 40 products
    # an output, so one output is below the bound and k at or past it
    polys = [tuple(rng.randrange(ctx.size) for _ in range(4)) + (1,) for _ in range(12)] * 2
    terms = [(0, (1, ctx.size - 1)), (2, tuple(rng.randrange(1, ctx.size) for _ in range(4)))]
    k = -(-skewrs.fields._PACKED_SUMS_MIN // 40)
    for outputs, packs in ((1, False), (k - 1, False), (k, True)):
        starts = [s % 12 for s in range(outputs)]
        packed.clear()
        assert ctx.poly_sums(terms, polys, starts) == ctx._schoolbook_sums(terms, polys, starts)
        assert len(packed) == (packs or ctx._exp is None)


# -- log-domain F_2^d[z] kernels -------------------------------------------------

# tabled GF(2^d) for d = 1, 2, 3, 4, 8 and 12; the second GF(2^8) modulus has a
# root that is not primitive, so its tables are walked from another element
KERNEL_MODULI = ["a + 1", "a^2 + a + 1", "a^3 + a + 1", "a^4 + a + 1",
                 "a^8 + a^4 + a^3 + a^2 + 1", "a^8 + a^4 + a^3 + a + 1", GF4096_MODULUS]


@st.composite
def kernel_cases(draw):
    """A tabled char-2 modulus and three F_q[z] operands f, g and h, each
    given by its coefficients' discrete logs (None for zero, a negative log
    counted down from q - 1): f and g are multiplied by h, when h is drawn,
    so that the gcd is planted.  Small and negative logs bias the draws to
    log sums that cross q - 1 at every d."""
    logs = st.one_of(st.none(), st.integers(-3, 3), st.integers(0, 1 << 12))
    poly = st.lists(logs, max_size=7)
    return (draw(st.sampled_from(KERNEL_MODULI)), draw(poly), draw(poly),
            draw(st.none() | st.lists(logs, min_size=1, max_size=4)))


def _kernel_operands(case):
    # the field and the trimmed raw operands f and g of a kernel case, with
    # h multiplied in by the generic product
    modulus, f, g, h = case
    ctx = _char2_field(modulus)
    assert ctx._exp is not None
    exp, top = ctx._exp, ctx.size - 1

    def raw(logs):
        return poly_trim(ctx, [0 if e is None else exp[e % top] for e in logs])

    f, g = raw(f), raw(g)
    if h is not None and raw(h):
        f, g = poly_mul(ctx, f, raw(h)), poly_mul(ctx, g, raw(h))
    return ctx, f, g


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
# zero and constant operands, and a divisor of degree 0
@example(("a^4 + a + 1", [], [], None))
@example(("a^4 + a + 1", [], [5, 1], None))
@example(("a^4 + a + 1", [-1, 2, -2], [], None))
@example(("a^8 + a^4 + a^3 + a + 1", [-1], [-2, 7, None, -1], None))
@example(("a^8 + a^4 + a^3 + a + 1", [3, None, -1], [-1], None))
@example((GF4096_MODULUS, [0], [-1], None))
# g monic and a factor of f: the gcd is g itself and g over it is (1,)
@example(("a^3 + a + 1", [-1, -2], [0], [-1, 2, 0]))
@example((GF4096_MODULUS, [5, None, -3, 2], [0], [-2, 0]))
# a coprime pair, z and z + 1
@example(("a^2 + a + 1", [None, 0], [0, 0], None))
# every log q - 2: each product's log sum is 2(q - 2), past q - 1
@example(("a^8 + a^4 + a^3 + a^2 + 1", [-1] * 5, [-1] * 4, [-1, -1]))
@example((GF4096_MODULUS, [-1] * 6, [-1] * 3, [-1]))
@example(("a + 1", [0, None, 0], [0, 0], [0, 0]))
def test_log_domain_kernels_equal_the_generic_ones(case):
    ctx, f, g = _kernel_operands(case)
    assert ctx.poly_product(f, g) == poly_mul(ctx, f, g)
    for x, y in ((f, g), (g, f)):
        gcd = ctx.poly_gcd(x, y)
        assert gcd == poly_gcrd(ctx, x, y)
        if y:
            assert ctx.poly_quotient(x, y) == poly_divmod(ctx, x, y)[0]
        if gcd:
            # exact quotients by the gcd, and by each factor of a product
            for z in (x, y):
                assert ctx.poly_quotient(z, gcd) == poly_divmod(ctx, z, gcd)[0]
            if x:
                assert ctx.poly_quotient(poly_mul(ctx, x, y), x) == y
    if g and poly_divmod(ctx, f, g)[1] == ():
        assert poly_mul(ctx, ctx.poly_quotient(f, g), g) == f


@pytest.mark.parametrize("p, degree, modulus", [(2, 4, "a^4 + a + 1"),
                                                (2, 12, GF4096_MODULUS)])
def test_a_tabled_conjugate_table_refuses_a_zero_value(p, degree, modulus):
    # the tabled table holds discrete logs, and zero has none: a zero value
    # is refused rather than summed as one (log 0 would read as log 1)
    ctx = FiniteField(p, degree, modulus)
    assert ctx._exp is not None
    values = [ctx.generator_raw, 1, ctx.sigma_raw(ctx.generator_raw)]
    for at in range(len(values) + 1):
        with pytest.raises(FieldError, match="nonzero values"):
            ctx.conjugate_table(values[:at] + [0] + values[at:])
    table = ctx.conjugate_table(values)
    generic = skewrs.fields.FieldContext.conjugate_table(ctx, values)
    for vec in ([1], [0, 1], [1, 1, 1], [ctx.generator_raw, 0, 1]):
        assert ctx.conjugate_sums(table, vec, 3, 1) == \
            skewrs.fields.FieldContext.conjugate_sums(ctx, generic, vec, 3, 1)
