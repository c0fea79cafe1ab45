import time

import pytest

from skewrs import ParseError, SkewPolynomial, parse_element, parse_poly

from conftest import rng_for, random_poly
from oracles import from_fraction, monomial


def test_whitespace_and_star_are_optional(gf4096):
    a = gf4096.generator
    variants = ["a^3953x^4", "a^3953 x^4", "a^3953*x^4", "a ^ 3953 * x ^ 4"]
    expected = monomial(gf4096, a ** 3953, 4)
    for text in variants:
        assert parse_poly(gf4096, text) == expected


def test_terms_merge_and_commute(gf4096):
    f = parse_poly(gf4096, "x^2 + a*x + a^7")
    g = parse_poly(gf4096, "a^7 + x^2 + a*x")
    assert f == g
    merged = parse_poly(gf4096, "x^2 + x^2")
    assert merged.is_zero  # characteristic 2


def test_exponent_binds_to_last_symbol(rational):
    # adjacency: az^5 is a * z^5, never (a*z)^5
    lhs = parse_element(rational, "az^5")
    a = rational.from_base(rational.base.generator)
    z = rational.generator
    assert lhs == a * z ** 5


def test_integer_coefficients(cyclotomic):
    f = parse_poly(cyclotomic, "2x^4 + 3/2*chi^2")
    two = cyclotomic.from_int(2)
    from fractions import Fraction
    assert f.coeff(4) == two
    assert f.coeff(0) == from_fraction(cyclotomic, Fraction(3, 2)) * cyclotomic.generator ** 2


def test_unary_minus(cyclotomic):
    f = parse_poly(cyclotomic, "-chi^5 - chi^3")
    chi = cyclotomic.generator
    assert f == SkewPolynomial.constant(cyclotomic, -(chi ** 5) - chi ** 3)


def test_parenthesized_fractions(rational):
    x = parse_element(rational, "(z + a)/(z^2 + a^2*z)")
    y = parse_element(rational, "(z+a) / (z^2+a^2z)")
    assert x == y


def test_error_reports_position():
    from skewrs import FiniteField
    ctx = FiniteField(2, 4, "a^4 + a + 1")
    with pytest.raises(ParseError) as err:
        parse_element(ctx, "a^2 + $")
    assert err.value.pos == 6


def test_unknown_symbol_rejected(gf4096):
    with pytest.raises(ParseError):
        parse_element(gf4096, "a + q")


def test_unbalanced_parens_rejected(gf4096):
    with pytest.raises(ParseError):
        parse_element(gf4096, "(a + 1")


@pytest.mark.parametrize("text", ["(" * 300 + "a" + ")" * 300, "-" * 2000 + "a"],
                         ids=["parentheses", "minus-signs"])
def test_deep_nesting_is_a_parse_error(gf4096, text):
    with pytest.raises(ParseError, match="nesting"):
        parse_poly(gf4096, text)


def test_nesting_up_to_the_bound_parses(gf4096):
    a = parse_poly(gf4096, "a")
    assert parse_poly(gf4096, "(" * 100 + "a" + ")" * 100) == a
    assert parse_poly(gf4096, "-" * 100 + "a") == a


def test_division_by_zero_literal(rational):
    with pytest.raises(ParseError):
        parse_element(rational, "1/(z - z)")


def test_division_by_polynomial_rejected(gf4096):
    with pytest.raises(ParseError):
        parse_poly(gf4096, "a/x")


def test_element_parse_rejects_polynomials(gf4096):
    with pytest.raises(ParseError):
        parse_element(gf4096, "x + a")


def test_poly_round_trip_through_text(round_trip_contexts):
    for name, ctx in round_trip_contexts.items():
        rng = rng_for(f"poly-roundtrip-{name}")
        for _ in range(50):
            # a power of x may not pass the ring's degree n
            f = random_poly(ctx, rng, min(4, ctx.order))
            assert parse_poly(ctx, str(f)) == f


def test_skew_product_in_source_text(gf4096):
    # x*c evaluates with the commutation rule, matching sigma
    a = gf4096.generator
    f = parse_poly(gf4096, "x*a")
    assert f == monomial(gf4096, gf4096.sigma(a), 1)


def test_compound_base_coefficients_print_in_parentheses(round_trip_contexts):
    for name, text in (("f256z", "(a^3 + a)*z + a"), ("f9z", "(a + 2)*z^2 + a")):
        ctx = round_trip_contexts[name]
        assert ctx.format(parse_element(ctx, text)) == text


def test_skew_powers_stop_at_the_ring_degree(gf4096):
    n = gf4096.order
    assert parse_poly(gf4096, f"x^{n} - 1").degree == n
    assert parse_poly(gf4096, "(x^2)^3").degree == n
    for text in (f"x^{n + 1}", "(x^2)^4", "(x + a)^99999999999"):
        with pytest.raises(ParseError):
            parse_poly(gf4096, text)
    # finite-field constants have no exponent cap
    assert parse_element(gf4096, "a^99999999999") == gf4096.generator ** 99999999999


@pytest.mark.parametrize("fixture, text", [
    ("rational", "z^99999999999"),
    ("rational", "((z^99)^99)^99"),
    ("cyclotomic", "(chi + 1)^99999999999"),
    ("cyclotomic", "2^99999999999"),
])
def test_infinite_field_exponents_are_capped_before_expansion(request, fixture, text):
    ctx = request.getfixturevalue(fixture)
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_element(ctx, text)
    assert time.perf_counter() - start < 0.5
