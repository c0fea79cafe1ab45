import importlib.util
import pathlib
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from skewrs import FiniteField, ParseError, SkewPolynomial, parse_element, parse_poly
from skewrs.codes import encode
from skewrs.parsing import MAX_EXPONENT, _Parser, _symbol_table, parse_int_poly

from conftest import LONG_LITERAL, rng_for, random_poly
from oracles import coeff, from_fraction, modulus_by_shape, monomial, parse_by_methods


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
    assert coeff(f, 4) == two
    assert coeff(f, 0) == from_fraction(cyclotomic, Fraction(3, 2)) * cyclotomic.generator ** 2


def test_unary_minus(cyclotomic):
    f = parse_poly(cyclotomic, "-chi^5 - chi^3")
    chi = cyclotomic.generator
    assert f == SkewPolynomial(cyclotomic, (-(chi ** 5) - chi ** 3,))


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


@pytest.mark.parametrize("text", [LONG_LITERAL, "a^" + LONG_LITERAL], ids=["integer", "exponent"])
def test_an_integer_literal_past_the_interpreter_limit_is_a_parse_error(gf4096, int_digit_limit,
                                                                         text):
    for parse in (parse_poly, parse_element):
        with pytest.raises(ParseError, match="5000 digits") as err:
            parse(gf4096, text)
        assert err.value.pos == text.index("1")


def test_digits_that_are_not_decimal_are_a_parse_error(gf4096):
    # str.isdigit accepts a superscript two, which int() refuses
    with pytest.raises(ParseError) as err:
        parse_element(gf4096, "a^²")
    assert err.value.pos == 2


# every modulus written in the tests, the demos and the benchmark's
# workloads, with the coefficients the reader gives it, lowest first
MODULI = {
    "1": [1],
    "a + 1": [1, 1],
    "a^2 + 1": [1, 0, 1],
    "a^2 + a + 1": [1, 1, 1],
    "a^3 + a + 1": [1, 1, 0, 1],
    "a^3 + a^2 + 1": [1, 0, 1, 1],
    "a^3 + 2a + 1": [1, 2, 0, 1],
    "a^3 + 3a + 2": [2, 3, 0, 1],
    "a^4 + a + 1": [1, 1, 0, 0, 1],
    "a^4 + a^2 + 1": [1, 0, 1, 0, 1],
    "a^4 + a^3 + 1": [1, 0, 0, 1, 1],
    "a^4 + a^3 + a^2 + a + 1": [1, 1, 1, 1, 1],
    "a^4 + 2a^3 + 2": [2, 0, 0, 2, 1],
    "a^5 + a^2 + 1": [1, 0, 1, 0, 0, 1],
    "a^6 + a + 1": [1, 1, 0, 0, 0, 0, 1],
    "a^6 + a^5 + 2": [2, 0, 0, 0, 0, 1, 1],
    "a^8 + a^4 + a^3 + a + 1": [1, 1, 0, 1, 1, 0, 0, 0, 1],
    "a^12 + a^7 + a^6 + a^5 + a^3 + a + 1": [1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1],
    "a^16 + a^12 + a^3 + a + 1": [1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1],
    "a^20 + a^3 + 1": [1, 0, 0, 1] + [0] * 16 + [1],
}

# signs, stars, spacing and repeated powers, as the reader has always taken them
MODULUS_SPELLINGS = {
    "-a + 2*a^3": [0, -1, 0, 2],
    "+a^2 - 1": [-1, 0, 1],
    "2 * a^3+a^3 + a^0": [1, 0, 0, 3],
    "a^2 - a^2 + 7": [7, 0, 0],
}

# the last once built a coefficient list as long as its exponent
MALFORMED_MODULI = ["", "a^", "a^12 a", "b^2 + 1", "(a+1)^2", "a^2 ++ 1",
                    "a^12 + a^99999999999999999999 + 1"]


@pytest.mark.parametrize("text", list(MODULI) + list(MODULUS_SPELLINGS))
def test_modulus_coefficients(text):
    assert parse_int_poly(text, "a") == {**MODULI, **MODULUS_SPELLINGS}[text]


def test_modulus_in_another_symbol():
    assert parse_int_poly("w^3 + w + 1", "w") == [1, 1, 0, 1]
    with pytest.raises(ParseError):
        parse_int_poly("a^3 + a + 1", "w")


@pytest.mark.parametrize("text", MALFORMED_MODULI)
def test_malformed_moduli_are_parse_errors(text):
    with pytest.raises(ParseError):
        FiniteField(2, 12, text)


def test_a_modulus_exponent_past_the_bound_is_a_parse_error():
    assert len(parse_int_poly(f"a^{MAX_EXPONENT} + 1", "a")) == MAX_EXPONENT + 1
    text = f"a^12 + a^{MAX_EXPONENT + 1} - a^{MAX_EXPONENT + 1} + 1"
    with pytest.raises(ParseError) as err:
        parse_int_poly(text, "a")
    assert str(err.value) == f"exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT} (at position 9)"


# -- the one-pass modulus reader against the shape-string reference -----------

def _read(reader, text, symbol):
    """The coefficients, or the ParseError's text and position."""
    try:
        return reader(text, symbol)
    except ParseError as exc:
        return str(exc), exc.pos


def _agrees(text, symbol):
    return _read(parse_int_poly, text, symbol) == _read(modulus_by_shape, text, symbol)


# literals past the interpreter's limit, alone and before or after a term
# error, and a term error before a stray character: the tokenizer's error
# comes first, wherever it is
LEXICAL_MODULI = ["a^" + LONG_LITERAL, LONG_LITERAL + "a + 1", "a^2 + " + LONG_LITERAL,
                  "b + a^" + LONG_LITERAL, "a^" + LONG_LITERAL + " + b", "a^12 a + $"]


@pytest.mark.parametrize("text", list(MODULI) + list(MODULUS_SPELLINGS) + MALFORMED_MODULI
                         + [f"a^{MAX_EXPONENT} + 1", f"a^{MAX_EXPONENT + 1} + 1"])
def test_the_modulus_reader_agrees_with_the_shape_reference(text):
    assert _agrees(text, "a")
    assert _agrees(text.replace("a", "w"), "w")
    assert _agrees(text, "w")


@pytest.mark.parametrize("text", LEXICAL_MODULI)
def test_the_modulus_reader_reports_the_tokenizer_error_first(int_digit_limit, text):
    assert _agrees(text, "a")


EDIT_ALPHABET = "abw012^*+-()$² "


def _one_character_edits(text):
    for i in range(len(text) + 1):
        for ch in EDIT_ALPHABET:
            yield text[:i] + ch + text[i:]
            if i < len(text):
                yield text[:i] + ch + text[i + 1:]
        if i < len(text):
            yield text[:i] + text[i + 1:]


@pytest.mark.parametrize("text", list(MODULI))
def test_the_modulus_reader_agrees_on_every_one_character_edit(text):
    bad = [edit for edit in _one_character_edits(text)
           if not (_agrees(edit, "a") and _agrees(edit, "w"))]
    assert bad == []


# -- the parser against SkewPolynomial and Element operators -------------------
#
# An expression tree is a tuple: ("int", k), ("sym", name, k or None) and
# ("x", k) are leaves; ("add" | "sub" | "mul" | "adj", l, r), ("neg", e),
# ("div", e, constant tree) and ("pow", e, k) are nodes.  ``_render`` prints
# a tree and evaluates it with the operators, term by term, choosing each
# exponent within the parser's bounds.

def _leaves(with_x):
    leaves = [st.tuples(st.just("int"), st.integers(0, 12)),
              st.tuples(st.just("sym"), st.integers(0, 1), st.none() | st.integers(0, 5000))]
    if with_x:
        leaves.append(st.tuples(st.just("x"), st.integers(0, 9)))
    return st.one_of(leaves)


def _nodes(children, constants):
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul", "adj"]), children, children),
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("div"), children, constants),
        st.tuples(st.just("pow"), children, st.integers(0, 4)))


_CONSTANTS = st.recursive(_leaves(False), lambda c: _nodes(c, _leaves(False)), max_leaves=4)
_TREES = st.recursive(_leaves(True), lambda c: _nodes(c, _CONSTANTS), max_leaves=8)


def _repeated(one, f, k):
    out = one
    for _ in range(k):
        out = out * f
    return out


def _render(ctx, tree):
    """(text, value, exponent): the tree's text, its value as a
    SkewPolynomial and the largest exponent product the parser sees in it."""
    kind = tree[0]
    one = SkewPolynomial(ctx, (ctx.one,))
    names = sorted(ctx.symbols)
    infinite = ctx.size is None
    if kind == "int":
        return str(tree[1]), SkewPolynomial(ctx, (ctx.from_int(tree[1]),)), 1
    if kind == "sym":
        name = names[tree[1] % len(names)]
        c = SkewPolynomial(ctx, (ctx.element(ctx.symbols[name]),))
        if tree[2] is None:
            return name, c, 1
        k = tree[2] % 4 if infinite else tree[2]
        return f"{name}^{k}", SkewPolynomial(ctx, (c.coeffs[0] ** k,)), max(k, 1)
    if kind == "x":
        k = min(tree[1], ctx.order)
        return f"x^{k}", _repeated(one, SkewPolynomial.variable(ctx), k), max(k, 1)
    if kind == "neg":
        text, f, e = _render(ctx, tree[1])
        return f"-({text})", -f, e
    if kind == "pow":
        text, f, e = _render(ctx, tree[1])
        k = tree[2]
        if f.degree > 0:
            k = min(k, ctx.order // f.degree)
        if infinite:
            k = min(k, MAX_EXPONENT // e)
        return f"({text})^{k}", _repeated(one, f, k), max(e * k, 1)
    ltext, f, e1 = _render(ctx, tree[1])
    rtext, g, e2 = _render(ctx, tree[2])
    e = max(e1, e2)
    if kind == "div":
        c = g.coeffs[0] if g else ctx.zero
        # parse_element reads the constant the same way
        assert parse_element(ctx, rtext) == c
        if not c:
            rtext, c = names[0], ctx.element(ctx.symbols[names[0]])
        return f"({ltext})/({rtext})", SkewPolynomial(ctx, (c.inverse(),)) * f, e
    if kind == "add":
        return f"{ltext} + {rtext}", f + g, e
    if kind == "sub":
        return f"{ltext} - ({rtext})", f - g, e
    if kind == "mul":
        return f"({ltext})*({rtext})", f * g, e
    if tree[1][0] in ("int", "sym", "x") and tree[2][0] in ("int", "sym", "x"):
        return f"{ltext} {rtext}", f * g, e
    return f"({ltext})({rtext})", f * g, e


@pytest.mark.parametrize("fixture", ["gf4096", "rational", "cyclotomic"])
@settings(max_examples=150, deadline=None)
@given(tree=_TREES)
def test_parse_poly_equals_the_operators_bit_for_bit(request, fixture, tree):
    ctx = request.getfixturevalue(fixture)
    text, expected, _ = _render(ctx, tree)
    parsed = parse_poly(ctx, text)
    assert parsed.raw == expected.raw
    assert parsed == expected


# malformed input and the ParseError it has always raised, position included
MALFORMED = [
    ('gf4096', 'poly', '', "unexpected '' (at position 0)"),
    ('gf4096', 'poly', 'a +', "unexpected '' (at position 3)"),
    ('gf4096', 'poly', 'a^', "expected 'int', found '' (at position 2)"),
    ('gf4096', 'poly', 'a^x', "expected 'int', found 'x' (at position 2)"),
    ('gf4096', 'poly', '(a + 1', 'missing closing parenthesis (at position 6)'),
    ('gf4096', 'poly', 'a + q', "unknown symbol 'q' (at position 4)"),
    ('gf4096', 'poly', 'a + $', "unexpected character '$' (at position 4)"),
    ('gf4096', 'poly', 'a/x', 'division by a non-constant polynomial (at position 1)'),
    ('gf4096', 'poly', 'x/(a + a)', 'division by zero (at position 1)'),
    ('gf4096', 'poly', 'x^7', 'power of degree 7 exceeds n = 6 (at position 2)'),
    ('gf4096', 'poly', '(x^2)^4', 'power of degree 8 exceeds n = 6 (at position 6)'),
    ('gf4096', 'poly', '(x + a)^99999999999',
     'power of degree 99999999999 exceeds n = 6 (at position 8)'),
    ('gf4096', 'poly', 'a)', "unexpected ')' (at position 1)"),
    ('gf4096', 'poly', '*a', "unexpected '*' (at position 0)"),
    ('gf4096', 'element', 'x + a', "unknown symbol 'x' (at position 0)"),
    ('gf4096', 'element', 'a*x^0*x', "unknown symbol 'x' (at position 2)"),
    ('gf4096', 'poly', '(' * 101 + 'a' + ')' * 101,
     'nesting deeper than 100 levels (at position 100)'),
    ('gf4096', 'poly', '-' * 101 + 'a', 'nesting deeper than 100 levels (at position 100)'),
    ('gf4096', 'poly', 'a^²', "unexpected character '²' (at position 2)"),
    ('gf4096', 'poly', 'a ^ -1', "expected 'int', found '-' (at position 4)"),
    ('gf4096', 'poly', '(x + 1)^7', 'power of degree 7 exceeds n = 6 (at position 8)'),
    ('gf4096', 'poly', '(a + a)^3 / (x - x)', 'division by zero (at position 10)'),
    ('gf4096', 'poly', 'a^3953x^4 + b', "unknown symbol 'b' (at position 12)"),
    ('gf4096', 'poly', '2x^', "expected 'int', found '' (at position 3)"),
    ('gf4096', 'poly', '()', "unexpected ')' (at position 1)"),
    ('gf4096', 'poly', 'x^2^3', "unexpected '^' (at position 3)"),
    ('rational', 'element', 'z^99999999999',
     'exponent 99999999999 exceeds 1024 over an infinite field (at position 2)'),
    ('rational', 'element', '((z^99)^99)^99',
     'exponent 9801 exceeds 1024 over an infinite field (at position 8)'),
    ('rational', 'element', '1/(z - z)', 'division by zero (at position 1)'),
    ('rational', 'element', 'z +', "unexpected '' (at position 3)"),
    ('rational', 'element', '(z + a^2)^1000',
     'exponent 2000 exceeds 1024 over an infinite field (at position 10)'),
    ('rational', 'element', 'w', "unknown symbol 'w' (at position 0)"),
    ('rational', 'poly', 'x^6', 'power of degree 6 exceeds n = 5 (at position 2)'),
    ('rational', 'poly', '(z + 1)/x', 'division by a non-constant polynomial (at position 7)'),
    ('rational', 'element', 'z/(z^2 + z + z^2 + z)', 'division by zero (at position 1)'),
    ('cyclotomic', 'element', '(chi + 1)^99999999999',
     'exponent 99999999999 exceeds 1024 over an infinite field (at position 10)'),
    ('cyclotomic', 'element', '2^99999999999',
     'exponent 99999999999 exceeds 1024 over an infinite field (at position 2)'),
    ('cyclotomic', 'poly', 'chi/0', 'division by zero (at position 3)'),
    ('cyclotomic', 'poly', 'chi^', "expected 'int', found '' (at position 4)"),
    ('cyclotomic', 'poly', 'chi^2 +* 3', "unexpected '*' (at position 7)"),
    ('rational', 'poly', '(z x)^3 (z + x)^6', 'power of degree 6 exceeds n = 5 (at position 16)'),
    ('cyclotomic', 'poly', 'x^7 - 1', 'power of degree 7 exceeds n = 6 (at position 2)'),
    ('cyclotomic', 'poly', '3/(7 - 7)x', 'division by zero (at position 1)'),
    ('cyclotomic', 'element', 'chi x', "unknown symbol 'x' (at position 4)"),
]


@pytest.mark.parametrize("fixture, kind, text, message", MALFORMED)
def test_malformed_input_keeps_its_parse_error(request, fixture, kind, text, message):
    parse = parse_poly if kind == "poly" else parse_element
    with pytest.raises(ParseError) as err:
        parse(request.getfixturevalue(fixture), text)
    assert str(err.value) == message


# -- the parser against the method-call reference ----------------------------
#
# ``_Parser`` reads the token list in place; ``oracles.ParserByMethods`` is
# the same grammar read through peek/advance/expect calls.  Both must give
# the same raw value, or the same error text and position, on every text.

_WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _outcome(parse):
    try:
        return "value", parse()
    except Exception as exc:   # the exception's type, text and position
        return type(exc).__name__, str(exc), getattr(exc, "pos", None)


def _symbols(ctx, kind):
    table = _symbol_table(ctx)
    return {"x": (ctx.zero_raw, ctx.one_raw), **table} if kind == "poly" else table


def _parsers_agree(ctx, kind, text):
    symbols = _symbols(ctx, kind)
    new = _outcome(lambda: _Parser(ctx, text, symbols).parse())
    return new == _outcome(lambda: parse_by_methods(ctx, text, symbols))


@pytest.fixture(scope="module")
def agreement_contexts(all_contexts, round_trip_contexts):
    """GF(2^12), F_4(z), GF(9)(z) and Q(chi_7)."""
    return dict(all_contexts, f9z=round_trip_contexts["f9z"])


@pytest.fixture(scope="module")
def workload_words():
    """(code name, message text, received word text) of the first 40
    trials of the cli-gf4096 and infinite-mix workloads at seed 11, each
    received word written as the CLI workload writes it: the codeword's
    text plus the error's."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads   # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    words = {}
    for name in ("cli-gf4096", "infinite-mix"):
        codes = workloads.build_codes(workloads.WORKLOADS[name])
        for i in range(40):
            trial = workloads.draw_trial(name, 11, i, codes).materialize()
            received = str(encode(trial.code, trial.msg))
            if trial.weight:
                received += f" + {trial.err_text()}"
            words.setdefault(name, []).append((trial.spec.name, trial.msg_text(), received))
    return words


# the texts the tests above parse, beside those of MALFORMED
TEST_TEXTS = ["a^3953x^4", "a^3953 x^4", "a^3953*x^4", "a ^ 3953 * x ^ 4", "x^2 + a*x + a^7",
              "a^7 + x^2 + a*x", "x^2 + x^2", "az^5", "2x^4 + 3/2*chi^2", "-chi^5 - chi^3",
              "(z + a)/(z^2 + a^2*z)", "(z+a) / (z^2+a^2z)", "a^2 + $", "a + q", "(a + 1",
              "1/(z - z)", "a/x", "x + a", "x*a", "(a^3 + a)*z + a", "(a + 2)*z^2 + a",
              "x^6 - 1", "(x^2)^3", "x^7", "(x^2)^4", "(x + a)^99999999999", "a^99999999999",
              "z^99999999999", "((z^99)^99)^99", "(chi + 1)^99999999999", "2^99999999999",
              "a^²", "(" * 300 + "a" + ")" * 300, "-" * 2000 + "a"]


def test_the_parser_agrees_with_the_reference_on_the_test_texts(agreement_contexts):
    texts = TEST_TEXTS + [text for _, _, text, _ in MALFORMED]
    bad = [(name, kind, text) for name, ctx in agreement_contexts.items()
           for kind in ("poly", "element") for text in texts
           if not _parsers_agree(ctx, kind, text)]
    assert bad == []


@pytest.mark.parametrize("workload, names", [("cli-gf4096", {"gf4096": "gf4096"}),
                                             ("infinite-mix", {"rational": "rational",
                                                               "cyclotomic": "cyclotomic"})])
def test_the_parser_agrees_with_the_reference_on_the_workload_words(
        agreement_contexts, workload_words, workload, names):
    bad = []
    for code, msg, received in workload_words[workload]:
        ctx = agreement_contexts[names[code]]
        bad += [text for text in (msg, received) if not _parsers_agree(ctx, "poly", text)]
    assert bad == []


PARSE_EDIT_ALPHABET = ["a", "x", "z", "chi", "0", "1", "2", "^", "*", "+", "-", "/", "(", ")",
                       "$", "²", " "]


def _token_edits(text):
    """Every insertion, deletion and substitution of one character, with
    the multi-character chi as one item of the alphabet."""
    for i in range(len(text) + 1):
        for item in PARSE_EDIT_ALPHABET:
            yield text[:i] + item + text[i:]
            if i < len(text):
                yield text[:i] + item + text[i + 1:]
        if i < len(text):
            yield text[:i] + text[i + 1:]


@pytest.mark.parametrize("which", ["message", "received"])
def test_the_parser_agrees_with_the_reference_on_every_one_character_edit(
        agreement_contexts, workload_words, which):
    # a message of a weight-0 trial and a received word of a weight-2 one
    _, msg, received = workload_words["cli-gf4096"][1 if which == "message" else 3]
    text = msg if which == "message" else received
    bad = [(name, edit) for edit in _token_edits(text)
           for name, ctx in agreement_contexts.items() if not _parsers_agree(ctx, "poly", edit)]
    assert bad == []


@pytest.mark.parametrize("levels", [99, 100, 101])
def test_the_parser_agrees_with_the_reference_at_the_nesting_bound(agreement_contexts, levels):
    texts = ["(" * levels + "a" + ")" * levels, "-" * levels + "a",
             "-(" * (levels // 2) + "a" + ")" * (levels // 2) + "^2",
             "(" * levels + "x + a" + ")" * levels + "^2", "-" * (levels - 1) + "(a)"]
    bad = [(name, text) for name, ctx in agreement_contexts.items() for text in texts
           if not _parsers_agree(ctx, "poly", text)]
    assert bad == []


def test_the_parser_agrees_with_the_reference_at_the_exponent_and_degree_bounds(
        agreement_contexts):
    bad = []
    for name, ctx in agreement_contexts.items():
        n, s = ctx.order, next(iter(ctx.symbols))
        texts = [f"{s}^{MAX_EXPONENT}", f"{s}^{MAX_EXPONENT + 1}", f"({s}^32)^32",
                 f"({s}^32)^33", f"(({s}^2)^2)^256", f"(({s}^2)^2)^257", f"2^{MAX_EXPONENT + 1}",
                 f"({s} + 1)^{MAX_EXPONENT}", f"({s}^{MAX_EXPONENT})^1 * {s}^2",
                 f"x^{n}", f"x^{n + 1}", f"(x^2)^{n // 2}", f"(x^2)^{n // 2 + 1}",
                 f"(x + {s})^{n}", f"(x + {s})^{n + 1}", f"({s}x)^{n}", f"x^{n} - 1",
                 f"(x^{n})^1 + ({s}^{MAX_EXPONENT})^1"]
        bad += [(name, text) for text in texts for kind in ("poly", "element")
                if not _parsers_agree(ctx, kind, text)]
    assert bad == []


@pytest.mark.parametrize("fixture", ["gf4096", "rational", "cyclotomic"])
@settings(max_examples=60, deadline=None)
@given(tree=_TREES)
def test_the_parser_agrees_with_the_reference_on_rendered_trees(request, fixture, tree):
    ctx = request.getfixturevalue(fixture)
    assert _parsers_agree(ctx, "poly", _render(ctx, tree)[0])
