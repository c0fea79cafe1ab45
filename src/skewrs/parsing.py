"""Recursive-descent parser for field elements and skew polynomials.

One grammar covers every backend.  Every value is the raw coefficient
tuple of a skew polynomial (``SkewPolynomial.raw``), combined by the
``fields.poly_*`` kernels, so text is wrapped once, when it is parsed.  The
symbols are the names in the context's ``symbols`` plus the polynomial
variable ``x``:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary | unary)*      adjacency multiplies
    unary  := '-' unary | power
    power  := atom ('^' integer)?
    atom   := '(' expr ')' | integer | name

so ``a^3953x^4`` is the coefficient a^3953 times x^4, and
``(z+a)/(z^2+a^2*z)`` is an exact fraction.  Division requires a nonzero
constant divisor.  An unknown name is split greedily into known
single-character symbols (``az`` means a*z).  Whitespace is ignored.

A power is ``fields.poly_pow``, the kernel behind ``SkewPolynomial.__pow__``:
``x^k`` is the degree-k monomial itself, a constant's power is ``ctx.pow``,
and only a compound base such as ``(x + a)^3`` is raised by repeated skew
products.  A ``parse_element`` result is a constant by construction: its
symbols are the context's constants, with no ``x``, and sums, products,
powers and constant quotients of constants are constants.

An integer literal is a run of decimal digits, converted to an int once, by
the tokenizer; one longer than the interpreter's ``int_max_str_digits``
allows is a ``ParseError`` at its position.

The tokenizer is a loop over the characters; a regex scanner made the whole
parse slower.  ``_Parser`` has one method per grammar level that recurses
(expr, term, unary with its power and atom), and each reads the token list
in place, with no call per token.

``parse_int_poly`` reads a GF(p^d) modulus, before its field exists: a sum
of terms c, c*a^k, ca^k, a and a^k in the generator symbol a, integer c
and k, first sign optional, a repeated power added up.  It reads the text
in one left-to-right pass, one match of a term pattern per term (sign,
coefficient, '*', name, exponent), and compares the name with the symbol
after the match.  It tokenizes only on an error, which is the one the
tokens give: the tokenizer's own, wherever it is, else the first term not
of those forms, at its first token.  An exponent k past ``MAX_EXPONENT`` is
a ``ParseError``, checked before the coefficient list grows to it, as no
field of degree above 64 exists to take it and that list would be k long.

Parentheses and unary minus signs nest at most ``MAX_NESTING`` deep, so
deeper input is a ``ParseError``, not a ``RecursionError``.

Every ``^`` is bounded before it is computed.  A non-constant power may not
pass degree n, the order of sigma, so ``x^n - 1`` still parses.  Over an
infinite field a constant's power grows with its exponent (degrees in
F_q(z), integer sizes in Q(chi)), so there the exponent, multiplied
through nested powers such as ``((z^9)^9)^9``, may not pass
``MAX_EXPONENT``.  Finite-field constants are uncapped: their power is a
table lookup or O(log k) products.
"""

from __future__ import annotations

import re

from .fields import Element, poly_add, poly_mul, poly_neg, poly_pow, poly_scale, poly_trim
from .skewpoly import SkewPolynomial


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_OPS = set("+-*/^()")

# the tokens that start an atom, so that adjacency multiplies
_ATOM_STARTS = ("name", "int", "(")

MAX_EXPONENT = 1 << 10

MAX_NESTING = 100


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                tokens.append(("int", int(text[i:j]), i))
            except ValueError:   # past the interpreter's int_max_str_digits
                raise ParseError(f"integer literal of {j - i} digits is too long", i) from None
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalpha() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# one modulus term: sign, coefficient, '*', name and exponent, each optional
# here and checked by the reader; a name token is letters and '_', and this
# class also takes numeric characters such as '²', which no token holds
_MODULUS_TERM = re.compile(r"\s*([+-]?)\s*(\d*)\s*(\*?)\s*(?:([^\W\d]+)\s*(?:\^\s*(\d+)\s*)?)?")


def _modulus_error(text, message, pos):
    # the tokenizer's errors come first, wherever they are in the text
    _tokenize(text)
    return ParseError(message, pos)


def parse_int_poly(text, symbol):
    """The low-first integer coefficients of a modulus in ``symbol``."""
    coeffs = []
    n = len(text)
    # a token is letters and '_' only, so no term names another symbol
    own = symbol if symbol.replace("_", "a").isalpha() else ""
    # a term ends the text or a sign follows it, where the next match starts
    for m in _MODULUS_TERM.finditer(text):
        sign, c, star, name, k = m.groups()
        end = m.end()
        # c alone or the symbol, after c or c* if any, then a sign or the end
        if (name != own and (name or not c) or star and not (c and name)
                or end < n and text[end] not in "+-"):
            raise _modulus_error(text, f"expected a term c*{symbol}^k", m.start(2))
        try:
            k = int(k) if k else 1 if name else 0
            c = int(c) if c else 1
        except ValueError:   # past int_max_str_digits, which the tokenizer reports
            _tokenize(text)
            raise
        if k > MAX_EXPONENT:   # before the list grows to it
            raise _modulus_error(text, f"exponent {k} exceeds {MAX_EXPONENT}", m.start(5))
        if k >= len(coeffs):
            coeffs += [0] * (k + 1 - len(coeffs))
        coeffs[k] += -c if sign == "-" else c
        if end == n:
            return coeffs


class _Parser:

    def __init__(self, ctx, text, symbols):
        self.ctx = ctx
        self.symbols = symbols
        # split unknown names into known one-character symbols so that in
        # "az^5" the exponent binds to z alone, as adjacency notation reads
        tokens = self.tokens = []
        for tok in _tokenize(text):
            kind, name, pos = tok
            if kind == "name" and name not in symbols and all(ch in symbols for ch in name):
                tokens.extend(("name", ch, pos + i) for i, ch in enumerate(name))
            else:
                tokens.append(tok)
        self.pos = 0
        # the largest exponent, multiplied through nested powers, so far
        self.exponent = 1
        self.depth = 0

    def parse(self):
        value = self.expr()
        kind, tok, pos = self.tokens[self.pos]
        if kind != "end":
            raise ParseError(f"unexpected {tok!r}", pos)
        return value

    def expr(self):
        ctx, tokens = self.ctx, self.tokens
        value = self.term()
        while True:
            kind = tokens[self.pos][0]
            if kind == "+":
                self.pos += 1
                value = poly_add(ctx, value, self.term())
            elif kind == "-":
                self.pos += 1
                value = poly_add(ctx, value, poly_neg(ctx, self.term()))
            else:
                return value

    def term(self):
        ctx, tokens = self.ctx, self.tokens
        value = self.unary()
        while True:
            kind, _, pos = tokens[self.pos]
            if kind == "*":
                self.pos += 1
                value = poly_mul(ctx, value, self.unary())
            elif kind == "/":
                self.pos += 1
                value = self._divide(value, self.unary(), pos)
            elif kind in _ATOM_STARTS:
                value = poly_mul(ctx, value, self.unary())
            else:
                return value

    def nested(self, parse, pos):
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def unary(self):
        """A unary minus, or a power: an atom and its optional exponent."""
        ctx, tokens = self.ctx, self.tokens
        kind, value, pos = tokens[self.pos]
        self.pos += 1
        if kind == "-":
            return poly_neg(ctx, self.nested(self.unary, pos))
        outer, self.exponent = self.exponent, 1
        if kind == "name":
            if value not in self.symbols:
                raise ParseError(f"unknown symbol {value!r}", pos)
            value = self.symbols[value]
        elif kind == "int":
            value = poly_trim(ctx, (ctx.from_int(value).raw,))
        elif kind == "(":
            value = self.nested(self.expr, pos)
            kind, _, pos = tokens[self.pos]
            self.pos += 1
            if kind != ")":
                raise ParseError("missing closing parenthesis", pos)
        else:
            raise ParseError(f"unexpected {value!r}", pos)
        if tokens[self.pos][0] == "^":
            kind, k, pos = tokens[self.pos + 1]
            self.pos += 2
            if kind != "int":
                raise ParseError(f"expected 'int', found {k!r}", pos)
            self.exponent *= k
            degree = len(value) - 1
            if degree > 0 and degree * k > ctx.order:
                raise ParseError(f"power of degree {degree * k} exceeds n = {ctx.order}", pos)
            if ctx.size is None and self.exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {self.exponent} exceeds {MAX_EXPONENT}"
                                 " over an infinite field", pos)
            value = poly_pow(ctx, value, k)
        self.exponent = max(outer, self.exponent)
        return value

    def _divide(self, lhs, rhs, pos):
        if not rhs:
            raise ParseError("division by zero", pos)
        if len(rhs) > 1:
            raise ParseError("division by a non-constant polynomial", pos)
        return poly_scale(self.ctx, lhs, self.ctx.inv(rhs[0]))


def _symbol_table(ctx):
    # a symbol names a generator, never zero
    return {k: (v,) for k, v in ctx.symbols.items()}


def parse_poly(ctx, text):
    """Parse a skew polynomial in x with coefficients in ctx."""
    # the context's own symbols take precedence over x
    x = (ctx.zero_raw, ctx.one_raw)
    return SkewPolynomial.from_raw(ctx, _Parser(ctx, text, {"x": x, **_symbol_table(ctx)}).parse())


def parse_element(ctx, text):
    """Parse a single field element (a constant expression)."""
    value = _Parser(ctx, text, _symbol_table(ctx)).parse()
    return Element(ctx, value[0] if value else ctx.zero_raw)
