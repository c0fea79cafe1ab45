"""Recursive-descent parser for field elements and skew polynomials.

One grammar covers every backend.  Expressions are evaluated over the skew
polynomial ring, with the names in the context's ``symbols`` plus the
polynomial variable ``x`` as the available symbols:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary | unary)*      adjacency multiplies
    unary  := '-' unary | power
    power  := atom ('^' integer)?
    atom   := '(' expr ')' | integer | name

so ``a^3953x^4`` is the coefficient a^3953 times x^4, and
``(z+a)/(z^2+a^2*z)`` is an exact fraction.  Division requires a nonzero
constant divisor.  An unknown name is split greedily into known
single-character symbols (``az`` means a*z).  Whitespace is ignored.

``parse_element`` additionally demands the result be a constant.

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

from .skewpoly import SkewPolynomial


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_OPS = set("+-*/^()")

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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
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


class _Parser:

    def __init__(self, ctx, text, symbols):
        self.ctx = ctx
        self.text = text
        self.symbols = symbols
        # split unknown names into known one-character symbols so that in
        # "az^5" the exponent binds to z alone, as adjacency notation reads
        self.tokens = []
        for kind, tok, pos in _tokenize(text):
            if kind == "name" and tok not in symbols and \
                    all(ch in symbols for ch in tok):
                self.tokens.extend(("name", ch, pos + i)
                                   for i, ch in enumerate(tok))
            else:
                self.tokens.append((kind, tok, pos))
        self.pos = 0
        # the largest exponent, multiplied through nested powers, so far
        self.exponent = 1
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    # -- grammar ------------------------------------------------------------

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while True:
            kind = self.peek()[0]
            if kind in ("*", "/"):
                tok = self.advance()
                rhs = self.unary()
                value = value * rhs if tok[0] == "*" else self._divide(value, rhs, tok[2])
            elif kind in ("name", "int", "("):
                value = value * self.unary()
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
        if self.peek()[0] == "-":
            tok = self.advance()
            return -self.nested(self.unary, tok[2])
        return self.power()

    def power(self):
        outer, self.exponent = self.exponent, 1
        value = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.expect("int")
            k = int(tok[1])
            self.exponent *= k
            n = self.ctx.order
            if value.degree > 0 and value.degree * k > n:
                raise ParseError(f"power of degree {value.degree * k} exceeds n = {n}", tok[2])
            if self.ctx.size is None and self.exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {self.exponent} exceeds {MAX_EXPONENT}"
                                 " over an infinite field", tok[2])
            value = value ** k
        self.exponent = max(outer, self.exponent)
        return value

    def atom(self):
        tok = self.advance()
        kind, text, pos = tok
        if kind == "(":
            value = self.nested(self.expr, pos)
            closing = self.advance()
            if closing[0] != ")":
                raise ParseError("missing closing parenthesis", closing[2])
            return value
        if kind == "int":
            return SkewPolynomial.constant(self.ctx, self.ctx.from_int(int(text)))
        if kind == "name":
            return self.resolve(text, pos)
        raise ParseError(f"unexpected {text!r}", pos)

    def resolve(self, name, pos):
        if name in self.symbols:
            return self.symbols[name]
        raise ParseError(f"unknown symbol {name!r}", pos)

    def _divide(self, lhs, rhs, pos):
        if rhs.is_zero:
            raise ParseError("division by zero", pos)
        if rhs.degree > 0:
            raise ParseError("division by a non-constant polynomial", pos)
        return lhs.scale_left(rhs.coeffs[0].inverse())


def _symbol_table(ctx):
    # the context's own symbols take precedence over x
    const = lambda v: SkewPolynomial.constant(ctx, ctx.element(v))
    return {"x": SkewPolynomial.variable(ctx), **{k: const(v) for k, v in ctx.symbols.items()}}


def parse_poly(ctx, text):
    """Parse a skew polynomial in x with coefficients in ctx."""
    return _Parser(ctx, text, _symbol_table(ctx)).parse()


def parse_element(ctx, text):
    """Parse a single field element (a constant expression)."""
    table = _symbol_table(ctx)
    del table["x"]
    value = _Parser(ctx, text, table).parse()
    if value.degree > 0:
        raise ParseError("expected a field element, found a polynomial", 0)
    return value.coeffs[0] if value.coeffs else ctx.zero
