"""Recursive-descent parser for polynomial matrix entries.

Grammar (no division, no functions -- entries must be polynomial):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := name | int | '(' expr ')' | '-' factor

Integers are decimal, names are parameter identifiers or the imaginary
unit ``i``. Parentheses and unary minus nest at most ``MAX_NESTING``
deep, which keeps the recursion far from Python's stack limit. Exponents
are at most ``MAX_EXPONENT``, and no product may form more than
``MAX_PRODUCT_TERMS`` terms, so that parsing an entry stays fast. Every
coefficient must convert to a float64 complex, which the floating
commands evaluate.
"""

from __future__ import annotations

import math

from .multipoly import MultiPoly
from .scalars import GR_I, GaussianRational


class EntrySyntaxError(ValueError):
    """Parse failure, carrying the 0-based offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_SYMBOLS = set("+-*^()")

MAX_NESTING = 100
MAX_EXPONENT = 256
#: bound on the terms of one product, from the operands' term counts:
#: len(a) * len(b) for a * b, and for a ^ k with t terms the C(k + t - 1, k)
#: products of k of them
MAX_PRODUCT_TERMS = 512


def tokenize(text: str):
    """Yields (kind, value, position); kind in {'int','name','sym','end'}."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
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
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
            continue
        raise EntrySyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, params):
        self.tokens = tokenize(text)
        self.pos = 0
        self.params = list(params)
        self.index = {name: k for k, name in enumerate(self.params)}
        self.nvars = len(self.params)
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_sym(self, sym: str):
        kind, value, position = self.peek()
        if kind != "sym" or value != sym:
            raise EntrySyntaxError(f"expected {sym!r}", position)
        return self.advance()

    def nested(self, parse, position: int) -> MultiPoly:
        if self.depth == MAX_NESTING:
            raise EntrySyntaxError(f"nesting deeper than {MAX_NESTING} levels", position)
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def check_terms(self, count: int, position: int):
        if count > MAX_PRODUCT_TERMS:
            raise EntrySyntaxError(
                f"product may form {count} terms, more than {MAX_PRODUCT_TERMS}",
                position)

    def parse(self) -> MultiPoly:
        result = self.expr()
        kind, value, position = self.peek()
        if kind != "end":
            raise EntrySyntaxError(f"unexpected trailing input {value!r}", position)
        for c in result.terms.values():
            try:
                complex(c)
            except OverflowError:
                raise EntrySyntaxError("a coefficient lies beyond the float64 range",
                                       0) from None
        return result

    def expr(self) -> MultiPoly:
        acc = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "sym" and value in "+-":
                self.advance()
                rhs = self.term()
                acc = acc + rhs if value == "+" else acc - rhs
            else:
                return acc

    def term(self) -> MultiPoly:
        acc = self.factor()
        while True:
            kind, value, position = self.peek()
            if kind == "sym" and value == "*":
                self.advance()
                rhs = self.factor()
                self.check_terms(len(acc.terms) * len(rhs.terms), position)
                acc = acc * rhs
            else:
                return acc

    def factor(self) -> MultiPoly:
        base = self.base()
        kind, value, position = self.peek()
        if kind == "sym" and value == "^":
            self.advance()
            ekind, evalue, eposition = self.peek()
            if ekind != "int":
                raise EntrySyntaxError(
                    "exponent must be a nonnegative decimal integer", eposition
                )
            self.advance()
            k = int(evalue)
            if k > MAX_EXPONENT:
                raise EntrySyntaxError(
                    f"exponent {k} exceeds {MAX_EXPONENT}", eposition)
            self.check_terms(math.comb(k + max(len(base.terms), 1) - 1, k), position)
            return base ** k
        return base

    def base(self) -> MultiPoly:
        kind, value, position = self.advance()
        if kind == "int":
            return MultiPoly.constant(self.nvars, GaussianRational(int(value)))
        if kind == "name":
            if value == "i":
                return MultiPoly.constant(self.nvars, GR_I)
            if value in self.index:
                return MultiPoly.variable(self.nvars, self.index[value])
            raise EntrySyntaxError(f"unknown identifier {value!r}", position)
        if kind == "sym" and value == "(":
            inner = self.nested(self.expr, position)
            self.expect_sym(")")
            return inner
        if kind == "sym" and value == "-":
            return -self.nested(self.factor, position)
        raise EntrySyntaxError(
            f"expected a name, integer, '(' or '-', got {value!r}", position
        )


def parse_entry(text: str, params) -> MultiPoly:
    """Parse one matrix-entry expression into a MultiPoly.

    ``params`` lists the parameter names in variable order; the name
    ``i`` is reserved for the imaginary unit and may not be a parameter.
    """
    params = list(params)
    if "i" in params:
        raise ValueError("'i' denotes the imaginary unit; rename the parameter")
    return _Parser(text, params).parse()
