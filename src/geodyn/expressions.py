"""Tiny arithmetic expression language for user-defined second-order systems.

Grammar (whitespace insensitive):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := ("-" | "+") unary | power
    power   := atom ("^" unary)?          # right associative
    atom    := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

Functions: sqrt, abs. Variables: t, x1..xN, v1..vN. ``^`` is exponentiation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping

from geodyn.errors import ExpressionError

_FUNCTIONS = {"sqrt": math.sqrt, "abs": abs}


@dataclass(frozen=True)
class _Token:
    kind: str   # num, name, op, lparen, rparen, end
    text: str
    line: int
    column: int


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        col = i + 1
        if c.isspace():
            i += 1
        elif c.isdigit() or c == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"
                                     or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExpressionError(f"bad number {text[i:j]!r}", line, col)
            if not math.isfinite(value):
                raise ExpressionError(f"number {text[i:j]!r} is out of range", line, col)
            tokens.append(_Token("num", text[i:j], line, col))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            i = j
        elif c in "+-*/^":
            tokens.append(_Token("op", c, line, col))
            i += 1
        elif c == "(":
            tokens.append(_Token("lparen", c, line, col))
            i += 1
        elif c == ")":
            tokens.append(_Token("rparen", c, line, col))
            i += 1
        else:
            raise ExpressionError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("end", "", line, len(text) + 1))
    return tokens


class Expression:
    """Parsed arithmetic expression, evaluable against a variable mapping."""

    def __init__(self, ast, source: str):
        self._ast = ast
        self._fn = _compile(ast)
        self.source = source

    def __call__(self, env: Mapping[str, float]) -> float:
        return self._fn(env)

    def variables(self) -> set[str]:
        out: set[str] = set()
        _collect(self._ast, out)
        return out


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}


def _compile(node):
    """Closure evaluating ``node`` against a variable mapping.

    Every operator and function call checks its result, so a division by
    zero, an overflow, a complex or non-finite value, or sqrt of a negative
    number raises ExpressionError at that node's line and column.
    """
    kind = node[0]
    if kind == "num":
        value = node[1]
        return lambda env: value
    if kind == "var":
        name = node[1]

        def var(env):
            try:
                return float(env[name])
            except KeyError:
                raise ExpressionError(f"unknown variable {name!r}")
        return var
    if kind == "neg":
        arg = _compile(node[1])
        return lambda env: -arg(env)
    if kind == "call":
        _, name, arg_node, pos = node
        fn, arg = _FUNCTIONS[name], _compile(arg_node)

        def call(env):
            x = arg(env)
            try:
                return fn(x)
            except ValueError:
                raise ExpressionError(f"{name}({x!r}) is undefined", *pos)
        return call
    _, left_node, right_node, pos = node
    op, left, right = _BINARY[kind], _compile(left_node), _compile(right_node)
    isfinite = math.isfinite

    def binary(env):
        a = left(env)
        b = right(env)
        try:
            value = op(a, b)
        except ZeroDivisionError:
            raise ExpressionError(f"division by zero in {a!r} {kind} {b!r}", *pos)
        except OverflowError:
            raise ExpressionError(f"overflow in {a!r} {kind} {b!r}", *pos)
        if type(value) is not float:   # a negative number to a fractional power
            raise ExpressionError(f"complex result of {a!r} {kind} {b!r}", *pos)
        if not isfinite(value):
            raise ExpressionError(f"non-finite result of {a!r} {kind} {b!r}", *pos)
        return value
    return binary


def _collect(node, out):
    kind = node[0]
    if kind == "var":
        out.add(node[1])
    elif kind == "neg":
        _collect(node[1], out)
    elif kind == "call":
        _collect(node[2], out)
    elif kind in _BINARY:
        _collect(node[1], out)
        _collect(node[2], out)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ExpressionError(f"expected {kind}, got {tok.text!r}", tok.line, tok.column)
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next()
            node = (op.text, node, self.parse_term(), (op.line, op.column))
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next()
            node = (op.text, node, self.parse_unary(), (op.line, op.column))
        return node

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return ("neg", self.parse_unary())
        if tok.kind == "op" and tok.text == "+":
            self.next()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            return ("^", base, self.parse_unary(), (tok.line, tok.column))
        return base

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "num":
            return ("num", float(tok.text))
        if tok.kind == "name":
            if self.peek().kind == "lparen":
                if tok.text not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {tok.text!r}", tok.line, tok.column)
                self.next()
                arg = self.parse_expr()
                self.expect("rparen")
                return ("call", tok.text, arg, (tok.line, tok.column))
            return ("var", tok.text)
        if tok.kind == "lparen":
            node = self.parse_expr()
            self.expect("rparen")
            return node
        raise ExpressionError(f"unexpected token {tok.text!r}", tok.line, tok.column)


def parse_expression(text: str, line: int = 1) -> Expression:
    """Parse one expression; raises ExpressionError with line/column on failure."""
    parser = _Parser(_tokenize(text, line))
    node = parser.parse_expr()
    end = parser.peek()
    if end.kind != "end":
        raise ExpressionError(f"trailing input {end.text!r}", end.line, end.column)
    return Expression(node, text)
