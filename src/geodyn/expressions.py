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
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from geodyn.errors import EvaluationError, ExpressionError

_FUNCTIONS = {"sqrt": np.sqrt, "abs": np.abs}


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
    """Parsed arithmetic expression, evaluable at one point or over a batch."""

    def __init__(self, ast):
        self._ast = ast
        self._fn = _compile(ast)

    def __call__(self, env: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
        """Value of the expression for the variables in ``env``.

        Each variable is a float or a 1-D array, the arrays all of one
        length S (a batch of S samples). With floats only the result is a
        float; otherwise it is an array over the samples, or a float when
        the expression does not depend on them. A failed operator raises
        EvaluationError at its line and column; over a batch the message
        names the first sample that fails and its variables, and the error
        is the one that sample alone would raise.
        """
        with np.errstate(all="ignore"):
            try:
                value = self._fn(env)
            except _Failure as failure:
                raise self._error(env, failure) from None
        return float(value) if np.ndim(value) == 0 else value

    def _error(self, env, failure: _Failure) -> EvaluationError:
        # every operator runs over all samples before the next one, so the
        # first operator that fails need not be where the lowest failing
        # sample fails: rerun the samples before the one it names
        while failure.index:
            head = {name: value[:failure.index] if np.ndim(value) else value
                    for name, value in env.items()}
            try:
                self._fn(head)
                break
            except _Failure as earlier:
                failure = earlier
        message = failure.message
        if failure.index is not None:
            point = ", ".join(f"{name}={_at(env[name], failure.index)!r}"
                              for name in sorted(self.variables()))
            message += f" at sample {failure.index} ({point})"
        return EvaluationError(message, *failure.pos)

    def variables(self) -> set[str]:
        out: set[str] = set()
        _collect(self._ast, out)
        return out


class _Failure(Exception):
    """An operator failed at batch sample ``index`` (None when unbatched)."""

    def __init__(self, message: str, pos: tuple[int, int], index: int | None):
        super().__init__(message)
        self.message = message
        self.pos = pos
        self.index = index


def _at(value, index):
    """Sample ``index`` of a batched value as a float; unbatched values are shared."""
    return float(value) if np.ndim(value) == 0 else float(value[index])


def _first(mask) -> int | None:
    return int(np.argmax(mask)) if np.ndim(mask) else None


# np.float_power, not np.power: it rounds exactly as operator.pow does, where
# np.power's vectorised loops differ from it in the last bit
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply,
           "/": np.true_divide, "^": np.float_power}


def _cause(kind: str, a: float, b: float) -> str:
    """Why ``a kind b`` is not finite, in the terms Python's float arithmetic uses."""
    if kind == "/" and b == 0:
        return "division by zero in"
    if kind == "^" and math.isfinite(a) and math.isfinite(b):
        if a == 0 and b < 0:
            return "division by zero in"
        if a < 0 and b != math.floor(b) and math.isfinite(np.float_power(-a, b)):
            return "complex result of"
        return "overflow in"
    return "non-finite result of"


def _compile(node):
    """Closure evaluating ``node`` over the floats or arrays of a variable mapping.

    The closures run inside ``Expression.__call__``'s np.errstate. Every
    operator and function call checks its result, so a division by zero, an
    overflow, a complex or non-finite value, or sqrt of a negative number at
    any sample raises _Failure at that node's line and column.
    """
    kind = node[0]
    if kind == "num":
        value = node[1]
        return lambda env: value
    if kind == "var":
        name = node[1]

        def var(env):
            try:
                return np.asarray(env[name], dtype=float)
            except KeyError:
                raise EvaluationError(f"unknown variable {name!r}")
        return var
    if kind == "neg":
        arg = _compile(node[1])
        return lambda env: -arg(env)
    if kind == "call":
        _, name, arg_node, pos = node
        fn, arg = _FUNCTIONS[name], _compile(arg_node)
        if name == "abs":
            return lambda env: fn(arg(env))

        def sqrt(env):
            x = arg(env)
            negative = np.less(x, 0)
            if negative.any():
                index = _first(negative)
                raise _Failure(f"{name}({_at(x, index)!r}) is undefined", pos, index)
            return fn(x)
        return sqrt
    _, left_node, right_node, pos = node
    op, left, right = _BINARY[kind], _compile(left_node), _compile(right_node)
    isfinite = np.isfinite

    def binary(env):
        a = left(env)
        b = right(env)
        value = op(a, b)
        if not isfinite(value).all():
            index = _first(~isfinite(value))
            ai, bi = _at(a, index), _at(b, index)
            raise _Failure(f"{_cause(kind, ai, bi)} {ai!r} {kind} {bi!r}", pos, index)
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
    return Expression(node)
