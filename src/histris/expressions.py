"""Tiny arithmetic expression language used by config files.

Grammar: ``+ - * / ^`` (power is right associative), unary minus,
parentheses, the functions ``sin cos exp max min``, the constant ``pi``
and a caller-chosen set of variable names.  Compiled expressions
evaluate with numpy semantics, so array arguments broadcast.

This is a hand-rolled recursive descent parser; nothing is ever passed
to Python's ``eval``.
"""

from __future__ import annotations

import re
from typing import Callable, Sequence

import numpy as np

__all__ = ["ExpressionError", "Expression"]


class ExpressionError(ValueError):
    """Raised when an expression cannot be parsed or uses unknown names."""


_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r")"
)

_UNARY_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_NARY_FUNCTIONS = {"max": np.maximum, "min": np.minimum}
_CONSTANTS = {"pi": np.pi}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ExpressionError(
                f"unexpected character {text[bad]!r} at column {bad} in {text!r}"
            )
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.slots = {name: i for i, name in enumerate(variables)}

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return tok

    def expect(self, value: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != value:
            raise ExpressionError(
                f"expected {value!r} at column {tok[2]} in {self.text!r}, got {tok[1]!r}"
            )

    # expr := term (('+'|'-') term)*
    def parse_expr(self) -> Callable:
        fn = self.parse_term()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return fn
            self.pos += 1
            rhs = self.parse_term()
            lhs = fn
            if tok[1] == "+":
                fn = lambda a, l=lhs, r=rhs: l(a) + r(a)
            else:
                fn = lambda a, l=lhs, r=rhs: l(a) - r(a)

    # term := factor (('*'|'/') factor)*
    def parse_term(self) -> Callable:
        fn = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "*/":
                return fn
            self.pos += 1
            rhs = self.parse_factor()
            lhs = fn
            if tok[1] == "*":
                fn = lambda a, l=lhs, r=rhs: l(a) * r(a)
            else:
                fn = lambda a, l=lhs, r=rhs: l(a) / r(a)

    # factor := ('-'|'+') factor | power
    def parse_factor(self) -> Callable:
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] in "+-":
            self.pos += 1
            inner = self.parse_factor()
            if tok[1] == "-":
                return lambda a, f=inner: -f(a)
            return inner
        return self.parse_power()

    # power := atom ('^' factor)?   right associative
    def parse_power(self) -> Callable:
        base = self.parse_atom()
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            exponent = self.parse_factor()
            return lambda a, b=base, e=exponent: np.power(b(a), e(a))
        return base

    def parse_atom(self) -> Callable:
        tok = self.next()
        kind, value, col = tok
        if kind == "num":
            const = float(value)
            return lambda a, c=const: c
        if kind == "name":
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "(":
                return self.parse_call(value, col)
            if value in self.slots:
                slot = self.slots[value]
                return lambda a, i=slot: a[i]
            if value in _CONSTANTS:
                const = _CONSTANTS[value]
                return lambda a, c=const: c
            known = sorted(self.slots) + sorted(_CONSTANTS)
            raise ExpressionError(
                f"unknown name {value!r} at column {col} in {self.text!r}; "
                f"known names: {', '.join(known)}"
            )
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ExpressionError(
            f"unexpected token {value!r} at column {col} in {self.text!r}"
        )

    def parse_call(self, name: str, col: int) -> Callable:
        self.expect("(")
        args = [self.parse_expr()]
        while True:
            tok = self.next()
            if tok[0] == "op" and tok[1] == ")":
                break
            if tok[0] == "op" and tok[1] == ",":
                args.append(self.parse_expr())
                continue
            raise ExpressionError(
                f"expected ',' or ')' at column {tok[2]} in {self.text!r}"
            )
        if name in _UNARY_FUNCTIONS:
            if len(args) != 1:
                raise ExpressionError(f"{name} takes one argument in {self.text!r}")
            op = _UNARY_FUNCTIONS[name]
            arg = args[0]
            return lambda a, f=op, g=arg: f(g(a))
        if name in _NARY_FUNCTIONS:
            if len(args) < 2:
                raise ExpressionError(
                    f"{name} takes at least two arguments in {self.text!r}"
                )
            op = _NARY_FUNCTIONS[name]

            def fold(a, f=op, gs=tuple(args)):
                out = gs[0](a)
                for g in gs[1:]:
                    out = f(out, g(a))
                return out

            return fold
        known = sorted(_UNARY_FUNCTIONS) + sorted(_NARY_FUNCTIONS)
        raise ExpressionError(
            f"unknown function {name!r} at column {col} in {self.text!r}; "
            f"known functions: {', '.join(known)}"
        )


class Expression:
    """A compiled expression; call it with one value per variable."""

    def __init__(self, text: str, variables: Sequence[str] = ("t",)):
        self.text = str(text)
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ExpressionError(f"duplicate variable names in {self.variables!r}")
        parser = _Parser(self.text, self.variables)
        fn = parser.parse_expr()
        if parser.peek() is not None:
            tok = parser.peek()
            raise ExpressionError(
                f"trailing input {tok[1]!r} at column {tok[2]} in {self.text!r}"
            )
        self._fn = fn

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise TypeError(
                f"expression over {self.variables} takes {len(self.variables)} "
                f"argument(s), got {len(args)}"
            )
        return self._fn(args)

    def __repr__(self) -> str:
        return f"Expression({self.text!r}, variables={self.variables!r})"

