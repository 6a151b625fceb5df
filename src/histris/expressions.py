"""Tiny arithmetic expression language used by config files.

Grammar: ``+ - * / ^`` (power is right associative), unary minus,
parentheses, the functions ``sin cos exp max min``, the constant ``pi``
and a caller-chosen set of variable names.  Compiled expressions
evaluate with numpy semantics, so array arguments broadcast.

A regular-expression tokenizer admits only numbers, names and those
symbols.  Joined into Python source (``^`` as ``**``, numbers as float
literals, names behind a ``_`` so that no keyword reaches the parser),
the tokens are parsed by :func:`ast.parse`, whose precedence and
associativity are this grammar's.  A whitelist compiler turns the tree
into numpy closures; it rejects every other node, and nesting more than
``_MAX_DEPTH`` operations deep.  Nothing is ever passed to ``eval``.
"""

from __future__ import annotations

import ast
import math
import re
from functools import lru_cache, reduce
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
_BINARY = {
    ast.Add: lambda lhs, rhs: lambda a: lhs(a) + rhs(a),
    ast.Sub: lambda lhs, rhs: lambda a: lhs(a) - rhs(a),
    ast.Mult: lambda lhs, rhs: lambda a: lhs(a) * rhs(a),
    ast.Div: lambda lhs, rhs: lambda a: lhs(a) / rhs(a),
    ast.Pow: lambda lhs, rhs: lambda a: np.power(lhs(a), rhs(a)),
}
# The compiled closures call each other once per level, so depth is bounded
# well inside Python's recursion limit.
_MAX_DEPTH = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while text[pos:].strip():
        m = _TOKEN.match(text, pos)
        if m is None:
            bad = len(text) - len(text[pos:].lstrip())
            raise ExpressionError(
                f"unexpected character {text[bad]!r} at column {bad} in {text!r}"
            )
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
    return tokens


@lru_cache(maxsize=256)
def _compile_text(text: str, variables: tuple[str, ...]) -> Callable:
    """The closure of ``text`` over the argument tuple of ``variables``;
    closures are pure, so each pair compiles once (a failure is not cached)."""
    pieces, columns = [], []  # columns[i]: the column in text of source[i]
    for kind, value, column in _tokenize(text):
        if kind == "num":
            number = float(value)
            piece = "1e999" if number == math.inf else repr(number)
        else:
            piece = "_" + value if kind == "name" else value.replace("^", "**")
        pieces.append(piece)
        columns += [column] * (len(piece) + 1)
    source = " ".join(pieces)

    def at(where: int) -> str:
        column = columns[where] if where < len(source) else len(text)
        return f"column {column} in {text!r}"

    # Python accepts a trailing comma in a call; this grammar does not.
    if ", )" in source:
        raise ExpressionError(f"unexpected token ')' at {at(source.index(', )') + 2)}")
    try:
        tree = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        where = exc.offset - 1 if exc.offset else len(source)
        raise ExpressionError(f"{exc.msg} at {at(where)}") from None
    except (RecursionError, MemoryError):
        raise ExpressionError(f"expression too deeply nested in {text!r}") from None

    slots = {name: i for i, name in enumerate(variables)}

    def build(node, depth: int) -> Callable:
        if depth > _MAX_DEPTH:
            raise ExpressionError(
                f"expression nested more than {_MAX_DEPTH} operations deep in {text!r}"
            )
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return lambda a, c=node.value: c
        if isinstance(node, ast.Name):
            name = node.id[1:]
            if name in slots:
                return lambda a, i=slots[name]: a[i]
            if name in _CONSTANTS:
                return lambda a, c=_CONSTANTS[name]: c
            known = sorted(slots) + sorted(_CONSTANTS)
            raise ExpressionError(
                f"unknown name {name!r} at {at(node.col_offset)}; "
                f"known names: {', '.join(known)}"
            )
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            inner = build(node.operand, depth + 1)
            return inner if isinstance(node.op, ast.UAdd) else lambda a: -inner(a)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](build(node.left, depth + 1),
                                          build(node.right, depth + 1))
        # A call names its function directly: not ``(sin)(t)``, not ``sin(**t)``.
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.col_offset == node.col_offset and not node.keywords):
            args = [build(arg, depth + 1) for arg in node.args]
            name = node.func.id[1:]
            if name in _UNARY_FUNCTIONS:
                if len(args) != 1:
                    raise ExpressionError(f"{name} takes one argument in {text!r}")
                return lambda a, f=_UNARY_FUNCTIONS[name], g=args[0]: f(g(a))
            if name in _NARY_FUNCTIONS:
                if len(args) < 2:
                    raise ExpressionError(
                        f"{name} takes at least two arguments in {text!r}"
                    )
                return lambda a, f=_NARY_FUNCTIONS[name]: reduce(f, [g(a) for g in args])
            known = sorted(_UNARY_FUNCTIONS) + sorted(_NARY_FUNCTIONS)
            raise ExpressionError(
                f"unknown function {name!r} at {at(node.col_offset)}; "
                f"known functions: {', '.join(known)}"
            )
        raise ExpressionError(f"unsupported syntax at {at(node.col_offset)}")

    return build(tree, 0)


class Expression:
    """A compiled expression; call it with one value per variable."""

    def __init__(self, text: str, variables: Sequence[str] = ("t",)):
        self.text = str(text)
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ExpressionError(f"duplicate variable names in {self.variables!r}")
        self._fn = _compile_text(self.text, self.variables)

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise TypeError(
                f"expression over {self.variables} takes {len(self.variables)} "
                f"argument(s), got {len(args)}"
            )
        return self._fn(args)

    def __repr__(self) -> str:
        return f"Expression({self.text!r}, variables={self.variables!r})"
