import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from histris.expressions import Expression, ExpressionError


@pytest.mark.parametrize("text,t,expected", [
    ("2*sin(pi*t)", 0.5, 2.0),
    ("t^2 + 3*t - 1", 2.0, 9.0),
    ("exp(-t)*cos(0)", 1.0, math.exp(-1.0)),
    ("max(1, t, 3)", 2.0, 3.0),
    ("min(1, t)", 0.25, 0.25),
    ("2^3^2", 0.0, 512.0),          # right associative
    ("-2^2", 0.0, -4.0),            # unary minus binds outside the power
    ("2^-2", 0.0, 0.25),
    ("(1 + 2)*(3 - 1)", 0.0, 6.0),
    ("1e2 + .5", 0.0, 100.5),
    ("--t", 7.0, 7.0),
])
def test_values(text, t, expected):
    assert_allclose(Expression(text)(t), expected, rtol=1e-15)


def test_multiple_variables_positional():
    f = Expression("a*x + b", ("x", "a", "b"))
    assert f(2.0, 3.0, 1.0) == 7.0


def test_arrays_broadcast():
    f = Expression("sin(pi*t)^2")
    t = np.linspace(0.0, 1.0, 11)
    assert_allclose(f(t), np.sin(np.pi * t) ** 2, atol=1e-15)


def test_arity_is_enforced():
    f = Expression("t + 1")
    with pytest.raises(TypeError):
        f(1.0, 2.0)
    with pytest.raises(TypeError):
        f()


def test_unknown_variable_names_known_ones():
    with pytest.raises(ExpressionError, match="unknown name 'y'.*known names.*t"):
        Expression("y + 1", ("t",))


def test_unknown_function_lists_known_ones():
    with pytest.raises(ExpressionError, match="unknown function 'tan'"):
        Expression("tan(t)")


@pytest.mark.parametrize("bad", [
    "1 +",
    "(1 + 2",
    "sin()",
    "sin(1, 2)",
    "max(1)",
    "1 2",
    "t @ 2",
    "",
])
def test_malformed_input_raises(bad):
    with pytest.raises(ExpressionError):
        Expression(bad)


def test_error_reports_column():
    with pytest.raises(ExpressionError, match="column 4"):
        Expression("1 + $", ("t",))


def test_duplicate_variables_rejected():
    with pytest.raises(ExpressionError):
        Expression("t", ("t", "t"))


def test_compile_expression_round_trip():
    f = Expression("z/(1 + z^2)", ("z",))
    assert_allclose(f(2.0), 0.4)
    assert "z/(1 + z^2)" in repr(f)
