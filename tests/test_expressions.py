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
    # Where Python's grammar differs from this one: the parent parser's values.
    ("01", 0.0, 1.0),
    ("1e400", 0.0, math.inf),
    ("+t", 7.0, 7.0),
    ("-" * 100 + "t", 7.0, 7.0),    # at the nesting limit
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


def test_result_types_follow_the_operations():
    zero_d = np.array(0.5)
    assert Expression("+t")(zero_d) is zero_d
    assert type(Expression("01")(0.5)) is float
    assert type(Expression("t + 1")(0.5)) is float
    assert type(Expression("t^2")(0.5)) is np.float64


def test_unknown_variable_names_known_ones():
    with pytest.raises(ExpressionError, match="unknown name 'y'.*known names.*t"):
        Expression("y + 1", ("t",))
    with pytest.raises(ExpressionError) as info:
        Expression("1 + y")
    assert str(info.value) == "unknown name 'y' at column 4 in '1 + y'; known names: t, pi"


def test_unknown_function_lists_known_ones():
    with pytest.raises(ExpressionError, match="unknown function 'tan'"):
        Expression("tan(t)")
    with pytest.raises(ExpressionError) as info:
        Expression("2*tan(t)")
    assert str(info.value) == ("unknown function 'tan' at column 2 in '2*tan(t)'; "
                               "known functions: cos, exp, sin, max, min")


@pytest.mark.parametrize("bad", [
    "1 +",
    "(1 + 2",
    "sin()",
    "sin(1, 2)",
    "max(1)",
    "1 2",
    "t @ 2",
    "",
    # Python's grammar accepts or reads these differently; this one rejects them.
    "1_000", "0x1F", "1j", "True", "None", "sin(t,)", "sin(x=1)", "z**2",
    "t is 1", "not t", "t if t else 1", "(t, 1)", "(sin)(t)", "sin(^t)",
    "-" * 101 + "t",                    # one past the nesting limit
    "(" * 400 + "t" + ")" * 400,
    "+".join(["t"] * 3000),             # past Python's own parser limits
    "-" * 10000 + "t",
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
