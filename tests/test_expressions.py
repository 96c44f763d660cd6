"""Expression-language tests: parsing, evaluation, and error reporting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodyn.errors import ExpressionError
from geodyn.expressions import parse_expression


class TestEvaluation:
    @pytest.mark.parametrize("text,env,expected", [
        ("1 + 2 * 3", {}, 7.0),
        ("(1 + 2) * 3", {}, 9.0),
        ("2 ^ 3 ^ 2", {}, 512.0),          # right associative
        ("-2 ^ 2", {}, -4.0),              # unary binds looser than power
        ("10 / 4", {}, 2.5),
        ("1 - 2 - 3", {}, -4.0),           # left associative
        ("sqrt(x1 ^ 2 + x2 ^ 2)", {"x1": 3.0, "x2": 4.0}, 5.0),
        ("abs(-7.5)", {}, 7.5),
        ("1.5e2 + 1e-2", {}, 150.01),
        ("+x1", {"x1": 2.0}, 2.0),
        ("-x1 / (x1 ^ 2 + x2 ^ 2) ^ 1.5", {"x1": 1.0, "x2": 0.0}, -1.0),
    ])
    def test_values(self, text, env, expected):
        assert parse_expression(text)(env) == pytest.approx(expected, abs=1e-12)

    def test_variables_are_collected(self):
        expr = parse_expression("v1 * x2 - sqrt(t)")
        assert expr.variables() == {"v1", "x2", "t"}

    def test_unknown_variable_at_evaluation(self):
        expr = parse_expression("x1 + y")
        with pytest.raises(ExpressionError, match="unknown variable"):
            expr({"x1": 1.0})

    def test_pi_free_functions_only(self):
        assert parse_expression("sqrt(2)")({}) == pytest.approx(math.sqrt(2))


class TestErrors:
    def test_unexpected_character_position(self):
        with pytest.raises(ExpressionError) as info:
            parse_expression("1 + $", line=3)
        assert info.value.line == 3
        assert info.value.column == 5

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ExpressionError):
            parse_expression("(1 + 2")

    def test_trailing_input(self):
        with pytest.raises(ExpressionError, match="trailing"):
            parse_expression("1 2")

    def test_unknown_function(self):
        with pytest.raises(ExpressionError, match="unknown function"):
            parse_expression("sin(1)")

    def test_bad_number(self):
        with pytest.raises(ExpressionError):
            parse_expression("1.2.3")

    def test_empty_expression(self):
        with pytest.raises(ExpressionError):
            parse_expression("")


class TestEvaluationErrors:
    @pytest.mark.parametrize("text,env,message,column", [
        ("1/(x1-x1)", {"x1": 2.0}, "division by zero", 2),
        ("0 ^ (0 - 1)", {}, "division by zero", 3),
        ("(-x1)^0.5", {"x1": 0.25}, "complex result", 6),
        ("x1 * 1e200 * 1e200", {"x1": 3.0}, "non-finite result", 12),
        ("10 ^ 400", {}, "overflow", 4),
        ("1 + sqrt(x1)", {"x1": -1.0}, "undefined", 5),
    ])
    def test_error_names_operator_position(self, text, env, message, column):
        expr = parse_expression(text, line=4)
        with pytest.raises(ExpressionError, match=message) as info:
            expr(env)
        assert (info.value.line, info.value.column) == (4, column)

    def test_out_of_range_literal(self):
        with pytest.raises(ExpressionError, match="out of range") as info:
            parse_expression("x1 + 1e400")
        assert info.value.column == 6


_VARIABLES = ("x1", "x2", "v1", "v2")
_LEAVES = st.one_of(
    st.sampled_from(_VARIABLES),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(repr),
    st.sampled_from(("0", "1", "2", "0.5", "1e300")),
)


def _combine(children):
    binary = st.tuples(children, st.sampled_from("+-*/^"), children).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    unary = st.tuples(st.sampled_from(("-", "sqrt", "abs")), children).map(
        lambda t: f"-({t[1]})" if t[0] == "-" else f"{t[0]}({t[1]})")
    return binary | unary


_EXPRESSIONS = st.recursive(_LEAVES, _combine, max_leaves=12)
_POINTS = st.fixed_dictionaries({name: st.floats(min_value=-1e3, max_value=1e3,
                                                 allow_nan=False)
                                 for name in _VARIABLES})


class TestEvaluationProperty:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_EXPRESSIONS, env=_POINTS)
    def test_finite_float_or_expression_error(self, text, env):
        expr = parse_expression(text)
        try:
            value = expr(env)
        except ExpressionError as exc:
            assert exc.line == 1 and exc.column >= 1
            return
        assert type(value) is float
        assert math.isfinite(value)
