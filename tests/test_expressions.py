"""Expression-language tests: parsing, evaluation, and error reporting."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geodyn.errors import EvaluationError, ExpressionError
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

    def test_batch_names_the_lowest_failing_sample(self):
        # sample 2 fails at sqrt, which runs first; sample 1 fails later, at "/"
        expr = parse_expression("sqrt(x2) + 1/(x1 - 0.5)")
        env = {"x1": np.array([1.0, 0.5, 3.0]), "x2": np.array([1.0, 4.0, -9.0])}
        with pytest.raises(EvaluationError, match="division by zero") as info:
            expr(env)
        assert info.value.column == 13
        assert "at sample 1 (x1=0.5, x2=4.0)" in str(info.value)

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


class _ReferenceError(Exception):
    def __init__(self, cause, pos):
        super().__init__(cause)
        self.cause = cause
        self.pos = pos


_REFERENCE_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                     "/": operator.truediv, "^": operator.pow}


def _reference(node, env):
    """One point on Python floats: operator/math semantics, every result checked."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return float(env[node[1]])
    if kind == "neg":
        return -_reference(node[1], env)
    if kind == "call":
        _, name, arg, pos = node
        x = _reference(arg, env)
        if name == "abs":
            return abs(x)
        try:
            return math.sqrt(x)
        except ValueError:
            raise _ReferenceError("undefined", pos)
    _, left, right, pos = node
    a, b = _reference(left, env), _reference(right, env)
    try:
        value = _REFERENCE_BINARY[kind](a, b)
    except ZeroDivisionError:
        raise _ReferenceError("division by zero", pos)
    except OverflowError:
        raise _ReferenceError("overflow", pos)
    if type(value) is not float:
        raise _ReferenceError("complex result", pos)
    if not math.isfinite(value):
        raise _ReferenceError("non-finite result", pos)
    return value


class TestBatchProperty:
    @pytest.mark.parametrize("text", ["x1 ^ x2", "x1 ^ 3", "(x1 - 5) ^ 3", "(x1 - 5) ^ (x2 - x2 + 2)"])
    def test_power_rounds_like_operator_pow(self, text):
        rng = np.random.default_rng(7)
        env = {"x1": rng.uniform(0.0, 10.0, 4000), "x2": rng.uniform(-5.0, 5.0, 4000)}
        expected = [_reference(parse_expression(text)._ast, {k: v[i] for k, v in env.items()})
                    for i in range(4000)]
        assert parse_expression(text)(env).tolist() == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_EXPRESSIONS, points=st.lists(_POINTS, min_size=1, max_size=6))
    def test_batch_equals_per_point_reference(self, text, points):
        expr = parse_expression(text)
        outcomes = []
        for point in points:
            try:
                outcomes.append(_reference(expr._ast, point))
            except _ReferenceError as err:
                outcomes.append(err)
        env = {name: np.array([p[name] for p in points]) for name in _VARIABLES}
        failed = [i for i, o in enumerate(outcomes) if isinstance(o, _ReferenceError)]
        if not failed:
            values = np.broadcast_to(expr(env), len(points)).tolist()
            assert [v.hex() for v in values] == [o.hex() for o in outcomes]
            return
        first = outcomes[failed[0]]
        with pytest.raises(EvaluationError) as info:
            expr(env)
        message = str(info.value)
        assert (info.value.line, info.value.column) == first.pos
        assert first.cause in message
        # a failure that does not depend on the point names no sample
        assert f"at sample {failed[0]} (" in message or (
            "at sample" not in message and failed == list(range(len(points))))
