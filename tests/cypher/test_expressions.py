"""Tests for expression evaluation (three-valued logic, functions, access)."""

import datetime
import math

import pytest

from repro.cypher import parse_expression
from repro.cypher.errors import CypherRuntimeError, CypherTypeError
from repro.cypher.expressions import EvaluationContext, evaluate
from repro.graph import PropertyGraph


@pytest.fixture
def graph():
    return PropertyGraph()


@pytest.fixture
def context(graph):
    return EvaluationContext(
        graph=graph,
        parameters={"threshold": 50},
        clock=lambda: datetime.datetime(2021, 3, 14, 12, 0, 0),
    )


def run(text, row=None, context=None):
    return evaluate(parse_expression(text), row or {}, context)


class TestLiteralsAndArithmetic:
    def test_arithmetic(self, context):
        assert run("1 + 2 * 3", context=context) == 7
        assert run("10 / 4", context=context) == 2  # integer division
        assert run("10.0 / 4", context=context) == 2.5
        assert run("10 % 3", context=context) == 1
        assert run("2 ^ 3", context=context) == 8.0
        assert run("-(3 + 4)", context=context) == -7

    def test_division_by_zero(self, context):
        with pytest.raises(CypherRuntimeError):
            run("1 / 0", context=context)
        with pytest.raises(CypherRuntimeError):
            run("1 % 0", context=context)

    def test_float_division_by_zero_follows_ieee(self, context):
        """openCypher/Neo4j: only integer arithmetic fails on a zero divisor."""
        assert run("1.0 / 0", context=context) == math.inf
        assert run("-1 / 0.0", context=context) == -math.inf
        assert run("1 / -0.0", context=context) == -math.inf
        assert math.isnan(run("0 * 1.0 / 0", context=context))
        assert math.isnan(run("5.0 % 0", context=context))

    def test_comparisons_with_nan_are_false(self, context):
        for comparison in ("> 0.1", "< 0.1", ">= 0.1", "<= 0.1", "= 0.0 / 0"):
            assert run(f"0.0 / 0 {comparison}", context=context) is False
        assert run("0.0 / 0 <> 0.0 / 0", context=context) is True

    def test_string_concatenation(self, context):
        assert run("'a' + 'b'", context=context) == "ab"

    def test_list_concatenation(self, context):
        assert run("[1] + [2, 3]", context=context) == [1, 2, 3]

    def test_parameters(self, context):
        assert run("$threshold + 1", context=context) == 51

    def test_missing_parameter(self, context):
        with pytest.raises(CypherRuntimeError):
            run("$unknown", context=context)

    def test_unknown_variable(self, context):
        with pytest.raises(CypherRuntimeError):
            run("mystery", context=context)


class TestNullSemantics:
    def test_null_propagates_through_comparison(self, context):
        assert run("null = 1", context=context) is None
        assert run("null + 1", context=context) is None
        assert run("1 < null", context=context) is None

    def test_three_valued_and(self, context):
        assert run("false AND null", context=context) is False
        assert run("true AND null", context=context) is None
        assert run("true AND true", context=context) is True

    def test_three_valued_or(self, context):
        assert run("true OR null", context=context) is True
        assert run("false OR null", context=context) is None

    def test_xor_with_null(self, context):
        assert run("true XOR null", context=context) is None
        assert run("true XOR false", context=context) is True

    def test_not_null(self, context):
        assert run("NOT null", context=context) is None
        assert run("NOT false", context=context) is True

    def test_is_null(self, context):
        assert run("null IS NULL", context=context) is True
        assert run("1 IS NOT NULL", context=context) is True

    def test_in_with_null_element(self, context):
        assert run("1 IN [1, 2]", context=context) is True
        assert run("3 IN [1, 2]", context=context) is False
        assert run("3 IN [1, null]", context=context) is None
        assert run("3 IN null", context=context) is None


class TestComparisons:
    def test_equality_booleans_vs_ints(self, context):
        assert run("true = 1", context=context) is False

    def test_string_comparison(self, context):
        assert run("'Alpha' < 'Delta'", context=context) is True

    def test_incomparable_types(self, context):
        with pytest.raises(CypherTypeError):
            run("'a' < 3", context=context)

    def test_string_predicates(self, context):
        assert run("'Spike:D614G' STARTS WITH 'Spike'", context=context) is True
        assert run("'Spike:D614G' ENDS WITH 'G'", context=context) is True
        assert run("'Spike:D614G' CONTAINS 'D614'", context=context) is True


class TestGraphValueAccess:
    def test_property_access_on_node(self, graph, context):
        node = graph.create_node(["Hospital"], {"name": "Sacco", "icuBeds": 20})
        assert run("h.name", {"h": node}, context) == "Sacco"
        assert run("h.missing", {"h": node}, context) is None

    def test_property_access_reads_the_bound_snapshot(self, graph, context):
        node = graph.create_node(["Hospital"], {"icuBeds": 20})
        graph.set_node_property(node.id, "icuBeds", 5)
        # snapshots are read as bound: trigger OLD variables rely on frozen
        # pre-event values even after the store has moved on
        assert run("h.icuBeds", {"h": node}, context) == 20
        assert run("h.icuBeds", {"h": graph.node(node.id)}, context) == 5

    def test_property_access_on_deleted_node_uses_snapshot(self, graph, context):
        node = graph.create_node(["Hospital"], {"name": "Sacco"})
        graph.delete_node(node.id)
        assert run("h.name", {"h": node}, context) == "Sacco"

    def test_property_access_on_map(self, context):
        assert run("m.key", {"m": {"key": 7}}, context) == 7

    def test_label_predicate(self, graph, context):
        node = graph.create_node(["Patient", "IcuPatient"])
        assert run("p:IcuPatient", {"p": node}, context) is True
        assert run("p:IcuPatient:Patient", {"p": node}, context) is True
        assert run("p:Hospital", {"p": node}, context) is False

    def test_label_predicate_on_relationship(self, graph, context):
        a = graph.create_node()
        b = graph.create_node()
        rel = graph.create_relationship("TreatedAt", a.id, b.id)
        assert run("r:TreatedAt", {"r": rel}, context) is True
        assert run("r:Other", {"r": rel}, context) is False

    def test_functions_on_items(self, graph, context):
        node = graph.create_node(["Patient"], {"ssn": "X", "name": "Ada"})
        a = graph.create_node()
        rel = graph.create_relationship("Risk", node.id, a.id)
        assert run("id(n)", {"n": node}, context) == node.id
        assert run("labels(n)", {"n": node}, context) == ["Patient"]
        assert run("keys(n)", {"n": node}, context) == ["name", "ssn"]
        assert run("type(r)", {"r": rel}, context) == "Risk"
        assert run("startNode(r).ssn", {"r": rel}, context) == "X"
        assert run("endNode(r)", {"r": rel}, context).id == a.id


class TestFunctions:
    def test_coalesce(self, context):
        assert run("coalesce(null, null, 3)", context=context) == 3
        assert run("coalesce(null)", context=context) is None

    def test_size_and_length(self, context):
        assert run("size([1,2,3])", context=context) == 3
        assert run("size('abcd')", context=context) == 4

    def test_head_last(self, context):
        assert run("head([5, 6])", context=context) == 5
        assert run("last([5, 6])", context=context) == 6
        assert run("head([])", context=context) is None

    def test_numeric_functions(self, context):
        assert run("abs(-4)", context=context) == 4
        assert run("round(2.7)", context=context) == 3
        assert run("floor(2.7)", context=context) == 2.0
        assert run("ceil(2.1)", context=context) == 3.0
        assert run("sign(-9)", context=context) == -1

    def test_conversions(self, context):
        assert run("toInteger('42')", context=context) == 42
        assert run("toFloat('2.5')", context=context) == 2.5
        assert run("toString(7)", context=context) == "7"
        assert run("toInteger('not a number')", context=context) is None

    def test_string_functions(self, context):
        assert run("toUpper('abc')", context=context) == "ABC"
        assert run("toLower('ABC')", context=context) == "abc"
        assert run("trim('  x ')", context=context) == "x"
        assert run("split('a,b', ',')", context=context) == ["a", "b"]
        assert run("substring('abcdef', 1, 3)", context=context) == "bcd"
        assert run("replace('covid', 'c', 'C')", context=context) == "Covid"

    def test_datetime_uses_injected_clock(self, context):
        assert run("datetime()", context=context) == datetime.datetime(2021, 3, 14, 12, 0, 0)
        assert run("date()", context=context) == datetime.date(2021, 3, 14)
        assert run("timestamp()", context=context) == int(
            datetime.datetime(2021, 3, 14, 12, 0, 0).timestamp() * 1000
        )

    def test_datetime_parsing(self, context):
        assert run("datetime('2021-01-02T03:04:05')", context=context) == datetime.datetime(
            2021, 1, 2, 3, 4, 5
        )
        assert run("date('2021-01-02')", context=context) == datetime.date(2021, 1, 2)

    def test_range(self, context):
        assert run("range(1, 4)", context=context) == [1, 2, 3, 4]
        assert run("range(4, 1, -2)", context=context) == [4, 2]

    def test_unknown_function(self, context):
        with pytest.raises(CypherRuntimeError):
            run("nosuchfn(1)", context=context)

    def test_aggregate_outside_projection_rejected(self, context):
        with pytest.raises(CypherRuntimeError):
            run("sum(1)", context=context)


class TestCaseAndCollections:
    def test_case_searched(self, context):
        assert run("CASE WHEN 2 > 1 THEN 'yes' ELSE 'no' END", context=context) == "yes"
        assert run("CASE WHEN false THEN 'yes' END", context=context) is None

    def test_case_simple(self, context):
        assert run("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END", context=context) == "two"

    def test_list_comprehension(self, context):
        assert run("[x IN [1,2,3,4] WHERE x % 2 = 0 | x * 10]", context=context) == [20, 40]
        assert run("[x IN [1,2,3]]", context=context) == [1, 2, 3]

    def test_list_index(self, context):
        assert run("[10, 20, 30][1]", context=context) == 20
        assert run("[10, 20][5]", context=context) is None
        assert run("{a: 1}['a']", context=context) == 1

    def test_map_literal(self, context):
        assert run("{desc: 'alert', level: 1 + 1}", context=context) == {
            "desc": "alert",
            "level": 2,
        }


class TestCompileCache:
    """Compiled closures are cached per AST node, by identity.

    ``Literal(1) == Literal(True) == Literal(1.0)`` and all three hash
    alike, so a cache keyed by node *value* would hand one literal's
    closure to the others.
    """

    def test_equal_literals_keep_their_own_value_and_type(self):
        from repro.triggers import GraphSession

        session = GraphSession()
        for text, expected in (
            ("RETURN 1 AS v", 1),
            ("RETURN true AS v", True),
            ("RETURN 1.0 AS v", 1.0),
        ):
            value = session.run(text).single("v")
            assert value == expected and type(value) is type(expected), text

    def test_equal_literals_filter_by_their_own_value(self):
        from repro.triggers import GraphSession

        session = GraphSession()
        session.run("CREATE (:N {x: 1, tag: 'int'}), (:N {x: true, tag: 'bool'})")
        for literal, tag in (("true", "bool"), ("1", "int"), ("true", "bool")):
            tags = session.run(
                f"MATCH (n:N) WHERE n.x = {literal} RETURN n.tag AS tag"
            ).values("tag")
            assert tags == [tag], literal

    def test_parameters_are_read_at_call_time(self, context):
        expr = parse_expression("$threshold + 1")
        assert evaluate(expr, {}, context) == 51
        context.parameters = {"threshold": 7}
        assert evaluate(expr, {}, context) == 8


class TestCompiledShapes:
    """The compiler fuses the hot shapes: ``var.key`` reads the row in one
    closure, an AND chain is one n-ary Kleene closure, and ``=`` on two
    values of the same plain type compares them directly."""

    def test_variable_property_reads_the_row_without_the_variable_closure(self, graph, context):
        from repro.cypher.expressions import compile_expression

        node = graph.create_node(["N"], {"k": 7})
        expr = parse_expression("n.k")

        def unused(row, context):
            raise AssertionError("the variable closure ran")

        object.__setattr__(expr.subject, "_compiled", unused)
        assert compile_expression(expr)({"n": node}, context) == 7
        assert compile_expression(expr)({"n": None}, context) is None
        assert compile_expression(expr)({"n": {"k": 3}}, context) == 3
        with pytest.raises(CypherTypeError):
            compile_expression(expr)({"n": 5}, context)
        # A name the row lacks still resolves as the variable would.
        with pytest.raises(AssertionError, match="variable closure"):
            compile_expression(expr)({}, context)
        # ... so does a parameter of that name.
        with_map = EvaluationContext(graph=graph, parameters={"cfg": {"k": 4}})
        assert run("cfg.k", {}, with_map) == 4
        with pytest.raises(CypherRuntimeError, match="unknown variable"):
            run("m.k", {}, context)

    def test_and_chain_is_one_closure_evaluated_left_to_right(self, context):
        from repro.cypher.expressions import compile_expression

        expr = parse_expression("a AND (b AND c) AND d")
        compiled = compile_expression(expr)
        assert compiled.__name__ == "conjunction"
        assert not hasattr(expr.left, "_compiled")  # nested ANDs are flattened
        row = {"a": True, "b": True, "c": True, "d": True}
        assert compiled(row, context) is True
        assert compiled({**row, "c": None}, context) is None
        assert compiled({**row, "c": None, "d": False}, context) is False
        with pytest.raises(CypherTypeError):
            compiled({**row, "b": 1}, context)

    def test_and_short_circuits_on_false_but_not_on_null(self, context):
        assert run("false AND 1 / 0 = 1", context=context) is False
        assert run("true AND false AND 1 / 0 = 1", context=context) is False
        with pytest.raises(CypherRuntimeError, match="division by zero"):
            run("null AND 1 / 0 = 1", context=context)
        with pytest.raises(CypherRuntimeError, match="division by zero"):
            run("true AND null AND 1 / 0 = 1", context=context)
        assert run("null AND true", context=context) is None
        assert run("null AND false", context=context) is False

    def test_equality_fast_path_keeps_the_equality_rules(self, context):
        cases = {
            "'a' = 'a'": True,
            "'a' = 'b'": False,
            "2 = 2": True,
            "2.5 = 2.5": True,
            "1 = 1.0": True,
            "1 = true": False,
            "true = true": True,
            "'1' = 1": False,
            "null = 1": None,
            "[1, 2] = [1, 2]": True,
        }
        for text, expected in cases.items():
            assert run(text, context=context) is expected, text
        assert run("0.0 / 0 = 0.0 / 0", context=context) is False


class TestInlineMapRule:
    def test_map_value_matches(self):
        from repro.cypher.expressions import map_value_matches, value_test

        cases = [
            (1, 1, True), (True, 1, False), (1, True, False), (1.0, 1, True),
            (None, None, True), (None, 1, False), (0, None, False),
            ("a", "a", True), ("a", None, False), ([1], [1], True), (False, 0, False),
        ]
        for actual, expected, result in cases:
            assert map_value_matches(actual, expected) is result, (actual, expected)
            assert bool(value_test(expected)(actual)) is result, (actual, expected)
