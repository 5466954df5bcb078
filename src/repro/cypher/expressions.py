"""Expression evaluation for the Cypher subset.

The evaluator is a straightforward tree-walker over the AST defined in
:mod:`repro.cypher.ast`.  It follows openCypher's three-valued logic:
``null`` propagates through comparisons and arithmetic, ``AND``/``OR``
use Kleene logic, and rows whose WHERE predicate evaluates to ``null`` are
filtered out (the executor treats only ``True`` as passing).

Node and relationship values flowing through expressions are immutable
snapshots; property access re-reads the *current* state from the store when
the item still exists (so a trigger that updates a property and then reads
it through the same variable sees the update), falling back to the snapshot
for deleted items (so DELETE-event triggers can still inspect ``OLD``).
"""

from __future__ import annotations

import datetime as _dt
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from ..graph.model import Node, Relationship
from ..graph.store import PropertyGraph
from .ast import (
    BinaryOp,
    CaseExpression,
    CountStar,
    ExistsPattern,
    Expression,
    FunctionCall,
    IsNull,
    LabelPredicate,
    ListComprehension,
    ListIndex,
    ListLiteral,
    Literal,
    MapLiteral,
    Parameter,
    PropertyAccess,
    UnaryOp,
    Variable,
)
from .errors import CypherRuntimeError, CypherTypeError
from .functions import SCALAR_FUNCTIONS, is_aggregate_function


@dataclass
class EvaluationContext:
    """Everything an expression needs besides the current row.

    Attributes:
        graph: the store used to refresh snapshots and evaluate EXISTS patterns.
        parameters: query parameters (``$name``).
        clock: callable returning the current datetime; injectable so tests
            and benchmarks are deterministic.
        pattern_matcher: callback used to evaluate ``EXISTS`` patterns; the
            executor injects its matcher to avoid a circular dependency.
        aggregate_lookup: values of aggregate sub-expressions, keyed by AST
            node identity; populated by the executor during WITH/RETURN
            aggregation.
    """

    graph: PropertyGraph
    parameters: Mapping[str, Any] = field(default_factory=dict)
    clock: Callable[[], _dt.datetime] = _dt.datetime.now
    pattern_matcher: Optional[Callable[[ExistsPattern, dict], bool]] = None
    aggregate_lookup: Optional[dict[int, Any]] = None

    # -- snapshot refreshing --------------------------------------------

    def refresh_node(self, node: Node) -> Node:
        """Return the live version of ``node`` or the snapshot if deleted."""
        if self.graph.has_node(node.id):
            return self.graph.node(node.id)
        return node

    def refresh_relationship(self, rel: Relationship) -> Relationship:
        """Return the live version of ``rel`` or the snapshot if deleted."""
        if self.graph.has_relationship(rel.id):
            return self.graph.relationship(rel.id)
        return rel

    def refresh_item(self, item: Node | Relationship) -> Node | Relationship:
        """Refresh either kind of item."""
        if isinstance(item, Node):
            return self.refresh_node(item)
        return self.refresh_relationship(item)

    def node_by_id(self, node_id: int) -> Node | None:
        """Fetch a node by id, or ``None`` when it does not exist."""
        if self.graph.has_node(node_id):
            return self.graph.node(node_id)
        return None


def evaluate(expr: Expression, row: Mapping[str, Any], context: EvaluationContext) -> Any:
    """Evaluate ``expr`` against one binding ``row``.

    Dispatch is a ``type(expr)``-keyed table (expression evaluation sits on
    the trigger-condition and MATCH-filter hot paths); unexpected subclasses
    fall back to the isinstance-based path below.
    """
    handler = _DISPATCH.get(type(expr))
    if handler is not None:
        return handler(expr, row, context)
    return _evaluate_fallback(expr, row, context)


def _evaluate_fallback(expr: Expression, row: Mapping[str, Any], context: EvaluationContext) -> Any:
    for node_type, handler in _DISPATCH.items():
        if isinstance(expr, node_type):
            return handler(expr, row, context)
    raise CypherTypeError(f"cannot evaluate expression of type {type(expr).__name__}")


def _evaluate_literal(expr: Literal, row, context) -> Any:
    return expr.value


def _evaluate_parameter(expr: Parameter, row, context) -> Any:
    if expr.name not in context.parameters:
        raise CypherRuntimeError(f"missing query parameter ${expr.name}")
    return context.parameters[expr.name]


def _evaluate_variable(expr: Variable, row, context) -> Any:
    if expr.name in row:
        return row[expr.name]
    if expr.name in context.parameters:
        return context.parameters[expr.name]
    raise CypherRuntimeError(f"unknown variable {expr.name!r}")


def _evaluate_list_literal(expr: ListLiteral, row, context) -> Any:
    return [evaluate(item, row, context) for item in expr.items]


def _evaluate_map_literal(expr: MapLiteral, row, context) -> Any:
    return {key: evaluate(value, row, context) for key, value in expr.entries}


def _evaluate_is_null(expr: IsNull, row, context) -> Any:
    value = evaluate(expr.operand, row, context)
    return (value is not None) if expr.negated else (value is None)


def _evaluate_case(expr: CaseExpression, row, context) -> Any:
    for condition, value in expr.whens:
        if evaluate(condition, row, context) is True:
            return evaluate(value, row, context)
    if expr.default is not None:
        return evaluate(expr.default, row, context)
    return None


def _evaluate_exists(expr: ExistsPattern, row, context) -> Any:
    if context.pattern_matcher is None:
        raise CypherRuntimeError("EXISTS patterns require a query execution context")
    return context.pattern_matcher(expr, dict(row))


def _evaluate_count_star(expr: CountStar, row, context) -> Any:
    return _aggregate_value(expr, context)


def _evaluate_function_call(expr: FunctionCall, row, context) -> Any:
    if is_aggregate_function(expr.name):
        return _aggregate_value(expr, context)
    return _evaluate_scalar_call(expr, row, context)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _aggregate_value(expr: Expression, context: EvaluationContext) -> Any:
    if context.aggregate_lookup is None or id(expr) not in context.aggregate_lookup:
        raise CypherRuntimeError(
            "aggregate functions are only allowed in WITH and RETURN projections"
        )
    return context.aggregate_lookup[id(expr)]


def _evaluate_property(expr: PropertyAccess, row, context) -> Any:
    subject = evaluate(expr.subject, row, context)
    if subject is None:
        return None
    if isinstance(subject, (Node, Relationship)):
        # Snapshots are read as bound: a trigger's OLD variable must keep the
        # pre-event values even though the stored item has since changed.
        # Variables bound by MATCH/SET always hold current snapshots.
        return subject.properties.get(expr.key)
    if isinstance(subject, Mapping):
        return subject.get(expr.key)
    raise CypherTypeError(
        f"cannot access property {expr.key!r} on value of type {type(subject).__name__}"
    )


def _evaluate_label_predicate(expr: LabelPredicate, row, context) -> Any:
    subject = evaluate(expr.subject, row, context)
    if subject is None:
        return None
    if isinstance(subject, Node):
        return all(label in subject.labels for label in expr.labels)
    if isinstance(subject, Relationship):
        return all(label == subject.type for label in expr.labels)
    raise CypherTypeError("label predicate requires a node or relationship")


def _evaluate_unary(expr: UnaryOp, row, context) -> Any:
    value = evaluate(expr.operand, row, context)
    if expr.op == "NOT":
        if value is None:
            return None
        return not _as_boolean(value)
    if expr.op == "-":
        return None if value is None else -value
    raise CypherTypeError(f"unknown unary operator {expr.op}")


def _as_boolean(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise CypherTypeError(f"expected a boolean, got {type(value).__name__}: {value!r}")


def _evaluate_binary(expr: BinaryOp, row, context) -> Any:
    op = expr.op
    if op in ("AND", "OR", "XOR"):
        return _evaluate_logical(op, expr, row, context)

    left = evaluate(expr.left, row, context)
    right = evaluate(expr.right, row, context)

    if op == "IN":
        if right is None:
            return None
        return _value_in_list(left, right)
    if left is None or right is None:
        return None
    if op == "=":
        return _values_equal(left, right)
    if op == "<>":
        return not _values_equal(left, right)
    if op in ("<", "<=", ">", ">="):
        return _compare(op, left, right)
    if op == "+":
        if isinstance(left, list) and isinstance(right, list):
            return left + right
        if isinstance(left, str) or isinstance(right, str):
            return f"{left}{right}"
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(left, int) and isinstance(right, int):
            if right == 0:
                raise CypherRuntimeError("division by zero")
            # openCypher integer division truncates toward zero.
            return int(left / right)
        if right == 0:
            # Floats follow IEEE 754, as in openCypher: 0/0 is NaN,
            # anything else a signed infinity.
            if left == 0 or left != left:
                return math.nan
            return math.copysign(math.inf, left) * math.copysign(1.0, right)
        return left / right
    if op == "%":
        if right == 0:
            if isinstance(left, int) and isinstance(right, int):
                raise CypherRuntimeError("division by zero")
            return math.nan
        return left % right
    if op == "^":
        return float(left) ** float(right)
    if op == "CONTAINS":
        return str(right) in str(left)
    if op == "STARTS WITH":
        return str(left).startswith(str(right))
    if op == "ENDS WITH":
        return str(left).endswith(str(right))
    raise CypherTypeError(f"unknown binary operator {op}")


def _evaluate_logical(op: str, expr: BinaryOp, row, context) -> Any:
    left = evaluate(expr.left, row, context)
    left = None if left is None else _as_boolean(left)
    # Short-circuit where three-valued logic allows it.
    if op == "AND" and left is False:
        return False
    if op == "OR" and left is True:
        return True
    right = evaluate(expr.right, row, context)
    right = None if right is None else _as_boolean(right)
    if op == "AND":
        if left is False or right is False:
            return False
        if left is None or right is None:
            return None
        return True
    if op == "OR":
        if left is True or right is True:
            return True
        if left is None or right is None:
            return None
        return False
    # XOR
    if left is None or right is None:
        return None
    return left != right


def _values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, (Node, Relationship)) and isinstance(right, (Node, Relationship)):
        return type(left) is type(right) and left.id == right.id
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    return left == right


def _compare(op: str, left: Any, right: Any) -> Any:
    try:
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    except TypeError:
        raise CypherTypeError(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
        ) from None


def _value_in_list(value: Any, container: Any) -> Any:
    if not isinstance(container, (list, tuple)):
        raise CypherTypeError("IN requires a list on its right-hand side")
    found_null = False
    for element in container:
        if element is None or value is None:
            found_null = True
            continue
        if _values_equal(value, element):
            return True
    if found_null:
        return None
    return False


def _evaluate_list_index(expr: ListIndex, row, context) -> Any:
    subject = evaluate(expr.subject, row, context)
    index = evaluate(expr.index, row, context)
    if subject is None or index is None:
        return None
    if isinstance(subject, Mapping):
        return subject.get(index)
    if isinstance(subject, (list, tuple)):
        position = int(index)
        if -len(subject) <= position < len(subject):
            return subject[position]
        return None
    raise CypherTypeError("indexing requires a list or map")


def _evaluate_list_comprehension(expr: ListComprehension, row, context) -> Any:
    source = evaluate(expr.source, row, context)
    if source is None:
        return None
    if not isinstance(source, (list, tuple)):
        raise CypherTypeError("list comprehension requires a list source")
    result = []
    scope = dict(row)
    for element in source:
        scope[expr.variable] = element
        if expr.where is not None and evaluate(expr.where, scope, context) is not True:
            continue
        if expr.projection is not None:
            result.append(evaluate(expr.projection, scope, context))
        else:
            result.append(element)
    return result


def _evaluate_scalar_call(expr: FunctionCall, row, context) -> Any:
    implementation = SCALAR_FUNCTIONS.get(expr.name)
    if implementation is None:
        raise CypherRuntimeError(f"unknown function {expr.name}()")
    args = [evaluate(argument, row, context) for argument in expr.args]
    return implementation(args, context)


#: type(expr) -> handler table backing :func:`evaluate`'s fast dispatch.
_DISPATCH: dict[type, Any] = {
    Literal: _evaluate_literal,
    Parameter: _evaluate_parameter,
    Variable: _evaluate_variable,
    ListLiteral: _evaluate_list_literal,
    MapLiteral: _evaluate_map_literal,
    PropertyAccess: _evaluate_property,
    LabelPredicate: _evaluate_label_predicate,
    UnaryOp: _evaluate_unary,
    BinaryOp: _evaluate_binary,
    IsNull: _evaluate_is_null,
    ListIndex: _evaluate_list_index,
    CaseExpression: _evaluate_case,
    ListComprehension: _evaluate_list_comprehension,
    ExistsPattern: _evaluate_exists,
    CountStar: _evaluate_count_star,
    FunctionCall: _evaluate_function_call,
}
