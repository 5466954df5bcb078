"""Expression evaluation for the Cypher subset.

Each AST node (:mod:`repro.cypher.ast`) is compiled once, on first
evaluation, into a closure over its children's closures
(:func:`compile_expression`), so a row pays no per-node dispatch.
Evaluation follows openCypher's three-valued logic:
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
import operator
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
    conjuncts,
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


#: A compiled expression: ``(row, context) -> value``.
Compiled = Callable[[Mapping[str, Any], EvaluationContext], Any]


def evaluate(expr: Expression, row: Mapping[str, Any], context: EvaluationContext) -> Any:
    """Evaluate ``expr`` against one binding ``row``."""
    return compile_expression(expr)(row, context)


def compile_expression(expr: Expression) -> Compiled:
    """The closure computing ``expr``, built once from its children's closures.

    Cached on the AST node itself, by identity: ``Literal(1) == Literal(True)``
    and both hash alike, so a value-keyed cache would answer ``1`` for ``true``
    (threads racing on a first use build equal closures).  Closures read
    parameters, the clock and aggregates from ``context`` at call time (plans
    are shared across executions) and raise only when called, never earlier.
    """
    try:
        return expr._compiled
    except AttributeError:
        pass
    compiled = _COMPILERS.get(type(expr), _compile_unsupported)(expr)
    object.__setattr__(expr, "_compiled", compiled)  # frozen dataclass: derived state
    return compiled


def compile_map_entries(pattern: Any) -> tuple[tuple[str, Compiled], ...]:
    """A node or relationship pattern's inline map, each value compiled, in
    written order; cached on the pattern like :func:`compile_expression`."""
    try:
        return pattern._entries
    except AttributeError:
        entries = tuple((key, compile_expression(expr)) for key, expr in pattern.properties)
        object.__setattr__(pattern, "_entries", entries)
        return entries


def _failing(error: type[Exception], message: str) -> Compiled:
    def fail(row, context):
        raise error(message)
    return fail


def _compile_unsupported(expr: Expression) -> Compiled:
    return _failing(CypherTypeError, f"cannot evaluate expression of type {type(expr).__name__}")


def _compile_literal(expr: Literal) -> Compiled:
    value = expr.value
    return lambda row, context: value


def _compile_parameter(expr: Parameter) -> Compiled:
    name = expr.name
    def parameter(row, context):
        if name not in context.parameters:
            raise CypherRuntimeError(f"missing query parameter ${name}")
        return context.parameters[name]
    return parameter


def _compile_variable(expr: Variable) -> Compiled:
    name = expr.name
    def variable(row, context):
        if name in row:
            return row[name]
        if name in context.parameters:
            return context.parameters[name]
        raise CypherRuntimeError(f"unknown variable {name!r}")
    return variable


def _compile_list_literal(expr: ListLiteral) -> Compiled:
    items = tuple(compile_expression(item) for item in expr.items)
    return lambda row, context: [item(row, context) for item in items]


def _compile_map_literal(expr: MapLiteral) -> Compiled:
    entries = tuple((key, compile_expression(value)) for key, value in expr.entries)
    return lambda row, context: {key: value(row, context) for key, value in entries}


def _compile_is_null(expr: IsNull) -> Compiled:
    operand, negated = compile_expression(expr.operand), expr.negated
    return lambda row, context: (operand(row, context) is None) is not negated


def _compile_case(expr: CaseExpression) -> Compiled:
    whens = tuple((compile_expression(c), compile_expression(v)) for c, v in expr.whens)
    default = None if expr.default is None else compile_expression(expr.default)
    def case(row, context):
        for condition, value in whens:
            if condition(row, context) is True:
                return value(row, context)
        return None if default is None else default(row, context)
    return case


def _compile_exists(expr: ExistsPattern) -> Compiled:
    def exists(row, context):
        if context.pattern_matcher is None:
            raise CypherRuntimeError("EXISTS patterns require a query execution context")
        return context.pattern_matcher(expr, dict(row))
    return exists


def _compile_function_call(expr: FunctionCall) -> Compiled:
    if isinstance(expr, CountStar) or is_aggregate_function(expr.name):
        return lambda row, context: _aggregate_value(expr, context)
    implementation = SCALAR_FUNCTIONS.get(expr.name)
    if implementation is None:
        return _failing(CypherRuntimeError, f"unknown function {expr.name}()")
    args = tuple(compile_expression(argument) for argument in expr.args)
    return lambda row, context: implementation([arg(row, context) for arg in args], context)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _aggregate_value(expr: Expression, context: EvaluationContext) -> Any:
    if context.aggregate_lookup is None or id(expr) not in context.aggregate_lookup:
        raise CypherRuntimeError(
            "aggregate functions are only allowed in WITH and RETURN projections"
        )
    return context.aggregate_lookup[id(expr)]


def _compile_property(expr: PropertyAccess) -> Compiled:
    subject, key = compile_expression(expr.subject), expr.key
    # ``var.key`` reads the row itself; anything else goes through ``subject``.
    name = expr.subject.name if isinstance(expr.subject, Variable) else None
    def property_access(row, context):
        value = row[name] if name in row else subject(row, context)
        if value is None:
            return None
        if isinstance(value, (Node, Relationship)):
            # Snapshots are read as bound: a trigger's OLD variable must keep
            # the pre-event values even though the stored item has since
            # changed.  Variables bound by MATCH/SET always hold current
            # snapshots.
            return value.properties.get(key)
        if isinstance(value, Mapping):
            return value.get(key)
        raise CypherTypeError(
            f"cannot access property {key!r} on value of type {type(value).__name__}"
        )
    return property_access


def _compile_label_predicate(expr: LabelPredicate) -> Compiled:
    subject, labels = compile_expression(expr.subject), expr.labels
    def label_predicate(row, context):
        value = subject(row, context)
        if value is None:
            return None
        if isinstance(value, Node):
            return all(label in value.labels for label in labels)
        if isinstance(value, Relationship):
            return all(label == value.type for label in labels)
        raise CypherTypeError("label predicate requires a node or relationship")
    return label_predicate


def _compile_unary(expr: UnaryOp) -> Compiled:
    operand, op = compile_expression(expr.operand), expr.op
    def unary(row, context):
        value = operand(row, context)
        if op == "NOT":
            return None if value is None else not _as_boolean(value)
        if op == "-":
            return None if value is None else -value
        raise CypherTypeError(f"unknown unary operator {op}")
    return unary


def _as_boolean(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise CypherTypeError(f"expected a boolean, got {type(value).__name__}: {value!r}")


def _compile_binary(expr: BinaryOp) -> Compiled:
    if expr.op == "AND":
        return _compile_conjunction(tuple(map(compile_expression, conjuncts(expr))))
    op, left, right = expr.op, compile_expression(expr.left), compile_expression(expr.right)
    if op == "OR":
        return _compile_and_or(False, left, right)
    if op == "XOR":
        def exclusive(row, context):
            lhs = left(row, context)
            lhs = None if lhs is None else _as_boolean(lhs)
            rhs = right(row, context)
            rhs = None if rhs is None else _as_boolean(rhs)
            return None if lhs is None or rhs is None else lhs != rhs
        return exclusive
    if op == "IN":
        def membership(row, context):
            value, container = left(row, context), right(row, context)
            return None if container is None else _value_in_list(value, container)
        return membership
    if op == "=":
        def equals(row, context):
            lhs, rhs = left(row, context), right(row, context)
            if lhs is None or rhs is None:
                return None
            kind = type(lhs)
            if kind is type(rhs) and (kind is str or kind is int or kind is float):
                return lhs == rhs
            return _values_equal(lhs, rhs)
        return equals
    apply = _BINARY_OPERATORS.get(op)
    def binary(row, context):
        lhs, rhs = left(row, context), right(row, context)
        if lhs is None or rhs is None:
            return None
        if apply is None:
            raise CypherTypeError(f"unknown binary operator {op}")
        return apply(lhs, rhs)
    return binary


def _compile_conjunction(operands: tuple[Compiled, ...]) -> Compiled:
    """Kleene AND over a flattened chain, left to right: ``false`` skips
    the rest, ``null`` does not, and a non-boolean raises when reached."""
    def conjunction(row, context):
        unknown = False
        for operand in operands:
            value = operand(row, context)
            if value is False:
                return False
            if value is None:
                unknown = True
            elif value is not True:
                _as_boolean(value)
        return None if unknown else True
    return conjunction


def _compile_and_or(conjunction: bool, left: Compiled, right: Compiled) -> Compiled:
    """Kleene AND (``conjunction``) or OR.  An operand that is neither a
    boolean nor null raises as soon as it is evaluated, and the right
    operand is skipped when the left one decides the result."""
    decisive = not conjunction  # False decides an AND, True an OR
    def logical(row, context):
        lhs = left(row, context)
        if lhs is decisive:
            return decisive
        if lhs is not None and lhs is not conjunction:
            _as_boolean(lhs)
        rhs = right(row, context)
        if rhs is decisive:
            return decisive
        if rhs is not None and rhs is not conjunction:
            _as_boolean(rhs)
        return None if lhs is None or rhs is None else conjunction
    return logical


def _values_equal(left: Any, right: Any) -> bool:
    if isinstance(left, (Node, Relationship)) and isinstance(right, (Node, Relationship)):
        return type(left) is type(right) and left.id == right.id
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    return left == right


#: ``{key: expected}`` on a stored value: ``1`` is not ``true``, ``null`` is missing.
map_value_matches = _values_equal


def value_test(expected: Any) -> Callable[[Any], bool]:
    """``actual -> map_value_matches(actual, expected)``, typed once."""
    kind = type(expected)
    if expected is None or kind is bool:
        return lambda actual: actual is expected
    if kind is str:
        return lambda actual: actual == expected
    if kind is int or kind is float:
        return lambda actual: actual == expected and actual.__class__ is not bool
    return lambda actual: map_value_matches(actual, expected)


def _ordering(compare: Callable[[Any, Any], bool]) -> Callable[[Any, Any], bool]:
    def ordered(left: Any, right: Any) -> bool:
        try:
            return compare(left, right)
        except TypeError:
            raise CypherTypeError(
                f"cannot compare {type(left).__name__} with {type(right).__name__}"
            ) from None
    return ordered


def _add(left: Any, right: Any) -> Any:
    if isinstance(left, list) and isinstance(right, list):
        return left + right
    if isinstance(left, str) or isinstance(right, str):
        return f"{left}{right}"
    return left + right


def _divide(left: Any, right: Any) -> Any:
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


def _modulo(left: Any, right: Any) -> Any:
    if right == 0:
        if isinstance(left, int) and isinstance(right, int):
            raise CypherRuntimeError("division by zero")
        return math.nan
    return left % right


#: Binary operators on two non-null operands.
_BINARY_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": _values_equal,
    "<>": lambda left, right: not _values_equal(left, right),
    "<": _ordering(operator.lt),
    "<=": _ordering(operator.le),
    ">": _ordering(operator.gt),
    ">=": _ordering(operator.ge),
    "+": _add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _divide,
    "%": _modulo,
    "^": lambda left, right: float(left) ** float(right),
    "CONTAINS": lambda left, right: str(right) in str(left),
    "STARTS WITH": lambda left, right: str(left).startswith(str(right)),
    "ENDS WITH": lambda left, right: str(left).endswith(str(right)),
}


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


def _compile_list_index(expr: ListIndex) -> Compiled:
    subject, index = compile_expression(expr.subject), compile_expression(expr.index)
    def list_index(row, context):
        value, position = subject(row, context), index(row, context)
        if value is None or position is None:
            return None
        if isinstance(value, Mapping):
            return value.get(position)
        if isinstance(value, (list, tuple)):
            position = int(position)
            if -len(value) <= position < len(value):
                return value[position]
            return None
        raise CypherTypeError("indexing requires a list or map")
    return list_index


def _compile_list_comprehension(expr: ListComprehension) -> Compiled:
    source, variable = compile_expression(expr.source), expr.variable
    where = None if expr.where is None else compile_expression(expr.where)
    projection = None if expr.projection is None else compile_expression(expr.projection)
    def comprehension(row, context):
        values = source(row, context)
        if values is None:
            return None
        if not isinstance(values, (list, tuple)):
            raise CypherTypeError("list comprehension requires a list source")
        result = []
        scope = dict(row)
        for element in values:
            scope[variable] = element
            if where is not None and where(scope, context) is not True:
                continue
            result.append(element if projection is None else projection(scope, context))
        return result
    return comprehension


#: type(expr) -> closure builder, consulted once per AST node.
_COMPILERS: dict[type, Callable[[Any], Compiled]] = {
    Literal: _compile_literal,
    Parameter: _compile_parameter,
    Variable: _compile_variable,
    ListLiteral: _compile_list_literal,
    MapLiteral: _compile_map_literal,
    PropertyAccess: _compile_property,
    LabelPredicate: _compile_label_predicate,
    UnaryOp: _compile_unary,
    BinaryOp: _compile_binary,
    IsNull: _compile_is_null,
    ListIndex: _compile_list_index,
    CaseExpression: _compile_case,
    ListComprehension: _compile_list_comprehension,
    ExistsPattern: _compile_exists,
    CountStar: _compile_function_call,
    FunctionCall: _compile_function_call,
}
