"""Abstract syntax tree for the Cypher subset.

Two families of nodes:

* *expressions* — anything that evaluates to a value within one binding row;
* *clauses* — the pipeline stages of a query (MATCH, WITH, CREATE, …).

All nodes are plain frozen dataclasses; evaluation logic lives in
:mod:`repro.cypher.expressions` and :mod:`repro.cypher.executor` so that
the AST can also be inspected and rewritten (the PG-Trigger legality check
walks it to find label writes, and the APOC/Memgraph translators reuse the
parsed condition/statement text).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


class Expression:
    """Marker base class for expression nodes."""


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value (number, string, boolean or null)."""

    value: Any


@dataclass(frozen=True)
class ListLiteral(Expression):
    """A list literal ``[e1, e2, …]``."""

    items: tuple[Expression, ...]


@dataclass(frozen=True)
class MapLiteral(Expression):
    """A map literal ``{key: expr, …}``."""

    entries: tuple[tuple[str, Expression], ...]


@dataclass(frozen=True)
class Parameter(Expression):
    """A query parameter ``$name``."""

    name: str


@dataclass(frozen=True)
class Variable(Expression):
    """A reference to a bound variable."""

    name: str


@dataclass(frozen=True)
class PropertyAccess(Expression):
    """``subject.key`` property access."""

    subject: Expression
    key: str


@dataclass(frozen=True)
class LabelPredicate(Expression):
    """``subject:Label1:Label2`` — true when the item has all the labels.

    This appears in WHERE clauses and in the conditions of APOC-style
    translations (``nodes:label AND condition``).
    """

    subject: Expression
    labels: tuple[str, ...]


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary operator application (``NOT x``, ``-x``)."""

    op: str
    operand: Expression


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary operator application."""

    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS NULL`` / ``expr IS NOT NULL``."""

    operand: Expression
    negated: bool


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A function invocation; ``distinct`` is used by aggregates."""

    name: str
    args: tuple[Expression, ...]
    distinct: bool = False


@dataclass(frozen=True)
class CountStar(Expression):
    """``count(*)``."""


@dataclass(frozen=True)
class CaseExpression(Expression):
    """Searched CASE: ``CASE WHEN cond THEN value … ELSE default END``.

    Simple CASE (``CASE expr WHEN value THEN …``) is normalised by the
    parser into the searched form with equality comparisons.
    """

    whens: tuple[tuple[Expression, Expression], ...]
    default: Optional[Expression]


@dataclass(frozen=True)
class ListIndex(Expression):
    """``list[index]``."""

    subject: Expression
    index: Expression


@dataclass(frozen=True)
class ExistsPattern(Expression):
    """``EXISTS (pattern)`` or ``EXISTS { MATCH … [WHERE …] }``."""

    patterns: tuple["PathPattern", ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class ListComprehension(Expression):
    """``[var IN list WHERE cond | projection]``."""

    variable: str
    source: Expression
    where: Optional[Expression]
    projection: Optional[Expression]


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodePattern:
    """``(var:Label1:Label2 {prop: expr})``."""

    variable: Optional[str]
    labels: tuple[str, ...] = ()
    properties: tuple[tuple[str, Expression], ...] = ()


@dataclass(frozen=True)
class RelationshipPattern:
    """``-[var:TYPE1|TYPE2 {prop: expr} *min..max]->`` and variants.

    ``direction`` is ``"out"`` (left to right), ``"in"`` (right to left) or
    ``"both"`` (undirected).  ``min_hops``/``max_hops`` are ``None`` for a
    plain single-hop relationship.
    """

    variable: Optional[str]
    types: tuple[str, ...] = ()
    properties: tuple[tuple[str, Expression], ...] = ()
    direction: str = "both"
    min_hops: Optional[int] = None
    max_hops: Optional[int] = None

    @property
    def is_variable_length(self) -> bool:
        """True for ``*`` patterns."""
        return self.min_hops is not None or self.max_hops is not None


@dataclass(frozen=True)
class PathPattern:
    """An alternating sequence node, rel, node, rel, … starting/ending with nodes.

    ``shortest`` is ``"shortestPath"`` when the pattern was wrapped in that
    function (the only supported selector), ``None`` for a plain pattern.
    """

    elements: tuple[Union[NodePattern, RelationshipPattern], ...]
    variable: Optional[str] = None
    shortest: Optional[str] = None

    @property
    def nodes(self) -> tuple[NodePattern, ...]:
        """The node patterns, in order."""
        return tuple(e for e in self.elements if isinstance(e, NodePattern))

    @property
    def relationships(self) -> tuple[RelationshipPattern, ...]:
        """The relationship patterns, in order."""
        return tuple(e for e in self.elements if isinstance(e, RelationshipPattern))


# ---------------------------------------------------------------------------
# clause building blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionItem:
    """One item of a WITH/RETURN projection (``expr AS alias``)."""

    expression: Expression
    alias: Optional[str] = None

    def output_name(self) -> str:
        """The column name this item produces."""
        if self.alias:
            return self.alias
        return expression_text(self.expression)


@dataclass(frozen=True)
class SortItem:
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False


# ---------------------------------------------------------------------------
# clauses
# ---------------------------------------------------------------------------


class Clause:
    """Marker base class for clause nodes."""


@dataclass(frozen=True)
class MatchClause(Clause):
    """``[OPTIONAL] MATCH patterns [WHERE expr]``."""

    patterns: tuple[PathPattern, ...]
    where: Optional[Expression] = None
    optional: bool = False


@dataclass(frozen=True)
class UnwindClause(Clause):
    """``UNWIND expr AS var``."""

    expression: Expression
    variable: str


@dataclass(frozen=True)
class WithClause(Clause):
    """``WITH [DISTINCT] items [ORDER BY …] [SKIP n] [LIMIT n] [WHERE expr]``."""

    items: tuple[ProjectionItem, ...]
    distinct: bool = False
    order_by: tuple[SortItem, ...] = ()
    skip: Optional[Expression] = None
    limit: Optional[Expression] = None
    where: Optional[Expression] = None
    include_wildcard: bool = False


@dataclass(frozen=True)
class ReturnClause(Clause):
    """``RETURN [DISTINCT] items [ORDER BY …] [SKIP n] [LIMIT n]``."""

    items: tuple[ProjectionItem, ...]
    distinct: bool = False
    order_by: tuple[SortItem, ...] = ()
    skip: Optional[Expression] = None
    limit: Optional[Expression] = None
    include_wildcard: bool = False


@dataclass(frozen=True)
class CreateClause(Clause):
    """``CREATE patterns``."""

    patterns: tuple[PathPattern, ...]


@dataclass(frozen=True)
class MergeClause(Clause):
    """``MERGE pattern`` — match-or-create for a single path pattern."""

    pattern: PathPattern


@dataclass(frozen=True)
class SetPropertyItem:
    """``SET subject.key = expr``."""

    subject: str
    key: str
    value: Expression


@dataclass(frozen=True)
class SetLabelsItem:
    """``SET subject:Label1:Label2``."""

    subject: str
    labels: tuple[str, ...]


@dataclass(frozen=True)
class SetFromMapItem:
    """``SET subject += {…}`` (merge) or ``SET subject = {…}`` (replace)."""

    subject: str
    value: Expression
    replace: bool = False


SetItem = Union[SetPropertyItem, SetLabelsItem, SetFromMapItem]


@dataclass(frozen=True)
class SetClause(Clause):
    """``SET item, item, …``."""

    items: tuple[SetItem, ...]


@dataclass(frozen=True)
class RemovePropertyItem:
    """``REMOVE subject.key``."""

    subject: str
    key: str


@dataclass(frozen=True)
class RemoveLabelsItem:
    """``REMOVE subject:Label``."""

    subject: str
    labels: tuple[str, ...]


RemoveItem = Union[RemovePropertyItem, RemoveLabelsItem]


@dataclass(frozen=True)
class RemoveClause(Clause):
    """``REMOVE item, item, …``."""

    items: tuple[RemoveItem, ...]


@dataclass(frozen=True)
class DeleteClause(Clause):
    """``[DETACH] DELETE expr, expr, …``."""

    expressions: tuple[Expression, ...]
    detach: bool = False


@dataclass(frozen=True)
class ForeachClause(Clause):
    """``FOREACH (var IN list | update clauses)``."""

    variable: str
    source: Expression
    body: tuple[Clause, ...]


@dataclass(frozen=True)
class CallClause(Clause):
    """``CALL procedure(args…) [YIELD name [AS alias], …]``.

    Procedures are looked up in the executor's procedure registry; the APOC
    emulation layer registers ``apoc.do.when`` and friends there so that the
    paper's translated triggers are executable.
    """

    procedure: str
    arguments: tuple[Expression, ...]
    yield_items: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Query:
    """A full query: an ordered sequence of clauses."""

    clauses: tuple[Clause, ...]

    @property
    def is_read_only(self) -> bool:
        """True when the query contains no write clauses."""
        return not any(
            isinstance(c, (CreateClause, MergeClause, SetClause, RemoveClause,
                           DeleteClause, ForeachClause, CallClause))
            for c in self.clauses
        )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def expression_text(expr: Expression) -> str:
    """Render an expression back to approximate query text.

    Used for auto-generated column names (``RETURN n.name`` yields a column
    called ``n.name``) and for diagnostics; it is not guaranteed to be
    re-parseable for every node type.
    """
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            return f"'{expr.value}'"
        if expr.value is None:
            return "null"
        if isinstance(expr.value, bool):
            return "true" if expr.value else "false"
        return str(expr.value)
    if isinstance(expr, Variable):
        return expr.name
    if isinstance(expr, Parameter):
        return f"${expr.name}"
    if isinstance(expr, PropertyAccess):
        return f"{expression_text(expr.subject)}.{expr.key}"
    if isinstance(expr, LabelPredicate):
        labels = "".join(f":{label}" for label in expr.labels)
        return f"{expression_text(expr.subject)}{labels}"
    if isinstance(expr, FunctionCall):
        args = ", ".join(expression_text(a) for a in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({prefix}{args})"
    if isinstance(expr, CountStar):
        return "count(*)"
    if isinstance(expr, BinaryOp):
        return f"{expression_text(expr.left)} {expr.op} {expression_text(expr.right)}"
    if isinstance(expr, UnaryOp):
        return f"{expr.op} {expression_text(expr.operand)}"
    if isinstance(expr, IsNull):
        suffix = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{expression_text(expr.operand)} {suffix}"
    if isinstance(expr, ListLiteral):
        return "[" + ", ".join(expression_text(i) for i in expr.items) + "]"
    if isinstance(expr, MapLiteral):
        inner = ", ".join(f"{k}: {expression_text(v)}" for k, v in expr.entries)
        return "{" + inner + "}"
    if isinstance(expr, ListIndex):
        return f"{expression_text(expr.subject)}[{expression_text(expr.index)}]"
    if isinstance(expr, CaseExpression):
        return "CASE … END"
    if isinstance(expr, ExistsPattern):
        return "EXISTS { … }"
    if isinstance(expr, ListComprehension):
        return f"[{expr.variable} IN {expression_text(expr.source)} …]"
    return expr.__class__.__name__


def conjuncts(expr: Expression) -> list[Expression]:
    """The operands of an AND chain, however it nests, left to right."""
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def walk_expression(expr: Expression) -> Sequence[Expression]:
    """Yield ``expr`` and every sub-expression (pre-order)."""
    out: list[Expression] = [expr]
    children: tuple[Expression, ...] = ()
    if isinstance(expr, (UnaryOp,)):
        children = (expr.operand,)
    elif isinstance(expr, BinaryOp):
        children = (expr.left, expr.right)
    elif isinstance(expr, IsNull):
        children = (expr.operand,)
    elif isinstance(expr, PropertyAccess):
        children = (expr.subject,)
    elif isinstance(expr, LabelPredicate):
        children = (expr.subject,)
    elif isinstance(expr, FunctionCall):
        children = expr.args
    elif isinstance(expr, ListLiteral):
        children = expr.items
    elif isinstance(expr, MapLiteral):
        children = tuple(v for _, v in expr.entries)
    elif isinstance(expr, ListIndex):
        children = (expr.subject, expr.index)
    elif isinstance(expr, CaseExpression):
        pairs: list[Expression] = []
        for cond, value in expr.whens:
            pairs.extend((cond, value))
        if expr.default is not None:
            pairs.append(expr.default)
        children = tuple(pairs)
    elif isinstance(expr, ExistsPattern):
        extra: list[Expression] = []
        if expr.where is not None:
            extra.append(expr.where)
        for pattern in expr.patterns:
            for element in pattern.elements:
                for _, value in element.properties:
                    extra.append(value)
        children = tuple(extra)
    elif isinstance(expr, ListComprehension):
        parts: list[Expression] = [expr.source]
        if expr.where is not None:
            parts.append(expr.where)
        if expr.projection is not None:
            parts.append(expr.projection)
        children = tuple(parts)
    for child in children:
        out.extend(walk_expression(child))
    return out


def expression_variable_names(expr: Expression) -> set[str]:
    """Row variables an expression may read (conservative superset).

    Collects every :class:`Variable` name plus the element variables of
    EXISTS sub-patterns — those are references into the row too, but
    :func:`walk_expression` does not surface them as Variable nodes.
    Used by the planner (reorder-decline checks) and the executor (match
    memoization keys); both must see the identical dependency set.
    """
    names: set[str] = set()
    for sub in walk_expression(expr):
        if isinstance(sub, Variable):
            names.add(sub.name)
        elif isinstance(sub, ExistsPattern):
            for pattern in sub.patterns:
                for element in pattern.elements:
                    if element.variable is not None:
                        names.add(element.variable)
    return names
