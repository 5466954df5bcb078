"""Physical operators — the vocabulary the planner lowers queries into.

This module is the data model of the *physical plan layer*: the planner
(:mod:`repro.cypher.planner`) turns each clause of a parsed query into a
tree of the operators below, and the executor
(:mod:`repro.cypher.executor`) interprets that tree instead of re-deriving
strategy per clause.  ``EXPLAIN`` output is the ``describe()`` rendering of
these operators, each annotated with the cardinality estimate the planner
used when choosing it.

Operator vocabulary
-------------------

Start operators — how a pattern's candidate set is produced
(:class:`AccessPath`, discriminated by ``kind``):

* ``AllNodesScan`` — every node (no label, no usable index);
* ``LabelScan(L1|L2)`` — the most selective label bucket;
* ``VirtualLabelScan(L)`` — a query-scoped virtual-label id set (the
  trigger engine's transition variables);
* ``IndexSeek(L.p = v)`` — equality probe into an exact-match or ordered
  property index;
* ``IndexSeek(L.p IN [...])`` — union of equality probes, one per list
  element;
* ``IndexRangeSeek(L.p > lo AND L.p <= hi)`` — sorted-index range seek
  over the ordered property index;
* ``RelIndexSeek(T.p = v)`` — equality probe into a relationship-property
  index; the pattern is matched outward from the seeked relationships;
* ``BoundRelationship(r)`` — the relationship the row already binds to
  the pattern's first hop (a trigger's ``NEW``); matched outward like a
  ``RelIndexSeek`` hit;
* ``Bound(n)`` — the node the row already binds to the start variable.

Pattern operators:

* :class:`Expand` — one fixed relationship hop of a path pattern;
* :class:`VarLengthExpand` — a ``-[:R*min..max]->`` hop: iterative DFS
  frontier expansion with relationship-uniqueness;
* :class:`ShortestPath` — a ``shortestPath(...)`` pattern: bidirectional
  BFS when both endpoints are bound, single-source BFS otherwise;
* :class:`Filter` — a clause-level WHERE predicate (always re-evaluated,
  whatever the access path already guaranteed).

Join operators (between the disconnected pattern groups of one MATCH):

* :class:`HashJoin` — build a hash table over the new pattern's rows keyed
  by cross-group WHERE equality conjuncts, probe it with each partial row;
* :class:`CartesianProduct` — no usable key: the new pattern's rows are
  materialised once and replayed per partial row (still strictly better
  than re-matching the pattern per row, which is what the nested-loop
  baseline does).

Projection operators:

* :class:`TopK` — heap-based ORDER BY + LIMIT: keeps only ``skip+limit``
  rows in memory instead of sorting the full input;
* :class:`Sort` — full sort (ORDER BY without LIMIT);
* :class:`Aggregate` — grouped aggregation (a pipeline breaker).

Every operator is *advisory*: the executor re-verifies labels, properties
and the WHERE clause on each candidate, so a wrong plan can cost
performance but never change results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Union

from .ast import (
    Expression,
    NodePattern,
    Parameter,
    RelationshipPattern,
    expression_text,
    expression_variable_names,
)
from .expressions import value_test

#: Access-path kinds, in decreasing priority.
COMPOSITE = "composite"
INDEX = "index"
IN_LIST = "in"
RANGE = "range"
REL_INDEX = "rel_index"
BOUND_REL = "bound_rel"
BOUND = "bound"
VIRTUAL = "virtual"
LABEL = "label"
SCAN = "scan"
#: Not selectivity-ranked: chosen only to serve an ORDER BY, never to shrink
#: the candidate set (it emits the whole label in index order).
ORDERED = "ordered"


def format_rows(estimate: float) -> str:
    """Compact human-readable row estimate for EXPLAIN output."""
    if estimate >= 100:
        return str(int(round(estimate)))
    return f"{round(estimate, 2):g}"


def _est(estimate: float) -> str:
    return f" est~{format_rows(estimate)} rows"


class ScanFilter:
    """What a node start tests on each candidate before binding it: its
    static inline map, then the WHERE equalities pushed into the scan
    (EXPLAIN's ``filter(...)``), in written order.  A pushed conjunct drops
    a candidate only when ``false``: on ``null`` the WHERE may still raise."""

    __slots__ = ("pushed", "_terms")

    def __init__(self, node: NodePattern, pushed: tuple = ()) -> None:
        self.pushed = tuple(conjunct for _, _, conjunct in pushed)
        terms = [(key, value, False) for key, value in node.properties]
        terms += [(key, value, True) for key, value, _ in pushed]
        self._terms = tuple(
            (key, value.name, lenient, None, None) if isinstance(value, Parameter)
            else (key, None, lenient, *_term_test(value.value, lenient))
            for key, value, lenient in terms
        )

    def bind(self, parameters: Mapping[str, Any]) -> Optional[list]:
        """``[(key, test, missing)]``, passed when ``test(properties.get(key, missing))``;
        None when a parameter is missing (the caller then raises per candidate)."""
        tests = []
        for key, name, lenient, test, missing in self._terms:
            if name is not None:
                if name not in parameters:
                    return None
                test, missing = _term_test(parameters[name], lenient)
            if test is not None:
                tests.append((key, test, missing))
        return tests


def _term_test(expected: Any, lenient: bool) -> tuple[Optional[Callable[[Any], bool]], Any]:
    """``(test, missing)`` for a map entry, or (``lenient``) a pushed conjunct,
    which keeps a candidate lacking the key by reading it as ``expected`` (the
    store holds no nulls); a pushed ``= null`` or NaN (not equal to itself) tests nothing."""
    test = value_test(expected)
    if not lenient:
        return test, None
    return (test, expected) if expected is not None and test(expected) else (None, None)


@dataclass(frozen=True)
class AccessPath:
    """The start operator of one pattern: how its candidate set is produced.

    One dataclass discriminated by ``kind`` rather than a subclass per
    operator, so plans stay cheap to build and trivially hashable; the
    ``describe()`` rendering is what gives each kind its EXPLAIN name.
    """

    kind: str
    #: Label of the index / virtual-label entry (seek kinds / ``virtual``).
    label: Optional[str] = None
    #: Indexed property (seek kinds only).
    property: Optional[str] = None
    #: Expression producing the looked-up value (``index``: the equality
    #: value; ``in``: the whole list expression; ``bound_rel``: the
    #: relationship variable).  A literal, a parameter, or a variable bound
    #: before the clause (or a property-access chain on one), so it never
    #: depends on the pattern's own variables.
    value: Optional[Expression] = None
    #: Candidate real labels for a ``label`` scan (the executor picks the
    #: most selective one at run time, so counts never go stale); a ``bound``
    #: start's are those the clause gives its variable.
    labels: tuple[str, ...] = ()
    #: Range bounds (``range`` only); ``None`` means unbounded on that side.
    lower: Optional[Expression] = None
    upper: Optional[Expression] = None
    include_lower: bool = False
    include_upper: bool = False
    #: Relationship type of a ``rel_index`` seek.
    rel_type: Optional[str] = None
    #: Direction of the seeked relationship pattern (``rel_index`` only).
    direction: str = "both"
    #: Properties and value expressions of a ``composite`` seek (aligned).
    properties: tuple[str, ...] = ()
    values: tuple[Expression, ...] = ()
    #: Sort direction of an ``ordered`` scan.
    descending: bool = False
    #: Planner cardinality estimate for this operator's output.
    estimated_rows: float = 0.0
    #: The candidate test of a node start (see :class:`ScanFilter`).
    filter: Optional[ScanFilter] = field(default=None, compare=False, repr=False)

    def reads(self) -> frozenset[str]:
        """Row variables the start's value expressions read.

        Empty for literal and parameter values.  Anything else makes the
        start's candidates depend on the input row, so a cache of the
        pattern's matches must key on these names too.
        """
        names: set[str] = set()
        for expr in (self.value, self.lower, self.upper, *self.values):
            if expr is not None:
                names.update(expression_variable_names(expr))
        return frozenset(names)

    def describe(self) -> str:
        """One-line human-readable rendering (used by EXPLAIN output)."""
        pushed = self.filter.pushed if self.filter is not None else ()
        pushed = " filter(" + " AND ".join(map(expression_text, pushed)) + ")" if pushed else ""
        estimate = "" if self.kind == VIRTUAL else _est(self.estimated_rows)
        return self._operator() + estimate + pushed

    def _operator(self) -> str:
        if self.kind == COMPOSITE:
            pairs = ", ".join(
                f"{prop} = {expression_text(value)}"
                for prop, value in zip(self.properties, self.values)
            )
            return f"CompositeIndexSeek({self.label}({pairs}))"
        if self.kind == ORDERED:
            order = "DESC" if self.descending else "ASC"
            return f"OrderedIndexScan({self.label}.{self.property} {order})"
        if self.kind == INDEX:
            return f"IndexSeek({self.label}.{self.property} = {expression_text(self.value)})"
        if self.kind == IN_LIST:
            return f"IndexSeek({self.label}.{self.property} IN {expression_text(self.value)})"
        if self.kind == RANGE:
            parts = []
            if self.lower is not None:
                op = ">=" if self.include_lower else ">"
                parts.append(
                    f"{self.label}.{self.property} {op} {expression_text(self.lower)}"
                )
            if self.upper is not None:
                op = "<=" if self.include_upper else "<"
                parts.append(
                    f"{self.label}.{self.property} {op} {expression_text(self.upper)}"
                )
            return "IndexRangeSeek(" + " AND ".join(parts) + ")"
        if self.kind == REL_INDEX:
            return f"RelIndexSeek({self.rel_type}.{self.property} = {expression_text(self.value)})"
        if self.kind == BOUND_REL:
            return f"BoundRelationship({expression_text(self.value)})"
        if self.kind == BOUND:
            return f"Bound({expression_text(self.value)})"
        if self.kind == VIRTUAL:
            return f"VirtualLabelScan({self.label})"
        if self.kind == LABEL:
            return "LabelScan(" + "|".join(self.labels) + ")"
        return "AllNodesScan"


@dataclass(frozen=True)
class Expand:
    """One relationship hop of a path pattern (EXPLAIN bookkeeping).

    The executor walks the pattern elements directly; this operator records
    the hop's shape and the planner's running cardinality estimate so
    EXPLAIN can show where a plan expects its rows to multiply.
    """

    types: tuple[str, ...] = ()
    direction: str = "both"
    min_hops: Optional[int] = None
    max_hops: Optional[int] = None
    target_labels: tuple[str, ...] = ()
    estimated_rows: float = 0.0

    @property
    def is_variable_length(self) -> bool:
        return self.min_hops is not None or self.max_hops is not None

    def describe(self) -> str:
        spec = ":" + "|".join(self.types) if self.types else ""
        if self.is_variable_length:
            low = self.min_hops if self.min_hops is not None else 1
            high = self.max_hops if self.max_hops is not None else ""
            spec += f"*{low}..{high}"
        left = "<-" if self.direction == "in" else "-"
        right = "->" if self.direction == "out" else "-"
        target = ":" + ":".join(self.target_labels) if self.target_labels else ""
        return f"Expand({left}[{spec}]{right}({target}))" + _est(self.estimated_rows)


def _hop_spec(types: tuple[str, ...], min_hops, max_hops, direction: str) -> str:
    """The ``-[:T*lo..hi]->`` fragment shared by the path operators."""
    spec = ":" + "|".join(types) if types else ""
    low = min_hops if min_hops is not None else 1
    high = max_hops if max_hops is not None else ""
    spec += f"*{low}..{high}"
    left = "<-" if direction == "in" else "-"
    right = "->" if direction == "out" else "-"
    return f"{left}[{spec}]{right}"


@dataclass(frozen=True)
class VarLengthExpand:
    """A variable-length hop of a path pattern (EXPLAIN bookkeeping).

    Like :class:`Expand` this is advisory: the executor walks the pattern
    elements directly, by iterative depth-first frontier expansion with
    relationship-uniqueness (EXPLAIN's ``dfs``).
    """

    types: tuple[str, ...] = ()
    direction: str = "both"
    min_hops: Optional[int] = None
    max_hops: Optional[int] = None
    target_labels: tuple[str, ...] = ()
    estimated_rows: float = 0.0

    def describe(self) -> str:
        spec = _hop_spec(self.types, self.min_hops, self.max_hops, self.direction)
        target = ":" + ":".join(self.target_labels) if self.target_labels else ""
        return f"VarLengthExpand({spec}({target}), dfs)" + _est(self.estimated_rows)


@dataclass(frozen=True)
class ShortestPath:
    """A ``shortestPath((a)-[:R*..k]-(b))`` pattern (EXPLAIN bookkeeping).

    The executor picks the search at run time: bidirectional BFS when both
    endpoints are already bound in the row, single-source BFS otherwise.
    Both compute the same pinned winner (fewest hops, then lexicographically
    smallest relationship-id tuple), so the choice is pure strategy.
    """

    types: tuple[str, ...] = ()
    direction: str = "both"
    min_hops: Optional[int] = None
    max_hops: Optional[int] = None
    source_labels: tuple[str, ...] = ()
    target_labels: tuple[str, ...] = ()
    estimated_rows: float = 0.0

    def describe(self) -> str:
        spec = _hop_spec(self.types, self.min_hops, self.max_hops, self.direction)
        source = ":" + ":".join(self.source_labels) if self.source_labels else ""
        target = ":" + ":".join(self.target_labels) if self.target_labels else ""
        return (
            f"ShortestPath(({source}){spec}({target}), bfs)"
            + _est(self.estimated_rows)
        )


@dataclass(frozen=True)
class Filter:
    """A WHERE predicate applied to every candidate row of a MATCH clause."""

    expression: Expression

    def describe(self) -> str:
        return f"Filter({expression_text(self.expression)})"


@dataclass(frozen=True)
class HashJoin:
    """Join a disconnected pattern group through a hash table.

    ``keys`` holds ``(probe, build)`` expression pairs extracted from the
    clause's WHERE equality conjuncts: ``build`` reads only the new
    pattern's variables, ``probe`` only previously bound ones.  The build
    side (``build_pattern`` indexes into the clause's patterns) is matched
    once, bucketed by its key values, and probed with each partial row —
    replacing the nested-loop cartesian whose cost is the *product* of the
    two sides.  Key matching is a pre-filter: the WHERE clause is still
    evaluated on every joined row, so hash collisions or Python-vs-Cypher
    equality differences can only cost time, never correctness.
    """

    build_pattern: int
    keys: tuple[tuple[Expression, Expression], ...]
    #: Variables shared with earlier patterns when this joins a *connected*
    #: pattern (empty for the classic disconnected WHERE-equality join).
    #: The build side is then matched unbound and keyed on these
    #: variables' item identities; the probe re-checks every binding.
    join_variables: tuple[str, ...] = ()
    estimated_rows: float = 0.0

    def describe(self) -> str:
        if self.join_variables:
            rendered = ", ".join(self.join_variables)
            return (
                f"HashJoin(pattern[{self.build_pattern}], shared: {rendered})"
                + _est(self.estimated_rows)
            )
        rendered = ", ".join(
            f"{expression_text(probe)} = {expression_text(build)}"
            for probe, build in self.keys
        )
        return (
            f"HashJoin(pattern[{self.build_pattern}], {rendered})"
            + _est(self.estimated_rows)
        )


@dataclass(frozen=True)
class CartesianProduct:
    """A keyless disconnected join: materialise the build side once.

    Chosen when no cross-group equality conjunct exists.  The joined row
    set is exactly the nested-loop cartesian's; only the re-matching work
    per partial row is saved.
    """

    build_pattern: int
    estimated_rows: float = 0.0

    def describe(self) -> str:
        return (
            f"CartesianProduct(pattern[{self.build_pattern}], materialized)"
            + _est(self.estimated_rows)
        )


@dataclass(frozen=True)
class TopK:
    """Heap-based streaming ORDER BY + LIMIT (+ SKIP).

    Keeps the ``skip + limit`` smallest rows (by the ORDER BY key, with
    input order as the tiebreaker — identical to a stable full sort
    followed by slicing) in a bounded heap while the input streams through,
    so an ORDER BY stops forcing a full materialise-and-sort whenever a
    LIMIT is present.
    """

    order_text: str
    limit: Expression
    skip: Optional[Expression] = None
    estimated_rows: float = 0.0

    def describe(self) -> str:
        skip_text = f" SKIP {expression_text(self.skip)}" if self.skip is not None else ""
        return (
            f"TopK(ORDER BY {self.order_text}{skip_text} "
            f"LIMIT {expression_text(self.limit)})" + _est(self.estimated_rows)
        )


@dataclass(frozen=True)
class Sort:
    """Full sort — ORDER BY without a LIMIT to bound the heap."""

    order_text: str

    def describe(self) -> str:
        return f"Sort(ORDER BY {self.order_text})"


@dataclass(frozen=True)
class Aggregate:
    """Grouped aggregation — inherently a pipeline breaker."""

    aggregate_text: str

    def describe(self) -> str:
        return f"Aggregate({self.aggregate_text})"


#: Operators that can appear in a pattern's physical chain.
PatternOperator = Union[AccessPath, Expand, VarLengthExpand, ShortestPath]
#: Operators that can join two pattern groups.
JoinOperator = Union[HashJoin, CartesianProduct]
#: Operators a WITH/RETURN projection can lower to.
ProjectionOperator = Union[TopK, Sort, Aggregate]


def physical_chain(
    start: AccessPath,
    elements,
    estimator,
    pattern=None,
    hop_cap: int = 15,
) -> tuple[tuple[PatternOperator, ...], float]:
    """Lower a pattern's element sequence into (start, Expand, …) operators.

    Returns the operator chain and the final cardinality estimate, walking
    the same arithmetic as
    :meth:`repro.graph.statistics.CardinalityEstimator.pattern_cardinality`
    but keeping the running estimate per hop so EXPLAIN can show it.
    Variable-length hops lower to :class:`VarLengthExpand`, a
    ``shortestPath`` pattern to a single :class:`ShortestPath` operator.

    For a ``rel_index`` or ``bound_rel`` start the start already binds the
    first relationship and both its endpoints, so the chain resumes after
    them.
    """
    if pattern is not None and getattr(pattern, "shortest", None) is not None:
        source, rel, target = elements
        estimate = start.estimated_rows
        if target.labels:
            estimate *= estimator.label_fraction(target.labels)
        return (
            (
                start,
                ShortestPath(
                    types=rel.types,
                    direction=rel.direction,
                    min_hops=rel.min_hops,
                    max_hops=rel.max_hops,
                    source_labels=source.labels,
                    target_labels=target.labels,
                    estimated_rows=estimate,
                ),
            ),
            estimate,
        )
    operators: list[PatternOperator] = [start]
    estimate = start.estimated_rows
    first_hop = 1
    if start.kind in (REL_INDEX, BOUND_REL):
        # elements[0]/[1]/[2] are bound by the start itself; account for the
        # endpoint label filters, then continue expanding from elements[3].
        for node in (elements[0], elements[2]):
            if node.labels:
                estimate *= estimator.label_fraction(node.labels)
        first_hop = 3
    for index in range(first_hop, len(elements) - 1, 2):
        rel = elements[index]
        node = elements[index + 1]
        assert isinstance(rel, RelationshipPattern)
        assert isinstance(node, NodePattern)
        if rel.is_variable_length:
            estimate *= estimator.variable_length_cardinality(
                rel.types, rel.min_hops, rel.max_hops, hop_cap=hop_cap
            )
            if node.labels:
                estimate *= estimator.label_fraction(node.labels)
            operators.append(
                VarLengthExpand(
                    types=rel.types,
                    direction=rel.direction,
                    min_hops=rel.min_hops,
                    max_hops=rel.max_hops,
                    target_labels=node.labels,
                    estimated_rows=estimate,
                )
            )
            continue
        labels = start.labels if start.kind == BOUND and index == 1 else ()
        factor = estimator.expansion_factor(rel.types, labels)  # from a bound start's label
        hops = rel.min_hops if rel.min_hops is not None else 1
        estimate *= factor ** max(int(hops), 1)
        if node.labels:
            estimate *= estimator.label_fraction(node.labels)
        operators.append(
            Expand(
                types=rel.types,
                direction=rel.direction,
                min_hops=rel.min_hops,
                max_hops=rel.max_hops,
                target_labels=node.labels,
                estimated_rows=estimate,
            )
        )
    return tuple(operators), estimate
