"""Index-aware query planning and the global parse+plan cache.

Until this module existed, every layer of the system paid the same two
costs on each query execution: the text was re-tokenised and re-parsed
(the trigger engine kept two ad-hoc per-trigger dicts; everything else
re-parsed every time), and MATCH always started from a label scan even
when a :class:`~repro.graph.indexes.PropertyIndex` could answer the
predicate directly.  Both costs dominate the trigger hot path, where a
handful of statements and conditions are executed thousands of times.

Two things live here:

* **The planner** — :func:`plan_query` lowers the clauses of a parsed
  query into the *physical operators* of :mod:`repro.cypher.physical`,
  choosing per path pattern the cheapest start operator:

  - ``IndexSeek`` — an equality probe into an exact-match or ordered
    property index, derived from inline property maps
    ``(n:Label {k: v})`` and from sargable ``WHERE n.k = v`` conjuncts,
    where ``v`` is a literal, a parameter, or a variable bound before the
    clause (or a property-access chain on one, ``row.station``) — or an
    IN-list probe from ``WHERE n.k IN [...]``;
  - ``IndexRangeSeek`` — a sorted-index range seek over an ordered
    (range) index, fed by sargable ``<``/``<=``/``>``/``>=`` conjuncts;
  - ``RelIndexSeek`` — an equality probe into a relationship-property
    index, matching the pattern outward from the seeked relationships;
  - ``BoundRelationship`` — the relationship the row already binds to the
    pattern's first hop (or, for a reversible pattern, its last hop),
    matched outward the same way;
  - ``VirtualLabelScan`` — a virtual-label id set (the trigger engine's
    transition variables such as ``NEWNODES``);
  - ``LabelScan`` — a label-index scan over the most selective label;
  - ``AllNodesScan`` — a full node scan.

  When the cheapest entry point is the *last* node of a path — or that
  node is already bound, by an earlier clause, an earlier join step or
  the statement's initial row, while the first is not — the planner
  re-orders the pattern start point by reversing the element sequence
  (flipping relationship directions), which preserves the produced
  bindings exactly.

  What is bound when a pattern runs is the planner's :class:`Scope`: the
  names bound, those certain to hold a live node, and those certain to
  hold a live relationship.  The executor derives the statement's
  initial scope from its initial rows (a trigger's ``NEW``/``OLD``, the
  batched tier's per-activation rows, ``bindings=``), and the planner
  advances it clause by clause.  The patterns of an ``EXISTS`` in a
  MATCH or WITH ``WHERE`` are planned against the scope after their
  clause, so a subquery like ``EXISTS { MATCH (:C)-[:R]-(s) }`` starts
  at the bound ``s``.

  On top of the per-pattern access paths, the planner performs
  **cost-based join ordering** for multi-pattern MATCH clauses
  (``MATCH (a:A), (b:B), …``): every pattern gets an estimated
  cardinality from :class:`~repro.graph.statistics.CardinalityEstimator`
  (label counts, index selectivity, relationship expansion factors), and
  the patterns are ordered greedily — cheapest/most-bound first, then
  always preferring patterns *connected* to an already-planned one over
  disconnected patterns, so cartesian products are deferred as far as
  possible.  When a disconnected pattern *must* be joined, the planner
  emits a :class:`~repro.cypher.physical.HashJoin` (keyed by cross-group
  WHERE equality conjuncts) or a materialised
  :class:`~repro.cypher.physical.CartesianProduct` instead of the
  nested-loop re-match.  The chosen :class:`JoinOrder` (with its steps
  and estimates) is part of the plan and shows up in ``EXPLAIN`` output.

  WITH/RETURN projections are lowered too: ORDER BY + LIMIT becomes a
  streaming :class:`~repro.cypher.physical.TopK`, ORDER BY alone a
  :class:`~repro.cypher.physical.Sort`, and aggregation an
  :class:`~repro.cypher.physical.Aggregate` breaker.

  Every operator choice — access path, join order, join strategy,
  projection mode — is advisory: the executor re-verifies labels and
  properties on each candidate (and the WHERE clause still runs), so a
  stale or wrong plan can only cost performance, never change results.

* **The plan cache** — :class:`PlanCache`, a module-level LRU shared by
  the executor, the trigger engine, the APOC/Memgraph emulation layers
  and the benchmark harness.  Parses are cached by query text; plans are
  cached by ``(text, graph identity, virtual-label names, scope)`` and checked
  against the graph's *index epoch* (bumped whenever a property index is
  created or dropped), so index DDL and virtual-label changes invalidate
  stale plans.  Plans store virtual-label *names* only — the id sets are
  resolved by each executor at run time, so cached plans never leak
  virtual-label state between executors.

``EXPLAIN``-style output is available through :func:`explain` or
:meth:`QueryPlan.plan_description`.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace as _dc_replace
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Union

from ..graph.statistics import (
    DEFAULT_SELECTIVITY,
    EQUALITY_SELECTIVITY,
    RANGE_SELECTIVITY,
    CardinalityEstimator,
)
from ..graph.store import _PLAN_TOKENS
from .ast import (
    BinaryOp,
    CallClause,
    CountStar,
    CreateClause,
    ExistsPattern,
    FunctionCall,
    Expression,
    ListLiteral,
    Literal,
    MatchClause,
    MergeClause,
    NodePattern,
    Parameter,
    PathPattern,
    PropertyAccess,
    Query,
    RelationshipPattern,
    ReturnClause,
    UnwindClause,
    Variable,
    WithClause,
    expression_text,
    expression_variable_names,
    walk_expression,
)
from .functions import is_aggregate_function
from .lexer import Token, tokenize
from .parser import parse_expression, parse_query
from .physical import (
    BOUND_REL,
    COMPOSITE,
    IN_LIST,
    INDEX,
    LABEL,
    ORDERED,
    RANGE,
    REL_INDEX,
    SCAN,
    VIRTUAL,
    AccessPath,
    Aggregate,
    CartesianProduct,
    Filter,
    HashJoin,
    PatternOperator,
    ProjectionOperator,
    Sort,
    TopK,
    format_rows,
    physical_chain,
)

_format_rows = format_rows


# ---------------------------------------------------------------------------
# plan data model
# ---------------------------------------------------------------------------


class Scope(NamedTuple):
    """What is already bound when a statement starts, as the planner sees it.

    ``bound`` holds the names present in every initial row; ``nodes`` those
    of them holding a live node in every row, ``relationships`` those
    holding a live relationship in every row.  Part of the plan-cache key:
    a different scope is a different plan.
    """

    bound: frozenset = frozenset()
    nodes: frozenset = frozenset()
    relationships: frozenset = frozenset()


#: The scope of a statement that starts from one empty row.
EMPTY_SCOPE = Scope()


@dataclass(frozen=True)
class PatternPlan:
    """Plan for one path pattern: physical operator chain and cardinality."""

    pattern: PathPattern
    elements: tuple[Union[NodePattern, RelationshipPattern], ...]
    start: AccessPath
    reversed: bool = False
    #: Estimated result rows of matching this pattern standalone.
    estimated_rows: float = 0.0
    #: The full physical chain: the start operator followed by one
    #: :class:`~repro.cypher.physical.Expand` per relationship hop.
    physical: tuple[PatternOperator, ...] = ()
    #: ``estimated_rows`` corrected by the selectivity of the WHERE
    #: conjuncts the access path did *not* consume (None when the WHERE
    #: adds nothing).  EXPLAIN surfaces both numbers; join ordering ranks
    #: patterns by this one.
    filtered_rows: Optional[float] = None

    def describe(self) -> str:
        start = self.elements[0]
        name = start.variable or "_"
        direction = " (reversed)" if self.reversed else ""
        chain = self.physical or (self.start,)
        rendered = " -> ".join(op.describe() for op in chain)
        where = ""
        if self.filtered_rows is not None:
            where = f" (~{_format_rows(self.filtered_rows)} rows after WHERE)"
        return f"start=({name}) {rendered}{direction}{where}"


@dataclass(frozen=True)
class JoinStep:
    """One step of a multi-pattern join: which pattern, joined how.

    ``operator`` is ``None`` for the first pattern and for patterns
    connected to the already-planned set (nested-loop expansion from bound
    variables); disconnected patterns carry the
    :class:`~repro.cypher.physical.HashJoin` or
    :class:`~repro.cypher.physical.CartesianProduct` the executor should
    join them with.
    """

    pattern_index: int
    operator: Optional[object] = None


@dataclass(frozen=True)
class JoinOrder:
    """Execution order for the patterns of one multi-pattern MATCH clause.

    ``order`` holds indexes into ``clause.patterns``; ``steps`` additionally
    records the join operator per position.  ``estimated_rows`` is the
    standalone estimate per pattern *in clause order* (so EXPLAIN can print
    both the chosen order and what each pattern was thought to cost).
    ``cartesian`` records that at least one step had to start a
    disconnected pattern (a cartesian product the clause itself forces).
    """

    clause: MatchClause
    order: tuple[int, ...]
    estimated_rows: tuple[float, ...]
    cartesian: bool = False
    steps: tuple[JoinStep, ...] = ()

    @property
    def reordered(self) -> bool:
        """True when the chosen order differs from clause order."""
        return self.order != tuple(range(len(self.order)))

    def describe(self) -> str:
        steps = ", ".join(
            f"pattern[{index}] est~{_format_rows(self.estimated_rows[index])}"
            for index in self.order
        )
        suffix = " cartesian" if self.cartesian else ""
        return f"JoinOrder({steps}){suffix}"


#: Projection execution modes, chosen statically per WITH/RETURN clause.
STREAM = "stream"
TOPK = "topk"
SORT = "sort"
AGGREGATE = "aggregate"
WILDCARD = "wildcard"


@dataclass(frozen=True)
class ProjectionPlan:
    """How one WITH/RETURN clause should execute.

    ``mode`` is one of :data:`STREAM` (row-at-a-time projection),
    :data:`TOPK` (heap-based ORDER BY + LIMIT), :data:`SORT` (full sort
    breaker), :data:`AGGREGATE` (grouping breaker) or :data:`WILDCARD`
    (``*`` needs the whole input to discover columns).  ``operator`` is the
    physical operator rendered by EXPLAIN for the non-trivial modes.
    """

    clause: Union[WithClause, ReturnClause]
    mode: str
    operator: Optional[ProjectionOperator] = None
    #: The clause's input arrives already ordered by its single ORDER BY
    #: key (an ``OrderedIndexScan`` start feeds it), so the executor may
    #: skip the sort/heap.  Advisory: the executor re-checks at run time
    #: that the ordered scan actually served the candidates.
    presorted: bool = False
    #: With ``presorted``, the executor may additionally stop pulling
    #: input once LIMIT rows are out — set only when every projection
    #: expression is evaluation-safe, so truncated rows cannot hide an
    #: error the full pipeline would have raised.
    early_exit: bool = False


class QueryPlan:
    """The physical plan of one parsed query against one graph."""

    __slots__ = (
        "query",
        "_by_pattern",
        "_clause_plans",
        "_exists_plans",
        "_by_clause",
        "_by_projection",
        "_lines",
        "has_join_orders",
        "has_projection_plans",
    )

    def __init__(
        self,
        query: Query,
        pattern_plans: Iterable[PatternPlan],
        join_orders: Iterable[JoinOrder] = (),
        projection_plans: Iterable[ProjectionPlan] = (),
        filters: Iterable[Filter] = (),
        exists_plans: Iterable[PatternPlan] = (),
    ) -> None:
        self.query = query
        self._by_pattern: dict[int, PatternPlan] = {}
        self._by_clause: dict[int, JoinOrder] = {}
        self._by_projection: dict[int, ProjectionPlan] = {}
        self._lines: list[str] = []
        self._clause_plans = list(pattern_plans)
        self._exists_plans = list(exists_plans)
        for plan in self._clause_plans:
            self._by_pattern[id(plan.pattern)] = plan
            self._lines.append(plan.describe())
        for plan in self._exists_plans:
            self._by_pattern[id(plan.pattern)] = plan
            self._lines.append("EXISTS " + plan.describe())
        for filter_op in filters:
            self._lines.append(filter_op.describe())
        for join_order in join_orders:
            self._by_clause[id(join_order.clause)] = join_order
            self._lines.append(join_order.describe())
            for step in join_order.steps:
                if step.operator is not None:
                    self._lines.append(step.operator.describe())
        for projection in projection_plans:
            self._by_projection[id(projection.clause)] = projection
            if projection.operator is not None:
                self._lines.append(projection.operator.describe())
        #: Cheap executor-side checks before the per-row clause lookups.
        self.has_join_orders = bool(self._by_clause)
        self.has_projection_plans = bool(self._by_projection)

    def for_pattern(self, pattern: PathPattern) -> Optional[PatternPlan]:
        """The plan for ``pattern``, or None when it was not planned."""
        plan = self._by_pattern.get(id(pattern))
        if plan is not None and plan.pattern is pattern:
            return plan
        return None

    def join_order_for(self, clause: MatchClause) -> Optional[JoinOrder]:
        """The join order chosen for ``clause`` (None for single patterns)."""
        join_order = self._by_clause.get(id(clause))
        if join_order is not None and join_order.clause is clause:
            return join_order
        return None

    def projection_for(
        self, clause: Union[WithClause, ReturnClause]
    ) -> Optional[ProjectionPlan]:
        """The projection plan for a WITH/RETURN clause (None if unplanned)."""
        projection = self._by_projection.get(id(clause))
        if projection is not None and projection.clause is clause:
            return projection
        return None

    def pattern_plans(self) -> list[PatternPlan]:
        """All MATCH/MERGE pattern plans, in clause order."""
        return list(self._clause_plans)

    def exists_plans(self) -> list[PatternPlan]:
        """The plans of EXISTS-subquery patterns in MATCH/WITH ``WHERE``s."""
        return list(self._exists_plans)

    def join_orders(self) -> list[JoinOrder]:
        """All multi-pattern join orders, in clause order."""
        return list(self._by_clause.values())

    def projection_plans(self) -> list[ProjectionPlan]:
        """All WITH/RETURN projection plans, in clause order."""
        return list(self._by_projection.values())

    def uses_index(self) -> bool:
        """True when any pattern starts from a property-index seek."""
        return any(
            p.start.kind in (INDEX, IN_LIST, RANGE, REL_INDEX, COMPOSITE)
            for p in self._by_pattern.values()
        )

    def plan_description(self) -> str:
        """EXPLAIN-style description: one line per physical operator group."""
        if not self._lines:
            return "(no MATCH patterns to plan)"
        return "\n".join(self._lines)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Indexes:
    """The graph's index metadata, captured once per planning run.

    ``equality`` pairs can answer ``IndexSeek``/IN probes (the exact-match
    *and* the ordered index both can); ``range`` pairs can answer
    ``IndexRangeSeek``; ``relationship`` pairs can answer
    ``RelIndexSeek``; ``composite`` (label, properties-tuple) entries can
    answer ``CompositeIndexSeek``.
    """

    equality: frozenset
    range: frozenset
    relationship: frozenset
    composite: tuple = ()


def _graph_indexes(graph) -> _Indexes:
    exact = frozenset(graph.property_indexes())
    ranged = frozenset(_call_metadata(graph, "range_indexes"))
    rel = frozenset(_call_metadata(graph, "relationship_property_indexes"))
    composite = tuple(
        (label, tuple(props))
        for label, props in _call_metadata(graph, "composite_indexes")
    )
    return _Indexes(
        equality=exact | ranged, range=ranged, relationship=rel, composite=composite
    )


def _call_metadata(graph, method: str) -> Iterable:
    """Index metadata from ``graph``, tolerating reduced graph fakes."""
    candidate = getattr(graph, method, None)
    if candidate is None:
        return ()
    return candidate()


def plan_query(
    query: Query,
    graph,
    virtual_labels: Iterable[str] = (),
    scope: Scope = EMPTY_SCOPE,
) -> QueryPlan:
    """Lower every clause of ``query`` into physical operators.

    ``graph`` only needs the index-metadata surface of
    :class:`~repro.graph.store.PropertyGraph` (``property_indexes()``,
    ``count_nodes_with_label()``, ``node_count()``); richer surfaces
    (``range_indexes()``, ``relationship_property_indexes()``,
    ``property_index_selectivity()``, …) unlock more operators and sharpen
    the cardinality estimates when present.  ``scope`` is what the
    statement's initial rows already bind (see :class:`Scope`).
    """
    virtual = frozenset(virtual_labels)
    indexes = _graph_indexes(graph)
    estimator = CardinalityEstimator(graph)
    plans: list[PatternPlan] = []
    exists_plans: list[PatternPlan] = []
    join_orders: list[JoinOrder] = []
    projections: list[ProjectionPlan] = []
    filters: list[Filter] = []
    bound = set(scope.bound)
    nodes = set(scope.nodes)
    rels = set(scope.relationships)
    for clause in query.clauses:
        if isinstance(clause, MatchClause):
            sargable = _sargable_predicates(clause.where, bound)
            # A pattern reading a variable that nothing before it binds
            # (``(e:B {v: a.v})`` with ``a`` from a sibling) raises when
            # reached — and whether it is *reached* depends on how many
            # rows its siblings produce.  Index seeks pre-filter exactly
            # those rows, so a clause containing such a pattern must run
            # entirely unseeked (label/virtual scans only) to raise — or
            # not raise — exactly like the unplanned executor.  The same
            # hazard already declines join reordering below.  So does an
            # inline value a seek could skip evaluating (see
            # :func:`_seek_may_hide_errors`).
            external = [
                _pattern_has_external_reads(pattern, bound)
                or _seek_may_hide_errors(pattern, sargable)
                for pattern in clause.patterns
            ]
            if any(external):
                sargable = _SargablePredicates()

            def plan_at(index: int, bound: set[str], nodes: set[str]) -> PatternPlan:
                plan = _plan_pattern(
                    clause.patterns[index], sargable, graph, virtual, indexes, estimator,
                    not any(external), bound, nodes, rels,
                )
                return plan if clause.where is None else _with_filtered_rows(plan, clause.where)

            clause_plans = [plan_at(i, bound, nodes) for i in range(len(clause.patterns))]
            if clause.where is not None:
                filters.append(Filter(expression=clause.where))
            if len(clause_plans) > 1:
                join_order = _order_patterns(clause, clause_plans, bound, nodes, plan_at)
                if join_order is not None:
                    join_orders.append(join_order)
            plans.extend(clause_plans)
        elif isinstance(clause, MergeClause):
            # MERGE's match phase benefits from the same start-point choice;
            # only inline property maps are sargable here (no WHERE).
            plans.append(
                _plan_pattern(
                    clause.pattern, _SargablePredicates(outer=frozenset(bound)),
                    graph, virtual, indexes, estimator,
                )
            )
        elif isinstance(clause, (WithClause, ReturnClause)):
            projections.append(_plan_projection(clause))
        bound, nodes, rels = _advance_bound_variables(clause, bound, nodes, rels)
        if isinstance(clause, (MatchClause, WithClause)) and clause.where is not None:
            exists_plans.extend(
                _plan_exists(
                    clause.where, graph, virtual, indexes, estimator, bound, nodes, rels
                )
            )
    plans, projections = _apply_ordered_scan(
        query, graph, virtual, indexes, plans, projections
    )
    return QueryPlan(query, plans, join_orders, projections, filters, exists_plans)


def _plan_exists(
    where: Expression,
    graph,
    virtual: frozenset,
    indexes: _Indexes,
    estimator: CardinalityEstimator,
    bound: set[str],
    nodes: set[str],
    rels: set[str],
) -> list[PatternPlan]:
    """Plans for the patterns of every EXISTS in a clause's ``WHERE``.

    The WHERE runs on the clause's output rows, so the patterns are planned
    against the scope *after* the clause.  They run in written order (the
    executor nests them), so each pattern also sees the variables of the
    ones before it.  As in MATCH, one pattern reading a variable that
    nothing before it binds makes the whole subquery unseeked.  An EXISTS
    nested in another's WHERE is planned against the same outer scope,
    which only under-approximates what it sees.
    """
    plans: list[PatternPlan] = []
    for exists in walk_expression(where):
        if not isinstance(exists, ExistsPattern):
            continue
        sargable = _sargable_predicates(exists.where, bound)
        available = set(bound)
        external = False
        for pattern in exists.patterns:
            external = (
                external
                or _pattern_has_external_reads(pattern, available)
                or _seek_may_hide_errors(pattern, sargable)
            )
            available |= _pattern_variable_names(pattern)
        if external:
            sargable = _SargablePredicates()
        seen, anchors = set(bound), set(nodes)
        for pattern in exists.patterns:
            plans.append(
                _plan_pattern(
                    pattern, sargable, graph, virtual, indexes, estimator,
                    not external, seen, anchors, rels,
                )
            )
            anchors |= _node_variable_names(pattern) - seen
            seen |= _pattern_variable_names(pattern)
    return plans


def explain(text: str, graph, virtual_labels: Iterable[str] = ()) -> str:
    """Parse, plan and describe ``text`` against ``graph`` (EXPLAIN)."""
    query, plan = PLAN_CACHE.get(text, graph, frozenset(virtual_labels))
    del query
    return plan.plan_description()


def _plan_pattern(
    pattern: PathPattern,
    sargable: "_SargablePredicates",
    graph,
    virtual: frozenset,
    indexes: _Indexes,
    estimator: CardinalityEstimator,
    allow_index: bool = True,
    bound: Collection[str] = frozenset(),
    nodes: Collection[str] = frozenset(),
    rels: Collection[str] = frozenset(),
) -> PatternPlan:
    if not allow_index:
        # Scans-only planning for clauses with evaluation-order-dependent
        # patterns: even *inline literal* seeks are unsafe there, because a
        # live scan evaluates the raising property map per candidate while
        # a seek could leave it zero candidates to raise on.
        indexes = _Indexes(equality=frozenset(), range=frozenset(), relationship=frozenset())
        sargable = _SargablePredicates()
    first = pattern.elements[0]
    assert isinstance(first, NodePattern)
    first_path = _access_path(first, sargable, graph, virtual, indexes, estimator)
    # Reversing changes the order nodes/relationships are appended to a
    # bound path variable and to a variable-length relationship's hop
    # list, so only anonymous, fixed-length paths are eligible; and since
    # it also changes the order in which element property maps are
    # evaluated, every property value must be static (a literal or
    # parameter) — an expression like ``{w: a.prop}`` may reference a
    # variable the forward traversal binds first.
    can_reverse = (
        len(pattern.elements) > 2
        and pattern.variable is None
        and not any(
            isinstance(element, RelationshipPattern) and element.is_variable_length
            for element in pattern.elements
        )
        and _pattern_properties_static(pattern)
    )
    chosen_elements = pattern.elements
    chosen_path = first_path
    is_reversed = False
    if can_reverse:
        last = pattern.elements[-1]
        assert isinstance(last, NodePattern)
        last_path = _access_path(last, sargable, graph, virtual, indexes, estimator)
        # One end bound to a node (see _advance_bound_variables) and the
        # other unbound: start at the bound end, a single candidate.
        anchor_first = first.variable in nodes and last.variable not in bound
        anchor_last = last.variable in nodes and first.variable not in bound
        if anchor_last or (
            not anchor_first and last_path.estimated_rows < first_path.estimated_rows
        ):
            chosen_elements = _reverse_elements(pattern.elements)
            chosen_path = last_path
            is_reversed = True
    # A relationship-property seek competes with both node-anchored starts.
    # It matches in the *written* orientation (the seeked relationship binds
    # elements[0..2] directly), so choosing it discards any reversal.  A
    # shortestPath pattern is excluded: its search is anchored at the source
    # node, so a relationship-first start has nothing to resume from.
    rel_path = None
    if pattern.shortest is None:
        rel_path = _rel_seek_path(pattern, sargable, virtual, indexes, estimator)
    if rel_path is not None and rel_path.estimated_rows < chosen_path.estimated_rows:
        chosen_elements = pattern.elements
        chosen_path = rel_path
        is_reversed = False
    # A first hop the row already binds to a relationship is one candidate
    # that pins three elements at once: nothing starts cheaper.  Like a
    # seek it narrows which candidates evaluate the element property maps,
    # so the scans-only planning above rules it out too.
    if allow_index and rels and pattern.shortest is None:
        anchored = _bound_relationship_start(pattern, rels, can_reverse)
        if anchored is not None:
            chosen_elements, chosen_path, is_reversed = anchored
    physical, estimated = physical_chain(
        chosen_path,
        chosen_elements,
        estimator,
        pattern=pattern,
        graph=graph,
        virtual_labels=virtual,
    )
    return PatternPlan(
        pattern=pattern,
        elements=chosen_elements,
        start=chosen_path,
        reversed=is_reversed,
        estimated_rows=estimated,
        physical=physical,
    )


def _bound_relationship_start(
    pattern: PathPattern, rels: Collection[str], can_reverse: bool
) -> Optional[tuple[tuple, AccessPath, bool]]:
    """``(elements, BoundRelationship start, reversed)`` when the pattern's
    first hop — or, for a reversible pattern, its last — is a fixed-length
    relationship variable the row binds to a live relationship."""
    elements = pattern.elements
    if len(elements) < 3:
        return None
    for hop, is_reversed in ((elements[1], False), (elements[-2], True)):
        assert isinstance(hop, RelationshipPattern)
        if is_reversed and not can_reverse:
            break
        if hop.variable in rels and not hop.is_variable_length:
            chosen = _reverse_elements(elements) if is_reversed else elements
            start = AccessPath(
                kind=BOUND_REL,
                value=Variable(name=hop.variable),
                direction=chosen[1].direction,
                estimated_rows=1.0,
            )
            return chosen, start, is_reversed
    return None


def _access_path(
    node_pattern: NodePattern,
    sargable: "_SargablePredicates",
    graph,
    virtual: frozenset,
    indexes: _Indexes,
    estimator: CardinalityEstimator,
) -> AccessPath:
    """Best start operator for one node pattern (with its cost estimate)."""
    # Virtual labels mirror the executor's existing precedence: they are
    # typically tiny transition-variable sets, so they come first.
    for label in node_pattern.labels:
        if label in virtual:
            return AccessPath(kind=VIRTUAL, label=label, estimated_rows=0.0)

    real_labels = tuple(l for l in node_pattern.labels if l not in virtual)
    equalities = _equality_candidates(node_pattern, sargable)
    seeks: list[AccessPath] = []
    # A declared composite index whose every property is pinned by an
    # equality candidate competes with the single-property seek on
    # estimated rows (its combined selectivity is at most as wide).
    if indexes.composite and equalities:
        by_prop: dict[str, Expression] = {}
        for prop, value in equalities:
            by_prop.setdefault(prop, value)
        for label, props in indexes.composite:
            if label not in real_labels or not all(p in by_prop for p in props):
                continue
            rows = estimator.composite_rows(label, props)
            seeks.append(
                AccessPath(
                    kind=COMPOSITE,
                    label=label,
                    properties=props,
                    values=tuple(by_prop[p] for p in props),
                    estimated_rows=rows if rows is not None else 1.0,
                )
            )
    single = next(
        (
            AccessPath(
                kind=INDEX,
                label=label,
                property=prop,
                value=value,
                estimated_rows=estimator.index_selectivity(label, prop),
            )
            for label in real_labels
            for prop, value in equalities
            if (label, prop) in indexes.equality
        ),
        None,
    )
    if single is not None:
        seeks.append(single)
    if seeks:
        # min() is stable, so a composite that ties its single-property
        # rival wins by sitting first (it can only be narrower).
        return min(seeks, key=lambda path: path.estimated_rows)

    # No equality seek: weigh IN-list and range seeks against the scans.
    options: list[AccessPath] = []
    variable = node_pattern.variable
    if variable is not None:
        for label in real_labels:
            for prop, list_expr, count in sargable.in_lists.get(variable, ()):
                if (label, prop) in indexes.equality:
                    options.append(
                        AccessPath(
                            kind=IN_LIST,
                            label=label,
                            property=prop,
                            value=list_expr,
                            estimated_rows=estimator.in_list_rows(label, prop, count),
                        )
                    )
        ranges = sargable.ranges.get(variable, {})
        for label in real_labels:
            for prop, bounds in ranges.items():
                if (label, prop) in indexes.range:
                    lower, include_lower = bounds.lower or (None, False)
                    upper, include_upper = bounds.upper or (None, False)
                    options.append(
                        AccessPath(
                            kind=RANGE,
                            label=label,
                            property=prop,
                            lower=lower,
                            upper=upper,
                            include_lower=include_lower,
                            include_upper=include_upper,
                            # Literal bounds flow into the estimator so the
                            # index-bounds clamp and the histogram can see
                            # them; parameter bounds stay opaque (None).
                            estimated_rows=estimator.range_scan_rows(
                                label,
                                prop,
                                lower=_literal_value(lower),
                                upper=_literal_value(upper),
                                include_lower=include_lower,
                                include_upper=include_upper,
                            ),
                        )
                    )

    if real_labels:
        cost = min(graph.count_nodes_with_label(l) for l in real_labels)
        options.append(
            AccessPath(kind=LABEL, labels=real_labels, estimated_rows=float(max(cost, 1)))
        )
    else:
        options.append(
            AccessPath(kind=SCAN, estimated_rows=float(max(graph.node_count(), 2)))
        )
    return min(options, key=lambda path: path.estimated_rows)


def _rel_seek_path(
    pattern: PathPattern,
    sargable: "_SargablePredicates",
    virtual: frozenset,
    indexes: _Indexes,
    estimator: CardinalityEstimator,
) -> Optional[AccessPath]:
    """A ``RelIndexSeek`` start for the pattern's first relationship, if any.

    Eligible when the first hop is a plain single-type relationship whose
    type carries a declared (type, property) index and whose inline
    property map — or a sargable WHERE conjunct on its variable — pins
    that property to a literal/parameter value.
    """
    if len(pattern.elements) < 3 or not indexes.relationship:
        return None
    rel = pattern.elements[1]
    assert isinstance(rel, RelationshipPattern)
    if rel.is_variable_length or len(rel.types) != 1 or rel.types[0] in virtual:
        return None
    rel_type = rel.types[0]
    candidates: list[tuple[str, Expression]] = [
        (prop, value)
        for prop, value in rel.properties
        if isinstance(value, (Literal, Parameter)) and _literal_not_null(value)
    ]
    if rel.variable is not None:
        candidates.extend(sargable.equalities.get(rel.variable, ()))
    for prop, value in candidates:
        if (rel_type, prop) in indexes.relationship:
            return AccessPath(
                kind=REL_INDEX,
                rel_type=rel_type,
                property=prop,
                value=value,
                direction=rel.direction,
                estimated_rows=estimator.relationship_index_selectivity(rel_type, prop),
            )
    return None


def _literal_not_null(expr: Expression) -> bool:
    """False only for a literal ``null`` (which matches *missing* inline)."""
    return not (isinstance(expr, Literal) and expr.value is None)


def _literal_value(expr: Optional[Expression]):
    """The plan-time-known value of a bound expression (None if opaque)."""
    return expr.value if isinstance(expr, Literal) else None


# ---------------------------------------------------------------------------
# multi-pattern join ordering
# ---------------------------------------------------------------------------


def _order_patterns(
    clause: MatchClause,
    clause_plans: list[PatternPlan],
    bound_before: set[str],
    nodes_before: set[str],
    plan_at: Callable[[int, set[str], set[str]], PatternPlan],
) -> Optional[JoinOrder]:
    """Greedy cost-based ordering for the patterns of one MATCH clause.

    Start from the cheapest pattern (a pattern whose start variable is
    already bound by an earlier clause is near-free); afterwards always
    prefer patterns sharing a variable with what is planned so far —
    their nested-loop cost starts from bound values — and only fall back
    to a disconnected (cartesian) pattern when nothing connects.  Ties
    break towards clause order, so equal-cost plans keep the author's
    layout.  The order is advisory: patterns of one MATCH clause are a
    commutative conjunction, so any order produces the same row *set*.

    Exception: a pattern whose inline property map *reads* a variable
    that neither an earlier clause nor a *preceding element of the same
    pattern* binds (``(b:B {x: a.y})``, or ``(b:B {y: a.z})-[:R]->(a)``
    where ``a`` comes from a sibling pattern) is evaluation-order
    dependent — running it before the sibling binding the variable would
    raise instead of producing the same rows, and whether it is reached
    at all can depend on its clause position.  Such clauses are declined
    (returns None) and keep their written order.

    A nested-loop step whose other end is bound to a node by now is
    re-planned by ``plan_at``, in ``clause_plans``, to start there.
    """
    for plan in clause_plans:
        if _pattern_has_external_reads(plan.pattern, bound_before):
            return None
    variables = [_pattern_variable_names(plan.pattern) for plan in clause_plans]
    # Rank (and report) by the WHERE-corrected estimate where one exists:
    # a pattern whose rows the WHERE decimates should be joined early.
    estimates = tuple(
        plan.filtered_rows if plan.filtered_rows is not None else plan.estimated_rows
        for plan in clause_plans
    )
    bound = set(bound_before)
    nodes = set(nodes_before)
    remaining = list(range(len(clause_plans)))
    order: list[int] = []
    steps: list[JoinStep] = []
    cartesian = False
    prior_rows = 1.0

    def effective_cost(index: int) -> float:
        start_variable = clause_plans[index].elements[0].variable
        if start_variable is not None and start_variable in bound:
            return 1.0
        return estimates[index]

    while remaining:
        connected = [i for i in remaining if variables[i] & bound]
        pool = connected or remaining
        disconnected_step = bool(order) and not connected
        if disconnected_step:
            cartesian = True
        best = min(pool, key=lambda i: (effective_cost(i), i))
        operator = None
        if disconnected_step:
            # The new pattern shares no variable with anything planned so
            # far: instead of re-matching it per partial row (a nested-loop
            # cartesian), materialise it once — keyed by cross-group WHERE
            # equality conjuncts when any exist (a real hash join), in a
            # single bucket otherwise.
            keys = _hash_join_keys(clause.where, variables[best], bound)
            if keys:
                operator = HashJoin(
                    build_pattern=best,
                    keys=keys,
                    estimated_rows=estimates[best],
                )
            else:
                operator = CartesianProduct(
                    build_pattern=best, estimated_rows=estimates[best]
                )
        elif order:
            operator = _connected_hash_join(
                clause_plans[best], best, variables[best] & bound,
                prior_rows, estimates[best],
            )
            elements = clause_plans[best].elements
            if (
                operator is None
                and elements[0].variable not in bound
                and elements[-1].variable in nodes
            ):
                clause_plans[best] = plan_at(best, bound, nodes)
        step_cost = max(effective_cost(best), 1.0)  # before bound absorbs it
        order.append(best)
        steps.append(JoinStep(pattern_index=best, operator=operator))
        nodes |= _node_variable_names(clause.patterns[best]) - bound
        bound |= variables[best]
        remaining.remove(best)
        prior_rows = min(prior_rows * step_cost, 1e12)
    return JoinOrder(
        clause=clause,
        order=tuple(order),
        estimated_rows=estimates,
        cartesian=cartesian,
        steps=tuple(steps),
    )


def _hash_join_keys(
    where: Optional[Expression],
    build_variables: set[str],
    bound_variables: set[str],
) -> tuple[tuple[Expression, Expression], ...]:
    """(probe, build) key pairs joining a disconnected pattern to the rest.

    A usable key is a top-level WHERE equality conjunct with one side
    reading only the new pattern's variables (the build key) and the other
    reading only variables bound by earlier steps or clauses (the probe
    key).  Keys are a pre-filter — the executor still evaluates the full
    WHERE per joined row and falls back to scanning the whole build table
    whenever a key fails to evaluate — so a wrong classification here can
    only cost performance.
    """
    if where is None:
        return ()
    keys: list[tuple[Expression, Expression]] = []
    for conjunct in _conjuncts(where):
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            continue
        left_names = expression_variable_names(conjunct.left)
        right_names = expression_variable_names(conjunct.right)
        if not left_names or not right_names:
            continue
        if left_names <= build_variables and not (right_names & build_variables) and (
            right_names <= bound_variables
        ):
            keys.append((conjunct.right, conjunct.left))
        elif right_names <= build_variables and not (left_names & build_variables) and (
            left_names <= bound_variables
        ):
            keys.append((conjunct.left, conjunct.right))
    return tuple(keys)


def _connected_hash_join(
    plan: PatternPlan,
    index: int,
    shared: set[str],
    prior_rows: float,
    estimated_rows: float,
) -> Optional[HashJoin]:
    """A hash join for a *connected* pattern whose expansion looks poor.

    A connected pattern normally runs as a nested loop resuming from its
    bound variables; when many prior rows would each re-match a pattern
    whose start anchor is *not* among the shared variables, matching the
    pattern once (unbound) and probing the materialised rows by the shared
    node variables is cheaper.  Eligibility mirrors the executor's runtime
    guard: only node *element* variables may join (path and relationship
    variables have positional binding semantics a key cannot express), the
    property maps must be static and the start must seek on no row value
    (``WHERE c.v = k``), so the unbound build reads no row state, and
    shortestPath is excluded (its search is anchored per source row).
    The executor falls back to the nested loop for any probe row that does
    not bind every join variable to a node — so a wrong choice here can
    only cost performance, never rows.
    """
    if plan.pattern.shortest is not None:
        return None
    if not shared or not shared <= _node_variable_names(plan.pattern):
        return None
    if plan.elements[0].variable in shared:
        return None  # the nested loop starts bound — already near-free
    if not _pattern_properties_static(plan.pattern) or plan.start.reads():
        return None
    build_cost = plan.estimated_rows
    if prior_rows * build_cost <= 2.0 * (build_cost + prior_rows):
        return None  # nested loop is no worse than build + probe
    key_variables = tuple(sorted(shared))
    keys = tuple((Variable(name=v), Variable(name=v)) for v in key_variables)
    return HashJoin(
        build_pattern=index,
        keys=keys,
        join_variables=key_variables,
        estimated_rows=estimated_rows,
    )


def _with_filtered_rows(plan: PatternPlan, where: Expression) -> PatternPlan:
    """Correct a pattern's estimate by the WHERE conjuncts it re-filters.

    The access path already consumed the sargable conjunct that seeded it;
    every *other* conjunct reading only this pattern's variables still runs
    per candidate row, so the rows surviving the clause filter are fewer
    than the match estimate.  EXPLAIN surfaces both numbers and join
    ordering ranks by the corrected one.  Purely advisory — estimates
    steer plans, never results.
    """
    names = _pattern_variable_names(plan.pattern)
    selectivity = 1.0
    for conjunct in _conjuncts(where):
        used = expression_variable_names(conjunct)
        if not used or not used <= names:
            continue  # cross-pattern or constant conjunct: not this pattern's
        if _start_consumes(conjunct, plan):
            continue
        selectivity *= _conjunct_selectivity(conjunct)
    if selectivity >= 1.0:
        return plan
    return _dc_replace(plan, filtered_rows=plan.estimated_rows * selectivity)


def _conjunct_selectivity(conjunct: Expression) -> float:
    """Heuristic fraction of rows one non-consumed WHERE conjunct keeps."""
    if isinstance(conjunct, BinaryOp):
        if conjunct.op == "=":
            return EQUALITY_SELECTIVITY
        if conjunct.op in _RANGE_OPS:
            return RANGE_SELECTIVITY
        if conjunct.op == "IN" and isinstance(conjunct.right, ListLiteral):
            return min(len(conjunct.right.items) * EQUALITY_SELECTIVITY, 1.0)
    return DEFAULT_SELECTIVITY


def _start_consumes(conjunct: Expression, plan: PatternPlan) -> bool:
    """Did the plan's access path already narrow candidates by this conjunct?

    Counting a consumed conjunct again would double-discount: an
    ``IndexSeek`` on ``n.k = 1`` already *is* the equality's selectivity.
    Matching is shape-based (same variable, same property, compatible
    operator); over-matching merely under-corrects the estimate.
    """
    start = plan.start
    if start.kind in (INDEX, COMPOSITE, RANGE, IN_LIST):
        anchor = plan.elements[0].variable
        if anchor is None or not isinstance(conjunct, BinaryOp):
            return False
        props = start.properties if start.kind == COMPOSITE else (start.property,)
        if start.kind in (INDEX, COMPOSITE):
            ops: tuple[str, ...] = ("=",)
        elif start.kind == RANGE:
            ops = tuple(_RANGE_OPS)
        else:
            ops = ("IN",)
        if conjunct.op not in ops:
            return False
        sides = (
            (conjunct.left,)
            if conjunct.op == "IN"
            else (conjunct.left, conjunct.right)
        )
        return any(
            _is_sargable_access(side)
            and side.subject.name == anchor
            and side.key in props
            for side in sides
        )
    if start.kind == REL_INDEX and len(plan.elements) > 1:
        rel_anchor = plan.elements[1].variable
        if rel_anchor is None:
            return False
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return False
        return any(
            _is_sargable_access(side)
            and side.subject.name == rel_anchor
            and side.key == start.property
            for side in (conjunct.left, conjunct.right)
        )
    return False


def _pattern_variable_names(pattern: PathPattern) -> set[str]:
    """Variables a pattern binds or references (connectivity for ordering)."""
    names = {element.variable for element in pattern.elements if element.variable}
    if pattern.variable is not None:
        names.add(pattern.variable)
    return names


def _pattern_has_external_reads(pattern: PathPattern, bound_before: set[str]) -> bool:
    """Does any element property map read a variable the pattern has not
    bound by that point?

    Matching proceeds element by element (reversal is blocked for
    patterns with non-static property maps), so a property expression may
    only rely on variables from earlier clauses (``bound_before``) or
    from *preceding* elements of the same pattern.  Anything else — a
    sibling pattern's variable, a forward reference, an element's own
    variable — makes the pattern's behaviour depend on evaluation order.
    """
    available = set(bound_before)
    for element in pattern.elements:
        for _, expr in element.properties:
            if expression_variable_names(expr) - available:
                return True
        if element.variable is not None:
            available.add(element.variable)
    return False


def _seek_may_hide_errors(pattern: PathPattern, sargable: "_SargablePredicates") -> bool:
    """Could a seek skip a candidate on which the scan raises?

    The scan evaluates an element's whole inline map on every candidate,
    so a value that is neither a literal nor a parameter (``{z: 1/0, id:
    1}``) may raise on a candidate that a seek on another property, inline
    or from the WHERE, never visits.  Only a map of that one value, with
    no WHERE seek on its element, stays seekable: a seek on it evaluates
    the very value, and falls back to the scan when it raises.
    """
    for element in pattern.elements:
        if all(isinstance(expr, (Literal, Parameter)) for _, expr in element.properties):
            continue
        if len(element.properties) > 1 or element.variable in (
            sargable.equalities.keys() | sargable.ranges.keys() | sargable.in_lists.keys()
        ):
            return True
    return False


def _advance_bound_variables(
    clause, bound: set[str], nodes: set[str], rels: set[str]
) -> tuple[set[str], set[str], set[str]]:
    """Variables visible after ``clause``; those of them certain to hold an
    existing node or null; those certain to hold an existing relationship
    or null — given all three sets before it.

    The first set informs join ordering (a bound start variable makes a
    pattern near-free) and which values may feed a seek; reading a name
    that turns out unbound only makes the seek fall back to a scan.  The
    second lets a pattern start from its bound end (:func:`_plan_pattern`),
    so it never over-approximates: a start at a non-node raises, and one
    at a deleted node cannot expand, where the written start filtered.
    Only MATCH adds to it, the node variables it binds first (a name bound
    earlier keeps its value through OPTIONAL MATCH padding); WITH keeps
    those it passes on unchanged; any other clause clears it.  The third,
    seeded only by the initial rows, lets a pattern start at its bound
    first hop; MATCH and WITH keep it as they keep the second.
    """
    if isinstance(clause, (MatchClause, CreateClause)):
        out = set(bound)
        for pattern in clause.patterns:
            out |= _pattern_variable_names(pattern)
        if isinstance(clause, CreateClause):
            return out, set(), set()
        names = {name for pattern in clause.patterns for name in _node_variable_names(pattern)}
        return out, nodes | (names - bound), rels
    if isinstance(clause, MergeClause):
        return bound | _pattern_variable_names(clause.pattern), set(), set()
    if isinstance(clause, UnwindClause):
        return bound | {clause.variable}, set(), set()
    if isinstance(clause, CallClause):
        return bound | {alias for _, alias in clause.yield_items}, set(), set()
    if isinstance(clause, (WithClause, ReturnClause)):
        names = {item.output_name() for item in clause.items}
        kept = {
            item.output_name()
            for item in clause.items
            if isinstance(item.expression, Variable) and item.expression.name == item.output_name()
        }
        if clause.include_wildcard:
            kept |= bound - names
            return bound | names, nodes & kept, rels & kept
        # A projecting WITH narrows scope to exactly its output names.
        return names, nodes & kept, rels & kept
    return bound, set(), set()


def _node_variable_names(pattern: PathPattern) -> set[str]:
    """Variables of the pattern's node elements."""
    return {
        element.variable
        for element in pattern.elements
        if isinstance(element, NodePattern) and element.variable
    }


def _seek_value(expr: Expression, outer: Collection[str]) -> bool:
    """Can ``expr`` feed an equality seek, given the names bound before
    the clause?

    A literal, a parameter, a variable in ``outer``, or a property-access
    chain on one of those (``row.station``, ``NEW.zone``).  A variable a
    sibling pattern of the same clause binds does not qualify: the join
    order may run this pattern first.  Evaluating the value may still
    fail at run time (``row.k`` on an integer); the executor then scans.
    """
    while isinstance(expr, PropertyAccess):
        expr = expr.subject
    if isinstance(expr, Variable):
        return expr.name in outer
    return isinstance(expr, (Literal, Parameter))


def _pattern_properties_static(pattern: PathPattern) -> bool:
    """True when no element property value can depend on pattern variables."""
    return all(
        isinstance(expr, (Literal, Parameter))
        for element in pattern.elements
        for _, expr in element.properties
    )


def _equality_candidates(
    node_pattern: NodePattern,
    sargable: "_SargablePredicates",
) -> list[tuple[str, Expression]]:
    """(property, value-expression) pairs usable for an index lookup.

    Literals, parameters, and variables bound before the clause (or
    property-access chains on them) qualify — see :func:`_seek_value`.
    They evaluate independently of the pattern's own variables, so
    narrowing the candidate set with them can never drop a row the full
    match would have produced.
    """
    pairs: list[tuple[str, Expression]] = []
    for key, expr in node_pattern.properties:
        if _seek_value(expr, sargable.outer):
            pairs.append((key, expr))
    if node_pattern.variable is not None:
        pairs.extend(sargable.equalities.get(node_pattern.variable, ()))
    return pairs


@dataclass(frozen=True)
class _RangeBounds:
    """The sargable bounds chosen for one (variable, property) pair.

    Each side holds ``(value expression, inclusive)`` or ``None``.  When a
    WHERE repeats a side (``n.v > 1 AND n.v > 5``) only the first conjunct
    feeds the seek; the WHERE still applies the rest, so the seek merely
    over-approximates.
    """

    lower: Optional[tuple[Expression, bool]] = None
    upper: Optional[tuple[Expression, bool]] = None


#: Comparison operators usable for range seeks, normalised so the property
#: access sits on the left: ``5 > n.v`` reads as ``n.v < 5``.
_RANGE_OPS = {"<": "<", "<=": "<=", ">": ">", ">=": ">="}
_FLIPPED_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass
class _SargablePredicates:
    """Per-variable sargable conjuncts extracted from one WHERE tree."""

    #: var -> [(property, value expression)] from ``var.p = v``, ``v`` as
    #: :func:`_seek_value` admits it.
    equalities: dict = None
    #: var -> {property: _RangeBounds} from ``var.p </<=/>/>= <lit/param>``.
    ranges: dict = None
    #: var -> [(property, list expression, element count or None)] from
    #: ``var.p IN <list>``; the count is None for parameters.
    in_lists: dict = None
    #: Names bound before the clause: equality values (inline or WHERE)
    #: may read them.
    outer: frozenset = frozenset()

    def __post_init__(self) -> None:
        self.equalities = {} if self.equalities is None else self.equalities
        self.ranges = {} if self.ranges is None else self.ranges
        self.in_lists = {} if self.in_lists is None else self.in_lists


def _sargable_predicates(
    where: Optional[Expression], outer: Collection[str] = frozenset()
) -> _SargablePredicates:
    """Extract equality, range and IN-list conjuncts usable by index seeks.

    Only top-level AND conjuncts qualify (an OR branch cannot narrow the
    candidate set safely).  Range and IN comparands must be literals or
    parameters; equality comparands may also read ``outer``, the names
    bound before the clause (:func:`_seek_value`).  Anything else may read
    the clause's own pattern variables.
    """
    result = _SargablePredicates(outer=frozenset(outer))
    if where is None:
        return result
    for conjunct in _conjuncts(where):
        if not isinstance(conjunct, BinaryOp):
            continue
        if conjunct.op == "=":
            for access, value in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if _is_sargable_access(access) and _seek_value(value, result.outer):
                    result.equalities.setdefault(access.subject.name, []).append(
                        (access.key, value)
                    )
                    break
        elif conjunct.op in _RANGE_OPS:
            for access, value, op in (
                (conjunct.left, conjunct.right, conjunct.op),
                (conjunct.right, conjunct.left, _FLIPPED_OPS[conjunct.op]),
            ):
                if _is_sargable_access(access) and isinstance(value, (Literal, Parameter)):
                    bounds = result.ranges.setdefault(access.subject.name, {})
                    current = bounds.get(access.key, _RangeBounds())
                    if op in (">", ">=") and current.lower is None:
                        bounds[access.key] = _RangeBounds(
                            lower=(value, op == ">="), upper=current.upper
                        )
                    elif op in ("<", "<=") and current.upper is None:
                        bounds[access.key] = _RangeBounds(
                            lower=current.lower, upper=(value, op == "<=")
                        )
                    break
        elif conjunct.op == "IN":
            access, value = conjunct.left, conjunct.right
            if not _is_sargable_access(access):
                continue
            if isinstance(value, ListLiteral) and all(
                isinstance(item, Literal) for item in value.items
            ):
                count: Optional[int] = len(value.items)
            elif isinstance(value, Literal) and isinstance(value.value, list):
                count = len(value.value)
            elif isinstance(value, Parameter):
                count = None
            else:
                continue
            result.in_lists.setdefault(access.subject.name, []).append(
                (access.key, value, count)
            )
    return result


def _is_sargable_access(expr: Expression) -> bool:
    """``var.prop`` — the only left-hand shape index seeks understand."""
    return isinstance(expr, PropertyAccess) and isinstance(expr.subject, Variable)


# ---------------------------------------------------------------------------
# projection lowering
# ---------------------------------------------------------------------------


def _plan_projection(clause: Union[WithClause, ReturnClause]) -> ProjectionPlan:
    """Choose the execution mode (and operator) for one WITH/RETURN clause.

    ``TopK`` requires ORDER BY with a LIMIT and no DISTINCT (the heap
    cannot deduplicate before ordering without holding every distinct row
    anyway); aggregation and ``*`` wildcards remain full breakers.
    """
    aggregate_texts = [
        expression_text(sub)
        for item in clause.items
        for sub in walk_expression(item.expression)
        if isinstance(sub, CountStar)
        or (isinstance(sub, FunctionCall) and is_aggregate_function(sub.name))
    ]
    if aggregate_texts:
        return ProjectionPlan(
            clause, AGGREGATE, Aggregate(aggregate_text=", ".join(aggregate_texts))
        )
    if clause.include_wildcard:
        return ProjectionPlan(clause, WILDCARD)
    if clause.order_by:
        order_text = ", ".join(
            expression_text(item.expression) + (" DESC" if item.descending else "")
            for item in clause.order_by
        )
        if clause.limit is not None and not clause.distinct:
            limit_estimate = (
                float(clause.limit.value)
                if isinstance(clause.limit, Literal)
                and isinstance(clause.limit.value, (int, float))
                and not isinstance(clause.limit.value, bool)
                else 1.0
            )
            return ProjectionPlan(
                clause,
                TOPK,
                TopK(
                    order_text=order_text,
                    limit=clause.limit,
                    skip=clause.skip,
                    estimated_rows=max(limit_estimate, 0.0),
                ),
            )
        return ProjectionPlan(clause, SORT, Sort(order_text=order_text))
    return ProjectionPlan(clause, STREAM)


# ---------------------------------------------------------------------------
# index-backed ORDER BY
# ---------------------------------------------------------------------------


def _apply_ordered_scan(
    query: Query,
    graph,
    virtual: frozenset,
    indexes: _Indexes,
    plans: list[PatternPlan],
    projections: list[ProjectionPlan],
) -> tuple[list[PatternPlan], list[ProjectionPlan]]:
    """Rewrite ``MATCH (n:L) RETURN … ORDER BY n.p`` onto an ordered scan.

    Eligibility is deliberately narrow: a two-clause query (one plain
    single-pattern MATCH without WHERE, one RETURN), a single-node pattern
    with exactly one real label and static properties, a single ORDER BY
    key resolving to an ordered-indexed ``(label, property)`` pair, and a
    start that would otherwise be a plain label scan — an index seek is
    never displaced, because it filters while the ordered scan does not.
    The rewrite swaps the start operator for ``OrderedIndexScan`` and
    flags the projection ``presorted`` (plus ``early_exit`` for TopK over
    evaluation-safe projections).  Advisory: the executor re-verifies at
    run time that the ordered scan actually served the candidates before
    skipping its sort.
    """
    if len(query.clauses) != 2:
        return plans, projections
    match, ret = query.clauses
    if not isinstance(match, MatchClause) or not isinstance(ret, ReturnClause):
        return plans, projections
    if match.optional or match.where is not None or len(match.patterns) != 1:
        return plans, projections
    pattern = match.patterns[0]
    if pattern.shortest is not None or pattern.variable is not None:
        return plans, projections
    if len(pattern.elements) != 1:
        return plans, projections
    node = pattern.elements[0]
    assert isinstance(node, NodePattern)
    if node.variable is None or len(node.labels) != 1:
        return plans, projections
    label = node.labels[0]
    if label in virtual or not _pattern_properties_static(pattern):
        return plans, projections
    if getattr(graph, "ordered_label_scan", None) is None:
        return plans, projections
    if len(plans) != 1 or plans[0].pattern is not pattern:
        return plans, projections
    if plans[0].start.kind != LABEL:
        return plans, projections
    if len(projections) != 1:
        return plans, projections
    projection = projections[0]
    if projection.mode not in (SORT, TOPK):
        return plans, projections
    if ret.distinct or ret.include_wildcard or len(ret.order_by) != 1:
        return plans, projections
    sort_item = ret.order_by[0]
    prop = _ordered_key(sort_item.expression, ret, node.variable)
    if prop is None or (label, prop) not in indexes.range:
        return plans, projections
    path = AccessPath(
        kind=ORDERED,
        label=label,
        property=prop,
        descending=sort_item.descending,
        estimated_rows=plans[0].estimated_rows,
    )
    new_plan = _dc_replace(plans[0], start=path, physical=(path,))
    early = projection.mode == TOPK and all(
        _safe_projection(item.expression) for item in ret.items
    )
    new_projection = _dc_replace(projection, presorted=True, early_exit=early)
    return [new_plan], [new_projection]


def _ordered_key(
    expr: Expression, clause: ReturnClause, node_variable: str
) -> Optional[str]:
    """The scanned node's property an ORDER BY key reads (None if opaque).

    Two shapes qualify: ``ORDER BY n.p`` directly — provided the
    projection does not rebind ``n``, since RETURN's ORDER BY sees the
    projected scope — and ``ORDER BY alias`` where the clause projects
    ``n.p AS alias`` (projection expressions always read the source
    scope, so rebinding cannot interfere there).
    """
    if isinstance(expr, PropertyAccess) and isinstance(expr.subject, Variable):
        if expr.subject.name != node_variable or _rebinds(clause, node_variable):
            return None
        return expr.key
    if isinstance(expr, Variable):
        for item in clause.items:
            if item.output_name() != expr.name:
                continue
            target = item.expression
            if (
                isinstance(target, PropertyAccess)
                and isinstance(target.subject, Variable)
                and target.subject.name == node_variable
            ):
                return target.key
            return None
    return None


def _rebinds(clause: ReturnClause, name: str) -> bool:
    """Does the projection bind ``name`` to anything but itself?"""
    return any(
        item.output_name() == name
        and not (
            isinstance(item.expression, Variable) and item.expression.name == name
        )
        for item in clause.items
    )


def _safe_projection(expr: Expression) -> bool:
    """Can this projection expression never raise at evaluation time?

    Early exit stops pulling input once LIMIT rows are out; only
    expressions that cannot raise (variables, literals, parameters and
    property reads on a variable) qualify, or the truncation could hide
    an error the full pipeline would have surfaced.
    """
    if isinstance(expr, (Literal, Parameter, Variable)):
        return True
    if isinstance(expr, PropertyAccess) and isinstance(expr.subject, Variable):
        return True
    return False


def _conjuncts(expr: Expression) -> Iterator[Expression]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _reverse_elements(
    elements: tuple[Union[NodePattern, RelationshipPattern], ...]
) -> tuple[Union[NodePattern, RelationshipPattern], ...]:
    """Reverse a path, flipping relationship directions."""
    flipped: list[Union[NodePattern, RelationshipPattern]] = []
    for element in reversed(elements):
        if isinstance(element, RelationshipPattern):
            direction = {"out": "in", "in": "out", "both": "both"}[element.direction]
            element = RelationshipPattern(
                variable=element.variable,
                types=element.types,
                properties=element.properties,
                direction=direction,
                min_hops=element.min_hops,
                max_hops=element.max_hops,
            )
        flipped.append(element)
    return tuple(flipped)


# ---------------------------------------------------------------------------
# the global parse + plan cache
# ---------------------------------------------------------------------------


@dataclass
class PlanCacheStats:
    """Counters for observing cache behaviour (tests, benchmarks, EXPLAIN)."""

    parse_hits: int = 0
    parse_misses: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    plan_invalidations: int = 0
    condition_hits: int = 0
    condition_misses: int = 0

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy (handy for benchmark notes)."""
        return {
            "parse_hits": self.parse_hits,
            "parse_misses": self.parse_misses,
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "plan_invalidations": self.plan_invalidations,
            "condition_hits": self.condition_hits,
            "condition_misses": self.condition_misses,
        }


@dataclass
class _PlanEntry:
    """One cached (query, plan) pair, validated against the graph epoch.

    Used by both the text-keyed and the id()-keyed plan stores; in the
    latter, holding ``query`` also pins the object so its id cannot be
    reused while the entry is alive, and the identity check on lookup
    rejects entries that somehow outlive their query object.
    """

    epoch: int
    query: Query
    plan: QueryPlan


#: First tokens that make a WHEN body a condition query, not a predicate.
_CONDITION_QUERY_STARTS = ("MATCH", "OPTIONAL", "UNWIND", "WITH", "CALL")


@dataclass(frozen=True)
class CompiledCondition:
    """A cached PG-Trigger WHEN body plus cheap-to-test shape flags.

    ``is_query`` distinguishes condition queries (MATCH/WITH pipelines)
    from plain predicates; ``has_exists`` tells the trigger engine whether
    evaluating the predicate needs a full executor (for EXISTS patterns)
    or can run through the bare expression evaluator.
    """

    parsed: Union[Expression, Query]
    is_query: bool
    has_exists: bool


class PlanCache:
    """LRU parse+plan cache shared process-wide.

    Three layers, all keyed on query text:

    * parses (graph-independent);
    * plans, additionally keyed on the graph's identity token, the
      executor's virtual-label *names* and the statement's initial
      :class:`Scope`, validated against the graph's index epoch on every
      hit;
    * trigger conditions (expression-or-query, with the trigger engine's
      wildcard-RETURN normalisation applied to query-shaped conditions).
    """

    def __init__(self, max_entries: int = 512) -> None:
        self.max_entries = max_entries
        self._lock = threading.RLock()
        self._parses: OrderedDict[str, Query] = OrderedDict()
        self._plans: OrderedDict[tuple, _PlanEntry] = OrderedDict()
        self._parsed_plans: OrderedDict[tuple, _PlanEntry] = OrderedDict()
        self._conditions: OrderedDict[str, CompiledCondition] = OrderedDict()
        self._tokens: OrderedDict[str, list[Token]] = OrderedDict()
        self.stats = PlanCacheStats()

    # -- parsing --------------------------------------------------------

    def parse(self, text: str) -> Query:
        """Parse ``text`` (cached)."""
        with self._lock:
            cached = self._parses.get(text)
            if cached is not None:
                self._parses.move_to_end(text)
                self.stats.parse_hits += 1
                return cached
        query = parse_query(text)
        with self._lock:
            self.stats.parse_misses += 1
            self._insert(self._parses, text, query)
        return query

    def tokenize(self, text: str) -> list[Token]:
        """Tokenise ``text`` (cached; callers must not mutate the list)."""
        with self._lock:
            cached = self._tokens.get(text)
            if cached is not None:
                self._tokens.move_to_end(text)
                return cached
        tokens = tokenize(text)
        with self._lock:
            self._insert(self._tokens, text, tokens)
        return tokens

    # -- planning -------------------------------------------------------

    def get(
        self,
        text: str,
        graph,
        virtual_label_names: frozenset = frozenset(),
        scope: Scope = EMPTY_SCOPE,
    ) -> tuple[Query, QueryPlan]:
        """Parse and plan ``text`` for ``graph`` (both cached).

        A cached plan is reused only while the graph's index epoch is
        unchanged; creating or dropping a property index bumps the epoch
        and evicts the stale entry on the next lookup.  Virtual-label
        names and the initial scope participate in the key, so registering
        a new virtual label, or binding a different set of names, re-plans
        rather than reusing a plan that ignored it.
        """
        key = (text, _graph_token(graph), virtual_label_names, scope)
        epoch = _graph_epoch(graph)
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                if entry.epoch == epoch:
                    self._plans.move_to_end(key)
                    self.stats.plan_hits += 1
                    return entry.query, entry.plan
                del self._plans[key]
                self.stats.plan_invalidations += 1
        query = self.parse(text)
        plan = plan_query(query, graph, virtual_label_names, scope)
        with self._lock:
            self.stats.plan_misses += 1
            self._insert(self._plans, key, _PlanEntry(epoch=epoch, query=query, plan=plan))
        return query, plan

    def get_for_parsed(
        self,
        query: Query,
        graph,
        virtual_label_names: frozenset = frozenset(),
        scope: Scope = EMPTY_SCOPE,
    ) -> QueryPlan:
        """Plan an already-parsed query (cached by object identity and scope).

        Used for query objects that live outside the text cache, e.g. the
        trigger engine's compiled condition queries, which are executed once
        per activation and would otherwise be re-planned on every firing.
        The entry keeps a reference to ``query``, so the id()-based key can
        never alias a different, later object.
        """
        key = (id(query), _graph_token(graph), virtual_label_names, scope)
        epoch = _graph_epoch(graph)
        with self._lock:
            entry = self._parsed_plans.get(key)
            if entry is not None and entry.query is query:
                if entry.epoch == epoch:
                    self._parsed_plans.move_to_end(key)
                    self.stats.plan_hits += 1
                    return entry.plan
                del self._parsed_plans[key]
                self.stats.plan_invalidations += 1
        plan = plan_query(query, graph, virtual_label_names, scope)
        with self._lock:
            self.stats.plan_misses += 1
            self._insert(
                self._parsed_plans, key, _PlanEntry(epoch=epoch, query=query, plan=plan)
            )
        return plan

    # -- trigger conditions ---------------------------------------------

    def condition_compiled(self, text: str) -> CompiledCondition:
        """Parse a PG-Trigger WHEN body (cached), with shape flags.

        A body whose first token starts a clause (MATCH, OPTIONAL, UNWIND,
        WITH, CALL) parses as a query and gets a wildcard RETURN appended
        when absent, so the surviving rows become the condition rows;
        anything else is a plain predicate.  Deciding by the first token
        keeps a bare ``MATCH (n:C)`` from parsing as a call to ``match()``.
        """
        with self._lock:
            cached = self._conditions.get(text)
            if cached is not None:
                self._conditions.move_to_end(text)
                self.stats.condition_hits += 1
                return cached
        if tokenize(text)[0].is_keyword(*_CONDITION_QUERY_STARTS):
            query = parse_query(text)
            if not any(isinstance(clause, ReturnClause) for clause in query.clauses):
                query = Query(
                    clauses=query.clauses + (ReturnClause(items=(), include_wildcard=True),)
                )
            compiled = CompiledCondition(parsed=query, is_query=True, has_exists=False)
        else:
            expression = parse_expression(text)
            compiled = CompiledCondition(
                parsed=expression,
                is_query=False,
                has_exists=any(
                    isinstance(sub, ExistsPattern) for sub in walk_expression(expression)
                ),
            )
        with self._lock:
            self.stats.condition_misses += 1
            self._insert(self._conditions, text, compiled)
        return compiled

    # -- maintenance ----------------------------------------------------

    def clear(self) -> None:
        """Drop every cached parse, plan and condition; reset statistics."""
        with self._lock:
            self._parses.clear()
            self._plans.clear()
            self._parsed_plans.clear()
            self._conditions.clear()
            self._tokens.clear()
            self.stats = PlanCacheStats()

    def plan_entry_count(self) -> int:
        """Number of cached plans (for tests)."""
        with self._lock:
            return len(self._plans)

    def _insert(self, store: OrderedDict, key, value) -> None:
        store[key] = value
        store.move_to_end(key)
        while len(store) > self.max_entries:
            store.popitem(last=False)


#: Side table of monotonic tokens for graph-likes that cannot carry a
#: ``plan_token`` attribute (e.g. ``__slots__`` without ``__dict__``).
#: Weakly keyed, so dead graphs do not pin cache identities alive.
_foreign_tokens: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_foreign_token_lock = threading.Lock()


def _graph_token(graph) -> int:
    """A stable, never-reused per-graph-instance identity for plan-cache keys.

    ``PropertyGraph`` mints its token from a process-wide monotonic counter
    at construction.  Graph-likes that arrive without one are assigned a
    token from the *same* counter on first planning — first by setting the
    attribute, else via a weak side table.  ``id(graph)`` is never used:
    the allocator recycles addresses, so after a graph died a newcomer
    could alias its id and silently hit the dead graph's cached plans.
    """
    token = getattr(graph, "plan_token", None)
    if token is not None:
        return token
    with _foreign_token_lock:
        token = getattr(graph, "plan_token", None)  # racing assigner won
        if token is not None:
            return token
        token = next(_PLAN_TOKENS)
        try:
            graph.plan_token = token
            return token
        except (AttributeError, TypeError):
            pass
        try:
            return _foreign_tokens.setdefault(graph, token)
        except TypeError:
            # Not weak-referenceable either; per-call tokens only make the
            # cache miss (never alias), which is the safe failure mode.
            return token


def _graph_epoch(graph) -> int:
    """The graph's index epoch (0 for graph-likes that don't track one)."""
    return getattr(graph, "index_epoch", 0)


#: The process-wide cache instance shared by the executor, trigger engine,
#: compatibility emulators and benchmark harness.
PLAN_CACHE = PlanCache()
