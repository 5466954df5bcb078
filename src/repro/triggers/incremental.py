"""Incremental trigger-condition evaluation: delta-maintained views.

Batched evaluation (PR 4) runs one pipeline pass *per delta*; at firehose
rates that still re-executes every installed trigger's condition query —
parse-cache lookup, planner consultation, pattern scan — thousands of
times per second, even though most deltas cannot possibly change what a
condition matches.  This module compiles eligible condition queries into
**delta-maintained materialized views**, a small discrimination network in
the Rete tradition:

* **alpha memories** — one per MATCH clause, holding the node snapshots
  that satisfy the clause's label and literal-property tests, keyed by
  node id.  Mutation events from the store (see
  :meth:`repro.graph.store.PropertyGraph.add_mutation_listener`) are
  routed by label, so a delta touches only the memories it can affect;
  everything else is filtered out before any per-trigger work happens.
* **the joined product** — evaluation walks the memories in clause order
  (depth-first, each memory in ascending id order) applying the clauses'
  WHERE residuals, which reproduces the executor's streaming row order
  *and* its error order exactly.  For conditions whose WHERE never reads
  a transition variable the filtered product is itself cached and only
  invalidated when a memory changes — the per-delta cost of such a
  trigger drops to a handful of dict operations.

Because the store notifies listeners from every primitive mutation —
including the transaction layer's rollback (a backwards walk of the
change journal) and detach-delete cascades, which funnel through the
same public methods — the views are *live*: when the engine replays
activations one by one, each activation's evaluation sees every earlier
firing's writes, which makes incremental evaluation sequential-equal by
construction (no independence analysis needed on this tier).

Safety rails, per the demotion ladder (incremental → batched →
sequential):

* Conditions outside the compiled footprint — relationship patterns,
  OPTIONAL MATCH, UNWIND, EXISTS, non-literal inline properties,
  transition variables used as pattern variables or labels — are
  rejected at compile time with a reason, and the engine falls back to
  the PR 4 batched path (or sequential evaluation) so results can never
  change.
* Views record the graph's index epoch and rebuild from scratch when it
  bumps (index/DDL changes) or after a bulk mutation (``clear()``).
* Re-installing or dropping a trigger prunes its view via the registry's
  version counter.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..cypher.ast import (
    Expression,
    ExistsPattern,
    FunctionCall,
    Literal,
    MatchClause,
    NodePattern,
    Parameter,
    Query,
    ReturnClause,
    Variable,
    walk_expression,
)
from ..cypher.executor import contains_aggregate
from ..cypher.expressions import EvaluationContext, evaluate, map_value_matches
from ..graph.delta import OP_CREATE_NODE, OP_DELETE_NODE
from ..graph.model import Node
from ..graph.store import OP_BULK, PropertyGraph
from .ast import InstalledTrigger, TriggerDefinition
from .context import transition_names
from .registry import TriggerRegistry

# ---------------------------------------------------------------------------
# compile-time rejection reasons (surfaced by the engine's evaluation report)
# ---------------------------------------------------------------------------

REASON_SHAPE = "not a MATCH-only pipeline ending in RETURN *"
REASON_ROW_MIXING = "DISTINCT/ORDER BY/SKIP/LIMIT/aggregates mix rows"
REASON_OPTIONAL = "OPTIONAL MATCH"
REASON_MULTI_PATTERN = "multiple patterns in one MATCH"
REASON_PATH = "relationship or path pattern"
REASON_UNLABELLED = "unlabelled node pattern"
REASON_ANONYMOUS = "anonymous node pattern"
REASON_TRANSITION_VARIABLE = "transition variable used in a pattern"
REASON_DUPLICATE_VARIABLE = "variable bound by more than one clause"
REASON_NON_LITERAL_PROPERTIES = "non-literal inline properties"
REASON_EXISTS = "EXISTS pattern in WHERE"

#: Shared result for evaluations whose cached product is empty (callers
#: treat condition rows as read-only).
_EMPTY_ROWS: list[dict[str, Any]] = []


class _ViewClause:
    """One MATCH clause compiled for alpha-memory maintenance.

    ``labels`` and ``property_filters`` decide membership (the alpha
    test); ``where`` is kept as a *residual* evaluated per product row so
    its semantics — including nulls, type errors and evaluation order —
    stay exactly the executor's.
    """

    __slots__ = ("variable", "labels", "property_filters", "where", "where_names")

    def __init__(
        self,
        variable: str,
        labels: tuple[str, ...],
        property_filters: tuple[tuple[str, Any], ...],
        where: Optional[Expression],
    ) -> None:
        self.variable = variable
        self.labels = labels
        self.property_filters = property_filters
        self.where = where
        self.where_names: frozenset[str] = frozenset(
            sub.name
            for sub in (walk_expression(where) if where is not None else ())
            if isinstance(sub, Variable)
        )

    def matches(self, node: Node) -> bool:
        for label in self.labels:
            if label not in node.labels:
                return False
        for key, value in self.property_filters:
            if not map_value_matches(node.properties.get(key), value):
                return False
        return True


def compile_condition_view(
    trigger: TriggerDefinition, condition: Query
) -> tuple[Optional["ConditionView"], Optional[str]]:
    """Compile ``condition`` into a view, or return ``(None, reason)``.

    The eligible shape is deliberately narrow — MATCH clauses of one
    single-node pattern each, literal inline properties, arbitrary WHERE
    residuals without EXISTS, and the engine-normalised wildcard RETURN —
    because everything inside it can be proven row-order- and
    error-order-equal to the executor.  Everything outside demotes to the
    batched tier, which handles the general pipeline shapes.
    """
    transitions = transition_names(trigger)
    clauses: list[_ViewClause] = []
    seen_variables: set[str] = set()
    for position, clause in enumerate(condition.clauses):
        if isinstance(clause, ReturnClause):
            if position != len(condition.clauses) - 1 or not clause.include_wildcard:
                return None, REASON_SHAPE
            if clause.distinct or clause.order_by:
                return None, REASON_ROW_MIXING
            if clause.skip is not None or clause.limit is not None:
                return None, REASON_ROW_MIXING
            if any(contains_aggregate(item.expression) for item in clause.items):
                return None, REASON_ROW_MIXING
            if clause.items:
                # Explicit projections alongside the wildcard add computed
                # columns the view does not model.
                return None, REASON_SHAPE
            continue
        if not isinstance(clause, MatchClause):
            return None, REASON_SHAPE
        if clause.optional:
            return None, REASON_OPTIONAL
        if len(clause.patterns) != 1:
            return None, REASON_MULTI_PATTERN
        pattern = clause.patterns[0]
        if pattern.variable is not None or pattern.shortest is not None:
            return None, REASON_PATH
        if len(pattern.elements) != 1:
            return None, REASON_PATH
        element = pattern.elements[0]
        if not isinstance(element, NodePattern):
            return None, REASON_PATH
        if element.variable is None:
            return None, REASON_ANONYMOUS
        if element.variable in transitions:
            return None, REASON_TRANSITION_VARIABLE
        if element.variable in seen_variables:
            return None, REASON_DUPLICATE_VARIABLE
        if not element.labels:
            return None, REASON_UNLABELLED
        if set(element.labels) & transitions:
            # Transition names resolve as per-activation virtual labels.
            return None, REASON_TRANSITION_VARIABLE
        filters = []
        for key, expr in element.properties:
            if not isinstance(expr, Literal):
                return None, REASON_NON_LITERAL_PROPERTIES
            filters.append((key, expr.value))
        if clause.where is not None:
            for sub in walk_expression(clause.where):
                if isinstance(sub, ExistsPattern):
                    return None, REASON_EXISTS
        seen_variables.add(element.variable)
        clauses.append(
            _ViewClause(element.variable, element.labels, tuple(filters), clause.where)
        )
    view_variables = set(seen_variables)
    invariant = all(_residual_invariant(c, view_variables) for c in clauses)
    return ConditionView(trigger, tuple(clauses), invariant), None


def _residual_invariant(clause: _ViewClause, view_variables: set[str]) -> bool:
    """May this clause's WHERE verdicts be cached across activations?

    Only when the residual reads nothing but the view's own (live-synced)
    variables: no transition variables, no parameters, and no function
    calls — functions may read the clock (``timestamp()``), which must be
    re-evaluated per activation exactly as sequential evaluation would.
    """
    if clause.where is None:
        return True
    if not clause.where_names <= view_variables:
        return False
    for sub in walk_expression(clause.where):
        if isinstance(sub, (FunctionCall, Parameter, ExistsPattern)):
            return False
    return True


class ConditionView:
    """A delta-maintained materialization of one trigger's condition."""

    __slots__ = (
        "trigger_name",
        "definition",
        "clauses",
        "watched_labels",
        "invariant",
        "stats",
        "_alphas",
        "_sorted_ids",
        "_built",
        "_epoch",
        "_product",
    )

    def __init__(
        self,
        trigger: TriggerDefinition,
        clauses: tuple[_ViewClause, ...],
        invariant: bool,
    ) -> None:
        self.trigger_name = trigger.name
        self.definition = trigger
        self.clauses = clauses
        self.watched_labels: frozenset[str] = frozenset(
            label for clause in clauses for label in clause.labels
        )
        self.invariant = invariant
        self.stats = {
            "deltas_applied": 0,
            "rebuilds": 0,
            "evaluations": 0,
            "product_reuses": 0,
        }
        self._alphas: list[dict[int, Node]] = [{} for _ in clauses]
        self._sorted_ids: list[Optional[list[int]]] = [None] * len(clauses)
        self._built = False
        self._epoch = -1
        self._product: Optional[list[dict[str, Any]]] = None

    # -- maintenance ----------------------------------------------------

    def partial_matches(self) -> int:
        """Total entries across the alpha memories (observability)."""
        return sum(len(alpha) for alpha in self._alphas)

    def ensure_current(self, graph: PropertyGraph) -> bool:
        """Rebuild after an epoch bump or bulk invalidation; True if rebuilt."""
        if self._built and self._epoch == graph.index_epoch:
            return False
        self.rebuild(graph)
        return True

    def rebuild(self, graph: PropertyGraph) -> None:
        for index, clause in enumerate(self.clauses):
            alpha: dict[int, Node] = {}
            for node in graph.nodes_with_label(clause.labels[0]):
                if clause.matches(node):
                    alpha[node.id] = node
            self._alphas[index] = alpha
            self._sorted_ids[index] = None
        self._product = None
        self._built = True
        self._epoch = graph.index_epoch
        self.stats["rebuilds"] += 1

    def apply(self, op: str, old: Optional[Node], new: Optional[Node]) -> None:
        """Fold one mutation event into the alpha memories."""
        if op == OP_BULK:
            self._built = False
            self._product = None
            return
        if not self._built:
            return
        self.stats["deltas_applied"] += 1
        target = new if new is not None else old
        changed = False
        for index, clause in enumerate(self.clauses):
            alpha = self._alphas[index]
            if new is not None and clause.matches(new):
                previous = alpha.get(new.id)
                if previous is not new:
                    if previous is None and new.id not in alpha:
                        self._sorted_ids[index] = None
                    alpha[new.id] = new
                    changed = True
            elif target.id in alpha:
                del alpha[target.id]
                self._sorted_ids[index] = None
                changed = True
        if changed:
            self._product = None

    # -- evaluation -----------------------------------------------------

    def rows_for(
        self, base_variables: dict[str, Any], context: EvaluationContext
    ) -> list[dict[str, Any]]:
        """The condition's surviving rows for one activation.

        Row order, row contents and error order match what
        :meth:`repro.cypher.executor.QueryExecutor.stream` produces for
        the same condition over the same bindings.
        """
        stats = self.stats
        stats["evaluations"] += 1
        if self.invariant:
            product = self._product
            if product is None:
                product = []
                self._collect({}, 0, product, context)
                self._product = product
            else:
                stats["product_reuses"] += 1
            if not product:
                # The overwhelmingly common firehose outcome (a gate that
                # never opens): hand back one shared empty list instead of
                # allocating 50k of them.  Callers only read it.
                return _EMPTY_ROWS
            return [{**base_variables, **delta} for delta in product]
        rows: list[dict[str, Any]] = []
        self._collect(dict(base_variables), 0, rows, context)
        return rows

    def _collect(
        self,
        row: dict[str, Any],
        clause_index: int,
        out: list[dict[str, Any]],
        context: EvaluationContext,
    ) -> None:
        """Depth-first product walk — the executor's streaming order."""
        if clause_index == len(self.clauses):
            out.append(row)
            return
        clause = self.clauses[clause_index]
        alpha = self._alphas[clause_index]
        ids = self._sorted_ids[clause_index]
        if ids is None:
            ids = sorted(alpha)
            self._sorted_ids[clause_index] = ids
        where = clause.where
        variable = clause.variable
        for node_id in ids:
            extended = dict(row)
            extended[variable] = alpha[node_id]
            if where is not None and evaluate(where, extended, context) is not True:
                continue
            self._collect(extended, clause_index + 1, out, context)


class IncrementalTriggerViews:
    """Compiles, routes deltas into, and prunes the condition views.

    One instance per :class:`~repro.triggers.engine.TriggerEngine`;
    registers a single mutation listener on the graph and dispatches
    events to views by label, so the per-mutation overhead with no views
    installed is one attribute check.
    """

    def __init__(self, graph: PropertyGraph, registry: TriggerRegistry) -> None:
        self.graph = graph
        self.registry = registry
        self._views: dict[str, ConditionView] = {}
        #: Compile rejections, ``name -> (definition, reason)`` (memoised
        #: so ineligible triggers cost one dict probe per delta).
        self._rejections: dict[str, tuple[TriggerDefinition, str]] = {}
        self._by_label: dict[str, list[ConditionView]] = {}
        self._registry_version = -1
        self.stats = {"mutations_routed": 0, "bulk_invalidations": 0}
        graph.add_mutation_listener(self._on_mutation)

    # -- view lookup ----------------------------------------------------

    def view_for(
        self, installed: InstalledTrigger, condition: Query
    ) -> Optional[ConditionView]:
        """The live view for ``installed``, compiling on first use.

        Returns ``None`` when the condition is outside the compiled
        footprint (the reason is kept for :meth:`rejection_reason`).
        """
        trigger = installed.definition
        self._sync_registry()
        view = self._views.get(trigger.name)
        if view is not None and view.definition is trigger:
            return view
        if view is not None:
            self._discard(trigger.name)
        rejected = self._rejections.get(trigger.name)
        if rejected is not None and rejected[0] is trigger:
            return None
        view, reason = compile_condition_view(trigger, condition)
        if view is None:
            self._rejections[trigger.name] = (trigger, reason or "ineligible")
            return None
        self._views[trigger.name] = view
        for label in view.watched_labels:
            self._by_label.setdefault(label, []).append(view)
        return view

    def rejection_reason(self, name: str) -> Optional[str]:
        rejected = self._rejections.get(name)
        return rejected[1] if rejected is not None else None

    def views(self) -> Iterator[ConditionView]:
        self._sync_registry()
        return iter(self._views.values())

    def view(self, name: str) -> Optional[ConditionView]:
        self._sync_registry()
        return self._views.get(name)

    def close(self) -> None:
        """Detach from the graph (used when an engine is discarded)."""
        self.graph.remove_mutation_listener(self._on_mutation)
        self._views.clear()
        self._by_label.clear()
        self._rejections.clear()

    # -- delta routing --------------------------------------------------

    def _on_mutation(self, op: str, old, new) -> None:
        by_label = self._by_label
        if not by_label:
            return
        if op == OP_BULK:
            self.stats["bulk_invalidations"] += 1
            for view in self._views.values():
                view.apply(op, None, None)
            return
        item = new if new is not None else old
        if not isinstance(item, Node):
            # Relationship ops are provably outside every view's footprint
            # (alpha memories hold nodes only).
            return
        if op == OP_CREATE_NODE or op == OP_DELETE_NODE:
            labels = item.labels
        else:
            # Label transitions: route by the union so a view watching the
            # removed label still sees the membership change.
            labels = old.labels | new.labels
        routed: Optional[set[int]] = None
        for label in labels:
            views = by_label.get(label)
            if not views:
                continue
            for view in views:
                if routed is None:
                    routed = set()
                elif id(view) in routed:
                    continue
                routed.add(id(view))
                view.apply(op, old, new)
        if routed:
            self.stats["mutations_routed"] += 1

    # -- registry pruning -----------------------------------------------

    def _sync_registry(self) -> None:
        version = self.registry.version
        if version == self._registry_version:
            return
        current = {t.name: t.definition for t in self.registry.ordered()}
        for name, view in list(self._views.items()):
            if current.get(name) is not view.definition:
                self._discard(name)
        for name, (definition, _) in list(self._rejections.items()):
            if current.get(name) is not definition:
                del self._rejections[name]
        self._registry_version = version

    def _discard(self, name: str) -> None:
        view = self._views.pop(name, None)
        if view is None:
            return
        for label in view.watched_labels:
            views = self._by_label.get(label)
            if views is not None:
                self._by_label[label] = [v for v in views if v is not view]
                if not self._by_label[label]:
                    del self._by_label[label]
