"""Trigger footprints: what an action can write and what a condition reads.

Triggers interact only through graph state that one writes and another
reads or monitors (Section 6.2.3), so that claim is made here once.
:func:`write_footprint` and :func:`read_footprint` build a
:class:`Footprint`; the termination analysis maps write footprints to
triggering-graph events, the batched tier asks :func:`may_change`, and
the Section 4.2 check reads ``written_labels``.

The rules are conservative for all three at once:

* **Creations.** Every node element of CREATE/MERGE (FOREACH bodies
  included) is a potential creation with its written label set; a bound
  variable reuses a node, but boundness is not tracked.  Activations read
  the labels a node was created with, so an empty set raises no CREATE
  event.  A typed relationship element creates its types, an untyped one
  :data:`ANY`.
* **Keys.** ``SET x.k`` and ``REMOVE x.k`` write ``k``, and may raise both
  SET and REMOVE events (``SET x.k = null`` removes).  Map-style SET
  (``x = {…}``, ``x += {…}``) writes unknown keys.
* **Labels.** ``SET x:L`` adds and ``REMOVE x:L`` removes ``L``.
* **Deletes.** DELETE and DETACH DELETE delete nodes and relationships of
  any label.
* **Unknown.** ``CALL db.abort``/``abort`` write nothing; any other CALL,
  an unrecognised clause or an unparseable statement is unknown, which
  means every event and "may change anything".
* **Row snapshots.** A query condition's rows reach the action holding
  nodes as they were before any firing, so an action that reads a
  variable its condition binds reads every key and label it writes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Union

from ..cypher.ast import (
    CallClause,
    CreateClause,
    DeleteClause,
    ExistsPattern,
    Expression,
    ForeachClause,
    FunctionCall,
    LabelPredicate,
    MatchClause,
    MergeClause,
    NodePattern,
    PropertyAccess,
    Query,
    RemoveClause,
    RemovePropertyItem,
    ReturnClause,
    SetClause,
    SetLabelsItem,
    SetPropertyItem,
    UnwindClause,
    Variable,
    WithClause,
    walk_expression,
)
from ..cypher.errors import CypherError
from ..cypher.planner import PLAN_CACHE

#: Wildcard for a label, type or key that cannot be determined statically.
ANY = "*"

#: Procedures that abort the transaction and write nothing.
_INERT_PROCEDURES = frozenset({"db.abort", "abort"})

_EMPTY: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Footprint:
    """The graph state a statement can write or a condition reads.

    A write footprint fills the write fields, a read footprint the read
    fields.  ``unknown`` is the top of both: nothing can be ruled out.
    """

    # -- write side ---------------------------------------------------
    #: Label set of each node element that may create a node.
    created_label_sets: tuple[frozenset[str], ...] = ()
    #: Relationship types that may be created (:data:`ANY` for untyped).
    created_types: frozenset[str] = _EMPTY
    written_keys: frozenset[str] = _EMPTY
    writes_unknown_keys: bool = False
    added_labels: frozenset[str] = _EMPTY
    removed_labels: frozenset[str] = _EMPTY
    deletes: bool = False
    #: Every variable the statement's expressions read.
    read_variables: frozenset[str] = _EMPTY
    # -- read side ----------------------------------------------------
    #: Required label set of each live node element of a read pattern.
    matched_label_sets: tuple[frozenset[str], ...] = ()
    #: Type set of each live relationship element (empty: any type).
    matched_type_sets: tuple[frozenset[str], ...] = ()
    read_keys: frozenset[str] = _EMPTY
    reads_all_keys: bool = False
    read_labels: frozenset[str] = _EMPTY
    reads_all_labels: bool = False
    #: A pattern uses a transition name as a label or type, which only a
    #: per-activation virtual label can resolve.
    uses_transition_labels: bool = False
    #: Pattern variables and aliases a query condition's rows may carry.
    bound_variables: frozenset[str] = _EMPTY
    # -- both ---------------------------------------------------------
    unknown: bool = False

    @property
    def written_labels(self) -> frozenset[str]:
        """Labels the statement sets or removes."""
        return self.added_labels | self.removed_labels


def write_footprint(statement: Union[str, Query]) -> Footprint:
    """What ``statement`` (text or parsed) can write; unparseable is unknown."""
    if isinstance(statement, str):
        try:
            statement = PLAN_CACHE.parse(statement)
        except CypherError:
            return Footprint(unknown=True)
    created: list[frozenset[str]] = []
    types: set[str] = set()
    keys: set[str] = set()
    added: set[str] = set()
    removed: set[str] = set()
    unknown_keys = deletes = unknown = False

    def visit(clauses) -> None:
        nonlocal unknown_keys, deletes, unknown
        for clause in clauses:
            if isinstance(clause, (MatchClause, UnwindClause, WithClause, ReturnClause)):
                continue
            if isinstance(clause, (CreateClause, MergeClause)):
                create = isinstance(clause, CreateClause)
                for pattern in clause.patterns if create else (clause.pattern,):
                    for element in pattern.elements:
                        if isinstance(element, NodePattern):
                            created.append(frozenset(element.labels))
                        else:
                            types.update(element.types or (ANY,))
            elif isinstance(clause, SetClause):
                for item in clause.items:
                    if isinstance(item, SetPropertyItem):
                        keys.add(item.key)
                    elif isinstance(item, SetLabelsItem):
                        added.update(item.labels)
                    else:
                        unknown_keys = True
            elif isinstance(clause, RemoveClause):
                for item in clause.items:
                    if isinstance(item, RemovePropertyItem):
                        keys.add(item.key)
                    else:
                        removed.update(item.labels)
            elif isinstance(clause, DeleteClause):
                deletes = True
            elif isinstance(clause, ForeachClause):
                visit(clause.body)
            elif not (isinstance(clause, CallClause) and clause.procedure in _INERT_PROCEDURES):
                unknown = True

    visit(statement.clauses)
    return Footprint(
        created_label_sets=tuple(created),
        created_types=frozenset(types),
        written_keys=frozenset(keys),
        writes_unknown_keys=unknown_keys,
        added_labels=frozenset(added),
        removed_labels=frozenset(removed),
        deletes=deletes,
        read_variables=frozenset(_variables(statement)),
        unknown=unknown,
    )


def _variables(node) -> set[str]:
    """The name of every :class:`Variable` anywhere under an AST node."""
    if isinstance(node, Variable):
        return {node.name}
    if isinstance(node, tuple):
        return set().union(*map(_variables, node))
    if is_dataclass(node):
        return _variables(tuple(getattr(node, field.name) for field in fields(node)))
    return set()


def read_footprint(condition: Union[Query, Expression], transition_names: set[str]) -> Footprint:
    """What a condition (query or EXISTS-bearing predicate) reads of the live graph.

    Reads through a transition variable are frozen at activation time, so
    an action's writes never reach them — except where a pattern element
    re-binds one: the matcher refreshes pre-bound variables from the live
    graph, so their inline keys and labels still count.  An UNWIND or WITH
    alias that shadows a transition name makes its reads live again.
    ``keys()``/``properties()`` and ``labels()``/``type()`` on a live
    entity read every key or label.
    """
    frozen = set(transition_names)
    patterns: list = []
    expressions: list = [] if isinstance(condition, Query) else [condition]
    bound: set = set()
    unknown = False
    for clause in condition.clauses if isinstance(condition, Query) else ():
        if isinstance(clause, MatchClause):
            patterns.extend(clause.patterns)
            expressions.append(clause.where)
            bound.update(p.variable for p in clause.patterns)
            bound.update(e.variable for p in clause.patterns for e in p.elements)
        elif isinstance(clause, UnwindClause):
            frozen.discard(clause.variable)
            bound.add(clause.variable)
            expressions.append(clause.expression)
        elif isinstance(clause, (WithClause, ReturnClause)):
            expressions.extend(item.expression for item in clause.items)
            expressions.extend(sort.expression for sort in clause.order_by)
            expressions += [clause.skip, clause.limit]
            bound.update(item.alias for item in clause.items)
            if isinstance(clause, WithClause):
                frozen.difference_update(item.alias for item in clause.items)
                expressions.append(clause.where)
        else:
            unknown = True
    # Inline property values of MATCH elements are read like any other
    # expression; those of EXISTS elements are children of the EXISTS node.
    for pattern in patterns:
        for element in pattern.elements:
            expressions.extend(value for _, value in element.properties)
    read_keys: set[str] = set()
    read_labels: set[str] = set()
    reads_all_keys = reads_all_labels = False
    for expression in filter(None, expressions):
        for sub in walk_expression(expression):
            if isinstance(sub, ExistsPattern):
                patterns.extend(sub.patterns)
            elif isinstance(sub, (PropertyAccess, LabelPredicate)):
                if isinstance(sub.subject, Variable) and sub.subject.name in frozen:
                    continue  # snapshot read: frozen at activation time
                if isinstance(sub, PropertyAccess):
                    read_keys.add(sub.key)
                else:
                    read_labels.update(sub.labels)
            elif isinstance(sub, FunctionCall):
                name = sub.name.lower()
                if name not in ("keys", "properties", "labels", "type"):
                    continue
                args = sub.args
                if len(args) == 1 and isinstance(args[0], Variable) and args[0].name in frozen:
                    continue
                if name in ("keys", "properties"):
                    reads_all_keys = True
                else:
                    reads_all_labels = True

    matched_labels: list[frozenset[str]] = []
    matched_types: list[frozenset[str]] = []
    uses_transition_labels = False
    for pattern in patterns:
        for element in pattern.elements:
            read_keys.update(key for key, _ in element.properties)
            names = element.labels if isinstance(element, NodePattern) else element.types
            if set(names) & transition_names:
                uses_transition_labels = True
            if isinstance(element, NodePattern):
                read_labels.update(names)
            if element.variable is not None and element.variable in frozen:
                continue  # pre-bound: can never re-bind to a created item
            target = matched_labels if isinstance(element, NodePattern) else matched_types
            target.append(frozenset(names))
    return Footprint(
        matched_label_sets=tuple(matched_labels),
        matched_type_sets=tuple(matched_types),
        read_keys=frozenset(read_keys),
        reads_all_keys=reads_all_keys,
        read_labels=frozenset(read_labels),
        reads_all_labels=reads_all_labels,
        uses_transition_labels=uses_transition_labels,
        bound_variables=frozenset(bound - {None}),
        unknown=unknown,
    )


def may_change(write: Footprint, read: Footprint) -> bool:
    """True unless nothing ``write`` can do changes what ``read`` sees."""
    if write.unknown or read.unknown or write.deletes:
        return True
    for required in read.matched_label_sets:
        if any(required <= labels for labels in write.created_label_sets):
            return True
    created_types = write.created_types
    if created_types:
        for types in read.matched_type_sets:
            if not types or ANY in created_types or types & created_types:
                return True
    if write.written_keys or write.writes_unknown_keys:
        if read.reads_all_keys or write.written_keys & read.read_keys:
            return True
        if write.writes_unknown_keys and read.read_keys:
            return True
    written_labels = write.written_labels
    if written_labels and (read.reads_all_labels or written_labels & read.read_labels):
        return True
    # An action reading its condition's row snapshots reads its own writes.
    writes = write.written_keys or write.writes_unknown_keys or written_labels
    return bool(writes and write.read_variables & read.bound_variables)

