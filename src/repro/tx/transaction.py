"""Transactions over the property graph store.

A :class:`Transaction` applies writes to the shared
:class:`~repro.graph.store.PropertyGraph` immediately (there is a single
writer in this in-process engine), while recording every write in a
*statement delta* (changes since the last statement boundary) that is
folded into a *transaction delta* (all changes since ``begin``).  These
:class:`~repro.graph.delta.GraphDelta` journals are the only record of
what the transaction did: the PG-Trigger engine consumes them for
AFTER/BEFORE-statement and ONCOMMIT/DETACHED action times respectively,
and rollback walks them backwards (:func:`~repro.graph.delta.revert`)
to restore the exact prior state.

Statement boundaries are explicit: the query layer calls
:meth:`end_statement` after executing each top-level statement, which
returns the statement's delta and folds it into the transaction delta.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Iterable, Mapping

from ..graph.delta import GraphDelta, revert
from ..graph.model import Node, Relationship
from ..graph.store import PropertyGraph
from .errors import TransactionStateError

_transaction_ids = itertools.count(1)


class TransactionState(enum.Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled_back"


class Transaction:
    """A unit of work over a :class:`PropertyGraph` with change capture and rollback."""

    def __init__(self, graph: PropertyGraph, metadata: Mapping[str, Any] | None = None) -> None:
        self.id = next(_transaction_ids)
        self.graph = graph
        self.state = TransactionState.ACTIVE
        #: Arbitrary metadata (e.g. ``{"source": "trigger"}``); the APOC
        #: emulation uses this to reproduce APOC's cascade-blocking check.
        self.metadata: dict[str, Any] = dict(metadata or {})
        self._statement_delta = GraphDelta()
        self._transaction_delta = GraphDelta()

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------

    @property
    def is_active(self) -> bool:
        """True while the transaction accepts writes."""
        return self.state == TransactionState.ACTIVE

    def _require_active(self) -> None:
        if not self.is_active:
            raise TransactionStateError(
                f"transaction {self.id} is {self.state.value}; no further writes allowed"
            )

    # ------------------------------------------------------------------
    # deltas and statement boundaries
    # ------------------------------------------------------------------

    @property
    def statement_delta(self) -> GraphDelta:
        """Changes applied since the last statement boundary."""
        return self._statement_delta

    @property
    def transaction_delta(self) -> GraphDelta:
        """All changes applied since the transaction began.

        Includes both finished statements and the currently open one.
        With no statement open this is the folded delta itself, not a
        copy: :meth:`end_statement` replaces it and never mutates it, so
        a caller's reference stays a stable snapshot.
        """
        if self._statement_delta.is_empty():
            return self._transaction_delta
        return self._transaction_delta.merge(self._statement_delta)

    def end_statement(self) -> GraphDelta:
        """Close the current statement and return its delta.

        The returned delta is folded into the transaction delta; a fresh
        empty statement delta is started.
        """
        finished = self._statement_delta
        self._statement_delta = GraphDelta()
        if not finished.is_empty():
            self._transaction_delta = self._transaction_delta.merge(finished)
        return finished

    def write_count(self) -> int:
        """Number of primitive writes applied so far (journal length)."""
        return len(self._transaction_delta.operations()) + len(
            self._statement_delta.operations()
        )

    # ------------------------------------------------------------------
    # reads (pass-through to the store)
    # ------------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        """Return the current snapshot of a node."""
        return self.graph.node(node_id)

    def relationship(self, rel_id: int) -> Relationship:
        """Return the current snapshot of a relationship."""
        return self.graph.relationship(rel_id)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def create_node(
        self,
        labels: Iterable[str] | None = None,
        properties: Mapping[str, Any] | None = None,
    ) -> Node:
        """Create a node, recording it in the statement delta."""
        self._require_active()
        node = self.graph.create_node(labels=labels, properties=properties)
        self._statement_delta.record_node_created(node)
        return node

    def create_relationship(
        self,
        rel_type: str,
        start: int,
        end: int,
        properties: Mapping[str, Any] | None = None,
    ) -> Relationship:
        """Create a relationship, recording it in the statement delta."""
        self._require_active()
        rel = self.graph.create_relationship(rel_type, start, end, properties=properties)
        self._statement_delta.record_relationship_created(rel)
        return rel

    def delete_node(self, node_id: int, detach: bool = False) -> Node:
        """Delete a node (optionally detaching its relationships first)."""
        self._require_active()
        if detach:
            for rel in self.graph.relationships_of(node_id):
                self.delete_relationship(rel.id)
        node = self.graph.delete_node(node_id, detach=False)
        self._statement_delta.record_node_deleted(node)
        return node

    def delete_relationship(self, rel_id: int) -> Relationship:
        """Delete a relationship."""
        self._require_active()
        rel = self.graph.delete_relationship(rel_id)
        self._statement_delta.record_relationship_deleted(rel)
        return rel

    def add_label(self, node_id: int, label: str) -> Node:
        """Add a label to a node; returns the updated snapshot."""
        self._require_active()
        old, new = self.graph.add_label(node_id, label)
        if old is not new:
            self._statement_delta.record_label_assigned(new, label)
        return new

    def remove_label(self, node_id: int, label: str) -> Node:
        """Remove a label from a node; returns the updated snapshot."""
        self._require_active()
        old, new = self.graph.remove_label(node_id, label)
        if old is not new:
            self._statement_delta.record_label_removed(old, label)
        return new

    def set_node_property(self, node_id: int, key: str, value: Any) -> Node:
        """Set (or, with ``None``, remove) a node property."""
        self._require_active()
        if value is None:
            return self.remove_node_property(node_id, key)
        old, new = self.graph.set_node_property(node_id, key, value)
        old_value = old.properties.get(key)
        self._statement_delta.record_property_assigned(new, key, old_value, new.properties[key])
        return new

    def remove_node_property(self, node_id: int, key: str) -> Node:
        """Remove a node property (no-op when absent)."""
        self._require_active()
        old, new = self.graph.remove_node_property(node_id, key)
        if old is not new:
            old_value = old.properties.get(key)
            self._statement_delta.record_property_removed(old, key, old_value)
        return new

    def set_relationship_property(self, rel_id: int, key: str, value: Any) -> Relationship:
        """Set (or, with ``None``, remove) a relationship property."""
        self._require_active()
        if value is None:
            return self.remove_relationship_property(rel_id, key)
        old, new = self.graph.set_relationship_property(rel_id, key, value)
        old_value = old.properties.get(key)
        self._statement_delta.record_property_assigned(new, key, old_value, new.properties[key])
        return new

    def remove_relationship_property(self, rel_id: int, key: str) -> Relationship:
        """Remove a relationship property (no-op when absent)."""
        self._require_active()
        old, new = self.graph.remove_relationship_property(rel_id, key)
        if old is not new:
            old_value = old.properties.get(key)
            self._statement_delta.record_property_removed(old, key, old_value)
        return new

    # ------------------------------------------------------------------
    # termination (normally driven by the TransactionManager)
    # ------------------------------------------------------------------

    def _mark_committed(self) -> None:
        self._require_active()
        self.end_statement()
        self.state = TransactionState.COMMITTED

    def _rollback_changes(self) -> None:
        self._require_active()
        for delta in (self._statement_delta, self._transaction_delta):
            for kind, record in reversed(delta.operations()):
                revert(self.graph, kind, record)
        self._statement_delta = GraphDelta()
        self._transaction_delta = GraphDelta()
        self.state = TransactionState.ROLLED_BACK

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transaction(id={self.id}, state={self.state.value}, writes={self.write_count()})"
