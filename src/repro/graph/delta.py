"""Change capture for property graph transactions.

A :class:`GraphDelta` records everything that happened between two points
in time: created/deleted nodes and relationships, assigned/removed labels,
and assigned/removed properties (with old and new values).  It is the raw
material from which three different views are produced:

* the PG-Trigger transition variables (``OLD``, ``NEW``, ``OLDNODES``,
  ``NEWNODES``, ``OLDRELS``, ``NEWRELS``) — see
  :mod:`repro.triggers.context`;
* the APOC transition metadata of the paper's Table 2
  (``$createdNodes``, ``$assignedNodeProperties``, …) — see
  :mod:`repro.compat.apoc`;
* the Memgraph predefined variables of Table 4
  (``createdVertices``, ``setVertexProperties``, …) — see
  :mod:`repro.compat.memgraph`.

Its operation journal is also what the write-ahead log persists and what
transaction rollback inverts (:func:`revert`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from .model import Node, Relationship

if TYPE_CHECKING:
    from .store import PropertyGraph


@dataclass(frozen=True)
class LabelAssignment:
    """A label set on an existing node (``SET n:Label``)."""

    node: Node
    label: str


@dataclass(frozen=True)
class LabelRemoval:
    """A label removed from an existing node (``REMOVE n:Label``)."""

    node: Node
    label: str


@dataclass(frozen=True)
class PropertyAssignment:
    """A property set on a node or relationship.

    ``old`` is ``None`` when the property did not previously exist, which is
    exactly the quadruple shape of APOC's ``assignedNodeProperties``.
    """

    item: Node | Relationship
    key: str
    old: Any
    new: Any

    @property
    def is_node(self) -> bool:
        """Return True when the assignment targets a node."""
        return isinstance(self.item, Node)


@dataclass(frozen=True)
class PropertyRemoval:
    """A property removed from a node or relationship."""

    item: Node | Relationship
    key: str
    old: Any

    @property
    def is_node(self) -> bool:
        """Return True when the removal targets a node."""
        return isinstance(self.item, Node)


#: Operation kinds used by the unified :meth:`GraphDelta.operations` view
#: (and by the WAL codec in :mod:`repro.storage.codec`).
OP_CREATE_NODE = "create_node"
OP_DELETE_NODE = "delete_node"
OP_CREATE_RELATIONSHIP = "create_relationship"
OP_DELETE_RELATIONSHIP = "delete_relationship"
OP_ASSIGN_LABEL = "assign_label"
OP_REMOVE_LABEL = "remove_label"
OP_ASSIGN_PROPERTY = "assign_property"
OP_REMOVE_PROPERTY = "remove_property"


def revert(graph: "PropertyGraph", kind: str, record: Any) -> None:
    """Undo one journal entry ``(kind, record)`` of :meth:`GraphDelta.operations`.

    Rollback walks a transaction's journal backwards through this.  Deleted
    items come back under their original ids, so snapshots held elsewhere
    (e.g. trigger transition variables) stay consistent with the store, and
    every step goes through the store's public primitives, so mutation
    listeners observe the rollback too.
    """
    if kind == OP_CREATE_NODE:
        if graph.has_node(record.id):
            graph.delete_node(record.id, detach=True)
    elif kind == OP_DELETE_NODE:
        graph.create_node(record.labels, dict(record.properties), node_id=record.id)
    elif kind == OP_CREATE_RELATIONSHIP:
        if graph.has_relationship(record.id):
            graph.delete_relationship(record.id)
    elif kind == OP_DELETE_RELATIONSHIP:
        graph.create_relationship(
            record.type, record.start, record.end, dict(record.properties), rel_id=record.id
        )
    elif kind == OP_ASSIGN_LABEL:
        if graph.has_node(record.node.id):
            graph.remove_label(record.node.id, record.label)
    elif kind == OP_REMOVE_LABEL:
        if graph.has_node(record.node.id):
            graph.add_label(record.node.id, record.label)
    else:  # OP_ASSIGN_PROPERTY / OP_REMOVE_PROPERTY: restore the old value
        item = record.item
        if isinstance(item, Node):
            if not graph.has_node(item.id):
                return
            set_value, remove_value = graph.set_node_property, graph.remove_node_property
        else:
            if not graph.has_relationship(item.id):
                return
            set_value = graph.set_relationship_property
            remove_value = graph.remove_relationship_property
        if record.old is None:
            remove_value(item.id, record.key)
        else:
            set_value(item.id, record.key, record.old)


@dataclass
class GraphDelta:
    """Accumulated changes produced by a statement or transaction.

    The lists preserve occurrence order; consumers that need set semantics
    (e.g. "was this node created in this transaction?") use the helper
    predicates instead of scanning.  The per-kind lists do not preserve the
    *interleaving* across kinds, so the delta also keeps a unified
    operation journal (:meth:`operations`) — replaying a delta (the WAL
    recovery path) needs the exact total order, e.g. for a node that is
    created, labelled and then deleted within one transaction.
    """

    created_nodes: list[Node] = field(default_factory=list)
    deleted_nodes: list[Node] = field(default_factory=list)
    created_relationships: list[Relationship] = field(default_factory=list)
    deleted_relationships: list[Relationship] = field(default_factory=list)
    assigned_labels: list[LabelAssignment] = field(default_factory=list)
    removed_labels: list[LabelRemoval] = field(default_factory=list)
    assigned_properties: list[PropertyAssignment] = field(default_factory=list)
    removed_properties: list[PropertyRemoval] = field(default_factory=list)
    _ops: list[tuple[str, Any]] = field(default_factory=list, repr=False, compare=False)

    def is_empty(self) -> bool:
        """Return True when the delta records no changes at all."""
        return not (
            self.created_nodes
            or self.deleted_nodes
            or self.created_relationships
            or self.deleted_relationships
            or self.assigned_labels
            or self.removed_labels
            or self.assigned_properties
            or self.removed_properties
        )

    # -- recording -------------------------------------------------------

    def record_node_created(self, node: Node) -> None:
        """Record the creation of ``node``."""
        self.created_nodes.append(node)
        self._ops.append((OP_CREATE_NODE, node))

    def record_node_deleted(self, node: Node) -> None:
        """Record the deletion of ``node`` (snapshot taken before deletion)."""
        self.deleted_nodes.append(node)
        self._ops.append((OP_DELETE_NODE, node))

    def record_relationship_created(self, rel: Relationship) -> None:
        """Record the creation of ``rel``."""
        self.created_relationships.append(rel)
        self._ops.append((OP_CREATE_RELATIONSHIP, rel))

    def record_relationship_deleted(self, rel: Relationship) -> None:
        """Record the deletion of ``rel`` (snapshot taken before deletion)."""
        self.deleted_relationships.append(rel)
        self._ops.append((OP_DELETE_RELATIONSHIP, rel))

    def record_label_assigned(self, node: Node, label: str) -> None:
        """Record that ``label`` was added to ``node``."""
        assignment = LabelAssignment(node=node, label=label)
        self.assigned_labels.append(assignment)
        self._ops.append((OP_ASSIGN_LABEL, assignment))

    def record_label_removed(self, node: Node, label: str) -> None:
        """Record that ``label`` was removed from ``node``."""
        removal = LabelRemoval(node=node, label=label)
        self.removed_labels.append(removal)
        self._ops.append((OP_REMOVE_LABEL, removal))

    def record_property_assigned(
        self, item: Node | Relationship, key: str, old: Any, new: Any
    ) -> None:
        """Record that property ``key`` changed from ``old`` to ``new``."""
        assignment = PropertyAssignment(item=item, key=key, old=old, new=new)
        self.assigned_properties.append(assignment)
        self._ops.append((OP_ASSIGN_PROPERTY, assignment))

    def record_property_removed(self, item: Node | Relationship, key: str, old: Any) -> None:
        """Record that property ``key`` (whose value was ``old``) was removed."""
        removal = PropertyRemoval(item=item, key=key, old=old)
        self.removed_properties.append(removal)
        self._ops.append((OP_REMOVE_PROPERTY, removal))

    def operations(self) -> list[tuple[str, Any]]:
        """All changes as one (kind, record) list in exact occurrence order.

        Deltas built through the ``record_*`` methods return their journal
        verbatim.  Hand-assembled deltas (constructed from the per-kind
        lists, as some tests and the compat emulators do) have no journal;
        for those a canonical order is derived that is safe to replay:
        creations before label/property changes before deletions, with
        relationship deletions before node deletions.
        """
        recorded = sum(
            (
                len(self.created_nodes),
                len(self.deleted_nodes),
                len(self.created_relationships),
                len(self.deleted_relationships),
                len(self.assigned_labels),
                len(self.removed_labels),
                len(self.assigned_properties),
                len(self.removed_properties),
            )
        )
        if len(self._ops) == recorded:
            return list(self._ops)
        ops: list[tuple[str, Any]] = []
        ops.extend((OP_CREATE_NODE, node) for node in self.created_nodes)
        ops.extend((OP_CREATE_RELATIONSHIP, rel) for rel in self.created_relationships)
        ops.extend((OP_ASSIGN_LABEL, a) for a in self.assigned_labels)
        ops.extend((OP_REMOVE_LABEL, r) for r in self.removed_labels)
        ops.extend((OP_ASSIGN_PROPERTY, a) for a in self.assigned_properties)
        ops.extend((OP_REMOVE_PROPERTY, r) for r in self.removed_properties)
        ops.extend((OP_DELETE_RELATIONSHIP, rel) for rel in self.deleted_relationships)
        ops.extend((OP_DELETE_NODE, node) for node in self.deleted_nodes)
        return ops

    # -- derived views ---------------------------------------------------

    def node_property_assignments(self) -> list[PropertyAssignment]:
        """Property assignments whose target is a node."""
        return [a for a in self.assigned_properties if a.is_node]

    def relationship_property_assignments(self) -> list[PropertyAssignment]:
        """Property assignments whose target is a relationship."""
        return [a for a in self.assigned_properties if not a.is_node]

    def node_property_removals(self) -> list[PropertyRemoval]:
        """Property removals whose target is a node."""
        return [r for r in self.removed_properties if r.is_node]

    def relationship_property_removals(self) -> list[PropertyRemoval]:
        """Property removals whose target is a relationship."""
        return [r for r in self.removed_properties if not r.is_node]

    def created_node_ids(self) -> set[int]:
        """Ids of nodes created in this delta."""
        return {node.id for node in self.created_nodes}

    def deleted_node_ids(self) -> set[int]:
        """Ids of nodes deleted in this delta."""
        return {node.id for node in self.deleted_nodes}

    def created_relationship_ids(self) -> set[int]:
        """Ids of relationships created in this delta."""
        return {rel.id for rel in self.created_relationships}

    def deleted_relationship_ids(self) -> set[int]:
        """Ids of relationships deleted in this delta."""
        return {rel.id for rel in self.deleted_relationships}

    def merge(self, other: "GraphDelta") -> "GraphDelta":
        """Return a new delta with ``other`` appended after this one.

        Merging is purely positional; no cancellation (e.g. create followed
        by delete of the same node) is attempted, mirroring the behaviour of
        the transition metadata in both Neo4j APOC and Memgraph.
        """
        merged = GraphDelta()
        for source in (self, other):
            merged.created_nodes.extend(source.created_nodes)
            merged.deleted_nodes.extend(source.deleted_nodes)
            merged.created_relationships.extend(source.created_relationships)
            merged.deleted_relationships.extend(source.deleted_relationships)
            merged.assigned_labels.extend(source.assigned_labels)
            merged.removed_labels.extend(source.removed_labels)
            merged.assigned_properties.extend(source.assigned_properties)
            merged.removed_properties.extend(source.removed_properties)
            merged._ops.extend(source.operations())
        return merged

    @staticmethod
    def merged(deltas: Iterable["GraphDelta"]) -> "GraphDelta":
        """Merge an iterable of deltas in order."""
        result = GraphDelta()
        for delta in deltas:
            result = result.merge(delta)
        return result

    def summary(self) -> dict[str, int]:
        """Return a count-per-change-kind summary (useful in logs/tests)."""
        return {
            "created_nodes": len(self.created_nodes),
            "deleted_nodes": len(self.deleted_nodes),
            "created_relationships": len(self.created_relationships),
            "deleted_relationships": len(self.deleted_relationships),
            "assigned_labels": len(self.assigned_labels),
            "removed_labels": len(self.removed_labels),
            "assigned_properties": len(self.assigned_properties),
            "removed_properties": len(self.removed_properties),
        }
