"""In-memory property graph store.

:class:`PropertyGraph` is the storage substrate on which the whole
reproduction is built: the Cypher executor reads and writes through it, the
transaction layer (:mod:`repro.tx`) records its primitive operations in a
change journal (which rollback inverts), and the PG-Trigger engine consumes
the captured changes.

Design notes
------------
* Nodes and relationships are handed out to callers as immutable snapshots
  (:class:`repro.graph.model.Node` / ``Relationship``).  Every mutation
  produces a fresh snapshot; old snapshots stay valid, which is what trigger
  transition variables require.
* A label index is maintained for nodes (by label) and relationships (by
  type); an optional exact-match property index can be declared per
  (label, property) pair.
* Adjacency is kept as two ``node id -> {type -> ids}`` maps (outgoing and
  incoming), so expanding a typed pattern from a bound node reads only that
  type's ids: one bare id, or an ascending list of two or more (a list per
  lone id adds two small allocations between the property maps scans read).
  A node without relationships in a direction has no entry there.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from typing import Any, Iterable, Iterator, Mapping, Optional

from .errors import (
    GraphIntegrityError,
    NodeInUseError,
    NodeNotFoundError,
    RelationshipNotFoundError,
)
from .delta import (
    OP_ASSIGN_LABEL,
    OP_ASSIGN_PROPERTY,
    OP_CREATE_NODE,
    OP_CREATE_RELATIONSHIP,
    OP_DELETE_NODE,
    OP_DELETE_RELATIONSHIP,
    OP_REMOVE_LABEL,
    OP_REMOVE_PROPERTY,
)
from .indexes import CompositeIndex, LabelIndex, OrderedPropertyIndex, PropertyIndex
from .model import Node, Relationship, validate_properties, validate_property_value

#: Direction selector for relationship traversal.
OUTGOING = "out"
INCOMING = "in"
BOTH = "both"

#: Per-process counter handing every graph instance a unique identity for
#: the query planner's plan cache (ids of dead graphs can be reused by the
#: allocator; these tokens never are).
_PLAN_TOKENS = itertools.count(1)

#: Pseudo-op reported to mutation listeners when the graph changes in a way
#: that cannot be expressed as a single-item delta (``clear()``).  Listeners
#: maintaining derived state must treat it as "rebuild from scratch".
OP_BULK = "bulk"


class PropertyGraph:
    """A mutable, in-memory property graph with label and property indexes."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: dict[int, Node] = {}
        self._relationships: dict[int, Relationship] = {}
        #: Per-kind high-water marks (one past the highest id ever inserted):
        #: O(1) per insert, and an id is never reissued within a process.
        self._next_node_id = 0
        self._next_rel_id = 0
        self._node_labels = LabelIndex()
        self._rel_types = LabelIndex()
        self._property_index = PropertyIndex()
        self._range_index = OrderedPropertyIndex()
        self._rel_property_index = PropertyIndex()
        self._composite_index = CompositeIndex()
        self._outgoing: dict[int, dict[str, list[int]]] = {}
        self._incoming: dict[int, dict[str, list[int]]] = {}
        self._index_epoch = 0
        self.plan_token = next(_PLAN_TOKENS)
        #: Optional callback ``(action, kind, label, prop)`` invoked after
        #: every index DDL operation ("create"/"drop" of a
        #: "property"/"range"/"relationship" index).  The durability layer
        #: uses it to write index DDL into the write-ahead log; it is never
        #: copied by :meth:`copy` (clones are plain in-memory graphs).
        self.ddl_listener = None
        #: Mutation listeners ``(op, old, new)`` invoked after every
        #: primitive mutation (op names from :mod:`repro.graph.delta`, plus
        #: :data:`OP_BULK` for ``clear()``).  Because the transaction layer's
        #: rollback and detach-delete cascades funnel through these same
        #: public primitives, a listener observes rollbacks and cascades
        #: without any help from the caller.  Never copied by :meth:`copy`.
        self._mutation_listeners: list = []

    # ------------------------------------------------------------------
    # mutation listeners
    # ------------------------------------------------------------------

    def add_mutation_listener(self, listener) -> None:
        """Register ``listener(op, old, new)`` to observe every mutation."""
        if listener not in self._mutation_listeners:
            self._mutation_listeners.append(listener)

    def remove_mutation_listener(self, listener) -> None:
        """Unregister a previously added mutation listener (idempotent)."""
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_mutation(self, op: str, old, new) -> None:
        for listener in self._mutation_listeners:
            listener(op, old, new)

    # ------------------------------------------------------------------
    # size and iteration
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        """Number of nodes currently in the graph."""
        return len(self._nodes)

    def relationship_count(self) -> int:
        """Number of relationships currently in the graph."""
        return len(self._relationships)

    def order(self) -> int:
        """Alias for :meth:`node_count` (graph-theory naming)."""
        return self.node_count()

    def size(self) -> int:
        """Alias for :meth:`relationship_count` (graph-theory naming)."""
        return self.relationship_count()

    def nodes(self) -> Iterator[Node]:
        """Iterate over all node snapshots (no particular order guaranteed)."""
        return iter(list(self._nodes.values()))

    def relationships(self) -> Iterator[Relationship]:
        """Iterate over all relationship snapshots."""
        return iter(list(self._relationships.values()))

    def node_labels(self) -> list[str]:
        """All node labels present in the graph."""
        return self._node_labels.labels()

    def relationship_types(self) -> list[str]:
        """All relationship types present in the graph."""
        return self._rel_types.labels()

    def has_node(self, node_id: int) -> bool:
        """Return True if a node with ``node_id`` exists."""
        return node_id in self._nodes

    def has_relationship(self, rel_id: int) -> bool:
        """Return True if a relationship with ``rel_id`` exists."""
        return rel_id in self._relationships

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        """Return the node snapshot for ``node_id`` or raise."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def node_or_none(self, node_id: int) -> Optional[Node]:
        """Return the node snapshot for ``node_id``, or None if deleted.

        One dict probe — the trigger engine's per-activation snapshot
        refresh sits on the firehose hot path.
        """
        return self._nodes.get(node_id)

    def relationship_or_none(self, rel_id: int) -> Optional[Relationship]:
        """Return the relationship snapshot for ``rel_id``, or None."""
        return self._relationships.get(rel_id)

    def relationship(self, rel_id: int) -> Relationship:
        """Return the relationship snapshot for ``rel_id`` or raise."""
        try:
            return self._relationships[rel_id]
        except KeyError:
            raise RelationshipNotFoundError(rel_id) from None

    def nodes_with_label(self, label: str) -> list[Node]:
        """All nodes carrying ``label``."""
        return [self._nodes[i] for i in sorted(self._node_labels.get(label))]

    def relationships_with_type(self, rel_type: str) -> list[Relationship]:
        """All relationships of type ``rel_type``."""
        return [self._relationships[i] for i in sorted(self._rel_types.get(rel_type))]

    def count_nodes_with_label(self, label: str) -> int:
        """Number of nodes carrying ``label`` (index lookup, no scan)."""
        return self._node_labels.count(label)

    def count_relationships_with_type(self, rel_type: str) -> int:
        """Number of relationships of type ``rel_type``."""
        return self._rel_types.count(rel_type)

    def find_nodes(
        self,
        label: str | None = None,
        properties: Mapping[str, Any] | None = None,
    ) -> list[Node]:
        """Return nodes matching an optional label and exact property values.

        Uses the property index when one is declared for (label, property);
        otherwise falls back to scanning the label bucket (or the whole
        graph when no label is given).
        """
        properties = properties or {}
        candidates: Iterable[Node]
        if label is not None and properties:
            for key, value in properties.items():
                hit = self._property_index.lookup(label, key, value)
                if hit is not None:
                    candidates = [self._nodes[i] for i in hit if i in self._nodes]
                    break
            else:
                candidates = self.nodes_with_label(label)
        elif label is not None:
            candidates = self.nodes_with_label(label)
        else:
            candidates = self.nodes()
        result = []
        for node in candidates:
            if label is not None and not node.has_label(label):
                continue
            if all(node.get(k) == v for k, v in properties.items()):
                result.append(node)
        return result

    def relationships_of(
        self,
        node_id: int,
        direction: str = BOTH,
        rel_type: str | None = None,
    ) -> list[Relationship]:
        """Relationships attached to ``node_id``, in ascending id order.

        A typed call in one direction reads that type's ids as they are
        (no union, sort or filter); a typed ``"both"`` call reads both sides
        and merges them only when both hold the type; an untyped call merges
        every type of the direction(s).  A self-loop appears once.

        Args:
            node_id: the anchor node.
            direction: ``"out"``, ``"in"`` or ``"both"``.
            rel_type: optional type filter.
        """
        if node_id not in self._nodes:
            raise NodeNotFoundError(node_id)
        relationships = self._relationships
        return [relationships[i] for i in self._adjacent_ids(node_id, direction, rel_type)]

    def _adjacent_ids(self, node_id: int, direction: str, rel_type: str | None) -> list[int]:
        """Ascending ids of the relationships :meth:`relationships_of` returns."""
        lists: list = []
        for side, adjacency in ((OUTGOING, self._outgoing), (INCOMING, self._incoming)):
            by_type = adjacency.get(node_id) if direction in (side, BOTH) else None
            if by_type is None:
                continue
            for ids in by_type.values() if rel_type is None else [by_type.get(rel_type)]:
                if ids is not None:
                    lists.append(ids if type(ids) is list else [ids])
        if len(lists) <= 1:
            return lists[0] if lists else []
        if direction == BOTH:
            return sorted(set(itertools.chain.from_iterable(lists)))
        return sorted(itertools.chain.from_iterable(lists))

    def degree(self, node_id: int, direction: str = BOTH) -> int:
        """Number of relationships attached to ``node_id`` (a self-loop once)."""
        if node_id not in self._nodes:
            raise NodeNotFoundError(node_id)
        return len(self._adjacent_ids(node_id, direction, None))

    def neighbours(
        self, node_id: int, direction: str = BOTH, rel_type: str | None = None
    ) -> list[Node]:
        """Nodes adjacent to ``node_id`` along matching relationships."""
        seen: set[int] = set()
        result: list[Node] = []
        for rel in self.relationships_of(node_id, direction, rel_type):
            other = rel.other_end(node_id)
            if other not in seen and other in self._nodes:
                seen.add(other)
                result.append(self._nodes[other])
        return result

    # ------------------------------------------------------------------
    # property index management
    # ------------------------------------------------------------------

    def _notify_ddl(
        self, action: str, kind: str, label: str, prop: str | list[str] | None
    ) -> None:
        if self.ddl_listener is not None:
            self.ddl_listener(action, kind, label, prop)

    def create_property_index(self, label: str, prop: str) -> None:
        """Declare an exact-match index on ``label``/``prop`` and backfill it."""
        self._property_index.create(label, prop)
        for node in self.nodes_with_label(label):
            if prop in node.properties:
                self._property_index.add(label, prop, node.properties[prop], node.id)
        self._index_epoch += 1
        self._notify_ddl("create", "property", label, prop)

    def drop_property_index(self, label: str, prop: str) -> None:
        """Drop a previously declared property index."""
        self._property_index.drop(label, prop)
        self._index_epoch += 1
        self._notify_ddl("drop", "property", label, prop)

    def property_indexes(self) -> list[tuple[str, str]]:
        """Declared (label, property) index pairs."""
        return self._property_index.indexed_pairs()

    @property
    def index_epoch(self) -> int:
        """Monotonic counter bumped by index DDL; keys cached query plans."""
        return self._index_epoch

    def property_index_selectivity(self, label: str, prop: str) -> float | None:
        """Expected nodes per equality probe of the (label, prop) index.

        Total indexed entries divided by distinct indexed values (the
        uniform-value assumption the planner's cost model uses), read
        from the index's running counters in O(1).  Returns ``None``
        when no index is declared for the pair and ``1.0`` for a
        declared-but-empty index (a probe then behaves like a point lookup).
        An ordered index answers equality probes too, so its counters serve
        as a fallback when only a range index covers the pair.
        """
        selectivity = self._property_index.selectivity(label, prop)
        if selectivity is None:
            selectivity = self._range_index.selectivity(label, prop)
        return selectivity

    def property_index_lookup(self, label: str, prop: str, value: Any) -> list[Node] | None:
        """Nodes with ``label`` whose ``prop`` equals ``value``, via an index.

        Both the exact-match and the ordered (range) index can answer
        equality probes; the exact index wins when both are declared.
        Returns ``None`` when neither index covers the pair, so callers
        (the query planner's index access path) can fall back to a scan.
        """
        hit = self._property_index.lookup(label, prop, value)
        if hit is None:
            hit = self._range_index.lookup(label, prop, value)
        if hit is None:
            return None
        return [self._nodes[i] for i in sorted(hit) if i in self._nodes]

    # -- ordered (range) indexes ----------------------------------------

    def create_range_index(self, label: str, prop: str) -> None:
        """Declare an ordered index on ``label``/``prop`` and backfill it.

        An ordered index answers equality probes *and* range seeks
        (``IndexRangeSeek`` in query plans).  Creating one bumps the index
        epoch, invalidating any cached plan that ignored it.
        """
        self._range_index.create(label, prop)
        for node in self.nodes_with_label(label):
            if prop in node.properties:
                self._range_index.add(label, prop, node.properties[prop], node.id)
        self._index_epoch += 1
        self._notify_ddl("create", "range", label, prop)

    def drop_range_index(self, label: str, prop: str) -> None:
        """Drop a previously declared ordered index (bumps the index epoch)."""
        self._range_index.drop(label, prop)
        self._index_epoch += 1
        self._notify_ddl("drop", "range", label, prop)

    def range_indexes(self) -> list[tuple[str, str]]:
        """Declared ordered (label, property) index pairs."""
        return self._range_index.indexed_pairs()

    def range_index_lookup(
        self,
        label: str,
        prop: str,
        lower: Any = None,
        upper: Any = None,
        include_lower: bool = True,
        include_upper: bool = True,
    ) -> list[Node] | None:
        """Nodes with ``label`` whose ``prop`` lies within the bounds.

        Returns ``None`` whenever the ordered index cannot answer with the
        exact semantics of a scan — pair not indexed, bounds of mixed or
        unordered types, or entries of a different type class present (a
        scan would raise ``CypherTypeError`` on those; see
        :meth:`OrderedPropertyIndex.range_lookup`).
        """
        hit = self._range_index.range_lookup(
            label, prop, lower, upper, include_lower, include_upper
        )
        if hit is None:
            return None
        return [self._nodes[i] for i in sorted(hit) if i in self._nodes]

    def range_index_entry_count(self, label: str, prop: str) -> int | None:
        """Total entries of the ordered index (``None`` when not declared)."""
        return self._range_index.entry_count(label, prop)

    def range_index_bounds(self, label: str, prop: str) -> tuple[Any, Any] | None:
        """(min, max) indexed value of the pair, for range clamping.

        ``(None, None)`` for a declared-but-empty index — every range over
        it is provably empty; ``None`` when the pair is not indexed or its
        entries span multiple type classes (no clamp can be trusted).
        """
        return self._range_index.bounds(label, prop)

    def range_histogram(self, label: str, prop: str):
        """The pair's equi-depth value histogram, or ``None``.

        Built (and rebuilt, once mutations since the last build exceed the
        drift threshold) lazily on access.  A rebuild changes the estimates
        cached plans were costed with, so it bumps the index epoch exactly
        like index DDL — the plan cache re-plans affected queries once.
        """
        histogram, refreshed = self._range_index.histogram(label, prop)
        if refreshed:
            self._index_epoch += 1
        return histogram

    def ordered_label_scan(
        self, label: str, prop: str, descending: bool = False
    ) -> list[Node] | None:
        """Nodes with ``label`` in ``prop`` order, nulls last — or ``None``.

        Backs index-backed ``ORDER BY``: indexed nodes stream in value
        order (ids ascending within equal values, reproducing the stable
        sort's tie order), followed by the label's unindexed nodes (missing
        the property — ``null`` sorts last in both directions) in id order.
        ``None`` whenever the ordered index cannot answer (pair not
        indexed, or entries spanning type classes whose live comparison
        would raise), in which case the caller must sort.
        """
        ordered = self._range_index.ordered_ids(label, prop, descending)
        if ordered is None:
            return None
        result = [self._nodes[i] for i in ordered if i in self._nodes]
        members = self._node_labels.get(label)
        if len(result) < len(members):
            indexed = set(ordered)
            result.extend(
                self._nodes[i] for i in sorted(members - indexed) if i in self._nodes
            )
        return result

    # -- composite (multi-property) indexes -----------------------------

    def create_composite_index(self, label: str, props: Iterable[str]) -> None:
        """Declare a composite index on ``label`` over ``props`` and backfill it.

        ``props`` is an ordered tuple of at least two property names; a
        probe must supply a value for every one of them (the planner only
        picks the index when a WHERE clause pins all of them by equality).
        """
        props = tuple(props)
        if len(props) < 2:
            raise GraphIntegrityError(
                "a composite index needs at least two properties; "
                "use create_property_index for single properties"
            )
        self._composite_index.create(label, props)
        for node in self.nodes_with_label(label):
            self._composite_index.add_item(label, node.properties, node.id)
        self._index_epoch += 1
        self._notify_ddl("create", "composite", label, list(props))

    def drop_composite_index(self, label: str, props: Iterable[str]) -> None:
        """Drop a composite index (bumps the index epoch)."""
        props = tuple(props)
        self._composite_index.drop(label, props)
        self._index_epoch += 1
        self._notify_ddl("drop", "composite", label, list(props))

    def composite_indexes(self) -> list[tuple[str, tuple[str, ...]]]:
        """Declared (label, properties) composite index keys."""
        return self._composite_index.indexed_keys()

    def composite_index_lookup(
        self, label: str, props: Iterable[str], values: Iterable[Any]
    ) -> list[Node] | None:
        """Nodes with ``label`` matching every ``prop = value`` pair.

        Returns ``None`` when no composite index covers exactly ``props``
        (fall back to single-property probes or a scan).
        """
        hit = self._composite_index.lookup(label, tuple(props), tuple(values))
        if hit is None:
            return None
        return [self._nodes[i] for i in sorted(hit) if i in self._nodes]

    def composite_index_selectivity(
        self, label: str, props: Iterable[str]
    ) -> float | None:
        """Entries per distinct value tuple (``None`` when not declared)."""
        return self._composite_index.selectivity(label, tuple(props))

    # -- relationship-property indexes ----------------------------------

    def create_relationship_property_index(self, rel_type: str, prop: str) -> None:
        """Declare an exact-match index on ``rel_type``/``prop`` and backfill it."""
        self._rel_property_index.create(rel_type, prop)
        for rel in self.relationships_with_type(rel_type):
            if prop in rel.properties:
                self._rel_property_index.add(rel_type, prop, rel.properties[prop], rel.id)
        self._index_epoch += 1
        self._notify_ddl("create", "relationship", rel_type, prop)

    def drop_relationship_property_index(self, rel_type: str, prop: str) -> None:
        """Drop a relationship-property index (bumps the index epoch)."""
        self._rel_property_index.drop(rel_type, prop)
        self._index_epoch += 1
        self._notify_ddl("drop", "relationship", rel_type, prop)

    def relationship_property_indexes(self) -> list[tuple[str, str]]:
        """Declared (relationship type, property) index pairs."""
        return self._rel_property_index.indexed_pairs()

    def relationship_property_index_lookup(
        self, rel_type: str, prop: str, value: Any
    ) -> list[Relationship] | None:
        """Relationships of ``rel_type`` whose ``prop`` equals ``value``.

        Returns ``None`` when the pair is not indexed (fall back to a scan).
        """
        hit = self._rel_property_index.lookup(rel_type, prop, value)
        if hit is None:
            return None
        return [self._relationships[i] for i in sorted(hit) if i in self._relationships]

    def relationship_property_index_selectivity(
        self, rel_type: str, prop: str
    ) -> float | None:
        """Entries per distinct value of the (type, prop) index (``None`` if absent)."""
        return self._rel_property_index.selectivity(rel_type, prop)

    # ------------------------------------------------------------------
    # mutation primitives
    # ------------------------------------------------------------------

    def create_node(
        self,
        labels: Iterable[str] | None = None,
        properties: Mapping[str, Any] | None = None,
        node_id: int | None = None,
    ) -> Node:
        """Create a node and return its snapshot.

        ``node_id`` may be supplied by the transaction layer when reverting a
        deletion so that the node reappears under its original id.
        """
        label_set = frozenset(labels or ())
        props = validate_properties(properties)
        if node_id is None:
            node_id = self._next_node_id
        elif node_id in self._nodes:
            raise GraphIntegrityError(f"node id {node_id} already exists")
        self._next_node_id = max(self._next_node_id, node_id + 1)
        node = Node(id=node_id, labels=label_set, properties=props)
        self._nodes[node_id] = node
        for label in label_set:
            self._node_labels.add(label, node_id)
            for key, value in props.items():
                for index in self._node_property_indexes():
                    index.add(label, key, value, node_id)
            self._composite_index.add_item(label, props, node_id)
        if self._mutation_listeners:
            self._notify_mutation(OP_CREATE_NODE, None, node)
        return node

    def create_relationship(
        self,
        rel_type: str,
        start: int,
        end: int,
        properties: Mapping[str, Any] | None = None,
        rel_id: int | None = None,
    ) -> Relationship:
        """Create a relationship from ``start`` to ``end`` and return its snapshot."""
        if start not in self._nodes:
            raise NodeNotFoundError(start)
        if end not in self._nodes:
            raise NodeNotFoundError(end)
        if not rel_type:
            raise GraphIntegrityError("relationship type must be a non-empty string")
        props = validate_properties(properties)
        if rel_id is None:
            rel_id = self._next_rel_id
        elif rel_id in self._relationships:
            raise GraphIntegrityError(f"relationship id {rel_id} already exists")
        self._next_rel_id = max(self._next_rel_id, rel_id + 1)
        rel = Relationship(id=rel_id, type=rel_type, start=start, end=end, properties=props)
        self._relationships[rel_id] = rel
        _link(self._outgoing, start, rel_type, rel_id)
        _link(self._incoming, end, rel_type, rel_id)
        self._rel_types.add(rel_type, rel_id)
        for key, value in props.items():
            self._rel_property_index.add(rel_type, key, value, rel_id)
        if self._mutation_listeners:
            self._notify_mutation(OP_CREATE_RELATIONSHIP, None, rel)
        return rel

    def delete_node(self, node_id: int, detach: bool = False) -> Node:
        """Delete a node, returning the snapshot it had before deletion.

        Raises :class:`NodeInUseError` when the node still has relationships
        and ``detach`` is False.
        """
        node = self.node(node_id)
        attached = self._adjacent_ids(node_id, BOTH, None)
        if attached and not detach:
            raise NodeInUseError(node_id, len(attached))
        for rel_id in list(attached):  # it may be the list deletion edits
            self.delete_relationship(rel_id)
        del self._nodes[node_id]
        for label in node.labels:
            self._node_labels.remove(label, node_id)
            for key, value in node.properties.items():
                for index in self._node_property_indexes():
                    index.remove(label, key, value, node_id)
            self._composite_index.remove_item(label, node.properties, node_id)
        if self._mutation_listeners:
            self._notify_mutation(OP_DELETE_NODE, node, None)
        return node

    def delete_relationship(self, rel_id: int) -> Relationship:
        """Delete a relationship, returning its pre-deletion snapshot."""
        rel = self.relationship(rel_id)
        del self._relationships[rel_id]
        _unlink(self._outgoing, rel.start, rel.type, rel_id)
        _unlink(self._incoming, rel.end, rel.type, rel_id)
        self._rel_types.remove(rel.type, rel_id)
        for key, value in rel.properties.items():
            self._rel_property_index.remove(rel.type, key, value, rel_id)
        if self._mutation_listeners:
            self._notify_mutation(OP_DELETE_RELATIONSHIP, rel, None)
        return rel

    def add_label(self, node_id: int, label: str) -> tuple[Node, Node]:
        """Add ``label`` to a node; returns (old snapshot, new snapshot).

        Adding a label the node already has is a no-op (old is new).
        """
        old = self.node(node_id)
        if label in old.labels:
            return old, old
        new = old.with_updates(labels=old.labels | {label})
        self._nodes[node_id] = new
        self._node_labels.add(label, node_id)
        for key, value in new.properties.items():
            for index in self._node_property_indexes():
                index.add(label, key, value, node_id)
        self._composite_index.add_item(label, new.properties, node_id)
        if self._mutation_listeners:
            self._notify_mutation(OP_ASSIGN_LABEL, old, new)
        return old, new

    def remove_label(self, node_id: int, label: str) -> tuple[Node, Node]:
        """Remove ``label`` from a node; returns (old snapshot, new snapshot)."""
        old = self.node(node_id)
        if label not in old.labels:
            return old, old
        new = old.with_updates(labels=old.labels - {label})
        self._nodes[node_id] = new
        self._node_labels.remove(label, node_id)
        for key, value in old.properties.items():
            for index in self._node_property_indexes():
                index.remove(label, key, value, node_id)
        self._composite_index.remove_item(label, old.properties, node_id)
        if self._mutation_listeners:
            self._notify_mutation(OP_REMOVE_LABEL, old, new)
        return old, new

    def set_node_property(self, node_id: int, key: str, value: Any) -> tuple[Node, Node]:
        """Set property ``key`` on a node; returns (old, new) snapshots.

        Setting a property to ``None`` removes it, per openCypher semantics.
        """
        old = self.node(node_id)
        if value is None:
            return self.remove_node_property(node_id, key)
        value = validate_property_value(value)
        props = dict(old.properties)
        previous = props.get(key)
        props[key] = value
        new = old.with_updates(properties=props)
        self._nodes[node_id] = new
        for label in old.labels:
            for index in self._node_property_indexes():
                if previous is not None:
                    index.remove(label, key, previous, node_id)
                index.add(label, key, value, node_id)
            self._composite_index.remove_item(label, old.properties, node_id)
            self._composite_index.add_item(label, new.properties, node_id)
        if self._mutation_listeners:
            self._notify_mutation(OP_ASSIGN_PROPERTY, old, new)
        return old, new

    def remove_node_property(self, node_id: int, key: str) -> tuple[Node, Node]:
        """Remove property ``key`` from a node; returns (old, new) snapshots."""
        old = self.node(node_id)
        if key not in old.properties:
            return old, old
        props = dict(old.properties)
        previous = props.pop(key)
        new = old.with_updates(properties=props)
        self._nodes[node_id] = new
        for label in old.labels:
            for index in self._node_property_indexes():
                index.remove(label, key, previous, node_id)
            self._composite_index.remove_item(label, old.properties, node_id)
            self._composite_index.add_item(label, new.properties, node_id)
        if self._mutation_listeners:
            self._notify_mutation(OP_REMOVE_PROPERTY, old, new)
        return old, new

    def set_relationship_property(
        self, rel_id: int, key: str, value: Any
    ) -> tuple[Relationship, Relationship]:
        """Set property ``key`` on a relationship; returns (old, new) snapshots."""
        old = self.relationship(rel_id)
        if value is None:
            return self.remove_relationship_property(rel_id, key)
        value = validate_property_value(value)
        props = dict(old.properties)
        previous = props.get(key)
        props[key] = value
        new = old.with_updates(properties=props)
        self._relationships[rel_id] = new
        if previous is not None:
            self._rel_property_index.remove(old.type, key, previous, rel_id)
        self._rel_property_index.add(old.type, key, value, rel_id)
        if self._mutation_listeners:
            self._notify_mutation(OP_ASSIGN_PROPERTY, old, new)
        return old, new

    def remove_relationship_property(
        self, rel_id: int, key: str
    ) -> tuple[Relationship, Relationship]:
        """Remove property ``key`` from a relationship; returns (old, new)."""
        old = self.relationship(rel_id)
        if key not in old.properties:
            return old, old
        props = dict(old.properties)
        previous = props.pop(key)
        new = old.with_updates(properties=props)
        self._relationships[rel_id] = new
        self._rel_property_index.remove(old.type, key, previous, rel_id)
        if self._mutation_listeners:
            self._notify_mutation(OP_REMOVE_PROPERTY, old, new)
        return old, new

    # ------------------------------------------------------------------
    # bulk helpers
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Remove every node and relationship (indexes are preserved but emptied)."""
        self._nodes.clear()
        self._relationships.clear()
        self._outgoing.clear()
        self._incoming.clear()
        self._node_labels = LabelIndex()
        self._rel_types = LabelIndex()
        declared = self._property_index.indexed_pairs()
        self._property_index = PropertyIndex()
        for label, prop in declared:
            self._property_index.create(label, prop)
        declared_ranges = self._range_index.indexed_pairs()
        self._range_index = OrderedPropertyIndex()
        for label, prop in declared_ranges:
            self._range_index.create(label, prop)
        declared_rel = self._rel_property_index.indexed_pairs()
        self._rel_property_index = PropertyIndex()
        for rel_type, prop in declared_rel:
            self._rel_property_index.create(rel_type, prop)
        declared_composites = self._composite_index.indexed_keys()
        self._composite_index = CompositeIndex()
        for label, props in declared_composites:
            self._composite_index.create(label, props)
        if self._mutation_listeners:
            self._notify_mutation(OP_BULK, None, None)

    def copy(self, name: str | None = None) -> "PropertyGraph":
        """Return an independent deep copy of the graph."""
        clone = PropertyGraph(name=name or f"{self.name}-copy")
        for node in self.nodes():
            clone.create_node(node.labels, dict(node.properties), node_id=node.id)
        for rel in self.relationships():
            clone.create_relationship(
                rel.type, rel.start, rel.end, dict(rel.properties), rel_id=rel.id
            )
        for label, prop in self.property_indexes():
            clone.create_property_index(label, prop)
        for label, prop in self.range_indexes():
            clone.create_range_index(label, prop)
        for rel_type, prop in self.relationship_property_indexes():
            clone.create_relationship_property_index(rel_type, prop)
        for label, props in self.composite_indexes():
            clone.create_composite_index(label, props)
        return clone

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _node_property_indexes(self) -> tuple:
        """The node property indexes every node mutation must maintain."""
        return (self._property_index, self._range_index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PropertyGraph({self.name!r}, nodes={self.node_count()}, "
            f"relationships={self.relationship_count()})"
        )


def _link(adjacency: dict, node_id: int, rel_type: str, rel_id: int) -> None:
    """Add ``rel_id`` to the node's ids for ``rel_type``, keeping them ascending.

    Fresh ids are the highest yet and append; an explicit lower id (a
    rolled-back deletion re-created, a snapshot loaded) is inserted in place.
    """
    by_type = adjacency.get(node_id)
    if by_type is None:
        adjacency[node_id] = {rel_type: rel_id}
        return
    ids = by_type.get(rel_type)
    if ids is None:
        by_type[rel_type] = rel_id
    elif type(ids) is list:
        if ids[-1] < rel_id:
            ids.append(rel_id)
        else:
            insort(ids, rel_id)
    else:
        by_type[rel_type] = [ids, rel_id] if ids < rel_id else [rel_id, ids]


def _unlink(adjacency: dict, node_id: int, rel_type: str, rel_id: int) -> None:
    """Remove ``rel_id`` from the node's ids, dropping emptied entries."""
    by_type = adjacency[node_id]
    ids = by_type[rel_type]
    if type(ids) is list:
        del ids[bisect_left(ids, rel_id)]
        if len(ids) == 1:
            by_type[rel_type] = ids[0]
    else:
        del by_type[rel_type]
        if not by_type:
            del adjacency[node_id]
