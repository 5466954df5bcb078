"""Property-based differential (hypothesis): typed adjacency == a filter.

The store keeps, per node and direction, the ids of each relationship
type: one bare id, or an ascending list of two or more.  Random sequences
of creates, deletes, detach deletes, self-loops, multi-type fan-in,
rolled-back transactions (whose undo re-creates relationships under their
old, lower ids), ``copy()``, ``clear()`` and a durable close/reopen (WAL
replay, or a snapshot load after a checkpoint) run against a durable
session; after every step, for every node, direction and type (``None``
included), ``relationships_of`` must equal the id-sorted filter over
``graph.relationships()``, ``degree`` its length, and no empty per-node or
per-type entry may be left behind.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.graph import PropertyGraph
from repro.storage import MemoryIO
from repro.triggers.session import GraphSession

TYPES = ("A", "B", "C")
DIRECTIONS = ("out", "in", "both")

picks = st.integers(min_value=0, max_value=20)
steps = st.one_of(
    st.tuples(st.just("node")),
    st.tuples(st.just("rel"), picks, picks, st.sampled_from(TYPES)),
    st.tuples(st.just("self_loop"), picks, st.sampled_from(TYPES)),
    st.tuples(st.just("fan_in"), picks, st.lists(st.sampled_from(TYPES), min_size=2, max_size=5)),
    st.tuples(st.just("delete_rel"), picks),
    st.tuples(st.just("detach"), picks),
    st.tuples(st.just("rollback"), picks, picks),
    st.tuples(st.just("copy_clear"),),
    st.tuples(st.just("reopen"), st.booleans()),
)


def _touches(rel, node_id: int, direction: str) -> bool:
    if direction == "out":
        return rel.start == node_id
    if direction == "in":
        return rel.end == node_id
    return node_id in (rel.start, rel.end)


def assert_adjacency(graph: PropertyGraph) -> None:
    rels = sorted(graph.relationships(), key=lambda rel: rel.id)
    for node in graph.nodes():
        for direction in DIRECTIONS:
            for rel_type in (None, "Unused") + TYPES:
                expected = [
                    rel.id for rel in rels
                    if (rel_type is None or rel.type == rel_type)
                    and _touches(rel, node.id, direction)
                ]
                actual = [rel.id for rel in graph.relationships_of(node.id, direction, rel_type)]
                assert actual == expected, (node.id, direction, rel_type)
                if rel_type is None:
                    assert graph.degree(node.id, direction) == len(expected)
    live = {node.id for node in graph.nodes()}
    for adjacency in (graph._outgoing, graph._incoming):
        for node_id, by_type in adjacency.items():
            assert node_id in live
            assert by_type, f"empty type map left for node {node_id}"
            for ids in by_type.values():  # one bare id, or two or more ascending
                assert isinstance(ids, int) or (len(ids) >= 2 and ids == sorted(ids)), ids


def _pick(ids, index: int):
    ids = sorted(ids)
    return ids[index % len(ids)] if ids else None


def _apply(session: GraphSession, step) -> GraphSession:
    graph = session.graph
    manager = session.manager
    node_ids = [node.id for node in graph.nodes()]
    rel_ids = [rel.id for rel in graph.relationships()]
    kind = step[0]
    if kind == "node":
        with manager.transaction() as tx:
            tx.create_node(["N"], {})
    elif kind in ("rel", "self_loop", "fan_in") and node_ids:
        with manager.transaction() as tx:
            if kind == "rel":
                _, a, b, rel_type = step
                tx.create_relationship(rel_type, _pick(node_ids, a), _pick(node_ids, b))
            elif kind == "self_loop":
                _, a, rel_type = step
                tx.create_relationship(rel_type, _pick(node_ids, a), _pick(node_ids, a))
            else:
                _, target, rel_types = step
                for offset, rel_type in enumerate(rel_types):
                    tx.create_relationship(
                        rel_type, _pick(node_ids, target + offset + 1), _pick(node_ids, target)
                    )
    elif kind == "delete_rel" and rel_ids:
        with manager.transaction() as tx:
            tx.delete_relationship(_pick(rel_ids, step[1]))
    elif kind == "detach" and node_ids:
        with manager.transaction() as tx:
            tx.delete_node(_pick(node_ids, step[1]), detach=True)
    elif kind == "rollback" and node_ids:
        # Undo re-creates the deleted relationships under their old ids,
        # below the ids the transaction itself handed out.
        _, a, b = step
        tx = manager.begin()
        tx.create_relationship("A", _pick(node_ids, b), _pick(node_ids, a))
        tx.delete_node(_pick(node_ids, a), detach=True)
        if rel_ids and graph.has_relationship(_pick(rel_ids, b)):
            tx.delete_relationship(_pick(rel_ids, b))
        manager.rollback(tx)
    elif kind == "copy_clear":
        clone = graph.copy()
        assert_adjacency(clone)
        clone.clear()
        assert clone._outgoing == {} and clone._incoming == {}
        a, b = clone.create_node(["N"]), clone.create_node(["N"])
        clone.create_relationship("A", b.id, a.id)
        clone.create_relationship("B", a.id, a.id)
        assert_adjacency(clone)
    elif kind == "reopen":
        if step[1]:
            session.checkpoint()
        session.close()
        session = GraphSession(path="db", storage_io=session.store.io)
    return session


@given(sequence=st.lists(steps, min_size=1, max_size=25))
@settings(max_examples=150, deadline=None)
def test_typed_adjacency_equals_filtered_relationships(sequence):
    session = GraphSession(path="db", storage_io=MemoryIO())
    for step in sequence:
        session = _apply(session, step)
        assert_adjacency(session.graph)
    session.close()


def test_detach_delete_of_a_hub_leaves_no_entries():
    graph = PropertyGraph()
    hub = graph.create_node(["N"])
    others = [graph.create_node(["N"]) for _ in range(3)]
    for index, other in enumerate(others):
        graph.create_relationship(TYPES[index], other.id, hub.id)
        graph.create_relationship("A", hub.id, other.id)
    graph.create_relationship("C", hub.id, hub.id)
    assert graph.degree(hub.id) == 7
    graph.delete_node(hub.id, detach=True)
    assert_adjacency(graph)
    assert graph._outgoing == {} and graph._incoming == {}


def test_explicit_lower_id_is_inserted_in_order():
    graph = PropertyGraph()
    a, b = graph.create_node(["N"]), graph.create_node(["N"])
    for rel_id in (5, 9, 2, 7):
        graph.create_relationship("A", a.id, b.id, rel_id=rel_id)
    assert [rel.id for rel in graph.relationships_of(a.id, "out", "A")] == [2, 5, 7, 9]
    graph.delete_relationship(7)
    assert [rel.id for rel in graph.relationships_of(b.id, "in", "A")] == [2, 5, 9]
