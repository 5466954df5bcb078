"""Anchor differential: a value bound in the initial row may move where a
pattern starts, never what it matches.

The executor tells the planner which names the initial rows bind, and which
of them hold a live node or a live relationship; the planner then starts
reversible patterns at those anchors and plans EXISTS subqueries in scope.
``UNWIND [$a] AS a`` binds the very same value but never anchors (UNWIND
clears the planner's node and relationship anchors), so for every drawn
graph, pattern and value the two runs must agree on their rows — or raise
the same error type.  The drawn values cover the cases where anchoring
would be wrong: a node deleted earlier in the same transaction, null, and
a relationship bound where the pattern expects a node.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cypher.executor import QueryExecutor
from repro.graph import PropertyGraph
from repro.tx import Transaction
from tests.test_join_ordering_properties import (
    build_graph,
    canonical,
    index_flags,
    node_specs,
    rel_specs,
)

#: Queries reading the anchor ``a`` as a node at either end, in a join, in
#: an EXISTS, or as the first/last hop of a reversible pattern.
ANCHOR_QUERIES = [
    "MATCH (a)-[:R]->(b:B) RETURN a, b",
    "MATCH (b:B)-[:S]->(a) RETURN a, b",
    "MATCH (x:A)-[:R]->(m)-[:S]->(a) RETURN x, m, a",
    "MATCH (a:A)-[:R]-(m)-[:S]->(c:C {v: 1}) RETURN a, m, c",
    "MATCH (c:C)<-[:R]-(a:B) RETURN a, c",
    "MATCH (b:B {v: 1})-[:R]->(a), (a)-[:S]->(d) RETURN a, b, d",
    "MATCH (b:B)-[:R]->(a) WHERE EXISTS { MATCH (a)-[:S]->(:C) } RETURN a, b",
    "MATCH (b:B) WHERE EXISTS { MATCH (x:A)-[:R]->(a) } RETURN b",
    "MATCH (b) WITH b WHERE EXISTS { MATCH (b)-[:S]-(a) } RETURN b",
    "MATCH (x)-[a]->(y:B) RETURN x, y",
    "MATCH (x:A)-[a:R]-(y) RETURN x, y",
    "MATCH (x:A)-[:R]->(y)-[a]-(z) RETURN x, y, z",
    "MATCH (x)-[a:S]->(y) WHERE EXISTS { MATCH (y)-[:R]-(:A) } RETURN x, y",
]

#: What ``a`` is bound to: a live node, a node deleted earlier in the
#: transaction, null, a live relationship, a deleted relationship.
ANCHOR_KINDS = ["node", "deleted-node", "null", "relationship", "deleted-relationship"]


def anchor_value(graph, tx, kind: str, index: int):
    nodes = sorted(graph.nodes(), key=lambda node: node.id)
    rels = sorted(graph.relationships(), key=lambda rel: rel.id)
    if kind in ("node", "deleted-node") and nodes:
        node = nodes[index % len(nodes)]
        if kind == "deleted-node":
            tx.delete_node(node.id, detach=True)
        return node
    if kind in ("relationship", "deleted-relationship") and rels:
        rel = rels[index % len(rels)]
        if kind == "deleted-relationship":
            tx.delete_relationship(rel.id)
        return rel
    return None


def outcome(run):
    """Sorted canonical rows, or the error type (any error, both sides)."""
    try:
        rows = run().rows
    except Exception as exc:  # noqa: BLE001 - the type itself is compared
        return ("error", type(exc).__name__)
    return sorted(
        (tuple(sorted((k, canonical(v)) for k, v in row.items())) for row in rows),
        key=repr,
    )


class TestAnchorDifferential:
    @given(nodes=node_specs, rels=rel_specs, indexed=index_flags,
           query=st.sampled_from(ANCHOR_QUERIES), kind=st.sampled_from(ANCHOR_KINDS),
           index=st.integers(min_value=0, max_value=20))
    @settings(max_examples=250, deadline=None)
    def test_anchored_run_equals_unwound_run(self, nodes, rels, indexed, query, kind, index):
        graph = build_graph(nodes, rels, indexed)
        tx = Transaction(graph)
        value = anchor_value(graph, tx, kind, index)
        anchored = outcome(
            lambda: QueryExecutor(graph, transaction=tx).execute(query, bindings={"a": value})
        )
        unwound = outcome(
            lambda: QueryExecutor(graph, transaction=tx).execute(
                "UNWIND [$a] AS a " + query, {"a": value}
            )
        )
        assert anchored == unwound, (query, kind)

    def test_multi_hop_pattern_from_a_deleted_node_matches_nothing(self):
        # A node deleted earlier in the transaction has no relationships:
        # expanding from it yields no hops, anchored or not.
        graph = PropertyGraph()
        a, m, c = (graph.create_node([label]) for label in ("A", "M", "C"))
        graph.create_relationship("R", a.id, m.id)
        graph.create_relationship("S", m.id, c.id)
        tx = Transaction(graph)
        tx.delete_node(a.id, detach=True)
        query = "MATCH (a)-[:R]->(m)-[:S]->(c) RETURN a, m, c"
        anchored = outcome(
            lambda: QueryExecutor(graph, transaction=tx).execute(query, bindings={"a": a})
        )
        unwound = outcome(
            lambda: QueryExecutor(graph, transaction=tx).execute(
                "UNWIND [$a] AS a " + query, {"a": a}
            )
        )
        assert anchored == unwound == []
