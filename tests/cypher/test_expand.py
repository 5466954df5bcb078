"""Contract of the expand: what a hop reads from typed adjacency, and what it
still checks itself.

A hop from a node reads the store's id lists of exactly its types, so
endpoint, direction and type need no re-check; only the relationship's
property map is evaluated.  A relationship the row already binds, and a
virtual (transition) type, are not read from those lists and keep the full
checks.  Rows come in relationship-id order, a self-loop once.
"""

from __future__ import annotations

import pytest

from repro.cypher.executor import QueryExecutor
from repro.graph import PropertyGraph
from repro.tx.transaction import Transaction

EXECUTORS = [
    pytest.param({}, id="planned"),
    pytest.param({"join_ordering": False}, id="written-order"),
    pytest.param({"eager": True}, id="eager"),
]


@pytest.fixture
def hub_graph():
    """A hub with typed edges both ways, a self-loop and a weighted edge.

    Relationship ids: 0 hub-[:B]->m1, 1 hub-[:A {w: 1}]->m2,
    2 hub-[:C]->m3, 3 m4-[:A {w: 2}]->hub, 4 hub-[:B]->hub.
    """
    graph = PropertyGraph()
    hub = graph.create_node(["Hub"], {"name": "hub"})
    m1, m2, m3, m4 = (graph.create_node(["M"], {"name": f"m{i}"}) for i in range(1, 5))
    graph.create_relationship("B", hub.id, m1.id)
    graph.create_relationship("A", hub.id, m2.id, {"w": 1})
    graph.create_relationship("C", hub.id, m3.id)
    graph.create_relationship("A", m4.id, hub.id, {"w": 2})
    graph.create_relationship("B", hub.id, hub.id)
    return graph


def rel_ids(graph, query, **options):
    return [row["r"].id for row in QueryExecutor(graph, **options).execute(query).rows]


def names(graph, query, **options):
    return [row["name"] for row in QueryExecutor(graph, **options).execute(query).rows]


@pytest.mark.parametrize("options", EXECUTORS)
class TestTypedExpand:
    def test_alternative_types_merge_in_id_order(self, hub_graph, options):
        query = "MATCH (:Hub)-[r:A|B]-() RETURN r"
        assert rel_ids(hub_graph, query, **options) == [0, 1, 3, 4]
        query = "MATCH (:Hub)-[r:B|A]->() RETURN r"
        assert rel_ids(hub_graph, query, **options) == [0, 1, 4]

    def test_undirected_self_loop_once(self, hub_graph, options):
        assert rel_ids(hub_graph, "MATCH (:Hub)-[r:B]-() RETURN r", **options) == [0, 4]
        assert rel_ids(hub_graph, "MATCH (:Hub)-[r]-() RETURN r", **options) == [0, 1, 2, 3, 4]
        assert rel_ids(hub_graph, "MATCH (:Hub)<-[r]-() RETURN r", **options) == [3, 4]

    def test_relationship_property_map_filters(self, hub_graph, options):
        assert rel_ids(hub_graph, "MATCH (:Hub)-[r:A {w: 1}]-() RETURN r", **options) == [1]
        assert rel_ids(hub_graph, "MATCH (:Hub)<-[r:A {w: 2}]-() RETURN r", **options) == [3]
        assert rel_ids(hub_graph, "MATCH (:Hub)-[r:A {w: 2}]->() RETURN r", **options) == []

    def test_bound_relationship_keeps_direction_and_endpoint_checks(self, hub_graph, options):
        # r is hub-[:A]->m2: matched backwards from its end it binds the
        # hub, from its start the opposite way round it matches nothing.
        prefix = "MATCH (:Hub)-[r:A {w: 1}]->(m) WITH r, m "
        query = prefix + "MATCH (m)<-[r]-(b) RETURN b.name AS name"
        assert names(hub_graph, query, **options) == ["hub"]
        query = prefix + "MATCH (m)-[r]->(b) RETURN b.name AS name"
        assert names(hub_graph, query, **options) == []
        # From a node that is not one of its endpoints: nothing.
        query = prefix + (
            "MATCH (x:M {name: 'm1'}) WITH r, x MATCH (x)-[r]-(b) RETURN b.name AS name"
        )
        assert names(hub_graph, query, **options) == []

    def test_virtual_transition_type_still_matches(self, hub_graph, options):
        executor = QueryExecutor(hub_graph, virtual_labels={"NEWREL": {1, 3}}, **options)
        rows = executor.execute("MATCH (:Hub)-[r:NEWREL]-(m) RETURN r, m.name AS name").rows
        assert [(row["r"].id, row["name"]) for row in rows] == [(1, "m2"), (3, "m4")]
        rows = executor.execute("MATCH (:Hub)-[r:NEWREL]->() RETURN r").rows
        assert [row["r"].id for row in rows] == [1]


@pytest.mark.parametrize(
    "query",
    [
        "MATCH (a)-[:R]->(m) RETURN m",
        "MATCH (a)-[]-(m) RETURN m",
        "MATCH (a)-[:R|S]-(m) RETURN m",
        "MATCH (a)-[:R*1..2]->(m) RETURN m",
    ],
)
def test_start_deleted_earlier_in_the_transaction_yields_no_rows(query):
    graph = PropertyGraph()
    a, m = graph.create_node(["A"]), graph.create_node(["M"])
    graph.create_relationship("R", a.id, m.id)
    graph.create_relationship("S", m.id, a.id)
    tx = Transaction(graph)
    tx.delete_node(a.id, detach=True)
    result = QueryExecutor(graph, transaction=tx).execute(query, bindings={"a": a})
    assert result.rows == []
