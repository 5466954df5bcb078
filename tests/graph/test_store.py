"""Tests for the in-memory property graph store."""

import pytest

from repro.graph import (
    GraphIntegrityError,
    NodeInUseError,
    NodeNotFoundError,
    PropertyGraph,
    RelationshipNotFoundError,
)


@pytest.fixture
def graph():
    return PropertyGraph("test")


class TestNodeLifecycle:
    def test_create_node_assigns_increasing_ids(self, graph):
        a = graph.create_node()
        b = graph.create_node()
        assert b.id > a.id
        assert graph.node_count() == 2

    def test_create_node_with_labels_and_properties(self, graph):
        node = graph.create_node(["Patient", "IcuPatient"], {"ssn": "X1"})
        assert node.labels == frozenset({"Patient", "IcuPatient"})
        assert node.properties["ssn"] == "X1"
        assert graph.node(node.id) == node

    def test_create_node_with_explicit_id(self, graph):
        node = graph.create_node(node_id=42)
        assert node.id == 42
        later = graph.create_node()
        assert later.id > 42

    def test_create_node_duplicate_id_rejected(self, graph):
        graph.create_node(node_id=3)
        with pytest.raises(GraphIntegrityError):
            graph.create_node(node_id=3)

    def test_explicit_ids_out_of_order_raise_the_high_water_mark(self, graph):
        for node_id in (5, 2, 9):
            graph.create_node(node_id=node_id)
        assert graph.create_node().id == 10

    def test_lower_explicit_id_never_rewinds_the_counter(self, graph):
        for _ in range(5):
            graph.create_node()
        graph.delete_node(4)
        graph.delete_node(1)
        graph.create_node(node_id=1)
        assert graph.create_node().id == 5

    def test_missing_node_raises(self, graph):
        with pytest.raises(NodeNotFoundError):
            graph.node(99)

    def test_delete_node(self, graph):
        node = graph.create_node(["A"])
        removed = graph.delete_node(node.id)
        assert removed.id == node.id
        assert not graph.has_node(node.id)
        assert graph.count_nodes_with_label("A") == 0

    def test_delete_node_with_relationships_requires_detach(self, graph):
        a = graph.create_node()
        b = graph.create_node()
        graph.create_relationship("R", a.id, b.id)
        with pytest.raises(NodeInUseError):
            graph.delete_node(a.id)
        graph.delete_node(a.id, detach=True)
        assert graph.relationship_count() == 0


class TestRelationshipLifecycle:
    def test_create_relationship(self, graph):
        a = graph.create_node()
        b = graph.create_node()
        rel = graph.create_relationship("TreatedAt", a.id, b.id, {"since": 2020})
        assert rel.start == a.id and rel.end == b.id
        assert graph.relationship(rel.id).properties["since"] == 2020
        assert graph.count_relationships_with_type("TreatedAt") == 1

    def test_relationship_requires_existing_endpoints(self, graph):
        a = graph.create_node()
        with pytest.raises(NodeNotFoundError):
            graph.create_relationship("R", a.id, 99)

    def test_relationship_requires_type(self, graph):
        a = graph.create_node()
        b = graph.create_node()
        with pytest.raises(GraphIntegrityError):
            graph.create_relationship("", a.id, b.id)

    def test_delete_relationship(self, graph):
        a = graph.create_node()
        b = graph.create_node()
        rel = graph.create_relationship("R", a.id, b.id)
        graph.delete_relationship(rel.id)
        assert not graph.has_relationship(rel.id)
        with pytest.raises(RelationshipNotFoundError):
            graph.relationship(rel.id)
        assert graph.degree(a.id) == 0

    def test_explicit_rel_ids_out_of_order_raise_the_high_water_mark(self, graph):
        a = graph.create_node()
        for rel_id in (5, 2, 9):
            graph.create_relationship("R", a.id, a.id, rel_id=rel_id)
        assert graph.create_relationship("R", a.id, a.id).id == 10

    def test_lower_explicit_rel_id_never_rewinds_the_counter(self, graph):
        a = graph.create_node()
        for _ in range(5):
            graph.create_relationship("R", a.id, a.id)
        graph.delete_relationship(4)
        graph.delete_relationship(1)
        graph.create_relationship("R", a.id, a.id, rel_id=1)
        assert graph.create_relationship("R", a.id, a.id).id == 5


class TestLabelsAndProperties:
    def test_add_and_remove_label_updates_index(self, graph):
        node = graph.create_node(["Patient"])
        graph.add_label(node.id, "IcuPatient")
        assert graph.count_nodes_with_label("IcuPatient") == 1
        graph.remove_label(node.id, "IcuPatient")
        assert graph.count_nodes_with_label("IcuPatient") == 0

    def test_add_existing_label_is_noop(self, graph):
        node = graph.create_node(["A"])
        old, new = graph.add_label(node.id, "A")
        assert old is new

    def test_set_and_remove_node_property(self, graph):
        node = graph.create_node(["A"])
        graph.set_node_property(node.id, "x", 1)
        assert graph.node(node.id).properties["x"] == 1
        graph.remove_node_property(node.id, "x")
        assert "x" not in graph.node(node.id).properties

    def test_set_property_none_removes(self, graph):
        node = graph.create_node(["A"], {"x": 1})
        graph.set_node_property(node.id, "x", None)
        assert "x" not in graph.node(node.id).properties

    def test_set_relationship_property(self, graph):
        a = graph.create_node()
        b = graph.create_node()
        rel = graph.create_relationship("R", a.id, b.id)
        graph.set_relationship_property(rel.id, "distance", 12)
        assert graph.relationship(rel.id).properties["distance"] == 12
        graph.remove_relationship_property(rel.id, "distance")
        assert "distance" not in graph.relationship(rel.id).properties

    def test_snapshots_are_immutable_across_updates(self, graph):
        node = graph.create_node(["A"], {"x": 1})
        before = graph.node(node.id)
        graph.set_node_property(node.id, "x", 2)
        assert before.properties["x"] == 1
        assert graph.node(node.id).properties["x"] == 2


class TestTraversal:
    def test_relationships_of_directions(self, graph):
        a = graph.create_node()
        b = graph.create_node()
        out_rel = graph.create_relationship("OUT", a.id, b.id)
        in_rel = graph.create_relationship("IN", b.id, a.id)
        assert {r.id for r in graph.relationships_of(a.id, "out")} == {out_rel.id}
        assert {r.id for r in graph.relationships_of(a.id, "in")} == {in_rel.id}
        assert {r.id for r in graph.relationships_of(a.id, "both")} == {out_rel.id, in_rel.id}

    def test_relationships_of_type_filter(self, graph):
        a = graph.create_node()
        b = graph.create_node()
        graph.create_relationship("X", a.id, b.id)
        keep = graph.create_relationship("Y", a.id, b.id)
        assert [r.id for r in graph.relationships_of(a.id, rel_type="Y")] == [keep.id]

    def test_neighbours_deduplicates(self, graph):
        a = graph.create_node()
        b = graph.create_node()
        graph.create_relationship("R", a.id, b.id)
        graph.create_relationship("R", a.id, b.id)
        assert [n.id for n in graph.neighbours(a.id)] == [b.id]

    def test_degree(self, graph):
        a = graph.create_node()
        b = graph.create_node()
        graph.create_relationship("R", a.id, b.id)
        assert graph.degree(a.id) == 1
        assert graph.degree(a.id, "in") == 0


class TestFindNodes:
    def test_find_by_label(self, graph):
        graph.create_node(["Hospital"], {"name": "Sacco"})
        graph.create_node(["Hospital"], {"name": "Meyer"})
        graph.create_node(["Region"], {"name": "Lombardy"})
        assert len(graph.find_nodes("Hospital")) == 2

    def test_find_by_label_and_properties(self, graph):
        graph.create_node(["Hospital"], {"name": "Sacco"})
        graph.create_node(["Hospital"], {"name": "Meyer"})
        found = graph.find_nodes("Hospital", {"name": "Sacco"})
        assert len(found) == 1
        assert found[0].properties["name"] == "Sacco"

    def test_find_without_label_scans_all(self, graph):
        graph.create_node(["A"], {"k": 1})
        graph.create_node(["B"], {"k": 1})
        assert len(graph.find_nodes(properties={"k": 1})) == 2

    def test_find_uses_property_index(self, graph):
        graph.create_property_index("Hospital", "name")
        graph.create_node(["Hospital"], {"name": "Sacco"})
        graph.create_node(["Hospital"], {"name": "Meyer"})
        found = graph.find_nodes("Hospital", {"name": "Meyer"})
        assert [n.properties["name"] for n in found] == ["Meyer"]

    def test_property_index_backfill_and_maintenance(self, graph):
        node = graph.create_node(["Hospital"], {"name": "Sacco"})
        graph.create_property_index("Hospital", "name")
        assert graph.find_nodes("Hospital", {"name": "Sacco"})[0].id == node.id
        graph.set_node_property(node.id, "name", "Niguarda")
        assert graph.find_nodes("Hospital", {"name": "Sacco"}) == []
        assert graph.find_nodes("Hospital", {"name": "Niguarda"})[0].id == node.id


class TestBulkOperations:
    def test_clear(self, graph):
        graph.create_property_index("A", "x")
        a = graph.create_node(["A"], {"x": 1})
        b = graph.create_node()
        graph.create_relationship("R", a.id, b.id)
        graph.clear()
        assert graph.node_count() == 0
        assert graph.relationship_count() == 0
        assert graph.property_indexes() == [("A", "x")]

    def test_copy_is_independent(self, graph):
        a = graph.create_node(["A"], {"x": 1})
        b = graph.create_node(["B"])
        graph.create_relationship("R", a.id, b.id)
        clone = graph.copy()
        clone.set_node_property(a.id, "x", 99)
        assert graph.node(a.id).properties["x"] == 1
        assert clone.node_count() == graph.node_count()
        assert clone.relationship_count() == graph.relationship_count()
