"""Tests for transactions: write capture, journal rollback, statement boundaries."""

import pytest

from repro.graph import PropertyGraph
from repro.tx import Transaction, TransactionState, TransactionStateError


@pytest.fixture
def graph():
    return PropertyGraph()


@pytest.fixture
def tx(graph):
    return Transaction(graph)


class TestWritesAndDelta:
    def test_create_node_recorded(self, tx):
        node = tx.create_node(["Alert"], {"desc": "x"})
        assert tx.graph.has_node(node.id)
        assert tx.statement_delta.created_node_ids() == {node.id}

    def test_create_relationship_recorded(self, tx):
        a = tx.create_node()
        b = tx.create_node()
        rel = tx.create_relationship("R", a.id, b.id)
        assert tx.statement_delta.created_relationship_ids() == {rel.id}

    def test_delete_node_detach_records_relationship_deletions(self, tx):
        a = tx.create_node()
        b = tx.create_node()
        rel = tx.create_relationship("R", a.id, b.id)
        tx.delete_node(a.id, detach=True)
        delta = tx.statement_delta
        assert rel.id in delta.deleted_relationship_ids()
        assert a.id in delta.deleted_node_ids()

    def test_label_changes_recorded(self, tx):
        node = tx.create_node(["Patient"])
        tx.add_label(node.id, "IcuPatient")
        tx.remove_label(node.id, "Patient")
        delta = tx.statement_delta
        assert delta.assigned_labels[0].label == "IcuPatient"
        assert delta.removed_labels[0].label == "Patient"

    def test_label_noop_not_recorded(self, tx):
        node = tx.create_node(["Patient"])
        tx.add_label(node.id, "Patient")
        assert not tx.statement_delta.assigned_labels

    def test_property_changes_recorded_with_old_and_new(self, tx):
        node = tx.create_node(["Lineage"], {"whoDesignation": "Indian"})
        tx.set_node_property(node.id, "whoDesignation", "Delta")
        assignment = tx.statement_delta.assigned_properties[0]
        assert assignment.old == "Indian"
        assert assignment.new == "Delta"

    def test_property_removal_recorded(self, tx):
        node = tx.create_node(["A"], {"x": 1})
        tx.remove_node_property(node.id, "x")
        removal = tx.statement_delta.removed_properties[0]
        assert removal.key == "x" and removal.old == 1

    def test_set_property_none_is_removal(self, tx):
        node = tx.create_node(["A"], {"x": 1})
        tx.set_node_property(node.id, "x", None)
        assert tx.statement_delta.removed_properties
        assert not tx.statement_delta.assigned_properties

    def test_relationship_property_changes(self, tx):
        a = tx.create_node()
        b = tx.create_node()
        rel = tx.create_relationship("R", a.id, b.id, {"w": 1})
        tx.set_relationship_property(rel.id, "w", 2)
        tx.remove_relationship_property(rel.id, "w")
        delta = tx.statement_delta
        assert delta.relationship_property_assignments()[0].new == 2
        assert delta.relationship_property_removals()[0].key == "w"


class TestStatementBoundaries:
    def test_end_statement_resets_statement_delta(self, tx):
        tx.create_node(["A"])
        first = tx.end_statement()
        assert len(first.created_nodes) == 1
        assert tx.statement_delta.is_empty()
        tx.create_node(["B"])
        assert len(tx.statement_delta.created_nodes) == 1

    def test_transaction_delta_accumulates(self, tx):
        tx.create_node(["A"])
        tx.end_statement()
        tx.create_node(["B"])
        assert len(tx.transaction_delta.created_nodes) == 2


class TestRollbackAndState:
    def test_rollback_restores_prior_state(self, graph):
        baseline = graph.create_node(["Hospital"], {"name": "Sacco", "icuBeds": 10})
        tx = Transaction(graph)
        created = tx.create_node(["Patient"])
        tx.create_relationship("TreatedAt", created.id, baseline.id)
        tx.set_node_property(baseline.id, "icuBeds", 5)
        tx.add_label(baseline.id, "Full")
        tx._rollback_changes()
        assert not graph.has_node(created.id)
        assert graph.relationship_count() == 0
        restored = graph.node(baseline.id)
        assert restored.properties["icuBeds"] == 10
        assert restored.labels == frozenset({"Hospital"})

    def test_rollback_restores_deleted_items(self, graph):
        a = graph.create_node(["A"], {"x": 1})
        b = graph.create_node(["B"])
        rel = graph.create_relationship("R", a.id, b.id, {"w": 2})
        tx = Transaction(graph)
        tx.delete_node(a.id, detach=True)
        tx._rollback_changes()
        assert graph.has_node(a.id)
        assert graph.node(a.id).properties["x"] == 1
        assert graph.has_relationship(rel.id)
        assert graph.relationship(rel.id).properties["w"] == 2

    def test_rollbacks_never_reissue_dead_node_ids(self, graph):
        for _ in range(10):
            graph.create_node()
        tx = Transaction(graph)
        assert tx.create_node().id == 10
        tx._rollback_changes()
        tx = Transaction(graph)
        tx.delete_node(3)
        tx._rollback_changes()  # re-inserts node 3 under its explicit id
        assert graph.create_node().id == 11

    def test_rollbacks_never_reissue_dead_relationship_ids(self, graph):
        a, b = graph.create_node(), graph.create_node()
        for _ in range(10):
            graph.create_relationship("R", a.id, b.id)
        tx = Transaction(graph)
        assert tx.create_relationship("R", a.id, b.id).id == 10
        tx._rollback_changes()
        tx = Transaction(graph)
        tx.delete_relationship(3)
        tx._rollback_changes()
        assert graph.create_relationship("R", a.id, b.id).id == 11

    def test_writes_rejected_after_commit(self, tx):
        tx._mark_committed()
        assert tx.state == TransactionState.COMMITTED
        with pytest.raises(TransactionStateError):
            tx.create_node()

    def test_write_count(self, tx):
        tx.create_node()
        tx.create_node()
        assert tx.write_count() == 2
