"""Tests for the transaction manager: commit/rollback, hooks, abort."""

import pytest

from repro.graph import GraphDelta, PropertyGraph
from repro.tx import TransactionAborted, TransactionManager, TransactionStateError


@pytest.fixture
def graph():
    return PropertyGraph()


@pytest.fixture
def manager(graph):
    return TransactionManager(graph)


class TestCommitRollback:
    def test_commit_returns_full_delta(self, manager):
        tx = manager.begin()
        tx.create_node(["A"])
        manager.end_statement(tx)
        tx.create_node(["B"])
        delta = manager.commit(tx)
        assert len(delta.created_nodes) == 2
        assert manager.committed_count == 1

    def test_rollback_undoes_changes(self, manager, graph):
        tx = manager.begin()
        tx.create_node(["A"])
        manager.rollback(tx)
        assert graph.node_count() == 0
        assert manager.rolled_back_count == 1

    def test_commit_twice_rejected(self, manager):
        tx = manager.begin()
        manager.commit(tx)
        with pytest.raises(TransactionStateError):
            manager.commit(tx)

    def test_rollback_after_rollback_is_noop(self, manager):
        tx = manager.begin()
        manager.rollback(tx)
        manager.rollback(tx)  # does not raise
        assert manager.rolled_back_count == 1

    def test_context_manager_commits(self, manager, graph):
        with manager.transaction() as tx:
            tx.create_node(["A"])
        assert graph.node_count() == 1
        assert manager.committed_count == 1

    def test_context_manager_rolls_back_on_error(self, manager, graph):
        with pytest.raises(RuntimeError):
            with manager.transaction() as tx:
                tx.create_node(["A"])
                raise RuntimeError("boom")
        assert graph.node_count() == 0

    def test_transaction_metadata(self, manager):
        tx = manager.begin(metadata={"source": "trigger"})
        assert tx.metadata["source"] == "trigger"


class TestHooks:
    def test_statement_hooks_fire_on_nonempty_delta(self, manager):
        seen = []
        manager.add_statement_hook(lambda tx, delta: seen.append(delta.summary()))
        tx = manager.begin()
        manager.end_statement(tx)  # empty: no hook
        tx.create_node(["A"])
        manager.end_statement(tx)
        assert len(seen) == 1
        assert seen[0]["created_nodes"] == 1

    def test_before_commit_hook_sees_whole_delta_and_may_write(self, manager, graph):
        def hook(tx, delta):
            if delta.created_nodes and not tx.metadata.get("hooked"):
                tx.metadata["hooked"] = True
                tx.create_node(["Alert"])

        manager.add_before_commit_hook(hook)
        tx = manager.begin()
        tx.create_node(["Patient"])
        delta = manager.commit(tx)
        assert graph.count_nodes_with_label("Alert") == 1
        # hook writes are part of the committed delta
        labels = {label for node in delta.created_nodes for label in node.labels}
        assert labels == {"Patient", "Alert"}

    def test_hook_delta_is_a_snapshot_of_the_time_it_was_handed_over(self, manager):
        """The folded delta is shared, not copied — so it must never be mutated."""
        received = []

        def writing_hook(tx, delta):
            received.append((delta, delta.summary()))
            tx.create_node(["Alert"])

        manager.add_before_commit_hook(writing_hook)
        manager.add_before_commit_hook(lambda tx, delta: received.append((delta, delta.summary())))
        tx = manager.begin()
        tx.create_node(["Patient"])
        committed = manager.commit(tx)
        (first, first_summary), (second, second_summary) = received
        assert first_summary["created_nodes"] == 1
        assert first.summary() == first_summary  # untouched by the hook's own write
        assert second_summary["created_nodes"] == 2  # the next hook sees that write
        assert committed.summary() == second_summary

    def test_commit_without_writes_copies_nothing(self, manager, monkeypatch):
        merges = []
        merge = GraphDelta.merge
        monkeypatch.setattr(
            GraphDelta, "merge", lambda self, other: merges.append(1) or merge(self, other)
        )
        manager.add_before_commit_hook(lambda tx, delta: None)
        manager.add_after_commit_hook(lambda tx, delta: None)
        delta = manager.commit(manager.begin())
        assert delta.is_empty()
        assert merges == []

    def test_before_commit_hook_can_abort(self, manager, graph):
        def hook(tx, delta):
            raise TransactionAborted("constraint violated")

        manager.add_before_commit_hook(hook)
        tx = manager.begin()
        tx.create_node(["Patient"])
        with pytest.raises(TransactionAborted):
            manager.commit(tx)
        assert graph.node_count() == 0
        assert manager.rolled_back_count == 1

    def test_after_commit_hook_receives_committed_delta(self, manager):
        received = []
        manager.add_after_commit_hook(lambda tx, delta: received.append(delta))
        tx = manager.begin()
        tx.create_node(["Patient"])
        manager.commit(tx)
        assert len(received) == 1
        assert len(received[0].created_nodes) == 1

    def test_remove_hook(self, manager):
        calls = []
        hook = lambda tx, delta: calls.append(1)  # noqa: E731
        manager.add_after_commit_hook(hook)
        manager.remove_hook(hook)
        tx = manager.begin()
        tx.create_node()
        manager.commit(tx)
        assert calls == []
