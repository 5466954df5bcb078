"""Recovery-on-open tests: sessions, checkpoints and the database facade.

These run the real code paths twice — write through a durable session,
close it, reopen the same directory — on both the real filesystem
(``tmp_path``) and the in-memory one, and assert the recovered engine is
indistinguishable from the survivor: graph contents, triggers, index
catalogs, statistics and plan-cache hygiene.
"""

from __future__ import annotations

import pytest

from repro.database import GraphDatabase
from repro.graph.serialization import fingerprint, graph_from_dict, graph_to_dict
from repro.graph.store import PropertyGraph
from repro.storage import DurableStore, MemoryIO, RecoveryError, TriggerState
from repro.triggers.session import GraphSession

ALERT_TRIGGER = """
    CREATE TRIGGER MutationAlert
    AFTER CREATE ON 'Mutation'
    FOR EACH NODE
    BEGIN
      CREATE (:Alert {desc: 'new mutation'})
    END
"""


@pytest.fixture(params=["file", "memory"])
def opener(request, tmp_path):
    """Factory yielding sessions over one persistent location per test."""
    if request.param == "file":
        directory = str(tmp_path / "db")
        return lambda **kw: GraphSession(path=directory, **kw)
    io = MemoryIO()
    return lambda **kw: GraphSession(path="/db", storage_io=io, **kw)


class TestReopen:
    def test_graph_and_triggers_survive_restart(self, opener):
        session = opener()
        session.run("CREATE (:Hospital {name: 'Sacco', icuBeds: 20})")
        session.create_trigger(ALERT_TRIGGER)
        session.run("CREATE (:Mutation {name: 'B.1.1.7'})")
        expected = fingerprint(session.graph)
        session.close()

        recovered = opener()
        assert fingerprint(recovered.graph) == expected
        assert [t.name for t in recovered.registry.ordered()] == ["MutationAlert"]
        # The reinstalled trigger is live, not just catalogued:
        recovered.run("CREATE (:Mutation {name: 'P.1'})")
        assert len(recovered.graph.nodes_with_label("Alert")) == 2
        recovered.close()

    def test_rolled_back_transactions_are_invisible(self, opener):
        session = opener()
        session.run("CREATE (:Hospital {name: 'Sacco'})")
        with pytest.raises(RuntimeError):
            with session.transaction():
                session.run("CREATE (:Hospital {name: 'Ghost'})")
                raise RuntimeError("abort")
        expected = fingerprint(session.graph)
        session.close()

        recovered = opener()
        assert fingerprint(recovered.graph) == expected
        assert recovered.graph.find_nodes("Hospital", {"name": "Ghost"}) == []
        recovered.close()

    def test_indexes_and_statistics_rebuild(self, opener):
        session = opener()
        for i in range(5):
            session.run(f"CREATE (:Hospital {{name: 'H{i}', beds: {10 + i}}})")
        session.graph.create_property_index("Hospital", "name")
        session.graph.create_range_index("Hospital", "beds")
        session.close()

        recovered = opener()
        assert recovered.graph.property_indexes() == [("Hospital", "name")]
        assert recovered.graph.range_indexes() == [("Hospital", "beds")]
        # Index actually answers lookups (rebuilt, not just declared):
        hits = recovered.graph.find_nodes("Hospital", {"name": "H3"})
        assert [n.properties["beds"] for n in hits] == [13]
        assert recovered.graph.count_nodes_with_label("Hospital") == 5
        sel = recovered.graph.property_index_selectivity("Hospital", "name")
        assert sel == 1.0
        recovered.close()

    def test_recovered_graph_gets_fresh_plan_token(self, opener):
        session = opener()
        session.run("CREATE (:Hospital)")
        token = session.graph.plan_token
        session.close()

        recovered = opener()
        assert recovered.graph.plan_token != token
        recovered.close()

    def test_trigger_enabled_state_survives(self, opener):
        session = opener()
        session.create_trigger(ALERT_TRIGGER)
        session.stop_trigger("MutationAlert")
        session.close()

        recovered = opener()
        trigger = recovered.registry.ordered()[0]
        assert trigger.enabled is False
        recovered.run("CREATE (:Mutation {name: 'quiet'})")
        assert recovered.graph.nodes_with_label("Alert") == []
        recovered.start_trigger("MutationAlert")
        recovered.close()

        third = opener()
        assert third.registry.ordered()[0].enabled is True
        third.close()

    def test_dropped_trigger_stays_dropped(self, opener):
        session = opener()
        session.create_trigger(ALERT_TRIGGER)
        session.drop_trigger("MutationAlert")
        session.close()

        recovered = opener()
        assert recovered.registry.ordered() == []
        recovered.close()


class TestCheckpoint:
    def test_checkpoint_truncates_the_wal(self, opener):
        session = opener()
        for i in range(3):
            session.run(f"CREATE (:Item {{seq: {i}}})")
        assert session.store.records_since_checkpoint == 3
        session.checkpoint()
        assert session.store.records_since_checkpoint == 0
        assert session.store.wal.scan().records == []
        expected = fingerprint(session.graph)
        session.close()

        recovered = opener()
        assert recovered.recovery.snapshot_loaded is True
        assert recovered.recovery.replayed_records == 0
        assert fingerprint(recovered.graph) == expected
        recovered.close()

    def test_wal_suffix_replays_over_snapshot(self, opener):
        session = opener()
        session.run("CREATE (:Item {seq: 0})")
        session.checkpoint()
        session.run("CREATE (:Item {seq: 1})")
        expected = fingerprint(session.graph)
        session.close()

        recovered = opener()
        assert recovered.recovery.snapshot_loaded is True
        assert recovered.recovery.replayed_records == 1
        assert fingerprint(recovered.graph) == expected
        recovered.close()

    def test_auto_checkpoint_fires_on_threshold(self, opener):
        session = opener(checkpoint_every=2)
        session.run("CREATE (:Item {seq: 0})")
        assert session.store.records_since_checkpoint == 1
        session.run("CREATE (:Item {seq: 1})")
        assert session.store.records_since_checkpoint == 0  # checkpointed
        session.run("CREATE (:Item {seq: 2})")
        expected = fingerprint(session.graph)
        session.close()

        recovered = opener()
        assert recovered.recovery.snapshot_loaded is True
        assert recovered.recovery.replayed_records == 1
        assert fingerprint(recovered.graph) == expected
        recovered.close()

    def test_checkpoint_requires_no_open_transaction(self, opener):
        session = opener()
        with pytest.raises(RuntimeError, match="transaction is open"):
            with session.transaction():
                session.checkpoint()
        session.close()

    def test_checkpoint_on_in_memory_session_raises(self):
        session = GraphSession()
        with pytest.raises(RuntimeError, match="in-memory"):
            session.checkpoint()


class TestIdRoundTrip:
    """Every route that restores ids keeps them, gaps included."""

    @pytest.mark.parametrize("route", ["dict", "copy", "wal"])
    def test_ids_with_gaps_survive_and_allocation_resumes_after_max(self, opener, route):
        session = opener()
        session.run("UNWIND range(0, 7) AS i CREATE (:Item {seq: i})")
        session.run("MATCH (a:Item), (b:Item) WHERE b.seq = a.seq + 1 CREATE (a)-[:NEXT]->(b)")
        session.run("MATCH (n:Item) WHERE n.seq IN [2, 5] DETACH DELETE n")
        session.run("CREATE (:Item {seq: 8})")
        session.run("MATCH (a:Item {seq: 8}), (b:Item {seq: 0}) CREATE (a)-[:NEXT]->(b)")
        survivor = session.graph
        node_ids = sorted(n.id for n in survivor.nodes())
        rel_ids = sorted(r.id for r in survivor.relationships())
        assert node_ids != list(range(len(node_ids)))
        assert rel_ids != list(range(len(rel_ids)))

        if route == "dict":
            restored = graph_from_dict(graph_to_dict(survivor))
        elif route == "copy":
            restored = survivor.copy()
        session.close()
        if route == "wal":
            reopened = opener()
            assert reopened.recovery.replayed_records == 5
            restored = reopened.graph

        assert sorted(n.id for n in restored.nodes()) == node_ids
        assert sorted(r.id for r in restored.relationships()) == rel_ids
        assert fingerprint(restored) == fingerprint(survivor)
        anchor = restored.create_node()
        assert anchor.id == node_ids[-1] + 1
        assert restored.create_relationship("NEXT", anchor.id, anchor.id).id == rel_ids[-1] + 1
        if route == "wal":
            reopened.close()


class TestDurableStoreEdges:
    def test_corrupt_snapshot_is_rejected(self):
        io = MemoryIO()
        store = DurableStore("/db", io=io)
        store.open()
        store.checkpoint(PropertyGraph(), [])
        data = bytearray(io.read_bytes("/db/snapshot.json"))
        data[len(data) // 2] ^= 0xFF
        io.write_bytes("/db/snapshot.json", bytes(data))
        with pytest.raises(RecoveryError):
            DurableStore("/db", io=io).open()

    def test_stale_snapshot_tmp_is_discarded(self):
        io = MemoryIO()
        store = DurableStore("/db", io=io)
        store.open()
        graph = PropertyGraph()
        graph.create_node(["A"])
        store.checkpoint(graph, [])
        io.write_bytes("/db/snapshot.json.tmp", b"half-written garbage")
        recovered = DurableStore("/db", io=io).open()
        assert not io.exists("/db/snapshot.json.tmp")
        assert recovered.graph.node_count() == 1

    def test_lsn_filter_skips_records_covered_by_snapshot(self):
        # Simulate a crash after the snapshot rename but before the WAL
        # reset: the full WAL coexists with a snapshot that covers it.
        io = MemoryIO()
        store = DurableStore("/db", io=io)
        state = store.open()
        with_node = state.graph
        with_node.create_node(["A"], {"x": 1})
        store.log_transaction(_delta_for(with_node))
        wal_bytes = io.read_bytes("/db/wal.log")
        store.checkpoint(with_node, [])
        io.write_bytes("/db/wal.log", wal_bytes)  # resurrect the pre-reset WAL

        recovered = DurableStore("/db", io=io).open()
        assert recovered.replayed_records == 0  # LSN filter skipped it
        assert recovered.graph.node_count() == 1

    def test_trigger_states_round_trip_through_snapshot(self):
        io = MemoryIO()
        store = DurableStore("/db", io=io)
        store.open()
        states = [
            TriggerState("A", "CREATE TRIGGER A AFTER CREATE ON 'X' FOR EACH NODE BEGIN DELETE NEW END"),
            TriggerState("B", "source-b", enabled=False),
        ]
        store.checkpoint(PropertyGraph(), states)
        recovered = DurableStore("/db", io=io).open()
        assert recovered.triggers == states


class TestRetiredReachabilityRecords:
    """Stores written while reachability indexes existed still open the
    way each loader's general rule says, with no case of their own: the
    WAL rejects an index-DDL kind it does not know, and a snapshot's
    unknown keys are ignored."""

    QUERY = "MATCH (a {name: 'a'})-[:KNOWS*]->(b) RETURN b.name AS name"

    @staticmethod
    def chain():
        graph = PropertyGraph()
        ids = [graph.create_node(["Person"], {"name": name}).id for name in "abcd"]
        for start, end in zip(ids, ids[1:]):
            graph.create_relationship("KNOWS", start, end)
        return graph

    def test_wal_reachability_ddl_is_an_unknown_record(self):
        io = MemoryIO()
        store = DurableStore("/db", io=io)
        store.open()
        store.log_index("create", "reachability", "KNOWS", None)
        store.close()
        with pytest.raises(RecoveryError, match="unknown index DDL record"):
            DurableStore("/db", io=io).open()

    def test_wal_reachability_drop_is_an_unknown_record(self):
        io = MemoryIO()
        store = DurableStore("/db", io=io)
        store.open()
        store.log_index("drop", "reachability", "KNOWS", None)
        store.close()
        with pytest.raises(RecoveryError, match="unknown index DDL record"):
            DurableStore("/db", io=io).open()

    def test_snapshot_reachability_catalog_is_ignored(self, monkeypatch):
        from repro.cypher import execute

        graph = self.chain()
        expected = execute(graph, self.QUERY).rows
        assert [row["name"] for row in expected] == ["b", "c", "d"]

        def with_reachability_catalog(graph):
            payload = graph_to_dict(graph)
            payload["reachability_indexes"] = ["KNOWS"]
            return payload

        io = MemoryIO()
        store = DurableStore("/db", io=io)
        store.open()
        monkeypatch.setattr(
            "repro.storage.store.graph_to_dict", with_reachability_catalog
        )
        store.checkpoint(graph, [])
        monkeypatch.undo()
        assert b'"reachability_indexes":["KNOWS"]' in io.read_bytes("/db/snapshot.json")

        recovered = DurableStore("/db", io=io).open()
        assert recovered.snapshot_loaded
        assert fingerprint(recovered.graph) == fingerprint(graph)
        assert execute(recovered.graph, self.QUERY).rows == expected


def _delta_for(graph):
    """A delta describing 'the first node of ``graph`` was created'."""
    from repro.graph.delta import GraphDelta

    delta = GraphDelta()
    delta.record_node_created(next(graph.nodes()))
    return delta


class TestSessionGuards:
    def test_path_and_graph_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            GraphSession(graph=PropertyGraph(), path="/db", storage_io=MemoryIO())

    def test_flush_requires_durable_session(self):
        with pytest.raises(RuntimeError, match="in-memory"):
            GraphSession().flush()

    def test_close_is_a_noop_in_memory(self):
        session = GraphSession()
        session.close()  # must not raise

    def test_context_manager_closes(self):
        io = MemoryIO()
        with GraphSession(path="/db", storage_io=io) as session:
            session.run("CREATE (:A)")
        with GraphSession(path="/db", storage_io=io) as recovered:
            assert recovered.graph.node_count() == 1

    def test_group_commit_defers_durability(self):
        io = MemoryIO()
        session = GraphSession(path="/db", storage_io=io, group_commit_size=10)
        session.run("CREATE (:A)")
        assert session.store.wal.unsynced_appends == 1
        session.flush()
        assert session.store.wal.unsynced_appends == 0
        session.close()


class TestGraphDatabaseFacade:
    def test_durable_database_round_trips_graphs(self, tmp_path):
        directory = str(tmp_path / "catalog")
        with GraphDatabase(path=directory) as db:
            db.graph("covid").run("CREATE (:Hospital {name: 'Sacco'})")
            db.graph("energy").run("CREATE (:Meter {kwh: 3})")
            assert sorted(db.list_graphs()) == ["covid", "energy"]

        with GraphDatabase(path=directory) as db:
            assert db.has_graph("covid") and db.has_graph("energy")
            assert sorted(db.list_graphs()) == ["covid", "energy"]
            assert db.graph("covid").graph.node_count() == 1
            assert db.graph("energy").graph.node_count() == 1

    def test_checkpoint_all_open_sessions(self, tmp_path):
        with GraphDatabase(path=str(tmp_path / "db")) as db:
            db.graph("a").run("CREATE (:X)")
            db.checkpoint()
            assert db.graph("a").store.records_since_checkpoint == 0

    def test_drop_graph_deletes_persisted_state(self, tmp_path):
        directory = str(tmp_path / "db")
        with GraphDatabase(path=directory) as db:
            db.graph("doomed").run("CREATE (:X)")
        with GraphDatabase(path=directory) as db:
            db.drop_graph("doomed")
            assert not db.has_graph("doomed")
        with GraphDatabase(path=directory) as db:
            assert not db.has_graph("doomed")

    def test_durable_names_must_be_filesystem_safe(self, tmp_path):
        with GraphDatabase(path=str(tmp_path / "db")) as db:
            with pytest.raises(ValueError, match="directory name"):
                db.create_graph("../escape")

    def test_durable_database_rejects_adopted_graphs(self, tmp_path):
        with GraphDatabase(path=str(tmp_path / "db")) as db:
            with pytest.raises(ValueError, match="adopt"):
                db.create_graph("g", graph=PropertyGraph())

    def test_in_memory_database_unchanged(self):
        db = GraphDatabase()
        assert db.durable is False
        db.graph("g").run("CREATE (:X)")
        assert db.list_graphs() == ["g"]
        db.close()  # no-op
