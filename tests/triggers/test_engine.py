"""Tests for the trigger engine semantics via GraphSession.

Covers the dimensions of Section 4.2: action times, granularities,
transition variables, ordering, cascading and the recursion safety net.
"""

import datetime

import pytest

from repro.triggers import GraphSession, TriggerExecutionError, TriggerRecursionError
from repro.triggers import engine as engine_module
from repro.tx import TransactionAborted

CLOCK = lambda: datetime.datetime(2021, 3, 14, 12, 0, 0)  # noqa: E731


@pytest.fixture
def session():
    return GraphSession(clock=CLOCK)


class TestSimpleReactions:
    def test_after_create_node_trigger(self, session):
        session.create_trigger("""
            CREATE TRIGGER OnPatient AFTER CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:Alert {desc: 'new patient', ssn: NEW.ssn, time: datetime()}) END
        """)
        session.run("CREATE (:Patient {ssn: 'P1'})")
        alerts = session.alerts()
        assert len(alerts) == 1
        assert alerts[0]["ssn"] == "P1"
        assert alerts[0]["time"] == CLOCK()

    def test_condition_filters_activations(self, session):
        session.create_trigger("""
            CREATE TRIGGER OnlyVaccinated AFTER CREATE ON 'Patient' FOR EACH NODE
            WHEN NEW.vaccinated > 0
            BEGIN CREATE (:Alert {desc: 'vaccinated patient'}) END
        """)
        session.run("CREATE (:Patient {ssn: 'P1', vaccinated: 0})")
        session.run("CREATE (:Patient {ssn: 'P2', vaccinated: 2})")
        assert len(session.alerts()) == 1

    def test_each_granularity_fires_per_item(self, session):
        session.create_trigger("""
            CREATE TRIGGER PerItem AFTER CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:Alert {ssn: NEW.ssn}) END
        """)
        session.run("UNWIND ['A', 'B', 'C'] AS s CREATE (:Patient {ssn: s})")
        assert sorted(a["ssn"] for a in session.alerts()) == ["A", "B", "C"]

    def test_all_granularity_fires_once_per_statement(self, session):
        session.create_trigger("""
            CREATE TRIGGER PerStatement AFTER CREATE ON 'Patient' FOR ALL NODES
            BEGIN CREATE (:Alert {count: size(NEWNODES)}) END
        """)
        session.run("UNWIND ['A', 'B', 'C'] AS s CREATE (:Patient {ssn: s})")
        alerts = session.alerts()
        assert len(alerts) == 1
        assert alerts[0]["count"] == 3

    def test_relationship_trigger_with_pattern_condition(self, session):
        session.create_trigger("""
            CREATE TRIGGER NewCriticalLineage AFTER CREATE ON 'BelongsTo' FOR EACH RELATIONSHIP
            WHEN
              MATCH (s:Sequence)-[NEW]-(l:Lineage)
              WHERE EXISTS { MATCH (:CriticalEffect)-[:Risk]-(:Mutation)-[:FoundIn]-(s) }
            BEGIN
              CREATE (:Alert {desc: 'New critical lineage', lineage: l.name})
            END
        """)
        session.run("CREATE (:Mutation {name: 'Spike:D614G'})-[:Risk]->(:CriticalEffect {description: 'infectivity'})")
        session.run("MATCH (m:Mutation) CREATE (m)-[:FoundIn]->(:Sequence {accession: 'S1'})")
        session.run("CREATE (:Lineage {name: 'B.1.1.7'})")
        # relationship created last: sequence S1 belongs to the lineage
        session.run(
            "MATCH (s:Sequence {accession: 'S1'}), (l:Lineage {name: 'B.1.1.7'}) "
            "CREATE (s)-[:BelongsTo]->(l)"
        )
        alerts = session.alerts()
        assert len(alerts) == 1
        assert alerts[0]["lineage"] == "B.1.1.7"
        # a sequence with no critical mutation does not raise an alert
        session.run("CREATE (:Sequence {accession: 'S2'})")
        session.run(
            "MATCH (s:Sequence {accession: 'S2'}), (l:Lineage {name: 'B.1.1.7'}) "
            "CREATE (s)-[:BelongsTo]->(l)"
        )
        assert len(session.alerts()) == 1

    def test_property_set_trigger_old_new(self, session):
        session.create_trigger("""
            CREATE TRIGGER WhoDesignationChange AFTER SET ON 'Lineage'.'whoDesignation' FOR EACH NODE
            WHEN OLD.whoDesignation <> NEW.whoDesignation
            BEGIN CREATE (:Alert {desc: 'New designation', before: OLD.whoDesignation, after: NEW.whoDesignation}) END
        """)
        session.run("CREATE (:Lineage {name: 'B.1.617.2', whoDesignation: 'Indian'})")
        session.run("MATCH (l:Lineage {name: 'B.1.617.2'}) SET l.whoDesignation = 'Delta'")
        alerts = session.alerts()
        assert len(alerts) == 1
        assert alerts[0]["before"] == "Indian"
        assert alerts[0]["after"] == "Delta"
        # setting the same value again does not fire (condition is false)
        session.run("MATCH (l:Lineage {name: 'B.1.617.2'}) SET l.whoDesignation = 'Delta'")
        assert len(session.alerts()) == 1

    def test_delete_trigger_uses_old(self, session):
        session.create_trigger("""
            CREATE TRIGGER PatientGone AFTER DELETE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:Alert {desc: 'patient removed', ssn: OLD.ssn}) END
        """)
        session.run("CREATE (:Patient {ssn: 'P1'})")
        session.run("MATCH (p:Patient {ssn: 'P1'}) DETACH DELETE p")
        assert session.alerts()[0]["ssn"] == "P1"

    def test_remove_property_trigger(self, session):
        session.create_trigger("""
            CREATE TRIGGER PrognosisCleared AFTER REMOVE ON 'Patient'.'prognosis' FOR EACH NODE
            BEGIN CREATE (:Alert {was: OLD.prognosis}) END
        """)
        session.run("CREATE (:Patient {ssn: 'P1', prognosis: 'severe'})")
        session.run("MATCH (p:Patient {ssn: 'P1'}) REMOVE p.prognosis")
        assert session.alerts()[0]["was"] == "severe"

    def test_referencing_aliases(self, session):
        session.create_trigger("""
            CREATE TRIGGER Renamed AFTER SET ON 'Lineage'.'whoDesignation'
            REFERENCING OLD AS previous, NEW AS updated
            FOR EACH NODE
            WHEN previous.whoDesignation <> updated.whoDesignation
            BEGIN CREATE (:Alert {before: previous.whoDesignation, after: updated.whoDesignation}) END
        """)
        session.run("CREATE (:Lineage {whoDesignation: 'Indian', name: 'x'})")
        session.run("MATCH (l:Lineage) SET l.whoDesignation = 'Delta'")
        assert session.alerts()[0]["after"] == "Delta"


class TestSetGranularityConditions:
    def seed_hospital(self, session, patients=3, beds=5):
        session.run("CREATE (:Hospital {name: 'Sacco', icuBeds: $beds})", {"beds": beds})
        for i in range(patients):
            session.run(
                "MATCH (h:Hospital {name: 'Sacco'}) "
                "CREATE (:Patient:HospitalizedPatient:IcuPatient {ssn: $ssn})-[:TreatedAt]->(h)",
                {"ssn": f"P{i}"},
            )

    def test_threshold_trigger_with_aggregate_condition(self, session):
        session.create_trigger("""
            CREATE TRIGGER IcuPatientsOverThreshold AFTER CREATE ON 'IcuPatient' FOR ALL NODES
            WHEN
              MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'})
              WITH count(DISTINCT p) AS icuPat
              WHERE icuPat > 3
            BEGIN
              CREATE (:Alert {desc: 'ICU patients at Sacco Hospital are more than 3'})
            END
        """)
        self.seed_hospital(session, patients=3)
        assert session.alerts() == []  # exactly 3: not over threshold
        session.run(
            "MATCH (h:Hospital {name: 'Sacco'}) "
            "CREATE (:Patient:HospitalizedPatient:IcuPatient {ssn: 'P99'})-[:TreatedAt]->(h)"
        )
        assert len(session.alerts()) == 1

    def test_newnodes_virtual_label_in_condition(self, session):
        self.seed_hospital(session, patients=2)
        session.create_trigger("""
            CREATE TRIGGER IcuPatientIncrease AFTER CREATE ON 'IcuPatient' FOR ALL NODES
            WHEN
              MATCH (p:HospitalizedPatient:IcuPatient)-[:TreatedAt]-(:Hospital {name: 'Sacco'})
              MATCH (pn:NEWNODES)
              WITH count(DISTINCT pn) AS newIcu, count(DISTINCT p) AS totalIcu
              WHERE newIcu * 1.0 / totalIcu > 0.5
            BEGIN
              CREATE (:Alert {desc: 'ICU patients increased by more than 50%', new: newIcu, total: totalIcu})
            END
        """)
        session.engine.clear_firings()
        # admitting 3 new patients at once: 3 new / 5 total > 50%
        session.run(
            "MATCH (h:Hospital {name: 'Sacco'}) "
            "UNWIND ['N1', 'N2', 'N3'] AS s "
            "CREATE (:Patient:HospitalizedPatient:IcuPatient {ssn: s})-[:TreatedAt]->(h)"
        )
        alerts = session.alerts()
        assert len(alerts) == 1
        assert alerts[0]["new"] == 3
        assert alerts[0]["total"] == 5


class TestActionTimes:
    def test_before_trigger_conditions_new_state(self, session):
        session.create_trigger("""
            CREATE TRIGGER NormalisePrognosis BEFORE CREATE ON 'Patient' FOR EACH NODE
            WHEN NEW.prognosis IS NULL
            BEGIN MATCH (p:NEW) SET p.prognosis = 'unknown' END
        """)
        session.run("CREATE (:Patient {ssn: 'P1'})")
        session.run("CREATE (:Patient {ssn: 'P2', prognosis: 'mild'})")
        rows = {p.properties["ssn"]: p.properties["prognosis"]
                for p in session.graph.nodes_with_label("Patient")}
        assert rows == {"P1": "unknown", "P2": "mild"}

    def test_before_runs_before_after(self, session):
        order = []
        session.create_trigger("""
            CREATE TRIGGER A1 AFTER CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:Log {phase: 'after', prognosis: NEW.prognosis}) END
        """)
        session.create_trigger("""
            CREATE TRIGGER B1 BEFORE CREATE ON 'Patient' FOR EACH NODE
            WHEN NEW.prognosis IS NULL
            BEGIN MATCH (p:NEW) SET p.prognosis = 'unknown' END
        """)
        session.run("CREATE (:Patient {ssn: 'P1'})")
        logs = session.graph.nodes_with_label("Log")
        # the AFTER trigger observes the value written by the BEFORE trigger
        assert logs[0].properties["prognosis"] == "unknown"
        del order

    def test_oncommit_sees_whole_transaction(self, session):
        session.create_trigger("""
            CREATE TRIGGER CommitSummary ONCOMMIT CREATE ON 'Patient' FOR ALL NODES
            BEGIN CREATE (:Alert {desc: 'admissions committed', count: size(NEWNODES)}) END
        """)
        with session.transaction():
            session.run("CREATE (:Patient {ssn: 'P1'})")
            session.run("CREATE (:Patient {ssn: 'P2'})")
            # not yet fired inside the transaction
            assert session.alerts() == []
        alerts = session.alerts()
        assert len(alerts) == 1
        assert alerts[0]["count"] == 2

    def test_oncommit_can_abort_transaction(self, session):
        session.create_trigger("""
            CREATE TRIGGER RejectUnknownPatients ONCOMMIT CREATE ON 'Patient' FOR EACH NODE
            WHEN NEW.ssn IS NULL
            BEGIN CALL db.abort('patients must have an ssn') END
        """)
        session.run("CREATE (:Patient {ssn: 'P1'})")
        with pytest.raises(TransactionAborted):
            session.run("CREATE (:Patient {name: 'anonymous'})")
        # the aborted transaction left no trace
        assert session.graph.count_nodes_with_label("Patient") == 1

    def test_detached_trigger_runs_after_commit_in_new_transaction(self, session):
        session.create_trigger("""
            CREATE TRIGGER AuditAdmission DETACHED CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:AuditEntry {ssn: NEW.ssn}) END
        """)
        session.run("CREATE (:Patient {ssn: 'P1'})")
        assert session.graph.count_nodes_with_label("AuditEntry") == 1
        assert session.manager.committed_count == 2  # user tx + autonomous tx

    def test_detached_not_run_when_transaction_aborts(self, session):
        session.create_trigger("""
            CREATE TRIGGER RejectAll ONCOMMIT CREATE ON 'Patient' FOR EACH NODE
            BEGIN CALL db.abort('no patients today') END
        """)
        session.create_trigger("""
            CREATE TRIGGER Audit DETACHED CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:AuditEntry {ssn: NEW.ssn}) END
        """)
        with pytest.raises(TransactionAborted):
            session.run("CREATE (:Patient {ssn: 'P1'})")
        assert session.graph.count_nodes_with_label("AuditEntry") == 0


class TestOrderingAndCascading:
    def test_creation_time_ordering(self, session):
        session.create_trigger("""
            CREATE TRIGGER Second AFTER CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:Log {order: 'first-installed'}) END
        """)
        session.create_trigger("""
            CREATE TRIGGER First AFTER CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:Log {order: 'second-installed'}) END
        """)
        session.run("CREATE (:Patient {ssn: 'P1'})")
        logs = [f for f in session.engine.firings if f.executed]
        assert [f.trigger_name for f in logs] == ["Second", "First"]

    def test_cascading_chain(self, session):
        session.create_trigger("""
            CREATE TRIGGER RaiseAlert AFTER CREATE ON 'Mutation' FOR EACH NODE
            BEGIN CREATE (:Alert {desc: 'mutation seen', mutation: NEW.name}) END
        """)
        session.create_trigger("""
            CREATE TRIGGER EscalateAlert AFTER CREATE ON 'Alert' FOR EACH NODE
            WHEN NEW.mutation IS NOT NULL
            BEGIN CREATE (:Escalation {target: NEW.mutation}) END
        """)
        session.run("CREATE (:Mutation {name: 'Spike:D614G'})")
        assert session.graph.count_nodes_with_label("Alert") == 1
        assert session.graph.count_nodes_with_label("Escalation") == 1
        depths = {f.trigger_name: f.depth for f in session.engine.firings if f.executed}
        assert depths["RaiseAlert"] == 0
        assert depths["EscalateAlert"] == 1

    def test_runaway_cascade_raises_recursion_error(self):
        session = GraphSession(clock=CLOCK, max_cascade_depth=5)
        session.create_trigger("""
            CREATE TRIGGER SelfFeeding AFTER CREATE ON 'Alert' FOR EACH NODE
            BEGIN CREATE (:Alert {generation: coalesce(NEW.generation, 0) + 1}) END
        """)
        with pytest.raises(TriggerRecursionError):
            session.run("CREATE (:Alert {generation: 0})")

    def test_recursion_error_names_the_cascading_triggers(self):
        # Echo and Wipe feed each other through a removal (SET x.p = null);
        # each round is parented by a trigger that wrote its delta.
        session = GraphSession(clock=CLOCK, max_cascade_depth=6)
        session.create_trigger(
            "CREATE TRIGGER Echo AFTER REMOVE ON 'X'.'p' FOR EACH NODE "
            "BEGIN CREATE (:Y) END"
        )
        session.create_trigger(
            "CREATE TRIGGER Wipe AFTER CREATE ON 'Y' FOR EACH NODE "
            "BEGIN CREATE (:X {p: 1}) WITH 1 AS one MATCH (x:X) SET x.p = null END"
        )
        with pytest.raises(TriggerRecursionError) as raised:
            session.run("CREATE (:Y)")
        chain = raised.value.chain
        assert {"Echo", "Wipe"} <= set(chain)
        assert "(statement)" not in chain
        assert chain[0] == "Wipe"
        assert "Echo -> Wipe" in str(raised.value)

    def test_bounded_cascade_terminates(self, session):
        # Relocation-style cascade that converges because the condition
        # eventually becomes false (bed availability check).
        session.run("CREATE (:Hospital {name: 'H1', icuBeds: 1})")
        session.run("CREATE (:Hospital {name: 'H2', icuBeds: 1})")
        session.run("CREATE (:Hospital {name: 'H3', icuBeds: 5})")
        session.run(
            "MATCH (a:Hospital {name:'H1'}), (b:Hospital {name:'H2'}), (c:Hospital {name:'H3'}) "
            "CREATE (a)-[:ConnectedTo {distance: 10}]->(b), (b)-[:ConnectedTo {distance: 20}]->(c)"
        )
        session.create_trigger("""
            CREATE TRIGGER MoveWhenFull AFTER CREATE ON 'TreatedAt' FOR EACH RELATIONSHIP
            WHEN
              MATCH (p:IcuPatient)-[NEW]->(h:Hospital)
              MATCH (q:IcuPatient)-[:TreatedAt]->(h)
              WITH h, p, count(DISTINCT q) AS occupancy
              WHERE occupancy > h.icuBeds
              MATCH (h)-[c:ConnectedTo]-(next:Hospital)
              WITH p, h, next ORDER BY c.distance LIMIT 1
            BEGIN
              MATCH (p)-[t:TreatedAt]->(h) DELETE t
              CREATE (p)-[:TreatedAt]->(next)
            END
        """)
        session.run(
            "MATCH (h:Hospital {name: 'H1'}) "
            "CREATE (:Patient:IcuPatient {ssn: 'A'})-[:TreatedAt]->(h)"
        )
        session.run(
            "MATCH (h:Hospital {name: 'H1'}) "
            "CREATE (:Patient:IcuPatient {ssn: 'B'})-[:TreatedAt]->(h)"
        )
        # patient B overflowed H1 and was moved along the chain until a bed was free
        locations = {
            row["ssn"]: row["hospital"]
            for row in session.run(
                "MATCH (p:IcuPatient)-[:TreatedAt]->(h:Hospital) "
                "RETURN p.ssn AS ssn, h.name AS hospital"
            )
        }
        assert locations["A"] == "H1"
        assert locations["B"] in {"H2", "H3"}

    def test_stop_and_start_trigger(self, session):
        session.create_trigger("""
            CREATE TRIGGER Paused AFTER CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:Alert {desc: 'x'}) END
        """)
        session.stop_trigger("Paused")
        session.run("CREATE (:Patient {ssn: 'P1'})")
        assert session.alerts() == []
        session.start_trigger("Paused")
        session.run("CREATE (:Patient {ssn: 'P2'})")
        assert len(session.alerts()) == 1

    def test_drop_trigger(self, session):
        session.create_trigger("""
            CREATE TRIGGER Dropped AFTER CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:Alert {desc: 'x'}) END
        """)
        session.drop_trigger("Dropped")
        session.run("CREATE (:Patient {ssn: 'P1'})")
        assert session.alerts() == []

    def test_execution_counters(self, session):
        session.create_trigger("""
            CREATE TRIGGER Counted AFTER CREATE ON 'Patient' FOR EACH NODE
            WHEN NEW.vaccinated > 0
            BEGIN CREATE (:Alert {desc: 'x'}) END
        """)
        session.run("CREATE (:Patient {vaccinated: 1})")
        session.run("CREATE (:Patient {vaccinated: 0})")
        installed = session.registry.get("Counted")
        assert installed.executions == 1
        assert installed.suppressed == 1
        assert session.engine.execution_counts()["Counted"] == 1
        summary = session.engine.firing_summary()["Counted"]
        assert summary == {"executed": 1, "suppressed": 1, "max_depth": 0}

    def test_firing_log_is_bounded_and_summary_exact(self, monkeypatch):
        monkeypatch.setattr(engine_module, "FIRING_LOG_LIMIT", 5)
        session = GraphSession(clock=CLOCK)
        session.create_trigger("""
            CREATE TRIGGER Even AFTER CREATE ON 'Reading' FOR EACH NODE
            WHEN NEW.value % 2 = 0
            BEGIN CREATE (:Alert {value: NEW.value}) END
        """)
        session.create_trigger("""
            CREATE TRIGGER OnAlert AFTER CREATE ON 'Alert' FOR EACH NODE
            BEGIN CREATE (:Audit) END
        """)
        session.run("UNWIND range(1, 7) AS i CREATE (:Reading {value: i})")
        session.run("UNWIND range(8, 10) AS i CREATE (:Reading {value: i})")
        # 10 Even firings (5 executed) + 5 OnAlert firings, one cascade level
        assert len(session.engine.firings) == 5
        assert session.engine.firing_summary() == {
            "Even": {"executed": 5, "suppressed": 5, "max_depth": 0},
            "OnAlert": {"executed": 5, "suppressed": 0, "max_depth": 1},
        }
        session.engine.clear_firings()
        assert session.engine.firing_summary() == {}
        assert len(session.engine.firings) == 0


class TestDeletedTransitionNodes:
    def test_condition_expanding_from_a_node_deleted_by_an_earlier_trigger(self, session):
        # A deleted node has no relationships, so B's condition matches
        # nothing instead of expanding the stale snapshot of NEW.
        session.create_trigger("""
            CREATE TRIGGER A AFTER CREATE ON 'N' FOR EACH NODE
            BEGIN MATCH (n) WHERE id(n) = id(NEW) DETACH DELETE n END
        """)
        session.create_trigger("""
            CREATE TRIGGER B AFTER CREATE ON 'N' FOR EACH NODE
            WHEN MATCH (NEW)-[:R]->(x)
            BEGIN CREATE (:Fired) END
        """)
        session.run("CREATE (:N)-[:R]->(:M)")
        assert session.graph.count_nodes_with_label("N") == 0
        assert session.graph.count_nodes_with_label("Fired") == 0
        summary = session.engine.firing_summary()
        assert summary["A"]["executed"] == 1
        assert summary["B"] == {"executed": 0, "suppressed": 1, "max_depth": 0}


class TestErrorsAndRollback:
    def test_statement_error_wrapped_and_rolled_back(self, session):
        session.create_trigger("""
            CREATE TRIGGER Broken AFTER CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:Alert {x: nosuchfunction(NEW.ssn)}) END
        """)
        with pytest.raises(TriggerExecutionError):
            session.run("CREATE (:Patient {ssn: 'P1'})")
        # auto-commit transaction rolled back: neither patient nor alert remain
        assert session.graph.node_count() == 0

    def test_condition_error_wrapped(self, session):
        session.create_trigger("""
            CREATE TRIGGER BrokenCondition AFTER CREATE ON 'Patient' FOR EACH NODE
            WHEN nosuchfunction(NEW.ssn) = 1
            BEGIN CREATE (:Alert {desc: 'x'}) END
        """)
        with pytest.raises(TriggerExecutionError):
            session.run("CREATE (:Patient {ssn: 'P1'})")

    def test_transaction_block_rolls_back_trigger_effects(self, session):
        session.create_trigger("""
            CREATE TRIGGER SideEffect AFTER CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:Alert {desc: 'x'}) END
        """)
        with pytest.raises(RuntimeError):
            with session.transaction():
                session.run("CREATE (:Patient {ssn: 'P1'})")
                assert len(session.alerts()) == 1  # visible inside the tx
                raise RuntimeError("user aborts")
        assert session.alerts() == []
        assert session.graph.node_count() == 0

    def test_read_only_statement_fires_nothing(self, session):
        session.create_trigger("""
            CREATE TRIGGER Never AFTER CREATE ON 'Patient' FOR EACH NODE
            BEGIN CREATE (:Alert {desc: 'x'}) END
        """)
        session.run("MATCH (n) RETURN count(n)")
        assert list(session.engine.firings) == []
