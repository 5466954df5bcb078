"""Tests for the triggering-graph termination analysis."""

import pytest

from repro.triggers import (
    ActionTime,
    EventType,
    GraphSession,
    ItemKind,
    TriggerDefinition,
    TriggerRecursionError,
    analyse_termination,
    build_triggering_graph,
    statement_events,
)


def trig(name, label, event=EventType.CREATE, statement="CREATE (:Alert)", item=ItemKind.NODE,
         property=None):
    return TriggerDefinition(
        name=name,
        time=ActionTime.AFTER,
        event=event,
        label=label,
        property=property,
        item=item,
        statement=statement,
    )


class TestStatementEvents:
    def test_create_node_labels_detected(self):
        events = statement_events(trig("T", "X", statement="CREATE (:Alert {d: 1})"))
        assert any(e.event == EventType.CREATE and e.label == "Alert" for e in events)

    def test_create_relationship_types_detected(self):
        events = statement_events(
            trig("T", "X", statement="MATCH (a), (b) CREATE (a)-[:TreatedAt]->(b)")
        )
        assert any(
            e.event == EventType.CREATE and e.item == ItemKind.RELATIONSHIP
            and e.label == "TreatedAt"
            for e in events
        )

    def test_delete_is_conservative(self):
        events = statement_events(trig("T", "X", statement="MATCH (a)-[r]->() DELETE r"))
        assert any(e.event == EventType.DELETE and e.label == "*" for e in events)

    def test_set_property_detected(self):
        events = statement_events(trig("T", "X", statement="MATCH (n:Y) SET n.flag = true"))
        assert any(e.event == EventType.SET and e.property == "flag" for e in events)

    def test_set_label_detected(self):
        events = statement_events(trig("T", "X", statement="MATCH (n:Y) SET n:Reviewed"))
        assert any(e.event == EventType.SET and e.label == "Reviewed" for e in events)

    def test_remove_detected(self):
        events = statement_events(trig("T", "X", statement="MATCH (n:Y) REMOVE n.flag"))
        assert any(e.event == EventType.REMOVE and e.property == "flag" for e in events)

    def test_foreach_bodies_analysed(self):
        events = statement_events(
            trig("T", "X", statement="MATCH (n) FOREACH (i IN [1] | CREATE (:Log))")
        )
        assert any(e.label == "Log" for e in events)


class TestTriggeringGraph:
    def test_acyclic_chain(self):
        t1 = trig("RaiseAlert", "Mutation", statement="CREATE (:Alert)")
        t2 = trig("Escalate", "Alert", statement="CREATE (:Escalation)")
        graph = build_triggering_graph([t1, t2])
        assert graph.successors("RaiseAlert") == {"Escalate"}
        assert graph.successors("Escalate") == set()
        assert graph.is_acyclic()

    def test_direct_self_loop(self):
        t = trig("SelfFeeding", "Alert", statement="CREATE (:Alert)")
        graph = build_triggering_graph([t])
        assert graph.self_activating() == ["SelfFeeding"]
        assert not graph.is_acyclic()
        assert graph.cycles() == [["SelfFeeding"]]

    def test_mutual_cycle(self):
        t1 = trig("A", "X", statement="CREATE (:Y)")
        t2 = trig("B", "Y", statement="CREATE (:X)")
        report = analyse_termination([t1, t2])
        assert not report.guaranteed_termination
        assert ("A", "B") in report.cycles or ("B", "A") in report.cycles

    def test_event_types_must_match(self):
        creator = trig("Creator", "X", statement="CREATE (:Y)")
        deleter_watcher = trig("Watcher", "Y", event=EventType.DELETE, statement="CREATE (:Z)")
        graph = build_triggering_graph([creator, deleter_watcher])
        assert graph.successors("Creator") == set()

    def test_item_kind_must_match(self):
        rel_creator = trig(
            "RelCreator", "X", statement="MATCH (a), (b) CREATE (a)-[:Y]->(b)"
        )
        node_watcher = trig("NodeWatcher", "Y", item=ItemKind.NODE)
        graph = build_triggering_graph([rel_creator, node_watcher])
        assert graph.successors("RelCreator") == set()

    def test_property_target_matching(self):
        setter = trig("Setter", "X", statement="MATCH (n:Lineage) SET n.whoDesignation = 'D'")
        watcher = trig(
            "Watcher", "Lineage", event=EventType.SET, property="whoDesignation",
            statement="CREATE (:Alert)",
        )
        other_watcher = trig(
            "Other", "Lineage", event=EventType.SET, property="name", statement="CREATE (:Alert)"
        )
        graph = build_triggering_graph([setter, watcher, other_watcher])
        assert graph.successors("Setter") == {"Watcher"}

    def test_relocation_trigger_reports_possible_non_termination(self):
        # The paper's MoveToNearHospital may cascade indefinitely: it reacts to
        # TreatedAt creations and itself creates TreatedAt relationships.
        move = trig(
            "MoveToNearHospital",
            "TreatedAt",
            item=ItemKind.RELATIONSHIP,
            statement=(
                "MATCH (p)-[c:TreatedAt]-(h) DELETE c CREATE (p)-[:TreatedAt]->(hc)"
            ),
        )
        report = analyse_termination([move])
        assert not report.guaranteed_termination
        assert ("MoveToNearHospital",) in report.cycles
        assert "NOT guaranteed" in str(report)

    def test_paper_suite_without_relocation_terminates(self):
        suite = [
            trig("NewCriticalMutation", "Mutation", statement="CREATE (:Alert)"),
            trig("NewCriticalLineage", "BelongsTo", item=ItemKind.RELATIONSHIP,
                 statement="CREATE (:Alert)"),
            trig("WhoDesignationChange", "Lineage", event=EventType.SET,
                 property="whoDesignation", statement="CREATE (:Alert)"),
            trig("IcuPatientsOverThreshold", "IcuPatient", statement="CREATE (:Alert)"),
        ]
        report = analyse_termination(suite)
        assert report.guaranteed_termination
        assert "guaranteed" in str(report)

    def test_unparseable_statement_treated_conservatively(self):
        broken = TriggerDefinition(
            name="Broken",
            time=ActionTime.AFTER,
            event=EventType.CREATE,
            label="X",
            statement="NOT CYPHER ((",
        )
        report = analyse_termination([broken])
        assert not report.guaranteed_termination


class TestKeyWritesRaiseRemovals:
    """A written key may raise REMOVE as well as SET: ``SET x.k = null``
    removes ``k``, and map-style SET replaces the key set."""

    ECHO = (
        "CREATE TRIGGER Echo AFTER REMOVE ON 'X'.'p' FOR EACH NODE "
        "BEGIN CREATE (:Y) END"
    )

    @staticmethod
    def wipe(assignment):
        return (
            "CREATE TRIGGER Wipe AFTER CREATE ON 'Y' FOR EACH NODE "
            "BEGIN CREATE (:X {p: 1}) WITH 1 AS one MATCH (x:X) "
            f"SET {assignment} END"
        )

    def _assert_cycle_found_and_real(self, assignment):
        session = GraphSession()
        session.create_trigger(self.ECHO)
        session.create_trigger(self.wipe(assignment))
        report = session.analyse_termination()
        assert not report.guaranteed_termination
        assert report.cycles == (("Echo", "Wipe"),)
        # the cycle is real: the engine cascades until its depth limit
        with pytest.raises(TriggerRecursionError):
            session.run("CREATE (:Y)")

    def test_set_to_null_is_a_removal_edge(self):
        self._assert_cycle_found_and_real("x.p = null")

    def test_map_replace_is_a_removal_edge(self):
        self._assert_cycle_found_and_real("x = {q: 1}")


class TestCreationLabels:
    def test_unlabelled_creations_raise_no_create_event(self):
        # Activations read the labels a node was created with, so neither an
        # anonymous nor a bound-then-labelled creation can fire ON 'X'.
        for statement in ("CREATE ()", "CREATE (n) SET n:X"):
            events = statement_events(trig("T", "Y", statement=statement))
            assert not any(e.event == EventType.CREATE for e in events), statement
        watcher = trig("Watcher", "X")
        creator = trig("Creator", "Y", statement="CREATE (n) SET n:X")
        assert build_triggering_graph([creator, watcher]).successors("Creator") == set()

    def test_abort_writes_nothing_other_calls_are_unknown(self):
        assert statement_events(trig("T", "X", statement="CALL db.abort('stop')")) == []
        events = statement_events(trig("T", "X", statement="CALL apoc.create.node(['X'], {})"))
        assert {(e.event, e.item) for e in events} == {
            (event, item) for event in EventType for item in ItemKind
        }
        # an unknown write may touch any key, so property targets match too
        for event in (EventType.SET, EventType.REMOVE):
            watcher = trig("Watcher", "X", event=event, property="p")
            assert any(e.matches(watcher) for e in events), event
