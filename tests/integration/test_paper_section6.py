"""Integration tests: the paper's Section 6 scenario end to end.

These tests exercise the full stack (store + transactions + Cypher +
schema + triggers + datasets) the way the running example does, and the
cross-route equivalence the Section 5 translations claim.
"""

import datetime

import pytest

from repro.compat import ApocEmulator, MemgraphEmulator, translate_to_apoc, translate_to_memgraph
from repro.datasets import (
    Cov2kProfile,
    designation_change_stream,
    generate_cov2k,
    icu_admission_stream,
    icu_patient_increase,
    icu_patient_move,
    icu_patients_over_threshold,
    lineage_assignment_stream,
    move_to_near_hospital,
    mutation_discovery_stream,
    new_critical_lineage,
    new_critical_mutation,
    replay,
    who_designation_change,
)
from repro.schema import validate_graph
from repro.triggers import GraphSession, parse_trigger

CLOCK = lambda: datetime.datetime(2021, 3, 14, 12, 0, 0)  # noqa: E731


@pytest.fixture
def covid_session():
    dataset = generate_cov2k(Cov2kProfile(patients=40, sequences=30, mutations=15))
    session = GraphSession(graph=dataset.graph, schema=dataset.schema, clock=CLOCK)
    # The generated population already contains the Sacco/Meyer hospitals of
    # the running example; pin their ICU capacities so the thresholds used in
    # the tests below are meaningful.
    session.run("MATCH (h:Hospital {name: 'Sacco'}) SET h.icuBeds = 6")
    session.run("MATCH (h:Hospital {name: 'Meyer'}) SET h.icuBeds = 20")
    return session


class TestSection62EndToEnd:
    def test_simple_reaction_triggers_raise_alerts(self, covid_session):
        covid_session.create_trigger(new_critical_mutation())
        covid_session.create_trigger(new_critical_lineage())
        covid_session.create_trigger(who_designation_change())
        replay(covid_session, mutation_discovery_stream(count=20, critical_fraction=0.5))
        replay(covid_session, lineage_assignment_stream(sequences=10, critical_every=3))
        replay(covid_session, designation_change_stream(changes=3))
        alerts = covid_session.alerts()
        descriptions = {a.get("desc") for a in alerts}
        assert "New critical mutation" in descriptions
        assert "New critical lineage" in descriptions
        assert "New Designation for an existing Lineage" in descriptions
        # alerts carry the domain context the paper's triggers attach
        assert any("mutation" in a for a in alerts)
        assert any("lineage" in a for a in alerts)

    def test_threshold_and_increase_triggers(self, covid_session):
        covid_session.create_trigger(icu_patients_over_threshold(threshold=5))
        covid_session.create_trigger(icu_patient_increase(fraction=0.5))
        replay(covid_session, icu_admission_stream(admissions=8, batch_size=4))
        descriptions = [a.get("desc") for a in covid_session.alerts()]
        assert any("more than 5" in d for d in descriptions)
        assert any("increased" in d for d in descriptions)

    def test_increase_trigger_survives_admission_elsewhere(self, covid_session):
        """No new patient at Sacco makes the condition 0 * 1.0 / 0: NaN, not an abort."""
        covid_session.create_trigger(icu_patient_increase(fraction=0.1))
        replay(covid_session, icu_admission_stream(admissions=2, batch_size=2, hospital="Meyer"))
        admitted = covid_session.run(
            "MATCH (p:IcuPatient)-[:TreatedAt]->(:Hospital {name: 'Meyer'}) "
            "WHERE p.ssn STARTS WITH 'ICU' RETURN count(p) AS n"
        ).single("n")
        assert admitted == 2
        assert covid_session.alerts() == []

    def test_relocation_moves_patients_and_terminates(self, covid_session):
        covid_session.create_trigger(icu_patient_move(source="Sacco", destination="Meyer"))
        # overload Sacco: its capacity is 6, admit 8 in two batches
        replay(covid_session, icu_admission_stream(admissions=8, batch_size=4, hospital="Sacco"))
        occupancy = {
            row["hospital"]: row["patients"]
            for row in covid_session.run(
                "MATCH (p:IcuPatient {prognosis:'severe'})-[:TreatedAt]->(h:Hospital) "
                "RETURN h.name AS hospital, count(p) AS patients"
            )
        }
        assert occupancy.get("Meyer", 0) > 0  # some patients were relocated
        report = covid_session.analyse_termination()
        assert report.guaranteed_termination

    def test_move_to_near_hospital_item_granularity(self, covid_session):
        covid_session.create_trigger(move_to_near_hospital(region="Lombardy"))
        replay(covid_session, icu_admission_stream(admissions=10, batch_size=1, hospital="Sacco"))
        sacco_load = covid_session.run(
            "MATCH (p:IcuPatient {prognosis:'severe'})-[:TreatedAt]->(h:Hospital {name:'Sacco'}) "
            "RETURN count(p) AS n"
        ).single("n")
        # the trigger keeps Sacco's load bounded around its capacity
        sacco = covid_session.graph.find_nodes("Hospital", {"name": "Sacco"})[0]
        assert sacco_load <= sacco.properties["icuBeds"] + 1

    def test_schema_still_valid_after_reactive_processing(self, covid_session):
        covid_session.create_trigger(new_critical_mutation())
        replay(covid_session, mutation_discovery_stream(count=10, critical_fraction=0.5))
        violations = validate_graph(covid_session.graph, covid_session.schema)
        # Alert is an OPEN type, Region/Hospital additions conform; no violations
        assert violations == []


class TestTransactionalBehaviour:
    def test_oncommit_abort_discards_workload_statement(self, covid_session):
        covid_session.create_trigger("""
            CREATE TRIGGER NoAnonymousPatients ONCOMMIT CREATE ON 'Patient' FOR EACH NODE
            WHEN NEW.ssn IS NULL
            BEGIN CALL db.abort('patients must carry an ssn') END
        """)
        before = covid_session.graph.count_nodes_with_label("Patient")
        from repro.tx import TransactionAborted

        with pytest.raises(TransactionAborted):
            covid_session.run("CREATE (:Patient {name: 'anonymous'})")
        assert covid_session.graph.count_nodes_with_label("Patient") == before

    def test_multi_statement_transaction_with_commit_triggers(self, covid_session):
        covid_session.create_trigger("""
            CREATE TRIGGER AdmissionSummary ONCOMMIT CREATE ON 'IcuPatient' FOR ALL NODES
            BEGIN CREATE (:Alert {desc: 'admissions in transaction', count: size(NEWNODES)}) END
        """)
        with covid_session.transaction():
            for index in range(3):
                covid_session.run(
                    "MATCH (h:Hospital {name: 'Sacco'}) "
                    "CREATE (:Patient:HospitalizedPatient:IcuPatient {ssn: $ssn})-[:TreatedAt]->(h)",
                    {"ssn": f"TX{index}"},
                )
        summaries = [a for a in covid_session.alerts() if a.get("desc") == "admissions in transaction"]
        assert len(summaries) == 1
        assert summaries[0]["count"] == 3


class TestCrossRouteEquivalence:
    def test_same_alerts_across_native_apoc_memgraph(self):
        trigger_text = new_critical_mutation()
        workload = mutation_discovery_stream(count=25, critical_fraction=0.4)

        session = GraphSession(clock=CLOCK)
        session.create_trigger(trigger_text)
        replay(session, workload)

        apoc = ApocEmulator(clock=CLOCK)
        apoc.run(translate_to_apoc(parse_trigger(trigger_text)).call_text)
        for statement in workload:
            apoc.run(statement.query, statement.parameters)

        memgraph = MemgraphEmulator(clock=CLOCK)
        memgraph.run(translate_to_memgraph(parse_trigger(trigger_text)).ddl)
        for statement in workload:
            memgraph.run(statement.query, statement.parameters)

        native = len(session.alerts())
        assert native > 0
        assert apoc.graph.count_nodes_with_label("Alert") == native
        assert memgraph.graph.count_nodes_with_label("Alert") == native

    def test_cascading_is_the_differentiator(self):
        """The native engine cascades; the emulated APOC route does not (Section 5.1)."""
        chain = [
            "CREATE TRIGGER Raise AFTER CREATE ON 'Mutation' FOR EACH NODE "
            "BEGIN CREATE (:Alert {desc: 'mutation'}) END",
            "CREATE TRIGGER Escalate AFTER CREATE ON 'Alert' FOR EACH NODE "
            "BEGIN CREATE (:Escalation) END",
        ]
        session = GraphSession(clock=CLOCK)
        for text in chain:
            session.create_trigger(text)
        session.run("CREATE (:Mutation {name: 'X'})")
        assert session.graph.count_nodes_with_label("Escalation") == 1

        apoc = ApocEmulator(clock=CLOCK)
        for text in chain:
            apoc.run(translate_to_apoc(parse_trigger(text)).call_text)
        apoc.run("CREATE (:Mutation {name: 'X'})")
        assert apoc.graph.count_nodes_with_label("Alert") == 1
        assert apoc.graph.count_nodes_with_label("Escalation") == 0
