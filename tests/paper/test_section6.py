"""Section 6 of the paper: the COVID-19 trigger suite and its translations.

S62 installs the Section 6.2 triggers and replays the COVID workloads;
S63 runs the worked translations of Section 6.3 through the APOC and
Memgraph emulators and checks they raise the native engine's alerts.
"""

import datetime as _dt

from repro.compat.apoc import ApocEmulator
from repro.compat.apoc_translator import translate_to_apoc
from repro.compat.memgraph import MemgraphEmulator
from repro.compat.memgraph_translator import translate_to_memgraph
from repro.datasets.paper_triggers import (
    icu_patient_increase,
    icu_patient_move,
    icu_patients_over_threshold,
    new_critical_lineage,
    new_critical_mutation,
    who_designation_change,
)
from repro.datasets.workloads import (
    designation_change_stream,
    hospital_setup,
    icu_admission_stream,
    lineage_assignment_stream,
    mutation_discovery_stream,
    replay,
)
from repro.triggers.parser import parse_trigger
from repro.triggers.session import GraphSession

CLOCK = lambda: _dt.datetime(2021, 3, 14, 12, 0, 0)  # noqa: E731 - deterministic clock


def test_section62_trigger_suite():
    session = GraphSession(clock=CLOCK)
    replay(session, hospital_setup(hospitals=3, icu_beds=8))
    for text in (
        new_critical_mutation(),
        new_critical_lineage(),
        who_designation_change(),
        icu_patients_over_threshold(threshold=10),
        icu_patient_increase(fraction=0.25),
        icu_patient_move(),
    ):
        session.create_trigger(text)
    replay(session, mutation_discovery_stream(count=30, critical_fraction=0.3))
    replay(session, lineage_assignment_stream(sequences=20, critical_every=4))
    replay(session, designation_change_stream(changes=6))
    replay(session, icu_admission_stream(admissions=12, batch_size=3))

    summary = session.engine.firing_summary()
    rows = {
        name: summary.get(name, {"executed": 0, "suppressed": 0})
        for name in session.registry.names()
    }
    assert len(rows) == 6
    # the three simple reaction triggers of Section 6.2.1 fire
    assert rows["NewCriticalMutation"]["executed"] > 0
    assert rows["NewCriticalLineage"]["executed"] > 0
    assert rows["WhoDesignationChange"]["executed"] > 0
    # harmless mutations / non-critical lineages are suppressed by the conditions
    assert rows["NewCriticalMutation"]["suppressed"] > 0
    assert rows["NewCriticalLineage"]["suppressed"] > 0
    # the set-granularity ICU triggers both evaluate; the increase trigger fires
    assert rows["IcuPatientIncrease"]["executed"] > 0
    assert rows["IcuPatientMove"]["executed"] > 0
    # the installed suite is statically terminating
    assert session.analyse_termination().guaranteed_termination
    # alerts were produced overall
    assert len(session.alerts()) > 0


def test_section63_worked_translations():
    cases = [
        new_critical_mutation(),
        who_designation_change(),
        icu_patients_over_threshold(threshold=3),
    ]
    workload = (
        hospital_setup(hospitals=2, icu_beds=10)
        + mutation_discovery_stream(count=15, critical_fraction=0.4)
        + designation_change_stream(changes=4)
        + icu_admission_stream(admissions=6, batch_size=1)
    )
    for text in cases:
        session = GraphSession(clock=CLOCK)
        session.create_trigger(text)
        replay(session, workload)

        apoc = ApocEmulator(clock=CLOCK)
        apoc.run(translate_to_apoc(parse_trigger(text)).call_text)
        memgraph = MemgraphEmulator(clock=CLOCK)
        memgraph.run(translate_to_memgraph(parse_trigger(text)).ddl)
        for statement in workload:
            apoc.run(statement.query, statement.parameters)
            memgraph.run(statement.query, statement.parameters)

        # the headline claim of Sections 5 and 6.3: the same reactive
        # behaviour through APOC and Memgraph triggers via translation
        native_alerts = len(session.alerts())
        assert native_alerts > 0
        assert apoc.graph.count_nodes_with_label("Alert") == native_alerts
        assert memgraph.graph.count_nodes_with_label("Alert") == native_alerts
