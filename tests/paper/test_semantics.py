"""Trigger semantics the paper defines, checked on its COVID workloads.

Granularity and action time (Section 3): FOR EACH executes once per
affected item, FOR ALL once per statement, and ONCOMMIT and DETACHED
produce the effects of AFTER on a workload that does not depend on the
moment of execution.  Execution routes (Section 5): the native engine,
the APOC route and the Memgraph route raise the same alerts, and only
the native engine cascades.
"""

import pytest

from repro.compat.apoc import ApocEmulator
from repro.compat.apoc_translator import translate_to_apoc
from repro.compat.memgraph import MemgraphEmulator
from repro.compat.memgraph_translator import translate_to_memgraph
from repro.datasets.paper_triggers import new_critical_mutation
from repro.datasets.workloads import (
    hospital_setup,
    icu_admission_stream,
    mutation_discovery_stream,
    replay,
)
from repro.triggers.parser import parse_trigger
from repro.triggers.session import GraphSession

from .test_section6 import CLOCK


def audit_entries(batch_size: int, time_word: str, granularity: str, admissions: int = 30) -> int:
    session = GraphSession(clock=CLOCK)
    replay(session, hospital_setup(hospitals=2, icu_beds=1000))
    item = "NODE" if granularity == "EACH" else "NODES"
    session.create_trigger(
        f"CREATE TRIGGER Audit {time_word} CREATE ON 'IcuPatient' FOR {granularity} {item} "
        "BEGIN CREATE (:AuditEntry) END"
    )
    replay(session, icu_admission_stream(admissions=admissions, batch_size=batch_size))
    return session.graph.count_nodes_with_label("AuditEntry")


def test_for_each_fires_per_item_and_for_all_per_statement():
    assert audit_entries(10, "AFTER", "EACH") == 30
    assert audit_entries(10, "AFTER", "ALL") == 3
    # with batch size 1 the two granularities coincide
    assert audit_entries(1, "AFTER", "EACH") == audit_entries(1, "AFTER", "ALL")


@pytest.mark.parametrize("time_word", ["ONCOMMIT", "DETACHED"])
def test_deferred_action_times_match_after(time_word):
    assert audit_entries(10, time_word, "EACH") == 30


def test_three_execution_routes_agree_and_only_native_cascades():
    trigger_text = new_critical_mutation()
    echo_text = (
        "CREATE TRIGGER EchoAlert AFTER CREATE ON 'Alert' FOR EACH NODE "
        "BEGIN CREATE (:Echo) END"
    )
    workload = mutation_discovery_stream(count=25, critical_fraction=0.4)

    session = GraphSession(clock=CLOCK)
    apoc = ApocEmulator(clock=CLOCK)
    memgraph = MemgraphEmulator(clock=CLOCK)
    for text in (trigger_text, echo_text):
        session.create_trigger(text)
        apoc.run(translate_to_apoc(parse_trigger(text)).call_text)
        memgraph.run(translate_to_memgraph(parse_trigger(text)).ddl)
    replay(session, workload)
    for statement in workload:
        apoc.run(statement.query, statement.parameters)
        memgraph.run(statement.query, statement.parameters)

    alerts = session.graph.count_nodes_with_label("Alert")
    assert alerts > 0
    assert apoc.graph.count_nodes_with_label("Alert") == alerts
    assert memgraph.graph.count_nodes_with_label("Alert") == alerts
    # Alerts created by a trigger reach EchoAlert only in the native engine
    assert session.graph.count_nodes_with_label("Echo") == alerts
    assert apoc.graph.count_nodes_with_label("Echo") == 0
    assert memgraph.graph.count_nodes_with_label("Echo") == 0
