"""Figures 1–5 of the paper, regenerated and checked.

F1 is the PG-Trigger grammar (every paper trigger round-trips through
it); F2 and F3 are the syntax-directed translations to APOC and Memgraph
triggers over all ten event kinds; F4/F5 are the CoV2K PG-Schema and a
population conforming to it.
"""

from repro.compat.apoc_translator import translate_to_apoc
from repro.compat.memgraph_translator import translate_to_memgraph
from repro.datasets.cov2k import Cov2kProfile, generate_cov2k
from repro.datasets.paper_triggers import (
    icu_patient_increase,
    icu_patient_move,
    icu_patients_over_threshold,
    move_to_near_hospital,
    new_critical_lineage,
    new_critical_mutation,
    who_designation_change,
)
from repro.schema.validation import validate_graph
from repro.triggers.ast import ActionTime, EventType, ItemKind, TriggerDefinition
from repro.triggers.parser import parse_trigger


def event_kind_triggers() -> list[TriggerDefinition]:
    """One minimal trigger per supported event kind."""
    kinds = [
        ("CreateNode", EventType.CREATE, ItemKind.NODE, None),
        ("DeleteNode", EventType.DELETE, ItemKind.NODE, None),
        ("CreateRel", EventType.CREATE, ItemKind.RELATIONSHIP, None),
        ("DeleteRel", EventType.DELETE, ItemKind.RELATIONSHIP, None),
        ("SetNodeProp", EventType.SET, ItemKind.NODE, "value"),
        ("RemoveNodeProp", EventType.REMOVE, ItemKind.NODE, "value"),
        ("SetRelProp", EventType.SET, ItemKind.RELATIONSHIP, "value"),
        ("RemoveRelProp", EventType.REMOVE, ItemKind.RELATIONSHIP, "value"),
        ("SetLabelOnNode", EventType.SET, ItemKind.NODE, None),
        ("RemoveLabelOnNode", EventType.REMOVE, ItemKind.NODE, None),
    ]
    return [
        TriggerDefinition(
            name=name,
            time=ActionTime.AFTER,
            event=event,
            label="Target" if item == ItemKind.NODE else "RelType",
            property=prop,
            item=item,
            statement="CREATE (:Alert {source: '" + name + "'})",
        )
        for name, event, item, prop in kinds
    ]


def translated(translate) -> dict:
    """Figure 2/3's worked case plus every event kind, translated by name."""
    definitions = [parse_trigger(new_critical_mutation())] + event_kind_triggers()
    return {definition.name: translate(definition) for definition in definitions}


def test_figure1_grammar():
    sources = {
        "NewCriticalMutation": new_critical_mutation(),
        "NewCriticalLineage": new_critical_lineage(),
        "WhoDesignationChange": who_designation_change(),
        "IcuPatientsOverThreshold": icu_patients_over_threshold(),
        "IcuPatientIncrease": icu_patient_increase(),
        "IcuPatientMove": icu_patient_move(),
        "MoveToNearHospital": move_to_near_hospital(),
    }
    by_name = {name: parse_trigger(text) for name, text in sources.items()}
    # every paper trigger parses and survives an unparse/reparse round trip
    for definition in by_name.values():
        reparsed = parse_trigger(definition.to_pg_trigger())
        assert reparsed.event == definition.event
        assert reparsed.granularity == definition.granularity
        assert reparsed.target == definition.target
    assert by_name["NewCriticalMutation"].event.value == "CREATE"
    assert by_name["NewCriticalLineage"].item.value == "RELATIONSHIP"
    assert by_name["WhoDesignationChange"].target == "Lineage.whoDesignation"
    assert by_name["IcuPatientsOverThreshold"].granularity.value == "ALL"
    assert by_name["MoveToNearHospital"].granularity.value == "EACH"


def test_figure2_apoc_translation():
    rows = translated(translate_to_apoc)
    assert len(rows) == 11
    # Figure 2's worked case: node creation unwinds $createdNodes
    assert rows["NewCriticalMutation"].parameter == "createdNodes"
    # all ten event kinds are covered and map to distinct metadata parameters
    assert rows["DeleteNode"].parameter == "deletedNodes"
    assert rows["CreateRel"].parameter == "createdRelationships"
    assert rows["SetNodeProp"].parameter == "assignedNodeProperties"
    assert rows["RemoveRelProp"].parameter == "removedRelProperties"
    assert rows["SetLabelOnNode"].parameter == "assignedLabels"
    # every translation uses apoc.do.when and the afterAsync phase
    assert all("apoc.do.when" in row.call_text for row in rows.values())
    assert all(row.phase == "afterAsync" for row in rows.values())


def test_figure3_memgraph_translation():
    rows = translated(translate_to_memgraph)
    assert len(rows) == 11
    assert rows["NewCriticalMutation"].source_variable == "createdVertices"
    assert rows["CreateRel"].source_variable == "createdEdges"
    assert rows["SetNodeProp"].source_variable == "setVertexProperties"
    assert rows["DeleteNode"].on_clause == "ON () DELETE"
    assert rows["DeleteRel"].on_clause == "ON --> DELETE"
    # Figure 3's shape: every translation expresses the condition as a CASE
    assert all("CASE WHEN" in row.ddl for row in rows.values())
    assert all(row.phase in ("AFTER COMMIT", "BEFORE COMMIT") for row in rows.values())


def test_figure45_cov2k_schema():
    dataset = generate_cov2k(Cov2kProfile(patients=80, sequences=60, mutations=25))
    schema = dataset.schema
    node_types = {node_type.label for node_type in schema.node_types()}
    edge_types = {edge_type.label for edge_type in schema.edge_types()}
    assert len(node_types) + len(edge_types) >= 15
    # Figure 4's entity and relationship types are all present
    assert {"Mutation", "Sequence", "Lineage", "Patient", "HospitalizedPatient",
            "IcuPatient", "Hospital", "Region", "Laboratory", "CriticalEffect"} <= node_types
    assert {"Risk", "FoundIn", "BelongsTo", "TreatedAt", "LocatedIn", "ConnectedTo",
            "HasSample", "SequencedAt"} <= edge_types
    # the type hierarchy of Figure 4 is reflected
    hierarchy = {
        node_type.label: (
            schema.node_type(node_type.supertype).label if node_type.supertype else "-"
        )
        for node_type in schema.node_types()
    }
    assert hierarchy["HospitalizedPatient"] == "Patient"
    assert hierarchy["IcuPatient"] == "HospitalizedPatient"
    # the generated population conforms to the schema
    assert len(validate_graph(dataset.graph, schema)) == 0
