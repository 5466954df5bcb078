"""Tables 1–4 of the paper, regenerated and checked.

T1 is the survey of reactive support across graph databases; T2 and T4
are the APOC and Memgraph transition metadata, populated from one
transaction touching every change kind; T3 is which of OLD/NEW each event
kind provides.
"""

from repro.compat.apoc import TABLE2_ROWS, transition_parameters
from repro.compat.comparison import table1_rows
from repro.compat.memgraph import TABLE4_ROWS, predefined_variables
from repro.graph.store import PropertyGraph
from repro.triggers.ast import ActionTime, EventType, ItemKind, TriggerDefinition
from repro.triggers.events import compute_activations
from repro.tx.transaction import Transaction


def representative_transaction() -> Transaction:
    """A transaction touching every change kind of Tables 2–4."""
    tx = Transaction(PropertyGraph())
    lineage = tx.create_node(["Lineage"], {"name": "B.1.617.2", "whoDesignation": "Indian"})
    sequence = tx.create_node(["Sequence"], {"accession": "EPI_ISL_1"})
    doomed = tx.create_node(["Sequence"], {"accession": "EPI_ISL_2"})
    rel = tx.create_relationship("BelongsTo", sequence.id, lineage.id, {"since": 2020})
    doomed_rel = tx.create_relationship("BelongsTo", doomed.id, lineage.id)
    tx.set_node_property(lineage.id, "whoDesignation", "Delta")
    tx.add_label(lineage.id, "VariantOfConcern")
    tx.remove_label(lineage.id, "VariantOfConcern")
    tx.set_relationship_property(rel.id, "since", 2021)
    tx.remove_relationship_property(rel.id, "since")
    tx.remove_node_property(lineage.id, "whoDesignation")
    tx.delete_relationship(doomed_rel.id)
    tx.delete_node(doomed.id)
    return tx


def test_table1_feature_matrix():
    rows = {row["System"]: row for row in table1_rows()}
    assert len(rows) >= 15
    # the paper's headline finding: only Neo4j and Memgraph offer graph triggers
    assert [name for name, row in rows.items() if row["Tr-G"] == "✓"] == ["Neo4j", "Memgraph"]
    # mixed relational systems only have relational triggers
    assert all(
        rows[name]["Tr-R"] == "✓" for name in ("Oracle Graph Database", "Virtuoso", "AgensGraph")
    )
    # three systems offer no reactive support at all
    bare = [name for name, row in rows.items()
            if row["Tr-G"] == "-" and row["Tr-R"] == "-" and row["Ev-L"] == "-"]
    assert sorted(bare) == ["GraphDB", "Nebula Graph", "TigerGraph"]


def test_table2_apoc_metadata():
    parameters = transition_parameters(representative_transaction().statement_delta)

    def entries(name: str) -> int:
        value = parameters[name]
        return sum(len(v) for v in value.values()) if isinstance(value, dict) else len(value)

    sizes = {
        "createdNodes": entries("createdNodes"),
        "createdRels": entries("createdRelationships"),
        "deletedNodes": entries("deletedNodes"),
        "deletedRels": entries("deletedRelationships"),
        **{
            name: entries(name)
            for name in (
                "assignedLabels", "removedLabels",
                "assignedNodeProperties", "assignedRelProperties",
                "removedNodeProperties", "removedRelProperties",
            )
        },
    }
    names = [name for name, _ in TABLE2_ROWS]
    # the ten metadata kinds of Table 2, each exercised by the sample transaction
    assert len(names) == 10
    assert all(sizes[name] >= 1 for name in names)
    assert "assignedNodeProperties" in names and "removedRelProperties" in names


def test_table3_transition_variables():
    delta = representative_transaction().statement_delta
    cases = [
        ("Nodes Create", EventType.CREATE, ItemKind.NODE, "Sequence", None),
        ("Nodes Delete", EventType.DELETE, ItemKind.NODE, "Sequence", None),
        ("Relationships Create", EventType.CREATE, ItemKind.RELATIONSHIP, "BelongsTo", None),
        ("Relationships Delete", EventType.DELETE, ItemKind.RELATIONSHIP, "BelongsTo", None),
        ("Labels Set", EventType.SET, ItemKind.NODE, "Lineage", None),
        ("Labels Remove", EventType.REMOVE, ItemKind.NODE, "Lineage", None),
        ("Node Properties Set", EventType.SET, ItemKind.NODE, "Lineage", "whoDesignation"),
        ("Node Properties Remove", EventType.REMOVE, ItemKind.NODE, "Lineage", "whoDesignation"),
        ("Rel Properties Set", EventType.SET, ItemKind.RELATIONSHIP, "BelongsTo", "since"),
        ("Rel Properties Remove", EventType.REMOVE, ItemKind.RELATIONSHIP, "BelongsTo", "since"),
    ]
    rows = {}
    for event_name, event, item, target, prop in cases:
        trigger = TriggerDefinition(
            name=f"probe_{event_name.replace(' ', '_')}",
            time=ActionTime.AFTER,
            event=event,
            label=target,
            property=prop,
            item=item,
            statement="CREATE (:Alert)",
        )
        activations = compute_activations(trigger, delta)
        rows[event_name] = {
            "activations": len(activations),
            "old_available": any(a.old is not None for a in activations),
            "new_available": any(a.new is not None for a in activations),
        }
    # Table 3: creations expose NEW only, deletions OLD only, sets both, removes OLD only
    assert rows["Nodes Create"]["new_available"] and not rows["Nodes Create"]["old_available"]
    assert rows["Nodes Delete"]["old_available"] and not rows["Nodes Delete"]["new_available"]
    assert rows["Relationships Create"]["new_available"]
    assert rows["Relationships Delete"]["old_available"]
    assert rows["Node Properties Set"]["old_available"]
    assert rows["Node Properties Set"]["new_available"]
    assert rows["Node Properties Remove"]["old_available"]
    assert not rows["Node Properties Remove"]["new_available"]
    assert rows["Rel Properties Set"]["new_available"]
    # every probed event kind had at least one activation in the sample transaction
    assert all(row["activations"] >= 1 for row in rows.values())


def test_table4_memgraph_variables():
    variables = predefined_variables(representative_transaction().statement_delta)
    names = [name for name, _ in TABLE4_ROWS]
    assert len(names) == 15  # the fifteen variables of Table 4
    assert all(len(variables[name]) >= 1 for name in names)
    for expected in ("createdVertices", "updatedObjects", "removedEdgeProperties"):
        assert expected in names
