"""Trigger conditions are planned against what their rows already bind.

The engine hands ``NEW``/``OLD`` to the executor in the initial row (one
row per activation on the batched tier).  The executor derives the
planner's scope from those rows, so a condition reading the graph from its
transition variable starts there: at the node, at the bound relationship,
and — for an ``EXISTS`` in the condition's WHERE — at the variable the
clause bound.  The plans are read from ``executor.last_plan`` of the
executors the engine itself builds.
"""

from __future__ import annotations

import datetime as dt

import pytest

from repro.cypher.executor import QueryExecutor
from repro.cypher.planner import PLAN_CACHE
from repro.datasets.paper_triggers import move_to_near_hospital, new_critical_lineage
from repro.triggers import GraphSession
from repro.triggers import engine as engine_module

CLOCK = lambda: dt.datetime(2021, 3, 14, 12, 0, 0)  # noqa: E731

ZONE_WATCH = (
    "CREATE TRIGGER ZoneWatch AFTER CREATE ON 'Reading' FOR EACH NODE "
    "WHEN MATCH (NEW)-[:At]->(s:Station {zone: 0}) WHERE NEW.value > 950 "
    "BEGIN CREATE (:ZoneSpike {value: NEW.value}) END"
)

TICK = (
    "UNWIND $rows AS row MATCH (s:Station {id: row.station}) "
    "CREATE (:Reading {value: row.value})-[:At]->(s)"
)


@pytest.fixture
def plans(monkeypatch):
    """Every plan description the engine's executors ran, in order."""
    seen: list[str] = []

    class RecordingExecutor(QueryExecutor):
        def _stream_rows(self, query, parameters, initial_rows):
            out = super()._stream_rows(query, parameters, initial_rows)
            seen.append(self.last_plan.plan_description())
            return out

    monkeypatch.setattr(engine_module, "QueryExecutor", RecordingExecutor)
    return seen


def station_session() -> GraphSession:
    session = GraphSession(clock=CLOCK)
    with session.transaction() as tx:
        for index in range(50):
            tx.create_node(["Station"], {"id": index, "zone": index % 5})
    session.graph.create_property_index("Station", "id")
    session.create_trigger(ZONE_WATCH)
    return session


def tick(session: GraphSession, values: list[float]) -> None:
    rows = [{"station": (5 * index) % 50, "value": value} for index, value in enumerate(values)]
    session.run(TICK, {"rows": rows})


def test_zone_watch_condition_starts_at_new(plans):
    session = station_session()
    tick(session, [960.0, 10.0, 990.0])  # several activations: the batched tier
    tick(session, [970.0])  # one activation
    conditions = [p for p in plans if "Expand(-[:At]->(:Station))" in p]
    assert len(conditions) == 2
    assert all(
        p.startswith("start=(NEW) Bound(NEW) est~1 rows -> Expand(-[:At]->(:Station))")
        for p in conditions
    ), conditions
    assert session.graph.count_nodes_with_label("ZoneSpike") == 3


def test_tick_seeks_its_station_by_the_unwound_value():
    session = station_session()
    result = session.run(TICK, {"rows": [{"station": 3, "value": 1.0}]})
    assert "IndexSeek(Station.id = row.station)" in result.consume().plan


def test_move_to_near_hospital_first_pattern_starts_at_new(plans):
    session = GraphSession(clock=CLOCK)
    session.run(
        "CREATE (r:Region {name: 'Lombardy'}), "
        "(h:Hospital {name: 'Sacco', icuBeds: 0})-[:LocatedIn]->(r), "
        "(h)-[:ConnectedTo {distance: 5}]->(:Hospital {name: 'Niguarda', icuBeds: 9})"
    )
    session.create_trigger(move_to_near_hospital())
    session.run(
        "MATCH (h:Hospital {name: 'Sacco'}) "
        "CREATE (:Patient:IcuPatient {ssn: 'P1'})-[:TreatedAt]->(h)"
    )
    [condition] = [p for p in plans if "Expand(-[:LocatedIn]-" in p]
    assert condition.startswith("start=(NEW) "), condition
    moved = session.run(
        "MATCH (:Patient {ssn: 'P1'})-[:TreatedAt]->(h) RETURN h.name AS name"
    ).single("name")
    assert moved == "Niguarda"


def test_new_critical_lineage_starts_at_bound_relationship(plans):
    session = GraphSession(clock=CLOCK)
    session.run(
        "CREATE (:CriticalEffect {description: 'infectivity'})<-[:Risk]-"
        "(:Mutation {name: 'Spike:D614G'})-[:FoundIn]->(:Sequence {accession: 'S1'})"
    )
    session.run("CREATE (:Lineage {name: 'B.1.1.7'}), (:Sequence {accession: 'S2'})")
    session.create_trigger(new_critical_lineage())
    session.run(
        "MATCH (s:Sequence), (l:Lineage) CREATE (s)-[:BelongsTo]->(l)"
    )
    conditions = [p for p in plans if "Filter(EXISTS" in p]
    assert len(conditions) == 2  # one per created relationship
    for condition in conditions:
        lines = condition.splitlines()
        assert lines[0].startswith("start=(s) BoundRelationship(NEW) "), condition
        [exists] = [line for line in lines if line.startswith("EXISTS ")]
        assert exists.startswith("EXISTS start=(s) "), condition
    # only S1 carries a critical mutation
    assert len(session.alerts()) == 1


def test_create_trigger_matching_from_old_never_fires():
    session = GraphSession(clock=CLOCK)
    session.run("CREATE (:Anchor)-[:R]->(:Target)")
    session.create_trigger(
        "CREATE TRIGGER FromOld AFTER CREATE ON 'Item' FOR EACH NODE "
        "WHEN MATCH (OLD)-[:R]->(x) "
        "BEGIN CREATE (:Alert) END"
    )
    session.run("UNWIND range(1, 3) AS i CREATE (:Item {i: i})")
    session.run("CREATE (:Item {i: 4})")
    assert session.alerts() == []


def test_plan_cache_misses_stay_flat_after_the_first_activation_of_each_shape():
    session = station_session()
    tick(session, [960.0] * 20)  # batched tier
    tick(session, [960.0])  # sequential tier
    before = PLAN_CACHE.stats.plan_misses
    for _ in range(5):
        tick(session, [960.0 + index for index in range(20)])
    for _ in range(10):
        tick(session, [955.0])
    assert PLAN_CACHE.stats.plan_misses == before
    assert session.graph.count_nodes_with_label("ZoneSpike") > 100


@pytest.mark.parametrize(
    "condition",
    [
        "MATCH (s:Station)-[:Located]->(z:Zone) WHERE s.id = NEW.station",
        "MATCH (z:Zone) WHERE EXISTS { MATCH (s:Station)-[:Located]->(y:Zone) "
        "WHERE s.id = NEW.station AND y.n = z.n }",
    ],
)
def test_seek_on_new_agrees_between_batched_and_sequential_tiers(plans, condition):
    # The condition seeks Station.id by a value NEW carries.  The batched
    # tier memoizes pattern matches across activations; a seek reading NEW
    # must keep the pattern off that memo, or every activation would see
    # the first activation's station.  (The hop keeps the condition off
    # the incremental tier.)
    hits = []
    for batched in (True, False):
        session = GraphSession(clock=CLOCK, batched_triggers=batched)
        with session.transaction() as tx:
            for index in range(10):
                station = tx.create_node(["Station"], {"id": index})
                zone = tx.create_node(["Zone"], {"n": index})
                tx.create_relationship("Located", station.id, zone.id)
        session.graph.create_property_index("Station", "id")
        session.create_trigger(
            "CREATE TRIGGER SeekNew AFTER CREATE ON 'Reading' FOR EACH NODE "
            f"WHEN {condition} BEGIN CREATE (:Hit {{zone: z.n}}) END"
        )
        session.run("UNWIND [1, 4, 7, 4] AS i CREATE (:Reading {station: i})")
        result = session.run("MATCH (h:Hit) RETURN h.zone AS z ORDER BY z")
        hits.append([row["z"] for row in result])
        tiers = session.engine.tier_trace["SeekNew"]["tiers"]
        assert tiers == ({"batched": 1} if batched else {"sequential": 1})
    assert any("IndexSeek(Station.id = NEW.station)" in p for p in plans), plans
    assert hits[0] == hits[1] == [1, 4, 4, 7]
