#!/usr/bin/env python3
"""Contact tracing with path queries: k-hop exposure rings and a path trigger.

Builds a synthetic contact network around a handful of infected index
cases, then uses the path-query subsystem to answer the questions a
tracing team actually asks:

* *who is within k hops of an infected person?* — variable-length
  expansion ``-[:CONTACT*1..k]-``;
* *what is the shortest transmission chain between two people?* —
  ``shortestPath``;
* *flag new exposures reactively* — a PG-Trigger whose condition walks
  the contact graph when a new CONTACT relationship is created;
* *who sits under a manager in the org chart?* — an unbounded
  ``-[:REPORTS_TO*]->`` walk down the (forest-shaped) hierarchy.

Run with::

    python examples/contact_tracing.py
"""

from __future__ import annotations

import random

from repro.cypher import execute, explain
from repro.graph import PropertyGraph, describe
from repro.triggers import GraphSession

PEOPLE = 60
CONTACTS = 90
INDEX_CASES = 3
SEED = 7


def build_contact_network() -> PropertyGraph:
    """A random contact network with a few infected index cases."""
    rng = random.Random(SEED)
    graph = PropertyGraph(name="contact-tracing")
    people = [
        graph.create_node(["Person"], {"name": f"person-{i}", "status": "healthy"})
        for i in range(PEOPLE)
    ]
    for case in rng.sample(people, INDEX_CASES):
        graph.set_node_property(case.id, "status", "infected")
    seen = set()
    while len(seen) < CONTACTS:
        a, b = rng.sample(people, 2)
        if (a.id, b.id) in seen:
            continue
        seen.add((a.id, b.id))
        graph.create_relationship("CONTACT", a.id, b.id, {"day": rng.randint(1, 14)})
    # a small management hierarchy for the workplace-containment query:
    # person-0 leads, everyone else reports up a forest
    for i in range(1, PEOPLE):
        graph.create_relationship("REPORTS_TO", people[(i - 1) // 3].id, people[i].id)
    return graph


def exposure_rings(graph: PropertyGraph) -> None:
    print("== k-hop exposure rings around infected people ==")
    for k in (1, 2, 3):
        result = execute(
            graph,
            f"MATCH (i:Person {{status: 'infected'}})-[:CONTACT*1..{k}]-(n:Person) "
            "WHERE n.status = 'healthy' "
            "RETURN count(DISTINCT n) AS exposed",
        )
        exposed = list(result)[0]["exposed"]
        print(f"  within {k} hop(s): {exposed} healthy people exposed")
    print()


def transmission_chain(graph: PropertyGraph) -> None:
    print("== shortest transmission chains between index cases ==")
    result = execute(
        graph,
        "MATCH (a:Person {status: 'infected'}), (b:Person {status: 'infected'}) "
        "WHERE a.name < b.name "
        "MATCH p = shortestPath((a)-[:CONTACT*..6]-(b)) "
        "RETURN a.name AS src, b.name AS dst, length(p) AS hops",
    )
    rows = list(result)
    if not rows:
        print("  (no index cases connected within 6 hops)")
    for row in rows:
        print(f"  {row['src']} .. {row['dst']}: {row['hops']} hop(s)")
    print()


def install_exposure_trigger(session: GraphSession) -> None:
    """Flag anyone who comes within 2 hops of an infected person."""
    session.create_trigger(
        "CREATE TRIGGER FlagExposure "
        "AFTER CREATE ON 'CONTACT' FOR EACH RELATIONSHIP "
        "BEGIN "
        "MATCH (i:Person {status: 'infected'})-[:CONTACT*1..2]-(n:Person) "
        "WHERE n.status = 'healthy' "
        "SET n.status = 'exposed' "
        "END"
    )


def reactive_tracing(graph: PropertyGraph) -> None:
    print("== reactive tracing: path-predicate trigger on new contacts ==")
    session = GraphSession(graph=graph)
    install_exposure_trigger(session)
    infected = execute(graph, "MATCH (i:Person {status: 'infected'}) RETURN id(i) AS id")
    healthy = execute(graph, "MATCH (n:Person {status: 'healthy'}) RETURN id(n) AS id LIMIT 5")
    index_id = list(infected)[0]["id"]
    for row in healthy:
        session.run(
            "MATCH (a), (b) WHERE id(a) = $a AND id(b) = $b CREATE (a)-[:CONTACT {day: 15}]->(b)",
            parameters={"a": index_id, "b": row["id"]},
        )
    flagged = execute(graph, "MATCH (n:Person {status: 'exposed'}) RETURN count(n) AS n")
    print(f"  new contacts created: 5, people auto-flagged exposed: {list(flagged)[0]['n']}")
    print()


def containment_hierarchy(graph: PropertyGraph) -> None:
    print("== workplace containment over the REPORTS_TO hierarchy ==")
    query = (
        "MATCH (boss:Person {name: 'person-0'})-[:REPORTS_TO*]->(r:Person) "
        "RETURN count(r) AS reports"
    )
    print("  plan:", explain(query, graph).splitlines()[0].split(" -> ")[-1])
    reports = list(execute(graph, query))[0]["reports"]
    print(f"  people under person-0 in the hierarchy: {reports}")
    print()


def main() -> None:
    graph = build_contact_network()
    print(describe(graph))
    print()
    exposure_rings(graph)
    transmission_chain(graph)
    containment_hierarchy(graph)
    reactive_tracing(graph)


if __name__ == "__main__":
    main()
