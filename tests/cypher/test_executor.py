"""End-to-end tests for query execution."""

import datetime

import pytest

from repro.cypher import QueryExecutor, execute
from repro.cypher.errors import CypherRuntimeError, UnsupportedFeatureError
from repro.graph import PropertyGraph
from repro.tx import Transaction


@pytest.fixture
def graph():
    return PropertyGraph()


@pytest.fixture
def hospital_graph():
    """Small CoV2K-flavoured graph: hospitals, regions, patients."""
    graph = PropertyGraph()
    lombardy = graph.create_node(["Region"], {"name": "Lombardy"})
    tuscany = graph.create_node(["Region"], {"name": "Tuscany"})
    sacco = graph.create_node(["Hospital"], {"name": "Sacco", "icuBeds": 3})
    meyer = graph.create_node(["Hospital"], {"name": "Meyer", "icuBeds": 5})
    graph.create_relationship("LocatedIn", sacco.id, lombardy.id)
    graph.create_relationship("LocatedIn", meyer.id, tuscany.id)
    graph.create_relationship("ConnectedTo", sacco.id, meyer.id, {"distance": 280})
    for i in range(4):
        patient = graph.create_node(
            ["Patient", "HospitalizedPatient"],
            {"ssn": f"P{i}", "prognosis": "severe" if i % 2 else "mild"},
        )
        graph.create_relationship("TreatedAt", patient.id, sacco.id)
    return graph


class TestCreate:
    def test_create_single_node(self, graph):
        result = execute(graph, "CREATE (:Alert {desc: 'hello'})")
        assert graph.count_nodes_with_label("Alert") == 1
        assert result.statistics.nodes_created == 1

    def test_create_path(self, graph):
        execute(graph, "CREATE (a:Patient {ssn: 'X'})-[:TreatedAt {since: 2021}]->(h:Hospital {name: 'Sacco'})")
        assert graph.count_nodes_with_label("Patient") == 1
        rels = graph.relationships_with_type("TreatedAt")
        assert rels[0].properties["since"] == 2021

    def test_create_uses_bound_variables(self, graph):
        execute(graph, "CREATE (h:Hospital {name: 'Sacco'})")
        execute(
            graph,
            "MATCH (h:Hospital {name: 'Sacco'}) CREATE (p:Patient {ssn: 'Y'})-[:TreatedAt]->(h)",
        )
        assert graph.node_count() == 2
        assert graph.relationship_count() == 1

    def test_create_undirected_defaults_left_to_right(self, graph):
        execute(graph, "CREATE (a:A)-[:R]-(b:B)")
        rel = graph.relationships_with_type("R")[0]
        start = graph.node(rel.start)
        assert "A" in start.labels

    def test_create_incoming_direction(self, graph):
        execute(graph, "CREATE (a:A)<-[:R]-(b:B)")
        rel = graph.relationships_with_type("R")[0]
        assert "B" in graph.node(rel.start).labels

    def test_create_with_parameters(self, graph):
        execute(graph, "CREATE (:Alert {desc: $d})", parameters={"d": "warning"})
        assert graph.find_nodes("Alert", {"desc": "warning"})

    def test_returns_created_node(self, graph):
        result = execute(graph, "CREATE (a:Alert {desc: 'x'}) RETURN a.desc AS desc")
        assert result.values("desc") == ["x"]

    def test_keywords_used_as_names_keep_their_spelling(self, graph):
        result = execute(
            graph,
            "CREATE (o:Order {Count: 1})-[r:In]->(:B) "
            "RETURN labels(o) AS labels, keys(o) AS keys, type(r) AS type",
        )
        assert result.rows == [{"labels": ["Order"], "keys": ["Count"], "type": "In"}]
        a = graph.create_node(["Case"])
        graph.create_relationship("In", a.id, graph.create_node(["B"]).id)
        assert execute(graph, "MATCH (:Case)-[r:In]->() RETURN count(r) AS n").rows == [{"n": 1}]
        assert execute(graph, "MATCH ()-[r:In]->() RETURN count(r) AS n").rows == [{"n": 2}]


class TestMatch:
    def test_match_by_label(self, hospital_graph):
        result = execute(hospital_graph, "MATCH (h:Hospital) RETURN h.name AS name ORDER BY name")
        assert result.values("name") == ["Meyer", "Sacco"]

    def test_match_with_property_filter(self, hospital_graph):
        result = execute(
            hospital_graph, "MATCH (h:Hospital {name: 'Sacco'}) RETURN h.icuBeds AS beds"
        )
        assert result.values("beds") == [3]

    def test_match_where(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (p:Patient) WHERE p.prognosis = 'severe' RETURN p.ssn AS ssn ORDER BY ssn",
        )
        assert result.values("ssn") == ["P1", "P3"]

    def test_match_relationship_pattern(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (p:Patient)-[:TreatedAt]->(h:Hospital) RETURN count(p) AS n",
        )
        assert result.single("n") == 4

    def test_match_direction_matters(self, hospital_graph):
        wrong_direction = execute(
            hospital_graph, "MATCH (p:Patient)<-[:TreatedAt]-(h:Hospital) RETURN count(*) AS n"
        )
        assert wrong_direction.single("n") == 0

    def test_match_undirected(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (h:Hospital {name:'Sacco'})-[:ConnectedTo]-(other:Hospital) RETURN other.name AS name",
        )
        assert result.values("name") == ["Meyer"]

    def test_multi_hop_chain(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (p:Patient)-[:TreatedAt]->(:Hospital)-[:LocatedIn]->(r:Region) "
            "RETURN DISTINCT r.name AS region",
        )
        assert result.values("region") == ["Lombardy"]

    def test_multiple_labels_require_all(self, hospital_graph):
        result = execute(
            hospital_graph, "MATCH (p:Patient:HospitalizedPatient) RETURN count(*) AS n"
        )
        assert result.single("n") == 4
        result = execute(hospital_graph, "MATCH (p:Patient:IcuPatient) RETURN count(*) AS n")
        assert result.single("n") == 0

    def test_comma_separated_patterns_share_bindings(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (h:Hospital {name:'Sacco'}), (r:Region {name:'Tuscany'}) "
            "RETURN h.name AS h, r.name AS r",
        )
        assert result.rows == [{"h": "Sacco", "r": "Tuscany"}]

    def test_optional_match_pads_with_null(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (h:Hospital) OPTIONAL MATCH (h)<-[:TreatedAt]-(p:Patient) "
            "RETURN h.name AS name, count(p) AS patients ORDER BY name",
        )
        assert result.rows == [
            {"name": "Meyer", "patients": 0},
            {"name": "Sacco", "patients": 4},
        ]

    def test_relationship_property_filter(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (:Hospital)-[c:ConnectedTo {distance: 280}]-(:Hospital) RETURN count(c) AS n",
        )
        # undirected match sees the relationship from both endpoints
        assert result.single("n") == 2

    def test_named_path(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH p = (:Patient {ssn:'P0'})-[:TreatedAt]->(:Hospital) "
            "RETURN size(nodes(p)) AS n, size(relationships(p)) AS r",
        )
        assert result.rows == [{"n": 2, "r": 1}]

    def test_variable_length_path(self, graph):
        execute(graph, "CREATE (:City {name:'A'})-[:Road]->(:City {name:'B'})-[:Road]->(:City {name:'C'})")
        result = execute(
            graph,
            "MATCH (a:City {name:'A'})-[:Road*1..2]->(c:City) RETURN c.name AS name ORDER BY name",
        )
        assert result.values("name") == ["B", "C"]

    def test_variable_length_minimum(self, graph):
        execute(graph, "CREATE (:City {name:'A'})-[:Road]->(:City {name:'B'})-[:Road]->(:City {name:'C'})")
        result = execute(
            graph,
            "MATCH (a:City {name:'A'})-[:Road*2..3]->(c:City) RETURN c.name AS name",
        )
        assert result.values("name") == ["C"]

    def test_bound_relationship_variable_reused(self, hospital_graph):
        sacco = hospital_graph.find_nodes("Hospital", {"name": "Sacco"})[0]
        meyer = hospital_graph.find_nodes("Hospital", {"name": "Meyer"})[0]
        rel = hospital_graph.relationships_with_type("ConnectedTo")[0]
        executor = QueryExecutor(hospital_graph)
        result = executor.execute(
            "MATCH (a:Hospital)-[NEW]-(b:Hospital) RETURN a.name AS a, b.name AS b",
            bindings={"NEW": rel},
        )
        names = {(row["a"], row["b"]) for row in result.rows}
        assert names == {("Sacco", "Meyer"), ("Meyer", "Sacco")}
        assert sacco.id != meyer.id

    def test_node_variable_bound_to_null_matches_nothing(self, hospital_graph):
        for query in (
            "WITH null AS n MATCH (n:Hospital) RETURN count(*) AS c",
            "OPTIONAL MATCH (x:Nope) MATCH (x)-[:TreatedAt]->(b) RETURN count(*) AS c",
            "OPTIONAL MATCH (x:Nope) MATCH (p:Patient)-[:TreatedAt]->(x) RETURN count(*) AS c",
        ):
            assert execute(hospital_graph, query).single("c") == 0, query
        executor = QueryExecutor(hospital_graph)
        rows = executor.execute(
            "MATCH (OLD)-[:TreatedAt]->(h) RETURN h", bindings={"OLD": None}
        ).rows
        assert rows == []

    def test_virtual_labels(self, hospital_graph):
        patients = hospital_graph.find_nodes("Patient")
        chosen = {patients[0].id, patients[1].id}
        executor = QueryExecutor(hospital_graph, virtual_labels={"NEWNODES": chosen})
        result = executor.execute("MATCH (p:NEWNODES) RETURN count(p) AS n")
        assert result.single("n") == 2
        result = executor.execute(
            "MATCH (p:NEWNODES)-[:TreatedAt]->(h:Hospital) RETURN count(p) AS n"
        )
        assert result.single("n") == 2


class TestProjectionAndAggregation:
    def test_return_expression_column_names(self, hospital_graph):
        result = execute(hospital_graph, "MATCH (h:Hospital) RETURN h.name ORDER BY h.name")
        assert result.columns == ["h.name"]
        assert result.values("h.name") == ["Meyer", "Sacco"]

    def test_count_star(self, hospital_graph):
        assert execute(hospital_graph, "MATCH (p:Patient) RETURN count(*) AS n").single("n") == 4

    def test_count_on_empty_match_returns_zero(self, graph):
        assert execute(graph, "MATCH (x:Nothing) RETURN count(*) AS n").single("n") == 0

    def test_group_by_implicit_keys(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (p:Patient) RETURN p.prognosis AS prognosis, count(*) AS n ORDER BY prognosis",
        )
        assert result.rows == [{"prognosis": "mild", "n": 2}, {"prognosis": "severe", "n": 2}]

    def test_collect(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (p:Patient {prognosis:'severe'}) RETURN collect(p.ssn) AS ssns",
        )
        assert sorted(result.single("ssns")) == ["P1", "P3"]

    def test_sum_avg_min_max(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (h:Hospital) RETURN sum(h.icuBeds) AS s, avg(h.icuBeds) AS a, "
            "min(h.icuBeds) AS lo, max(h.icuBeds) AS hi",
        )
        assert result.rows == [{"s": 8, "a": 4.0, "lo": 3, "hi": 5}]

    def test_count_distinct(self, hospital_graph):
        result = execute(
            hospital_graph, "MATCH (p:Patient) RETURN count(DISTINCT p.prognosis) AS n"
        )
        assert result.single("n") == 2

    def test_aggregate_inside_arithmetic(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (p:Patient)-[:TreatedAt]->(h:Hospital {name:'Sacco'}) "
            "WITH count(p) AS patients MATCH (h:Hospital {name:'Sacco'}) "
            "RETURN patients * 1.0 / h.icuBeds AS load",
        )
        assert result.single("load") == pytest.approx(4 / 3)

    def test_with_filtering_aggregates(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (p:Patient) WITH count(p) AS total WHERE total > 3 RETURN total",
        )
        assert result.single("total") == 4
        result = execute(
            hospital_graph,
            "MATCH (p:Patient) WITH count(p) AS total WHERE total > 10 RETURN total",
        )
        assert len(result) == 0

    def test_order_by_desc_limit_skip(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (p:Patient) RETURN p.ssn AS ssn ORDER BY ssn DESC SKIP 1 LIMIT 2",
        )
        assert result.values("ssn") == ["P2", "P1"]

    def test_distinct(self, hospital_graph):
        result = execute(
            hospital_graph, "MATCH (p:Patient) RETURN DISTINCT p.prognosis AS x ORDER BY x"
        )
        assert result.values("x") == ["mild", "severe"]

    def test_return_wildcard(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (h:Hospital {name:'Sacco'}) RETURN *",
        )
        assert result.columns == ["h"]
        assert result.rows[0]["h"].properties["name"] == "Sacco"

    def test_with_star_carries_bindings(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (h:Hospital {name:'Sacco'}) WITH *, h.icuBeds AS beds RETURN h.name AS name, beds",
        )
        assert result.rows == [{"name": "Sacco", "beds": 3}]

    def test_unwind(self, graph):
        result = execute(graph, "UNWIND [1, 2, 3] AS x RETURN x * 10 AS y")
        assert result.values("y") == [10, 20, 30]

    def test_unwind_null_produces_no_rows(self, graph):
        assert len(execute(graph, "UNWIND null AS x RETURN x")) == 0

    def test_unwind_scalar_behaves_as_singleton(self, graph):
        assert execute(graph, "UNWIND 5 AS x RETURN x").values("x") == [5]

    def test_return_table_rendering(self, hospital_graph):
        result = execute(hospital_graph, "MATCH (h:Hospital) RETURN h.name AS name ORDER BY name")
        table = result.to_table()
        assert "name" in table and "Sacco" in table


class TestExistsSubqueries:
    def test_exists_block(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (h:Hospital) WHERE EXISTS { MATCH (h)<-[:TreatedAt]-(:Patient) } "
            "RETURN h.name AS name",
        )
        assert result.values("name") == ["Sacco"]

    def test_exists_inline_pattern(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (h:Hospital) WHERE EXISTS (h)-[:LocatedIn]-(:Region {name:'Tuscany'}) "
            "RETURN h.name AS name",
        )
        assert result.values("name") == ["Meyer"]

    def test_not_exists(self, hospital_graph):
        result = execute(
            hospital_graph,
            "MATCH (h:Hospital) WHERE NOT EXISTS { MATCH (h)<-[:TreatedAt]-(:Patient) } "
            "RETURN h.name AS name",
        )
        assert result.values("name") == ["Meyer"]


class TestWriteClauses:
    def test_set_property_and_label(self, hospital_graph):
        execute(
            hospital_graph,
            "MATCH (p:Patient {ssn:'P0'}) SET p.prognosis = 'critical', p:IcuPatient",
        )
        patient = hospital_graph.find_nodes("Patient", {"ssn": "P0"})[0]
        assert patient.properties["prognosis"] == "critical"
        assert "IcuPatient" in patient.labels

    def test_set_from_map_merge_and_replace(self, graph):
        execute(graph, "CREATE (:Config {a: 1, b: 2})")
        execute(graph, "MATCH (c:Config) SET c += {b: 20, c: 30}")
        node = graph.find_nodes("Config")[0]
        assert node.properties == {"a": 1, "b": 20, "c": 30}
        execute(graph, "MATCH (c:Config) SET c = {z: 1}")
        node = graph.find_nodes("Config")[0]
        assert node.properties == {"z": 1}

    def test_remove_property_and_label(self, hospital_graph):
        execute(hospital_graph, "MATCH (p:Patient {ssn:'P0'}) SET p:Flagged")
        execute(hospital_graph, "MATCH (p:Patient {ssn:'P0'}) REMOVE p.prognosis, p:Flagged")
        patient = hospital_graph.find_nodes("Patient", {"ssn": "P0"})[0]
        assert "prognosis" not in patient.properties
        assert "Flagged" not in patient.labels

    def test_delete_relationship(self, hospital_graph):
        execute(
            hospital_graph,
            "MATCH (:Patient {ssn:'P0'})-[r:TreatedAt]->(:Hospital) DELETE r",
        )
        assert (
            execute(
                hospital_graph,
                "MATCH (:Patient {ssn:'P0'})-[r:TreatedAt]->(:Hospital) RETURN count(r) AS n",
            ).single("n")
            == 0
        )

    def test_detach_delete_node(self, hospital_graph):
        execute(hospital_graph, "MATCH (p:Patient {ssn:'P0'}) DETACH DELETE p")
        assert len(hospital_graph.find_nodes("Patient", {"ssn": "P0"})) == 0

    def test_delete_node_with_relationships_fails_without_detach(self, hospital_graph):
        from repro.graph import NodeInUseError

        with pytest.raises(NodeInUseError):
            execute(hospital_graph, "MATCH (p:Patient {ssn:'P0'}) DELETE p")

    def test_merge_matches_existing(self, graph):
        execute(graph, "CREATE (:Hospital {name: 'Sacco'})")
        execute(graph, "MERGE (:Hospital {name: 'Sacco'})")
        assert graph.count_nodes_with_label("Hospital") == 1

    def test_merge_creates_missing(self, graph):
        execute(graph, "MERGE (:Hospital {name: 'Sacco'})")
        assert graph.count_nodes_with_label("Hospital") == 1

    def test_foreach_creates_per_element(self, graph):
        execute(graph, "FOREACH (x IN [1, 2, 3] | CREATE (:Alert {level: x}))")
        assert graph.count_nodes_with_label("Alert") == 3

    def test_foreach_over_collected_nodes(self, hospital_graph):
        execute(
            hospital_graph,
            "MATCH (p:Patient) WITH collect(p) AS ps "
            "FOREACH (p IN ps | SET p.checked = true)",
        )
        assert all(
            node.properties.get("checked") is True
            for node in hospital_graph.find_nodes("Patient")
        )

    def test_statistics_counters(self, graph):
        result = execute(graph, "CREATE (a:A {x: 1})-[:R]->(b:B)")
        stats = result.statistics
        assert stats.nodes_created == 2
        assert stats.relationships_created == 1
        assert stats.properties_set == 1
        assert stats.contains_updates()

    def test_write_through_shared_transaction_captures_delta(self, graph):
        tx = Transaction(graph)
        execute(graph, "CREATE (:Alert {desc: 'x'})", transaction=tx)
        assert len(tx.statement_delta.created_nodes) == 1


class TestCallProcedures:
    def test_unregistered_procedure_rejected(self, graph):
        with pytest.raises(UnsupportedFeatureError):
            execute(graph, "CALL unknown.proc() YIELD value RETURN value")

    def test_custom_procedure(self, graph):
        def doubler(args, invocation):
            return [{"value": args[0] * 2}]

        executor = QueryExecutor(graph, procedures={"math.double": doubler})
        result = executor.execute("CALL math.double(21) YIELD value RETURN value")
        assert result.single("value") == 42

    def test_procedure_can_run_subquery(self, graph):
        execute(graph, "CREATE (:Hospital {name: 'Sacco'})")

        def conditional_create(args, invocation):
            if args[0]:
                invocation.run_subquery(args[1])
            return [{"done": True}]

        executor = QueryExecutor(graph, procedures={"util.when": conditional_create})
        executor.execute(
            "CALL util.when(true, 'CREATE (:Alert {desc: \"from proc\"})') YIELD done RETURN done"
        )
        assert graph.count_nodes_with_label("Alert") == 1


class TestErrorsAndDeterminism:
    def test_unknown_variable_in_return(self, graph):
        graph.create_node(["A"])
        with pytest.raises(CypherRuntimeError):
            execute(graph, "MATCH (n) RETURN missing_variable")

    def test_deterministic_clock_injection(self, graph):
        stamp = datetime.datetime(2020, 1, 1, 0, 0, 0)
        execute(graph, "CREATE (:Alert {time: datetime()})", clock=lambda: stamp)
        assert graph.find_nodes("Alert")[0].properties["time"] == stamp

    def test_return_not_last_rejected(self, graph):
        with pytest.raises(UnsupportedFeatureError):
            execute(graph, "RETURN 1 CREATE (:X)")
