"""The five spine workloads.

Each workload knows how to set the system up (timed by the runner as
``setup_s``), which operations to send during warm-up and during the
measured window, and how to check afterwards that every acknowledged
write is where the generator's model says it should be.  The *why* of
each workload is in README.md and BENCHMARK.json.

The CoV2K population itself is a fixed data set (``Cov2kProfile``'s own
seed); ``--seed`` drives the traffic: which keys are read, which writes
happen in which order, which mutations are critical.  Operation classes
are dealt from a shuffled deck with exact shares per 100 operations, so
two seeds differ in order and keys but not in mix.
"""

from __future__ import annotations

import collections
import gc
import json
import math
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Iterable, Iterator, Sequence

import repro
from repro.datasets import Cov2kProfile, all_paper_triggers, generate_cov2k

from loadgen import (
    Client,
    HttpClient,
    Op,
    Samples,
    encode_request,
    http_check,
    run_clients,
    session_check,
    session_send,
)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: Operations pre-built per client = expected rate x seconds x HEADROOM;
#: a window that runs out of operations ends early (and says so).
HEADROOM = 2


def deal(rng: random.Random, shares: dict[str, int], count: int) -> Iterator[str]:
    """``count`` class names dealt in shuffled blocks that hold exactly ``shares``.

    The block is the smallest that keeps the percentages (15/15/40/15/15
    deals in twenties), so even a short slice of the run sees the mix.
    """
    if sum(shares.values()) != 100:
        raise ValueError(f"shares must sum to 100, got {sum(shares.values())}")
    unit = math.gcd(*shares.values())
    block = [kind for kind, share in shares.items() for _ in range(share // unit)]
    dealt = 0
    while dealt < count:
        rng.shuffle(block)
        yield from block[: count - dealt]
        dealt += len(block)


def load_graph(session, source) -> None:
    """Copy a generated PropertyGraph into ``session`` in one transaction."""
    ids: dict[int, int] = {}
    with session.transaction() as tx:
        for node in source.nodes():
            ids[node.id] = tx.create_node(sorted(node.labels), dict(node.properties)).id
        for rel in source.relationships():
            tx.create_relationship(rel.type, ids[rel.start], ids[rel.end], dict(rel.properties))


def count_of(session, query: str, parameters: dict | None = None) -> int:
    return session.run(query, parameters).single()


class Workload:
    """Common shape; subclasses fill in set-up, traffic and verification."""

    name = ""
    http = False
    #: Operations per second per client on the seed commit (sizes the deck).
    rate_hint = 0.0
    warmup_ops = 0
    #: peak_rss_mb is read when a client completes this many measured
    #: operations (about half a default window on the seed commit), not at
    #: the end of the window: the write workloads grow the graph and the
    #: firing log per operation, so a reading at the deadline would rise
    #: with throughput and report a speed-up as a memory regression.
    rss_after_ops = 0

    def __init__(self, seed: int, scale: float, workdir: str, traced: bool) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.traced = traced
        self.notes: dict[str, Any] = {}

    def scaled(self, count: int, floor: int = 1) -> int:
        return max(floor, int(count * self.scale))

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        """Drop whatever ``setup`` built (it may be called again)."""

    def prepare_traffic(self, seconds: float) -> None:
        """Build every operation (warm-up and measured) before any clock."""
        raise NotImplementedError

    def clients(self, streams: list[list[Op]]) -> list[Client]:
        """One closed-loop client per stream of operations."""
        raise NotImplementedError

    def warm_up(self) -> None:
        self.warmup_samples, _, _ = run_clients(self.clients(self.warmup), None)

    def measure(self, seconds: float) -> tuple[list[Samples], float, float]:
        clients = self.clients(self.ops)
        clients[0].probe = (self.rss_after_ops, self.peak_rss_mb)
        return run_clients(clients, seconds)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the process under test."""
        raise NotImplementedError

    def live_counts(self) -> dict[str, int]:
        raise NotImplementedError

    def verify(self, samples: Sequence[Samples]) -> int:
        """Number of acknowledged effects that are missing or wrong."""
        return 0

    def acknowledged(self, samples: Sequence[Samples]) -> list[Op]:
        """Every operation the system said it completed, warm-up included."""
        done: list[Op] = []
        for sample in (*self.warmup_samples, *samples):
            failed = set(sample.failed)
            done += [op for index, op in enumerate(sample.ops) if index not in failed]
        return done

    # -- tracing --------------------------------------------------------
    def trace_mark(self) -> dict[str, Any]:
        """End of warm-up: return counter baselines and forget the spans."""
        from tracing import TRACER

        baseline = TRACER.snapshot(with_spans=False)
        TRACER.reset()
        return baseline

    def trace_collect(self) -> dict[str, Any]:
        from tracing import TRACER

        return TRACER.snapshot()


def tally(ops: Iterable[Op]) -> collections.Counter:
    total: collections.Counter = collections.Counter()
    for op in ops:
        total.update(op.effect)
    return total


def mismatches(expected: dict[str, int], actual: dict[str, int], notes: dict) -> int:
    """Sum of |expected - actual|; the differing entries go to ``notes``."""
    wrong = {
        key: {"expected": expected[key], "actual": actual.get(key)}
        for key in expected
        if actual.get(key) != expected[key]
    }
    if wrong:
        notes["mismatches"] = wrong
    return sum(abs(v["expected"] - (v["actual"] or 0)) for v in wrong.values())


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


class InProcess(Workload):
    """One generator thread calling ``session.run`` in this process."""

    session = None
    graph = None

    def discard(self) -> None:
        if self.session is not None and self.session.durable:
            self.session.close()
        # Graph, session and engine reference each other; collect now so a
        # repeated set-up does not stack a second copy onto peak RSS.
        self.session = self.graph = None
        gc.collect()

    def build_ops(self, rng: random.Random, count: int) -> list[Op]:
        raise NotImplementedError

    def prepare_traffic(self, seconds: float) -> None:
        rng = random.Random(self.seed)
        measured = max(100, int(self.rate_hint * seconds * HEADROOM))
        warm = self.scaled(self.warmup_ops)
        ops = self.build_ops(rng, warm + measured)
        self.warmup, self.ops = [ops[:warm]], [ops[warm:]]

    def clients(self, streams: list[list[Op]]) -> list[Client]:
        (ops,) = streams
        send = session_send(self.session)
        if self.traced:
            from tracing import timed

            send = timed("op", send)
        return [Client(ops, send, session_check, ops)]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def live_counts(self) -> dict[str, int]:
        graph = self.session.graph
        return {"nodes": graph.node_count(), "relationships": graph.relationship_count()}


class FirehoseTriggers(InProcess):
    """Small deltas through 14 triggers spanning all three evaluation tiers."""

    name = "firehose-triggers"
    rate_hint = 130
    warmup_ops = 60
    rss_after_ops = 650
    READINGS = 20
    WINDOW = 50
    STATIONS = 50
    GATES = 10
    CUTOFF = 990.0
    ZONE_CUTOFF = 950.0
    MEAN_CUTOFF = 560.0

    def setup(self) -> None:
        session = repro.GraphSession()
        with session.transaction() as tx:
            tx.create_node(["Config"], {"name": "threshold", "cutoff": self.CUTOFF})
            for index in range(self.GATES):
                tx.create_node(["Config"], {"name": f"gate{index}", "enabled": False})
            for index in range(self.scaled(10_000, 100)):
                tx.create_node(["Config"], {"name": f"entry{index}", "payload": index})
            for index in range(self.STATIONS):
                tx.create_node(["Station"], {"id": index, "zone": index % 5})
        session.graph.create_property_index("Station", "id")
        session.graph.create_property_index("Reading", "batch")
        for index in range(self.GATES):
            session.create_trigger(
                f"CREATE TRIGGER Gate{index} AFTER CREATE ON 'Reading' FOR EACH NODE "
                f"WHEN MATCH (c:Config {{name: 'gate{index}', enabled: true}}) "
                "BEGIN CREATE (:NeverFired) END"
            )
        session.create_trigger(
            "CREATE TRIGGER Escalate AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (c:Config {name: 'threshold'}) WHERE NEW.value > c.cutoff "
            "BEGIN CREATE (:Spike {value: NEW.value}) END"
        )
        session.create_trigger(
            "CREATE TRIGGER ZoneWatch AFTER CREATE ON 'Reading' FOR EACH NODE "
            f"WHEN MATCH (NEW)-[:At]->(s:Station {{zone: 0}}) WHERE NEW.value > {self.ZONE_CUTOFF} "
            "BEGIN CREATE (:ZoneSpike {value: NEW.value}) END"
        )
        session.create_trigger(
            "CREATE TRIGGER BatchMean AFTER CREATE ON 'Reading' FOR ALL NODES "
            "WHEN MATCH (r:NEWNODES) WITH avg(r.value) AS mean "
            f"WHERE mean > {self.MEAN_CUTOFF} "
            "BEGIN CREATE (:BatchAlarm {mean: mean}) END"
        )
        session.create_trigger(
            "CREATE TRIGGER CascadeAudit AFTER CREATE ON 'Spike' FOR EACH NODE "
            "BEGIN CREATE (:Audit {value: NEW.value}) END"
        )
        self.session = session

    def build_ops(self, rng: random.Random, count: int) -> list[Op]:
        ops = []
        for tick in range(count):
            rows = [
                {"station": rng.randrange(self.STATIONS), "value": round(rng.uniform(0, 1000), 3)}
                for _ in range(self.READINGS)
            ]
            values = [row["value"] for row in rows]
            expired = tick >= self.WINDOW
            ops.append(
                Op(
                    "tick",
                    True,
                    (
                        (
                            "UNWIND $rows AS row MATCH (s:Station {id: row.station}) "
                            "CREATE (:Reading {value: row.value, batch: $batch})-[:At]->(s)",
                            {"rows": rows, "batch": tick},
                        ),
                        (
                            "MATCH (r:Reading {batch: $batch}) DETACH DELETE r",
                            {"batch": tick - self.WINDOW},
                        ),
                    ),
                    counters={"nodes_deleted": self.READINGS if expired else 0},
                    effect={
                        "Spike": sum(v > self.CUTOFF for v in values),
                        "ZoneSpike": sum(
                            row["value"] > self.ZONE_CUTOFF and row["station"] % 5 == 0
                            for row in rows
                        ),
                        "BatchAlarm": int(sum(values) / len(values) > self.MEAN_CUTOFF),
                    },
                )
            )
        return ops

    def verify(self, samples: Sequence[Samples]) -> int:
        done = self.acknowledged(samples)
        expected = dict(tally(done))
        expected["Audit"] = expected.setdefault("Spike", 0)
        expected.setdefault("ZoneSpike", 0)
        expected.setdefault("BatchAlarm", 0)
        expected["NeverFired"] = 0
        expected["Reading"] = min(len(done), self.WINDOW) * self.READINGS
        graph = self.session.graph
        actual = {label: graph.count_nodes_with_label(label) for label in expected}
        wrong = mismatches(expected, actual, self.notes)
        tiers: collections.Counter = collections.Counter()
        for entry in self.session.explain_triggers().values():
            tiers.update(entry["tiers"])
        self.notes["tier_runs"] = dict(tiers)
        for tier in ("incremental", "batched", "sequential"):
            if not tiers[tier]:
                self.notes.setdefault("idle_tiers", []).append(tier)
                wrong += 1
        return wrong


class DurableWrites(InProcess):
    """Autocommit writes with an fsync per commit, then a cold reopen."""

    name = "durable-writes"
    rate_hint = 3500
    warmup_ops = 500
    rss_after_ops = 12_000
    ACCOUNTS = 2000

    @property
    def accounts(self) -> int:
        return self.scaled(self.ACCOUNTS, 50)

    def setup(self) -> None:
        self.path = os.path.join(self.workdir, "durable")
        shutil.rmtree(self.path, ignore_errors=True)
        session = repro.GraphSession(path=self.path)
        with session.transaction() as tx:
            for index in range(self.accounts):
                tx.create_node(["Account"], {"id": index, "balance": 0})
        session.graph.create_property_index("Account", "id")
        session.create_trigger(
            "CREATE TRIGGER AuditAccount AFTER CREATE ON 'Account' FOR EACH NODE "
            "BEGIN CREATE (:Audit {account: NEW.id}) END"
        )
        session.checkpoint()
        self.session = session

    def build_ops(self, rng: random.Random, count: int) -> list[Op]:
        accounts = next_id = self.accounts
        shares = {"create": 40, "set": 40, "transfer": 20}
        # ~70k ops live in the measured process: share what is constant so
        # the generator's own memory stays small beside the engine's.
        created, audited = {"nodes_created": 1}, {"Account": 1, "Audit": 1}
        updated = {"properties_set": 1}
        linked, transferred = {"relationships_created": 1}, {"Transfer": 1}
        ops = []
        for kind in deal(rng, shares, count):
            if kind == "create":
                ops.append(
                    Op(
                        kind,
                        True,
                        (("CREATE (:Account {id: $id, balance: 0})", {"id": next_id}),),
                        counters=created,
                        effect=audited,
                    )
                )
                next_id += 1
            elif kind == "set":
                target = rng.randrange(accounts)
                value = rng.randrange(1, 10**6)
                ops.append(
                    Op(
                        kind,
                        True,
                        (
                            (
                                "MATCH (a:Account {id: $id}) SET a.balance = $value",
                                {"id": target, "value": value},
                            ),
                        ),
                        counters=updated,
                        effect={("balance", target): value},
                    )
                )
            else:
                source, target = rng.sample(range(accounts), 2)
                ops.append(
                    Op(
                        kind,
                        True,
                        (
                            (
                                "MATCH (a:Account {id: $a}), (b:Account {id: $b}) "
                                "CREATE (a)-[:Transfer {amount: $amount}]->(b)",
                                {"a": source, "b": target, "amount": rng.randrange(1, 1000)},
                            ),
                        ),
                        counters=linked,
                        effect=transferred,
                    )
                )
        return ops

    def verify(self, samples: Sequence[Samples]) -> int:
        done = self.acknowledged(samples)
        expected = {"Account": self.accounts, "Audit": 0, "Transfer": 0}
        balances: dict[int, int] = {}
        for op in done:
            for key, value in op.effect.items():
                if isinstance(key, tuple):
                    balances[key[1]] = value  # the last acknowledged SET wins
                else:
                    expected[key] += value
        expected["balance_sum"] = sum(balances.values())
        expected["wal_records"] = len(done)
        # Abandon the session as a kill would: every commit was fsynced,
        # nothing was checkpointed or closed.  Reopen and replay the WAL.
        self.session = None
        begun = time.perf_counter()
        reopened = repro.GraphSession(path=self.path)
        self.notes["recovery_s"] = time.perf_counter() - begun
        self.notes["replayed_records"] = reopened.recovery.replayed_records
        self.session = reopened
        actual = {
            "Account": count_of(reopened, "MATCH (a:Account) RETURN count(a)"),
            "Audit": count_of(reopened, "MATCH (a:Audit) RETURN count(a)"),
            "Transfer": count_of(reopened, "MATCH ()-[t:Transfer]->() RETURN count(t)"),
            "balance_sum": count_of(reopened, "MATCH (a:Account) RETURN sum(a.balance)"),
            "wal_records": reopened.recovery.replayed_records,
        }
        return mismatches(expected, actual, self.notes)


class AnalyticReads(InProcess):
    """Unindexed scans, joins, sorts and path expansion over ~32k nodes."""

    name = "analytic-reads"
    rate_hint = 60
    warmup_ops = 60
    rss_after_ops = 250
    SHARES = {"var-length": 15, "two-hop": 15, "region-join": 40, "top-k": 15, "scan-agg": 15}

    def setup(self) -> None:
        dataset = generate_cov2k(Cov2kProfile().scaled(max(1.0, 100 * self.scale)))
        self.graph = dataset.graph
        self.session = repro.GraphSession(graph=dataset.graph)

    def build_ops(self, rng: random.Random, count: int) -> list[Op]:
        oracle = _AnalyticOracle(self.graph)
        makers = {
            "var-length": lambda: (
                "MATCH (p:Patient {ssn: $ssn})-[*1..3]-(x) RETURN count(*) AS c",
                {"ssn": rng.choice(oracle.ssns)},
                oracle.trails,
            ),
            "two-hop": lambda: (
                "MATCH (l:Lineage {name: $name})<-[:BelongsTo]-(s:Sequence)"
                "<-[:FoundIn]-(m:Mutation) RETURN count(DISTINCT m) AS c",
                {"name": rng.choice(oracle.lineages)},
                oracle.lineage_mutations,
            ),
            # Three patterns in one MATCH: the join orderer starts from the
            # region; written as separate MATCH clauses (or with the third
            # pattern's patient unlabelled) the planner label-scans Sequence
            # per row and one query takes ~35 s at this size.
            "region-join": lambda: (
                "MATCH (h:Hospital)-[:LocatedIn]->(r:Region {name: $region}), "
                "(p:IcuPatient)-[:TreatedAt]->(h), (p:IcuPatient)-[:HasSample]->(s:Sequence) "
                "RETURN count(DISTINCT p) AS c",
                {"region": rng.choice(oracle.regions)},
                oracle.icu_sampled_in_region,
            ),
            "top-k": lambda: (
                "MATCH (p:HospitalizedPatient) WHERE p.prognosis = $prognosis "
                "RETURN p.ssn AS ssn ORDER BY p.admission DESC, p.ssn LIMIT 10",
                {"prognosis": rng.choice(("mild", "moderate", "severe", "critical"))},
                oracle.latest_admissions,
            ),
            "scan-agg": lambda: (
                "MATCH (p:Patient) WHERE p.vaccinated = $doses AND p.sex = $sex "
                "RETURN count(*) AS c",
                {"doses": rng.randrange(4), "sex": rng.choice("MF")},
                oracle.vaccinated,
            ),
        }
        ops = []
        for kind in deal(rng, self.SHARES, count):
            query, parameters, expect = makers[kind]()
            ops.append(Op(kind, False, ((query, parameters),), rows=expect(**parameters)))
        return ops


class _AnalyticOracle:
    """Plain-Python answers to the analytic queries, memoised per parameter."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self.patients = graph.nodes_with_label("Patient")
        self.ssns = [node.properties["ssn"] for node in self.patients]
        self.lineages = [node.properties["name"] for node in graph.nodes_with_label("Lineage")]
        self.regions = [node.properties["name"] for node in graph.nodes_with_label("Region")]
        self._by_ssn = {node.properties["ssn"]: node for node in self.patients}
        self._memo: dict[tuple, list] = {}

    def _cached(self, key: tuple, compute) -> list:
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def trails(self, ssn: str) -> list[dict]:
        def count() -> list[dict]:
            graph = self.graph
            total = 0
            stack = [(self._by_ssn[ssn].id, frozenset())]
            while stack:
                node_id, used = stack.pop()
                for rel in graph.relationships_of(node_id):
                    if rel.id in used:
                        continue
                    total += 1
                    if len(used) < 2:
                        other = rel.end if rel.start == node_id else rel.start
                        stack.append((other, used | {rel.id}))
            return [{"c": total}]

        return self._cached(("trails", ssn), count)

    def lineage_mutations(self, name: str) -> list[dict]:
        def count() -> list[dict]:
            graph = self.graph
            (lineage,) = graph.find_nodes("Lineage", {"name": name})
            mutations = set()
            for belongs in graph.relationships_of(lineage.id, "in", "BelongsTo"):
                for found in graph.relationships_of(belongs.start, "in", "FoundIn"):
                    mutations.add(found.start)
            return [{"c": len(mutations)}]

        return self._cached(("lineage", name), count)

    def icu_sampled_in_region(self, region: str) -> list[dict]:
        def count() -> list[dict]:
            graph = self.graph
            (node,) = graph.find_nodes("Region", {"name": region})
            patients = set()
            for located in graph.relationships_of(node.id, "in", "LocatedIn"):
                if "Hospital" not in graph.node(located.start).labels:
                    continue
                for treated in graph.relationships_of(located.start, "in", "TreatedAt"):
                    patient = graph.node(treated.start)
                    if "IcuPatient" in patient.labels and graph.relationships_of(
                        patient.id, "out", "HasSample"
                    ):
                        patients.add(patient.id)
            return [{"c": len(patients)}]

        return self._cached(("region", region), count)

    def latest_admissions(self, prognosis: str) -> list[dict]:
        def top() -> list[dict]:
            matching = [
                node.properties
                for node in self.graph.nodes_with_label("HospitalizedPatient")
                if node.properties.get("prognosis") == prognosis
            ]
            matching.sort(key=lambda p: p["ssn"])
            matching.sort(key=lambda p: p["admission"], reverse=True)
            return [{"ssn": p["ssn"]} for p in matching[:10]]

        return self._cached(("top", prognosis), top)

    def vaccinated(self, doses: int, sex: str) -> list[dict]:
        def count() -> list[dict]:
            return [
                {
                    "c": sum(
                        node.properties.get("vaccinated") == doses
                        and node.properties.get("sex") == sex
                        for node in self.patients
                    )
                }
            ]

        return self._cached(("vaccinated", doses, sex), count)


# ---------------------------------------------------------------------------
# HTTP workloads
# ---------------------------------------------------------------------------

GRAPH = "covid"
CLIENTS = 2
CRITICAL_EFFECT = "Enhanced infectivity"
DESIGNATIONS = ("Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Omicron", "Zeta", "Eta")


class ServerChild:
    """``python -m repro.server`` (or serve.py when traced) on a free port."""

    def __init__(self, path: str, trace_dir: str | None) -> None:
        self.trace_dir = trace_dir
        self._dumps = 0
        if trace_dir is None:
            command = [sys.executable, "-u", "-m", "repro.server"]
        else:
            os.makedirs(trace_dir, exist_ok=True)
            serve = os.path.join(HERE, "serve.py")
            command = [sys.executable, "-u", serve, "--trace-dir", trace_dir]
        command += ["--port", "0", "--path", path]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, environment.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=environment, text=True
        )
        # A child that never announces itself must not hang the benchmark.
        watchdog = threading.Timer(60, self.process.kill)
        watchdog.start()
        try:
            banner = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if "serving on http://" not in banner:
            self.kill()
            raise RuntimeError(f"server child did not start: {banner!r}")
        address = banner.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not found")

    def dump_trace(self) -> dict[str, Any]:
        """Ask the traced child for its spans and counters (it then resets)."""
        target = os.path.join(self.trace_dir, f"trace-{self._dumps}.json")
        self._dumps += 1
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 60
        while not os.path.exists(target):
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server child did not write its trace")
            time.sleep(0.01)
        with open(target) as handle:
            return json.load(handle)

    def kill(self) -> None:
        """SIGKILL: no graceful shutdown, no checkpoint."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()


class CovidServer(Workload):
    """Shared set-up of the two HTTP workloads: durable CoV2K store + server."""

    http = True
    FACTOR = 20
    INDEXES = (
        ("Patient", "ssn"),
        ("Sequence", "accession"),
        ("Lineage", "name"),
        ("Mutation", "name"),
        ("Hospital", "name"),
        ("CriticalEffect", "description"),
    )
    server: ServerChild | None = None

    def setup(self) -> None:
        self.path = os.path.join(self.workdir, "db")
        shutil.rmtree(self.path, ignore_errors=True)
        dataset = generate_cov2k(Cov2kProfile().scaled(max(1.0, self.FACTOR * self.scale)))
        self.source = dataset.graph
        with repro.GraphDatabase(path=self.path) as database:
            session = database.graph(GRAPH)
            load_graph(session, dataset.graph)
            for label, prop in self.INDEXES:
                session.graph.create_property_index(label, prop)
            for trigger in all_paper_triggers():
                session.create_trigger(trigger)
            database.checkpoint()
        trace_dir = os.path.join(self.workdir, "trace") if self.traced else None
        self.server = ServerChild(self.path, trace_dir)
        self.connections = [HttpClient(self.server.host, self.server.port) for _ in range(CLIENTS)]
        # The server opens a graph on first use: this request pays for
        # loading the snapshot, which is part of getting ready to serve.
        self.connections[0].query(GRAPH, "MATCH (n) RETURN count(n) AS c")

    def discard(self) -> None:
        if self.server is not None:
            for connection in self.connections:
                connection.close()
            self.server.kill()
            self.server = None

    def peak_rss_mb(self) -> float:
        return self.server.vm_hwm_mb()

    def live_counts(self) -> dict[str, int]:
        client = self.connections[0]
        return {
            "nodes": client.query(GRAPH, "MATCH (n) RETURN count(n) AS c")[0]["c"],
            "relationships": client.query(GRAPH, "MATCH ()-[r]->() RETURN count(r) AS c")[0]["c"],
        }

    def trace_mark(self) -> dict[str, Any]:
        return self.server.dump_trace()

    def trace_collect(self) -> dict[str, Any]:
        return self.server.dump_trace()

    # -- traffic --------------------------------------------------------
    def build_client_ops(self, rng: random.Random, client: int, measured: int) -> list[list[Op]]:
        """This client's [warm-up ops, measured ops]."""
        raise NotImplementedError

    def prepare_traffic(self, seconds: float) -> None:
        self.model = _CovidModel(self.source)
        measured = max(100, int(self.rate_hint * seconds * HEADROOM))
        self.warmup, self.ops = [], []
        for client in range(CLIENTS):
            rng = random.Random(self.seed * CLIENTS + client)
            warm, ops = self.build_client_ops(rng, client, measured)
            self.warmup.append(warm)
            self.ops.append(ops)

    def clients(self, streams: list[list[Op]]) -> list[Client]:
        encoded: dict[int, tuple] = {}
        clients = []
        for connection, ops in zip(self.connections, streams):
            # Reads repeat the same Op objects; encode each distinct one once.
            requests = [
                encoded.get(id(op)) or encoded.setdefault(id(op), encode_request(GRAPH, op))
                for op in ops
            ]
            clients.append(Client(ops, connection.send, http_check, requests))
        return clients


class _CovidModel:
    """What the generator knows about the population it reads and writes."""

    def __init__(self, graph) -> None:
        self.patients = [
            (node.properties["ssn"], node.properties["name"])
            for node in graph.nodes_with_label("Patient")
        ]
        self.lineage_names = [n.properties["name"] for n in graph.nodes_with_label("Lineage")]
        self.designation = {
            n.properties["name"]: n.properties.get("whoDesignation")
            for n in graph.nodes_with_label("Lineage")
        }
        self.sequence_lineage = [
            (
                graph.node(rel.start).properties["accession"],
                graph.node(rel.end).properties["name"],
            )
            for rel in graph.relationships_with_type("BelongsTo")
        ]
        (sacco,) = graph.find_nodes("Hospital", {"name": "Sacco"})
        # Admissions land at Sacco and MoveToNearHospital relocates them to a
        # neighbour, so only the other hospitals have counts a reader can pin.
        touched = {sacco.id} | {
            rel.end if rel.start == sacco.id else rel.start
            for rel in graph.relationships_of(sacco.id, "both", "ConnectedTo")
        }
        self.icu_counts = []
        for hospital in graph.nodes_with_label("Hospital"):
            if hospital.id in touched:
                continue
            icu = sum(
                "IcuPatient" in graph.node(rel.start).labels
                for rel in graph.relationships_of(hospital.id, "in", "TreatedAt")
            )
            self.icu_counts.append((hospital.properties["name"], icu))
        self.base = {
            "Mutation": graph.count_nodes_with_label("Mutation"),
            "Sequence": graph.count_nodes_with_label("Sequence"),
            "IcuPatient": graph.count_nodes_with_label("IcuPatient"),
        }
        self._reads: dict[tuple, Op] = {}

    def read(self, kind: str, rng: random.Random) -> Op:
        if kind == "patient-lookup":
            key, expected = rng.choice(self.patients)
            query = "MATCH (p:Patient {ssn: $ssn}) RETURN p.name AS name"
            name, column = "ssn", "name"
        elif kind == "lineage-hop":
            key, expected = rng.choice(self.sequence_lineage)
            query = (
                "MATCH (s:Sequence {accession: $accession})-[:BelongsTo]->(l:Lineage) "
                "RETURN l.name AS lineage"
            )
            name, column = "accession", "lineage"
        else:
            key, expected = rng.choice(self.icu_counts)
            query = (
                "MATCH (p:IcuPatient)-[:TreatedAt]->(h:Hospital {name: $hospital}) "
                "RETURN count(p) AS c"
            )
            name, column = "hospital", "c"
        op = self._reads.get((kind, key))
        if op is None:
            op = Op(kind, False, ((query, {name: key}),), rows=[{column: expected}])
            self._reads[(kind, key)] = op
        return op


class HttpReadPoint(CovidServer):
    """Indexed point reads: server, wire, lock admission, empty commit."""

    name = "http-read-point"
    rate_hint = 1800
    warmup_ops = 5000
    rss_after_ops = 8000
    SHARES = {"patient-lookup": 60, "lineage-hop": 40}

    def build_client_ops(self, rng, client, measured):
        warm = self.scaled(self.warmup_ops)
        ops = [self.model.read(kind, rng) for kind in deal(rng, self.SHARES, warm + measured)]
        return ops[:warm], ops[warm:]


class CovidHttpMixed(CovidServer):
    """The paper's scenario end to end: reads beside trigger-firing writes."""

    name = "covid-http-mixed"
    rate_hint = 220
    rss_after_ops = 1100
    #: Point reads first (they bring interpreter and socket to steady state
    #: in a second or two), then the real mix so every statement is planned.
    warmup_reads = 2500
    warmup_mixed = 300
    SHARES = {
        "patient-lookup": 40,
        "lineage-hop": 20,
        "icu-count": 10,
        "mutation": 10,
        "deposit": 6,
        "designation": 4,
        "icu": 10,
    }
    BATCH = 3
    #: Admission batches kept in the ICU before the oldest is discharged.
    LAG = 4

    def build_client_ops(self, rng, client, measured):
        model = self.model
        reads = [
            model.read(kind, rng)
            for kind in deal(rng, HttpReadPoint.SHARES, self.scaled(self.warmup_reads))
        ]
        warm = self.scaled(self.warmup_mixed)
        # Each connection owns half of the lineages, so whether a SET changes
        # a value does not depend on how the two connections interleave.
        lineages = model.lineage_names[client::CLIENTS] or model.lineage_names
        designation = {name: model.designation[name] for name in lineages}
        admitted: collections.deque[list[str]] = collections.deque()
        ops: list[Op] = []
        for serial, kind in enumerate(deal(rng, self.SHARES, warm + measured)):
            tag = f"{self.seed}-{client}-{serial}"
            if kind in ("patient-lookup", "lineage-hop", "icu-count"):
                ops.append(model.read(kind, rng))
            elif kind == "mutation":
                critical = rng.random() < 0.3
                query = "CREATE (:Mutation {name: $name, protein: 'Spike'})"
                if critical:
                    query = (
                        f"MATCH (c:CriticalEffect {{description: '{CRITICAL_EFFECT}'}}) "
                        + query
                        + "-[:Risk]->(c)"
                    )
                ops.append(
                    Op(
                        "mutation-critical" if critical else "mutation",
                        True,
                        ((query, {"name": f"Spike:{tag}"}),),
                        counters={"nodes_created": 1, "relationships_created": int(critical)},
                        effect={"Mutation": 1, "critical_alerts": int(critical)},
                    )
                )
            elif kind == "deposit":
                ops.append(
                    Op(
                        kind,
                        True,
                        (
                            (
                                "MATCH (l:Lineage {name: $lineage}) "
                                "CREATE (:Sequence {accession: $accession})-[:BelongsTo]->(l)",
                                {
                                    "lineage": rng.choice(model.lineage_names),
                                    "accession": f"EPI_{tag}",
                                },
                            ),
                        ),
                        counters={"nodes_created": 1, "relationships_created": 1},
                        effect={"Sequence": 1},
                    )
                )
            elif kind == "designation":
                name, value = rng.choice(lineages), rng.choice(DESIGNATIONS)
                changed = designation[name] is not None and designation[name] != value
                designation[name] = value
                ops.append(
                    Op(
                        kind,
                        True,
                        (
                            (
                                "MATCH (l:Lineage {name: $name}) SET l.whoDesignation = $value",
                                {"name": name, "value": value},
                            ),
                        ),
                        counters={"properties_set": 1},
                        effect={"designation_alerts": int(changed)},
                    )
                )
            elif len(admitted) < self.LAG:
                ssns = [f"ICU-{tag}-{slot}" for slot in range(self.BATCH)]
                admitted.append(ssns)
                # Sacco only: a batch that admits no one there makes
                # IcuPatientIncrease divide by zero and abort the statement.
                ops.append(
                    Op(
                        "icu-admit",
                        True,
                        (
                            (
                                "MATCH (h:Hospital {name: 'Sacco'}) UNWIND $ssns AS ssn "
                                "CREATE (:Patient:HospitalizedPatient:IcuPatient "
                                "{ssn: ssn, prognosis: 'severe', admittedToICU: true})"
                                "-[:TreatedAt]->(h)",
                                {"ssns": ssns},
                            ),
                        ),
                        counters={"nodes_created": self.BATCH, "relationships_created": self.BATCH},
                        effect={"IcuPatient": self.BATCH, "sacco_batches": 1},
                    )
                )
            else:
                ops.append(
                    Op(
                        "icu-discharge",
                        True,
                        (
                            (
                                "UNWIND $ssns AS ssn MATCH (p:Patient {ssn: ssn}) DETACH DELETE p",
                                {"ssns": admitted.popleft()},
                            ),
                        ),
                        counters={"nodes_deleted": self.BATCH},
                        effect={"IcuPatient": -self.BATCH},
                    )
                )
        return reads + ops[:warm], ops[warm:]

    def verify(self, samples: Sequence[Samples]) -> int:
        done = tally(self.acknowledged(samples))
        base = self.model.base
        expected = {
            "Mutation": base["Mutation"] + done["Mutation"],
            "Sequence": base["Sequence"] + done["Sequence"],
            "IcuPatient": base["IcuPatient"] + done["IcuPatient"],
            "critical_alerts": done["critical_alerts"],
            "designation_alerts": done["designation_alerts"],
        }
        # Kill the server without a checkpoint, then replay what it fsynced.
        self.discard()
        begun = time.perf_counter()
        with repro.GraphDatabase(path=self.path) as database:
            session = database.graph(GRAPH)
            self.notes["recovery_s"] = time.perf_counter() - begun
            self.notes["replayed_records"] = session.recovery.replayed_records
            alerts = "MATCH (a:Alert {desc: $desc}) RETURN count(a)"
            actual = {
                label: count_of(session, f"MATCH (n:{label}) RETURN count(n)")
                for label in ("Mutation", "Sequence", "IcuPatient")
            }
            actual["critical_alerts"] = count_of(session, alerts, {"desc": "New critical mutation"})
            actual["designation_alerts"] = count_of(
                session, alerts, {"desc": "New Designation for an existing Lineage"}
            )
        return mismatches(expected, actual, self.notes)


WORKLOADS = {
    workload.name: workload
    for workload in (CovidHttpMixed, HttpReadPoint, FirehoseTriggers, DurableWrites, AnalyticReads)
}
