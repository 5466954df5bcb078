"""End-to-end tests for the HTTP/JSON front door."""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading

import pytest

from repro.database import GraphDatabase
from repro.server import run_in_thread
from repro.server.app import _MAX_HEADER_BYTES, _MAX_REQUEST_BYTES, DatabaseServer
from repro.storage import MemoryIO
from repro.tx.errors import TransactionError


class Client:
    """A keep-alive JSON client over one ``http.client`` connection."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method: str, path: str, body: dict | None = None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")

    def get(self, path: str):
        return self.request("GET", path)

    def post(self, path: str, body: dict):
        return self.request("POST", path, body)

    def close(self) -> None:
        self.conn.close()


def read_response(sock: socket.socket, buffer: bytearray):
    """Next response on a raw socket: (status, JSON body); None at EOF."""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            assert not buffer, f"connection closed mid-response: {bytes(buffer)!r}"
            return None
        buffer += chunk
    head, _, rest = bytes(buffer).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.lower().split(": ", 1) for line in header_lines)
    length = int(headers["content-length"])
    while len(rest) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed mid-body"
        rest += chunk
    buffer[:] = rest[length:]
    return int(status_line.split(" ")[1]), json.loads(rest[:length])


def raw_request(path: str, payload: dict, method: str = "POST") -> bytes:
    body = json.dumps(payload).encode()
    return f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body


def raw_connection(server) -> socket.socket:
    sock = socket.create_connection((server.host, server.port), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


@pytest.fixture
def server():
    handle = run_in_thread(GraphDatabase(thread_safe=True))
    yield handle
    handle.stop()


@pytest.fixture
def client(server):
    c = Client(server.host, server.port)
    yield c
    c.close()


class TestEndpoints:
    def test_health(self, client):
        status, body = client.get("/health")
        assert status == 200
        assert body["status"] == "ok"

    def test_run_round_trip(self, client):
        status, body = client.post(
            "/run",
            {"query": "CREATE (:Person {name: $n, age: 30})", "parameters": {"n": "Ada"}},
        )
        assert status == 200
        assert body["summary"]["counters"]["nodes_created"] == 1
        assert body["summary"]["contains_updates"]

        status, body = client.post(
            "/run", {"query": "MATCH (p:Person) RETURN p.name AS name, p.age AS age"}
        )
        assert status == 200
        assert body["columns"] == ["name", "age"]
        assert body["rows"] == [{"name": "Ada", "age": 30}]
        assert not body["summary"]["contains_updates"]

    def test_run_returns_wire_encoded_entities(self, client):
        client.post("/run", {"query": "CREATE (:A {x: 1})-[:Knows {w: 2}]->(:B)"})
        status, body = client.post(
            "/run", {"query": "MATCH (a:A)-[r:Knows]->(b:B) RETURN a, r"}
        )
        assert status == 200
        (row,) = body["rows"]
        assert row["a"]["$type"] == "node"
        assert row["a"]["labels"] == ["A"]
        assert row["a"]["properties"] == {"x": 1}
        assert row["r"]["$type"] == "relationship"
        assert row["r"]["type"] == "Knows"
        assert row["r"]["start"] == row["a"]["id"]

    def test_graphs_catalog_and_isolation(self, client):
        client.post("/run", {"graph": "g1", "query": "CREATE (:OnlyInG1)"})
        client.post("/run", {"graph": "g2", "query": "CREATE (:OnlyInG2)"})
        status, body = client.get("/graphs")
        assert status == 200
        assert {"g1", "g2"} <= set(body["graphs"])
        status, body = client.post(
            "/run", {"graph": "g2", "query": "MATCH (n:OnlyInG1) RETURN n"}
        )
        assert body["rows"] == []

    def test_explain(self, client):
        client.post("/run", {"query": "CREATE (:Person {name: 'Ada'})"})
        status, body = client.post(
            "/explain", {"query": "MATCH (p:Person) RETURN p.name AS name"}
        )
        assert status == 200
        assert "Person" in body["plan"]

    def test_trigger_lifecycle(self, client):
        trigger = """
            CREATE TRIGGER AuditPeople
            AFTER CREATE ON 'Person'
            FOR EACH NODE
            BEGIN
              CREATE (:Audit {name: NEW.name})
            END
        """
        status, body = client.post("/trigger", {"action": "install", "trigger": trigger})
        assert status == 200
        assert body["installed"] == "AuditPeople"

        client.post("/run", {"query": "CREATE (:Person {name: 'Ada'})"})
        status, body = client.post("/run", {"query": "MATCH (a:Audit) RETURN a.name AS n"})
        assert body["rows"] == [{"n": "Ada"}]

        status, body = client.post("/trigger", {"action": "stop", "name": "AuditPeople"})
        assert status == 200
        client.post("/run", {"query": "CREATE (:Person {name: 'Bob'})"})
        status, body = client.post("/run", {"query": "MATCH (a:Audit) RETURN count(*) AS c"})
        assert body["rows"] == [{"c": 1}]

        status, body = client.post("/trigger", {"action": "start", "name": "AuditPeople"})
        assert status == 200
        status, body = client.post("/trigger", {"action": "drop", "name": "AuditPeople"})
        assert status == 200
        assert body["dropped"] == "AuditPeople"

    def test_error_paths(self, client, server):
        assert client.get("/nope")[0] == 404
        assert client.get("/run")[0] == 405
        assert client.post("/run", {"query": "NOT CYPHER AT ALL"})[0] == 400
        assert client.post("/run", {"no_query": True})[0] == 400
        assert client.post("/trigger", {"action": "explode", "name": "x"})[0] == 400
        assert client.post("/trigger", {"action": "drop", "name": "missing"})[0] == 400
        status, body = client.request("POST", "/run")  # no body at all
        assert status == 400
        for declared in ("abc", "-5", "1_0", "9" * 5000):
            with raw_connection(server) as sock:
                sock.sendall(f"POST /run HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n".encode())
                buffer = bytearray()
                status, body = read_response(sock, buffer)
                assert (status, list(body)) == (400, ["error"]), declared[:10]
                assert read_response(sock, buffer) is None  # and the server hung up

    @pytest.mark.parametrize(
        "error, status",
        [
            (RecursionError("maximum recursion depth exceeded"), 500),
            (RuntimeError("write lock on 'g' is not held by this thread"), 500),
            (TransactionError("transaction already closed"), 409),
        ],
    )
    def test_internal_faults_are_500_and_conflicts_409(
        self, client, server, monkeypatch, error, status
    ):
        # A 409 tells the client to retry; an internal fault must not.
        session = server.database.graph("faulty")

        def run(query, parameters=None):
            raise error

        monkeypatch.setattr(session, "run", run)
        got, body = client.post("/run", {"graph": "faulty", "query": "RETURN 1 AS x"})
        assert got == status
        assert body["error"].startswith(type(error).__name__)

    def test_malformed_json_body(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        conn.request("POST", "/run", body=b"{not json", headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        conn.close()


class TestServerBehaviour:
    def test_requires_thread_safe_database(self):
        with pytest.raises(ValueError, match="thread-safe"):
            DatabaseServer(GraphDatabase())

    def test_fifty_concurrent_clients(self, server):
        """The CI smoke bar: 50 concurrent clients, every request answered."""
        clients = 50
        requests_each = 4
        start = threading.Barrier(clients, timeout=30)
        failures: list[str] = []

        def worker(index: int) -> None:
            client = Client(server.host, server.port)
            try:
                start.wait()
                for round_number in range(requests_each):
                    status, _ = client.post(
                        "/run",
                        {"query": "CREATE (:Hit {client: $c, round: $r})",
                         "parameters": {"c": index, "r": round_number}},
                    )
                    if status != 200:
                        failures.append(f"client {index} write got {status}")
                    status, body = client.post(
                        "/run", {"query": "MATCH (h:Hit) RETURN count(*) AS c"}
                    )
                    if status != 200:
                        failures.append(f"client {index} read got {status}")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(f"client {index}: {type(exc).__name__}: {exc}")
            finally:
                client.close()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive(), "client thread hung"
        assert failures == []

        check = Client(server.host, server.port)
        status, body = check.post("/run", {"query": "MATCH (h:Hit) RETURN count(*) AS c"})
        check.close()
        assert status == 200
        assert body["rows"] == [{"c": clients * requests_each}]

    def test_connection_limit_returns_503(self):
        handle = run_in_thread(GraphDatabase(thread_safe=True), max_connections=0)
        try:
            conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
            conn.request("GET", "/health")
            response = conn.getresponse()
            assert response.status == 503
            conn.close()
        finally:
            handle.stop()

    def test_graceful_shutdown_flushes_group_commit(self, tmp_path):
        """Writes acked before shutdown survive a restart even when the WAL
        group-commit buffer was still holding them."""
        io = MemoryIO()
        database = GraphDatabase(
            path=str(tmp_path), storage_io=io, group_commit_size=1000, thread_safe=True
        )
        handle = run_in_thread(database)
        client = Client(handle.host, handle.port)
        for index in range(5):
            status, _ = client.post(
                "/run", {"query": "CREATE (:Durable {seq: $s})", "parameters": {"s": index}}
            )
            assert status == 200
        client.close()
        handle.stop()  # graceful: flushes the group-commit buffer

        reopened = GraphDatabase(path=str(tmp_path), storage_io=io, thread_safe=True)
        result = reopened.graph("default").run(
            "MATCH (d:Durable) RETURN count(*) AS c"
        )
        assert result.single() == 5
        reopened.close()

    def test_stop_is_idempotent_and_clean(self, server):
        client = Client(server.host, server.port)
        status, _ = client.get("/health")
        assert status == 200
        client.close()
        server.stop()
        server.stop()  # second stop is a no-op


class TestOnTheSocket:
    """What ``http.client`` never sends: odd segmentation, oversized input, shutdown races."""

    COUNT = {"query": "MATCH (n:Seen) RETURN count(n) AS c"}

    def test_head_and_body_in_separate_segments(self, server):
        request = raw_request("/run", {"query": "CREATE (:Seen)"})
        split = request.index(b"\r\n\r\n") + 4
        with raw_connection(server) as sock:
            buffer = bytearray()
            for cut in (split, split + 5):  # body apart from the head; body in two pieces
                sock.sendall(request[:cut])
                sock.sendall(request[cut:])
                status, body = read_response(sock, buffer)
                assert status == 200
                assert body["summary"]["counters"]["nodes_created"] == 1

    def test_two_requests_in_one_segment_are_answered_in_order(self, server):
        with raw_connection(server) as sock:
            sock.sendall(
                raw_request("/run", {"query": "CREATE (:Seen)"})
                + raw_request("/run", self.COUNT)
                + raw_request("/health", {}, method="GET")
            )
            buffer = bytearray()
            first = read_response(sock, buffer)
            second = read_response(sock, buffer)
            third = read_response(sock, buffer)
        assert first[0] == 200 and first[1]["summary"]["contains_updates"]
        assert (second[0], second[1]["rows"]) == (200, [{"c": 1}])
        assert third[0] == 200 and third[1]["status"] == "ok"

    def test_oversized_head_and_body_get_413(self, server):
        line = b"GET /health HTTP/1.1\r\nX-Pad: "
        # One byte over the cap, terminator last: the server has consumed
        # every byte we sent before it answers, so its close is not a reset.
        padding = b"a" * (_MAX_HEADER_BYTES + 1 - len(line) - 4)
        oversized_body = (
            f"POST /run HTTP/1.1\r\nContent-Length: {_MAX_REQUEST_BYTES + 1}\r\n\r\n".encode()
        )
        for payload, complaint in (
            (line + padding + b"\r\n\r\n", "headers too large"),
            (oversized_body, "request body too large"),
        ):
            with raw_connection(server) as sock:
                sock.sendall(payload)
                buffer = bytearray()
                assert read_response(sock, buffer) == (413, {"error": complaint})
                assert read_response(sock, buffer) is None

    def test_connection_churn_leaves_nothing_registered(self, server):
        """More clients than cores, a short switch interval: no lost bookkeeping update."""
        failures: list[str] = []

        def churn() -> None:
            try:
                for _ in range(25):
                    with raw_connection(server) as sock:
                        sock.sendall(raw_request("/run", self.COUNT))
                        status, _body = read_response(sock, bytearray())
                        if status != 200:
                            failures.append(f"got {status}")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(f"{type(exc).__name__}: {exc}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive(), "client thread hung"
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        server.stop()
        assert server._connections == {}
        assert server._active_requests == 0

    def test_stop_delivers_the_in_flight_reply_and_hangs_up_on_idle_connections(
        self, monkeypatch
    ):
        database = GraphDatabase(thread_safe=True)
        session = database.graph("default")
        server = run_in_thread(database)
        in_flight = threading.Event()
        run = session.run

        def announced_run(query, parameters=None):
            if threading.current_thread() is not threading.main_thread():
                in_flight.set()
            return run(query, parameters)

        monkeypatch.setattr(session, "run", announced_run)
        stopper = threading.Thread(target=server.stop)
        with raw_connection(server) as busy, raw_connection(server) as idle:
            idle_buffer = bytearray()
            idle.sendall(raw_request("/health", {}, method="GET"))
            assert read_response(idle, idle_buffer)[0] == 200  # served once, now parked
            with session.transaction():  # holds the write lock: the read below queues
                session.run("CREATE (:Seen)")
                busy.sendall(raw_request("/run", self.COUNT))
                assert in_flight.wait(30)
                stopper.start()
                # The accept thread exits once stop() has shut the listener:
                # from here on stop() is under way and waiting for `busy`.
                server._accept_thread.join(30)
                assert not server._accept_thread.is_alive()
                with pytest.raises(ConnectionRefusedError):
                    socket.create_connection((server.host, server.port), timeout=30)
                assert stopper.is_alive()
            stopper.join(30)
            assert not stopper.is_alive()
            # stop() has joined every connection thread, so whatever is
            # readable now was sent before it returned.
            status, body = read_response(busy, bytearray())
            assert (status, body["rows"]) == (200, [{"c": 1}])
            assert read_response(idle, idle_buffer) is None
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((server.host, server.port), timeout=30)
        server.stop()  # a second stop is a no-op
