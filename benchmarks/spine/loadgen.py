"""Closed-loop load generation and latency statistics.

A workload is a list of :class:`Op` per client; a client sends its next
operation only after the previous reply, so a slow system receives less
load.  Everything an operation needs is built before the clock starts
(HTTP requests are encoded to bytes); the reply is checked against the
value the generator expects only *after* the end timestamp is taken.

The HTTP client is a raw keep-alive socket with ``TCP_NODELAY``: sizing
showed ``http.client`` eating about a third of the measured throughput,
which would make the generator, not the server, the thing measured.
"""

from __future__ import annotations

import json
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

#: Equal time slices of the measured window; throughput and percentiles
#: are medians over slices so one noisy slice on a shared host does not
#: move the reported value.
SLICES = 10


@dataclass(frozen=True, slots=True)
class Op:
    """One operation: statements to run and what the reply must contain."""

    kind: str  # class within the mix, e.g. "patient-lookup"
    write: bool
    statements: tuple[tuple[str, dict[str, Any]], ...]
    #: Expected records of the last statement (None: not checked).
    rows: list[dict[str, Any]] | None = None
    #: Expected counter values of the last statement (subset).
    counters: dict[str, int] = field(default_factory=dict)
    #: What the generator's model says this op adds to each population the
    #: workload verifies afterwards (never sent anywhere).
    effect: dict[Any, int] = field(default_factory=dict)


@dataclass
class Samples:
    """What one client observed during the measured window."""

    ops: list[Op]
    starts: list[float]
    ends: list[float]
    failed: list[int]  # indices into ops
    cpu_s: float = 0.0
    #: Reading of the client's probe, None when the client had none or the
    #: window ended before the probe's operation.
    probed: float | None = None


@dataclass
class Client:
    """One closed-loop client: its operations and how to send and check them."""

    ops: Sequence[Op]
    send: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    #: What ``send`` takes: the ops themselves, or their encoded requests.
    requests: Sequence[Any]
    #: ``(n, read)``: call ``read()`` once, right after operation ``n``.
    probe: tuple[int, Callable[[], float]] | None = None


def closed_loop(client: Client, deadline: float) -> Samples:
    """Run the client's requests one after another until ``deadline`` (perf_counter)."""
    clock = time.perf_counter
    send, check = client.send, client.check
    probe_at, read_probe = client.probe or (-1, None)
    probed = None
    starts: list[float] = []
    ends: list[float] = []
    failed: list[int] = []
    cpu = time.thread_time()
    for index, request in enumerate(client.requests):
        begun = clock()
        try:
            reply = send(request)
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            reply = exc
        ended = clock()
        starts.append(begun)
        ends.append(ended)
        if isinstance(reply, Exception) or not check(request, reply):
            failed.append(index)
        if index == probe_at:
            probed = read_probe()
        if ended >= deadline:
            break
    cpu = time.thread_time() - cpu
    return Samples(list(client.ops[: len(ends)]), starts, ends, failed, cpu, probed)


# ---------------------------------------------------------------------------
# in-process transport
# ---------------------------------------------------------------------------


def session_send(session) -> Callable[[Op], tuple[list, dict]]:
    """Run an op's statements through ``session.run``, draining each result."""

    def send(op: Op):
        rows: list = []
        counters: dict = {}
        for query, parameters in op.statements:
            result = session.run(query, parameters)
            rows = result.rows
            counters = result.consume().counters.as_dict()
        return rows, counters

    return send


def session_check(op: Op, reply: tuple[list, dict]) -> bool:
    rows, counters = reply
    if op.rows is not None and rows != op.rows:
        return False
    return all(counters.get(key) == value for key, value in op.counters.items())


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------


def encode_request(graph: str, op: Op) -> tuple[bytes, tuple[bytes, ...]]:
    """Pre-encode one single-statement op and the byte strings its reply must hold."""
    ((query, parameters),) = op.statements
    body = json.dumps({"graph": graph, "query": query, "parameters": parameters}).encode()
    head = (
        "POST /run HTTP/1.1\r\nHost: spine\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    # The server encodes with json.dumps defaults, so the expected records
    # and counters appear verbatim in the body.
    expected = [f'"{key}": {value},'.encode() for key, value in op.counters.items()]
    if op.rows is not None:
        expected.append(b'"rows": ' + json.dumps(op.rows).encode() + b",")
    return head + body, tuple(expected)


class HttpClient:
    """One keep-alive connection; replies are framed by Content-Length."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def send(self, request: tuple[bytes, tuple[bytes, ...]]) -> tuple[int, bytes]:
        self._socket.sendall(request[0])
        buffer = self._buffer
        while (split := buffer.find(b"\r\n\r\n")) < 0:
            buffer += self._receive()
        head = buffer[:split].lower()
        status = int(head[9:12])
        at = head.index(b"content-length:") + 15
        end = head.find(b"\r\n", at)
        length = int(head[at : end if end >= 0 else len(head)])
        total = split + 4 + length
        while len(buffer) < total:
            buffer += self._receive()
        self._buffer = buffer[total:]
        return status, buffer[split + 4 : total]

    def _receive(self) -> bytes:
        chunk = self._socket.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def query(self, graph: str, query: str, parameters: dict | None = None) -> list[dict]:
        """Convenience for set-up and verification: run and decode one statement."""
        op = Op("adhoc", False, ((query, parameters or {}),))
        status, body = self.send(encode_request(graph, op))
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {body[:200]!r}")
        return json.loads(body)["rows"]

    def close(self) -> None:
        self._socket.close()


def http_check(request: tuple[bytes, tuple[bytes, ...]], reply: tuple[int, bytes]) -> bool:
    status, body = reply
    return status == 200 and all(expected in body for expected in request[1])


def run_clients(
    clients: Sequence[Client], seconds: float | None
) -> tuple[list[Samples], float, float]:
    """Drive every client's closed loop on its own thread.

    ``seconds=None`` runs every request (warm-up).  Returns the samples
    and the window's start and end on the perf_counter clock.
    """
    barrier = threading.Barrier(len(clients) + 1)
    results: list[Samples | None] = [None] * len(clients)
    window: list[float] = []

    def client(slot: int) -> None:
        barrier.wait()
        deadline = window[0] + seconds if seconds is not None else float("inf")
        results[slot] = closed_loop(clients[slot], deadline)

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(len(clients))]
    for thread in threads:
        thread.start()
    window.append(time.perf_counter())
    barrier.wait()
    for thread in threads:
        thread.join()
    samples = [result for result in results if result is not None]
    if len(samples) != len(clients):
        raise RuntimeError("a load-generator thread died")
    ended = max((s.ends[-1] for s in samples if s.ends), default=window[0])
    return samples, window[0], ended


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _latency_ms(latencies: list[float]) -> dict[str, float]:
    ordered = sorted(latencies)
    return {
        "n": len(ordered),
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": percentile(ordered, 0.95) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
    }


def summarize(samples: Sequence[Samples], started: float, ended: float) -> dict[str, Any]:
    """Client-observed numbers for one measured window.

    ``ops_per_s``, ``p50_ms`` and ``p95_ms`` are medians over SLICES equal
    time slices (an operation belongs to the slice it completed in);
    ``whole`` repeats them over the undivided window, and ``drift`` is the
    throughput of the last fifth of the window over the first fifth.
    """
    elapsed = ended - started
    width = elapsed / SLICES
    per_slice: list[list[float]] = [[] for _ in range(SLICES)]
    by_kind: dict[str, list[float]] = {}
    by_mode: dict[str, list[float]] = {"read": [], "write": []}
    everything: list[float] = []
    for sample in samples:
        for op, begun, done in zip(sample.ops, sample.starts, sample.ends):
            latency = done - begun
            per_slice[min(int((done - started) / width), SLICES - 1)].append(latency)
            by_kind.setdefault(op.kind, []).append(latency)
            by_mode["write" if op.write else "read"].append(latency)
            everything.append(latency)
    sliced = [_latency_ms(latencies) for latencies in per_slice if latencies]
    fifth = SLICES // 5
    first = sum(len(latencies) for latencies in per_slice[:fifth])
    last = sum(len(latencies) for latencies in per_slice[-fifth:])
    attempted = len(everything)
    failed = sum(len(sample.failed) for sample in samples)
    return {
        "ops_per_s": statistics.median(len(latencies) / width for latencies in per_slice),
        "p50_ms": statistics.median(s["p50_ms"] for s in sliced),
        "p95_ms": statistics.median(s["p95_ms"] for s in sliced),
        "whole": {"ops_per_s": attempted / elapsed, **_latency_ms(everything)},
        "read": _latency_ms(by_mode["read"]) if by_mode["read"] else None,
        "write": _latency_ms(by_mode["write"]) if by_mode["write"] else None,
        "kinds": {kind: _latency_ms(latencies) for kind, latencies in sorted(by_kind.items())},
        "drift": last / first if first else float("nan"),
        "measured_s": elapsed,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "loadgen_cpu_share": sum(sample.cpu_s for sample in samples) / elapsed,
    }
