"""A blocking HTTP/JSON front door for a :class:`~repro.database.GraphDatabase`.

The server is deliberately dependency-free: a small hand-rolled HTTP/1.1
implementation on plain sockets with keep-alive support.  One thread
accepts, and every connection gets a thread of its own that reads a
request, executes it against the (synchronous) engine and sends the reply
— there is no event loop and no worker pool between the socket and
``session.run``.  The database **must** be thread-safe (constructed with
``thread_safe=True``): its per-graph lock manager is the one mechanism
that makes concurrent requests sound.

Endpoints (all responses are JSON):

========  ============  =====================================================
method    path          body / behaviour
========  ============  =====================================================
GET       /health       liveness + catalog size
GET       /graphs       ``{"graphs": [...]}``
POST      /run          ``{"graph", "query", "parameters"}`` → columns, rows,
                        summary counters
POST      /explain      ``{"graph", "query"}`` → plan text
POST      /trigger      ``{"graph", "action": install|drop|stop|start, ...}``
========  ============  =====================================================

Graceful shutdown (:meth:`DatabaseServer.stop`) stops accepting, drains
in-flight requests, flushes any group-commit-buffered WAL records,
checkpoints durable graphs and closes every session.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any

from ..cypher.errors import CypherError
from ..cypher.result import ResultConsumedError
from ..database import DEFAULT_GRAPH_NAME, GraphDatabase
from ..graph.errors import GraphError
from ..triggers.errors import TriggerError
from ..tx.errors import LockTimeoutError, TransactionError
from .wire import record_to_wire

_MAX_REQUEST_BYTES = 4 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024
_HEAD_END = b"\r\n\r\n"


class _HttpError(Exception):
    """Internal: abort request processing with a specific status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class DatabaseServer:
    """Serve a thread-safe :class:`GraphDatabase` over HTTP/JSON.

    ``start()`` binds and returns at once (connections are served on
    background threads); ``stop()`` shuts down gracefully.  Also usable
    as a context manager.
    """

    def __init__(
        self,
        database: GraphDatabase | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 128,
    ) -> None:
        if database is None:
            database = GraphDatabase(thread_safe=True)
        if not database.thread_safe:
            raise ValueError(
                "DatabaseServer needs a thread-safe database: construct it "
                "with GraphDatabase(thread_safe=True) so concurrent requests "
                "serialise through the per-graph lock manager"
            )
        self.database = database
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        # Guards the three fields below; notified when the last in-flight
        # request has sent its reply.
        self._state = threading.Condition()
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._active_requests = 0
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "DatabaseServer":
        """Bind and start accepting connections; resolves the real port."""
        if self._listener is None:
            self._listener = socket.create_server((self.host, self.port))
            self.port = self._listener.getsockname()[1]
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-server-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: drain, flush, checkpoint, close (idempotent)."""
        with self._state:
            if self._stopping:
                return
            self._stopping = True
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept().
            self._listener.shutdown(socket.SHUT_RDWR)
            self._accept_thread.join()
            self._listener.close()
        with self._state:
            # Every in-flight request runs to completion and sends its
            # reply; no new one begins once the stopping flag is up.  The
            # remaining connections are parked in recv(): shutting their
            # sockets down makes it return EOF and the thread exit on its
            # own.  Done under the lock so a socket is never shut down
            # after its thread deregistered and closed it.
            self._state.wait_for(lambda: self._active_requests == 0)
            threads = list(self._connections.values())
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the peer reset it; its thread is on the way out
        for thread in threads:
            thread.join()
        if self.database.durable:
            self.database.checkpoint()
        self.database.close()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "DatabaseServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                connection, _peer = self._listener.accept()
            except OSError:
                return  # stop() shut the listener down
            with self._state:
                if len(self._connections) < self.max_connections:
                    thread = self._connections[connection] = threading.Thread(
                        target=self._serve_connection,
                        args=(connection,),
                        name="repro-server-connection",
                        daemon=True,
                    )
                    thread.start()
                    continue
            with connection:
                try:
                    self._send(connection, 503, {"error": "server at connection limit"}, close=True)
                except OSError:
                    pass

    def _serve_connection(self, connection: socket.socket) -> None:
        try:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._request_loop(connection)
        except OSError:
            pass  # client went away (reset, broken pipe)
        finally:
            with self._state:
                del self._connections[connection]
            connection.close()

    def _request_loop(self, connection: socket.socket) -> None:
        buffer = bytearray()  # received, not yet consumed (may hold the next request)

        def receive() -> bool:
            """Append what arrives next; False at EOF (client gone, or stop())."""
            chunk = connection.recv(65536)
            buffer.extend(chunk)
            return bool(chunk)

        while True:
            while (head_end := buffer.find(_HEAD_END)) < 0 and len(buffer) <= _MAX_HEADER_BYTES:
                if not receive():
                    return
            body_start = head_end + len(_HEAD_END)
            if head_end < 0 or body_start > _MAX_HEADER_BYTES:
                self._send(connection, 413, {"error": "headers too large"}, close=True)
                return
            try:
                method, path, headers = self._parse_head(bytes(buffer[:body_start]))
                declared = headers.get("content-length") or "0"
                if not (declared.isascii() and declared.isdigit()):
                    raise ValueError(f"malformed Content-Length: {declared[:40]!r}")
                length = int(declared)
            except ValueError as exc:
                self._send(connection, 400, {"error": str(exc)}, close=True)
                return
            if length > _MAX_REQUEST_BYTES:
                self._send(connection, 413, {"error": "request body too large"}, close=True)
                return
            while len(buffer) < body_start + length:
                if not receive():
                    return
            body = bytes(buffer[body_start : body_start + length])
            del buffer[: body_start + length]
            keep_alive = headers.get("connection", "keep-alive").lower() != "close"
            with self._state:
                if self._stopping:
                    return
                self._active_requests += 1
            try:
                status, payload = self._dispatch(method, path, body)
                self._send(connection, status, payload, close=not keep_alive)
            finally:
                with self._state:
                    self._active_requests -= 1
                    if not self._active_requests:
                        self._state.notify_all()
            if not keep_alive:
                return

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise ValueError("undecodable request head") from exc
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"malformed request line: {lines[0]!r}")
        method, path, _version = parts
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), path, headers

    def _send(
        self,
        connection: socket.socket,
        status: int,
        payload: dict[str, Any],
        close: bool = False,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        connection.sendall(head + body)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _dispatch(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        try:
            if path == "/health" and method == "GET":
                return 200, {"status": "ok", "graphs": len(self.database.list_graphs())}
            if path == "/graphs" and method == "GET":
                return 200, {"graphs": self.database.list_graphs()}
            if path in ("/run", "/explain", "/trigger"):
                if method != "POST":
                    return 405, {"error": f"{path} requires POST"}
                request = self._parse_json(body)
                handler = {
                    "/run": self._handle_run,
                    "/explain": self._handle_explain,
                    "/trigger": self._handle_trigger,
                }[path]
                return handler(request)
            return 404, {"error": f"no route for {method} {path}"}
        except _HttpError as exc:
            return exc.status, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - last-resort response
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    @staticmethod
    def _parse_json(body: bytes) -> dict[str, Any]:
        if not body:
            raise _HttpError(400, "request body must be a JSON object")
        try:
            request = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(request, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return request

    def _session(self, request: dict[str, Any]):
        graph = request.get("graph", DEFAULT_GRAPH_NAME)
        if not isinstance(graph, str):
            raise _HttpError(400, "'graph' must be a string")
        return self.database.graph(graph)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _handle_run(self, request: dict[str, Any]) -> tuple[int, dict]:
        query = request.get("query")
        if not isinstance(query, str) or not query.strip():
            raise _HttpError(400, "'query' must be a non-empty string")
        parameters = request.get("parameters")
        if parameters is not None and not isinstance(parameters, dict):
            raise _HttpError(400, "'parameters' must be an object")
        session = self._session(request)
        try:
            result = session.run(query, parameters)
            rows = [record_to_wire(record) for record in result.rows]
            summary = result.consume()
        except LockTimeoutError as exc:
            return 503, {"error": str(exc), "graph": exc.graph, "mode": exc.mode}
        except (CypherError, GraphError, TriggerError, ValueError) as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        except (TransactionError, ResultConsumedError) as exc:
            return 409, {"error": f"{type(exc).__name__}: {exc}"}
        return 200, {
            "columns": result.keys(),
            "rows": rows,
            "summary": {
                "counters": summary.counters.as_dict(),
                "contains_updates": summary.counters.contains_updates(),
            },
        }

    def _handle_explain(self, request: dict[str, Any]) -> tuple[int, dict]:
        query = request.get("query")
        if not isinstance(query, str) or not query.strip():
            raise _HttpError(400, "'query' must be a non-empty string")
        session = self._session(request)
        try:
            return 200, {"plan": session.explain(query)}
        except LockTimeoutError as exc:
            return 503, {"error": str(exc)}
        except (CypherError, ValueError) as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}

    def _handle_trigger(self, request: dict[str, Any]) -> tuple[int, dict]:
        action = request.get("action")
        session = self._session(request)
        try:
            if action == "install":
                source = request.get("trigger")
                if not isinstance(source, str) or not source.strip():
                    raise _HttpError(400, "'trigger' must be CREATE TRIGGER text")
                installed = session.create_trigger(source)
                return 200, {"installed": installed.name}
            name = request.get("name")
            if not isinstance(name, str) or not name:
                raise _HttpError(400, "'name' must be a trigger name")
            if action == "drop":
                session.drop_trigger(name)
                return 200, {"dropped": name}
            if action == "stop":
                session.stop_trigger(name)
                return 200, {"stopped": name}
            if action == "start":
                session.start_trigger(name)
                return 200, {"started": name}
            raise _HttpError(400, "'action' must be install, drop, stop or start")
        except LockTimeoutError as exc:
            return 503, {"error": str(exc)}
        except TriggerError as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}


def run_in_thread(
    database: GraphDatabase | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> DatabaseServer:
    """Start a :class:`DatabaseServer` (it serves on background threads) and return it."""
    return DatabaseServer(database, host=host, port=port, **kwargs).start()
