"""Command-line entry point: ``python -m repro.server``."""

from __future__ import annotations

import argparse
import contextlib
import threading

from ..database import GraphDatabase
from .app import DatabaseServer


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a repro graph database over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7688)
    parser.add_argument(
        "--path",
        default=None,
        help="database directory for durable graphs (in-memory when omitted)",
    )
    parser.add_argument(
        "--lock-timeout",
        type=float,
        default=30.0,
        help="seconds before a queued statement gives up with 503 (default 30)",
    )
    parser.add_argument("--max-connections", type=int, default=128)
    args = parser.parse_args(argv)

    database = GraphDatabase(
        path=args.path, thread_safe=True, lock_timeout=args.lock_timeout
    )
    server = DatabaseServer(
        database,
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
    )
    with contextlib.suppress(KeyboardInterrupt), server:
        print(f"serving on {server.address} (Ctrl-C for graceful shutdown)")
        # Connections are served on background threads; this one only
        # waits for SIGINT (other signal handlers return into the wait).
        threading.Event().wait()


if __name__ == "__main__":
    main()
