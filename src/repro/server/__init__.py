"""HTTP/JSON serving layer for :class:`~repro.database.GraphDatabase`.

See :mod:`repro.server.app` for the protocol description.  Quick start::

    from repro.database import GraphDatabase
    from repro.server import run_in_thread

    server = run_in_thread(GraphDatabase(thread_safe=True))
    print(server.address)   # e.g. http://127.0.0.1:54321
    ...
    server.stop()           # graceful: drains, flushes, checkpoints

Or from a shell: ``python -m repro.server --port 7688 --path ./data``.
"""

from .app import DatabaseServer, run_in_thread
from .wire import record_to_wire, to_wire

__all__ = [
    "DatabaseServer",
    "run_in_thread",
    "record_to_wire",
    "to_wire",
]
