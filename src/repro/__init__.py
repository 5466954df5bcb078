"""repro — an executable reproduction of *PG-Triggers: Triggers for
Property Graphs* (SIGMOD-Companion 2024).

The top-level package re-exports the most commonly used entry points; the
subpackages are:

* :mod:`repro.graph` — in-memory property graph store;
* :mod:`repro.tx` — transactions, change journal and rollback, commit hooks;
* :mod:`repro.cypher` — openCypher-subset query engine;
* :mod:`repro.schema` — PG-Schema / PG-Keys;
* :mod:`repro.triggers` — the PG-Trigger language and execution engine;
* :mod:`repro.compat` — APOC / Memgraph emulation and translators;
* :mod:`repro.datasets` — CoV2K-style data and synthetic workloads.

The paper's tables, figures and Section 6 suites are regenerated and
checked by the tests under ``tests/paper/``; the performance experiments
live under ``benchmarks/``, outside the library.

The driver-style public API lives at the top level::

    import repro

    session = repro.connect()            # default database, "default" graph
    session.run("CREATE (:Hospital {name: 'Sacco'})")
    for record in session.run("MATCH (h:Hospital) RETURN h.name AS name"):
        print(record["name"])            # records stream lazily

    db = repro.GraphDatabase()           # an explicit catalog of named graphs
    covid = db.graph("covid")
"""

from .cypher.result import QueryStatistics, Result, ResultConsumedError, ResultSummary
from .database import (
    DEFAULT_GRAPH_NAME,
    GraphDatabase,
    connect,
    default_database,
    reset_default_database,
)
from .graph import Node, PropertyGraph, Relationship
from .paths import Path
from .triggers.session import GraphSession
from .tx.errors import LockTimeoutError
from .tx.locks import LockManager

__version__ = "1.1.0"

__all__ = [
    "DEFAULT_GRAPH_NAME",
    "GraphDatabase",
    "GraphSession",
    "LockManager",
    "LockTimeoutError",
    "Node",
    "Path",
    "PropertyGraph",
    "QueryStatistics",
    "Relationship",
    "Result",
    "ResultConsumedError",
    "ResultSummary",
    "connect",
    "default_database",
    "reset_default_database",
    "__version__",
]
