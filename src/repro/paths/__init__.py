"""Path-query subsystem: path values and shortest-path searches.

This package holds everything path-shaped that is not tied to one layer of
the query stack:

* :mod:`repro.paths.model` — the first-class :class:`Path` value bound by
  named path patterns and ``shortestPath``;
* :mod:`repro.paths.shortest` — deterministic single-source and
  bidirectional shortest-path searches (lexicographic relationship-id
  tie-break, so every plan computes the identical winner).

Variable-length ``-[:R*min..max]-`` hops are expanded by the executor
(:mod:`repro.cypher.executor`) with one iterative DFS walk; its naive
recursive enumerator stays as the differential ground truth, and both must
produce the *same rows in the same order*.
"""

from .model import Path
from .shortest import bidirectional_shortest, single_source_shortest

__all__ = [
    "Path",
    "bidirectional_shortest",
    "single_source_shortest",
]
