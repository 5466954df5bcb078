#!/usr/bin/env python3
"""Compare two result files of run.py, workload by workload, metric by metric.

    python3 benchmarks/spine/compare.py A.json B.json

A is the base (the parent commit, or the first set of runs), B the
candidate.  Each file holds one or more full runs (``run.py --runs N``).
For every workload x end-to-end metric the table gives both medians, the
relative change with A as its base (positive = worse, whatever the
metric's direction), the bound BENCHMARK.json fixes, the run-to-run
spread (distance between first and third quartile over the median, the
larger of the two sides) and a verdict:

* ``ok``          worse by no more than the bound;
* ``worse``       worse by more than the bound;
* ``unresolved``  the spread is wider than the bound, so neither can be said.

``error_rate`` may not rise at all, and a ``drift`` outside 0.9-1.1 in any
run is flagged: that run never reached a steady state.  Exits 1 when any
row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(path: str) -> list[dict]:
    with open(path) as handle:
        return json.load(handle)["runs"]


def spread(values: list[float]) -> float | None:
    """Interquartile distance over the median; None below two values."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def compare(base: list[dict], candidate: list[dict], spec: dict) -> tuple[list[str], bool]:
    lines = [
        f"{'workload':20s}{'metric':>13s}{'A':>12s}{'B':>12s}{'change':>9s}"
        f"{'bound':>7s}{'spread':>8s}  verdict"
    ]
    any_worse = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        sides = [[run[workload] for run in runs if workload in run] for runs in (base, candidate)]
        if not all(sides):
            lines.append(f"{workload:20s} missing from one side")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [[entry["end_to_end"][name] for entry in side] for side in sides]
            a, b = (statistics.median(side) for side in values)
            change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            spreads = [s for s in map(spread, values) if s is not None]
            widest = max(spreads) if spreads else None
            if widest is not None and widest > metric["bound"]:
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict, any_worse = "worse", True
            else:
                verdict = "ok"
            shown = f"{widest:8.3f}" if widest is not None else f"{'n/a':>8s}"
            lines.append(
                f"{workload:20s}{name:>13s}{a:12.4f}{b:12.4f}{change:+9.3f}"
                f"{metric['bound']:7.2f}{shown}  {verdict}"
            )
        errors = [max(entry["error_rate"] for entry in side) for side in sides]
        verdict = "ok" if errors[1] <= errors[0] else "worse"
        any_worse |= verdict == "worse"
        lines.append(
            f"{workload:20s}{'error_rate':>13s}{errors[0]:12.4f}{errors[1]:12.4f}"
            f"{'':9s}{'any':>7s}{'':8s}  {verdict}"
        )
        for label, side in zip("AB", sides):
            adrift = [f"{entry['drift']:.3f}" for entry in side if not 0.9 <= entry["drift"] <= 1.1]
            if adrift:
                lines.append(f"{workload:20s}{'drift':>13s}  {label}: outside 0.9-1.1 in {adrift}")
    return lines, any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    lines, any_worse = compare(load_runs(argv[0]), load_runs(argv[1]), spec)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
