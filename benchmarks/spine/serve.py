"""Server child of the traced run: ``python -m repro.server`` with spans.

Installs the tracing wrappers, then hands over to the stock entry point.
Each ``SIGUSR1`` writes what was recorded since the previous one to
``<trace-dir>/trace-<n>.json`` (atomically) and resets the recorder; the
load generator sends one after warm-up (counter baselines only) and one
after the measured window (spans and counters), always while no request
is in flight.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys

import tracing


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-dir", required=True)
    options, server_arguments = parser.parse_known_args(argv)

    tracer = tracing.install(server=True)
    serial = itertools.count()

    def dump(signum, frame) -> None:
        number = next(serial)
        target = os.path.join(options.trace_dir, f"trace-{number}.json")
        with open(target + ".tmp", "w") as handle:
            json.dump(tracer.snapshot(with_spans=number > 0), handle)
        os.replace(target + ".tmp", target)
        tracer.reset()

    signal.signal(signal.SIGUSR1, dump)

    from repro.server.__main__ import main as serve

    serve(server_arguments)


if __name__ == "__main__":
    main(sys.argv[1:])
