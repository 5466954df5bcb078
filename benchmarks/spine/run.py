#!/usr/bin/env python3
"""The benchmark spine: one command, five workloads, named metrics.

    python3 benchmarks/spine/run.py                      # every workload
    python3 benchmarks/spine/run.py --trace 1            # ... plus the traced run
    python3 benchmarks/spine/run.py --workload NAME --seed 7 --seconds 10 --trace 0

With ``--workload`` one workload runs in this (fresh) process and the last
line of standard output is the result object BENCHMARK.json's contract
describes.  Without it every workload runs in a child process of its own
(the plan cache is process-global and peak RSS is per process), a table
is printed and ``BENCH_spine.json`` is written.  README.md defines every
metric and says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DETAIL_TAG = "SPINE_DETAIL "

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def parse_arguments(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [workload["name"] for workload in SPEC["workloads"]]
    parser.add_argument("--workload", choices=names, help="run only this workload")
    parser.add_argument("--seed", type=int, default=1, help="traffic seed")
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]), help="measured window"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: install the span wrappers and report the per-layer metrics",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink data sizes and warm-up (the smoke test uses 0.02)",
    )
    parser.add_argument(
        "--setups", type=int, default=3,
        help="least number of times the set-up is run; setup_s is the median",
    )
    parser.add_argument("--runs", type=int, default=1, help="all-workload mode: repetitions")
    parser.add_argument(
        "--reverse", action="store_true", help="all-workload mode: run the workloads last to first"
    )
    parser.add_argument("--out", default="BENCH_spine.json", help="all-workload mode: result file")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def run_workload(options: argparse.Namespace) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from loadgen import summarize
    from workloads import WORKLOADS

    traced = bool(options.trace)
    workdir = os.path.join(ROOT, ".spine_work", f"{options.workload}-{os.getpid()}")
    os.makedirs(workdir)
    workload = WORKLOADS[options.workload](options.seed, options.scale, workdir, traced)
    if traced and not workload.http:
        import tracing

        tracing.install()
    try:
        # setup_s is a median over repeated set-ups; a set-up of a few
        # milliseconds is repeated until a second has gone into it, because
        # three samples of 30 ms do not make a steady median.
        setup_times: list[float] = []
        while len(setup_times) < options.setups or (
            options.setups > 1 and sum(setup_times) < 1.0 and len(setup_times) < 20
        ):
            if setup_times:
                workload.discard()
            begun = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - begun)
        workload.prepare_traffic(options.seconds)
        workload.warm_up()
        before = workload.live_counts()
        baseline = workload.trace_mark() if traced else None
        samples, started, ended = workload.measure(options.seconds)
        probed = [sample.probed for sample in samples if sample.probed is not None]
        peak_rss = probed[0] if probed else workload.peak_rss_mb()
        trace = workload.trace_collect() if traced else None
        after = workload.live_counts()
        summary = summarize(samples, started, ended)
        if any(len(sample.ops) == len(ops) for sample, ops in zip(samples, workload.ops)):
            print(f"warning: {options.workload} ran out of prepared operations before the deadline")
        lost = workload.verify(samples)
    finally:
        workload.discard()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is using it

    attempted = summary["attempted"]
    failed = min(attempted, summary["failed"] + lost)
    detail = {
        "workload": options.workload,
        "seed": options.seed,
        "seconds": options.seconds,
        "traced": traced,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "drift": summary["drift"],
        "setup_runs_s": setup_times,
        "live": {"before": before, "after": after},
        "client": summary,
        "notes": workload.notes,
    }
    if traced:
        detail["per_layer"] = per_layer_metrics(
            summary, samples, baseline, trace, before, after, workload.notes, workload.http
        )
        detail["span_count"] = len(trace["spans"])
    else:
        detail["end_to_end"] = {
            "ops_per_s": summary["ops_per_s"],
            "p50_ms": summary["p50_ms"],
            "p95_ms": summary["p95_ms"],
            "peak_rss_mb": peak_rss,
            "setup_s": statistics.median(setup_times),
        }
    return detail


def per_layer_metrics(
    summary, samples, baseline, trace, before, after, notes, served
) -> dict[str, float]:
    """Per-operation self time, counts and shares from one traced window."""
    from tracing import inclusive_time, self_times

    ops = summary["attempted"]
    spans = trace["spans"]
    self_ns, counts = self_times(spans)
    latency_ns = sum(
        (done - begun) * 1e9 for s in samples for begun, done in zip(s.starts, s.ends)
    )

    def per_op_ms(*names: str) -> float:
        return sum(self_ns.get(name, 0) for name in names) / ops / 1e6

    def delta(*path: str) -> float:
        final, start = trace, baseline
        for key in path:
            final, start = final.get(key, 0), start.get(key, 0)
        return final - start

    in_session = inclusive_time(spans, "session.run")
    layers = {
        "server": latency_ns - in_session if served else 0,
        "cypher": sum(self_ns.get(n, 0) for n in ("cypher.parse", "cypher.plan", "cypher.exec")),
        "triggers": self_ns.get("triggers.dispatch", 0),
        "tx": sum(self_ns.get(n, 0) for n in ("tx.commit", "tx.rollback", "tx.lock_wait")),
        "storage": sum(self_ns.get(n, 0) for n in ("storage.log", "storage.fsync")),
    }
    layers["other"] = latency_ns - sum(layers.values())

    cache_lookups = sum(
        delta("plan_cache", key)
        for key in ("parse_hits", "parse_misses", "plan_hits", "plan_misses")
    )
    cache_hits = delta("plan_cache", "parse_hits") + delta("plan_cache", "plan_hits")
    tiers = {
        tier: trace["triggers"]["tiers"].get(tier, 0) - baseline["triggers"]["tiers"].get(tier, 0)
        for tier in ("incremental", "batched", "sequential", "predicate")
    }
    tier_runs = sum(tiers.values())
    fired, suppressed = delta("triggers", "executed"), delta("triggers", "suppressed")

    metrics = {
        "server.overhead_ms": layers["server"] / ops / 1e6,
        "server.wire_ms": per_op_ms("server.wire"),
        "cypher.parse_ms": per_op_ms("cypher.parse"),
        "cypher.plan_ms": per_op_ms("cypher.plan"),
        "cypher.exec_ms": per_op_ms("cypher.exec"),
        "cypher.plan_cache_hit_ratio": cache_hits / cache_lookups if cache_lookups else 1.0,
        "cypher.rows_per_op": trace["rows"] / ops,
        "triggers.dispatch_ms": per_op_ms("triggers.dispatch"),
        "triggers.activations_per_op": (fired + suppressed) / ops,
        "triggers.fired_per_op": fired / ops,
        "triggers.demotions": delta("triggers", "demotions"),
        "triggers.view_rebuilds": delta("triggers", "view_rebuilds"),
        "tx.commit_ms": per_op_ms("tx.commit"),
        "tx.lock_wait_ms": per_op_ms("tx.lock_wait"),
        "tx.commits_per_op": counts.get("tx.commit", 0) / ops,
        "tx.rollbacks": counts.get("tx.rollback", 0),
        "storage.log_ms": per_op_ms("storage.log"),
        "storage.fsync_ms": per_op_ms("storage.fsync"),
        "storage.fsyncs_per_op": counts.get("storage.fsync", 0) / ops,
        "storage.wal_bytes_per_op": trace["wal_bytes"] / ops,
        "storage.replayed_records": notes.get("replayed_records", 0),
        "graph.nodes_delta_per_op": (after["nodes"] - before["nodes"]) / ops,
        "graph.rels_delta_per_op": (after["relationships"] - before["relationships"]) / ops,
        "loadgen.cpu_share": summary["loadgen_cpu_share"],
        "trace.ops_per_s": summary["ops_per_s"],
    }
    for tier, runs in tiers.items():
        metrics[f"triggers.tier_share.{tier}"] = runs / tier_runs if tier_runs else 0.0
    for layer, nanoseconds in layers.items():
        metrics[f"share.{layer}"] = nanoseconds / latency_ns
    return metrics


def contract_line(detail: dict) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    group = "per_layer" if detail["traced"] else "end_to_end"
    values = detail[group]
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in SPEC[group]
    }
    if set(values) != set(metrics):
        odd = sorted(set(values) ^ set(metrics))
        raise RuntimeError(f"{group} metrics differ from BENCHMARK.json: {odd}")
    return json.dumps(
        {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": metrics,
        }
    )


def describe(detail: dict) -> None:
    """Every metric by name with its unit, plus what explains it."""
    client = detail["client"]
    print(f"== {detail['workload']}  seed={detail['seed']}  traced={int(detail['traced'])}")
    print(
        f"   measured {client['measured_s']:.2f} s, {detail['attempted']} ops, "
        f"{detail['failed']} failed (error_rate {detail['error_rate']:.4f}), "
        f"drift {detail['drift']:.3f}"
    )
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, value in detail.get("end_to_end", detail.get("per_layer", {})).items():
        print(f"   {name:34s} {value:14.4f} {units[name]}")
    whole = client["whole"]
    print(
        f"   whole window: {whole['ops_per_s']:.1f} ops/s, p50 {whole['p50_ms']:.3f} ms, "
        f"p95 {whole['p95_ms']:.3f} ms, p99 {whole['p99_ms']:.3f} ms (n={whole['n']})"
    )
    for mode in ("read", "write"):
        if client[mode]:
            stats = client[mode]
            print(
                f"   {mode}_p50_ms {stats['p50_ms']:.3f}  {mode}_p95_ms {stats['p95_ms']:.3f}"
                f"  (n={stats['n']})"
            )
    for kind, stats in client["kinds"].items():
        print(
            f"     {kind:18s} n={stats['n']:6d}  p50 {stats['p50_ms']:8.3f} ms"
            f"  p95 {stats['p95_ms']:8.3f} ms"
        )
    print(f"   live graph before/after: {detail['live']['before']} -> {detail['live']['after']}")
    setups = " ".join(f"{seconds:.3f}" for seconds in detail["setup_runs_s"])
    print(f"   loadgen cpu share {client['loadgen_cpu_share']:.3f}; set-ups took {setups} s")
    if detail["notes"]:
        print(f"   notes: {json.dumps(detail['notes'])}")


# ---------------------------------------------------------------------------
# every workload, one child process each
# ---------------------------------------------------------------------------


def run_child(options: argparse.Namespace, name: str, traced: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", name, "--seed", str(options.seed), "--seconds", str(options.seconds),
        "--scale", str(options.scale), "--setups", str(options.setups), "--trace", str(traced),
    ]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    sys.stdout.write(
        "".join(
            line + "\n"
            for line in completed.stdout.splitlines()[:-1]
            if not line.startswith(DETAIL_TAG)
        )
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{name} (trace={traced}) exited with {completed.returncode}")
    for line in completed.stdout.splitlines():
        if line.startswith(DETAIL_TAG):
            return json.loads(line[len(DETAIL_TAG):])
    raise RuntimeError(f"{name} printed no detail line")


def run_all(options: argparse.Namespace) -> int:
    names = [workload["name"] for workload in SPEC["workloads"]]
    if options.reverse:
        names.reverse()
    runs = []
    all_correct = True
    for _ in range(options.runs):
        run: dict[str, dict] = {}
        for name in names:
            detail = run_child(options, name, 0)
            entry = {
                "end_to_end": detail["end_to_end"],
                "error_rate": detail["error_rate"],
                "drift": detail["drift"],
                "attempted": detail["attempted"],
                "p99_ms": detail["client"]["whole"]["p99_ms"],
                "read": detail["client"]["read"],
                "write": detail["client"]["write"],
                "recovery_s": detail["notes"].get("recovery_s"),
                "replayed_records": detail["notes"].get("replayed_records"),
            }
            all_correct &= detail["correct"]
            if options.trace:
                traced = run_child(options, name, 1)
                all_correct &= traced["correct"]
                entry["per_layer"] = traced["per_layer"]
                entry["trace_overhead"] = (
                    1 - traced["per_layer"]["trace.ops_per_s"] / detail["end_to_end"]["ops_per_s"]
                )
            run[name] = entry
        runs.append(run)
    report = {
        "claim": None,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "options": {
            "seed": options.seed, "seconds": options.seconds, "scale": options.scale,
            "setups": options.setups, "reverse": options.reverse,
        },
        "runs": runs,
    }
    with open(options.out, "w") as handle:
        json.dump(report, handle, indent=1)
    print_table(runs[-1], bool(options.trace))
    verdict = "correct" if all_correct else "WRONG"
    print(f"wrote {options.out} ({len(runs)} run(s)); outputs {verdict}")
    return 0 if all_correct else 1


def print_table(run: dict[str, dict], traced: bool) -> None:
    names = [metric["name"] for metric in SPEC["end_to_end"]]
    print()
    print(
        f"{'workload':20s}"
        + "".join(f"{name:>13s}" for name in names)
        + f"{'error_rate':>12s}{'drift':>8s}"
    )
    for workload, entry in run.items():
        flag = "" if 0.9 <= entry["drift"] <= 1.1 else " DRIFT"
        print(
            f"{workload:20s}"
            + "".join(f"{entry['end_to_end'][name]:13.3f}" for name in names)
            + f"{entry['error_rate']:12.4f}{entry['drift']:8.3f}{flag}"
        )
    if not traced:
        return
    layers = ("server", "cypher", "triggers", "tx", "storage", "other")
    print()
    print(
        f"{'share of latency':20s}"
        + "".join(f"{layer:>10s}" for layer in layers)
        + f"{'trace_overhead':>16s}"
    )
    for workload, entry in run.items():
        print(
            f"{workload:20s}"
            + "".join(f"{entry['per_layer']['share.' + layer]:10.3f}" for layer in layers)
            + f"{entry['trace_overhead']:16.3f}"
        )


def main(argv: list[str]) -> int:
    options = parse_arguments(argv)
    if options.workload is None:
        return run_all(options)
    detail = run_workload(options)
    describe(detail)
    print(DETAIL_TAG + json.dumps(detail))
    print(contract_line(detail))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
