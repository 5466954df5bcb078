"""Smoke test of the benchmark spine: names, correctness and the zero cells.

Runs all five workloads, untraced and traced, at a fiftieth of the size
for a fraction of a second each.  It checks what must hold on any host —
the metric and workload names are exactly BENCHMARK.json's, no operation
failed, layer shares sum to one, and the layers a workload must not touch
record exactly nothing.  It asserts no wall-clock value: timing gates do
not belong in the correctness suite.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

SERVED = {"covid-http-mixed", "http-read-point"}
#: Per-layer metrics that must be exactly 0 on the named workloads.
ZERO_CELLS = {
    "triggers.dispatch_ms": {"http-read-point", "analytic-reads"},
    "triggers.activations_per_op": {"http-read-point", "analytic-reads"},
    "share.triggers": {"http-read-point", "analytic-reads"},
    "storage.log_ms": {"http-read-point", "firehose-triggers", "analytic-reads"},
    "storage.fsync_ms": {"http-read-point", "firehose-triggers", "analytic-reads"},
    "storage.fsyncs_per_op": {"http-read-point", "firehose-triggers", "analytic-reads"},
    "storage.wal_bytes_per_op": {"http-read-point", "firehose-triggers", "analytic-reads"},
    "share.storage": {"http-read-point", "firehose-triggers", "analytic-reads"},
    "server.overhead_ms": {"firehose-triggers", "durable-writes", "analytic-reads"},
    "server.wire_ms": {"firehose-triggers", "durable-writes", "analytic-reads"},
    "share.server": {"firehose-triggers", "durable-writes", "analytic-reads"},
}


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("spine") / "BENCH_spine.json"
    completed = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--scale", "0.02", "--seconds", "0.3", "--setups", "1", "--trace", "1",
            "--out", str(out),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout
    with open(out) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_names_match_the_contract(report, spec):
    assert report["claim"] is None
    (run,) = report["runs"]
    assert list(run) == [workload["name"] for workload in spec["workloads"]]
    for entry in run.values():
        assert set(entry["end_to_end"]) == {metric["name"] for metric in spec["end_to_end"]}
        assert set(entry["per_layer"]) == {metric["name"] for metric in spec["per_layer"]}
        assert "trace_overhead" in entry


def test_outputs_are_correct_and_shares_add_up(report):
    (run,) = report["runs"]
    for name, entry in run.items():
        assert entry["error_rate"] == 0, name
        assert entry["attempted"] > 0, name
        layers = [value for key, value in entry["per_layer"].items() if key.startswith("share.")]
        assert sum(layers) == pytest.approx(1.0), name
        tiers = [
            value for key, value in entry["per_layer"].items()
            if key.startswith("triggers.tier_share.")
        ]
        assert sum(tiers) == pytest.approx(1.0 if any(tiers) else 0.0), name


def test_untouched_layers_record_nothing(report):
    (run,) = report["runs"]
    for metric, workloads in ZERO_CELLS.items():
        for name in workloads:
            assert run[name]["per_layer"][metric] == 0, (name, metric)
    for name, entry in run.items():
        assert (entry["per_layer"]["server.overhead_ms"] > 0) == (name in SERVED), name


def test_home_workloads_exercise_their_layer(report):
    (run,) = report["runs"]
    firehose = run["firehose-triggers"]["per_layer"]
    for tier in ("incremental", "batched", "sequential"):
        assert firehose[f"triggers.tier_share.{tier}"] > 0, tier
    durable = run["durable-writes"]["per_layer"]
    assert durable["storage.fsyncs_per_op"] == pytest.approx(1.0)
    assert durable["storage.wal_bytes_per_op"] > 0
    assert run["durable-writes"]["replayed_records"] > 0
    assert run["covid-http-mixed"]["per_layer"]["triggers.activations_per_op"] > 0
