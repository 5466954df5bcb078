"""P10 (added) — concurrent HTTP throughput through the server front door.

Each connection is served on a thread of its own that runs the statement
itself, so *snapshot reads* from N keep-alive clients overlap wherever the
work releases the GIL (socket I/O, waiting on the client) and share the
graph's read lock; the CPU-bound part of a read still runs one thread at
a time.  Aggregate read throughput therefore grows by the idle fraction
of a round trip, not by the client count — on a 2-CPU host 1 → 8 clients
measures ~1.0x (~4k qps either way) — and a cheaper single-client round
trip *lowers* the factor.  A wall-clock scaling ratio is not a
correctness property, so the gate is the no-collapse bound: 8 clients
must not fall below ~0.7x of 1 client.  The measured factor and the CPU
count are in the experiment's notes.  Write throughput is reported, not
asserted — writes serialise on the exclusive per-graph lock, so flat is
the expected shape.
"""

from repro.bench import perf_concurrency


def test_perf_concurrency(benchmark, assert_result):
    result = benchmark.pedantic(
        lambda: perf_concurrency(client_counts=(1, 2, 4, 8), requests_per_client=40,
                                 write_requests_per_client=10),
        rounds=1,
        warmup_rounds=1,
        iterations=1,
    )
    assert_result(result, "P10", min_rows=8)
    reads = {row["clients"]: row["qps"] for row in result.rows if row["mode"] == "read"}
    writes = {row["clients"]: row["qps"] for row in result.rows if row["mode"] == "write"}
    assert set(reads) == {1, 2, 4, 8}
    assert set(writes) == {1, 2, 4, 8}
    for qps in list(reads.values()) + list(writes.values()):
        assert qps > 0
    assert reads[8] >= 0.7 * reads[1], (
        f"snapshot reads collapsed under concurrency: 1 client {reads[1]} qps, "
        f"8 clients {reads[8]} qps"
    )
    assert any("snapshot reads:" in note and "CPU(s)" in note for note in result.notes)
    assert any("audit trigger" in note for note in result.notes)
