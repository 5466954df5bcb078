# Developer / CI entry points.  Everything runs from the repository root.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-storage test-concurrency test-paths test-optimizer test-triggers test-cypher \
	lint bench bench-smoke explain-demo streaming-demo batched-triggers-demo \
	physical-operators-demo durability-demo concurrency-demo paths-demo optimizer-demo \
	incremental-triggers-demo contact-tracing-demo serve

## Run the full tier-1 suite (unit + integration + benchmark assertions).
test:
	$(PYTHON) -m pytest -x -q

## The durability suite alone: WAL/codec/recovery units, the crash-injection
## matrix and the property-based differential tests.
test-storage:
	$(PYTHON) -m pytest tests/storage -q

## The concurrency suite alone: the lock-manager units, the multi-threaded
## stress tests (lost updates, torn reads, triggers under contention) and the
## HTTP server tests (incl. 50 concurrent clients + graceful shutdown).
test-concurrency:
	$(PYTHON) -m pytest tests/tx tests/integration/test_concurrency_stress.py tests/server -q

## The path-query suite alone: var-length expansion, shortestPath and the
## reachability accelerator units plus the property-based differential
## tests (naive == iterative == accelerated) and translator passthrough.
test-paths:
	$(PYTHON) -m pytest tests/cypher/test_paths.py tests/cypher/test_path_properties.py tests/compat/test_path_passthrough.py -q

## The optimizer suite alone: composite indexes, histogram estimates,
## index-backed ORDER BY, connected hash joins and narrow-hop routing,
## plus the property-based histogram-maintenance and join-ordering tests.
test-optimizer:
	$(PYTHON) -m pytest tests/cypher/test_optimizer_v2.py tests/graph/test_histogram_properties.py tests/cypher/test_planner.py tests/test_join_ordering_properties.py -q

## The trigger suite alone: engine/registry/session units, the footprint
## soundness properties and termination analysis, the batched two-way
## differential and the incremental three-way differential (sequential ==
## batched == incremental, incl. mid-stream DDL and trigger install/drop,
## with Hypothesis randomized streams), the condition-plan tests (NEW/OLD
## anchor pattern starts, BoundRelationship(NEW), EXISTS planned in scope,
## flat plan-cache misses), plus the paper's Section 6 termination verdicts.
test-triggers:
	$(PYTHON) -m pytest tests/triggers tests/integration/test_paper_section6.py -q

## The Cypher suite alone: lexer/parser, expression, planner and executor
## units (streaming, the projection-stage contracts of STREAM/TOPK/SORT/
## AGGREGATE/WILDCARD, physical operators, paths, plan cache) plus the
## property-based join-ordering, parser round-trip and streaming-vs-eager
## differentials, the anchor differential (initial-row anchors == UNWIND)
## and index == no-index for seeks on bound values.
test-cypher:
	$(PYTHON) -m pytest tests/cypher tests/test_join_ordering_properties.py tests/test_properties.py -q

## Static checks (requires ruff: `pip install ruff`; CI installs it).
lint:
	ruff check src tests benchmarks

## Run the complete benchmark suite with timing output.
bench:
	$(PYTHON) -m pytest benchmarks -q

## The benchmark smoke subset used by CI: the two trigger hot paths, the
## planner/plan-cache experiment, the streaming-vs-eager P6 comparison, the
## batched-vs-per-activation P7 trigger comparison, the P8 physical
## operator comparisons (range seek / hash join / top-k), the P9
## durability throughput/recovery experiment (incl. WAL replay ms/record
## at two log lengths), the P10 concurrent-HTTP
## throughput experiment (qps at 1/2/4/8 clients through the server), the
## P11 path-query experiment (reachability accelerator vs DFS) and the
## P12 optimizer-torture experiment (q-error + plan-regret regression gate
## against benchmarks/optimizer_baseline.json; the scored workload lands
## in BENCH_optimizer_qerror.json) and the P13 incremental-trigger
## firehose experiment (≥5x deltas/sec gate against
## benchmarks/triggers_baseline.json; the result table lands in
## BENCH_triggers_firehose.json).  Timings are dumped to
## BENCH_smoke.json (all three JSON files are uploaded as CI artifacts).
bench-smoke:
	$(PYTHON) -m pytest \
		benchmarks/test_perf_trigger_overhead.py \
		benchmarks/test_section63_apoc_worked_translations.py \
		benchmarks/test_perf_plan_cache.py \
		benchmarks/test_perf_streaming.py \
		benchmarks/test_perf_batched_triggers.py \
		benchmarks/test_perf_physical_operators.py \
		benchmarks/test_perf_durability.py \
		benchmarks/test_perf_concurrency.py \
		benchmarks/test_perf_paths.py \
		benchmarks/test_perf_optimizer.py \
		benchmarks/test_perf_incremental_triggers.py \
		-q --benchmark-columns=min,mean,rounds \
		--benchmark-json=BENCH_smoke.json

## Print the P5 experiment (EXPLAIN output + plan-cache statistics).
explain-demo:
	$(PYTHON) -c "from repro.bench import perf_plan_cache; print(perf_plan_cache().to_text())"

## Print the P6 experiment (streaming vs eager MATCH … LIMIT latency).
streaming-demo:
	$(PYTHON) -c "from repro.bench import perf_streaming_limit; print(perf_streaming_limit().to_text())"

## Print the P7 experiment (batched vs per-activation trigger evaluation).
batched-triggers-demo:
	$(PYTHON) -c "from repro.bench import perf_batched_triggers; print(perf_batched_triggers().to_text())"

## Print the P8 experiment (range seek / hash join / top-k vs baselines).
physical-operators-demo:
	$(PYTHON) -c "from repro.bench import perf_physical_operators; print(perf_physical_operators().to_text())"

## Print the P9 experiment (in-memory vs fsync vs group-commit throughput,
## plus WAL replay ms/record at two log lengths).
durability-demo:
	$(PYTHON) -c "from repro.bench import perf_durability; print(perf_durability().to_text())"

## Print the P10 experiment (HTTP qps at 1/2/4/8 concurrent clients).
concurrency-demo:
	$(PYTHON) -c "from repro.bench import perf_concurrency; print(perf_concurrency().to_text())"

## Print the P11 experiment (reachability accelerator vs DFS, shortestPath).
paths-demo:
	$(PYTHON) -c "from repro.bench import perf_paths; print(perf_paths().to_text())"

## Print the P12 experiment (optimizer torture: per-kind q-error and plan
## regret, histogram vs one-third heuristic, narrow-hop routing counters).
optimizer-demo:
	$(PYTHON) -c "from repro.bench import perf_optimizer; print(perf_optimizer().to_text())"

## Print the P13 experiment (incremental trigger views vs batched:
## sustained deltas/sec over a firehose delta stream).
incremental-triggers-demo:
	$(PYTHON) -c "from repro.bench import perf_incremental_triggers; print(perf_incremental_triggers().to_text())"

## Run the contact-tracing path-query walkthrough (k-hop exposure rings,
## shortest transmission chains, a path-predicate trigger).
contact-tracing-demo:
	$(PYTHON) examples/contact_tracing.py

## Start the thread-per-connection HTTP/JSON server on port 7688 (in-memory graphs; pass
## SERVE_ARGS='--path data --port 7688' etc. for durable storage).
serve:
	$(PYTHON) -m repro.server $(SERVE_ARGS)
