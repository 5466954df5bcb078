# Developer / CI entry points.  Everything runs from the repository root.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-storage test-concurrency test-paths test-optimizer test-triggers test-cypher \
	lint bench-smoke explain-demo streaming-demo batched-triggers-demo \
	physical-operators-demo paths-demo optimizer-demo contact-tracing-demo serve

## Run the full tier-1 suite (unit, integration, the paper's tables, figures and
## Section 6 suites under tests/paper/, and the benchmark spine's smoke test).
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

## The wall-clock performance gates (benchmarks/perf/, not in Tier-1): P1
## trigger matching overhead, P2 cascade depth, P5 planner/plan cache, P6
## streaming vs eager, P7 batched vs per-activation triggers, P8 physical
## operators (range seek / hash join / top-k), P11 path queries
## (reachability accelerator vs DFS) and the P12 optimizer-torture q-error
## and plan-regret gate against benchmarks/optimizer_baseline.json (the
## scored workload lands in BENCH_optimizer_qerror.json).  Timings are
## dumped to BENCH_smoke.json; both files are uploaded as CI artifacts.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/perf \
		-q --benchmark-columns=min,mean,rounds \
		--benchmark-json=BENCH_smoke.json

## Print one experiment of benchmarks/perf/experiments.py.
PERF_DEMO = PYTHONPATH=src:benchmarks/perf $(PYTHON) -c \
	"import experiments; print(experiments.$(1)().to_text())"

## Print the P5 experiment (EXPLAIN output + plan-cache statistics).
explain-demo:
	$(call PERF_DEMO,perf_plan_cache)

## Print the P6 experiment (streaming vs eager MATCH … LIMIT latency).
streaming-demo:
	$(call PERF_DEMO,perf_streaming_limit)

## Print the P7 experiment (batched vs per-activation trigger evaluation).
batched-triggers-demo:
	$(call PERF_DEMO,perf_batched_triggers)

## Print the P8 experiment (range seek / hash join / top-k vs baselines).
physical-operators-demo:
	$(call PERF_DEMO,perf_physical_operators)

## Print the P11 experiment (reachability accelerator vs DFS, shortestPath).
paths-demo:
	$(call PERF_DEMO,perf_paths)

## Print the P12 experiment (optimizer torture: per-kind q-error and plan
## regret, histogram vs one-third heuristic, narrow-hop routing counters).
optimizer-demo:
	$(call PERF_DEMO,perf_optimizer)

## Run the contact-tracing path-query walkthrough (k-hop exposure rings,
## shortest transmission chains, a path-predicate trigger).
contact-tracing-demo:
	$(PYTHON) examples/contact_tracing.py

## Start the thread-per-connection HTTP/JSON server on port 7688 (in-memory graphs; pass
## SERVE_ARGS='--path data --port 7688' etc. for durable storage).
serve:
	$(PYTHON) -m repro.server $(SERVE_ARGS)
