# Convenience targets for the ParHDE reproduction.

PYTHON ?= python

.PHONY: install test bench bench-fast serve-smoke stream-smoke check-smoke chaos-smoke cluster-smoke lod-smoke kernels-smoke constraints-smoke wal-smoke perfbench-selftest examples results clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Boot the layout server on an ephemeral port, issue a layout + stats
# request, assert the second identical request is a cache hit, then
# update the graph and assert the cached layout misses.
serve-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/serve_smoke.py

# Dynamic-layout acceptance: a 32-edge delta on a 10k-vertex graph must
# repair incrementally with >= 5x fewer modeled BFS work units than a
# full relayout while matching its stress within 5%.
stream-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/stream_smoke.py

# Invariant-suite acceptance: every pipeline phase must satisfy its
# paper-stated invariant (strict thresholds, deep checks included) on a
# small dataset, and the fault-injection harness must catch every
# registered corruption.
check-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.cli check barth --scale small --strict
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.cli check barth --scale tiny --strict --weighted
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.cli check barth --scale tiny --inject all

# Resilience acceptance: walk the chaos failpoint matrix against a live
# resilient server — every injected fault (stalled/failing kernels,
# corrupted cache archives, failing disk writes, poisoned request keys)
# must produce a documented recovery (retry, degraded tier, quarantine,
# breaker short-circuit), never an unhandled error.
chaos-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/chaos_smoke.py

# Sharded-serving acceptance: boot `parhde serve --workers 2`, run a
# concurrent layout+update workload, SIGKILL one worker mid-stream, and
# require 100% request availability (reshard + retry on the survivor)
# plus an automatic restart that returns the cluster to full strength.
cluster-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/cluster_smoke.py

# progressive LOD: coarse first paint on a 150k-vertex graph, monotone
# tier convergence to "full" over HTTP polling, counters accounted.
lod-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/lod_smoke.py

# Batched-kernel acceptance: 10-source BFS on a >=100k-vertex random
# graph must return bitwise-identical distances via the frontier-matrix
# kernel while beating per-source by >=2x modeled and >=3x wall-clock.
kernels-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) benchmarks/bench_kernels.py --quick

# Constrained-serving acceptance: over real HTTP, pin a vertex, POST a
# drag delta, and require the warm constrained relayout to hold the pin
# bitwise while costing >=3x less modeled BFS+solve work than cold.
constraints-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/constraints_smoke.py

# WAL durability acceptance: SIGKILL the worker that owns an updated
# graph mid-stream and require the respawned worker to replay its WAL
# and serve the post-update epoch bitwise-identically to an
# uninterrupted engine (zero stale responses); then corrupt a WAL tail
# and require truncate-at-last-valid-record recovery with the torn
# bytes quarantined and counted.
wal-smoke:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) scripts/wal_smoke.py

# Wall-clock benchmark self-tests (~1 min): every workload runs briefly
# at tiny scale, traced, so a refactor that renames a method the span
# hooks wrap (engine submit/drain, router layout/update, layout_payload,
# send_msg/recv_msg) fails here instead of in the benchmark.
perfbench-selftest:
	$(PYTHON) -m pytest perfbench -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-fast:
	REPRO_BENCH_SCALE=small $(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	@for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex /tmp/repro-examples || exit 1; done

results:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results __pycache__
	find . -name "__pycache__" -type d -exec rm -rf {} +
