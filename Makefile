# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test test-fast smoke serve-smoke store-smoke \
	runtime-smoke redteam-smoke \
	scenario-smoke bench examples clean

# Artifact-store directory for store-smoke.  Deliberately NOT removed
# by the target: CI restores it via actions/cache so the second run —
# and the next CI run — start warm.
STORE_SMOKE_DIR ?= .store-smoke

install:
	pip install -e '.[test]'

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# The *-smoke targets drive the CLI end to end; the unit and property
# tests behind each one run in the tier-1 suite (make test).

# 2-worker campaign smoke test: process-pool sharding must reproduce
# the serial score set bitwise (the determinism contract).
smoke:
	$(PYTHON) -m repro evaluate replay --commands 1 --attacks 1 --workers 2

# Serving smoke: tiny runs against the warm-pool service.  Each
# command exits non-zero on any failed request, and the metrics table
# (latency percentiles per stage) prints on stdout.  `serve` runs the
# service self-test.  The first two loadgen runs warm the BLSTM
# segmenter under the fast and the paper recipe; the third keeps 8
# clients on one worker, so requests wait for the busy worker and
# leave the queue as multi-request batches.  The last is an open loop
# far faster than one worker against a two-slot queue: the producer
# blocks in submit, and every request must still be served.
serve-smoke:
	$(PYTHON) -m repro serve --segmenter none --requests 4
	$(PYTHON) -m repro loadgen --segmenter fast --workers 2 \
		--requests 12 --concurrency 4 --seed 0
	$(PYTHON) -m repro loadgen --segmenter paper --workers 2 \
		--requests 8 --concurrency 4 --seed 0
	$(PYTHON) -m repro loadgen --segmenter none --workers 1 \
		--requests 24 --concurrency 8 --seed 0
	$(PYTHON) -m repro loadgen --segmenter none --workers 1 \
		--queue-capacity 2 --mode open --rate 200 --requests 24

# Store smoke: two serve-smoke runs against a persistent artifact
# store.  The first run may train and publish; the second must load
# everything — its accounting line has to report "0 trained".  The
# second run's output is held in a shell variable, not piped, so its
# exit status (non-zero on any failed request) fails the target.
store-smoke:
	$(PYTHON) -m repro loadgen --segmenter fast --workers 2 \
		--requests 12 --concurrency 4 --seed 0 \
		--store-dir $(STORE_SMOKE_DIR)
	out="$$($(PYTHON) -m repro loadgen --segmenter fast --workers 2 \
		--requests 12 --concurrency 4 --seed 0 \
		--store-dir $(STORE_SMOKE_DIR))"; status=$$?; \
	printf '%s\n' "$$out"; \
	test $$status -eq 0 && printf '%s\n' "$$out" | grep -q ", 0 trained)"
	$(PYTHON) -m repro store verify --dir $(STORE_SMOKE_DIR)

# Runtime smoke: the unified execution layer.  A 2-worker campaign
# and a 2-worker serve run must both succeed under the thread AND
# process executors (the campaign score set is bitwise identical
# across all of them).
runtime-smoke:
	$(PYTHON) -m repro evaluate replay --commands 1 --attacks 1 \
		--workers 2 --executor thread
	$(PYTHON) -m repro evaluate replay --commands 1 --attacks 1 \
		--workers 2 --executor process
	$(PYTHON) -m repro loadgen --segmenter none --workers 2 \
		--worker-mode thread --requests 8 --concurrency 4 --seed 0
	$(PYTHON) -m repro loadgen --segmenter none --workers 2 \
		--worker-mode process --requests 8 --concurrency 4 --seed 0

# Red-team smoke: two tiny robustness curves (~2 generations each,
# both detector arms) exercise the gradient-free and surrogate-gradient
# attackers end to end against the black-box oracle; the second
# hardens with the bench's defenses, and its attackers fall back to
# gradient-free search by budget 14.
redteam-smoke:
	$(PYTHON) -m repro redteam curve --mode cmaes --budgets 0 10 \
		--population 1 --bands 4 --slices 2 --probe-episodes 1 \
		--eval-episodes 4 --workers 1 --executor inline --seed 3
	$(PYTHON) -m repro redteam curve --mode surrogate --budgets 0 14 \
		--population 1 --bands 4 --slices 2 --probe-episodes 1 \
		--eval-episodes 4 --workers 1 --executor inline --seed 3 \
		--jitter 0.08 --subset-fraction 0.5

# Scenario smoke: the composable channel layer and the scenario
# registry.  The two proof packs run end to end through the evaluate
# CLI, and the quick scenario matrix runs every registered pack and
# writes the git-ignored benchmarks/results/scenario_matrix_quick.txt
# (the checked-in scenario_matrix.txt comes from the full bench).
scenario-smoke:
	$(PYTHON) -m repro evaluate --scenario ultrasound-solid \
		--commands 1 --attacks 1 --workers 2
	$(PYTHON) -m repro evaluate --scenario metamaterial-barrier \
		--commands 1 --attacks 1 --workers 2
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest \
		benchmarks/bench_scenario_matrix.py --benchmark-only -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/phoneme_selection_study.py
	$(PYTHON) examples/attack_study.py
	$(PYTHON) examples/smart_home_protection.py
	$(PYTHON) examples/roc_study.py

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
