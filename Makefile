# Convenience targets for the dbwm reproduction.

PY ?= python
export PYTHONPATH := src:.

.PHONY: test test-ledger bench bench-full bench-parallel bench-baseline bench-matcher bench-matcher-full bench-million bench-million-full bench-backend bench-backend-full bench-scenarios profile artifacts lint

test:
	$(PY) -m pytest tests/ -q

# The ledger's own tests: its traced-run test asserts that every seam
# in the seam table still resolves (tracer.missing == []), the guard
# that a refactor has not silently nulled a ledger layer.
test-ledger:
	$(PY) -m pytest benchmarks/ledger -q

# Static checks (ruff, config in pyproject.toml).  CI installs ruff;
# locally the target degrades to a no-op when ruff is unavailable.
lint:
	@$(PY) -m ruff --version >/dev/null 2>&1 \
		&& $(PY) -m ruff check src/ tests/ benchmarks/ examples/ \
		|| echo "ruff not installed; skipping lint (pip install ruff)"

# Quick perf-regression gate: scaled-down macro-scenarios, fails if any
# scenario runs >2x slower than the committed BENCH_core.json or if a
# seeded digest changed (determinism break).
bench:
	$(PY) -m benchmarks.perf

# Full macro-scenarios (the committed before/after record).
bench-full:
	$(PY) -m benchmarks.perf --mode full

# Parallel == serial invariant: run the quick suite sharded over two
# worker processes; fails unless every reduced digest is bit-identical
# to the committed serial baseline.
bench-parallel:
	$(PY) -m benchmarks.perf --workers 2

# Push-vs-pull dispatch A/B at 64 nodes (heterogeneous speeds, churn
# waves, flash crowd): digest + wall gates against the matcher section
# of BENCH_core.json; writes the run's JSON for the CI bench artifact.
bench-matcher:
	$(PY) -m benchmarks.perf.matcher --mode ci --json-out bench-matcher.json

# The EXPERIMENTS.md numbers: 64 and 256 nodes at the full horizon.
bench-matcher-full:
	$(PY) -m benchmarks.perf.matcher --mode full

# CI-sized slice of the million-query macro-scenario: digest + wall
# gates against the committed million_query section of BENCH_core.json;
# writes the run's JSON for the CI bench artifact.
bench-million:
	$(PY) -m benchmarks.perf.million --mode ci --json-out bench-million.json

# The headline >= 1M submitted-query run (digest-gated, sharded over 8
# worker processes; digests are identical to a serial run).
bench-million-full:
	$(PY) -m benchmarks.perf.million --mode full --workers 8

# Real-backend macro-bench: >= 1,000 statements against in-process
# SQLite under rate control, trace-captured via QueryLog, with the
# sim-vs-real comparison (admission + throttling) and the calibration
# gate; plan digest checked against the backend section of
# BENCH_core.json.  Writes the run's JSON for the CI bench artifact.
bench-backend:
	$(PY) -m benchmarks.perf.backend --mode ci --json-out bench-backend.json

# Longer-horizon backend run (>= 6,000 statements, digest-gated).
bench-backend-full:
	$(PY) -m benchmarks.perf.backend --mode full

# Chaos-scenario survival matrix: every committed scenario under every
# isolation policy (plus leakage companions); digest + wall gates
# against the scenarios section of BENCH_core.json.  Writes the run's
# JSON for the CI bench artifact.
bench-scenarios:
	$(PY) -m benchmarks.perf.scenario_matrix --json-out bench-scenarios.json

# One-command hotspot profile: cProfile over a shortened high_mpl,
# top-25 cumulative functions (the kill-list workflow).
profile:
	$(PY) -m benchmarks.perf.profile

# Re-record the committed baseline after an intentional perf change.
bench-baseline:
	$(PY) -m benchmarks.perf --update-baseline
	$(PY) -m benchmarks.perf --mode full --update-baseline

# Regenerate every paper artifact under benchmarks/results/, then
# re-run the JSON-emitting bench gates and collect their outputs there
# too, so one target leaves a complete, committable artifact set.
artifacts:
	$(PY) -m pytest benchmarks/ -q
	$(PY) -m benchmarks.perf.matcher --mode ci --json-out bench-matcher.json
	$(PY) -m benchmarks.perf.million --mode ci --json-out bench-million.json
	$(PY) -m benchmarks.perf.backend --mode ci --json-out bench-backend.json
	mkdir -p benchmarks/results
	$(PY) -m benchmarks.perf.scenario_matrix --json-out bench-scenarios.json \
		--report-out benchmarks/results/SURVIVAL_MATRIX.md
	mv bench-matcher.json bench-million.json bench-backend.json \
		bench-scenarios.json benchmarks/results/
