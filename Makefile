# Convenience targets for the dbwm reproduction.

PY ?= python
export PYTHONPATH := src:.

.PHONY: test test-ledger test-experiments survival examples bench bench-full bench-parallel bench-baseline ledger ledger-pairs artifacts lint loc reach

test:
	$(PY) -m pytest tests/ -q

# The ledger's own tests: its traced-run test asserts that every seam
# in the seam table still resolves (tracer.missing == []), the guard
# that a refactor has not silently nulled a ledger layer.
test-ledger:
	$(PY) -m pytest benchmarks/ledger -q

# The experiment benches (EXP1-18, tables, ablations): the consumers of
# src/ APIs that no tier-1 test imports, so an API change fails here and
# not in whoever next runs `make artifacts`.  Rewrites benchmarks/results/
# with seeded, order-independent text: `git status benchmarks/results`
# is clean afterwards unless behaviour changed (CI checks exactly that).
test-experiments:
	$(PY) -m pytest benchmarks/ --ignore=benchmarks/ledger -q

# The committed scenario survival matrix (~6 s, seeded): rewrites
# benchmarks/results/SURVIVAL_MATRIX.md, which CI then diffs like the
# experiment results.
survival:
	$(PY) -m repro scenario report --out benchmarks/results/SURVIVAL_MATRIX.md

# Every example runs to exit 0 and prints exactly its committed golden,
# examples/expected/<name>.txt (~7 s; seeded, so byte-stable): they
# consume src/ APIs that the inventory test only checks exist.  A diff
# fails the target; after an intended output change, rewrite the golden
# with `$(PY) examples/<name>.py > examples/expected/<name>.txt` and say
# why in CHANGES.md.
examples:
	@set -e; out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for f in examples/*.py; do \
		echo "== $$f"; $(PY) $$f > "$$out"; \
		diff -u "examples/expected/$$(basename $$f .py).txt" "$$out"; \
	done

# Static checks (ruff, config in pyproject.toml).  CI installs ruff;
# locally the target degrades to a no-op when ruff is unavailable.  Only
# a missing ruff is skipped: a finding fails the target.
lint:
	@if $(PY) -m ruff --version >/dev/null 2>&1; then \
		$(PY) -m ruff check src/ tests/ benchmarks/ examples/; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

# Every src/repro function no run calls, per module with line counts
# (benchmarks/reach.py, ~10 min, not in CI): ROADMAP item 8's input,
# not a deletion list.  Rewrites benchmarks/results/ as test-experiments does.
reach:
	$(PY) benchmarks/reach.py

# Every size figure ROADMAP.md states a target for, as `wc -l` lines, so
# a deletion claim in CHANGES.md is pasted from here, not hand-assembled.
loc:
	@for d in src $(dir $(wildcard src/repro/*/__init__.py)) benchmarks/perf tests tests/parallel; do \
		printf '%7d %s\n' `find $$d -name '*.py' | xargs cat | wc -l` $$d; \
	done
	@wc -l src/repro/cli.py src/repro/core/registry.py benchmarks/_scenarios.py | sed '$$d'

# The bench gate (benchmarks/perf/gate.py): every row of the table in
# the given mode; a digest or counter that differs from the committed
# BENCH_core.json fails, wall time is printed as an advisory ratio.
# ROWS=high_mpl,cluster narrows any of these targets to those rows.
BENCH = $(PY) -m benchmarks.perf $(if $(ROWS),--only $(ROWS))

bench:
	$(BENCH) --json-out bench.json

# The committed macro-scenario sizes (million_query >= 1M submitted,
# matcher at 64 and 256 nodes): ~15 min serially.  The million row
# alone, sharded: $(BENCH) --mode full --only million_query --workers 8
bench-full:
	$(BENCH) --mode full

# Parallel == serial invariant: shards spread over two worker
# processes must reduce to the committed serial digests.
bench-parallel:
	$(BENCH) --workers 2

# Re-record the committed entries after an intentional behaviour change.
# Each mode's step skips a ROWS name that only the other mode declares.
bench-baseline:
	$(BENCH) --update-baseline
	$(BENCH) --mode full --update-baseline

# The layered performance ledger (six workloads, ~2.5 min): the
# instrument perf claims are made with; see benchmarks/ledger/README.md.
ledger:
	$(PY) -m benchmarks.ledger

# Alternating pairs of BENCHMARK.json's command (benchmarks/pairs.py):
# REF's committed files against this working tree, seeds 1..N, odd pairs
# REF first; prints both medians and quartiles and "better k/N" per
# workload and end-to-end metric.  W (comma-separated) defaults to all six.
REF ?= HEAD
N ?= 10
ledger-pairs:
	$(PY) benchmarks/pairs.py --ref $(REF) --pairs $(N) $(if $(W),--workloads $(W))

# Regenerate every paper artifact under benchmarks/results/, plus the
# gate's JSON and the survival report, so one target leaves a complete,
# committable artifact set.
artifacts:
	$(PY) -m pytest benchmarks/ -q
	mkdir -p benchmarks/results
	$(BENCH) --json-out benchmarks/results/bench.json
	$(MAKE) survival
