"""The bench gate: does every seeded experiment still mean what it meant?

Unlike the ``benchmarks/test_bench_*`` suites — which reproduce the
paper's tables, figures and validation experiments — this package runs
the simulator's macro-scenarios as the rows of one table
(:data:`benchmarks.perf.gate.ROWS`) and compares each with its entry in
``benchmarks/perf/BENCH_core.json``:

==================  ==================================================
row                 what it runs
==================  ==================================================
``high_mpl``        closed-population MPL sweep at 16/48/96 (3 shards):
                    the fair-share reallocation path
``mixed_pipeline``  OLTP + BI through the full manager pipeline with
                    execution controllers: the per-tick control loop
``sla_polling``     SLA attainment, percentiles and windowed
                    throughput polled every tick: streaming metrics
``cluster``         4-node dispatch with a mid-run node kill (EXP18)
``million_query``   8 closed-loop server shards; >= 1,000,000
                    submitted queries in full mode
``matcher_*``       push and pull dispatch over one seeded stress
                    scenario at 64 (ci, full) and 256 (full) nodes
``backend``         a >= 1,000-statement plan on in-process SQLite plus
                    the sim-vs-real comparison
``scenarios``       the chaos-scenario survival matrix (40 runs)
==================  ==================================================

Every row is seeded and returns a SHA-256 digest over its full-precision
outcome streams plus integer counters.  The gate requires the digest and
every committed counter to be exactly equal, and the invariants a row
computes (conservation, run-to-run identity, size floors, calibration)
to hold.  Wall time is printed with its ratio to the recorded value and
is advisory: speed is compared parent-vs-change by ``benchmarks/ledger``.

One command::

    python -m benchmarks.perf                     # every ci row (make bench)
    python -m benchmarks.perf --mode full         # the full-size rows
    python -m benchmarks.perf --only high_mpl,cluster
    python -m benchmarks.perf --workers 2         # shards over 2 processes
    python -m benchmarks.perf --update-baseline   # record what was run
    python -m benchmarks.perf --json-out bench.json
"""
