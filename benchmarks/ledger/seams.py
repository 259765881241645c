"""The seam table (data only): per-layer metric name -> where it is cut.

A target is ``"module:Class.method"`` or ``"module:function"``.  A
trailing ``+`` means *and every loaded subclass that overrides it* —
used for the abstract stage interfaces, whose concrete classes are the
ones that do the work.  A seam with several targets sums them.

Each seam yields two per-layer metrics, ``<seam>.self_us`` and
``<seam>.calls``.  The tracer resolves targets at install time; a
target that no longer resolves never crashes the benchmark (see
``Tracer.missing``), because later PRs will replace some of these
methods.
"""

from __future__ import annotations

SEAMS = (
    # -- workloads ----------------------------------------------------
    ("workloads.make_query",
     ("repro.workloads.generator:WorkloadGenerator.make_query",)),
    ("workloads.notify_done",
     ("repro.workloads.generator:WorkloadGenerator.notify_done",)),
    ("workloads.start",
     ("repro.workloads.generator:WorkloadGenerator.start",)),
    ("workloads.record_query",
     ("repro.workloads.traces:QueryLog.record_query",)),
    # -- core ---------------------------------------------------------
    ("core.manager.submit", ("repro.core.manager:WorkloadManager.submit",)),
    ("core.manager.pump", ("repro.core.manager:WorkloadManager.pump",)),
    ("core.metrics.record", (
        "repro.core.metrics:MetricsCollector.record_completion",
        "repro.core.metrics:MetricsCollector.record_rejection",
        "repro.core.metrics:MetricsCollector.record_kill",
        "repro.core.metrics:MetricsCollector.record_abort",
        "repro.core.metrics:MetricsCollector.record_suspension",
        "repro.core.metrics:MetricsCollector.record_sample",
    )),
    ("core.metrics.read", (
        "repro.core.metrics:WorkloadStats.mean_response_time",
        "repro.core.metrics:WorkloadStats.percentile_response_time",
        "repro.core.metrics:WorkloadStats.mean_velocity",
        "repro.core.metrics:WorkloadStats.mean_queue_delay",
        "repro.core.metrics:WorkloadStats.throughput",
        "repro.core.metrics:WorkloadStats.overall_throughput",
        "repro.core.metrics:WorkloadStats.measurements",
        "repro.core.metrics:MetricsCollector.evaluate_sla",
        "repro.core.metrics:MetricsCollector.attainment",
    )),
    # -- taxonomy stages (Table 1's control points) -------------------
    ("characterization.identify",
     ("repro.core.interfaces:Characterizer.identify+",)),
    ("admission.decide",
     ("repro.core.interfaces:AdmissionController.decide+",)),
    ("scheduling.enqueue", ("repro.core.interfaces:Scheduler.enqueue+",)),
    ("scheduling.next_batch",
     ("repro.core.interfaces:Scheduler.next_batch+",)),
    ("execution.control",
     ("repro.core.interfaces:ExecutionController.control+",)),
    # -- engine -------------------------------------------------------
    ("engine.start", ("repro.engine.executor:ExecutionEngine.start",)),
    ("engine.control_ops", (
        "repro.engine.executor:ExecutionEngine.kill",
        "repro.engine.executor:ExecutionEngine.set_weight",
        "repro.engine.executor:ExecutionEngine.set_throttle",
    )),
    ("engine.simulator.loop",
     ("repro.engine.simulator:Simulator.run_until",)),
    # -- cluster ------------------------------------------------------
    ("cluster.dispatcher.submit",
     ("repro.cluster.dispatcher:ClusterDispatcher.submit",)),
    # push routing reads the eligible set through the cached private
    # path, the public method only copies it
    ("cluster.dispatcher.eligible_nodes", (
        "repro.cluster.dispatcher:ClusterDispatcher.eligible_nodes",
        "repro.cluster.dispatcher:ClusterDispatcher._eligible_for",
    )),
    ("cluster.binding.route",
     ("repro.cluster.dispatcher:BindingPolicy.route+",)),
    ("cluster.binding.on_capacity",
     ("repro.cluster.dispatcher:BindingPolicy.on_capacity+",)),
    ("cluster.placement.choose",
     ("repro.cluster.placement:PlacementPolicy.choose+",)),
    ("cluster.matcher.offer", ("repro.cluster.matcher:Matcher.offer",)),
    ("cluster.matcher.pull", ("repro.cluster.matcher:Matcher.pull",)),
    ("cluster.taskqueue.push", ("repro.cluster.taskqueue:TaskQueue.push",)),
    ("cluster.taskqueue.match", ("repro.cluster.taskqueue:TaskQueue.match",)),
    ("cluster.node.submit", ("repro.cluster.node:ClusterNode.submit",)),
    ("cluster.node.heartbeat",
     ("repro.cluster.node:ClusterNode.publish_heartbeat",)),
    ("cluster.metrics.rollup",
     ("repro.cluster.metrics:ClusterMetrics.rollup",)),
    # -- scenarios ----------------------------------------------------
    ("scenarios.run_scenario", ("repro.scenarios.runner:run_scenario",)),
    ("scenarios.summarize_run", ("repro.scenarios.runner:summarize_run",)),
    # -- parallel -----------------------------------------------------
    ("parallel.digest", (
        "repro.parallel.digest:outcome_digest",
        "repro.parallel.digest:dispatcher_digest",
    )),
    # -- backends -----------------------------------------------------
    ("backends.plan_statements", ("repro.backends.plan:plan_statements",)),
    ("backends.driver.setup", ("repro.backends.base:BackendDriver.setup+",)),
    ("backends.pool.acquire", ("repro.backends.pool:ConnectionPool.acquire",)),
    ("backends.pool.release", ("repro.backends.pool:ConnectionPool.release",)),
    ("backends.driver.execute",
     ("repro.backends.base:BackendDriver.execute+",)),
    ("backends.pacer.wait_until",
     ("repro.backends.rate:ArrivalPacer.wait_until",)),
)

#: ``Simulator.schedule_at`` labels -> the event seam a fired action is
#: a span of.  An entry ending in ``:`` matches the label's head (the
#: text before its first colon), any other entry the whole label.
#: Unlisted labels (``resubmit``, ``cluster:resubmit``, …) stay part of
#: ``engine.simulator.loop``'s self time.
EVENT_SEAMS = (
    ("milestone:", "engine.event.milestone"),
    ("arrival:", "engine.event.arrival"),
    ("think:", "engine.event.think"),
    ("manager:tick", "engine.event.tick"),
    ("cluster:tick", "engine.event.tick"),
    ("heartbeat:", "engine.event.heartbeat"),
    ("fault:", "engine.event.fault"),
)

#: Where ``schedule_at`` itself is cut (wrapped to name fired actions
#: and to count ``engine.simulator.scheduled_per_completion``).
SCHEDULE_AT = "repro.engine.simulator:Simulator.schedule_at"

