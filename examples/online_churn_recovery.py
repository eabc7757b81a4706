"""Online churn recovery: fail a planned node mid-run, replan live, recover.

The static pipeline (plan -> schedule -> serve) assumes the cluster it
planned on is the cluster it serves on. This example closes the loop with
the `repro.online` subsystem: LLaMA-30B is planned onto the Fig. 12
cluster, a flood of requests starts draining, and at t=12s the node
carrying the most max-flow is killed. The online controller

1. masks the node, requeues its in-flight requests (their KV is gone),
2. rewrites the flow capacities through the incremental evaluator and
   hot-swaps the degraded flow into the IWRR selectors (when the
   survivors can still cover the model), and
3. replans on the surviving subcluster (the best of the degraded
   placement and the heuristic ones) and hot-swaps the repaired placement.

Runs end to end in a few seconds:

    python examples/online_churn_recovery.py
"""

from repro import (
    AzureTraceConfig,
    HelixMilpPlanner,
    HelixScheduler,
    LLAMA_30B,
    NodeFailure,
    OnlineController,
    Profiler,
    Simulation,
    small_cluster_fig12,
    synthesize_azure_trace,
)
from repro.trace import offline_arrivals
from repro.trace.azure import AZURE_MEAN_OUTPUT

TRACE_SCALE = 0.25
FAIL_AT = 12.0
HORIZON = 36.0


def main() -> None:
    cluster = small_cluster_fig12()
    model = LLAMA_30B
    # KV capacity scales with the trace so per-node request concurrency
    # matches the full-scale system (same convention as benchmarks/).
    profiler = Profiler(kv_capacity_scale=TRACE_SCALE)
    print(f"cluster: {cluster.describe()}")

    # 1. Plan the placement as usual.
    planner = HelixMilpPlanner(
        cluster, model, profiler, time_limit=8.0, mip_rel_gap=0.05
    )
    result = planner.plan()
    print(f"planned max flow: {result.max_throughput:.0f} tokens/s")

    # 2. Pick the victim: the planned node carrying the most flow.
    node_flows = result.flow.node_flows
    victim = max(
        result.placement.used_nodes, key=lambda nid: node_flows.get(nid, 0.0)
    )
    stage = result.placement.interval(victim)
    print(
        f"victim: {victim} (layers [{stage.start}, {stage.end}), "
        f"{node_flows[victim]:.0f} tok/s of flow) fails at t={FAIL_AT:.0f}s"
    )

    # 3. Serve with an online controller watching the churn schedule.
    scheduler = HelixScheduler(
        cluster, model, result.placement, profiler, flow=result.flow,
        expected_output_len=AZURE_MEAN_OUTPUT * TRACE_SCALE,
    )
    controller = OnlineController(
        model,
        events=[NodeFailure(FAIL_AT, victim)],
        profiler=profiler,
    )
    trace = offline_arrivals(
        synthesize_azure_trace(
            AzureTraceConfig(num_requests=200, seed=0, scale=TRACE_SCALE)
        )
    )
    simulation = Simulation(
        cluster, model, result.placement, scheduler, trace,
        profiler=profiler, max_batch_tokens=2048, max_time=HORIZON,
        seed=0, controller=controller,
    )
    metrics = simulation.run()

    print("\nevent log:")
    for when, description in controller.event_log:
        print(f"  [{when:6.2f}s] {description}")
    for record in controller.replans:
        print(
            f"  [{record.sim_time:6.2f}s] replan {record.status}: "
            f"{record.wall_seconds * 1000:.0f} ms wall, repaired max flow "
            f"{record.throughput:.0f} tok/s, {record.migrated} migrated"
        )

    report = controller.report(simulation, window=3.0)
    print("\nwindowed goodput (tokens/s):")
    peak = max((rate for _, rate in report.timeline), default=1.0)
    for start, rate in report.timeline:
        bar = "#" * int(40 * rate / peak) if peak > 0 else ""
        marker = " <- failure" if start <= FAIL_AT < start + 3.0 else ""
        print(f"  {start:5.0f}s {rate:7.1f} {bar}{marker}")

    print(f"\n{report.summary()}")
    print(f"time to recovery: {report.time_to_recovery:.0f}s")
    print(f"serving: {metrics.summary()}")


if __name__ == "__main__":
    main()
