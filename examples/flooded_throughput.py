"""Flood fig12-small with 10,000 synthetic-Azure requests, end to end.

Plan (Helix MILP) -> simulate -> report. The trace
is a synthetic-Azure offline flood — every request is available at t=0 and
the cluster serves at full KV-bounded concurrency, the ROADMAP's
"heavy traffic from millions of users" regime scaled to one example. On
the overhauled engine the half-million-token serving simulation itself
runs in a few seconds:

    PYTHONPATH=src python examples/flooded_throughput.py
"""

import time

from repro import (
    AzureTraceConfig,
    HelixMilpPlanner,
    HelixScheduler,
    LLAMA_30B,
    Profiler,
    Simulation,
    small_cluster_fig12,
    synthesize_azure_trace,
)
from repro.bench import congestion_report
from repro.trace import offline_arrivals

NUM_REQUESTS = 10_000


def main() -> None:
    cluster = small_cluster_fig12()
    model = LLAMA_30B
    # Full-size KV so per-node concurrency matches the unscaled system.
    profiler = Profiler(kv_capacity_scale=1.0)
    print(f"cluster: {cluster.describe()}")
    print(f"model:   {model.name} ({model.num_layers} layers)")

    # 1. Plan the placement by maximizing the cluster's max flow.
    start = time.perf_counter()
    planner = HelixMilpPlanner(
        cluster, model, profiler, time_limit=8.0, mip_rel_gap=0.05
    )
    result = planner.plan()
    print(
        f"\nplanned in {time.perf_counter() - start:.1f}s "
        f"(max flow {result.max_throughput:.0f} tokens/s):"
    )
    print(result.placement.describe())

    # 2. A 10k-request synthetic-Azure flood: all available immediately.
    trace = offline_arrivals(
        synthesize_azure_trace(
            AzureTraceConfig(num_requests=NUM_REQUESTS, seed=0, scale=0.25)
        )
    )
    total_tokens = sum(r.output_len for r in trace)
    print(f"\ntrace: {len(trace):,} requests, {total_tokens:,} output tokens")

    # 3. Serve the flood through the simulation engine.
    scheduler = HelixScheduler(
        cluster, model, result.placement, profiler, flow=result.flow,
        expected_output_len=total_tokens / len(trace),
    )
    simulation = Simulation(
        cluster, model, result.placement, scheduler, trace,
        profiler=profiler, max_batch_tokens=16384, max_time=1e9, seed=0,
    )
    start = time.perf_counter()
    metrics = simulation.run()
    wall = time.perf_counter() - start

    # 4. Report: serving metrics plus the engine's own telemetry.
    generated = sum(r.tokens_generated for r in simulation.records)
    stats = simulation.engine_stats
    print(f"\nsimulated {simulation.now:,.0f}s of serving in {wall:.1f}s wall")
    print(f"  {generated / wall:,.0f} simulated tokens per wall-second")
    print(f"  {stats['events_popped']:,} events popped "
          f"({stats['events_popped'] / max(1, generated):.2f} per token)")
    print(f"\nserving: {metrics.summary()}")
    print("top congested links:")
    for row in congestion_report(simulation, top=3):
        print(f"  {row.src} -> {row.dst}: mean queueing "
              f"{row.mean_queueing_delay * 1000:.1f} ms")


if __name__ == "__main__":
    main()
