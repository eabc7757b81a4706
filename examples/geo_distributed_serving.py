"""Geo-distributed serving: Helix vs Swarm across three regions.

Reproduces the paper's motivating scenario (§6.4): the same 24 GPUs as the
single-cluster setup, but split across three regions joined by 100 Mb/s /
50 ms links. Helix's network-aware placement and max-flow scheduling avoid
the slow links; Swarm's even partition keeps crossing them. The script
reports throughput, latency, and the most congested links of each system.

    python examples/geo_distributed_serving.py
"""

from repro import (
    AzureTraceConfig,
    HelixMilpPlanner,
    LLAMA_70B,
    Profiler,
    Simulation,
    SwarmPlanner,
    geo_distributed_24,
    make_scheduler,
    synthesize_azure_trace,
)
from repro.bench import congestion_report
from repro.trace import offline_arrivals

TRACE_SCALE = 0.25


def serve(cluster, model, profiler, planner_result, scheduler_name, trace):
    scheduler = make_scheduler(
        scheduler_name, cluster, model, planner_result, profiler
    )
    simulation = Simulation(
        cluster, model, planner_result.placement, scheduler, trace,
        profiler=profiler, max_time=600.0, warmup=20.0,
    )
    metrics = simulation.run()
    return metrics, simulation


def main() -> None:
    cluster = geo_distributed_24()
    model = LLAMA_70B
    # KV capacity scales with the trace scale to keep per-node request
    # concurrency representative of the full-length workload.
    profiler = Profiler(kv_capacity_scale=TRACE_SCALE)
    trace = offline_arrivals(
        synthesize_azure_trace(
            AzureTraceConfig(num_requests=200, seed=1, scale=TRACE_SCALE)
        )
    )
    print(f"cluster: {cluster.describe()} over {len(cluster.regions())} regions")

    helix = HelixMilpPlanner(
        cluster, model, profiler, prune_degree=6, time_limit=20.0,
        mip_rel_gap=0.03,
    ).plan()
    swarm = SwarmPlanner(cluster, model, profiler).plan()

    for label, planner_result, scheduler_name in (
        ("helix", helix, "helix"),
        ("swarm", swarm, "swarm"),
    ):
        metrics, simulation = serve(
            cluster, model, profiler, planner_result, scheduler_name, trace
        )
        print(f"\n=== {label} ===")
        print(f"placement max flow: {planner_result.max_throughput:.0f} tok/s, "
              f"avg pipeline depth {metrics.avg_pipeline_depth:.1f}")
        print(f"serving: {metrics.summary()}")
        print("most congested links (mean queueing delay):")
        for row in congestion_report(simulation, top=3):
            print(f"  {row.src} -> {row.dst}: "
                  f"{row.mean_queueing_delay * 1000:.1f} ms")


if __name__ == "__main__":
    main()
