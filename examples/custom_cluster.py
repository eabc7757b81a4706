"""Build your own heterogeneous cluster and serve a model on it.

Shows the full public API surface a downstream user touches: the GPU
catalog, the cluster builder (regions, asymmetric links), the profiler,
MILP planning, and online serving with diurnal arrivals.

    python examples/custom_cluster.py
"""

from repro import (
    AzureTraceConfig,
    Cluster,
    HelixMilpPlanner,
    LLAMA_30B,
    Profiler,
    Simulation,
    make_scheduler,
    synthesize_azure_trace,
)
from repro.cluster import A100_80G, L4, T4, V100
from repro.core.units import GBIT, MBIT
from repro.trace import diurnal_arrivals, rate_for_utilization


def build_cluster() -> Cluster:
    """Two offices: a beefy HQ and a branch full of leftover GPUs."""
    cluster = Cluster(name="two-office")
    cluster.add_node("hq-a100", A100_80G, region="hq")
    cluster.add_node("hq-l4-0", L4, region="hq")
    cluster.add_node("hq-l4-1", L4, region="hq")
    cluster.add_node("branch-v100", V100, region="branch")
    for index in range(3):
        cluster.add_node(f"branch-t4-{index}", T4, region="branch")

    hq = ["hq-a100", "hq-l4-0", "hq-l4-1"]
    branch = ["branch-v100"] + [f"branch-t4-{i}" for i in range(3)]
    cluster.connect_full_mesh(hq, 25 * GBIT, 0.0005, include_coordinator=True)
    cluster.connect_full_mesh(branch, 10 * GBIT, 0.001, include_coordinator=False)
    for a in hq:
        for b in branch:
            cluster.connect(a, b, 200 * MBIT, 0.030)
    for b in branch:
        cluster.connect("coordinator", b, 200 * MBIT, 0.030)
    cluster.validate()
    return cluster


def main() -> None:
    cluster = build_cluster()
    model = LLAMA_30B
    profiler = Profiler(kv_capacity_scale=0.25)
    print(f"cluster: {cluster.describe()}")

    planner = HelixMilpPlanner(
        cluster, model, profiler, time_limit=20.0, mip_rel_gap=0.03
    )
    result = planner.plan()
    print(f"\nplacement (max flow {result.max_throughput:.0f} tok/s):")
    print(result.placement.describe())

    # Online serving at 40% of the placement's peak, diurnal arrivals.
    # (This topology's WAN hops queue noticeably above ~50% load.)
    base = synthesize_azure_trace(
        AzureTraceConfig(num_requests=150, seed=5, scale=0.25)
    )
    rate = rate_for_utilization(result.max_throughput, base, utilization=0.4)
    trace = diurnal_arrivals(base, mean_rate=rate, seed=6)
    scheduler = make_scheduler("helix", cluster, model, result, profiler)
    metrics = Simulation(
        cluster, model, result.placement, scheduler, trace,
        profiler=profiler, max_time=900.0, warmup=20.0,
    ).run()

    print(f"\nonline serving at {rate:.2f} req/s: {metrics.summary()}")
    print(f"prompt latency p95: {metrics.prompt_latency.p95:.2f}s")


if __name__ == "__main__":
    main()
