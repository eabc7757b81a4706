"""Placement deep dive: compare every planner's max-flow throughput.

A fast, simulation-free version of the paper's Fig. 9 study: run each
placement planner on the single 24-node cluster and report the maximum
serving throughput (max flow) of the placement it finds, its pipeline
depth, and per-node layer counts for the winner.

    python examples/placement_comparison.py
"""

from repro import (
    HelixMilpPlanner,
    LLAMA_70B,
    PetalsPlanner,
    Profiler,
    SeparatePipelinesPlanner,
    SwarmPlanner,
    single_cluster_24,
)


def main() -> None:
    cluster = single_cluster_24()
    model = LLAMA_70B
    profiler = Profiler()
    print(f"cluster: {cluster.describe()}")
    print(f"model:   {model.name}\n")

    planners = {
        "swarm": SwarmPlanner(cluster, model, profiler),
        "petals": PetalsPlanner(cluster, model, profiler),
        "separate-pipelines": SeparatePipelinesPlanner(cluster, model, profiler),
        "helix (MILP)": HelixMilpPlanner(
            cluster, model, profiler, prune_degree=6, time_limit=20.0,
            mip_rel_gap=0.03,
        ),
    }

    results = {}
    for name, planner in planners.items():
        result = planner.plan()
        results[name] = result
        print(
            f"{name:22s} max flow {result.max_throughput:8.1f} tok/s   "
            f"depth<= {result.placement.max_pipeline_depth():2d}   "
            f"planned in {result.solve_time:5.1f}s"
        )

    upper_bound = planners["helix (MILP)"].compute_upper_bound()
    print(f"\ncompute-sum upper bound (§4.5): {upper_bound:.1f} tok/s")
    print(
        "note: separate-pipelines exceeds the half-VRAM rule to serve 70B "
        "replicas at all\n(paper §6.3) — its raw max flow overstates what "
        "its KV-starved nodes sustain\nin simulation; see "
        "benchmarks/bench_fig6_single_cluster.py for the end-to-end story."
    )

    best = max(results.items(), key=lambda kv: kv[1].max_throughput)
    print(f"\nbest placement ({best[0]}):")
    print(best[1].placement.describe())


if __name__ == "__main__":
    main()
