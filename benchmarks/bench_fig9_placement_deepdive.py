"""Fig. 9: model-placement deep dive — isolate the placement's effect.

Every method's placement is served with *Helix's* scheduler (the paper
does exactly this to isolate placement quality). Paper shape, offline
LLaMA-70B: Helix's placement beats Petals' by 1.23x / 1.49x and Swarm's by
2.10x / 2.38x on the single / geo-distributed clusters, and Helix's
placement leaves almost no node under-utilized (Fig. 9b).
"""

import pytest

from benchmarks.conftest import serve
from repro.bench.tables import format_table

PLACEMENTS = ("helix", "petals", "swarm")


@pytest.mark.parametrize("cluster_name", ["single-24", "geo-24"])
def test_fig9_placement_deepdive(benchmark, planner_cache, bench_trace, report, cluster_name):
    def run(method):
        return serve(
            planner_cache, cluster_name, "llama-70b", method, bench_trace,
            scheduler="helix",
        )

    results = {method: run(method) for method in PLACEMENTS}
    benchmark.pedantic(lambda: run("helix"), rounds=1, iterations=1)
    plans = {
        method: planner_cache.plan(cluster_name, "llama-70b", method)
        for method in PLACEMENTS
    }

    rows = []
    for method, m in results.items():
        rows.append(
            [method, round(m.decode_throughput, 1),
             round(plans[method].max_throughput, 1),
             round(m.avg_pipeline_depth, 1)]
        )
    text = format_table(
        ["placement", "decode_tok_s", "maxflow_tok_s", "avg_depth"], rows
    )

    helix = results["helix"].decode_throughput
    swarm = results["swarm"].decode_throughput
    petals = results["petals"].decode_throughput
    assert helix > swarm, "Helix placement must beat Swarm's"
    assert helix >= petals * 0.95, "Helix placement must match or beat Petals'"
    # The placement-level max-flow ordering must match too.
    assert (
        plans["helix"].max_throughput >= plans["petals"].max_throughput - 1e-6
    )
    text += (
        f"\nhelix/petals {helix / petals:.2f}x (paper 1.23x single, 1.49x geo); "
        f"helix/swarm {helix / swarm:.2f}x (paper 2.10x single, 2.38x geo)"
    )
    # Fig. 9b companion: per-node layer counts of the Helix placement.
    placement = plans["helix"].placement
    layers = {
        nid: placement.interval(nid).num_layers for nid in placement.used_nodes
    }
    text += "\nhelix layers/node: " + " ".join(
        f"{nid}:{count}" for nid, count in sorted(layers.items())
    )
    report(f"fig9_placement_deepdive_{cluster_name}", text)
