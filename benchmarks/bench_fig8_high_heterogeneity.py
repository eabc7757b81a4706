"""Fig. 8: the 42-node, 7-GPU-type cluster — Helix vs Swarm vs SP vs SP+.

Paper shape: V100 / T4 / 2xT4 nodes cannot form pipelines of their own, so
plain SP strands them and loses 2.9-3.3x to Helix; SP+ (one extra mixed
pipeline) recovers part of it (still 2.2-2.5x behind); Swarm is 1.4-1.5x
behind. LLaMA-70B only.
"""

from benchmarks.conftest import serve
from repro.bench.tables import format_table

METHODS = ("helix", "swarm", "sp", "sp+")


def test_fig8_high_heterogeneity(benchmark, planner_cache, bench_trace, report):
    results = {}
    for setting in ("offline", "online"):
        for method in METHODS:
            results[(setting, method)] = serve(
                planner_cache, "hetero-42", "llama-70b", method, bench_trace,
                online=setting == "online",
            )

    benchmark.pedantic(
        lambda: serve(planner_cache, "hetero-42", "llama-70b", "helix", bench_trace),
        rounds=1, iterations=1,
    )

    def used_nodes(method):
        plan = planner_cache.plan("hetero-42", "llama-70b", method)
        return len(plan.placement.used_nodes)

    rows = []
    for (setting, method), m in results.items():
        used = used_nodes(method)
        rows.append(
            [setting, method, round(m.decode_throughput, 1),
             round(m.prompt_latency.p50, 2), round(m.decode_latency.p50, 3),
             used]
        )
    text = format_table(
        ["setting", "method", "decode_tok_s", "prompt_p50_s", "decode_p50_s",
         "nodes_used"],
        rows,
    )

    off = {m: results[("offline", m)].decode_throughput for m in METHODS}
    # Paper ordering: Helix > SP+ > SP, Helix > Swarm, SP+ > SP.
    assert off["helix"] > off["sp"], "Helix must beat SP"
    assert off["helix"] > off["swarm"], "Helix must beat Swarm"
    assert off["sp+"] >= off["sp"], "the mixed pipeline must not hurt SP"
    # SP strands the single-type stragglers; Helix uses every node.
    assert used_nodes("helix") > used_nodes("sp")
    text += (
        f"\noffline helix/swarm {off['helix']/off['swarm']:.2f}x (paper 1.37x), "
        f"helix/sp {off['helix']/off['sp']:.2f}x (paper 2.91x), "
        f"helix/sp+ {off['helix']/off['sp+']:.2f}x (paper 2.24x)"
    )
    report("fig8_high_heterogeneity", text)
