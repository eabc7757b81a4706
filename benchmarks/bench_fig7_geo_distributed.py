"""Fig. 7: geo-distributed serving — Helix vs Swarm vs SP.

Paper shape (same 24 GPUs split over 3 regions, 100 Mb/s / 50 ms between):
every method slows down relative to the single cluster; Helix still beats
Swarm by ~2.3-2.4x (30B) and ~1.9-2.0x (70B) and SP by ~1.6-1.8x on 70B,
and Helix's 70B placement uses a *shallower* pipeline than its single-
cluster one to dodge the slow links.
"""

import pytest

from benchmarks.conftest import serve
from repro.bench.tables import format_table

METHODS = ("helix", "swarm", "sp")


@pytest.mark.parametrize("model_name", ["llama-30b", "llama-70b"])
def test_fig7_geo_distributed(benchmark, planner_cache, bench_trace, report, model_name):
    results = {}
    for setting in ("offline", "online"):
        for method in METHODS:
            results[(setting, method)] = serve(
                planner_cache, "geo-24", model_name, method, bench_trace,
                online=setting == "online",
            )

    benchmark.pedantic(
        lambda: serve(planner_cache, "geo-24", model_name, "helix", bench_trace),
        rounds=1, iterations=1,
    )

    rows = []
    for (setting, method), m in results.items():
        rows.append(
            [setting, method, round(m.decode_throughput, 1),
             round(m.prompt_latency.p50, 2), round(m.decode_latency.p50, 3),
             round(m.avg_pipeline_depth, 1)]
        )
    text = format_table(
        ["setting", "method", "decode_tok_s", "prompt_p50_s", "decode_p50_s",
         "avg_depth"],
        rows,
    )

    helix = results[("offline", "helix")].decode_throughput
    swarm = results[("offline", "swarm")].decode_throughput
    assert helix > swarm, "Helix must out-serve Swarm in geo-distributed"
    text += f"\noffline helix/swarm = {helix / swarm:.2f}x (paper ~1.9-2.4x)"

    if model_name == "llama-70b":
        # Paper: Helix reduces pipeline depth vs Swarm's even partition
        # (28% shallower) to avoid slow cross-region hops.
        helix_depth = results[("offline", "helix")].avg_pipeline_depth
        swarm_depth = results[("offline", "swarm")].avg_pipeline_depth
        assert helix_depth < swarm_depth
        text += (
            f"\nhelix depth {helix_depth:.1f} vs swarm depth {swarm_depth:.1f}"
            " (paper: Helix 28% shallower)"
        )
    report(f"fig7_geo_distributed_{model_name}", text)
