"""Fig. 10: request-scheduling deep dive — isolate the scheduler's effect.

All schedulers run on *Helix's* placement (the paper does the same).
Paper shape, offline LLaMA-70B: Helix's IWRR-over-max-flow scheduling
beats Swarm's throughput-proportional routing by ~30%/22%, random by
~29%/15% (single/geo), and shortest-queue-first by ~19% (geo); the
baselines also build up queueing on the slow links (the Fig. 10b
congestion case study).
"""

import pytest

from benchmarks.conftest import serve
from repro.bench.tables import format_table

SCHEDULERS = ("helix", "swarm", "random", "shortest-queue")


@pytest.mark.parametrize("cluster_name", ["single-24", "geo-24"])
def test_fig10_scheduling_deepdive(
    benchmark, planner_cache, bench_trace, report, cluster_name
):
    def run(scheduler):
        return serve(
            planner_cache, cluster_name, "llama-70b", "helix", bench_trace,
            scheduler=scheduler,
        )

    results = {scheduler: run(scheduler) for scheduler in SCHEDULERS}
    benchmark.pedantic(lambda: run("helix"), rounds=1, iterations=1)

    rows = []
    for scheduler, m in results.items():
        rows.append(
            [scheduler, round(m.decode_throughput, 1),
             round(m.prompt_latency.p50, 2), m.requests_finished]
        )
    text = format_table(
        ["scheduler", "decode_tok_s", "prompt_p50_s", "finished"], rows
    )

    helix = results["helix"].decode_throughput
    for baseline in ("swarm", "random"):
        other = results[baseline].decode_throughput
        assert helix >= other * 0.98, (
            f"Helix scheduling should at least match {baseline} "
            f"({helix:.1f} vs {other:.1f})"
        )
    ratios = ", ".join(
        f"helix/{b} {helix / results[b].decode_throughput:.2f}x"
        for b in ("swarm", "random", "shortest-queue")
    )
    text += f"\n{ratios} (paper: 1.30x/1.29x single, 1.22x/1.15x/1.19x geo)"
    report(f"fig10_scheduling_deepdive_{cluster_name}", text)
