"""§6.3 fidelity companion: simulator throughput vs the max-flow bound.

The paper validates its simulator against the hardware prototype (<5%
error); we have no hardware, so the analogous internal-consistency check is
that simulated *total token* throughput approaches — and never exceeds —
the placement's max-flow bound when the cluster is saturated. Decode-only
throughput is then the decode share of that bound (the flow counts prompt
and decode tokens alike).
"""

from benchmarks.conftest import serve
from repro.bench.tables import format_table
from repro.trace import AzureTraceConfig, synthesize_azure_trace


def saturation_run(planner_cache):
    trace = synthesize_azure_trace(
        AzureTraceConfig(num_requests=600, seed=11, scale=0.25)
    )
    metrics = serve(
        planner_cache, "single-24", "llama-70b", "petals", trace,
        max_time=1200.0,
    )
    return metrics, trace


def test_fidelity_maxflow_vs_sim(benchmark, planner_cache, report):
    metrics, trace = benchmark.pedantic(
        lambda: saturation_run(planner_cache), rounds=1, iterations=1
    )
    bound = planner_cache.plan("single-24", "llama-70b", "petals").max_throughput

    total_tokens = sum(r.total_tokens for r in trace)
    decode_share = sum(r.output_len for r in trace) / total_tokens
    decode_bound = bound * decode_share

    efficiency = metrics.decode_throughput / decode_bound
    rows = [
        ["max-flow bound (all tokens)", round(bound, 1)],
        ["decode share of trace", round(decode_share, 3)],
        ["decode bound", round(decode_bound, 1)],
        ["simulated decode throughput", round(metrics.decode_throughput, 1)],
        ["efficiency vs bound", round(efficiency, 3)],
        ["kv overflow events", metrics.kv_overflow_events],
    ]
    # Written before the checks, so the artifact shows a failing run too.
    report(
        "fidelity_maxflow_vs_sim",
        format_table(["quantity", "value"], rows),
    )

    # Simulated decode throughput must stay under the flow bound and reach
    # a substantial fraction of it at saturation.
    assert metrics.decode_throughput <= decode_bound * 1.05
    assert efficiency > 0.4, f"simulator far from flow bound: {efficiency:.2f}"
