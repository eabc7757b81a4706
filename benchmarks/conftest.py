"""Shared infrastructure for the paper-reproduction benchmarks.

Every module regenerates one table or figure of the paper. Serving runs use
a length-scaled trace (scale 0.25) so the pure-Python simulator finishes in
seconds per cell; scaling input and output lengths together preserves the
prompt/decode token ratio, which is what drives every relative comparison
the paper makes. Planner results are cached per (cluster, model, method)
for the whole benchmark session, mirroring the paper's "model placement
runs once per cluster" design.

Every serving cell goes through :func:`serve`: one
:class:`~repro.bench.runner.RunSpec` with the shared ``BENCH_PROFILER`` (the
one the plans were made with) and a KV reserve of the scaled trace's mean
output per request.

Results are printed AND appended to ``benchmarks/results/<figure>.txt`` so
``pytest benchmarks/ --benchmark-only`` leaves reviewable artifacts.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.runner import RunSpec, make_planner, make_simulation
from repro.cluster import (
    Profiler,
    geo_distributed_24,
    high_heterogeneity_42,
    single_cluster_24,
    small_cluster_fig12,
)
from repro.models.specs import LLAMA_30B, LLAMA_70B
from repro.trace import (
    AzureTraceConfig,
    diurnal_arrivals,
    offline_arrivals,
    rate_for_utilization,
    synthesize_azure_trace,
)
from repro.trace.azure import AZURE_MEAN_OUTPUT

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

CLUSTERS = {
    "single-24": single_cluster_24,
    "geo-24": geo_distributed_24,
    "hetero-42": high_heterogeneity_42,
    "small-10": small_cluster_fig12,
}

MODELS = {"llama-30b": LLAMA_30B, "llama-70b": LLAMA_70B}

#: Serving-run defaults shared by all figure benchmarks.
TRACE_SCALE = 0.25
TRACE_REQUESTS = 240
SIM_MAX_TIME = 600.0
SIM_WARMUP = 30.0

#: Shared profiler. KV capacity scales with the trace length scale so that
#: per-node request concurrency — what KV pressure actually limits — matches
#: the full-scale system (see module docstring).
BENCH_PROFILER = Profiler(kv_capacity_scale=TRACE_SCALE)

#: The KV output reserve per request: the scaled trace's mean output length
#: (``bench/workloads`` reserves the same).
EXPECTED_OUTPUT_LEN = AZURE_MEAN_OUTPUT * TRACE_SCALE

#: Online serving offers 75% of the placement's max flow (§6.2).
ONLINE_UTILIZATION = 0.75

#: The scheduler each placement method serves with end to end.
SCHEDULER_OF = {
    "helix": "helix", "swarm": "swarm", "petals": "helix",
    "sp": "fixed", "sp+": "fixed",
}

#: Helix planner budgets by cluster size (seconds).
HELIX_BUDGETS = {
    "single-24": dict(prune_degree=6, time_limit=20.0, mip_rel_gap=0.03),
    "geo-24": dict(prune_degree=6, time_limit=20.0, mip_rel_gap=0.03),
    "hetero-42": dict(prune_degree=6, time_limit=25.0, mip_rel_gap=0.03),
    "small-10": dict(time_limit=30.0, mip_rel_gap=0.02),
}


class PlannerCache:
    """Session-scoped cache of planner results."""

    def __init__(self) -> None:
        self._clusters = {}
        self._results = {}

    def cluster(self, name: str):
        if name not in self._clusters:
            self._clusters[name] = CLUSTERS[name]()
        return self._clusters[name]

    def plan(self, cluster_name: str, model_name: str, method: str):
        key = (cluster_name, model_name, method)
        if key not in self._results:
            cluster = self.cluster(cluster_name)
            model = MODELS[model_name]
            kwargs = {}
            if method == "helix":
                kwargs = dict(HELIX_BUDGETS[cluster_name])
            planner = make_planner(method, cluster, model, BENCH_PROFILER, **kwargs)
            self._results[key] = planner.plan()
        return self._results[key]


def serve(
    planner_cache, cluster_name, model_name, method, trace, *,
    online=False, scheduler=None, max_time=SIM_MAX_TIME,
):
    """Serve ``trace`` on the cached plan of one figure cell; returns the
    run's metrics.

    Offline, every request arrives at t=0; online, arrivals are diurnal
    (seed 1) at ``ONLINE_UTILIZATION`` of the plan's max flow (§6.2).
    ``scheduler`` defaults to the placement method's own.
    """
    planner_result = planner_cache.plan(cluster_name, model_name, method)
    if online:
        rate = rate_for_utilization(
            planner_result.max_throughput, trace, ONLINE_UTILIZATION
        )
        requests = diurnal_arrivals(trace, mean_rate=rate, seed=1)
    else:
        requests = offline_arrivals(trace)
    return make_simulation(RunSpec(
        cluster=planner_cache.cluster(cluster_name),
        model=MODELS[model_name],
        planner_result=planner_result,
        scheduler_method=scheduler or SCHEDULER_OF[method],
        requests=requests,
        profiler=BENCH_PROFILER,
        expected_output_len=EXPECTED_OUTPUT_LEN,
        max_time=max_time,
        warmup=SIM_WARMUP,
    )).run()


@pytest.fixture(scope="session")
def planner_cache() -> PlannerCache:
    return PlannerCache()


@pytest.fixture(scope="session")
def bench_trace():
    """The shared, scaled serving trace."""
    return synthesize_azure_trace(
        AzureTraceConfig(num_requests=TRACE_REQUESTS, seed=7, scale=TRACE_SCALE)
    )


@pytest.fixture(scope="session")
def report():
    """Append result blocks to per-figure files under benchmarks/results."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def write(figure: str, text: str) -> None:
        path = RESULTS_DIR / f"{figure}.txt"
        path.write_text(text + "\n")
        print(f"\n[{figure}]\n{text}")

    return write
