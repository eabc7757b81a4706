"""The benchmark's workloads, run one per child process.

Each workload drives the repository's public entry points — the
``repro.cluster`` presets, :meth:`HelixMilpPlanner.plan`,
``Simulation(...).run``, :class:`OnlineController` and
:func:`repro.testkit.verify_scenario` — with default code paths only, in
four stages: **setup** (process start, imports and inputs ready), **plan**,
**simulate** and **verify**. ``--seed`` seeds every trace, arrival, churn
and scenario draw. Arrivals are an open loop in simulated time, so latency
counts from each request's stamped arrival and the load generator can
never fall behind.

:func:`child_main` prints one JSON object: the stage times, the
end-to-end metrics (names as in ``BENCHMARK.json``), the request counts,
the correctness violations and a fingerprint of the token timelines. A
traced child also reports the per-layer metrics and writes the Chrome
trace.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from repro import (
    LLAMA_30B,
    AzureTraceConfig,
    ChurnConfig,
    HelixMilpPlanner,
    HelixScheduler,
    OnlineController,
    Profiler,
    Simulation,
    generate_scenario,
    geo_distributed_24,
    offline_arrivals,
    poisson_arrivals,
    random_churn,
    small_cluster_fig12,
    synthesize_azure_trace,
)
from repro.scenarios.generator import ALL_FAMILIES
from repro.testkit import (
    check_planner_result,
    check_simulation,
    placement_intervals,
    plan_scenario,
    verify_scenario,
)
from repro.trace.azure import AZURE_MEAN_OUTPUT

from bench.ledger import layer_metrics, percentile, top_layers
from bench.trace import Tracer

#: Request lengths are the synthetic Azure trace scaled by this factor, and
#: KV capacity is scaled alike so per-node concurrency matches full scale.
TRACE_SCALE = 0.25
#: No simulation horizon: every request runs to completion.
NO_HORIZON = 1e7
#: Online SLO: time-to-first-token p99 and time-between-tokens p99 limits.
SLO_TTFT_P99_S = 5.0
SLO_TBT_P99_S = 1.0
#: geo-online reads its latencies at this rung of the rate ladder.
GEO_READ_RATE = 2.0
#: fig12-churn arrival rate, req/s (fig12 completes about 1 req/s offline).
CHURN_RATE = 0.70


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark tier."""

    offline_requests: int
    geo_requests: int
    #: Ascending rate ladder; must contain :data:`GEO_READ_RATE`.
    geo_rates: tuple[float, ...]
    churn_requests: int
    #: Churn runs over this share of the nominal arrival span.
    churn_window: tuple[float, float]
    #: Full-size cells per scenario family (cell seeds ``0..n-1``).
    sweep_cells: int
    fig12_time_limit: float
    geo_time_limit: float


FULL = Sizes(
    offline_requests=2000,
    geo_requests=1500,
    geo_rates=(1.5, 2.0, 2.5, 3.0),
    churn_requests=1000,
    churn_window=(0.1, 0.7),
    sweep_cells=10,
    fig12_time_limit=10.0,
    geo_time_limit=20.0,
)
#: Seconds-scale sizes for the tier-1 smoke test.
SMOKE = Sizes(
    offline_requests=40,
    geo_requests=30,
    geo_rates=(1.5, 2.0),
    churn_requests=40,
    churn_window=(0.1, 0.2),
    sweep_cells=0,
    fig12_time_limit=0.1,
    geo_time_limit=0.1,
)


class Stages:
    """Wall seconds per stage; in a traced run each stage is also a span.

    Set-up counts from the child's spawn time ``t0``: interpreter start
    and imports are part of what a user waits for.
    """

    def __init__(self, t0: float, tracer: Tracer | None) -> None:
        self.t0 = t0
        self.tracer = tracer
        self.seconds = {"setup": 0.0, "plan": 0.0, "simulate": 0.0, "verify": 0.0}

    @contextmanager
    def __call__(self, stage: str):
        start = self.t0 if stage == "setup" else time.monotonic()
        tracer = self.tracer
        with tracer.span(f"bench.{stage}") if tracer else nullcontext():
            yield
        self.seconds[stage] += time.monotonic() - start


class _Serving:
    """Pooled request outcomes of one or more simulations."""

    def __init__(self) -> None:
        self.ttft: list[float] = []
        self.tbt: list[float] = []
        self.decode_tokens = 0
        self.duration = 0.0
        self.tokens = 0
        self.counts = dict.fromkeys(
            ("submitted", "finished", "shed", "lost", "unfinished"), 0
        )

    def add(self, sim, metrics, submitted: int) -> list[str]:
        """Fold one run in; returns its request-conservation violations."""
        for record in sim.records:
            if record.finished:
                self.ttft.append(record.prompt_latency)
                if not math.isnan(record.decode_latency):
                    self.tbt.append(record.decode_latency)
        self.decode_tokens += metrics.decode_tokens
        self.duration += metrics.duration
        self.tokens += sim.tokens_emitted
        in_flight = sim.in_flight_requests
        counts = self.counts
        counts["submitted"] += submitted
        counts["finished"] += metrics.requests_finished
        counts["shed"] += metrics.requests_shed
        counts["lost"] += metrics.requests_lost
        # Requests that never arrived before the horizon are unfinished too.
        counts["unfinished"] += in_flight + submitted - metrics.requests_submitted
        accounted = (
            metrics.requests_finished + metrics.requests_shed
            + metrics.requests_lost + in_flight
        )
        if accounted == metrics.requests_submitted:
            return []
        return [
            f"[request_conservation] arrived {metrics.requests_submitted} != "
            f"finished {metrics.requests_finished} + shed "
            f"{metrics.requests_shed} + lost {metrics.requests_lost} + "
            f"unfinished {in_flight}"
        ]

    @property
    def fail_frac(self) -> float:
        """(submitted - finished) / submitted."""
        submitted = self.counts["submitted"]
        return (submitted - self.counts["finished"]) / submitted

    def latencies(self) -> dict[str, float]:
        return {
            "ttft_p50_s": percentile(self.ttft, 50),
            "ttft_p99_s": percentile(self.ttft, 99),
            "tbt_p50_s": percentile(self.tbt, 50),
            "tbt_p99_s": percentile(self.tbt, 99),
        }

    def report(self) -> dict:
        """The serving half of a workload outcome; an operation is a
        request."""
        counts = self.counts
        return {
            "decode_tok_s": self.decode_tokens / self.duration,
            **self.latencies(),
            "latency_samples": len(self.tbt),
            "requests": dict(counts),
            "fail_frac": self.fail_frac,
            "attempted": counts["submitted"],
            "failed": counts["submitted"] - counts["finished"],
        }


def _timeline_digest(digest, sim) -> None:
    """Fold a simulation's token timelines into a running sha256."""
    digest.update(repr(sim.token_buckets).encode())
    for record in sim.records:
        digest.update(repr((
            record.request_id, record.first_token_time,
            record.finish_time, record.tokens_generated, record.retries,
        )).encode())


def _requests(seed: int, count: int):
    return synthesize_azure_trace(
        AzureTraceConfig(num_requests=count, seed=seed, scale=TRACE_SCALE)
    )


def _plan_fig12(cluster, profiler, sizes: Sizes):
    return HelixMilpPlanner(
        cluster, LLAMA_30B, profiler,
        time_limit=sizes.fig12_time_limit, mip_rel_gap=0.05,
    ).plan()


def _simulate(cluster, profiler, result, trace, controller=None):
    scheduler = HelixScheduler(
        cluster, LLAMA_30B, result.placement, profiler, flow=result.flow,
        expected_output_len=AZURE_MEAN_OUTPUT * TRACE_SCALE,
    )
    sim = Simulation(
        cluster, LLAMA_30B, result.placement, scheduler, trace,
        profiler=profiler, max_time=NO_HORIZON, controller=controller,
    )
    return sim, sim.run()


def _check_plan(result, cluster, profiler) -> list[str]:
    return [
        str(v) for v in check_planner_result(result, cluster, LLAMA_30B, profiler)
    ]


def _check_run(sim, metrics, result, serving: _Serving, submitted: int, digest):
    """Verify one simulation of a serving workload, where every submitted
    request must finish."""
    violations = [str(v) for v in check_simulation(sim, metrics, result.flow)]
    violations += serving.add(sim, metrics, submitted)
    if metrics.requests_finished != submitted:
        violations.append(
            f"[all_finished] {submitted - metrics.requests_finished} of "
            f"{submitted} requests did not finish"
        )
    _timeline_digest(digest, sim)
    return violations


def _serving_workload(
    stages: Stages, cluster, profiler, trace, plan, controller=None
) -> dict:
    """Plan, simulate one trace, and verify (offline and churn)."""
    with stages("plan"):
        result = plan()
    with stages("verify"):
        violations = _check_plan(result, cluster, profiler)
    with stages("simulate"):
        sim, metrics = _simulate(cluster, profiler, result, trace, controller)
    serving = _Serving()
    digest = hashlib.sha256()
    with stages("verify"):
        violations += _check_run(sim, metrics, result, serving, len(trace), digest)
    return {
        "plan_tok_s": result.max_throughput,
        "sim_tokens": serving.tokens,
        "sim_seconds": stages.seconds["simulate"],
        **serving.report(),
        "violations": violations,
        "fingerprint": digest.hexdigest(),
    }


def fig12_offline(seed: int, sizes: Sizes, stages: Stages, tracer) -> dict:
    """Fig. 12 cluster, LLaMA-30B, every request available at t=0."""
    with stages("setup"):
        cluster = small_cluster_fig12()
        profiler = Profiler(kv_capacity_scale=TRACE_SCALE)
        trace = offline_arrivals(_requests(seed, sizes.offline_requests))
    return _serving_workload(
        stages, cluster, profiler, trace,
        lambda: _plan_fig12(cluster, profiler, sizes),
    )


def fig12_churn(seed: int, sizes: Sizes, stages: Stages, tracer) -> dict:
    """The fig12 plan under seeded node churn and live replanning.

    ``random_churn`` draws failures over 10-70% of the nominal arrival
    span (MTTF 10% of the span, MTTR 4%, at most one node down at a
    time); the :class:`OnlineController` keeps its defaults.
    """
    with stages("setup"):
        cluster = small_cluster_fig12()
        profiler = Profiler(kv_capacity_scale=TRACE_SCALE)
        trace = poisson_arrivals(
            _requests(seed, sizes.churn_requests), CHURN_RATE, seed=seed
        )
        span = len(trace) / CHURN_RATE
        first, last = sizes.churn_window
        events = random_churn(
            cluster.node_ids,
            ChurnConfig(
                duration=(last - first) * span,
                mean_time_to_failure=0.1 * span,
                mean_time_to_recovery=0.04 * span,
                start=first * span,
            ),
            seed=seed,
        )
        controller = OnlineController(LLAMA_30B, events=events, profiler=profiler)
    outcome = _serving_workload(
        stages, cluster, profiler, trace,
        lambda: _plan_fig12(cluster, profiler, sizes), controller,
    )
    outcome["replan_walls_s"] = [
        record.wall_seconds for record in controller.applied_replans
    ]
    return outcome


def geo_online(seed: int, sizes: Sizes, stages: Stages, tracer) -> dict:
    """geo_distributed_24 under a ladder of Poisson arrival rates.

    Every rung replays the same length sample and arrival draws (only the
    rate differs), so rungs differ in load alone. Latencies are read at
    :data:`GEO_READ_RATE`; the SLO rate is the highest rung that, with
    every lower rung, meets both p99 limits with every request finished.
    """
    with stages("setup"):
        cluster = geo_distributed_24()
        profiler = Profiler(kv_capacity_scale=TRACE_SCALE)
        requests = _requests(seed, sizes.geo_requests)
        traces = [
            (rate, poisson_arrivals(requests, rate, seed=seed))
            for rate in sizes.geo_rates
        ]
    with stages("plan"):
        result = HelixMilpPlanner(
            cluster, LLAMA_30B, profiler, prune_degree=6,
            time_limit=sizes.geo_time_limit, mip_rel_gap=0.03,
        ).plan()
    with stages("verify"):
        violations = _check_plan(result, cluster, profiler)
    digest = hashlib.sha256()
    ladder = []
    sim_tokens = attempted = failed = 0
    slo_rate = 0.0
    below_met = True
    for rate, trace in traces:
        if tracer is not None:
            tracer.context = f"rung={rate:.2f}"
        with stages("simulate"):
            sim, metrics = _simulate(cluster, profiler, result, trace)
        serving = _Serving()
        with stages("verify"):
            violations += _check_run(
                sim, metrics, result, serving, len(trace), digest
            )
        sim_tokens += serving.tokens
        report = serving.report()
        attempted += report["attempted"]
        failed += report["failed"]
        meets_slo = (
            report["ttft_p99_s"] <= SLO_TTFT_P99_S
            and report["tbt_p99_s"] <= SLO_TBT_P99_S
            and report["fail_frac"] == 0
        )
        below_met = below_met and meets_slo
        if below_met:
            slo_rate = rate
        ladder.append({"rate": rate, **report, "meets_slo": meets_slo})
        if rate == GEO_READ_RATE:
            read = report
    return {
        "plan_tok_s": result.max_throughput,
        "sim_tokens": sim_tokens,
        "sim_seconds": stages.seconds["simulate"],
        **read,
        # Every rung's requests were attempted, not just the read-out's.
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "fingerprint": digest.hexdigest(),
        "ladder": ladder,
        "slo_rate_rps": slo_rate,
    }


def scenario_sweep(seed: int, sizes: Sizes, stages: Stages, tracer) -> dict:
    """Every scenario family through ``verify_scenario``.

    Cells are the fixed full-size matrix (each family at cell seeds
    ``0..sweep_cells-1``) plus one smoke-size cell per family at cell seed
    ``--seed``. Heuristic planners only; no MILP. Each cell is planned
    once (timed as the plan stage) and verified with that plan: a run,
    the flow differential and a determinism replay.
    """
    cells = [
        (family, cell_seed, "full")
        for family in ALL_FAMILIES
        for cell_seed in range(sizes.sweep_cells)
    ] + [(family, seed, "smoke") for family in ALL_FAMILIES]
    with stages("setup"):
        scenarios = [generate_scenario(*cell) for cell in cells]
    with stages("plan"):
        plans = [plan_scenario(scenario) for scenario in scenarios]
    serving = _Serving()
    digest = hashlib.sha256()
    violations = []
    failed_cells = 0
    with stages("verify"):
        for (family, cell_seed, size), (method, result) in zip(cells, plans):
            if tracer is not None:
                tracer.context = f"cell={family}/{cell_seed}/{size}"
            report = verify_scenario(
                family, cell_seed, size,
                plan=(method, placement_intervals(result)),
            )
            cell_violations = [str(v) for v in report.violations]
            if report.sim is not None:
                cell_violations += serving.add(
                    report.sim, report.metrics, len(report.scenario.requests)
                )
            if cell_violations:
                failed_cells += 1
                violations += [
                    f"{family}/{cell_seed}/{size}: {v}" for v in cell_violations
                ]
            digest.update(report.fingerprint.encode())
    return {
        "plan_tok_s": sum(r.max_throughput for _, r in plans) / len(plans),
        # verify_scenario simulates every cell twice (the run and its
        # determinism replay, which the fingerprint check proves equal).
        "sim_tokens": 2 * serving.tokens,
        "sim_seconds": stages.seconds["verify"],
        **serving.report(),
        # An operation of the sweep is a verified cell.
        "attempted": len(cells),
        "failed": failed_cells,
        "violations": violations,
        "fingerprint": digest.hexdigest(),
    }


WORKLOADS = {
    "fig12-offline": fig12_offline,
    "geo-online": geo_online,
    "fig12-churn": fig12_churn,
    "scenario-sweep": scenario_sweep,
}


def run_workload(
    name: str, seed: int, sizes: Sizes, t0: float, tracer: Tracer | None = None
) -> dict:
    """Run one workload and derive its end-to-end metrics."""
    stages = Stages(t0, tracer)
    outcome = WORKLOADS[name](seed, sizes, stages, tracer)
    e2e_s = time.monotonic() - t0
    outcome["stages"] = stages.seconds
    outcome["e2e"] = {
        "setup_s": stages.seconds["setup"],
        "plan_s": stages.seconds["plan"],
        "sim_tok_per_s": outcome["sim_tokens"] / outcome["sim_seconds"],
        "e2e_s": e2e_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "plan_tok_s": outcome["plan_tok_s"],
        "decode_tok_s": outcome["decode_tok_s"],
        "ttft_p50_s": outcome["ttft_p50_s"],
        "ttft_p99_s": outcome["ttft_p99_s"],
        "tbt_p50_s": outcome["tbt_p50_s"],
        "tbt_p99_s": outcome["tbt_p99_s"],
    }
    return outcome


def child_main(
    name: str, seed: int, smoke: bool, t0: float, trace_path: str | None
) -> int:
    """One repeat: run, then print the outcome as one JSON line."""
    sizes = SMOKE if smoke else FULL
    if trace_path is None:
        outcome = run_workload(name, seed, sizes, t0)
    else:
        with Tracer() as tracer:
            with tracer.span("bench.workload"):
                outcome = run_workload(name, seed, sizes, t0, tracer)
        outcome["layers"] = layer_metrics(tracer, outcome)
        outcome["ledger"] = top_layers(tracer)
        outcome["missing_entry_points"] = tracer.missing
        tracer.write_chrome(trace_path, f"{name} seed={seed}")
    print(json.dumps(outcome))
    return 0
