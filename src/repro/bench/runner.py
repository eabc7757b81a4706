"""Planner/scheduler/simulator glue for the paper's experiments.

Factories resolve the paper's method names ("helix", "swarm", "sp",
"sp+", "petals" for placement; "helix", "swarm", "random",
"shortest-queue", "fixed" for scheduling) and ``run_offline`` /
``run_online`` reproduce the two serving settings of §6.2:

* offline — all requests available immediately, throughput-oriented;
* online — diurnal Poisson arrivals averaging 75% of the placement's
  peak throughput, latency-oriented.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.profiler import Profiler
from repro.core.errors import ReproError
from repro.models.specs import ModelSpec
from repro.placement.base import PlannerResult
from repro.placement.helix_milp import HelixMilpPlanner
from repro.placement.petals import PetalsPlanner
from repro.placement.separate import SeparatePipelinesPlanner
from repro.placement.swarm import SwarmPlanner
from repro.scheduling.base import Scheduler
from repro.scheduling.baselines import (
    FixedPipelineScheduler,
    RandomScheduler,
    ShortestQueueScheduler,
    SwarmScheduler,
)
from repro.scheduling.helix import HelixScheduler
from repro.sim.metrics import ServingMetrics
from repro.sim.request import Request
from repro.sim.simulator import Simulation
from repro.trace.arrival import (
    diurnal_arrivals,
    offline_arrivals,
    rate_for_utilization,
)

PLACEMENT_METHODS = ("helix", "swarm", "petals", "sp", "sp+")
SCHEDULER_METHODS = ("helix", "swarm", "random", "shortest-queue", "fixed")


@dataclass
class ExperimentResult:
    """One (placement, scheduler, setting) serving run."""

    placement_method: str
    scheduler_method: str
    setting: str
    metrics: ServingMetrics
    planner: PlannerResult


def make_planner(
    method: str,
    cluster: Cluster,
    model: ModelSpec,
    profiler: Profiler | None = None,
    **kwargs,
):
    """Build a placement planner by paper name."""
    if method == "helix":
        return HelixMilpPlanner(cluster, model, profiler, **kwargs)
    if method == "swarm":
        return SwarmPlanner(cluster, model, profiler, **kwargs)
    if method == "petals":
        return PetalsPlanner(cluster, model, profiler, **kwargs)
    if method == "sp":
        return SeparatePipelinesPlanner(cluster, model, profiler, **kwargs)
    if method == "sp+":
        return SeparatePipelinesPlanner(
            cluster, model, profiler, include_mixed_pipeline=True, **kwargs
        )
    raise ReproError(
        f"unknown placement method {method!r}; choose from {PLACEMENT_METHODS}"
    )


def make_scheduler(
    method: str,
    cluster: Cluster,
    model: ModelSpec,
    planner_result: PlannerResult,
    profiler: Profiler | None = None,
    seed: int = 0,
    **kwargs,
) -> Scheduler:
    """Build a scheduler by paper name, wired to a planner's output."""
    common = dict(
        cluster=cluster,
        model=model,
        placement=planner_result.placement,
        profiler=profiler,
        **kwargs,
    )
    if method == "helix":
        return HelixScheduler(flow=planner_result.flow, **common)
    if method == "swarm":
        return SwarmScheduler(seed=seed, **common)
    if method == "random":
        return RandomScheduler(seed=seed, **common)
    if method == "shortest-queue":
        return ShortestQueueScheduler(**common)
    if method == "fixed":
        if planner_result.pipelines is None:
            raise ReproError(
                "fixed-pipeline scheduling needs a planner that produces "
                "pipelines (sp / sp+)"
            )
        return FixedPipelineScheduler(pipelines=planner_result.pipelines, **common)
    raise ReproError(
        f"unknown scheduler {method!r}; choose from {SCHEDULER_METHODS}"
    )


def run_serving(
    cluster: Cluster,
    model: ModelSpec,
    planner_result: PlannerResult,
    scheduler_method: str,
    requests: list[Request],
    setting: str,
    profiler: Profiler | None = None,
    max_time: float = 900.0,
    warmup: float = 30.0,
    max_batch_tokens: int | None = 16384,
    seed: int = 0,
    placement_method: str = "?",
) -> ExperimentResult:
    """Run one serving simulation and collect metrics."""
    scheduler = make_scheduler(
        scheduler_method, cluster, model, planner_result, profiler, seed=seed
    )
    simulation = Simulation(
        cluster=cluster,
        model=model,
        placement=planner_result.placement,
        scheduler=scheduler,
        requests=requests,
        profiler=profiler,
        max_batch_tokens=max_batch_tokens,
        max_time=max_time,
        warmup=warmup,
    )
    metrics = simulation.run()
    return ExperimentResult(
        placement_method=placement_method,
        scheduler_method=scheduler_method,
        setting=setting,
        metrics=metrics,
        planner=planner_result,
    )


def run_offline(
    cluster: Cluster,
    model: ModelSpec,
    planner_result: PlannerResult,
    scheduler_method: str,
    requests: list[Request],
    **kwargs,
) -> ExperimentResult:
    """Offline serving: the full trace is available at time zero (§6.2)."""
    return run_serving(
        cluster,
        model,
        planner_result,
        scheduler_method,
        offline_arrivals(requests),
        setting="offline",
        **kwargs,
    )


def run_online(
    cluster: Cluster,
    model: ModelSpec,
    planner_result: PlannerResult,
    scheduler_method: str,
    requests: list[Request],
    utilization: float = 0.75,
    **kwargs,
) -> ExperimentResult:
    """Online serving: diurnal arrivals (seed 1) at 75% of peak throughput (§6.2).

    The peak used for rate scaling is the placement's max flow, matching
    the paper's per-method normalization ("75% of the cluster's peak
    throughput").
    """
    rate = rate_for_utilization(
        planner_result.max_throughput, requests, utilization
    )
    stamped = diurnal_arrivals(requests, mean_rate=rate, seed=1)
    return run_serving(
        cluster,
        model,
        planner_result,
        scheduler_method,
        stamped,
        setting="online",
        **kwargs,
    )
