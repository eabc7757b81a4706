"""Planner/scheduler/simulator glue for the paper's experiments.

Factories resolve the paper's method names ("helix", "swarm", "sp",
"sp+", "petals" for placement; "helix", "swarm", "random",
"shortest-queue", "fixed" for scheduling). A :class:`RunSpec` states one
serving run in full — the plan, the scheduler, the requests, the one
profiler both sides share and the KV reserve the scheduler charges per
request — and :func:`make_simulation` wires it into an un-run
:class:`~repro.sim.simulator.Simulation`, so callers can attach their
hooks before ``.run()``.

The paper's two serving settings (§6.2) are request stampings:

* offline — ``offline_arrivals(requests)``: everything at time zero;
* online — ``diurnal_arrivals(requests, mean_rate=rate, seed=1)`` with
  ``rate = rate_for_utilization(plan.max_throughput, requests, 0.75)``:
  diurnal Poisson arrivals averaging 75% of the placement's max flow.
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
from repro.sim.request import Request
from repro.sim.simulator import Simulation

PLACEMENT_METHODS = ("helix", "swarm", "petals", "sp", "sp+")
SCHEDULER_METHODS = ("helix", "swarm", "random", "shortest-queue", "fixed")


@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """One serving run, stated in full.

    ``profiler`` and ``expected_output_len`` have no default: the profiler
    is the one performance model the scheduler and the simulator share
    (plan with the same one), and ``expected_output_len`` is the output
    reserve the scheduler's KV estimator charges every request, which
    should match the trace's mean output length.

    Attributes:
        cluster: The serving cluster.
        model: The served model.
        planner_result: The placement and its max-flow solution.
        scheduler_method: A name from :data:`SCHEDULER_METHODS`.
        requests: The arrival-stamped trace.
        profiler: The performance model of scheduler and simulator.
        expected_output_len: The KV output reserve per request, in tokens.
        seed: Seeds the randomized schedulers and the run's link faults.
        max_time, warmup, max_batch_tokens, controller, policy,
        debug_validate, residency, tenancy: The
            :class:`~repro.sim.simulator.Simulation` options.
    """

    cluster: Cluster
    model: ModelSpec
    planner_result: PlannerResult
    scheduler_method: str
    requests: list[Request]
    profiler: Profiler
    expected_output_len: float
    seed: int = 0
    max_time: float = 3600.0
    warmup: float = 0.0
    max_batch_tokens: int | None = 16384
    controller: object = None
    policy: object = None
    debug_validate: bool = False
    residency: object = None
    tenancy: object = None


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


def make_simulation(spec: RunSpec) -> Simulation:
    """Build the scheduler and the un-run simulation a spec states."""
    scheduler = make_scheduler(
        spec.scheduler_method,
        spec.cluster,
        spec.model,
        spec.planner_result,
        spec.profiler,
        seed=spec.seed,
        expected_output_len=spec.expected_output_len,
    )
    return Simulation(
        cluster=spec.cluster,
        model=spec.model,
        placement=spec.planner_result.placement,
        scheduler=scheduler,
        requests=spec.requests,
        profiler=spec.profiler,
        max_batch_tokens=spec.max_batch_tokens,
        max_time=spec.max_time,
        warmup=spec.warmup,
        seed=spec.seed,
        controller=spec.controller,
        policy=spec.policy,
        debug_validate=spec.debug_validate,
        residency=spec.residency,
        tenancy=spec.tenancy,
    )
