"""Cross-layer invariants every scenario run must satisfy.

Each checker returns a list of :class:`Violation` (empty = pass) rather
than raising, so the harness can collect everything wrong with one run
and report it alongside the one-line repro command. The invariants tie
the layers together:

* flow: conservation at every vertex, flows within capacities, source
  out-flow == sink in-flow == max flow;
* placement: the planner's claimed throughput is exactly its flow
  solution's value, never exceeds the §4.5 compute-sum upper bound, and
  the placement validates against per-node VRAM bounds;
* simulation: goodput never exceeds the planned max flow, KV pools never
  go negative / over capacity (and fully drain when everything finished),
  all finished work is accounted;
* scheduling: no pipeline is ever routed through a node that is down at
  schedule time (checked live via :class:`SchedulerAuditor`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.node import COORDINATOR
from repro.flow.graph import FlowSolution
from repro.models.specs import ModelSpec
from repro.placement.base import PlannerResult
from repro.scheduling.base import Scheduler
from repro.sim.metrics import ServingMetrics
from repro.sim.simulator import Simulation

#: Relative slack for floating-point flow comparisons.
_REL_TOL = 1e-6
#: Simulated goodput may transiently exceed the planned rate inside a
#: short measurement window (a burst of queued decodes landing together),
#: so the sim-vs-plan bound gets a coarser allowance.
_GOODPUT_SLACK = 1.10


@dataclass(frozen=True)
class Violation:
    """One invariant breach.

    Attributes:
        invariant: Short machine-readable name (e.g. ``flow_conservation``).
        detail: Human-readable description with the offending numbers.
    """

    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant}] {self.detail}"


def _tol(scale: float) -> float:
    return max(1e-9, abs(scale) * _REL_TOL)


# ----------------------------------------------------------------------
# Flow-layer invariants
# ----------------------------------------------------------------------
def check_flow_solution(flow: FlowSolution) -> list[Violation]:
    """Conservation and capacity invariants of one max-flow solution."""
    violations: list[Violation] = []

    inflow: dict[str, float] = {}
    outflow: dict[str, float] = {}
    for (src, dst), value in flow.connection_flows.items():
        if value < -_tol(flow.max_flow):
            violations.append(Violation(
                "flow_nonnegative",
                f"connection {src}->{dst} carries negative flow {value}",
            ))
        outflow[src] = outflow.get(src, 0.0) + value
        inflow[dst] = inflow.get(dst, 0.0) + value

    source_out = outflow.get(COORDINATOR, 0.0)
    sink_in = inflow.get(COORDINATOR, 0.0)
    if abs(source_out - flow.max_flow) > _tol(flow.max_flow):
        violations.append(Violation(
            "flow_source_value",
            f"source out-flow {source_out} != max_flow {flow.max_flow}",
        ))
    if abs(sink_in - flow.max_flow) > _tol(flow.max_flow):
        violations.append(Violation(
            "flow_sink_value",
            f"sink in-flow {sink_in} != max_flow {flow.max_flow}",
        ))

    for node_id, through in flow.node_flows.items():
        node_in = inflow.get(node_id, 0.0)
        node_out = outflow.get(node_id, 0.0)
        if abs(node_in - node_out) > _tol(flow.max_flow):
            violations.append(Violation(
                "flow_conservation",
                f"node {node_id}: inflow {node_in} != outflow {node_out}",
            ))
        if abs(node_in - through) > _tol(flow.max_flow):
            violations.append(Violation(
                "flow_conservation",
                f"node {node_id}: inflow {node_in} != node edge flow {through}",
            ))
        capacity = flow.node_capacities.get(node_id, 0.0)
        if through > capacity + _tol(capacity):
            violations.append(Violation(
                "flow_node_capacity",
                f"node {node_id}: flow {through} exceeds capacity {capacity}",
            ))

    for key, value in flow.connection_flows.items():
        capacity = flow.connection_capacities.get(key, 0.0)
        if value > capacity + _tol(capacity):
            violations.append(Violation(
                "flow_link_capacity",
                f"connection {key[0]}->{key[1]}: flow {value} exceeds "
                f"capacity {capacity}",
            ))
    return violations


# ----------------------------------------------------------------------
# Placement-layer invariants
# ----------------------------------------------------------------------
def check_planner_result(
    result: PlannerResult,
    cluster: Cluster,
    model: ModelSpec,
    profiler=None,
    max_weight_fraction: float | None = None,
) -> list[Violation]:
    """Placement validity and throughput-bound invariants.

    Args:
        max_weight_fraction: VRAM fraction the planner was allowed to
            spend on weights. The SP baselines deliberately relax the
            profiler's half-VRAM rule (§6.3), so their placements must be
            bounded at their own fraction, not the default.
    """
    from repro.placement.swarm import SwarmPlanner  # concrete, for helpers

    violations: list[Violation] = []
    helper = SwarmPlanner(cluster, model, profiler)
    bounds = {
        nid: helper.max_layers(nid, max_weight_fraction)
        for nid in cluster.node_ids
    }
    try:
        result.placement.validate(max_layers_per_node=bounds)
    except Exception as exc:  # PlacementError subclasses ReproError
        violations.append(Violation(
            "placement_valid", f"placement fails validation: {exc}"
        ))
        return violations

    violations.extend(check_flow_solution(result.flow))

    # §4.5 compute-sum bound, at the planner's own VRAM provisioning: a
    # relaxed weight fraction packs more layers per node, which raises
    # both the placement's throughput and the bound consistently.
    upper = 0.0
    for nid in cluster.node_ids:
        k = bounds[nid]
        if k < 1:
            continue
        node = cluster.node(nid)
        upper += max(
            helper.profiler.throughput(node, model, j) * j
            for j in range(1, k + 1)
        )
    upper /= model.num_layers
    if result.max_throughput > upper + _tol(upper):
        violations.append(Violation(
            "throughput_upper_bound",
            f"placement throughput {result.max_throughput} exceeds the "
            f"compute-sum upper bound {upper}",
        ))
    return violations


# ----------------------------------------------------------------------
# Simulation-layer invariants
# ----------------------------------------------------------------------
def check_simulation(
    sim: Simulation,
    metrics: ServingMetrics,
    planned_flow: FlowSolution,
) -> list[Violation]:
    """Post-run invariants tying the simulator back to the plan."""
    violations: list[Violation] = []

    planned = planned_flow.max_flow
    if metrics.decode_throughput > planned * _GOODPUT_SLACK + _tol(planned):
        violations.append(Violation(
            "goodput_le_planned",
            f"simulated decode throughput {metrics.decode_throughput:.3f} "
            f"tok/s exceeds the planned max flow {planned:.3f} tok/s",
        ))

    all_finished = metrics.requests_finished == metrics.requests_submitted
    for node_id, pool in sim.kv_pools.items():
        if pool.used_tokens < 0:
            violations.append(Violation(
                "kv_nonnegative",
                f"KV pool of {node_id} went negative: {pool.used_tokens}",
            ))
        if pool.peak_tokens > pool.capacity_tokens and pool.overflow_events == 0:
            violations.append(Violation(
                "kv_overflow_accounting",
                f"KV pool of {node_id} peaked at {pool.peak_tokens} over "
                f"capacity {pool.capacity_tokens} without counting an "
                "overflow event",
            ))
        if all_finished and not sim.down_nodes and pool.used_tokens != 0:
            violations.append(Violation(
                "kv_drained",
                f"all requests finished but KV pool of {node_id} still "
                f"holds {pool.used_tokens} tokens",
            ))

    if metrics.requests_finished > metrics.requests_submitted:
        violations.append(Violation(
            "requests_accounting",
            f"finished {metrics.requests_finished} > submitted "
            f"{metrics.requests_submitted}",
        ))
    for record in sim.records:
        if record.finished and record.tokens_generated != record.output_len:
            violations.append(Violation(
                "tokens_accounting",
                f"request {record.request_id} finished with "
                f"{record.tokens_generated}/{record.output_len} tokens",
            ))
    return violations


# ----------------------------------------------------------------------
# Chaos / request-lifecycle invariants
# ----------------------------------------------------------------------
def check_chaos(sim: Simulation, metrics: ServingMetrics) -> list[Violation]:
    """Invariants specific to gray-failure / lifecycle-policy runs.

    * request conservation: ``submitted == finished + in-flight``
      (active attempts, pending queue, retry backoffs);
    * a node confirmed dead by the detector never emits another token.
    """
    violations: list[Violation] = []

    in_flight = sim.in_flight_requests
    if metrics.requests_finished + in_flight != metrics.requests_submitted:
        violations.append(Violation(
            "request_conservation",
            f"submitted {metrics.requests_submitted} != finished "
            f"{metrics.requests_finished} + in-flight {in_flight}",
        ))

    for node_id in sim.dead_node_token_violations():
        violations.append(Violation(
            "dead_node_progress",
            f"node {node_id} emitted tokens after being confirmed dead",
        ))
    return violations


# ----------------------------------------------------------------------
# Elasticity / residency invariants
# ----------------------------------------------------------------------
def check_elastic(sim: Simulation, metrics: ServingMetrics) -> list[Violation]:
    """Invariants specific to residency/autoscaler (elastic) runs.

    * everything :func:`check_chaos` guarantees (request conservation,
      exclusive terminal states);
    * a graceful drain leaks no KV accounting and loses no tokens
      (``DrainRecord.kv_leaked == 0`` for every completed drain);
    * warm-up records are sane: non-negative windows, every pulled layer
      resident afterwards.
    """
    violations = check_chaos(sim, metrics)

    for record in sim.drain_log:
        if record.kv_leaked != 0:
            violations.append(Violation(
                "drain_zero_loss",
                f"drain of {record.node_id} leaked {record.kv_leaked} KV "
                "tokens (graceful drain must release everything)",
            ))
        if record.completed < record.started:
            violations.append(Violation(
                "drain_ordering",
                f"drain of {record.node_id} completed at {record.completed} "
                f"before it started at {record.started}",
            ))

    residency = sim.residency
    if residency is not None:
        for record in residency.warmup_log:
            if record.completed < record.started:
                violations.append(Violation(
                    "warmup_ordering",
                    f"warm-up of {record.node_id} completed at "
                    f"{record.completed} before it started at "
                    f"{record.started}",
                ))
        for node_id in residency.warming_nodes:
            if node_id not in sim.scheduler.warming_nodes:
                violations.append(Violation(
                    "warming_masked",
                    f"node {node_id} is warming but not masked from "
                    "scheduling",
                ))
    return violations


# ----------------------------------------------------------------------
# Multi-tenancy invariants
# ----------------------------------------------------------------------
def check_tenancy(sim: Simulation, metrics: ServingMetrics) -> list[Violation]:
    """Invariants specific to multi-tenant (tenancy-enabled) runs.

    * everything :func:`check_chaos` guarantees (request conservation,
      exclusive terminal states);
    * every request carries a tenant id the registry knows;
    * no cross-tenant starvation: the manager's watchdog fired no
      :class:`~repro.tenancy.manager.StarvationEvent` (a backlogged
      tenant always got served within one fairness horizon);
    * token accounting: the manager's per-tenant token counters sum to
      every token the system emitted (disrupted attempts included).
    """
    violations = check_chaos(sim, metrics)
    manager = sim.tenancy
    if manager is None:
        return violations + [Violation(
            "tenancy_enabled",
            "check_tenancy called on a run without a tenancy config",
        )]

    known = set(manager.config.registry.ids)
    for record in sim.records:
        if record.tenant_id not in known:
            violations.append(Violation(
                "tenant_registered",
                f"request {record.request_id} carries tenant "
                f"{record.tenant_id!r} unknown to the registry {sorted(known)}",
            ))

    for event in manager.starvation_events:
        violations.append(Violation(
            "no_cross_tenant_starvation",
            f"tenant {event.tenant_id} was backlogged from "
            f"{event.backlogged_since:.2f}s and still unserved at "
            f"{event.detected_at:.2f}s (horizon "
            f"{manager.config.fairness.horizon:.2f}s)",
        ))

    noted = sum(manager.tokens_by_tenant.values())
    if noted != sim.tokens_emitted:
        violations.append(Violation(
            "tenant_token_accounting",
            f"per-tenant token counters sum to {noted} but the system "
            f"emitted {sim.tokens_emitted} tokens",
        ))
    return violations


class TenantKVSampler:
    """Live sampler proving per-tenant KV charges sum to pool totals.

    Rides the simulator's environment-event queue: every ``interval``
    simulated seconds it folds :meth:`Simulation.kv_usage_by_tenant`
    per node and compares each sum against that node's
    ``pool.used_tokens`` — the tentpole accounting invariant (no KV
    token is ever charged without a tenant owning it, and none is owned
    twice). Install before the run; it stops rescheduling itself once
    every request has arrived and none is in flight. Read
    ``violations`` after the run.
    """

    def __init__(self, interval: float = 1.0) -> None:
        self.interval = interval
        self.samples = 0
        self.violations: list[Violation] = []

    def install(self, sim: Simulation) -> None:
        """Arm the first sample on ``sim``'s event queue."""
        sim.schedule_event(self.interval, self._sample)

    def _sample(self, sim: Simulation) -> None:
        self.samples += 1
        usage = sim.kv_usage_by_tenant()
        for node_id, pool in sim.kv_pools.items():
            total = sum(usage.get(node_id, {}).values())
            if total != pool.used_tokens:
                self.violations.append(Violation(
                    "tenant_kv_sums_to_pool",
                    f"t={sim.now:.2f}: node {node_id} per-tenant KV sum "
                    f"{total} != pool used_tokens {pool.used_tokens}",
                ))
        done = (
            len(sim.records) >= len(sim.requests)
            and sim.in_flight_requests == 0
        )
        if not done:
            sim.schedule_event(sim.now + self.interval, self._sample)


# ----------------------------------------------------------------------
# Scheduling-layer invariants (live audit)
# ----------------------------------------------------------------------
class SchedulerAuditor:
    """Wraps a scheduler's ``schedule`` to audit every pipeline it emits.

    Records a violation whenever a freshly-built pipeline routes through a
    node the scheduler's cluster reports unavailable, or through a node
    outside the current placement. With a residency ledger attached,
    additionally asserts the tentpole invariant: a node never receives a
    stage whose layers are not resident in its VRAM at schedule time.
    Install before the run; read ``violations`` after.
    """

    def __init__(self, scheduler: Scheduler, residency=None) -> None:
        self.scheduler = scheduler
        self.residency = residency
        self.violations: list[Violation] = []
        self.pipelines_audited = 0
        self._inner = scheduler.schedule
        scheduler.schedule = self._audited_schedule  # type: ignore[method-assign]

    def _audited_schedule(self, request_id: str, input_len: int):
        pipeline = self._inner(request_id, input_len)
        if pipeline is None:
            return None
        self.pipelines_audited += 1
        for stage in pipeline.stages:
            if not self.scheduler.cluster.node_available(stage.node_id):
                self.violations.append(Violation(
                    "route_through_down_node",
                    f"request {request_id} scheduled through down node "
                    f"{stage.node_id}",
                ))
            if not self.scheduler.placement.holds_layers(stage.node_id):
                self.violations.append(Violation(
                    "route_through_unplaced_node",
                    f"request {request_id} scheduled through {stage.node_id} "
                    "which holds no layers in the current placement",
                ))
            if self.residency is not None and not self.residency.is_resident(
                stage.node_id, stage.start, stage.end
            ):
                self.violations.append(Violation(
                    "route_through_nonresident_layers",
                    f"request {request_id} scheduled layers "
                    f"[{stage.start}, {stage.end}) on {stage.node_id}, "
                    "which does not have them resident",
                ))
        return pipeline
