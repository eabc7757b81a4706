"""End-to-end scenario execution with invariant and oracle checking.

:func:`run_scenario` plays one generated scenario through the full stack
— plan, schedule, simulate (applying any churn schedule) — collecting
:class:`~repro.testkit.invariants.Violation` objects instead of raising,
and fingerprints the run for determinism comparisons.
:func:`verify_scenario` is the sweep entry point: it generates the
scenario from its ``(family, seed, size)`` address, runs it (twice when
checking determinism — churn and serving mutate the cluster, so each run
gets a fresh generation), optionally cross-validates the re-targeted
flow graph against fresh builds, and folds everything into one :class:`ScenarioReport` whose
failure text always carries the one-line repro command.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.bench.runner import RunSpec, make_planner, make_simulation
from repro.cluster.profiler import Profiler
from repro.core.errors import ReproError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.online.autoscale import Autoscaler
from repro.online.controller import OnlineController
from repro.placement.base import PlannerResult
from repro.scenarios.generator import Scenario, generate_scenario
from repro.sim.metrics import DisruptionReport, ServingMetrics
from repro.sim.simulator import Simulation
from repro.tenancy.report import tenant_report
from repro.testkit.differential import (
    canonical_json,
    check_reevaluate_vs_rebuild,
)
from repro.testkit.invariants import (
    SchedulerAuditor,
    TenantKVSampler,
    Violation,
    check_chaos,
    check_elastic,
    check_planner_result,
    check_simulation,
    check_tenancy,
)
from repro.trace.azure import AZURE_MEAN_OUTPUT

#: Planner fallback order when a scenario's suggested method cannot serve
#: its draw (heuristics are topology-blind and may legitimately fail).
_PLANNER_FALLBACKS = ("swarm", "petals", "sp+")


@dataclass
class ScenarioReport:
    """Everything one verified scenario run produced.

    Attributes:
        scenario: The (post-run, mutated) scenario object.
        planner_used: The placement method that actually served.
        planned_throughput: Max-flow value of the placement.
        metrics: Aggregate serving metrics of the run.
        disruption: Detection/recovery telemetry (MTTD, false positives,
            goodput recovery) — for detection-mode (chaos) and elastic
            runs.
        elasticity: Residency/drain/autoscaler telemetry — only for
            elastic runs (warm-up count/seconds/bytes, drains, scaling
            actions).
        tenancy: Multi-tenant telemetry — only for tenancy-enabled runs
            (per-tenant :class:`~repro.sim.metrics.TenantMetrics`, the
            end-of-run Jain fairness index, and how many live
            KV-accounting samples the run survived).
        violations: Every invariant/oracle breach found (empty = pass).
        fingerprint: Digest of the run's observable outcome, stable
            across identical replays.
    """

    scenario: Scenario
    planner_used: str = "?"
    planned_throughput: float = 0.0
    metrics: ServingMetrics | None = None
    disruption: DisruptionReport | None = None
    elasticity: dict | None = None
    tenancy: dict | None = None
    violations: list[Violation] = field(default_factory=list)
    fingerprint: str = ""
    #: The simulation object itself (post-run), whose full observables
    #: the golden digests and ``run_digest`` pins read. ``None`` when
    #: planning failed.
    sim: Simulation | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        """Whether the run satisfied every checked invariant."""
        return not self.violations

    def failure_message(self) -> str:
        """Multi-line report ending with the one-line repro command."""
        lines = [self.scenario.describe()]
        lines += [f"  {v}" for v in self.violations]
        lines.append(f"  reproduce: {self.scenario.repro_command()}")
        return "\n".join(lines)


def _plan(scenario: Scenario) -> tuple[str, object, PlannerResult]:
    """Plan the scenario, falling back across heuristic methods.

    Elastic scenarios start with their spare pool out of service, so the
    initial plan goes on the *available* subcluster — exactly what a real
    deployment would see before the autoscaler loans anything in.
    """
    cluster = scenario.cluster
    if cluster.down_node_ids:
        cluster = cluster.subcluster()
    errors: list[str] = []
    tried = [scenario.planner_method] + [
        method for method in _PLANNER_FALLBACKS
        if method != scenario.planner_method
    ]
    for method in tried:
        try:
            planner = make_planner(method, cluster, scenario.model)
            result = planner.plan()
        except ReproError as exc:
            errors.append(f"{method}: {exc}")
            continue
        if result.max_throughput > 0:
            return method, planner, result
        errors.append(f"{method}: zero-throughput placement")
    raise ReproError(
        "no planner produced a servable placement for "
        f"{scenario.describe()} ({'; '.join(errors)}); "
        f"reproduce: {scenario.repro_command()}"
    )


def plan_scenario(scenario: Scenario) -> tuple[str, PlannerResult]:
    """Plan a scenario and return ``(method, result)`` without running it.

    The planner search is deterministic per address, so callers evaluating
    the *same* scenario under several scheduling policies can plan once,
    keep the placement intervals, and replay them through
    :func:`run_scenario`'s ``plan`` argument instead of re-running the
    search per policy.
    """
    method, _, result = _plan(scenario)
    return method, result


def placement_intervals(result: PlannerResult) -> dict[str, tuple[int, int]]:
    """The plain ``{node_id: (start, end)}`` form of a planned placement.

    Intervals survive fresh scenario generations, unlike the planner and
    flow objects bound to one cluster instance, so they are what a cached
    plan keeps.
    """
    return {
        node_id: (stage.start, stage.end)
        for node_id, stage in result.placement.assignments.items()
    }


def _plan_from_hint(
    scenario: Scenario, plan: tuple[str, dict[str, tuple[int, int]]]
) -> tuple[str, PlannerResult]:
    """Rebuild a planner result from cached ``(method, intervals)``.

    The max-flow solve is recomputed on the fresh cluster (cheap) so the
    result is bound to *this* generation — only the expensive placement
    search is skipped. Bit-identical to planning from scratch because the
    planners are deterministic per address.
    """
    method, intervals = plan
    cluster = scenario.cluster
    if cluster.down_node_ids:
        cluster = cluster.subcluster()
    placement = ModelPlacement.from_intervals(
        scenario.model.num_layers,
        {node_id: tuple(span) for node_id, span in intervals.items()},
    )
    flow = FlowGraph(cluster, scenario.model, placement).solve()
    return method, PlannerResult(
        planner_name=method, placement=placement, flow=flow
    )


def _fingerprint(sim: Simulation, metrics: ServingMetrics) -> str:
    """Digest of a run's observable outcome (exact, not rounded)."""
    payload = repr((
        metrics.requests_finished,
        metrics.requests_submitted,
        metrics.decode_tokens,
        metrics.decode_throughput,
        metrics.requests_retried,
        metrics.requests_migrated,
        metrics.requests_shed,
        metrics.requests_lost,
        sim.token_timeline,
    )).encode()
    return hashlib.sha256(payload).hexdigest()


def _controller_outcome(report: ScenarioReport) -> dict[str, str]:
    """The replay-comparable controller telemetry, serialized exactly:
    disruption (without its wall-clock replan latencies), elasticity and
    tenancy."""
    disruption = report.disruption
    if disruption is not None:
        disruption = replace(
            disruption, replan_latency_mean=0.0, replan_latency_max=0.0
        )
    return {
        "disruption": canonical_json(disruption),
        "elasticity": canonical_json(report.elasticity),
        "tenancy": canonical_json(report.tenancy),
    }


def run_scenario(
    scenario: Scenario,
    plan: tuple[str, dict[str, tuple[int, int]]] | None = None,
) -> ScenarioReport:
    """Play one scenario end-to-end, collecting invariant violations.

    The scenario object is consumed: serving and churn mutate its cluster
    (availability, link bandwidths). Regenerate for a second run.

    Args:
        scenario: The generated scenario to serve.
        plan: Cached ``(method, intervals)`` from an earlier
            :func:`plan_scenario` of the same address, to skip the
            placement search (a policy sweep evaluates one plan under
            several schedulers).
    """
    report = ScenarioReport(scenario=scenario)
    planner = None
    try:
        if plan is not None:
            method, planner_result = _plan_from_hint(scenario, plan)
        else:
            method, planner, planner_result = _plan(scenario)
    except ReproError as exc:
        report.violations.append(Violation("planner_serves", str(exc)))
        return report
    report.planner_used = method
    report.planned_throughput = planner_result.max_throughput

    report.violations.extend(
        check_planner_result(
            planner_result, scenario.cluster, scenario.model,
            # SP relaxes the half-VRAM rule; bound it at its own fraction.
            max_weight_fraction=getattr(planner, "max_weight_fraction", None),
        )
    )

    elastic = (
        scenario.residency is not None or scenario.autoscaler is not None
    )
    controller = None
    autoscaler = None
    if scenario.detection:
        # Chaos scenarios route churn through the online controller so
        # failures happen *silently* and only the failure detector's
        # confirmation masks the node (tier-1 flow rewrite; the slow
        # replanning path stays off to keep sweeps fast). debug_validate
        # re-validates the cluster after every applied event.
        controller = OnlineController(
            scenario.model,
            events=scenario.churn,
            replan=False,
            detection_mode=True,
        )
    elif elastic:
        # Elastic scenarios need the slow path: replanning folds loaned
        # spares in.
        if scenario.autoscaler is not None:
            autoscaler = Autoscaler(scenario.autoscaler, scenario.spares)
        controller = OnlineController(
            scenario.model,
            events=scenario.churn,
            replan=True,
            autoscaler=autoscaler,
        )
    sim = make_simulation(RunSpec(
        cluster=scenario.cluster,
        model=scenario.model,
        planner_result=planner_result,
        scheduler_method=scenario.scheduler_method,
        requests=scenario.requests,
        profiler=Profiler(),
        # The unscaled Azure mean output, whatever the scenario's lengths
        # (smoke scenarios average 4-26 output tokens): the golden digests
        # pin every matrix run at this reserve.
        expected_output_len=float(AZURE_MEAN_OUTPUT),
        seed=scenario.seed,
        max_time=scenario.max_time,
        controller=controller,
        policy=scenario.policy,
        debug_validate=scenario.detection,
        residency=scenario.residency,
    ))
    report.sim = sim
    auditor = SchedulerAuditor(sim.scheduler, residency=sim.residency)
    kv_sampler = None
    if scenario.tenancy is not None:
        kv_sampler = TenantKVSampler()
        kv_sampler.install(sim)
    if controller is None:
        for event in scenario.churn:
            if event.time <= scenario.max_time:
                sim.schedule_event(
                    event.time, lambda s, ev=event: s.apply_event(ev)
                )

    metrics = sim.run()
    report.metrics = metrics
    if controller is not None:
        report.disruption = controller.report(sim)
    if elastic:
        residency = sim.residency
        report.elasticity = {
            "warmups": len(residency.warmup_log) if residency else 0,
            "warmup_seconds_total": (
                sum(r.duration for r in residency.warmup_log)
                if residency else 0.0
            ),
            "warmup_bytes_total": (
                sum(r.bytes_pulled for r in residency.warmup_log)
                if residency else 0
            ),
            "evictions": len(residency.eviction_log) if residency else 0,
            "drains": len(sim.drain_log),
            "autoscaler_actions": (
                list(autoscaler.actions) if autoscaler is not None else []
            ),
        }
    report.fingerprint = _fingerprint(sim, metrics)
    sim_violations = check_simulation(sim, metrics, planner_result.flow)
    if elastic:
        # Scale-up can add capacity beyond the *initial* plan, so the
        # goodput-vs-planned bound does not apply to elastic runs.
        sim_violations = [
            v for v in sim_violations if v.invariant != "goodput_le_planned"
        ]
    report.violations.extend(sim_violations)
    if elastic:
        report.violations.extend(check_elastic(sim, metrics))
    elif scenario.tenancy is not None:
        report.violations.extend(
            check_tenancy(sim, metrics, scenario.tenancy.registry)
        )
    elif scenario.detection or scenario.policy is not None:
        report.violations.extend(check_chaos(sim, metrics))
    if scenario.tenancy is not None:
        tenants = tenant_report(
            sim.records,
            scenario.tenancy,
            end_time=max(min(sim.now, sim.max_time), sim.warmup + 1e-9),
            backlogged=sim.pending_tenants,
            warmup=sim.warmup,
        )
        report.tenancy = {
            "per_tenant": tenants["per_tenant"],
            "fairness_index": tenants["fairness_index"],
            "kv_samples": kv_sampler.samples,
        }
        report.violations.extend(kv_sampler.violations)
    report.violations.extend(auditor.violations)
    if auditor.pipelines_audited == 0:
        report.violations.append(Violation(
            "pipelines_scheduled",
            "the run never scheduled a single pipeline",
        ))
    return report


def verify_scenario(
    family: str,
    seed: int,
    size: str = "smoke",
    determinism: bool = True,
    flow_differential: bool = True,
    scheduler: str | None = None,
    plan: tuple[str, dict[str, tuple[int, int]]] | None = None,
) -> ScenarioReport:
    """Generate, run, and cross-check the scenario at one address.

    Args:
        family: Topology family.
        seed: Scenario seed.
        size: Sweep tier (``"smoke"`` or ``"full"``).
        determinism: Replay the address a second time (fresh generation)
            and require a bit-identical outcome fingerprint and identical
            controller telemetry (disruption, elasticity, tenancy).
        flow_differential: Cross-validate ``FlowGraph.reevaluate`` against
            fresh rebuilds on seeded random placements of this scenario.
        scheduler: Scheduling-policy override (``None`` = the scenario's
            own draw) — the nightly policy sweep varies this axis.
        plan: Cached ``(method, intervals)`` plan hint, forwarded to
            :func:`run_scenario` on every (re)play.
    """
    def fresh() -> Scenario:
        scenario = generate_scenario(family, seed, size)
        if scheduler is not None:
            scenario = replace(scenario, scheduler_method=scheduler)
        return scenario

    report = run_scenario(fresh(), plan=plan)
    if flow_differential:
        # Fresh generation: the first run mutated the cluster.
        report.violations.extend(
            check_reevaluate_vs_rebuild(generate_scenario(family, seed, size))
        )
    if determinism:
        replay = run_scenario(fresh(), plan=plan)
        if replay.fingerprint != report.fingerprint:
            report.violations.append(Violation(
                "per_seed_determinism",
                "two runs of the same (family, seed, size) produced "
                f"different outcomes ({report.fingerprint[:12]} vs "
                f"{replay.fingerprint[:12]})",
            ))
        ours, theirs = _controller_outcome(report), _controller_outcome(replay)
        for name in ours:
            if ours[name] != theirs[name]:
                report.violations.append(Violation(
                    "per_seed_determinism",
                    "two runs of the same (family, seed, size) produced "
                    f"different {name} telemetry",
                ))
    return report


def assert_scenario_ok(report: ScenarioReport) -> None:
    """Raise ``AssertionError`` with the repro command on any violation."""
    if not report.ok:
        raise AssertionError(report.failure_message())
