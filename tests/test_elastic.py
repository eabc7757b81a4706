"""Elasticity & recovery suite: residency, drains, autoscaling, MTTR.

The acceptance criteria of the layer-residency PR, as tier-1 smoke tests:

* residency on with no churn is bit-identical to residency off (all
  serving nodes start resident, so nothing warms);
* a kill-and-rejoin pays a nonzero warm-up window — the rejoined node
  pulls its layers as real network traffic before serving again;
* a pre-warmed spare yields strictly lower MTTR than a cold spare on the
  same seed, with the same repaired placement (the planner does not see
  residency, only the warm-up does);
* a failed replan waits for the next event instead of retrying;
* a graceful ``NodeDrain`` finishes in-flight work and loses zero tokens
  (and retains VRAM residency, unlike a crash);
* the backlog-driven autoscaler loans a spare in under load and drains
  it back when idle;
* the ``elastic`` scenario family passes every invariant, twice
  (determinism), and its sweep headline (seeds 0-24 at full size) is
  pinned exactly.
"""

import math

import pytest

from repro.cluster import A100_40G, Cluster, L4, T4
from repro.core.placement_types import ModelPlacement
from repro.core.units import GBIT
from repro.flow.graph import FlowGraph
from repro.models.specs import ModelSpec
from repro.online import (
    Autoscaler,
    AutoscalerConfig,
    NodeFailure,
    NodeRecovery,
    OnlineController,
)
from repro.scheduling import HelixScheduler
from repro.sim import Request, ResidencyConfig, Simulation
from repro.testkit import assert_scenario_ok, check_elastic, verify_scenario


@pytest.fixture()
def placement8():
    return ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
    )


def make_simulation(cluster, model, placement, requests, **kwargs):
    flow = FlowGraph(cluster, model, placement).solve()
    scheduler = HelixScheduler(cluster, model, placement, flow=flow)
    return Simulation(cluster, model, placement, scheduler, requests, **kwargs)


def steady_trace(n, spacing, input_len=32, output_len=8):
    return [
        Request(f"r{i}", input_len, output_len, arrival_time=i * spacing)
        for i in range(n)
    ]


def assert_elastic_clean(sim, metrics):
    __tracebackhide__ = True
    violations = check_elastic(sim, metrics)
    assert not violations, "\n".join(str(v) for v in violations)


# ----------------------------------------------------------------------
# Residency basics
# ----------------------------------------------------------------------
class TestResidency:
    def test_residency_off_by_default(self, small_cluster, tiny_model, placement8):
        sim = make_simulation(
            small_cluster, tiny_model, placement8, steady_trace(5, 0.1),
            max_time=30.0, seed=0,
        )
        assert sim.residency is None
        assert sim.warming_nodes == set()
        assert sim.draining_nodes == set()
        sim.run()
        assert sim.drain_log == []

    def test_residency_on_without_churn_is_identical(
        self, small_cluster, tiny_model, placement8
    ):
        """Serving nodes start resident: enabling the ledger changes nothing."""
        requests = steady_trace(30, 0.1)
        off = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        metrics_off = off.run()
        on = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0, residency=ResidencyConfig(),
        )
        metrics_on = on.run()
        assert on.token_timeline == off.token_timeline
        assert metrics_on.requests_finished == metrics_off.requests_finished
        assert on.residency.warmup_log == []
        assert on.residency.eviction_log == []

    def test_kill_and_rejoin_pays_a_warmup_window(
        self, small_cluster, tiny_model, placement8
    ):
        """A crash wipes VRAM; the rejoin pulls layers before serving."""
        requests = steady_trace(60, 0.2)
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, residency=ResidencyConfig(),
        )
        sim.schedule_event(2.0, lambda s: s.fail_node("a100-0"))
        sim.schedule_event(4.0, lambda s: s.restore_node("a100-0"))
        metrics = sim.run()

        res = sim.residency
        assert len(res.warmup_log) == 1
        record = res.warmup_log[0]
        assert record.node_id == "a100-0"
        assert record.started == pytest.approx(4.0)
        assert record.duration > 0  # no instant serving
        assert record.layers == (0, 1, 2, 3)
        assert record.bytes_pulled > 0
        # Weights came from a live resident replica, not thin air.
        assert record.sources == ("t4-1",)
        assert res.is_resident("a100-0", 0, 4)
        assert metrics.requests_finished == 60
        assert_elastic_clean(sim, metrics)


# ----------------------------------------------------------------------
# Warm vs cold MTTR (same repair, different warm-ups)
# ----------------------------------------------------------------------
def _wide_model():
    """A per-layer footprint a T4 cannot hold all of (forces the spare)."""
    return ModelSpec(
        name="elastic-wide-12L",
        num_layers=12,
        hidden_size=6656,
        num_heads=52,
        num_kv_heads=52,
        intermediate_size=17920,
    )


def _spare_model():
    """24 layers of 5e8 weight bytes each: a T4 holds 16 of them."""
    return ModelSpec(
        name="elastic-spare-24L",
        num_layers=24,
        hidden_size=6656,
        num_heads=52,
        num_kv_heads=52,
        intermediate_size=17920,
        params_per_layer_override=2.5e8,  # ~0.4 s/layer on 10 Gbit links
    )


def _spare_recovery_run(warm: bool):
    """Kill the sole holder of layers [0, 12); a spare rejoins shortly after.

    The two T4s hold 12 layers each and the survivor cannot absorb the
    loss, so the repaired placement *must* use the restored A100 spare —
    warm (layers pre-staged) or cold (pull everything through the
    network).
    """
    model = _spare_model()
    cluster = Cluster(name="elastic-spare")
    cluster.add_node("t4-0", T4, region="region-0")
    cluster.add_node("t4-1", T4, region="region-0")
    cluster.add_node("spare-0", A100_40G, region="region-0")
    cluster.connect_full_mesh(
        ["t4-0", "t4-1", "spare-0"], 10 * GBIT, 0.001,
        include_coordinator=True,
    )
    cluster.set_node_available("spare-0", False)
    cluster.validate()
    placement = ModelPlacement.from_intervals(
        24, {"t4-0": (0, 12), "t4-1": (12, 24)}
    )
    requests = steady_trace(150, 0.1, input_len=16, output_len=4)
    controller = OnlineController(
        model,
        events=[NodeFailure(6.0, "t4-0"), NodeRecovery(7.0, "spare-0")],
        replan=True,
    )
    config = ResidencyConfig(warm={"spare-0": (0, 24)} if warm else {})
    sim = make_simulation(
        cluster, model, placement, requests,
        max_time=60.0, seed=0, controller=controller, residency=config,
    )
    metrics = sim.run()
    return controller.report(sim, window=0.5), sim, metrics


class TestWarmVsColdMttr:
    def test_warm_spare_recovers_strictly_faster(self):
        warm_report, warm_sim, warm_metrics = _spare_recovery_run(warm=True)
        cold_report, cold_sim, cold_metrics = _spare_recovery_run(warm=False)

        # The planner does not see residency: both runs fail to replan at
        # the crash and apply the same repair once the spare is back.
        for sim in (warm_sim, cold_sim):
            replans = sim.controller.replans
            assert [(r.sim_time, r.status) for r in replans] == [
                (6.0, "failed"), (7.0, "applied"),
            ]
        assert warm_sim.placement.assignments == cold_sim.placement.assignments

        # The pre-staged spare serves the whole model as soon as the repair
        # lands; the cold spare first pays its weight transfer through the
        # same links the traffic uses.
        assert warm_report.mttr == 1.5
        assert cold_report.mttr == 6.0
        assert round(cold_report.mttr / warm_report.mttr, 4) == 4.0
        assert warm_metrics.requests_finished == 150
        assert cold_metrics.requests_finished == 150

        # Only the repair's second replica pulls weights in the warm run;
        # the cold run pulls the spare's 24 layers too.
        assert [
            (r.node_id, r.layers, r.bytes_pulled)
            for r in warm_sim.residency.warmup_log
        ] == [("t4-1", tuple(range(12)), 6e9)]
        assert [r.node_id for r in cold_sim.residency.warmup_log] == [
            "spare-0", "t4-1",
        ]
        cold_warmups = [
            r for r in cold_sim.residency.warmup_log
            if r.node_id == "spare-0"
        ]
        assert cold_warmups and cold_warmups[0].bytes_pulled > 0
        # Goodput while the spare pulls its weights, relative to before
        # the fault: nothing is served until the layers land.
        start = cold_warmups[0].started
        end = start + cold_warmups[0].duration
        dip = min(
            rate for bucket, rate in cold_report.timeline
            if start <= bucket < end
        )
        assert dip / cold_report.pre_disruption_goodput == 0.0
        assert_elastic_clean(warm_sim, warm_metrics)
        assert_elastic_clean(cold_sim, cold_metrics)

    def test_failed_replan_waits_for_the_next_event(self):
        """No spare: the lone survivor cannot hold 12 wide layers.

        The replan at the crash fails and is not retried; the recovery of
        the crashed node is the next event, and its replan applies.
        """
        cluster = Cluster(name="elastic-no-spare")
        cluster.add_node("t4-0", T4, region="region-0")
        cluster.add_node("t4-1", T4, region="region-0")
        cluster.connect_full_mesh(
            ["t4-0", "t4-1"], 10 * GBIT, 0.001, include_coordinator=True
        )
        cluster.validate()
        placement = ModelPlacement.from_intervals(
            12, {"t4-0": (0, 6), "t4-1": (6, 12)}
        )
        controller = OnlineController(
            _wide_model(),
            events=[NodeFailure(2.0, "t4-0"), NodeRecovery(4.0, "t4-0")],
        )
        sim = make_simulation(
            cluster, _wide_model(), placement,
            steady_trace(60, 0.1, input_len=16, output_len=4),
            max_time=10.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert [(r.sim_time, r.status) for r in controller.replans] == [
            (2.0, "failed"), (4.0, "applied"),
        ]
        assert metrics.requests_finished == 60


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_loses_zero_tokens(
        self, small_cluster, tiny_model, placement8
    ):
        requests = steady_trace(50, 0.1)
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, residency=ResidencyConfig(),
        )
        sim.schedule_event(1.5, lambda s: s.drain_node("a100-0"))
        metrics = sim.run()

        assert metrics.requests_finished == 50
        assert metrics.requests_retried == 0  # nothing was disrupted
        assert sum(r.tokens_lost for r in sim.records) == 0
        assert len(sim.drain_log) == 1
        record = sim.drain_log[0]
        assert record.node_id == "a100-0"
        assert record.kv_leaked == 0
        assert record.completed >= record.started == pytest.approx(1.5)
        assert "a100-0" in sim.down_nodes
        # A graceful drain retains VRAM: the node is a warm spare now.
        assert sim.residency.layers_of("a100-0") == {0, 1, 2, 3}
        assert_elastic_clean(sim, metrics)

    def test_drained_warm_node_rejoins_instantly(
        self, small_cluster, tiny_model, placement8
    ):
        """Drain keeps residency, so the rejoin needs no weight transfer."""
        requests = steady_trace(50, 0.1)
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, residency=ResidencyConfig(),
        )
        sim.schedule_event(1.5, lambda s: s.drain_node("a100-0"))
        sim.schedule_event(3.5, lambda s: s.restore_node("a100-0"))
        metrics = sim.run()
        assert sim.residency.warmup_log == []  # nothing to pull
        assert "a100-0" not in sim.down_nodes
        assert "a100-0" not in sim.scheduler.warming_nodes
        assert metrics.requests_finished == 50

    def test_crash_supersedes_drain(
        self, small_cluster, tiny_model, placement8
    ):
        """A node dying mid-drain is a failure, not a clean handoff."""
        requests = steady_trace(30, 0.1, output_len=64)
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, residency=ResidencyConfig(),
        )
        sim.schedule_event(1.5, lambda s: s.drain_node("a100-0"))
        sim.schedule_event(1.6, lambda s: s.fail_node("a100-0"))
        metrics = sim.run()
        assert sim.drain_log == []  # the drain never completed cleanly
        assert sim.residency.layers_of("a100-0") == set()  # crash flushed
        assert "a100-0" in sim.down_nodes
        assert metrics.requests_finished == 30
        assert_elastic_clean(sim, metrics)


# ----------------------------------------------------------------------
# Autoscaler
# ----------------------------------------------------------------------
class TestAutoscaler:
    def test_backlog_loans_a_spare_then_idle_returns_it(
        self, tiny_model
    ):
        cluster = Cluster(name="elastic-autoscale")
        cluster.add_node("t4-0", T4, region="region-0")
        cluster.add_node("l4-0", L4, region="region-0")
        cluster.add_node("l4-1", L4, region="region-0")
        cluster.add_node("spare-0", A100_40G, region="region-0")
        cluster.connect_full_mesh(
            ["t4-0", "l4-0", "l4-1", "spare-0"], 10 * GBIT, 0.001,
            include_coordinator=True,
        )
        cluster.set_node_available("spare-0", False)
        cluster.validate()
        placement = ModelPlacement.from_intervals(
            8, {"t4-0": (0, 4), "l4-0": (0, 4), "l4-1": (4, 8)}
        )
        # A dense burst: arrivals far faster than the base capacity.
        requests = steady_trace(150, 0.01)
        autoscaler = Autoscaler(
            AutoscalerConfig(
                interval=0.25,
                backlog_high=5,
                high_ticks=2,
                idle_ticks=8,
                cooldown=2.0,
                start_after=0.5,
            ),
            spares=["spare-0"],
        )
        controller = OnlineController(
            tiny_model, events=[], replan=True, autoscaler=autoscaler,
        )
        sim = make_simulation(
            cluster, tiny_model, placement, requests,
            max_time=60.0, seed=0, controller=controller,
            residency=ResidencyConfig(),
        )
        metrics = sim.run()

        kinds = [action for _, action, _ in autoscaler.actions]
        assert "add" in kinds  # the backlog pulled the spare in
        added_at = next(
            t for t, action, _ in autoscaler.actions if action == "add"
        )
        assert added_at < 10.0
        # The burst drained and the idle tail gave the spare back.
        assert "drain" in kinds and "returned" in kinds
        assert autoscaler.pool == ["spare-0"]
        assert autoscaler.loaned == []
        assert metrics.requests_finished == 150
        assert_elastic_clean(sim, metrics)


# ----------------------------------------------------------------------
# The elastic scenario family
# ----------------------------------------------------------------------
class TestElasticScenarios:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_elastic_addresses_verify_clean(self, seed):
        """Full harness: invariants, determinism, flow differential."""
        assert_scenario_ok(verify_scenario("elastic", seed, "smoke"))

    def test_elastic_scenarios_carry_the_elastic_gear(self):
        from repro.scenarios import generate_scenario

        scenario = generate_scenario("elastic", 0, "smoke")
        assert scenario.residency is not None
        assert scenario.autoscaler is not None
        assert scenario.spares
        assert all(
            nid in scenario.cluster.down_node_ids for nid in scenario.spares
        )

    def test_elastic_replans_build_no_milp(self, monkeypatch):
        """The harness replans deterministically, so no MILP is formulated."""
        from repro.placement.helix_milp import HelixMilpPlanner

        calls = {"replan": 0, "build_formulation": 0}
        for name in calls:
            original = getattr(HelixMilpPlanner, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(HelixMilpPlanner, name, counted)
        assert_scenario_ok(verify_scenario("elastic", 0, "smoke"))
        assert calls["replan"] >= 1
        assert calls["build_formulation"] == 0


# ----------------------------------------------------------------------
# Deterministic replans formulate no MILP
# ----------------------------------------------------------------------
def _elastic_replan_material():
    """An elastic smoke address's plan, with its first used node lost."""
    from repro.scenarios import generate_scenario
    from repro.testkit.harness import plan_scenario

    scenario = generate_scenario("elastic", 0, "smoke")
    _, result = plan_scenario(scenario)
    lost = result.placement.used_nodes[0]
    survivors = scenario.cluster.subcluster([
        nid for nid in scenario.cluster.available_node_ids if nid != lost
    ])
    return scenario.model, result.placement, survivors


class TestDeterministicReplan:
    def test_zero_rounds_never_formulates(self, monkeypatch):
        from repro.placement.helix_milp import HelixMilpPlanner

        model, base, cluster = _elastic_replan_material()
        planner = HelixMilpPlanner(cluster, model)
        # The deterministic replan adopts the best servable candidate among
        # the degraded base and the heuristic hints; ties keep the earlier.
        degraded = ModelPlacement.from_intervals(model.num_layers, {
            nid: (stage.start, stage.end)
            for nid, stage in base.assignments.items() if nid in cluster
        })
        candidates = [degraded] + planner.heuristic_hints(cluster)
        values = [planner.placement_throughput(c) for c in candidates]
        expected = candidates[values.index(max(values))]

        def refuse(self, cluster=None):
            raise AssertionError("replan() must not build the MILP")

        monkeypatch.setattr(HelixMilpPlanner, "build_formulation", refuse)
        result = HelixMilpPlanner(cluster, model).replan(base)
        assert result.placement == expected
        assert result.max_throughput == pytest.approx(max(values))
        assert (result.num_variables, result.num_constraints) == (0, 0)


# ----------------------------------------------------------------------
# Elastic sweep headline (simulated time, so exact on every machine)
# ----------------------------------------------------------------------
def test_elastic_sweep_headline_is_pinned():
    """Seeds 0-24 of the elastic family at full size, aggregated.

    Warm-ups, drains, autoscaler actions, repair times and request
    accounting are simulated-time quantities: a change that moves any of
    them changes the model's behaviour and must say so by re-pinning
    here. The warm-vs-cold spare contrast is pinned in
    ``TestWarmVsColdMttr``.
    """
    reports = [verify_scenario("elastic", seed, "full") for seed in range(25)]
    for report in reports:
        assert_scenario_ok(report)
    elasticity = [report.elasticity for report in reports]
    actions = [a for e in elasticity for _, a, _ in e["autoscaler_actions"]]
    repairs = [
        report.disruption.mttr for report in reports
        if math.isfinite(report.disruption.mttr)
    ]
    ratios = [
        report.disruption.recovery_ratio for report in reports
        if math.isfinite(report.disruption.recovery_ratio)
    ]
    metrics = [report.metrics for report in reports]

    assert sum(e["warmups"] for e in elasticity) == 14
    assert round(sum(e["warmup_seconds_total"] for e in elasticity), 4) == (
        8.8585
    )
    assert round(
        sum(e["warmup_bytes_total"] for e in elasticity) / 1e9, 3
    ) == 3.494
    assert sum(e["drains"] for e in elasticity) == 12
    assert actions.count("add") == 5
    assert actions.count("drain") == 5
    assert round(sum(repairs) / len(repairs), 4) == 29.8039
    assert round(sum(ratios) / len(ratios), 4) == 0.0332
    assert sum(m.requests_submitted for m in metrics) == 2975
    assert sum(m.requests_finished for m in metrics) == 2975
