"""Online dynamics: churn events, failure semantics, and live replanning."""

import hashlib
import math

import pytest

from repro.cluster import A100_40G, Cluster, L4, T4
from repro.core.errors import ClusterError, SimulationError
from repro.core.placement_types import ModelPlacement
from repro.core.units import GBIT
from repro.flow.graph import FlowGraph
from repro.online import (
    ChurnConfig,
    FlakyLink,
    LinkDegradation,
    LinkRecovery,
    NodeFailure,
    NodeRecovery,
    OnlineController,
    StragglerStart,
    ZombieNode,
    random_churn,
    validate_schedule,
)
from repro.placement.helix_milp import HelixMilpPlanner
from repro.placement.pruning import prune_cluster
from repro.scenarios import generate_scenario
from repro.scheduling import HelixScheduler
from repro.sim import Request, Simulation
from repro.sim.metrics import disruption_report, goodput_timeline


@pytest.fixture()
def placement8():
    return ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
    )


def make_simulation(cluster, model, placement, requests, scheduler_kwargs=None,
                    **kwargs):
    flow = FlowGraph(cluster, model, placement).solve()
    scheduler = HelixScheduler(
        cluster, model, placement, flow=flow, **(scheduler_kwargs or {})
    )
    return Simulation(cluster, model, placement, scheduler, requests, **kwargs)


class TestFailureSemantics:
    def test_fail_node_requeues_and_reroutes(
        self, small_cluster, tiny_model, placement8
    ):
        """Layer replicas absorb a failure: everything still finishes."""
        requests = [Request(f"r{i}", 32, 6, arrival_time=i * 0.01) for i in range(40)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        sim.schedule_event(0.05, lambda s: s.fail_node("a100-0"))
        metrics = sim.run()
        assert metrics.requests_finished == 40
        assert metrics.requests_retried > 0
        # No finished pipeline may route through the dead node.
        for i in range(40):
            record = sim.record_of(f"r{i}")
            assert record.finished
        assert "a100-0" in sim.down_nodes

    def test_failed_node_kv_state_is_lost(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request(f"r{i}", 64, 12) for i in range(20)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)

        observed = {}

        def fail(s):
            observed["before"] = s.kv_pools["a100-0"].used_tokens
            s.fail_node("a100-0")
            observed["after"] = s.kv_pools["a100-0"].used_tokens

        sim.schedule_event(0.03, fail)
        sim.run()
        assert observed["before"] > 0
        assert observed["after"] == 0

    def test_kv_pools_drain_after_failure_and_recovery(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request(f"r{i}", 32, 6) for i in range(30)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        sim.schedule_event(0.04, lambda s: s.fail_node("t4-1"))
        sim.schedule_event(0.30, lambda s: s.restore_node("t4-1"))
        metrics = sim.run()
        assert metrics.requests_finished == 30
        for pool in sim.kv_pools.values():
            assert pool.used_tokens == 0

    def test_fail_node_is_idempotent(self, small_cluster, tiny_model, placement8):
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        sim.fail_node("t4-0")
        assert sim.fail_node("t4-0") == []
        sim.restore_node("t4-0")
        sim.restore_node("t4-0")  # no-op
        assert sim.run().requests_finished == 1

    def test_retry_metrics_and_tokens_lost(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request(f"r{i}", 32, 20) for i in range(10)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        # Fail late enough that some decode tokens exist and are wasted.
        sim.schedule_event(0.2, lambda s: s.fail_node("a100-0"))
        metrics = sim.run()
        assert metrics.requests_finished == 10
        if metrics.requests_retried:
            assert metrics.tokens_lost >= 0
            retried = [
                sim.record_of(f"r{i}") for i in range(10)
                if sim.record_of(f"r{i}").retries > 0
            ]
            # Retried requests still generated their full output.
            assert all(r.tokens_generated == 20 for r in retried)


class TestPendingQueueUnderMasking:
    def test_pending_retry_path_with_kv_masking_and_failure(
        self, small_cluster, tiny_model, placement8
    ):
        """KV masking queues requests; a failure mid-drain still resolves."""
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow,
            # Each request reserves 512 + 50,000 of a T4's ~970k KV
            # tokens, so most requests wait in the pending queue.
            expected_output_len=50_000.0,
        )
        requests = [Request(f"r{i}", 512, 4) for i in range(120)]
        sim = Simulation(
            small_cluster, tiny_model, placement8, scheduler, requests,
            max_time=10_000.0,
        )
        sim.schedule_event(1.0, lambda s: s.fail_node("a100-0"))
        sim.schedule_event(5.0, lambda s: s.restore_node("a100-0"))
        metrics = sim.run()
        assert metrics.requests_finished == 120
        assert metrics.kv_overflow_events == 0
        assert any(
            sim.record_of(r.request_id).schedule_time > r.arrival_time
            for r in requests
        )

    def test_all_successors_down_pends_then_drains(
        self, small_cluster, tiny_model, placement8
    ):
        """When a selector's every successor is down, requests pend."""
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow
        )
        # Both holders of layers [0, 4) down: the coordinator selector has
        # no live successor and scheduling must return None, not crash.
        small_cluster.set_node_available("a100-0", False)
        small_cluster.set_node_available("t4-1", False)
        assert scheduler.schedule("probe", 16) is None

        requests = [Request(f"r{i}", 16, 3, arrival_time=0.0) for i in range(5)]
        sim = Simulation(
            small_cluster, tiny_model, placement8, scheduler, requests,
            max_time=60.0,
        )
        sim.schedule_event(1.0, lambda s: s.restore_node("a100-0"))
        metrics = sim.run()
        assert metrics.requests_finished == 5
        # Nothing could schedule before the recovery at t=1.
        assert all(
            sim.record_of(f"r{i}").schedule_time >= 1.0 for i in range(5)
        )


class TestLinkEvents:
    def test_degrade_and_restore_link(self, small_cluster, tiny_model, placement8):
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        original = small_cluster.link("a100-0", "l4-0").bandwidth
        sim.degrade_link("a100-0", "l4-0", 0.1)
        assert small_cluster.link("a100-0", "l4-0").bandwidth == pytest.approx(
            original * 0.1
        )
        assert small_cluster.link("l4-0", "a100-0").bandwidth == pytest.approx(
            original * 0.1
        )
        # The live channel sees the degraded link immediately.
        assert sim.channels[("a100-0", "l4-0")].link.bandwidth == pytest.approx(
            original * 0.1
        )
        # Degradation factors are relative to the original bandwidth.
        sim.degrade_link("a100-0", "l4-0", 0.5)
        assert small_cluster.link("a100-0", "l4-0").bandwidth == pytest.approx(
            original * 0.5
        )
        sim.restore_link("a100-0", "l4-0")
        assert small_cluster.link("a100-0", "l4-0").bandwidth == pytest.approx(
            original
        )

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf])
    def test_non_finite_or_non_positive_factor_rejected(
        self, small_cluster, tiny_model, placement8, factor
    ):
        sim = make_simulation(
            small_cluster, tiny_model, placement8, [Request("r0", 16, 2)]
        )
        bandwidth = small_cluster.link("a100-0", "l4-0").bandwidth
        executor = sim.executors["a100-0"]
        constants = (
            executor.compute_rate, executor.weights_time, executor.overhead,
            executor.slowdown,
        )
        with pytest.raises(SimulationError):
            sim.degrade_link("a100-0", "l4-0", factor)
        with pytest.raises(SimulationError):
            sim.set_compute_slowdown("a100-0", factor)
        for key in (("a100-0", "l4-0"), ("l4-0", "a100-0")):
            assert small_cluster.link(*key).bandwidth == bandwidth
            assert sim.channels[key].link.bandwidth == bandwidth
        assert (
            executor.compute_rate, executor.weights_time, executor.overhead,
            executor.slowdown,
        ) == constants

    @staticmethod
    def _toy_simulation(tiny_model):
        from repro.cluster import presets

        cluster = presets.toy_cluster_fig2()  # all links unidirectional
        placement = ModelPlacement.from_intervals(
            8, {"a100": (0, 4), "t4-1": (4, 8), "t4-2": (4, 8)}
        )
        requests = [Request("r0", 16, 2)]
        return cluster, make_simulation(cluster, tiny_model, placement, requests)

    def test_degrade_asymmetric_link_skips_missing_reverse(
        self, tiny_model
    ):
        cluster, sim = self._toy_simulation(tiny_model)
        original = cluster.link("a100", "t4-1").bandwidth
        sim.degrade_link("a100", "t4-1", 0.5)  # no reverse link: no crash
        assert cluster.link("a100", "t4-1").bandwidth == pytest.approx(
            original * 0.5
        )
        assert not cluster.has_link("t4-1", "a100")
        sim.restore_link("a100", "t4-1")
        assert cluster.link("a100", "t4-1").bandwidth == pytest.approx(original)

    def test_restore_link_rejects_a_missing_direction(self, tiny_model):
        """Like ``degrade_link``, ``restore_link`` raises on a direction
        the cluster lacks, and leaves the existing reverse degraded."""
        cluster, sim = self._toy_simulation(tiny_model)
        original = cluster.link("a100", "t4-1").bandwidth
        sim.degrade_link("a100", "t4-1", 0.5)
        with pytest.raises(ClusterError, match="no link 't4-1'->'a100'"):
            sim.restore_link("t4-1", "a100")
        assert cluster.link("a100", "t4-1").bandwidth == pytest.approx(
            original * 0.5
        )

    def test_clear_link_flaky_rejects_a_missing_direction(self, tiny_model):
        """Like ``set_link_flaky``, ``clear_link_flaky`` raises on a
        direction the cluster lacks, and leaves the existing reverse
        flaky."""
        _, sim = self._toy_simulation(tiny_model)
        sim.set_link_flaky("a100", "t4-1", 0.5, 0.05)
        with pytest.raises(ClusterError, match="no link 't4-1'->'a100'"):
            sim.clear_link_flaky("t4-1", "a100")
        assert sim.channels[("a100", "t4-1")].fault is not None

    def test_flow_graph_refresh_links_tracks_degradation(
        self, small_cluster, tiny_model, placement8
    ):
        graph = FlowGraph(small_cluster, tiny_model, placement8)
        before = graph.solve().max_flow
        for nid in ("a100-0", "t4-1"):
            small_cluster.set_link_bandwidth("coordinator", nid, 1e3)
        changed = graph.refresh_links()
        assert ("coordinator", "a100-0") in changed
        after = graph.solve().max_flow
        assert after < before
        # A no-op refresh reports nothing.
        assert graph.refresh_links() == []
        # The controller's path: re-read the links, then re-target the
        # graph; it must match a graph built on the mutated cluster.
        other = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 6), "l4-0": (4, 8), "t4-1": (0, 4)}
        )
        small_cluster.set_link_bandwidth("a100-0", "l4-0", 2e6)
        assert graph.refresh_links() == [("a100-0", "l4-0")]
        retargeted = graph.reevaluate(other)
        assert retargeted == FlowGraph(small_cluster, tiny_model, other).solve()
        assert retargeted.connection_capacities[("a100-0", "l4-0")] == (
            2e6 / tiny_model.activation_bytes_per_token
        )

    def test_flow_graph_refresh_links_tracks_repair(
        self, small_cluster, tiny_model, placement8
    ):
        # Degrade then repair a link: after the repair's refresh the graph
        # solves exactly as it did before the degradation.
        graph = FlowGraph(small_cluster, tiny_model, placement8)
        healthy = graph.solve()
        original = small_cluster.link("coordinator", "a100-0").bandwidth
        small_cluster.set_link_bandwidth("coordinator", "a100-0", 1e3)
        assert graph.refresh_links() == [("coordinator", "a100-0")]
        assert graph.solve().max_flow < healthy.max_flow
        small_cluster.set_link_bandwidth("coordinator", "a100-0", original)
        assert graph.refresh_links() == [("coordinator", "a100-0")]
        assert graph.solve() == healthy


class TestPlacementHotSwap:
    def test_apply_placement_migrates_invalidated_requests(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request(f"r{i}", 64, 30) for i in range(12)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)

        swapped = ModelPlacement.from_intervals(
            8,
            {"a100-0": (0, 8), "l4-0": (0, 4), "t4-0": (4, 8), "t4-1": (0, 4)},
        )

        def swap(s):
            flow = FlowGraph(small_cluster, tiny_model, swapped).solve()
            migrated = s.apply_placement(swapped, flow)
            assert migrated  # in-flight pipelines crossed changed nodes

        sim.schedule_event(0.2, swap)
        metrics = sim.run()
        assert metrics.requests_finished == 12
        assert metrics.requests_migrated > 0
        for pool in sim.kv_pools.values():
            assert pool.used_tokens == 0

    def test_grown_interval_rebind_migrates_resident_requests(
        self, small_cluster, tiny_model, placement8
    ):
        """A node whose interval *grows* is re-bound; requests there must
        be migrated even though their stage still fits the new interval."""
        requests = [Request(f"r{i}", 64, 40) for i in range(10)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)

        # a100-0 grows from [0, 4) to [0, 8): stages [0, 4) on it still fit,
        # but the executor/KV rebind would orphan their in-flight work.
        grown = ModelPlacement.from_intervals(
            8,
            {"a100-0": (0, 8), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)},
        )

        def swap(s):
            flow = FlowGraph(small_cluster, tiny_model, grown).solve()
            migrated = s.apply_placement(grown, flow)
            assert migrated
            # No active pipeline may still carry an old-interval stage on
            # the re-bound node (retries may already use the new [0, 8)).
            for active in s._active.values():
                for stage in active.pipeline.stages:
                    if stage.node_id == "a100-0":
                        assert (stage.start, stage.end) == (0, 8)

        sim.schedule_event(0.3, swap)
        metrics = sim.run()
        assert metrics.requests_finished == 10  # nobody got orphaned

    def test_apply_placement_rejects_empty_flow_before_mutating(
        self, small_cluster, tiny_model, placement8
    ):
        from types import SimpleNamespace

        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        other = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 8), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        with pytest.raises(SimulationError, match="no flow"):
            sim.apply_placement(other, SimpleNamespace(max_flow=0.0))
        assert sim.placement is placement8  # nothing was mutated

    def test_rebind_preserves_overflow_history(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        sim.kv_pools["a100-0"].overflow_events = 3
        grown = ModelPlacement.from_intervals(
            8,
            {"a100-0": (0, 8), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)},
        )
        flow = FlowGraph(small_cluster, tiny_model, grown).solve()
        sim.apply_placement(grown, flow)  # a100-0 is re-bound
        assert sim.kv_pools["a100-0"].overflow_events == 3
        assert sim.run().kv_overflow_events >= 3

    def test_fail_joined_node_that_never_served(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        from repro.cluster import L4

        small_cluster.add_node("late", L4, region="r0")
        small_cluster.connect("coordinator", "late", 1e9)
        assert sim.fail_node("late") == []  # no epoch entry yet; no crash
        sim.restore_node("late")
        assert sim.run().requests_finished == 1

    def test_scheduler_hot_swap_rebuilds_selectors(
        self, small_cluster, tiny_model, placement8
    ):
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow
        )
        degraded = ModelPlacement.from_intervals(
            8, {"t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        degraded_flow = FlowGraph(small_cluster, tiny_model, degraded).solve()
        scheduler.apply_placement(degraded, flow=degraded_flow)
        weights = scheduler.selector_weights("coordinator")
        assert "a100-0" not in weights
        assert "t4-1" in weights


class TestOnlineController:
    def test_fail_replan_recover_end_to_end(self, small_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [
            Request(f"r{i}", 32, 8, arrival_time=i * 0.002) for i in range(400)
        ]
        events = [
            NodeFailure(0.3, "a100-0"),
            NodeRecovery(0.8, "a100-0"),
            NodeFailure(1.2, "a100-0"),
            NodeRecovery(1.6, "a100-0"),
        ]
        controller = OnlineController(tiny_model, events=events)
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=5.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 400
        assert metrics.requests_retried > 0
        statuses = [r.status for r in controller.replans]
        assert "applied" in statuses
        assert len(controller.event_log) == 4
        # Only the failures are disruptions; recoveries replan but do not
        # move the disruption clock.
        assert controller.disruption_times == [0.3, 1.2]
        report = controller.report(sim, window=0.25)
        assert report.replan_count >= 1
        assert report.requests_retried == metrics.requests_retried

    def test_autoscaler_path_reactions_are_pinned(self, tiny_model):
        """Restore two spares, then drain one, reacting as the autoscaler
        does (a direct ``react`` after each membership change).

        The third reaction returns to the first one's membership. Every
        record and applied placement is pinned exactly.
        """
        cluster = Cluster(name="spares")
        nodes = [("t4-0", T4), ("l4-0", L4), ("l4-1", L4),
                 ("s1", A100_40G), ("s2", L4)]
        for nid, gpu in nodes:
            cluster.add_node(nid, gpu, region="r0")
        cluster.connect_full_mesh(
            [nid for nid, _ in nodes], 10 * GBIT, 0.001,
            include_coordinator=True,
        )
        cluster.set_node_available("s1", False)
        cluster.set_node_available("s2", False)
        cluster.validate()
        placement = ModelPlacement.from_intervals(
            8, {"t4-0": (0, 4), "l4-0": (0, 4), "l4-1": (4, 8)}
        )
        requests = [
            Request(f"r{i}", 32, 8, arrival_time=i * 0.01) for i in range(300)
        ]
        controller = OnlineController(tiny_model)
        applied = []

        def reacting(change):
            def step(s):
                change(s)
                controller.react(s)
                applied.append({
                    nid: (stage.start, stage.end)
                    for nid, stage in s.placement.assignments.items()
                })
            return step

        sim = make_simulation(
            cluster, tiny_model, placement, requests,
            max_time=30.0, seed=0, controller=controller,
        )
        sim.schedule_event(0.5, reacting(lambda s: s.restore_node("s1")))
        sim.schedule_event(1.0, reacting(lambda s: s.restore_node("s2")))
        sim.schedule_event(1.5, reacting(lambda s: s.drain_node("s2")))
        metrics = sim.run()

        assert [
            (r.sim_time, r.status, r.throughput, r.migrated)
            for r in controller.replans
        ] == [
            (0.5, "applied", 52197.49334445712, 14),
            (1.0, "applied", 64751.671667634175, 0),
            (1.5, "applied", 52197.49334445712, 0),
        ]
        without_s2 = {nid: (0, 8) for nid in ("t4-0", "l4-0", "l4-1", "s1")}
        assert applied == [without_s2, {**without_s2, "s2": (0, 8)}, without_s2]
        assert metrics.requests_finished == 300

    def test_live_replan_migrates_in_flight_attempts(
        self, small_cluster, tiny_model, placement8
    ):
        """A failure's replan re-binds the survivors and migrates their work.

        ``t4-0`` fails at 0.3 s and requeues the 28 attempts through it.
        The deterministic replan gives each survivor the
        whole model, so ``apply_placement`` re-binds all three and
        migrates the 32 attempts still in flight on them. Pinned exactly.
        """
        from repro.testkit.golden import run_digest

        controller = OnlineController(
            tiny_model, events=[NodeFailure(0.3, "t4-0")]
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8,
            [Request(f"r{i}", 32, 8, arrival_time=i * 0.002)
             for i in range(400)],
            max_time=10.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert [
            (r.sim_time, r.status, r.migrated) for r in controller.replans
        ] == [(0.3, "applied", 32)]
        assert {
            nid: (stage.start, stage.end)
            for nid, stage in sim.placement.assignments.items()
        } == {"a100-0": (0, 8), "l4-0": (0, 8), "t4-1": (0, 8)}
        assert (metrics.requests_migrated, metrics.requests_retried) == (32, 28)
        assert metrics.requests_finished == 400
        assert run_digest(sim, metrics)[:16] == "b2bc02e646e72b3a"

    def test_unique_layer_holder_failure_needs_replan(
        self, small_cluster, tiny_model
    ):
        """Fast path fails (lost layers), the replan repairs coverage."""
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [
            Request(f"r{i}", 32, 6, arrival_time=i * 0.005) for i in range(100)
        ]
        controller = OnlineController(
            tiny_model, events=[NodeFailure(0.2, "a100-0")]
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=10.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        # a100-0 held layers [0, 4) alone: only the replan (re-spreading
        # layers over t4-1 and the survivors) can restore serving.
        assert metrics.requests_finished == 100
        record = controller.replans[-1]
        assert record.status == "applied"
        assert "a100-0" not in {
            nid for nid in sim.placement.used_nodes
        }

    def test_replan_disabled_leaves_degraded_flow(
        self, small_cluster, tiny_model
    ):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [Request(f"r{i}", 32, 4) for i in range(50)]
        controller = OnlineController(
            tiny_model, events=[NodeFailure(0.1, "t4-1")], replan=False
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=30.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 50
        assert [r.status for r in controller.replans] == ["degraded-only"]
        assert "t4-1" not in sim.placement.used_nodes

    def test_replan_disabled_recovery_restores_assignment(
        self, small_cluster, tiny_model
    ):
        """Without replanning, a recovered node regains its old layers
        (tier 1 degrades the *reference* placement, not the live one)."""
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [
            Request(f"r{i}", 32, 5, arrival_time=i * 0.01) for i in range(80)
        ]
        events = [NodeFailure(0.2, "t4-1"), NodeRecovery(0.5, "t4-1")]
        controller = OnlineController(
            tiny_model, events=events, replan=False
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=30.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 80
        assert "t4-1" in sim.placement.used_nodes
        assert sim.placement.interval("t4-1").start == 0

    def test_first_event_link_degradation_reweights_selectors(
        self, small_cluster, tiny_model
    ):
        """Tier 1 must hot-swap even when its flow graph is built after
        the degradation already applied (refresh_links sees no delta)."""
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        before = dict(scheduler.selector_weights("coordinator"))
        requests = [Request(f"r{i}", 32, 4) for i in range(30)]
        # Token-id links are light (4 B/token), so the degradation must be
        # extreme before the link binds below the node's throughput.
        controller = OnlineController(
            tiny_model,
            events=[LinkDegradation(0.1, "coordinator", "a100-0", 1e-5)],
            replan=False,
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=60.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 30
        after = scheduler.selector_weights("coordinator")
        # The coordinator->a100-0 weight collapsed to the link capacity.
        assert after.get("a100-0", 0.0) < before["a100-0"] * 0.5

    def test_recovered_spare_joins_the_placement(
        self, small_cluster, tiny_model
    ):
        """A node that starts down and recovers mid-run is put to work by
        the replan its recovery triggers."""
        small_cluster.set_node_available("l4-0", False)
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "t4-0": (4, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        requests = [
            Request(f"r{i}", 32, 6, arrival_time=i * 0.002) for i in range(200)
        ]
        controller = OnlineController(
            tiny_model, events=[NodeRecovery(0.2, "l4-0")]
        )
        sim = Simulation(
            small_cluster, tiny_model, placement, scheduler, requests,
            max_time=5.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 200
        assert [r.status for r in controller.replans] == ["applied"]
        assert "l4-0" in sim.placement.used_nodes

    def test_seeded_runs_are_reproducible(self, small_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )

        def run(seed):
            events = random_churn(
                small_cluster.node_ids,
                ChurnConfig(
                    duration=2.0,
                    mean_time_to_failure=0.6,
                    mean_time_to_recovery=0.4,
                ),
                seed=seed,
            )
            flow = FlowGraph(small_cluster, tiny_model, placement).solve()
            scheduler = HelixScheduler(
                small_cluster, tiny_model, placement, flow=flow
            )
            requests = [
                Request(f"r{i}", 24, 5, arrival_time=i * 0.004)
                for i in range(150)
            ]
            controller = OnlineController(tiny_model, events=events)
            sim = Simulation(
                small_cluster, tiny_model, placement, scheduler, requests,
                max_time=6.0, seed=seed, controller=controller,
            )
            metrics = sim.run()
            for nid in list(sim.down_nodes):
                sim.cluster.set_node_available(nid, True)  # reset fixture
            return (
                metrics.decode_throughput,
                metrics.requests_finished,
                metrics.requests_retried,
                metrics.tokens_lost,
                tuple(t for t, _ in controller.event_log),
            )

        first = run(seed=7)
        second = run(seed=7)
        different = run(seed=8)
        assert first == second
        assert first[4] != different[4]  # the churn schedule moved


class TestChurnGeneration:
    def test_random_churn_is_deterministic(self):
        config = ChurnConfig(
            duration=100.0,
            mean_time_to_failure=10.0,
            mean_time_to_recovery=5.0,
            link_mean_time_to_degrade=15.0,
        )
        nodes = [f"n{i}" for i in range(6)]
        links = [("n0", "n1"), ("n2", "n3")]
        a = random_churn(nodes, config, seed=3, link_keys=links)
        b = random_churn(nodes, config, seed=3, link_keys=links)
        assert a == b
        assert a != random_churn(nodes, config, seed=4, link_keys=links)

    def test_random_churn_pairs_failures_with_recoveries(self):
        config = ChurnConfig(
            duration=200.0, mean_time_to_failure=8.0, mean_time_to_recovery=4.0
        )
        events = random_churn([f"n{i}" for i in range(4)], config, seed=0)
        failures = [e for e in events if isinstance(e, NodeFailure)]
        recoveries = [e for e in events if isinstance(e, NodeRecovery)]
        assert failures and len(failures) == len(recoveries)
        assert events == sorted(events, key=lambda e: e.time)
        # max_concurrent_failures=1: failures never overlap.
        down_until = 0.0
        for failure in failures:
            assert failure.time >= down_until
            recovery = next(
                r for r in recoveries if r.node_id == failure.node_id
                and r.time > failure.time
            )
            down_until = recovery.time

    def test_link_churn_emits_degradations(self):
        config = ChurnConfig(
            duration=300.0,
            mean_time_to_failure=1e9,  # node churn off
            mean_time_to_recovery=1.0,
            link_mean_time_to_degrade=10.0,
            link_degradation_factor=0.25,
        )
        events = random_churn(
            ["n0", "n1"], config, seed=1, link_keys=[("n0", "n1")]
        )
        degradations = [e for e in events if isinstance(e, LinkDegradation)]
        repairs = [e for e in events if isinstance(e, LinkRecovery)]
        assert degradations and len(degradations) == len(repairs)
        assert all(e.factor == 0.25 for e in degradations)


class TestDisruptionMetrics:
    def test_goodput_timeline_buckets(self):
        times = [0.1, 0.2, 1.5, 2.1, 2.2, 2.3, 9.9]
        timeline = goodput_timeline(times, window=1.0, end_time=3.0)
        assert timeline == [(0.0, 2.0), (1.0, 1.0), (2.0, 3.0)]
        assert goodput_timeline([], window=1.0, end_time=0.5) == []
        with pytest.raises(ValueError, match="window"):
            goodput_timeline(times, window=0.0, end_time=3.0)

    def test_goodput_timeline_horizon_end_token_joins_final_bucket(self):
        # A token emitted exactly at the covered horizon end must land in
        # the final bucket, not a phantom bucket past the horizon.
        timeline = goodput_timeline([0.5, 1.5, 3.0], window=1.0, end_time=3.0)
        assert timeline == [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]
        # Past the horizon (not exactly on it) is still dropped.
        timeline = goodput_timeline([0.5, 3.25], window=1.0, end_time=3.0)
        assert timeline == [(0.0, 1.0), (1.0, 0.0), (2.0, 0.0)]

    def test_goodput_timeline_rejects_non_multiple_window(self):
        # Bucketed token times only reproduce the exact curve when the
        # window is an integer multiple of the timeline resolution.
        with pytest.raises(ValueError, match="multiple"):
            goodput_timeline(
                [0.1], window=0.75, end_time=3.0, resolution=0.5
            )
        with pytest.raises(ValueError, match="resolution"):
            goodput_timeline(
                [0.1], window=1.0, end_time=3.0, resolution=0.0
            )
        assert goodput_timeline(
            [0.1], window=1.0, end_time=1.0, resolution=0.5
        ) == [(0.0, 1.0)]

    def test_goodput_timeline_excludes_pre_window_tokens(self):
        # int() truncates toward zero: a token at start-0.5 must not land
        # in bucket 0.
        timeline = goodput_timeline(
            [4.5, 5.5], window=1.0, end_time=10.0, start=5.0
        )
        assert timeline[0] == (5.0, 1.0)

    def test_disruption_report_math(self):
        # 10 tok/s for 10s, outage at 10-12, 8 tok/s afterwards.
        times = [i * 0.1 for i in range(100)]
        times += [12.0 + i * 0.125 for i in range(64)]
        report = disruption_report(
            times,
            window=2.0,
            end_time=20.0,
            first_disruption=10.0,
            recovered_from=12.0,
            replan_latencies=[0.5, 0.3],
            requests_retried=3,
        )
        assert report.pre_disruption_goodput == pytest.approx(10.0)
        assert report.post_recovery_goodput == pytest.approx(8.0)
        assert report.recovery_ratio == pytest.approx(0.8)
        # The outage bucket [10, 12) is dead; goodput regains 70% of its
        # pre-disruption level in the bucket starting at 12.
        assert report.time_to_recovery == pytest.approx(2.0)
        assert report.replan_count == 2
        assert report.replan_latency_max == pytest.approx(0.5)
        assert report.requests_retried == 3
        assert "recovery 80%" in report.summary()

    def test_report_rejects_window_off_the_timeline_grid(
        self, small_cluster, tiny_model, placement8
    ):
        """``report`` reads the simulation's bucketed timeline, so a
        window that splits its buckets is refused instead of quietly
        mis-binning tokens; windows on the grid are accepted."""
        controller = OnlineController(
            tiny_model, events=[NodeFailure(1.0, "a100-0")], replan=False
        )
        requests = [
            Request(f"r{i}", 32, 8, arrival_time=i * 0.05) for i in range(60)
        ]
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=30.0, seed=0, controller=controller,
        )
        sim.run()
        assert sim.timeline_resolution == 0.0625
        for window in (0.3, 0.1, 0.03125):
            with pytest.raises(ValueError, match="resolution"):
                controller.report(sim, window=window)
        for window in (0.25, 0.5, 1.0, 2.0, 3.0):
            controller.report(sim, window=window)

    def test_disruption_report_without_pre_window(self):
        report = disruption_report(
            [0.5, 1.5],
            window=1.0,
            end_time=2.0,
            first_disruption=0.0,
            recovered_from=0.0,
        )
        assert math.isnan(report.pre_disruption_goodput)
        assert math.isnan(report.recovery_ratio)


class TestReplanEntryPoint:
    def test_replan_improves_unservable_base(self, small_cluster, tiny_model):
        base = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        survivors = small_cluster.subcluster(["l4-0", "t4-0", "t4-1"])
        result = HelixMilpPlanner(survivors, tiny_model).replan(base=base)
        assert result.max_throughput > 0
        result.placement.validate()
        assert set(result.placement.used_nodes) <= {"l4-0", "t4-0", "t4-1"}

    def test_replan_keeps_servable_base_value(self, small_cluster, tiny_model):
        base = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
        )
        planner = HelixMilpPlanner(small_cluster, tiny_model)
        base_value = planner.placement_throughput(base)
        result = planner.replan(base=base)
        assert result.max_throughput >= base_value - 1e-6

    @pytest.mark.parametrize(
        "family, seed, prune_degree, expected",
        [("geo_regions", 3, 2, 1913.869024), ("full_mesh", 2, 1, 3806.389448)],
    )
    def test_replan_ranks_on_the_full_cluster(
        self, family, seed, prune_degree, expected
    ):
        # On the pruned cluster these hints rank differently: the replan
        # used to return 1154.2 (geo_regions/3) and 3618.1 (full_mesh/2)
        # tok/s of full-cluster value, a hint it had scored and rejected.
        scenario = generate_scenario(family, seed)
        planner = HelixMilpPlanner(
            scenario.cluster, scenario.model, prune_degree=prune_degree
        )
        hints = planner.heuristic_hints(
            prune_cluster(scenario.cluster, prune_degree)
        )
        result = planner.replan()
        assert result.max_throughput == max(
            planner.placement_throughput(hint) for hint in hints
        )
        assert result.max_throughput == pytest.approx(expected, rel=1e-9)


def test_online_churn_bench_meets_acceptance():
    """The fig12-small kill-a-planned-node scenario, tier-1 sized.

    LLaMA-30B is planned on the Fig. 12 cluster and flooded with a scaled
    Azure trace (KV capacity scaled alike); the planned node carrying the
    most max flow dies at t=12 s. Acceptance: windowed goodput recovers to
    >= 70% of its pre-failure level after the repaired placement applies,
    and the replanning itself stays cheap (< 2 s wall).
    """
    from repro.cluster import Profiler, small_cluster_fig12
    from repro.models.specs import LLAMA_30B
    from repro.trace import offline_arrivals
    from repro.trace.azure import (
        AZURE_MEAN_OUTPUT, AzureTraceConfig, synthesize_azure_trace,
    )

    scale = 0.25
    cluster = small_cluster_fig12()
    profiler = Profiler(kv_capacity_scale=scale)
    result = HelixMilpPlanner(
        cluster, LLAMA_30B, profiler, time_limit=8.0, mip_rel_gap=0.05
    ).plan()
    trace = offline_arrivals(synthesize_azure_trace(
        AzureTraceConfig(num_requests=150, seed=0, scale=scale)
    ))
    scheduler = HelixScheduler(
        cluster, LLAMA_30B, result.placement, profiler, flow=result.flow,
        expected_output_len=AZURE_MEAN_OUTPUT * scale,
    )
    node_flows = result.flow.node_flows
    victim = max(
        result.placement.used_nodes, key=lambda nid: node_flows.get(nid, 0.0)
    )
    controller = OnlineController(
        LLAMA_30B, events=[NodeFailure(12.0, victim)], profiler=profiler
    )
    sim = Simulation(
        cluster, LLAMA_30B, result.placement, scheduler, trace,
        profiler=profiler, max_batch_tokens=2048, max_time=30.0, seed=0,
        controller=controller,
    )
    metrics = sim.run()
    applied = controller.applied_replans
    assert len(applied) >= 1, controller.replans
    report = controller.report(sim, window=3.0)
    assert report.recovery_ratio >= 0.7, (
        "fig12 churn scenario failed to recover: "
        f"ratio {report.recovery_ratio:.2f}"
    )
    assert max(r.wall_seconds for r in applied) < 2.0
    assert metrics.requests_retried > 0
    assert metrics.kv_overflow_events == 0


class TestScheduleValidation:
    """validate_schedule rejects malformed schedules before the run."""

    def test_valid_schedule_passes(self, small_cluster):
        validate_schedule(
            [
                NodeFailure(1.0, "a100-0"),
                NodeRecovery(2.0, "a100-0"),
                LinkDegradation(3.0, "a100-0", "l4-0"),
                LinkRecovery(4.0, "a100-0", "l4-0"),
            ],
            small_cluster,
        )

    def test_negative_time_rejected(self, small_cluster):
        with pytest.raises(ClusterError, match="negative time"):
            validate_schedule([NodeFailure(-1.0, "a100-0")], small_cluster)

    def test_nan_time_rejected(self, small_cluster):
        with pytest.raises(ClusterError):
            validate_schedule([NodeFailure(math.nan, "a100-0")], small_cluster)

    @pytest.mark.parametrize("when", [math.nan, -1.0])
    def test_schedule_event_rejects_nan_and_past_times(
        self, small_cluster, tiny_model, placement8, when
    ):
        sim = make_simulation(
            small_cluster, tiny_model, placement8, [Request("r0", 16, 2)]
        )
        with pytest.raises(SimulationError, match="scheduled in the past"):
            sim.schedule_event(when, lambda s: None)

    def test_unknown_node_rejected(self, small_cluster):
        with pytest.raises(ClusterError, match="unknown node"):
            validate_schedule([NodeFailure(1.0, "nope-0")], small_cluster)

    def test_unknown_link_rejected(self, small_cluster):
        with pytest.raises(ClusterError, match="unknown link"):
            validate_schedule(
                [LinkDegradation(1.0, "a100-0", "nope-0")], small_cluster
            )

    def test_recovery_without_failure_rejected(self, small_cluster):
        with pytest.raises(ClusterError, match="never failed"):
            validate_schedule([NodeRecovery(1.0, "a100-0")], small_cluster)

    @pytest.mark.parametrize(
        "event",
        [
            LinkDegradation(1.0, "a100-0", "l4-0", factor=0.0),
            LinkDegradation(1.0, "a100-0", "l4-0", factor=math.nan),
            StragglerStart(1.0, "t4-0", slowdown=-2.0),
            StragglerStart(1.0, "t4-0", slowdown=math.inf),
            FlakyLink(1.0, "a100-0", "l4-0", drop_probability=1.0),
            FlakyLink(1.0, "a100-0", "l4-0", retransmit_delay=-0.1),
        ],
        ids=["zero-factor", "nan-factor", "negative-slowdown",
             "inf-slowdown", "certain-drop", "negative-retransmit"],
    )
    def test_bad_event_parameters_rejected(self, small_cluster, event):
        """Each of these would otherwise fail only when it fires."""
        with pytest.raises(
            ClusterError, match=rf"^{type(event).__name__} at t=1 "
        ):
            validate_schedule([event], small_cluster)

    def test_zombie_counts_as_failure_for_recovery(self, small_cluster):
        validate_schedule(
            [ZombieNode(1.0, "t4-0"), NodeRecovery(5.0, "t4-0")],
            small_cluster,
        )

    def test_controller_start_validates(self, small_cluster, tiny_model,
                                        placement8):
        requests = [Request("r0", 16, 2)]
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow
        )
        controller = OnlineController(
            tiny_model, events=[NodeFailure(1.0, "typo-node")], replan=False
        )
        sim = Simulation(
            small_cluster, tiny_model, placement8, scheduler, requests,
            controller=controller,
        )
        with pytest.raises(ClusterError, match="unknown node"):
            sim.run()

    def test_zombie_needs_detection_mode(
        self, small_cluster, tiny_model, placement8
    ):
        """Only the detector's watchdog recovers a zombie's stalled
        requests, so a schedule with one is refused without it."""
        controller = OnlineController(
            tiny_model, events=[ZombieNode(1.5, "t4-0")], replan=False
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, [Request("r0", 16, 2)],
            controller=controller,
        )
        with pytest.raises(
            ClusterError, match=r"^ZombieNode at t=1.5 needs detection_mode"
        ):
            sim.run()


class TestDetectorDeterminism:
    """Same seed + schedule => identical detection behavior (satellite)."""

    @staticmethod
    def _run_chaos(seed):
        from repro.bench.runner import make_scheduler
        from repro.scenarios.generator import generate_scenario
        from repro.testkit.harness import _plan

        scenario = generate_scenario("chaos", seed, "smoke")
        _, _, planner_result = _plan(scenario)
        scheduler = make_scheduler(
            scenario.scheduler_method, scenario.cluster, scenario.model,
            planner_result, seed=scenario.seed,
        )
        controller = OnlineController(
            scenario.model, events=scenario.churn, replan=False,
            detection_mode=True,
        )
        sim = Simulation(
            scenario.cluster, scenario.model, planner_result.placement,
            scheduler, scenario.requests, max_time=scenario.max_time,
            seed=scenario.seed, controller=controller,
            policy=scenario.policy, debug_validate=True,
        )
        sim.run()
        detector = controller.detector
        return (
            detector.timeline,
            controller.detections,
            detector.false_positives,
            detector.heartbeats_sent,
            detector.heartbeats_dropped,
            sim.token_timeline,
        )

    #: Per seed: heartbeats sent / dropped, false positives, timeline
    #: length, and sha256 of ``repr((timeline, detections))``. Recorded
    #: when each node still scheduled its own heartbeat events, so the
    #: per-round emission is pinned against that engine.
    PINNED = {
        0: (1018, 0, 0, 2, "7a6ba176bf7cd46097ae0719a54c0419"
                           "42823188d8302b5e84b7e0954fc145ab"),
        3: (772, 0, 0, 2, "ffc04b80a4107c0f30f23e4c4bb47c2d"
                          "abede490c000066ddcb400c7395d3f61"),
    }

    @pytest.mark.parametrize("seed", [0, 3])
    def test_same_seed_identical_detection(self, seed):
        first = self._run_chaos(seed)
        second = self._run_chaos(seed)
        assert first == second
        timeline, detections, false_positives, sent, dropped, _ = first
        digest = hashlib.sha256(
            repr((timeline, detections)).encode()
        ).hexdigest()
        assert (
            sent, dropped, false_positives, len(timeline), digest
        ) == self.PINNED[seed]

    def test_detection_actually_happens(self):
        timeline, detections, false_positives, *_ = self._run_chaos(0)
        assert detections, "seed 0 must exercise a confirmed detection"
        assert false_positives == 0
        assert any(row[1].startswith("suspect:") for row in timeline)
        assert any(row[1].startswith("confirm:") for row in timeline)


class TestPhiAccrualPaths:
    """Exercise the heartbeat/phi branches the watchdog usually shadows."""

    def test_crash_detected_by_phi_when_watchdog_disabled(
        self, small_cluster, tiny_model, placement8, monkeypatch
    ):
        from repro.online import detect

        # Effectively disable the progress watchdog so the missing
        # heartbeats (phi accrual) must carry the detection.
        monkeypatch.setattr(detect, "ZOMBIE_TIMEOUT", 1e9)
        requests = [
            Request(f"r{i}", 32, 8, arrival_time=i * 0.2) for i in range(60)
        ]
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow
        )
        controller = OnlineController(
            tiny_model,
            events=[NodeFailure(2.0, "a100-0")],
            replan=False,
            detection_mode=True,
        )
        sim = Simulation(
            small_cluster, tiny_model, placement8, scheduler, requests,
            max_time=60.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert len(controller.detections) == 1
        _, node_id, kind, mttd = controller.detections[0]
        assert node_id == "a100-0"
        assert kind == "crash"
        assert 0.0 < mttd < 15.0
        assert controller.detector.false_positives == 0
        assert metrics.requests_finished == 60

    def test_flap_clears_suspicion_damps_threshold_and_counts_fp(self):
        """A late heartbeat while suspected = a flap: clear + damp + FP."""
        from repro.online import FailureDetector
        from repro.online.detect import FLAP_DAMPING, PHI_THRESHOLD

        class FakeSim:
            def __init__(self):
                self.now = 0.0
                self.channels = {}
                self.executors = {}
                self.fault_times = {}
                self.scheduled = []

            def node_state(self, node_id):
                return "serving"

            def schedule_event(self, when, fn):
                self.scheduled.append((when, fn))

        from repro.online.detect import _NodeState

        sim = FakeSim()
        detector = FailureDetector(sim)
        detector._nodes["n0"] = state = _NodeState(0.0)
        # Three on-time heartbeats (MIN_SAMPLES) establish the interval
        # window.
        for t in (0.25, 0.5, 0.75):
            sim.now = t
            detector._on_heartbeat("n0")
        assert len(state.intervals) == 3
        # Silence long enough that phi crosses the threshold: 4.75 s of
        # silence after 0.25 s intervals is phi = 8.25 > 8.
        sim.now = 5.5
        detector._check()
        assert detector.suspected == {"n0": "crash"}
        assert (5.5, "suspect:crash", "n0") in detector.timeline
        # The node heartbeats after all: suspicion clears, the threshold
        # damps, and (no ground-truth fault) a false positive is counted.
        sim.now = 5.6
        detector._on_heartbeat("n0")
        assert detector.suspected == {}
        assert state.threshold == PHI_THRESHOLD * FLAP_DAMPING
        assert detector.false_positives == 1
        assert any(row[1] == "clear:crash" for row in detector.timeline)


def test_topology_is_fixed_once_a_simulation_exists():
    """No simulator or online-control code adds a node or a link, so a
    run's channels and flow-graph edges are all built up front. Sources
    are parsed, not imported, so a call inside any function counts."""
    import ast
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    sources = sorted((src / "sim").glob("*.py")) + sorted(
        (src / "online").glob("*.py")
    )
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("add_node", "connect")
    ]
    assert not offenders, offenders
