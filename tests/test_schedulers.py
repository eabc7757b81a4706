"""Tests for the Helix scheduler, baselines, and KV estimation."""

import math

import pytest

from repro.core.errors import SchedulingError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.scheduling import (
    FixedPipelineScheduler,
    HelixScheduler,
    KVCacheEstimator,
    RandomScheduler,
    ShortestQueueScheduler,
    SwarmScheduler,
)
from repro.scheduling.pipelines import PipelineStage, RequestPipeline


@pytest.fixture()
def placement8():
    return ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
    )


@pytest.fixture()
def flow8(small_cluster, tiny_model, placement8):
    return FlowGraph(small_cluster, tiny_model, placement8).solve()


class TestPipelineTypes:
    def test_pipeline_validates_coverage(self):
        pipeline = RequestPipeline.from_stages(
            [PipelineStage("a", 0, 4), PipelineStage("b", 4, 8)]
        )
        pipeline.validate(8)

    def test_pipeline_detects_gap(self):
        pipeline = RequestPipeline.from_stages(
            [PipelineStage("a", 0, 3), PipelineStage("b", 4, 8)]
        )
        with pytest.raises(SchedulingError, match="gap"):
            pipeline.validate(8)

    def test_pipeline_detects_incomplete(self):
        pipeline = RequestPipeline.from_stages([PipelineStage("a", 0, 6)])
        with pytest.raises(SchedulingError, match="covers"):
            pipeline.validate(8)

    def test_pipeline_detects_repeat_node(self):
        pipeline = RequestPipeline.from_stages(
            [PipelineStage("a", 0, 4), PipelineStage("a", 4, 8)]
        )
        with pytest.raises(SchedulingError, match="twice"):
            pipeline.validate(8)

    def test_invalid_stage_interval(self):
        with pytest.raises(SchedulingError):
            PipelineStage("a", 4, 4)


class TestKVEstimator:
    def test_admit_until_high_water(self):
        est = KVCacheEstimator({"n": 1000}, expected_output_len=50)
        # Each request: 100 + 50 = 150 estimated tokens; 6 x 150 = 900 = HWM.
        for _ in range(6):
            assert est.admits("n", 100)
            est.charge("n", 100)
        assert not est.admits("n", 100)

    def test_release_restores_admission(self):
        est = KVCacheEstimator({"n": 400}, expected_output_len=100)
        est.charge("n", 200)
        assert not est.admits("n", 200)
        est.release("n", 200)
        assert est.admits("n", 200)

    def test_unknown_node_never_admits(self):
        est = KVCacheEstimator({"n": 100})
        assert not est.admits("ghost", 1)

    def test_occupancy_reporting(self):
        est = KVCacheEstimator({"n": 1000}, expected_output_len=0)
        est.charge("n", 250)
        assert est.occupancy("n") == pytest.approx(0.25)
        assert est.capacity("n") == 1000

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_bad_expected_output_len_rejected(
        self, bad, small_cluster, tiny_model, placement8, flow8
    ):
        # NaN used to mask every node, so every schedule() returned None.
        with pytest.raises(SchedulingError, match="expected_output_len"):
            KVCacheEstimator({"n": 1000}, expected_output_len=bad)
        with pytest.raises(SchedulingError, match="expected_output_len"):
            HelixScheduler(
                small_cluster, tiny_model, placement8, flow=flow8,
                expected_output_len=bad,
            )

    def test_release_clamps_at_zero(self):
        est = KVCacheEstimator({"n": 100}, expected_output_len=0)
        est.release("n", 50)
        assert est.occupancy("n") == 0.0


class TestHelixScheduler:
    def test_pipelines_are_valid(self, small_cluster, tiny_model, placement8, flow8):
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow8
        )
        for i in range(50):
            pipeline = scheduler.schedule(f"r{i}", 64)
            assert pipeline is not None
            pipeline.validate(8)

    def test_weights_come_from_flow(self, small_cluster, tiny_model, placement8, flow8):
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow8
        )
        weights = scheduler.selector_weights("coordinator")
        for successor, weight in weights.items():
            assert weight == pytest.approx(
                flow8.connection_flows[("coordinator", successor)]
            )

    def test_traffic_follows_flow_ratio(
        self, small_cluster, tiny_model, placement8, flow8
    ):
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow8
        )
        first_hops = {}
        n = 400
        for i in range(n):
            pipeline = scheduler.schedule(f"r{i}", 8)
            first = pipeline.stages[0].node_id
            first_hops[first] = first_hops.get(first, 0) + 1
            scheduler.notify_finished(f"r{i}")
        total_flow = sum(
            flow8.connection_flows.get(("coordinator", nid), 0.0)
            for nid in ("a100-0", "t4-1")
        )
        for nid, count in first_hops.items():
            expected = n * flow8.connection_flows[("coordinator", nid)] / total_flow
            assert abs(count - expected) <= 0.05 * n + 2

    def test_zero_flow_placement_rejected(self, small_cluster, tiny_model, placement8, flow8):
        from dataclasses import replace

        empty = replace(flow8, max_flow=0.0)
        with pytest.raises(SchedulingError, match="no flow"):
            HelixScheduler(small_cluster, tiny_model, placement8, flow=empty)

    def test_kv_mask_blocks_when_full(self, small_cluster, tiny_model, placement8, flow8):
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow8,
            expected_output_len=1e7,  # absurd estimate: nothing admits
        )
        assert scheduler.schedule("r0", 64) is None

    def test_double_schedule_rejected(self, small_cluster, tiny_model, placement8, flow8):
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow8
        )
        assert scheduler.schedule("r0", 8) is not None
        with pytest.raises(SchedulingError, match="already"):
            scheduler.schedule("r0", 8)

    def test_notify_finished_releases(self, small_cluster, tiny_model, placement8, flow8):
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow8
        )
        pipeline = scheduler.schedule("r0", 64)
        node = pipeline.stages[0].node_id
        assert scheduler.outstanding[node] == 1
        scheduler.notify_finished("r0")
        assert scheduler.outstanding[node] == 0
        assert scheduler.active_requests == 0

    def test_pipeline_of_active_request(self, small_cluster, tiny_model, placement8, flow8):
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow8
        )
        pipeline = scheduler.schedule("r0", 8)
        assert scheduler.pipeline_of("r0") is pipeline
        with pytest.raises(SchedulingError):
            scheduler.pipeline_of("ghost")


class TestBaselineSchedulers:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda c, m, p: SwarmScheduler(c, m, p, seed=3),
            lambda c, m, p: RandomScheduler(c, m, p, seed=3),
            lambda c, m, p: ShortestQueueScheduler(c, m, p),
        ],
    )
    def test_baselines_build_valid_pipelines(
        self, small_cluster, tiny_model, placement8, factory
    ):
        scheduler = factory(small_cluster, tiny_model, placement8)
        for i in range(30):
            pipeline = scheduler.schedule(f"r{i}", 32)
            assert pipeline is not None
            pipeline.validate(8)

    def test_swarm_ewma_update(self, small_cluster, tiny_model, placement8):
        scheduler = SwarmScheduler(small_cluster, tiny_model, placement8, seed=0)
        before = scheduler.throughput_estimate("a100-0")
        scheduler.notify_node_progress("a100-0", tokens=10000, elapsed=0.1)
        after = scheduler.throughput_estimate("a100-0")
        assert after != before

    def test_shortest_queue_balances(self, small_cluster, tiny_model, placement8):
        scheduler = ShortestQueueScheduler(small_cluster, tiny_model, placement8)
        for i in range(8):
            scheduler.schedule(f"r{i}", 8)
        # Two entry nodes should have near-equal outstanding counts.
        assert abs(
            scheduler.outstanding["a100-0"] - scheduler.outstanding["t4-1"]
        ) <= 1

    def test_random_deterministic_with_seed(
        self, small_cluster, tiny_model, placement8
    ):
        runs = []
        for _ in range(2):
            scheduler = RandomScheduler(small_cluster, tiny_model, placement8, seed=7)
            runs.append(
                [scheduler.schedule(f"r{i}", 8).node_ids for i in range(10)]
            )
        assert runs[0] == runs[1]


class TestFixedPipelineScheduler:
    def test_round_robin_over_pipelines(self, small_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(
            8,
            {"a100-0": (0, 8), "l4-0": (0, 8)},
        )
        scheduler = FixedPipelineScheduler(
            small_cluster, tiny_model, placement,
            pipelines=[["a100-0"], ["l4-0"]],
        )
        firsts = [scheduler.schedule(f"r{i}", 8).stages[0].node_id for i in range(4)]
        assert firsts == ["a100-0", "l4-0", "a100-0", "l4-0"]

    def test_requires_pipelines(self, small_cluster, tiny_model, placement8):
        with pytest.raises(SchedulingError, match="no fixed pipelines"):
            FixedPipelineScheduler(
                small_cluster, tiny_model, placement8, pipelines=[]
            )

    def test_invalid_pipeline_rejected(self, small_cluster, tiny_model, placement8):
        with pytest.raises(SchedulingError):
            FixedPipelineScheduler(
                small_cluster, tiny_model, placement8,
                pipelines=[["l4-0"]],  # starts at layer 4: gap at 0
            )

    def test_skips_full_pipeline(self, small_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 8), "t4-0": (0, 8)}
        )
        scheduler = FixedPipelineScheduler(
            small_cluster, tiny_model, placement,
            pipelines=[["a100-0"], ["t4-0"]],
            expected_output_len=0.0,
        )
        capacity = scheduler.kv.capacity("t4-0")
        # Fill t4-0 beyond its high-water mark.
        scheduler.kv.charge("t4-0", int(capacity * 0.95))
        firsts = {scheduler.schedule(f"r{i}", 8).stages[0].node_id for i in range(4)}
        assert firsts == {"a100-0"}


class TestKVEstimatorPipelineCharges:
    """charge_pipeline/release_pipeline == per-node charge/release."""

    def test_pipeline_charge_matches_per_node(self):
        from repro.scheduling.kv_estimator import KVCacheEstimator

        a = KVCacheEstimator({"x": 1000, "y": 500}, expected_output_len=50.0)
        b = KVCacheEstimator({"x": 1000, "y": 500}, expected_output_len=50.0)
        a.charge("x", 30)
        a.charge("y", 30)
        b.charge_pipeline(["x", "y"], 30)
        assert a.occupancy("x") == b.occupancy("x")
        assert a.occupancy("y") == b.occupancy("y")
        a.release("x", 30)
        a.release("y", 30)
        b.release_pipeline(["x", "y"], 30)
        assert a.occupancy("x") == b.occupancy("x") == 0.0
        assert a.occupancy("y") == b.occupancy("y") == 0.0

    def test_pipeline_release_clamps_at_zero(self):
        from repro.scheduling.kv_estimator import KVCacheEstimator

        est = KVCacheEstimator({"x": 100}, expected_output_len=10.0)
        est.release_pipeline(["x", "unknown"], 500)
        assert est.occupancy("x") == 0.0
