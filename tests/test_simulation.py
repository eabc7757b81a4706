"""End-to-end simulation tests on small clusters."""

import pytest

from repro.bench import congestion_report
from repro.core.errors import SimulationError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.scheduling import HelixScheduler, RandomScheduler, ShortestQueueScheduler
from repro.sim import Request, Simulation


@pytest.fixture()
def placement8():
    return ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
    )


def make_simulation(cluster, model, placement, requests, **kwargs):
    flow = FlowGraph(cluster, model, placement).solve()
    scheduler = HelixScheduler(cluster, model, placement, flow=flow)
    return Simulation(cluster, model, placement, scheduler, requests, **kwargs)


class TestBasicRuns:
    def test_single_request_completes(self, small_cluster, tiny_model, placement8):
        requests = [Request("r0", input_len=32, output_len=5)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        metrics = sim.run()
        record = sim.record_of("r0")
        assert record.finished
        assert record.tokens_generated == 5
        assert len(record.token_times) == 5
        assert metrics.requests_finished == 1

    def test_token_times_strictly_increase(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request("r0", 64, 10)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        sim.run()
        times = sim.record_of("r0").token_times
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_all_requests_complete(self, small_cluster, tiny_model, placement8):
        requests = [Request(f"r{i}", 16 + i, 4) for i in range(40)]
        metrics = make_simulation(
            small_cluster, tiny_model, placement8, requests
        ).run()
        assert metrics.requests_finished == 40
        assert metrics.requests_submitted == 40

    def test_prompt_latency_positive(self, small_cluster, tiny_model, placement8):
        requests = [Request("r0", 128, 3, arrival_time=1.0)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        sim.run()
        assert sim.record_of("r0").prompt_latency > 0

    def test_deterministic_across_runs(self, small_cluster, tiny_model, placement8):
        requests = [Request(f"r{i}", 30, 6, arrival_time=i * 0.05) for i in range(20)]
        results = []
        for _ in range(2):
            sim = make_simulation(small_cluster, tiny_model, placement8, requests)
            metrics = sim.run()
            results.append(
                (metrics.decode_throughput, metrics.prompt_latency.mean)
            )
        assert results[0] == results[1]

    def test_empty_trace_rejected(self, small_cluster, tiny_model, placement8):
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow
        )
        with pytest.raises(SimulationError, match="empty"):
            Simulation(
                small_cluster, tiny_model, placement8, scheduler, []
            )

    @pytest.mark.parametrize("second_arrival", [0.5, 1e4])
    def test_duplicate_request_ids_rejected(self, second_arrival):
        # A close duplicate used to crash inside run() ("already
        # scheduled"); a late one silently merged into one record.
        from repro.cluster import Profiler, small_cluster_fig12
        from repro.models.specs import LLAMA_30B
        from repro.placement.petals import PetalsPlanner

        cluster = small_cluster_fig12()
        result = PetalsPlanner(cluster, LLAMA_30B, Profiler()).plan()
        scheduler = HelixScheduler(
            cluster, LLAMA_30B, result.placement, flow=result.flow
        )
        requests = [Request("r", 64, 20, 0.0), Request("r", 64, 20, second_arrival)]
        with pytest.raises(SimulationError, match="duplicate request_id 'r'"):
            Simulation(cluster, LLAMA_30B, result.placement, scheduler, requests)

    @pytest.mark.parametrize("warmup,max_time", [
        (-5.0, 3600.0),
        (float("nan"), 3600.0),
        (float("inf"), 3600.0),
        (0.0, float("nan")),
        (10.0, 10.0),
        (10.0, 5.0),
    ])
    def test_bad_measurement_window_rejected(
        self, small_cluster, tiny_model, placement8, warmup, max_time
    ):
        # These used to run: a negative warmup stretched the throughput
        # window before t=0, NaN warmup reported NaN, NaN max_time ran
        # unbounded, and max_time <= warmup served nothing.
        requests = [Request("r0", 32, 5)]
        with pytest.raises(SimulationError, match="warmup"):
            make_simulation(
                small_cluster, tiny_model, placement8, requests,
                warmup=warmup, max_time=max_time,
            )

    def test_unbounded_horizon_accepted(
        self, small_cluster, tiny_model, placement8
    ):
        requests = [Request("r0", 32, 5)]
        metrics = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=float("inf"),
        ).run()
        assert metrics.requests_finished == 1

    def test_max_time_truncates(self, small_cluster, tiny_model, placement8):
        requests = [Request(f"r{i}", 512, 200) for i in range(50)]
        metrics = make_simulation(
            small_cluster, tiny_model, placement8, requests, max_time=2.0
        ).run()
        assert metrics.requests_finished < 50
        assert metrics.duration <= 2.0 + 1e-9


class TestSchedulingIntegration:
    def test_pending_queue_drains_after_finishes(
        self, small_cluster, tiny_model, placement8
    ):
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow,
            # Each request reserves 512 + 50,000 of a T4's ~970k KV
            # tokens, so most requests wait in the pending queue.
            expected_output_len=50_000.0,
        )
        requests = [Request(f"r{i}", 512, 4) for i in range(200)]
        sim = Simulation(
            small_cluster, tiny_model, placement8, scheduler, requests,
            max_time=10_000.0,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 200
        assert any(
            sim.record_of(r.request_id).schedule_time > r.arrival_time
            for r in requests
        )

    def test_kv_masking_prevents_overflow(
        self, small_cluster, tiny_model, placement8
    ):
        flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement8, flow=flow,
            expected_output_len=40.0,
        )
        requests = [Request(f"r{i}", 256, 8) for i in range(300)]
        sim = Simulation(
            small_cluster, tiny_model, placement8, scheduler, requests,
            max_time=20_000.0,
        )
        metrics = sim.run()
        assert metrics.kv_overflow_events == 0

    def test_other_schedulers_complete(self, small_cluster, tiny_model, placement8):
        for scheduler_cls in (RandomScheduler, ShortestQueueScheduler):
            scheduler = scheduler_cls(small_cluster, tiny_model, placement8)
            requests = [Request(f"r{i}", 32, 4) for i in range(30)]
            metrics = Simulation(
                small_cluster, tiny_model, placement8, scheduler, requests
            ).run()
            assert metrics.requests_finished == 30

    def test_kv_pools_empty_after_drain(self, small_cluster, tiny_model, placement8):
        requests = [Request(f"r{i}", 32, 4) for i in range(20)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        sim.run()
        for pool in sim.kv_pools.values():
            assert pool.used_tokens == 0


class TestNetworkEffects:
    def test_slow_link_shows_congestion(self, two_region_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-0": (4, 8), "t4-1": (4, 8)}
        )
        requests = [Request(f"r{i}", 256, 4) for i in range(60)]
        sim = make_simulation(two_region_cluster, tiny_model, placement, requests)
        sim.run()
        report = congestion_report(sim, top=3)
        assert report, "expected at least one used link"
        # The congested links are the slow cross-region hops out of a100-0.
        assert report[0].src == "a100-0" or report[0].src == "coordinator"

    def test_latency_adds_to_prompt_latency(self, two_region_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-0": (4, 8), "t4-1": (4, 8)}
        )
        requests = [Request("r0", 16, 2)]
        sim = make_simulation(two_region_cluster, tiny_model, placement, requests)
        sim.run()
        # Path crosses two 50 ms links (a100->t4, t4->coordinator).
        assert sim.record_of("r0").prompt_latency >= 0.1

    def test_utilization_reported(self, small_cluster, tiny_model, placement8):
        requests = [Request(f"r{i}", 64, 8) for i in range(50)]
        sim = make_simulation(small_cluster, tiny_model, placement8, requests)
        metrics = sim.run()
        duration = max(metrics.duration, 1e-9)
        utils = {
            nid: ex.utilization(duration) for nid, ex in sim.executors.items()
        }
        assert all(0.0 <= u <= 1.0 for u in utils.values())
        assert any(u > 0.0 for u in utils.values())
