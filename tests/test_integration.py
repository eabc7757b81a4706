"""Cross-module integration tests: planner -> scheduler -> simulator."""

import pytest

from repro import (
    AzureTraceConfig,
    HelixMilpPlanner,
    Profiler,
    synthesize_azure_trace,
)
from repro.bench.runner import make_planner, make_scheduler, make_simulation
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.scheduling import HelixScheduler, RandomScheduler
from repro.sim import Request, Simulation
from repro.trace import diurnal_arrivals, offline_arrivals, rate_for_utilization


class TestFullPipeline:
    def test_helix_end_to_end_on_small_cluster(self, small_cluster, tiny_model):
        profiler = Profiler()
        planner = HelixMilpPlanner(
            small_cluster, tiny_model, profiler, time_limit=15, mip_rel_gap=0.05
        )
        result = planner.plan()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, result.placement, profiler,
            flow=result.flow,
        )
        trace = [Request(f"r{i}", 32, 6) for i in range(40)]
        metrics = Simulation(
            small_cluster, tiny_model, result.placement, scheduler, trace,
            profiler=profiler,
        ).run()
        assert metrics.requests_finished == 40
        assert metrics.kv_overflow_events == 0
        assert metrics.decode_throughput > 0

    @pytest.mark.parametrize("placement_method", ["swarm", "petals", "sp"])
    @pytest.mark.parametrize("scheduler_method", ["helix", "random"])
    def test_method_matrix(
        self, small_cluster, tiny_model, small_spec, placement_method,
        scheduler_method,
    ):
        planner_result = make_planner(
            placement_method, small_cluster, tiny_model
        ).plan()
        trace = [Request(f"r{i}", 24, 4) for i in range(20)]
        sim = make_simulation(small_spec(
            planner_result, scheduler_method, offline_arrivals(trace),
            max_time=600.0,
        ))
        assert sim.run().requests_finished == 20
        scheduler_class = {
            "helix": HelixScheduler, "random": RandomScheduler,
        }[scheduler_method]
        assert type(sim.scheduler) is scheduler_class

    def test_planned_throughput_bounds_simulated(
        self, small_cluster, tiny_model, small_spec
    ):
        """Simulated total token rate never exceeds the max-flow bound."""
        planner_result = make_planner("petals", small_cluster, tiny_model).plan()
        trace = [Request(f"r{i}", 50, 20) for i in range(150)]
        metrics = make_simulation(small_spec(
            planner_result, "helix", offline_arrivals(trace), max_time=3000.0,
        )).run()
        total_tokens = sum(r.total_tokens for r in trace)
        # All requests finished: average total-token rate over the run.
        assert metrics.requests_finished == 150
        rate = total_tokens / metrics.duration
        assert rate <= planner_result.max_throughput * 1.05

    def test_kv_capacity_scale_reduces_concurrency(self, small_cluster, tiny_model):
        planner_result = make_planner("petals", small_cluster, tiny_model).plan()
        scaled = Profiler(kv_capacity_scale=0.01)
        node = small_cluster.node("t4-0")
        full = Profiler().kv_capacity(node, tiny_model, 4)
        small = scaled.kv_capacity(node, tiny_model, 4)
        assert small == int(full * 0.01)

    def test_online_less_bursty_than_offline(
        self, small_cluster, tiny_model, small_spec
    ):
        planner_result = make_planner("petals", small_cluster, tiny_model).plan()
        trace = synthesize_azure_trace(
            AzureTraceConfig(num_requests=60, seed=3, scale=0.1)
        )
        offline = make_simulation(small_spec(
            planner_result, "helix", offline_arrivals(trace), max_time=4000.0,
        )).run()
        rate = rate_for_utilization(planner_result.max_throughput, trace, 0.5)
        online = make_simulation(small_spec(
            planner_result, "helix",
            diurnal_arrivals(trace, mean_rate=rate, seed=1), max_time=8000.0,
        )).run()
        assert online.prompt_latency.p95 <= max(
            offline.prompt_latency.p95, 1e-6
        )

    def test_simulation_conserves_tokens(self, small_cluster, tiny_model):
        """Every finished request emitted exactly output_len tokens."""
        planner_result = make_planner("swarm", small_cluster, tiny_model).plan()
        scheduler = make_scheduler(
            "helix", small_cluster, tiny_model, planner_result
        )
        trace = [Request(f"r{i}", 16 + i % 7, 3 + i % 5) for i in range(30)]
        sim = Simulation(
            small_cluster, tiny_model, planner_result.placement, scheduler,
            trace,
        )
        sim.run()
        for request in trace:
            record = sim.record_of(request.request_id)
            assert record.tokens_generated == request.output_len

    def test_partial_inference_pipeline_layers(self, small_cluster, tiny_model):
        """Overlapping placement yields partial stages that still cover."""
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 6), "l4-0": (4, 8), "t4-0": (0, 4), "t4-1": (2, 8)}
        )
        flow = FlowGraph(small_cluster, tiny_model, placement).solve()
        scheduler = HelixScheduler(
            small_cluster, tiny_model, placement, flow=flow
        )
        for i in range(20):
            pipeline = scheduler.schedule(f"r{i}", 16)
            pipeline.validate(8)
            # Some pipelines must use a partial handoff (stage shorter than
            # the node's full resident interval).
        trace = [Request(f"q{i}", 16, 3) for i in range(15)]
        metrics = Simulation(
            small_cluster, tiny_model, placement,
            HelixScheduler(small_cluster, tiny_model, placement, flow=flow),
            trace,
        ).run()
        assert metrics.requests_finished == 15
