"""Tests for the bench harness: factories, serving runs, and static tables."""

import pytest

from repro.bench import (
    format_table,
    make_planner,
    make_scheduler,
    make_simulation,
    table1_min_gpus,
    table3_gpu_catalog,
)
from repro.bench.tables import TABLE1_PAPER
from repro.core.errors import ReproError
from repro.placement import PetalsPlanner, SeparatePipelinesPlanner
from repro.scheduling import (
    FixedPipelineScheduler,
    HelixScheduler,
    RandomScheduler,
    ShortestQueueScheduler,
    SwarmScheduler,
)
from repro.sim.request import Request
from repro.trace import diurnal_arrivals, offline_arrivals, rate_for_utilization


class TestStaticTables:
    def test_table1_matches_paper_exactly(self):
        for row in table1_min_gpus():
            model = row["model"]
            for gpu in ("L4", "A100-40G", "H100"):
                assert row[gpu] == TABLE1_PAPER[(model, gpu)], (model, gpu)

    def test_table3_rows(self):
        rows = table3_gpu_catalog()
        assert [r["gpu"] for r in rows] == ["H100", "A100-40G", "L4", "T4"]
        h100 = rows[0]
        assert h100["fp16_tflops"] == 1979
        assert h100["memory_gb"] == 80
        assert h100["bandwidth_gbs"] == 3350

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["x", 1], ["yyy", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("-")
        assert "2.50" in lines[3]


class TestFactories:
    def test_make_planner_names(self, small_cluster, tiny_model):
        assert isinstance(
            make_planner("petals", small_cluster, tiny_model), PetalsPlanner
        )
        sp_plus = make_planner("sp+", small_cluster, tiny_model)
        assert isinstance(sp_plus, SeparatePipelinesPlanner)
        assert sp_plus.include_mixed_pipeline

    def test_make_planner_unknown(self, small_cluster, tiny_model):
        with pytest.raises(ReproError, match="unknown placement"):
            make_planner("alpa", small_cluster, tiny_model)

    def test_make_scheduler_all_names(self, small_cluster, tiny_model):
        planner_result = make_planner("petals", small_cluster, tiny_model).plan()
        expectations = {
            "helix": HelixScheduler,
            "swarm": SwarmScheduler,
            "random": RandomScheduler,
            "shortest-queue": ShortestQueueScheduler,
        }
        for name, cls in expectations.items():
            scheduler = make_scheduler(
                name, small_cluster, tiny_model, planner_result
            )
            assert isinstance(scheduler, cls)

    def test_fixed_scheduler_requires_pipelines(self, small_cluster, tiny_model):
        planner_result = make_planner("petals", small_cluster, tiny_model).plan()
        with pytest.raises(ReproError, match="pipelines"):
            make_scheduler("fixed", small_cluster, tiny_model, planner_result)
        sp_result = make_planner("sp", small_cluster, tiny_model).plan()
        scheduler = make_scheduler("fixed", small_cluster, tiny_model, sp_result)
        assert isinstance(scheduler, FixedPipelineScheduler)

    def test_make_scheduler_unknown(self, small_cluster, tiny_model):
        planner_result = make_planner("petals", small_cluster, tiny_model).plan()
        with pytest.raises(ReproError, match="unknown scheduler"):
            make_scheduler("fifo", small_cluster, tiny_model, planner_result)


class TestServingRuns:
    def _trace(self, n=30):
        return [Request(f"r{i}", 32, 4) for i in range(n)]

    @staticmethod
    def _online(planner_result, trace, utilization):
        rate = rate_for_utilization(
            planner_result.max_throughput, trace, utilization
        )
        return diurnal_arrivals(trace, mean_rate=rate, seed=1)

    def test_offline_run(self, small_cluster, tiny_model, small_spec):
        planner_result = make_planner("petals", small_cluster, tiny_model).plan()
        metrics = make_simulation(small_spec(
            planner_result, "helix", offline_arrivals(self._trace()),
            max_time=500.0,
        )).run()
        assert metrics.requests_finished == 30
        assert metrics.decode_throughput > 0

    def test_online_run_paces_arrivals(self, small_cluster, tiny_model, small_spec):
        planner_result = make_planner("petals", small_cluster, tiny_model).plan()
        requests = self._online(planner_result, self._trace(60), 0.5)
        metrics = make_simulation(small_spec(
            planner_result, "helix", requests, max_time=2000.0,
        )).run()
        assert metrics.requests_finished == 60
        # Online prompt latency should be far below a flooded offline run.
        assert metrics.prompt_latency.p50 < 5.0

    def test_offline_vs_online_latency_ordering(
        self, small_cluster, tiny_model, small_spec
    ):
        planner_result = make_planner("petals", small_cluster, tiny_model).plan()
        trace = self._trace(80)
        offline = make_simulation(small_spec(
            planner_result, "helix", offline_arrivals(trace), max_time=2000.0,
        )).run()
        online = make_simulation(small_spec(
            planner_result, "helix", self._online(planner_result, trace, 0.4),
            max_time=4000.0,
        )).run()
        assert online.prompt_latency.mean <= offline.prompt_latency.mean
