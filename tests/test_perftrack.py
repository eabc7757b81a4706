"""Tests for the perf-tracking harness (``repro.bench.perftrack``)."""

import json

import pytest

from repro.bench.perftrack import (
    PerfTracker,
    bench_cluster,
    candidate_placements,
    run_flow_bench,
    run_milp_bench,
)
from repro.models.specs import LLAMA_70B


class TestPerfTracker:
    def test_time_records_laps(self):
        tracker = PerfTracker(label="unit")
        timing = tracker.time("noop", lambda: None, repeats=3, tag="x")
        assert timing.repeats == 3
        assert timing.best_s <= timing.mean_s <= timing.total_s
        assert timing.meta == {"tag": "x"}
        assert tracker.timings == [timing]

    def test_time_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            PerfTracker().time("noop", lambda: None, repeats=0)

    def test_speedup_and_write_roundtrip(self, tmp_path):
        tracker = PerfTracker(label="unit")
        slow = tracker.time("slow", lambda: sum(range(20_000)), repeats=2)
        fast = tracker.time("fast", lambda: None, repeats=2)
        ratio = tracker.speedup("ratio", slow, fast)
        assert ratio > 1.0
        path = tracker.write(tmp_path / "BENCH_unit.json")
        doc = json.loads(path.read_text())
        assert doc["label"] == "unit"
        assert doc["derived"]["ratio"] == pytest.approx(ratio)
        assert [t["name"] for t in doc["timings"]] == ["slow", "fast"]


class TestCandidateStream:
    def test_candidates_are_valid_and_distinct(self):
        cluster = bench_cluster(8)
        placements = candidate_placements(cluster, LLAMA_70B, 6, seed=3)
        assert len(placements) == 6
        for placement in placements:
            placement.validate()  # full layer coverage, bounds respected
        signatures = {
            tuple(sorted(
                (nid, s.start, s.end) for nid, s in p.assignments.items()
            ))
            for p in placements
        }
        assert len(signatures) > 1  # the stream actually moves nodes


@pytest.mark.perf
def test_milp_bench_smoke_writes_artifact(tmp_path):
    """Tier-1-safe smoke run of the MILP perf harness: tiny sizes, but the
    cross-checked scenarios and ``BENCH_milp.json`` generation path are
    exercised end to end."""
    path = tmp_path / "BENCH_milp.json"
    doc = run_milp_bench(smoke=True, path=path)
    assert path.exists()
    on_disk = json.loads(path.read_text())
    assert on_disk["derived"] == doc["derived"]
    # The incremental compile and vectorized feasibility check must not be
    # slower than the loops they replaced even at smoke sizes.
    assert doc["derived"]["milp_compile_speedup"] > 1.0
    assert doc["derived"]["milp_feascheck_speedup"] > 0.5
    assert doc["derived"]["bnb_node_factor"] > 0.0
    names = [t["name"] for t in doc["timings"]]
    assert "milp_compile_incremental" in names
    assert "bnb_plain" in names and "bnb_smart" in names


@pytest.mark.perf
def test_flow_bench_smoke_writes_artifact(tmp_path):
    """Tier-1-safe smoke run: tiny sizes, but the full harness and the
    ``BENCH_flow.json`` generation path are exercised end to end."""
    path = tmp_path / "BENCH_flow.json"
    doc = run_flow_bench(smoke=True, path=path)
    assert path.exists()
    on_disk = json.loads(path.read_text())
    assert on_disk["derived"] == doc["derived"]
    assert doc["derived"]["placement_eval_speedup"] > 1.0
    assert doc["derived"]["kernel_reuse_speedup"] > 0.0
    names = [t["name"] for t in doc["timings"]]
    assert "eval_rebuild_per_candidate" in names
    assert "eval_incremental" in names


@pytest.mark.perf
def test_sim_bench_smoke_writes_artifact(tmp_path):
    """Tier-1-safe smoke run of the simulator perf harness.

    Small tiers with a heuristic placement, but the flooded / Poisson /
    churn / diurnal scenarios, both engines, and the ``BENCH_sim.json``
    generation path are exercised end to end. The flooded smoke tier must
    show the current engine at >=2x the frozen baseline — far under the
    >=10x the full-size flood records, so CI noise cannot flake it.
    """
    from repro.bench.simbench import run_sim_bench

    path = tmp_path / "BENCH_sim.json"
    doc = run_sim_bench(smoke=True, path=path)
    assert path.exists()
    on_disk = json.loads(path.read_text())
    assert on_disk["derived"] == doc["derived"]
    assert doc["derived"]["sim_flooded_small_speedup"] >= 2.0
    assert doc["derived"]["sim_poisson_small_speedup"] > 1.0
    assert doc["derived"]["sim_churn_small_speedup"] > 1.0
    assert doc["derived"]["sim_diurnal_small_span_days"] > 1.0
    names = [t["name"] for t in doc["timings"]]
    assert "sim_flooded_small_legacy" in names
    assert "sim_flooded_small_hop_table" in names
    assert "sim_diurnal_small_hop_table" in names
    assert not any(name.endswith("_batch") for name in names)
    # Telemetry proves the coalescing machinery actually engaged.
    hop_rows = [
        t for t in doc["timings"] if t["name"].endswith("_hop_table")
    ]
    assert any(row["meta"].get("grouped_hops", 0) > 0 for row in hop_rows)
    # ... and that the vectorized fast-forward did the diurnal work: an
    # exact count gate (deterministic, unlike a single-run wall-clock
    # ratio) on the tier where closed windows dominate.
    diurnal = next(
        t for t in doc["timings"]
        if t["name"] == "sim_diurnal_small_hop_table"
    )
    tokens = diurnal["meta"]["tokens"]
    assert diurnal["meta"]["vec_fast_forwarded_tokens"] >= 0.9 * tokens
