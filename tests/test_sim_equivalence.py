"""The simulator overhaul must not change any observable metric.

The overhauled engine (hop groups, bare one-hop events and lazy
arrivals) is specified as *bit-identical* to the frozen pre-overhaul
event loop. These tests enforce that specification:

* the differential oracle replays every tier-1 scenario address (all 4
  families x 6 seeds, churny addresses included) through the legacy
  engine, the current engine, and the current engine with coalescing
  disabled, and requires exactly equal observables
  (``tests/test_batch_engine.py`` extends the coalesced-vs-per-hop
  comparison to the chaos / elastic / tenant families);
* scripted fig12 scenarios serve a sequential stream of lone requests
  and cut one mid-decode with a node failure;
* a Poisson trace cut mid-way by the horizon shows arrivals enter the
  event heap one at a time and leave all three engines equal;
* the precomputed roofline constants are checked bit-for-bit against
  ``Profiler.batch_time``.
"""

import math

import numpy as np
import pytest

from repro.cluster import ComputeNode, Profiler, T4, small_cluster_fig12
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.models.specs import LLAMA_30B
from repro.scenarios.generator import SCENARIO_FAMILIES
from repro.scheduling import HelixScheduler
from repro.sim import NodeExecutor, Request, Simulation, StageWork
from repro.sim._legacy_reference import LegacySimulation
from repro.testkit.differential import check_sim_engines

SEEDS = range(6)
MATRIX = [
    (family, seed) for family in SCENARIO_FAMILIES for seed in SEEDS
]


@pytest.mark.scenario
@pytest.mark.parametrize(
    "family,seed", MATRIX, ids=[f"{f}-{s}" for f, s in MATRIX]
)
def test_engines_agree_on_matrix_address(family, seed):
    """Legacy vs. coalesced vs. per-hop: equal observables."""
    violations = check_sim_engines(family, seed, "smoke")
    assert not violations, "\n".join(str(v) for v in violations)


# ----------------------------------------------------------------------
# Lone requests on the fig12 plan: a sequential stream, mid-decode churn
# ----------------------------------------------------------------------
def _fig12_serving(requests, **sim_kwargs):
    from repro.placement.petals import PetalsPlanner

    cluster = small_cluster_fig12()
    model = LLAMA_30B
    profiler = Profiler()
    result = PetalsPlanner(cluster, model, profiler).plan()
    scheduler = HelixScheduler(
        cluster, model, result.placement, profiler, flow=result.flow,
        expected_output_len=float(requests[0].output_len),
    )
    sim_cls = sim_kwargs.pop("sim_cls", Simulation)
    return sim_cls(
        cluster, model, result.placement, scheduler, requests,
        profiler=profiler, **sim_kwargs,
    )


def test_sequential_stream_matches_legacy():
    """Lone requests one after another: every token matches legacy."""
    requests = [
        Request(f"r{i}", 16, 300, arrival_time=i * 500.0) for i in range(3)
    ]
    sim = _fig12_serving(list(requests), max_time=1e9, seed=0)
    metrics = sim.run()
    assert metrics.requests_finished == 3

    legacy = _fig12_serving(list(requests), max_time=1e9, seed=0,
                            sim_cls=LegacySimulation)
    legacy_metrics = legacy.run()
    for request in requests:
        assert (
            sim.record_of(request.request_id).token_times
            == legacy.record_of(request.request_id).token_times
        )
    assert metrics.decode_throughput == legacy_metrics.decode_throughput


def test_mid_decode_failure_matches_legacy():
    """A node failure mid-decode disrupts the request; still matches."""
    requests = [Request("victim", 16, 400)]

    def build(sim_cls):
        sim = _fig12_serving(
            list(requests), max_time=1e9, seed=0, sim_cls=sim_cls
        )
        # Fail a pipeline node mid-decode, restore it later: the attempt
        # is disrupted, and the retried attempt finishes after recovery.
        def fail(s):
            node_id = s.placement.used_nodes[0]
            s.fail_node(node_id)
            s.schedule_event(s.now + 5.0, lambda s2: s2.restore_node(node_id))

        sim.schedule_event(8.0, fail)
        return sim

    fast = build(Simulation)
    fast_metrics = fast.run()
    assert fast_metrics.requests_retried == 1
    assert fast_metrics.requests_finished == 1

    legacy = build(LegacySimulation)
    legacy_metrics = legacy.run()
    assert (
        fast.record_of("victim").token_times
        == legacy.record_of("victim").token_times
    )
    assert fast_metrics.tokens_lost == legacy_metrics.tokens_lost
    assert fast_metrics.decode_throughput == legacy_metrics.decode_throughput


def test_flooded_equivalence_with_batch_cohorts():
    """A saturated uniform flood (long same-channel decode cohorts in
    every batch) matches exactly, with pinned logical event counts."""
    requests = [Request(f"r{i:04d}", 16, 24) for i in range(120)]
    fast = _fig12_serving(list(requests), max_time=1e9, seed=0,
                          max_batch_tokens=2048)
    fast.run()
    assert (fast.events_popped, fast.grouped_hops) == (4407, 22920)
    legacy = _fig12_serving(list(requests), max_time=1e9, seed=0,
                            max_batch_tokens=2048, sim_cls=LegacySimulation)
    legacy.run()
    for request in requests:
        assert (
            fast.record_of(request.request_id).token_times
            == legacy.record_of(request.request_id).token_times
        )
    for key, channel in legacy.channels.items():
        fast_channel = fast.channels[key]
        assert fast_channel.bytes_sent == channel.bytes_sent
        assert fast_channel.total_queueing_delay == channel.total_queueing_delay


def test_arrivals_enter_the_heap_one_at_a_time():
    """The heap holds the next arrival, never the whole future trace.

    Env callbacks sample the event heap across a Poisson trace; a horizon
    that cuts mid-trace must still leave every engine in exactly the same
    state (the unreached arrivals simply never pop).
    """
    from repro.sim.simulator import K_ARRIVAL
    from repro.testkit.differential import (
        _compare_observables,
        _engine_observables,
    )
    from repro.trace.arrival import poisson_arrivals

    base = [Request(f"p{i:03d}", 32 + i % 7, 12 + i % 5) for i in range(300)]
    trace = poisson_arrivals(base, 3.0, seed=3)
    horizon = 40.0
    assert trace[-1].arrival_time > 2 * horizon  # the cut is mid-trace

    samples = []

    def sample(sim):
        samples.append(sum(1 for item in sim._events if item[2] == K_ARRIVAL))

    runs = {}
    for label, kwargs in (
        ("hop", {}),
        ("perhop", {"coalescing": False}),
        ("legacy", {"sim_cls": LegacySimulation}),
    ):
        sim = _fig12_serving(list(trace), max_time=horizon, seed=0, **kwargs)
        if label != "legacy":
            for k in range(1, 40):
                sim.schedule_event(k * 1.0, sample)
        runs[label] = _engine_observables(sim, sim.run())
    assert len(samples) == 2 * 39
    assert max(samples) == 1
    for label in ("hop", "perhop"):
        violations = _compare_observables(
            f"{label}-vs-legacy", runs[label], runs["legacy"]
        )
        assert not violations, "\n".join(str(v) for v in violations)
    assert 0 < runs["hop"]["metrics"].requests_submitted < len(trace)


def test_max_time_truncation_matches_legacy():
    requests = [Request(f"r{i}", 64, 500) for i in range(30)]
    fast = _fig12_serving(list(requests), max_time=6.0, seed=0)
    fast_metrics = fast.run()
    legacy = _fig12_serving(list(requests), max_time=6.0, seed=0,
                            sim_cls=LegacySimulation)
    legacy_metrics = legacy.run()
    assert fast_metrics.requests_finished == legacy_metrics.requests_finished
    assert fast_metrics.decode_tokens == legacy_metrics.decode_tokens
    assert fast_metrics.duration == legacy_metrics.duration
    assert fast.now == legacy.now


# ----------------------------------------------------------------------
# The arithmetic-identity claims behind the hot path
# ----------------------------------------------------------------------
def test_precomputed_batch_constants_match_profiler(tiny_model):
    node = ComputeNode("t4", T4)
    profiler = Profiler()
    executor = NodeExecutor(node, tiny_model, profiler, resident_layers=4)
    for tokens in (1, 7, 64, 513):
        reference = profiler.batch_time(node, tiny_model, float(tokens * 4), 4)
        fast = (
            (tokens * 4) / executor.compute_rate
            + executor.weights_time
            + executor.overhead
        )
        assert fast == reference  # bitwise, not approx


def test_take_batch_counters_stay_consistent(tiny_model):
    """The engine's token-capped cut keeps the queue counters in sync."""
    from heapq import heappop

    from repro.sim.simulator import K_BATCH

    sim = _fig12_serving([Request("r", 16, 1)])
    executor = NodeExecutor(
        ComputeNode("t4", T4), tiny_model, Profiler(), 4, max_batch_tokens=25
    )
    works = [StageWork(f"r{i}", 0, 10, 4, True, tl=40) for i in range(6)]
    executor.enqueue_run(works, 60, 240)
    batches = []
    while executor.queue:
        sim._start_batch(executor)
        _, _, kind, payload = heappop(sim._events)
        assert kind == K_BATCH
        batches.append(payload[2])
        if len(batches) == 1:
            assert executor.queue_tokens == 40
            assert executor.queue_tl == 160
    assert [len(batch) for batch in batches] == [2, 2, 2]
    assert executor.queue_tokens == 0
    assert executor.queue_tl == 0


def test_token_timeline_bucketing_matches_goodput():
    """Derived bucket view == exact times for window-multiple goodput."""
    from repro.sim.metrics import TokenTimeline, goodput_timeline

    rng = np.random.default_rng(3)
    times = sorted(float(t) for t in rng.uniform(0.0, 30.0, size=500))
    timeline = TokenTimeline()
    for t in times:
        timeline.add(t)
    derived = timeline.times()
    assert len(derived) == len(times)
    for window in (0.25, 1.0, 2.0, 3.0):
        assert goodput_timeline(derived, window, 30.0) == goodput_timeline(
            times, window, 30.0
        )


def test_token_timeline_memory_is_bounded():
    from repro.sim.metrics import TokenTimeline

    timeline = TokenTimeline(resolution=0.5)
    for i in range(100_000):
        timeline.add(12.25)  # all in one bucket
    assert timeline.count == 100_000
    assert len(timeline.bucket_counts()) == 25  # horizon-, not token-bound


def test_timeline_resolution_validation():
    from repro.sim.metrics import TokenTimeline

    with pytest.raises(ValueError):
        TokenTimeline(resolution=0.0)
    with pytest.raises(ValueError):
        TokenTimeline(resolution=math.inf)


def test_simulation_exposes_engine_stats(small_cluster, tiny_model):
    placement = ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
    )
    flow = FlowGraph(small_cluster, tiny_model, placement).solve()
    scheduler = HelixScheduler(
        small_cluster, tiny_model, placement, flow=flow
    )
    sim = Simulation(
        small_cluster, tiny_model, placement, scheduler,
        [Request("r0", 16, 40)],
    )
    sim.run()
    stats = sim.engine_stats
    assert set(stats) == {
        "events_popped", "grouped_hops", "fast_forwarded_tokens",
        "vec_fast_forwarded_tokens",
    }
    assert stats["events_popped"] > 0
    assert stats["fast_forwarded_tokens"] == 0
    assert stats["vec_fast_forwarded_tokens"] == 0
    assert sim.tokens_emitted == 40
    assert len(sim.token_timeline) == 40
