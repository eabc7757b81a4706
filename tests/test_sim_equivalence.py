"""The simulator's hot-path design must not change any observable metric.

The engine (hop tables, one event per hop, lazy arrivals) is specified as
*bit-identical* to committed golden digests of every observable, recorded
from the frozen pre-overhaul engine (``tests/golden/sim_observables.json``,
:mod:`repro.testkit.golden`). These tests enforce that specification:

* every tier-1 scenario address (all 4 families x 6 seeds, churny
  addresses included) is served by ``testkit.run_scenario``, the run the
  sweeps make, and its observables must equal the digests exactly
  (``tests/test_batch_engine.py`` pins the chaos / elastic / tenant
  families and scripted edge cases);
* scripted fig12 scenarios serve a sequential stream of lone requests,
  cut one mid-decode with a node failure, flood the cluster, and cut
  traces at a horizon, each checked against its digests;
* the golden file holds exactly the cases these tests read, and a
  one-ulp change to one token time moves exactly one digest;
* the precomputed roofline constants are checked bit-for-bit against
  ``Profiler.batch_time``.
"""
import math
import os

import numpy as np
import pytest

from repro.bench.runner import make_simulation
from repro.cluster import ComputeNode, Profiler, T4
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.scheduling import HelixScheduler
from repro.sim import NodeExecutor, Request, Simulation, StageWork
from repro.testkit.golden import (
    GOLDEN_PATH,
    GROUPS,
    MATRIX,
    POISSON_HORIZON,
    REGEN_COMMAND,
    SCRIPTED_CASES,
    _engine_observables,
    _fig12_spec,
    check_case,
    check_golden,
    load_golden,
    observable_digests,
    poisson_trace,
    serve_case,
    versions,
)


@pytest.mark.scenario
@pytest.mark.parametrize(
    "family,seed", MATRIX, ids=[f"{f}-{s}" for f, s in MATRIX]
)
def test_engines_agree_on_matrix_address(family, seed):
    """Every observable of the address's sweep run equals the golden
    digests."""
    violations, _ = check_case(f"{family}-{seed}")
    assert not violations, "\n".join(str(v) for v in violations)


# ----------------------------------------------------------------------
# Scripted fig12 cases: lone requests, mid-decode churn, floods, horizons
# ----------------------------------------------------------------------
def _check_scripted(case, prepare=None):
    violations, run = check_case(case, prepare)
    assert not violations, "\n".join(str(v) for v in violations)
    return run


def test_sequential_stream_matches_golden():
    """Lone requests one after another: every observable matches."""
    _, metrics = _check_scripted("sequential_stream")
    assert metrics.requests_finished == 3


def test_mid_decode_failure_matches_golden():
    """A node failure mid-decode disrupts the request; still matches."""
    _, metrics = _check_scripted("mid_decode_failure")
    assert metrics.requests_retried == 1
    assert metrics.requests_finished == 1


def test_flooded_equivalence_with_batch_cohorts():
    """A saturated uniform flood (long same-channel decode cohorts in
    every batch) matches exactly, with a pinned event count: every hop
    and every token is its own event."""
    sim, _ = _check_scripted("flooded_cohorts")
    assert sim.engine_stats["events_popped"] == 25086


def test_arrivals_enter_the_heap_one_at_a_time():
    """The heap holds the next arrival, never the whole future trace.

    Env callbacks sample the event heap across a Poisson trace; a horizon
    that cuts mid-trace must still leave the run equal to the digests
    recorded without the callbacks (the unreached arrivals simply
    never pop).
    """
    from repro.sim.simulator import K_ARRIVAL

    trace = poisson_trace()
    assert trace[-1].arrival_time > 2 * POISSON_HORIZON  # cut mid-trace
    samples = []

    def sample(sim):
        samples.append(sum(1 for item in sim._events if item[2] == K_ARRIVAL))

    def prepare(sim):
        for k in range(1, 40):
            sim.schedule_event(k * 1.0, sample)

    _, metrics = _check_scripted("poisson_horizon", prepare)
    assert len(samples) == 39
    assert max(samples) == 1
    assert 0 < metrics.requests_submitted < len(trace)


def test_max_time_truncation_matches_golden():
    sim, metrics = _check_scripted("max_time_truncation")
    assert sim.now <= 6.0
    assert metrics.requests_finished < metrics.requests_submitted == 30


def test_matrix_case_refuses_prepare():
    """A matrix case's simulation starts inside ``run_scenario``, so
    nothing can run on it first: a ``prepare`` callback is refused, not
    dropped."""
    calls = []
    with pytest.raises(ValueError, match="full_mesh-0"):
        serve_case("full_mesh-0", calls.append)
    assert calls == []


# ----------------------------------------------------------------------
# The golden file itself
# ----------------------------------------------------------------------
def test_golden_file_holds_exactly_the_cases_the_tests_read():
    assert os.listdir(GOLDEN_PATH.parent) == [GOLDEN_PATH.name]
    golden = load_golden()
    assert set(golden["header"]) == {"python", "numpy", "command"}
    assert golden["header"]["command"] == REGEN_COMMAND
    read = {f"{f}-{s}" for f, s in MATRIX} | set(SCRIPTED_CASES)
    assert len(read) == 29
    assert set(golden["cases"]) == read
    for digests in golden["cases"].values():
        assert list(digests) == list(GROUPS)


def test_one_ulp_token_change_moves_only_the_records_digest():
    case = "sequential_stream"
    observables = _engine_observables(*serve_case(case))
    golden = load_golden()
    assert check_golden(case, observables, "hop") == []
    before = observable_digests(observables)

    rid, row = next(iter(observables["records"].items()))
    times = list(row[1])
    times[5] = math.nextafter(times[5], math.inf)
    observables["records"][rid] = (row[0], tuple(times)) + row[2:]
    after = observable_digests(observables)
    assert [g for g in GROUPS if before[g] != after[g]] == ["records"]
    violations = check_golden(case, observables, "hop")
    assert [v.detail.split(":")[0] for v in violations] == [
        f"[hop] case {case!r}, group 'records'"
    ]
    detail = violations[0].detail
    header = golden["header"]
    assert f"Python {header['python']} / numpy {header['numpy']}" in detail
    running = versions()
    assert f"running Python {running['python']} / numpy {running['numpy']}" in (
        detail
    )
    assert REGEN_COMMAND in detail


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

    sim = make_simulation(_fig12_spec([Request("r", 16, 1)]))
    executor = NodeExecutor(
        ComputeNode("t4", T4), tiny_model, Profiler(), 4, max_batch_tokens=25
    )
    executor.queue = [
        StageWork(f"r{i}", 0, 10, 4, True, tl=40) for i in range(6)
    ]
    executor.queue_tokens = 60
    executor.queue_tl = 240
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
    assert stats["grouped_hops"] == 0
    assert stats["fast_forwarded_tokens"] == 0
    assert stats["vec_fast_forwarded_tokens"] == 0
    assert sim.tokens_emitted == 40
    assert len(sim.token_timeline) == 40
