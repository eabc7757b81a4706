"""The simulator's fast paths must match the per-hop reference.

With coalescing on (the default), the engine carries contiguous hops in
group events and a hop that travels alone as a bare event. All of it is
specified as *speed only*: these tests replay scenarios with
``coalescing=False`` (one heap event per hop) as the reference and
require exactly equal observables, including the full-config families
the plain engine matrix cannot express (detection-mode chaos, elastic
residency, tenancy).

``tests/test_sim_equivalence.py`` covers the classic 24-address
coalesced / per-hop matrix via ``check_sim_engines``, pinned by the
committed golden digests.
"""

import pytest

from repro.cluster import A100_40G, Cluster, Profiler
from repro.core.placement_types import ModelPlacement
from repro.core.units import GBIT
from repro.flow.graph import FlowGraph
from repro.models.specs import ModelSpec
from repro.scenarios import CHAOS_FAMILY, ELASTIC_FAMILY, TENANT_FAMILY
from repro.scheduling import HelixScheduler
from repro.sim import Request, Simulation
from repro.testkit.differential import (
    _compare_observables,
    _engine_observables,
    check_fast_paths,
)

SEEDS = range(3)
FULL_CONFIG_MATRIX = [
    (family, seed)
    for family in (CHAOS_FAMILY, ELASTIC_FAMILY, TENANT_FAMILY)
    for seed in SEEDS
]


@pytest.mark.scenario
@pytest.mark.parametrize(
    "family,seed", FULL_CONFIG_MATRIX,
    ids=[f"{f}-{s}" for f, s in FULL_CONFIG_MATRIX],
)
def test_batch_engine_matches_on_full_config_address(family, seed):
    """Chaos / elastic / tenant addresses: coalesced == per-hop exactly."""
    violations = check_fast_paths(family, seed, "smoke")
    assert not violations, "\n".join(str(v) for v in violations)


# ----------------------------------------------------------------------
# Scripted single-pipeline scenarios
# ----------------------------------------------------------------------
def _single_stage_material():
    """One A100 holding every layer."""
    model = ModelSpec(
        name="batch-tiny-8L", num_layers=8, hidden_size=1024, num_heads=8,
        num_kv_heads=8, intermediate_size=2816,
        nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816),
    )
    cluster = Cluster(name="fast-path-test")
    cluster.add_node("a100-0", A100_40G, region="r0")
    cluster.connect_full_mesh(
        ["a100-0"], 10 * GBIT, 0.001, include_coordinator=True
    )
    cluster.validate()
    placement = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
    flow = FlowGraph(cluster, model, placement).solve()
    return cluster, model, placement, flow


def _serve(requests, coalescing=True, tenancy=None, events=(), max_time=1e9):
    cluster, model, placement, flow = _single_stage_material()
    profiler = Profiler()
    scheduler = HelixScheduler(
        cluster, model, placement, profiler, flow=flow,
        expected_output_len=float(requests[0].output_len),
    )
    sim = Simulation(
        cluster, model, placement, scheduler, list(requests),
        profiler=profiler, max_time=max_time, seed=0, coalescing=coalescing,
        tenancy=tenancy,
    )
    for when, action in events:
        sim.schedule_event(when, action)
    metrics = sim.run()
    return sim, metrics


def _assert_fast_paths_agree(requests, tenancy=None, events=(), max_time=1e9):
    perhop = _serve(
        requests, False, tenancy=tenancy, events=events, max_time=max_time
    )
    fast = _serve(
        requests, True, tenancy=tenancy, events=events, max_time=max_time
    )
    violations = _compare_observables(
        "coalesced-vs-perhop",
        _engine_observables(*fast),
        _engine_observables(*perhop),
    )
    assert not violations, "\n".join(str(v) for v in violations)
    return perhop[0], fast[0]


# Where a window cut lands inside decode round k -> k+1 of a lone request
# on the single-stage pipeline: coordinator -> a100-0 (1 ms link), one
# batch, a100-0 -> coordinator (1 ms link). Transmissions take
# nanoseconds, so half a link latency after token k is before the
# stage-0 arrival, the round's midpoint is inside the batch, and half a
# latency before token k+1 is on the forward.
_CUT_POINTS = {
    "before-stage-arrival": lambda t0, t1: (t0 + 0.0005, False),
    "inside-batch": lambda t0, t1: ((t0 + t1) / 2, True),
    "on-forward": lambda t0, t1: (t1 - 0.0005, False),
    "at-token": lambda t0, t1: (t1, False),
}


def _tenancy_for(path):
    """``path`` is the lone-request tests' tagging axis: ``"scalar"`` runs
    carry a one-tenant config (per-token tenant accounting and the fair
    pending queue), ``"vectorized"`` runs are untagged. The ids keep the
    tests' established names."""
    if path == "vectorized":
        return None
    from repro.tenancy import TenancyConfig, TenantRegistry, TenantSpec

    return TenancyConfig(TenantRegistry([TenantSpec("t")]))


@pytest.mark.parametrize("path", ["vectorized", "scalar"])
@pytest.mark.parametrize("cut", ["event", "max_time"])
@pytest.mark.parametrize("point", list(_CUT_POINTS))
def test_window_cut_inside_a_round_matches_per_hop(point, cut, path):
    """A cut inside a decode round leaves the engines equal, exactly.

    The round that contains the next heap event (a no-op environment
    callback) or the horizon must leave every observable — including
    channel free times and the final clock — equal to per-hop stepping.
    The callback sees the state per-hop stepping has at its time: a tie
    with a token goes to the callback, which was scheduled first.
    """
    tenancy = _tenancy_for(path)
    requests = [Request("solo", 64, 300, 10.0, tenant_id="t")]
    reference, _ = _serve(requests, coalescing=False, tenancy=tenancy)
    times = reference.record_of("solo").token_times
    when, busy = _CUT_POINTS[point](times[150], times[151])
    assert times[150] < when <= times[151]
    if cut == "max_time":
        _, fast = _assert_fast_paths_agree(
            requests, tenancy=tenancy, max_time=when
        )
        assert fast.record_of("solo").tokens_generated == (
            152 if when == times[151] else 151
        )
    else:
        seen = []

        def probe(sim):
            seen.append((
                sim.executors["a100-0"].busy,
                sim.record_of("solo").tokens_generated,
            ))

        _assert_fast_paths_agree(
            requests, tenancy=tenancy, events=[(when, probe)]
        )
        assert seen == [(busy, 151), (busy, 151)]


@pytest.mark.parametrize("path", ["vectorized", "scalar"])
@pytest.mark.parametrize("slow", ["entry", "inter-stage"])
def test_window_opening_on_a_busy_channel_matches_per_hop(slow, path):
    """A cancelled hedge leaves a channel busy under a lone request.

    One request on a two-stage pipeline with one slow link is hedged; the
    shadow's prompt queues behind the primary's on the slow link and is
    still transmitting when the primary's first token cancels it. The
    surviving request is then alone, but its next round queues on that
    link, and per-hop stepping must agree exactly.
    """
    from repro.cluster.node import COORDINATOR
    from repro.sim import RequestPolicy

    model = ModelSpec(
        name="batch-hedge-8L", num_layers=8, hidden_size=1024, num_heads=8,
        num_kv_heads=8, intermediate_size=2816,
        nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816),
    )
    cluster = Cluster(name="fast-path-hedge-test")
    cluster.add_node("a100-0", A100_40G, region="r0")
    cluster.add_node("a100-1", A100_40G, region="r0")
    cluster.connect_full_mesh(
        ["a100-0", "a100-1"], 10 * GBIT, 0.001, include_coordinator=True
    )
    # The prompt ids (entry) or prompt activations (inter-stage) take
    # ~0.16-0.8 s on the slow link; a decode round's message takes ms.
    link = {
        "entry": (COORDINATOR, "a100-0", 0.0001 * GBIT),
        "inter-stage": ("a100-0", "a100-1", 0.01 * GBIT),
    }[slow]
    cluster.connect(*link, 0.001)
    cluster.validate()
    placement = ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "a100-1": (4, 8)}
    )
    flow = FlowGraph(cluster, model, placement).solve()
    runs = {}
    for coalescing in (True, False):
        scheduler = HelixScheduler(
            cluster, model, placement, flow=flow, expected_output_len=200.0
        )
        sim = Simulation(
            cluster, model, placement, scheduler,
            [Request("solo", 512, 200, 10.0, tenant_id="t")],
            max_time=1e9, seed=0, coalescing=coalescing,
            tenancy=_tenancy_for(path),
            policy=RequestPolicy(hedge_after=0.05),
        )
        runs[coalescing] = (sim, sim.run())
    violations = _compare_observables(
        "coalesced-vs-perhop",
        _engine_observables(*runs[True]),
        _engine_observables(*runs[False]),
    )
    assert not violations, "\n".join(str(v) for v in violations)
    fast = runs[True][0]
    assert fast.record_of("solo").tokens_generated == 200
    assert fast.channels[link[:2]].total_queueing_delay > 0


def test_simultaneous_completions_keep_tie_order():
    """Identical flooded requests finish at the same instant.

    Completion events then tie on time and are ordered by heap sequence
    number alone; hop groups must allocate sequence numbers so ties
    break exactly as per-hop stepping's.
    """
    model = ModelSpec(
        name="batch-twin-8L", num_layers=8, hidden_size=1024, num_heads=8,
        num_kv_heads=8, intermediate_size=2816,
        nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816),
    )
    cluster = Cluster(name="fast-path-twin-test")
    cluster.add_node("a100-0", A100_40G, region="r0")
    cluster.add_node("a100-1", A100_40G, region="r0")
    cluster.connect_full_mesh(
        ["a100-0", "a100-1"], 10 * GBIT, 0.001, include_coordinator=True
    )
    cluster.validate()
    # Two identical single-node pipelines: symmetric request halves run
    # in lockstep on disjoint channels, finishing at the same instants.
    placement = ModelPlacement.from_intervals(
        8, {"a100-0": (0, 8), "a100-1": (0, 8)}
    )
    flow = FlowGraph(cluster, model, placement).solve()
    requests = [Request(f"r{i:02d}", 16, 40, 0.0) for i in range(8)]
    runs = {}
    for coalescing in (True, False):
        scheduler = HelixScheduler(
            cluster, model, placement, flow=flow, expected_output_len=40.0
        )
        sim = Simulation(
            cluster, model, placement, scheduler, list(requests),
            max_time=1e9, seed=0, coalescing=coalescing,
        )
        metrics = sim.run()
        runs[coalescing] = _engine_observables(sim, metrics)
    violations = _compare_observables(
        "coalesced-vs-perhop", runs[True], runs[False]
    )
    assert not violations, "\n".join(str(v) for v in violations)
    finishes = [row[5] for row in runs[True]["records"].values()]
    assert len(set(finishes)) < len(finishes)  # ties actually occurred


def test_mid_macro_step_churn_invalidates_window():
    """A failure lands mid-decode of a lone request: cut and retry."""
    requests = [Request("victim", 16, 400, 0.0)]

    def fail(sim):
        sim.fail_node("a100-0")
        sim.schedule_event(
            sim.now + 5.0, lambda s: s.restore_node("a100-0")
        )

    events = [(1.0, fail)]
    _, fast = _assert_fast_paths_agree(requests, events=events)
    record = fast.record_of("victim")
    assert record.retries == 1
    assert record.tokens_generated == 400


def test_overlapping_requests_match_per_hop():
    """Overlapping requests join and leave each other's batches.

    At offered load ~0.4 arrivals overlap, so a request decodes alone for
    a while, then shares its pipeline with the next arrival; every
    transition must still match per-hop stepping exactly.
    """
    from repro.trace.arrival import diurnal_arrivals

    base = [Request(f"d{i:03d}", 64, 400) for i in range(60)]
    trace = diurnal_arrivals(base, 0.4 / 3.16, seed=0)
    _, fast = _assert_fast_paths_agree(trace)
    assert sum(record.tokens_generated for record in fast.records) == 60 * 400


def test_tenancy_tagged_trace_matches_per_hop():
    from repro.tenancy import (
        FairnessConfig, TenancyConfig, TenantRegistry, TenantSpec,
    )

    def tenancy():
        return TenancyConfig(
            TenantRegistry([
                TenantSpec("alpha", rate_share=2.0),
                TenantSpec("beta", rate_share=1.0),
            ]),
            fairness=FairnessConfig(mode="W", window=1.0),
        )

    requests = [
        Request(
            f"{'alpha' if i % 3 else 'beta'}:{i:02d}", 32, 60,
            arrival_time=i * 0.4,
            tenant_id="alpha" if i % 3 else "beta",
        )
        for i in range(30)
    ]
    perhop = _serve(requests, False, tenancy=tenancy())
    fast = _serve(requests, True, tenancy=tenancy())
    violations = _compare_observables(
        "coalesced-vs-perhop",
        _engine_observables(*fast),
        _engine_observables(*perhop),
    )
    assert not violations, "\n".join(str(v) for v in violations)
    assert (
        fast[0].tenancy.tokens_by_tenant == perhop[0].tenancy.tokens_by_tenant
    )


# ----------------------------------------------------------------------
# Engine telemetry
# ----------------------------------------------------------------------
def test_engine_stats_exposes_batch_telemetry():
    sim, _ = _serve([Request("solo", 64, 300, 10.0)])
    stats = sim.engine_stats
    assert set(stats) == {
        "events_popped", "grouped_hops", "fast_forwarded_tokens",
        "vec_fast_forwarded_tokens",
    }
    # One arrival, then three events per token on the one-stage pipeline
    # (stage arrival, batch completion, token delivery). Every hop after
    # the prompt shipment travels alone and counts as grouped: 300 token
    # forwards and 299 decode re-entries.
    assert stats["events_popped"] == 1 + 3 * 300
    assert stats["grouped_hops"] == 300 + 299
    assert stats["fast_forwarded_tokens"] == 0
    assert stats["vec_fast_forwarded_tokens"] == 0


# Exact event counts: how a hop is carried (bare or in a group) must not
# add or drop events unnoticed. The per-hop counts date from before
# one-hop events went bare and arrivals went lazy; the chaos counts also
# carry the detector's one event per heartbeat round. At these two smoke
# addresses no two hops of one batch share a channel, so no hop group
# forms: every hop travels as a bare event (counted in ``grouped_hops``
# while coalescing, unless its channel is flaky or it is a multi-work
# batch's token) and both modes pop the same events.
PINNED_EVENT_COUNTS = {
    ("full_mesh", 0, True): (2391, 1393),
    ("full_mesh", 0, False): (2391, 0),
    # Two flaky-link windows with traffic arriving inside them: only the
    # flaky channels' hops go uncounted.
    (CHAOS_FAMILY, 20, True): (2192, 476),
    (CHAOS_FAMILY, 20, False): (2192, 0),
}


@pytest.mark.parametrize(
    "family,seed,coalescing", list(PINNED_EVENT_COUNTS),
    ids=[f"{f}-{s}-{'coalesced' if c else 'perhop'}"
         for f, s, c in PINNED_EVENT_COUNTS],
)
def test_event_counts_are_pinned(family, seed, coalescing):
    from repro.online.faults import FlakyLink
    from repro.scenarios.generator import generate_scenario
    from repro.testkit.harness import run_scenario

    scenario = generate_scenario(family, seed, "smoke")
    if family == CHAOS_FAMILY:
        onset = min(e.time for e in scenario.churn if isinstance(e, FlakyLink))
        assert any(r.arrival_time > onset for r in scenario.requests)
    stats = run_scenario(scenario, coalescing=coalescing).sim.engine_stats
    assert (stats["events_popped"], stats["grouped_hops"]) == (
        PINNED_EVENT_COUNTS[family, seed, coalescing]
    )
    assert stats["events_popped"] <= PINNED_EVENT_COUNTS[family, seed, False][0]
