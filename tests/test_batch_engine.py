"""Scripted edge cases of the simulator, pinned exactly.

Each test here serves one scenario and pins it: to a ``run_digest`` of
every observable (:func:`repro.testkit.golden.run_digest`), to exact
counts, or to another run whose observables it must reproduce. They
cover what the 29 golden cases do not: the full-config families
(detection-mode chaos, elastic residency, tenancy), cuts inside a decode
round, busy channels, tie order and mid-decode churn.

``tests/test_sim_equivalence.py`` checks the 24-address engine matrix and
the scripted fig12 cases against the committed golden digests.
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
from repro.testkit.golden import run_digest

SEEDS = range(3)
FULL_CONFIG_MATRIX = [
    (family, seed)
    for family in (CHAOS_FAMILY, ELASTIC_FAMILY, TENANT_FAMILY)
    for seed in SEEDS
]

#: Leading 16 hex digits of each pinned run's ``run_digest``.
FULL_CONFIG_DIGESTS = {
    ("chaos", 0): "24bb289d3a7697d7",
    ("chaos", 1): "ef5dd471b45189fa",
    ("chaos", 2): "1d7bf8184434a4a2",
    ("elastic", 0): "1bc28a04191fc6a0",
    ("elastic", 1): "2a0a37b201f29766",
    ("elastic", 2): "09f433fc2b9e4c5d",
    ("tenant", 0): "3c7c6ebcded97a92",
    ("tenant", 1): "0126e803071660db",
    ("tenant", 2): "45f66014c8dc6b88",
}


def _pinned(digest_of, key, sim, metrics):
    __tracebackhide__ = True
    digest = run_digest(sim, metrics)[:16]
    assert digest == digest_of[key], (
        f"observables of {key!r} moved: digest {digest}"
    )


@pytest.mark.scenario
@pytest.mark.parametrize(
    "family,seed", FULL_CONFIG_MATRIX,
    ids=[f"{f}-{s}" for f, s in FULL_CONFIG_MATRIX],
)
def test_batch_engine_matches_on_full_config_address(family, seed):
    """Chaos / elastic / tenant addresses: invariants hold, observables
    are pinned exactly."""
    from repro.scenarios.generator import generate_scenario
    from repro.testkit.harness import run_scenario

    report = run_scenario(generate_scenario(family, seed, "smoke"))
    assert not report.violations, "\n".join(str(v) for v in report.violations)
    _pinned(FULL_CONFIG_DIGESTS, (family, seed), report.sim, report.metrics)


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


def _serve(requests, tenancy=None, events=(), max_time=1e9):
    cluster, model, placement, flow = _single_stage_material()
    profiler = Profiler()
    scheduler = HelixScheduler(
        cluster, model, placement, profiler, flow=flow,
        expected_output_len=float(requests[0].output_len),
    )
    sim = Simulation(
        cluster, model, placement, scheduler, list(requests),
        profiler=profiler, max_time=max_time, seed=0, tenancy=tenancy,
    )
    for when, action in events:
        sim.schedule_event(when, action)
    metrics = sim.run()
    return sim, metrics


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


def _tenancy_for(tagged):
    """The lone-request tests' tagging axis: ``tagged`` runs carry a
    one-tenant config (per-token tenant accounting and the fair pending
    queue), the others are untagged."""
    if not tagged:
        return None
    from repro.tenancy import TenancyConfig, TenantRegistry, TenantSpec

    return TenancyConfig(TenantRegistry([TenantSpec("t")]))


#: The uncut lone request of the window-cut tests, per ``path``.
SOLO_DIGESTS = {
    "tenancy": "497c2015bfa8c0ae",
    "untagged": "0ff21a3867ff3985",
}


@pytest.mark.parametrize("path", ["untagged", "tenancy"])
@pytest.mark.parametrize("cut", ["event", "max_time"])
@pytest.mark.parametrize("point", list(_CUT_POINTS))
def test_window_cut_inside_a_round_matches_per_hop(point, cut, path):
    """A cut inside a decode round changes nothing before it.

    A horizon inside round 150 -> 151 keeps exactly the uncut run's first
    151 token times (152 when it lands on token 151). A no-op
    environment callback there sees the state at its time — a tie with a
    token goes to the callback, which was scheduled first — and leaves
    every observable equal to the uncut run's.
    """
    tenancy = _tenancy_for(path == "tenancy")
    requests = [Request("solo", 64, 300, 10.0, tenant_id="t")]
    full = _serve(requests, tenancy=tenancy)
    _pinned(SOLO_DIGESTS, path, *full)
    times = full[0].record_of("solo").token_times
    when, busy = _CUT_POINTS[point](times[150], times[151])
    assert times[150] < when <= times[151]
    if cut == "max_time":
        sim, _ = _serve(requests, tenancy=tenancy, max_time=when)
        kept = 152 if when == times[151] else 151
        assert sim.record_of("solo").token_times == times[:kept]
        assert sim.now <= when
    else:
        seen = []

        def probe(sim):
            seen.append((
                sim.executors["a100-0"].busy,
                sim.record_of("solo").tokens_generated,
            ))

        probed = _serve(requests, tenancy=tenancy, events=[(when, probe)])
        assert seen == [(busy, 151)]
        assert run_digest(*probed) == run_digest(*full)


#: The busy-channel run, per ``(slow, path)``.
BUSY_CHANNEL_DIGESTS = {
    ("entry", "tenancy"): "31b8b3064bf4a3fe",
    ("entry", "untagged"): "87acc27c46fca209",
    ("inter-stage", "tenancy"): "d39cffb7bb75ab49",
    ("inter-stage", "untagged"): "a6bd4e273797e924",
}


@pytest.mark.parametrize("path", ["untagged", "tenancy"])
@pytest.mark.parametrize("slow", ["entry", "inter-stage"])
def test_window_opening_on_a_busy_channel_matches_per_hop(slow, path):
    """A requeued attempt leaves a channel busy under a lone request.

    On a two-stage pipeline with one slow link, ``r0``'s 2048-token
    prompt takes P0 on that link and its TTFT timeout D requeues it
    mid-transmission, into a backoff that outlasts the horizon. ``r1``
    (16-token prompt, 20 tokens) arrives alone just after; its prompt
    queues behind ``r0``'s on the link and its run takes P1 + decode
    there. With P1 + decode < P0 and (P0 + P1 + decode) / 2 < D < P0,
    ``r1`` still beats its own TTFT timeout. Every observable is pinned.
    """
    from repro.cluster.node import COORDINATOR
    from repro.sim import RequestPolicy

    model = ModelSpec(
        name="batch-busy-8L", num_layers=8, hidden_size=1024, num_heads=8,
        num_kv_heads=8, intermediate_size=2816,
        nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816),
    )
    cluster = Cluster(name="busy-channel-test")
    cluster.add_node("a100-0", A100_40G, region="r0")
    cluster.add_node("a100-1", A100_40G, region="r0")
    cluster.connect_full_mesh(
        ["a100-0", "a100-1"], 10 * GBIT, 0.001, include_coordinator=True
    )
    # The slow link carries prompt ids (entry, P0 = 0.66 s) or prompt
    # activations (inter-stage, P0 = 3.4 s); a decode round's message
    # takes ms.
    src, dst, bandwidth, timeout = {
        "entry": (COORDINATOR, "a100-0", 0.0001 * GBIT, 0.5),
        "inter-stage": ("a100-0", "a100-1", 0.01 * GBIT, 2.5),
    }[slow]
    cluster.connect(src, dst, bandwidth, 0.001)
    cluster.validate()
    placement = ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "a100-1": (4, 8)}
    )
    flow = FlowGraph(cluster, model, placement).solve()
    scheduler = HelixScheduler(
        cluster, model, placement, flow=flow, expected_output_len=20.0
    )
    requests = [
        Request("r0", 2048, 20, 10.0, tenant_id="t"),
        Request("r1", 16, 20, 10.0 + timeout + 0.001, tenant_id="t"),
    ]
    sim = Simulation(
        cluster, model, placement, scheduler, requests,
        max_time=100.0, seed=0, tenancy=_tenancy_for(path == "tenancy"),
        policy=RequestPolicy(ttft_timeout=timeout, retry_backoff=1000.0),
    )
    metrics = sim.run()
    _pinned(BUSY_CHANNEL_DIGESTS, (slow, path), sim, metrics)
    assert sim.record_of("r0").retries == 1
    assert sim.record_of("r1").tokens_generated == 20
    assert sim.channels[src, dst].total_queueing_delay > 0


#: Digests of the single-run scripted scenarios below.
SCRIPTED_DIGESTS = {
    "mid_decode_churn": "2ecff73038f06cfb",
    "overlapping": "24a27b6111ee66e4",
    "tenancy_tagged": "bf20201b39e94cb5",
    "tie_order": "4df6fadba932fd20",
}


def test_simultaneous_completions_keep_tie_order():
    """Identical flooded requests finish at the same instant.

    Completion events then tie on time and are ordered by heap sequence
    number alone, which every event allocates when it is created.
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
    scheduler = HelixScheduler(
        cluster, model, placement, flow=flow, expected_output_len=40.0
    )
    sim = Simulation(
        cluster, model, placement, scheduler, list(requests),
        max_time=1e9, seed=0,
    )
    metrics = sim.run()
    _pinned(SCRIPTED_DIGESTS, "tie_order", sim, metrics)
    finishes = [record.finish_time for record in sim.records]
    assert len(set(finishes)) < len(finishes)  # ties actually occurred


def test_mid_macro_step_churn_invalidates_window():
    """A failure lands mid-decode of a lone request: cut and retry."""
    requests = [Request("victim", 16, 400, 0.0)]

    def fail(sim):
        sim.fail_node("a100-0")
        sim.schedule_event(
            sim.now + 5.0, lambda s: s.restore_node("a100-0")
        )

    sim, metrics = _serve(requests, events=[(1.0, fail)])
    _pinned(SCRIPTED_DIGESTS, "mid_decode_churn", sim, metrics)
    record = sim.record_of("victim")
    assert record.retries == 1
    assert record.tokens_generated == 400


def test_overlapping_requests_match_per_hop():
    """Overlapping requests join and leave each other's batches.

    At offered load ~0.4 arrivals overlap, so a request decodes alone for
    a while, then shares its pipeline with the next arrival; every
    transition is pinned.
    """
    from repro.trace.arrival import diurnal_arrivals

    base = [Request(f"d{i:03d}", 64, 400) for i in range(60)]
    trace = diurnal_arrivals(base, 0.4 / 3.16, seed=0)
    sim, metrics = _serve(trace)
    _pinned(SCRIPTED_DIGESTS, "overlapping", sim, metrics)
    assert sum(record.tokens_generated for record in sim.records) == 60 * 400


def test_tenancy_tagged_trace_matches_per_hop():
    from repro.tenancy import (
        FairnessConfig, TenancyConfig, TenantRegistry, TenantSpec,
    )

    tenancy = TenancyConfig(
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
    sim, metrics = _serve(requests, tenancy=tenancy)
    _pinned(SCRIPTED_DIGESTS, "tenancy_tagged", sim, metrics)
    assert sim.tenancy.tokens_by_tenant == {"alpha": 20 * 60, "beta": 10 * 60}


# ----------------------------------------------------------------------
# Engine telemetry
# ----------------------------------------------------------------------
def test_engine_stats_exposes_batch_telemetry():
    sim, _ = _serve([Request("solo", 64, 300, 10.0)])
    # One arrival, then three events per token on the one-stage pipeline
    # (stage arrival, batch completion, token delivery). The other keys
    # are constant 0, kept for the benchmark ledger.
    assert sim.engine_stats == {
        "events_popped": 1 + 3 * 300,
        "grouped_hops": 0,
        "fast_forwarded_tokens": 0,
        "vec_fast_forwarded_tokens": 0,
    }


# Exact event counts: a change that adds or drops logical events fails
# loudly. Every hop is one event, so these are the per-hop counts; the
# chaos count includes the detector's one event per heartbeat round.
PINNED_EVENT_COUNTS = {
    ("full_mesh", 0): 2391,
    # Two flaky-link windows with traffic arriving inside them.
    (CHAOS_FAMILY, 20): 2162,
}


@pytest.mark.parametrize(
    "family,seed", list(PINNED_EVENT_COUNTS),
    ids=[f"{f}-{s}" for f, s in PINNED_EVENT_COUNTS],
)
def test_event_counts_are_pinned(family, seed):
    from repro.online.faults import FlakyLink
    from repro.scenarios.generator import generate_scenario
    from repro.testkit.harness import run_scenario

    scenario = generate_scenario(family, seed, "smoke")
    if family == CHAOS_FAMILY:
        onset = min(e.time for e in scenario.churn if isinstance(e, FlakyLink))
        assert any(r.arrival_time > onset for r in scenario.requests)
    stats = run_scenario(scenario).sim.engine_stats
    assert (stats["events_popped"], stats["grouped_hops"]) == (
        PINNED_EVENT_COUNTS[family, seed], 0
    )
