"""Gray-failure chaos suite: detection, lifecycle policy, fault injection.

The acceptance criteria of the robustness PR, as tier-1 smoke tests:

* killing the most-loaded node in detection mode confirms within a
  bounded MTTD with zero false positives on a fault-free control trace;
* request conservation (injected == finished + in-flight)
  holds on chaos scenario addresses;
* goodput recovers to >= 75% of its pre-fault level after detection;
* a default-constructed :class:`RequestPolicy` is bit-identical to the
  legacy (no-policy) semantics;
* the chaos sweep headline (seeds 0-24 at full size) is pinned exactly.
"""

import math

import pytest

from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.online import (
    FlakyLink,
    NodeFailure,
    NodeRecovery,
    OnlineController,
    StragglerEnd,
    StragglerStart,
    ZombieNode,
)
from repro.scheduling import HelixScheduler
from repro.sim import Request, RequestPolicy, Simulation
from repro.testkit import (
    assert_scenario_ok, check_chaos, run_scenario, verify_scenario,
)
from repro.testkit.golden import run_digest


@pytest.fixture()
def placement8():
    return ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
    )


def make_simulation(cluster, model, placement, requests, **kwargs):
    flow = FlowGraph(cluster, model, placement).solve()
    scheduler = HelixScheduler(cluster, model, placement, flow=flow)
    return Simulation(cluster, model, placement, scheduler, requests, **kwargs)


def steady_trace(n, spacing, input_len=32, output_len=8):
    return [
        Request(f"r{i}", input_len, output_len, arrival_time=i * spacing)
        for i in range(n)
    ]


def assert_conserved(sim, metrics):
    __tracebackhide__ = True
    violations = check_chaos(sim, metrics)
    assert not violations, "\n".join(str(v) for v in violations)


def _two_tenants_report(sim, mode):
    """Tenants ``a`` and ``b``'s report over ``sim``'s run, with
    ``mode`` fairness in 0.5 s windows."""
    from repro.tenancy import (
        FairnessConfig, TenancyConfig, TenantRegistry, TenantSpec,
        tenant_report,
    )

    tenancy = TenancyConfig(
        TenantRegistry([TenantSpec("a"), TenantSpec("b")]),
        fairness=FairnessConfig(mode=mode, window=0.5),
    )
    return tenant_report(
        sim.records, tenancy, end_time=sim.now,
        backlogged=sim.pending_tenants,
    )


def _heal(sim):
    sim.set_compute_slowdown("a100-0", 1.0)
    sim.set_compute_slowdown("t4-1", 1.0)


#: ``run_digest(...)[:16]`` of the chaos addresses whose policy draw
#: carried a hedge delay or a deadline before those were deleted, per
#: ``(size, seed)``.
POLICY_DRAW_DIGESTS = {
    ("smoke", 0): "ea14f3b73b179632",
    ("smoke", 5): "f6f91517668bb290",
    ("smoke", 7): "07c03ac41f4a0570",
    ("smoke", 8): "84dccad649bc28ce",
    ("smoke", 10): "ee92cedab316451b",
    ("smoke", 13): "4e81a06645966c9f",
    ("smoke", 14): "785b6d4437f4f4fb",
    ("smoke", 20): "5fad3e9a4b948135",
    ("full", 1): "f4fe413598959a46",
    ("full", 4): "77973a8510565748",
    ("full", 6): "7ca65c1452bdd915",
    ("full", 9): "64afc7bbc326530d",
    ("full", 10): "1d6968f5cab3aa75",
    ("full", 12): "3695c597030bfaa7",
    ("full", 15): "1fa943c114f5a0c8",
    ("full", 16): "a02472870fa19a07",
}


# ----------------------------------------------------------------------
# Failure detection
# ----------------------------------------------------------------------
class TestDetection:
    def test_kill_most_loaded_node_confirms_within_bounded_mttd(
        self, small_cluster, tiny_model, placement8
    ):
        """A silent crash of the strongest node is confirmed, bounded MTTD."""
        requests = steady_trace(60, 0.2)
        controller = OnlineController(
            tiny_model,
            events=[NodeFailure(2.0, "a100-0")],
            replan=False,
            detection_mode=True,
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, controller=controller, debug_validate=True,
        )
        metrics = sim.run()

        assert len(controller.detections) == 1
        _, node_id, _, mttd = controller.detections[0]
        assert node_id == "a100-0"
        assert 0.0 < mttd < 6.0
        assert controller.detector.false_positives == 0
        assert "a100-0" in sim.down_nodes
        # The replica absorbs the failure: everything still finishes.
        assert metrics.requests_finished == 60
        assert metrics.requests_retried > 0
        assert sim.dead_node_token_violations() == []
        assert_conserved(sim, metrics)

        report = controller.report(sim)
        assert report.mttd_mean == pytest.approx(mttd)
        assert report.false_positives == 0
        # End-to-end repair time: goodput regains its bar only after the
        # confirmation reacted, so detection always precedes recovery.
        # (The default 2 s window has no full pre-fault bucket before the
        # t=2 kill; 1 s buckets resolve the pre-fault goodput.)
        repair = controller.report(sim, window=1.0)
        assert math.isfinite(repair.mttr)
        assert repair.mttd_max <= repair.mttr

    def test_simultaneous_node_failures_are_all_detected(
        self, small_cluster, tiny_model, placement8
    ):
        """Two nodes dying at the same instant each get their own verdict.

        Regression guard for the detector's suspicion bookkeeping: a
        confirmation must not clear (or mask) the other node's pending
        suspicion.
        """
        requests = steady_trace(60, 0.2)
        controller = OnlineController(
            tiny_model,
            events=[NodeFailure(2.0, "a100-0"), NodeFailure(2.0, "l4-0")],
            replan=False,
            detection_mode=True,
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert {row[1] for row in controller.detections} == {"a100-0", "l4-0"}
        for _, _, _, mttd in controller.detections:
            assert 0.0 < mttd < 6.0
        assert controller.detector.false_positives == 0
        assert sim.down_nodes >= {"a100-0", "l4-0"}
        # The surviving replica pair ({t4-1} x {t4-0}) carries the trace.
        assert metrics.requests_finished == 60
        assert sim.dead_node_token_violations() == []
        assert_conserved(sim, metrics)

    def test_a_restored_node_is_detected_again(
        self, small_cluster, tiny_model, placement8
    ):
        """Silent crash, confirmation, recovery, silent crash again.

        The recovery clears the first verdict, so the detector monitors
        the node afresh and confirms its second failure too; the replica
        then serves every request the second crash stalled.
        """
        requests = steady_trace(80, 0.25)
        controller = OnlineController(
            tiny_model,
            events=[
                NodeFailure(2.0, "a100-0"),
                NodeRecovery(10.0, "a100-0"),
                NodeFailure(14.0, "a100-0"),
            ],
            replan=False,
            detection_mode=True,
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, controller=controller, debug_validate=True,
        )
        metrics = sim.run()
        (first, node_a, _, mttd_a), (second, node_b, _, mttd_b) = (
            controller.detections
        )
        assert node_a == node_b == "a100-0"
        assert 2.0 < first < 10.0 and 14.0 < second
        assert 0.0 < mttd_a < 6.0 and 0.0 < mttd_b < 6.0
        assert controller.detector.false_positives == 0
        assert "a100-0" in sim.down_nodes
        assert metrics.requests_finished == 80
        assert sim.dead_node_token_violations() == []
        assert_conserved(sim, metrics)

    def test_fault_free_control_has_zero_false_positives(
        self, small_cluster, tiny_model, placement8
    ):
        """Detection over a healthy run: no suspicion survives, no FPs."""
        requests = steady_trace(40, 0.2)
        controller = OnlineController(
            tiny_model, events=[], replan=False, detection_mode=True
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert controller.detections == []
        assert controller.detector.false_positives == 0
        assert controller.detector.heartbeats_sent > 0
        assert metrics.requests_finished == 40
        assert_conserved(sim, metrics)

    def test_detection_does_not_perturb_data_plane(
        self, small_cluster, tiny_model, placement8
    ):
        """Heartbeats ride a control plane: token timings are untouched."""
        requests = steady_trace(30, 0.1)
        plain = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        plain_metrics = plain.run()

        controller = OnlineController(
            tiny_model, events=[], replan=False, detection_mode=True
        )
        detected = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0, controller=controller,
        )
        detected_metrics = detected.run()

        assert detected.token_timeline == plain.token_timeline
        assert detected_metrics.requests_finished == plain_metrics.requests_finished
        assert detected_metrics.decode_tokens == plain_metrics.decode_tokens

    def test_goodput_recovers_after_detection(
        self, small_cluster, tiny_model, placement8
    ):
        """Post-detection goodput regains >= 75% of the pre-fault level."""
        requests = steady_trace(120, 0.25)
        controller = OnlineController(
            tiny_model,
            events=[NodeFailure(8.0, "a100-0")],
            replan=False,
            detection_mode=True,
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=90.0, seed=0, controller=controller,
        )
        metrics = sim.run()
        assert metrics.requests_finished == 120
        report = controller.report(sim)
        assert report.pre_disruption_goodput > 0
        assert report.recovery_ratio >= 0.75

    def test_zombie_is_detected_by_progress_watchdog(
        self, small_cluster, tiny_model, placement8
    ):
        """A zombie heartbeats forever; only the watchdog catches it."""
        requests = steady_trace(60, 0.2)
        controller = OnlineController(
            tiny_model,
            events=[ZombieNode(2.0, "a100-0")],
            replan=False,
            detection_mode=True,
        )
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=60.0, seed=0, controller=controller, debug_validate=True,
        )
        metrics = sim.run()
        assert len(controller.detections) == 1
        _, node_id, kind, mttd = controller.detections[0]
        assert node_id == "a100-0"
        assert kind == "zombie"
        assert 0.0 < mttd < 6.0
        assert controller.detector.false_positives == 0
        assert metrics.requests_finished == 60
        assert sim.dead_node_token_violations() == []
        assert_conserved(sim, metrics)


# ----------------------------------------------------------------------
# Request lifecycle policy
# ----------------------------------------------------------------------
class TestRequestPolicy:
    def test_default_policy_is_legacy(self):
        policy = RequestPolicy()
        assert [policy.retry_delay("r0", n) for n in (1, 2, 3)] == [0.0] * 3

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        ["retry_backoff", "jitter"],
    )
    def test_non_finite_knobs_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RequestPolicy(**{field: value})

    def test_retry_delay_is_deterministic_and_backs_off(self):
        policy = RequestPolicy(retry_backoff=0.2, jitter=0.5)
        d1 = policy.retry_delay("r0", 1)
        d2 = policy.retry_delay("r0", 2)
        assert d1 == policy.retry_delay("r0", 1)  # pure function
        assert d2 > d1  # exponential growth dominates the jitter
        assert policy.retry_delay("r0", 1) != policy.retry_delay("r1", 1)

    def test_default_policy_matches_no_policy_bit_identically(
        self, small_cluster, tiny_model, placement8
    ):
        requests = steady_trace(30, 0.1)
        legacy = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        legacy_metrics = legacy.run()
        policied = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0, policy=RequestPolicy(),
        )
        policied_metrics = policied.run()
        assert policied.token_timeline == legacy.token_timeline
        assert policied_metrics.requests_finished == legacy_metrics.requests_finished
        assert policied_metrics.decode_throughput == legacy_metrics.decode_throughput

    def test_failure_requeue_releases_a_dispatched_attempt_under_fairness(
        self, small_cluster, tiny_model, placement8
    ):
        """A node failure requeues ``r0`` while its attempt is dispatched.

        Both stage-0 replicas straggle, so tenant ``a``'s ``r0`` holds
        a pipeline through ``a100-0`` with no first token when that node
        fails at 0.1 s, and its retry backoff outlasts the horizon; the
        nodes heal at 0.2 s and tenant ``b``'s ``r1`` (arriving at 0.3 s)
        finishes on the surviving replica. Under T-mode fairness the
        released attempt's 0.1 s pipeline hold is ``a``'s service.
        """
        requests = [
            Request("r0", 64, 8, arrival_time=0.0, tenant_id="a"),
            Request("r1", 64, 8, arrival_time=0.3, tenant_id="b"),
        ]
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=30.0, seed=0, policy=RequestPolicy(retry_backoff=60.0),
        )
        sim.set_compute_slowdown("a100-0", 50.0)
        sim.set_compute_slowdown("t4-1", 50.0)
        sim.schedule_event(0.1, lambda s: s.fail_node("a100-0"))
        sim.schedule_event(0.2, _heal)
        failed = []
        inner = sim.scheduler.notify_failed

        def spy(request_id):
            failed.append(request_id)
            inner(request_id)

        sim.scheduler.notify_failed = spy
        metrics = sim.run()
        assert failed == ["r0"]
        assert sim.record_of("r0").retries == 1
        assert metrics.requests_finished == 1
        assert sim.in_flight_requests == 1
        assert sim.scheduler.active_requests == 0
        assert_conserved(sim, metrics)
        service = _two_tenants_report(sim, "T")["service"]
        assert {k: round(sum(v), 12) for k, v in service.items()} == {
            "a": 0.1, "b": 0.095466146968,
        }
        assert run_digest(sim, metrics)[:16] == "0d64b5399a6eafb5"

    def test_node_failure_keeps_a_requeued_attempts_tokens_as_service(
        self, small_cluster, tiny_model, placement8
    ):
        """A failure requeues ``r0`` mid-decode; its lost tokens count.

        Tenant ``a``'s ``r0`` decodes through ``a100-0``, which fails at
        0.2 s after 17 of its 40 tokens; the retry finishes on ``t4-1``
        while tenant ``b``'s ``r1`` runs. Under W-mode fairness the 17
        lost tokens are ``a``'s service in the windows they were emitted
        in.
        """
        requests = [
            Request("r0", 64, 40, arrival_time=0.0, tenant_id="a"),
            Request("r1", 64, 40, arrival_time=0.3, tenant_id="b"),
        ]
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=30.0, seed=0,
        )
        sim.schedule_event(0.2, lambda s: s.fail_node("a100-0"))
        metrics = sim.run()
        record = sim.record_of("r0")
        assert (record.retries, record.tokens_lost) == (1, 17)
        assert metrics.requests_finished == 2
        assert_conserved(sim, metrics)
        report = _two_tenants_report(sim, "W")
        assert report["tokens_by_tenant"] == {"a": 57, "b": 40}
        assert report["service"] == {"a": [42.0, 15.0], "b": [16.0, 24.0]}
        assert report["fairness_index"] == 0.9702000412456177
        assert run_digest(sim, metrics)[:16] == "306b3cc6c3c4fd04"


# ----------------------------------------------------------------------
# Gray fault injection
# ----------------------------------------------------------------------
class TestGrayFaults:
    def test_straggler_slows_serving_and_restores_bit_identically(
        self, small_cluster, tiny_model, placement8
    ):
        requests = steady_trace(20, 0.05)
        baseline = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        baseline_metrics = baseline.run()

        slow = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        slow.schedule_event(
            0.0, lambda s, ev=StragglerStart(0.0, "a100-0", 8.0): s.apply_event(ev)
        )
        slow_metrics = slow.run()
        assert slow_metrics.requests_finished == 20
        assert slow_metrics.decode_throughput < baseline_metrics.decode_throughput

        # Straggle and recover before any work arrives: the run must be
        # bit-identical to the baseline (set_slowdown(1.0) restores the
        # executor exactly).
        restored = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        restored.schedule_event(
            0.0, lambda s, ev=StragglerStart(0.0, "a100-0", 8.0): s.apply_event(ev)
        )
        restored.schedule_event(
            0.001, lambda s, ev=StragglerEnd(0.001, "a100-0"): s.apply_event(ev)
        )
        restored_metrics = restored.run()
        assert restored.token_timeline == baseline.token_timeline
        assert restored_metrics.decode_throughput == (
            baseline_metrics.decode_throughput
        )

    def test_flaky_link_delays_messages_but_conserves_tokens(
        self, small_cluster, tiny_model, placement8
    ):
        requests = steady_trace(20, 0.05)
        baseline = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        baseline_metrics = baseline.run()

        flaky = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        event = FlakyLink(0.0, "a100-0", "l4-0",
                          drop_probability=0.5, retransmit_delay=0.05)
        flaky.schedule_event(0.0, lambda s, ev=event: s.apply_event(ev))
        flaky_metrics = flaky.run()

        fault = flaky.channels[("a100-0", "l4-0")].fault
        assert fault is not None
        assert fault.messages > 0
        assert fault.drops > 0
        # TCP-style retransmits: every token still arrives, just later.
        assert flaky_metrics.requests_finished == 20
        assert flaky_metrics.decode_tokens == baseline_metrics.decode_tokens
        assert flaky_metrics.decode_throughput <= (
            baseline_metrics.decode_throughput
        )
        assert_conserved(flaky, flaky_metrics)

        flaky.clear_link_flaky("a100-0", "l4-0")
        assert flaky.channels[("a100-0", "l4-0")].fault is None
        assert flaky.channels[("l4-0", "a100-0")].fault is None

    def test_flaky_link_ungroups_only_its_own_hops(
        self, small_cluster, tiny_model, placement8
    ):
        """One flaky link delays only its own hops; the run is pinned.

        Retransmits hit the faulty channel, no other channel carries a
        fault, every request still finishes, and every observable is
        pinned (its ``run_digest`` and event count).
        """
        from repro.testkit.golden import run_digest

        sim = make_simulation(
            small_cluster, tiny_model, placement8, steady_trace(60, 0.0),
            max_time=60.0, seed=0,
        )
        sim.schedule_event(
            0.0, lambda s: s.set_link_flaky("a100-0", "l4-0", 0.5, 0.05)
        )
        metrics = sim.run()
        assert metrics.requests_finished == 60
        faulty = {("a100-0", "l4-0"), ("l4-0", "a100-0")}
        assert sim.channels[("a100-0", "l4-0")].fault.drops == 223
        assert all(
            channel.fault is None
            for key, channel in sim.channels.items() if key not in faulty
        )
        assert run_digest(sim, metrics)[:16] == "b9717e6d526d1758"
        assert sim.events_popped == 1812

    def test_gray_mode_unlatches_when_every_fault_heals(
        self, small_cluster, tiny_model, placement8
    ):
        """Healing a gray fault leaves no trace on later traffic.

        A flaky link that appears and fully heals *before any traffic
        crosses it* must leave a run indistinguishable from one that
        never saw a fault: exact token times and exact throughput.
        """
        requests = [
            Request(f"r{i}", 32, 8, arrival_time=1.0 + i * 0.05)
            for i in range(20)
        ]
        baseline = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        baseline_metrics = baseline.run()

        healed = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        healed.schedule_event(
            0.2, lambda s: s.set_link_flaky("a100-0", "l4-0", 0.5, 0.05)
        )
        healed.schedule_event(
            0.5, lambda s: s.clear_link_flaky("a100-0", "l4-0")
        )
        healed_metrics = healed.run()
        assert healed.token_timeline == baseline.token_timeline
        assert healed_metrics.decode_throughput == (
            baseline_metrics.decode_throughput
        )
        assert healed_metrics.requests_finished == 20

        # A heal in the middle of live traffic keeps the run conserved,
        # even with drops and retransmits behind it.
        mid = make_simulation(
            small_cluster, tiny_model, placement8, steady_trace(20, 0.05),
            max_time=60.0, seed=0,
        )
        mid.schedule_event(
            0.2, lambda s: s.set_link_flaky("a100-0", "l4-0", 0.5, 0.05)
        )
        mid.schedule_event(
            2.0, lambda s: s.clear_link_flaky("a100-0", "l4-0")
        )
        mid_metrics = mid.run()
        assert mid_metrics.requests_finished == 20
        assert_conserved(mid, mid_metrics)

    def test_silent_failure_blackholes_until_confirmed(
        self, small_cluster, tiny_model, placement8
    ):
        """Unannounced crash: the scheduler keeps routing to the corpse."""
        requests = steady_trace(20, 0.05, output_len=4)
        sim = make_simulation(
            small_cluster, tiny_model, placement8, requests,
            max_time=30.0, seed=0,
        )
        sim.schedule_event(0.2, lambda s: s.fail_node("a100-0", announce=False))
        sim.schedule_event(2.0, lambda s: s.confirm_node_failure("a100-0"))
        metrics = sim.run()
        assert metrics.requests_finished == 20
        assert metrics.requests_retried > 0
        assert "a100-0" in sim.down_nodes
        assert sim.dead_node_token_violations() == []
        assert_conserved(sim, metrics)


# ----------------------------------------------------------------------
# Chaos scenario family (generated addresses)
# ----------------------------------------------------------------------
class TestChaosScenarios:
    @pytest.mark.parametrize("seed", range(3))
    def test_chaos_address_verifies(self, seed):
        """Invariants (incl. request conservation) hold, runs reproduce."""
        assert_scenario_ok(verify_scenario("chaos", seed, "smoke"))

    def test_replay_catches_nondeterministic_detector(self, monkeypatch):
        """A detector output that differs between the run and its replay
        trips ``per_seed_determinism`` even though every token matches."""
        from itertools import count

        from repro.online.detect import FailureDetector

        runs = count()
        start = FailureDetector.start

        def skewed_start(detector):
            start(detector)
            detector.false_positives = next(runs)  # 0, then 1 on replay

        monkeypatch.setattr(FailureDetector, "start", skewed_start)
        report = verify_scenario("chaos", 0, "smoke", flow_differential=False)
        assert [(v.invariant, v.detail) for v in report.violations] == [(
            "per_seed_determinism",
            "two runs of the same (family, seed, size) produced different "
            "disruption telemetry",
        )]

    @pytest.mark.parametrize("seed", [0, 5, 7, 8, 10, 13, 14, 20])
    def test_policy_draw_addresses_are_pinned(self, seed):
        """Smoke addresses whose policy draw carried a hedge delay or a
        deadline keep their runs (the full-size ones are pinned with the
        headline)."""
        from repro.scenarios.generator import generate_scenario

        report = run_scenario(generate_scenario("chaos", seed, "smoke"))
        assert_scenario_ok(report)
        digest = run_digest(report.sim, report.metrics)[:16]
        assert digest == POLICY_DRAW_DIGESTS["smoke", seed]

    def test_chaos_smoke_0_requeues_on_confirmation(self):
        """Chaos smoke 0 was the one address where a TTFT timeout (since
        deleted) requeued an attempt: ``azure-17``'s, at 17.54 s. Now the
        detector's confirmation of the zombie it stalls on requeues it,
        at 18.25 s, and every request still finishes."""
        from repro.scenarios.generator import generate_scenario

        report = run_scenario(generate_scenario("chaos", 0, "smoke"))
        assert_scenario_ok(report)
        assert report.metrics.requests_finished == 18
        assert [r.request_id for r in report.sim.records if r.retries] == [
            "azure-17"
        ]
        requeued = report.sim.record_of("azure-17").requeued_attempts
        assert [released for _, released, _ in requeued] == [18.25]
        assert report.sim.controller.detections[0][:3] == (
            18.25, "t4-1", "zombie",
        )
        digest = run_digest(report.sim, report.metrics)[:16]
        assert digest == "ea14f3b73b179632"

    def test_legacy_families_are_unaffected(self):
        from repro.scenarios.generator import (
            SCENARIO_FAMILIES, generate_scenario,
        )
        for family in SCENARIO_FAMILIES:
            scenario = generate_scenario(family, 0, "smoke")
            assert scenario.detection is False
            assert scenario.policy is None

    def test_chaos_scenarios_carry_detection_and_policy(self):
        from repro.scenarios.generator import generate_scenario
        hit_policy = False
        for seed in range(6):
            scenario = generate_scenario("chaos", seed, "smoke")
            assert scenario.detection is True
            assert scenario.churn, "chaos scenarios must inject faults"
            hit_policy = hit_policy or scenario.policy is not None
        assert hit_policy


# ----------------------------------------------------------------------
# Chaos sweep headline (simulated time, so exact on every machine)
# ----------------------------------------------------------------------
def test_chaos_sweep_headline_is_pinned():
    """Seeds 0-24 of the chaos family at full size, aggregated.

    Detection (MTTD), recovery (MTTR, goodput ratio), false positives and
    request accounting are all simulated-time quantities: a change that
    moves any of them changes the model's behaviour and must say so by
    re-pinning here. The full-size :data:`POLICY_DRAW_DIGESTS` runs are
    pinned whole.
    """
    reports = [verify_scenario("chaos", seed, "full") for seed in range(25)]
    for report in reports:
        assert_scenario_ok(report)
    disruptions = [report.disruption for report in reports]
    detected = [d for d in disruptions if math.isfinite(d.mttd_mean)]
    recoveries = [
        d.time_to_recovery for d in disruptions
        if math.isfinite(d.time_to_recovery)
    ]
    ratios = [
        d.recovery_ratio for d in disruptions
        if math.isfinite(d.recovery_ratio)
    ]
    metrics = [report.metrics for report in reports]
    assert len(detected) == 19
    assert round(sum(d.mttd_mean for d in detected) / 19, 4) == 3.5768
    assert round(max(d.mttd_max for d in detected), 4) == 3.6226
    assert round(sum(recoveries) / len(recoveries), 4) == 1.9839
    assert round(sum(ratios) / len(ratios), 4) == 0.8979
    assert sum(d.false_positives for d in disruptions) == 0
    assert sum(m.requests_submitted for m in metrics) == 1873
    assert sum(m.requests_finished for m in metrics) == 1873
    for (size, seed), digest in POLICY_DRAW_DIGESTS.items():
        if size == "full":
            report = reports[seed]
            assert run_digest(report.sim, report.metrics)[:16] == digest, seed
