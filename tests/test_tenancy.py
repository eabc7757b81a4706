"""Multi-tenancy suite: registry, fairness, SLO attainment.

The acceptance criteria of the tenancy PR, as tier-1 smoke tests:

* the simulator has no tenant: tagging a trace's requests with tenant
  ids leaves the run untouched (same token timeline on the same trace),
  and :func:`~repro.tenancy.report.tenant_report` computes per-tenant
  results from the records afterwards;
* a registered tenant that sends no traffic does not depress the
  fairness index;
* under a two-tenant flood that keeps the pending queue backlogged,
  every request record is the one the same run has untagged;
* the ``tenant`` scenario family passes every invariant (determinism,
  differential oracles, live per-tenant KV accounting) on several seeds;
* the tenant sweep headline (seeds 0-24 at full size) is pinned exactly.
"""

import math
from dataclasses import replace

import pytest

from repro.flow.graph import FlowGraph
from repro.scheduling import HelixScheduler
from repro.sim import Request, Simulation, aggregate_tenant_metrics
from repro.sim.metrics import RequestRecord
from repro.tenancy import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    FairnessConfig,
    SLOClass,
    TenancyConfig,
    TenantRegistry,
    TenantSpec,
    jain_index,
    tenant_report,
    tenant_tokens,
)
from repro.tenancy.fairness import WindowedFairnessTracker
from repro.testkit import (
    assert_scenario_ok, check_tenancy, run_scenario, verify_scenario,
)
from repro.testkit.golden import run_digest


def make_simulation(cluster, model, placement, requests, **kwargs):
    flow = FlowGraph(cluster, model, placement).solve()
    scheduler = HelixScheduler(cluster, model, placement, flow=flow)
    return Simulation(cluster, model, placement, scheduler, requests, **kwargs)


def trace(n, spacing, tenant_id="", start=0.0, input_len=32, output_len=8):
    return [
        Request(
            f"{tenant_id or 'r'}:{i}",
            input_len,
            output_len,
            arrival_time=start + i * spacing,
            tenant_id=tenant_id,
        )
        for i in range(n)
    ]


def merged(*traces):
    out = [r for t in traces for r in t]
    out.sort(key=lambda r: (r.arrival_time, r.request_id))
    return out


@pytest.fixture()
def placement8():
    from repro.core.placement_types import ModelPlacement

    return ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)}
    )


# ----------------------------------------------------------------------
# Registry & SLO classes
# ----------------------------------------------------------------------
class TestRegistry:
    def test_slo_class_validation(self):
        with pytest.raises(ValueError):
            SLOClass("bad", ttft_target=0.0, tbt_target=1.0)
        with pytest.raises(ValueError):
            SLOClass("bad", ttft_target=1.0, tbt_target=1.0, percentile=1.5)

    def test_registry_is_sorted_and_shares_normalize(self):
        registry = TenantRegistry([
            TenantSpec("zeta", rate_share=3.0),
            TenantSpec("alpha", rate_share=1.0),
        ])
        assert registry.ids == ("alpha", "zeta")
        shares = registry.shares()
        assert shares["zeta"] == pytest.approx(0.75)
        assert sum(shares.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("field", ["rate_share"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tenant_knobs_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TenantSpec("t", **{field: value})

    def test_duplicate_tenant_rejected(self):
        with pytest.raises(ValueError):
            TenantRegistry([TenantSpec("a"), TenantSpec("a")])

    def test_presets_cover_the_latency_spectrum(self):
        assert INTERACTIVE.ttft_target < STANDARD.ttft_target < BATCH.ttft_target


# ----------------------------------------------------------------------
# Fairness tracker & Jain index
# ----------------------------------------------------------------------
class TestFairness:
    @pytest.mark.parametrize("field", ["window"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_fairness_knobs_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            FairnessConfig(**{field: value})

    def test_jain_index_extremes(self):
        assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        # One tenant hogging everything: index collapses toward 1/n.
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)
        assert jain_index([]) == 1.0

    def test_jain_index_all_zero_idle_vs_starved(self):
        # All-zero service is ambiguous: an idle system is vacuously
        # fair, a backlogged one is maximally unfair. ``any_demand``
        # disambiguates — a run that ends with every tenant queued and
        # none served must not score 1.0.
        assert jain_index([0.0, 0.0]) == 1.0
        assert jain_index([0.0, 0.0], any_demand=True) == pytest.approx(0.5)
        assert jain_index([0.0] * 4, any_demand=True) == pytest.approx(0.25)

    def test_tracker_fairness_index_starved_backlog_scores_minimum(self):
        config = FairnessConfig(mode="W", window=1.0, backlog_windows=4)
        tracker = WindowedFairnessTracker(config, {"a": 0.5, "b": 0.5})
        # Nothing served, nothing queued: vacuously fair.
        assert tracker.fairness_index(5.0) == 1.0
        # Nothing served with both tenants backlogged: total starvation.
        assert tracker.fairness_index(5.0, backlogged=("a", "b")) == (
            pytest.approx(0.5)
        )
        # One tenant served, the other starved with queued demand: the
        # starved tenant participates with ratio 0 instead of vanishing.
        tracker.note("a", 4.5, 10.0)
        starved = tracker.fairness_index(5.0, backlogged=("b",))
        assert starved == pytest.approx(0.5)

    def test_window_accounting_and_span_split(self):
        config = FairnessConfig(mode="T", window=1.0, backlog_windows=2)
        tracker = WindowedFairnessTracker(config, {"a": 0.5, "b": 0.5})
        # A span crossing a window boundary splits across both windows.
        tracker.note_span("a", 0.5, 1.5)
        service = tracker.service_in_backlog(1.5)
        assert service["a"] == pytest.approx(1.0)
        # Beyond the backlog horizon the early half ages out.
        service = tracker.service_in_backlog(2.5)
        assert service["a"] == pytest.approx(0.5)

    def test_zero_demand_tenant_has_zero_debt(self):
        """A registered-but-idle tenant must not depress the index."""
        config = FairnessConfig(mode="W", window=1.0, backlog_windows=4)
        record = RequestRecord(
            request_id="busy:0", input_len=16, output_len=20,
            arrival_time=0.0, tenant_id="busy",
        )
        record.token_times = [0.1 * i for i in range(20)]
        record.tokens_generated = 20
        report = tenant_report(
            [record],
            TenancyConfig(
                registry=TenantRegistry([
                    TenantSpec("busy"), TenantSpec("idle"),
                ]),
                fairness=config,
            ),
            end_time=2.0,
            backlogged=("busy",),
        )
        # Only tenants with service or queued demand participate: with
        # one active tenant the index is perfect.
        assert report["fairness_index"] == 1.0
        assert report["tokens_by_tenant"] == {"busy": 20, "idle": 0}

    def test_fairness_index_does_not_depend_on_hash_seed(self):
        """Shares 1:2:7 and service 0.3 / 0.6 / 0.1 in one window: the
        fairness index is the same float under every ``PYTHONHASHSEED``
        (sums run in tenant order, not set order)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.tenancy import fairness

        # The module is imported on its own: the package pulls in scipy,
        # which would dominate ten interpreter starts.
        script = (
            "from fairness import FairnessConfig, WindowedFairnessTracker\n"
            "tracker = WindowedFairnessTracker(\n"
            "    FairnessConfig(mode='W', window=1.0, backlog_windows=1),\n"
            "    {'t-a': 1.0, 't-b': 2.0, 't-c': 7.0},\n"
            ")\n"
            "for tid, amount in (('t-a', 0.3), ('t-b', 0.6), ('t-c', 0.1)):\n"
            "    tracker.note(tid, 0.5, amount)\n"
            "print(repr(tracker.fairness_index(0.5, backlogged={'t-c'})))\n"
        )
        here = str(Path(fairness.__file__).resolve().parent)
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=here),
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in range(10)
        }
        assert len(outputs) == 1, outputs


def test_tenancy_never_imports_the_simulator():
    """The package reports over records and never reaches into the
    engine. Its sources are parsed, not imported, so an import inside a
    function counts too."""
    import ast
    from pathlib import Path

    package = Path(__file__).resolve().parents[1] / "src" / "repro" / "tenancy"
    sources = sorted(package.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(
                name == "repro.sim.simulator"
                or name.startswith("repro.sim.simulator.")
                for name in names
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


# ----------------------------------------------------------------------
# Engine gating: untagged by default, one tenant bit-identical
# ----------------------------------------------------------------------
class TestGating:
    def test_tenancy_off_by_default(self, small_cluster, tiny_model, placement8):
        sim = make_simulation(
            small_cluster, tiny_model, placement8, trace(5, 0.1),
            max_time=30.0, seed=0,
        )
        sim.run()
        assert sim.kv_usage_by_tenant() == {}
        assert tenant_tokens(sim.records) == {}

    def test_single_tenant_is_bit_identical(
        self, small_cluster, tiny_model, placement8
    ):
        """Tagging every request with one tenant must not perturb the
        engine: same requests, same seed => the exact same token
        timeline."""
        requests = trace(40, 0.1, tenant_id="solo")
        off = make_simulation(
            small_cluster, tiny_model, placement8,
            [replace(r, tenant_id="") for r in requests],
            max_time=60.0, seed=0,
        )
        metrics_off = off.run()
        on = make_simulation(
            small_cluster, tiny_model, placement8, list(requests),
            max_time=60.0, seed=0,
        )
        metrics_on = on.run()
        assert on.token_timeline == off.token_timeline
        assert metrics_on.requests_finished == metrics_off.requests_finished
        assert metrics_on.decode_throughput == metrics_off.decode_throughput
        tenancy = TenancyConfig(TenantRegistry([TenantSpec("solo")]))
        report = tenant_report(on.records, tenancy, end_time=on.now)
        assert report["tokens_by_tenant"]["solo"] == on.tokens_emitted
        violations = check_tenancy(on, metrics_on, tenancy.registry)
        assert not violations, "\n".join(str(v) for v in violations)


# ----------------------------------------------------------------------
# Tags never reorder the pending queue
# ----------------------------------------------------------------------
#: The contended run's tenants.
CONTENDED = TenancyConfig(
    TenantRegistry([TenantSpec("vip"), TenantSpec("lowly")]),
    fairness=FairnessConfig(mode="W", window=1.0, backlog_windows=3),
)


def _contended_run(small_cluster, tiny_model, placement8, tagged):
    """A sustained ``vip`` flood plus a trickle of ``lowly`` work.

    The scheduler's expected-output KV charge is inflated so only a few
    requests fit concurrently; arrivals outpace admission and the pending
    queue stays deeply backlogged with both tenants. Untagged, the same
    requests carry no tenant id.
    """
    requests = merged(
        trace(200, 0.02, tenant_id="vip", input_len=64, output_len=48),
        trace(8, 0.02, tenant_id="lowly", input_len=64, output_len=48),
    )
    if not tagged:
        requests = [replace(r, tenant_id="") for r in requests]
    flow = FlowGraph(small_cluster, tiny_model, placement8).solve()
    scheduler = HelixScheduler(
        small_cluster, tiny_model, placement8, flow=flow,
        expected_output_len=400000.0,
    )
    sim = Simulation(
        small_cluster, tiny_model, placement8, scheduler, requests,
        max_time=120.0, seed=0,
    )
    metrics = sim.run()
    return sim, metrics


def test_tenancy_does_not_reorder_requests(
    small_cluster, tiny_model, placement8
):
    """With both tenants backlogged, every record (serving order,
    first-token and token times) is the one the run has untagged."""
    on, metrics = _contended_run(small_cluster, tiny_model, placement8, True)
    off, _ = _contended_run(small_cluster, tiny_model, placement8, False)

    def served(sim):
        return [
            r.request_id
            for r in sorted(sim.records, key=lambda r: r.schedule_time)
        ]

    assert served(on) == served(off)
    assert [replace(r, tenant_id="") for r in on.records] == off.records
    assert on.token_timeline == off.token_timeline
    assert metrics.requests_finished == 208
    report = tenant_report(on.records, CONTENDED, end_time=on.now)
    assert report["tokens_by_tenant"] == {"lowly": 384, "vip": 9600}
    violations = check_tenancy(on, metrics, CONTENDED.registry)
    assert not violations, "\n".join(str(v) for v in violations)


# ----------------------------------------------------------------------
# Per-tenant metrics
# ----------------------------------------------------------------------
class TestTenantMetrics:
    def test_attainment_from_crafted_records(self):
        def record(rid, tid, first, per_token):
            r = RequestRecord(
                request_id=rid, input_len=16, output_len=4,
                arrival_time=0.0, tenant_id=tid,
            )
            r.first_token_time = first
            r.tokens_generated = 4
            r.token_times = [first + i * per_token for i in range(4)]
            r.finish_time = r.token_times[-1]
            return r

        records = [
            record("a:0", "a", first=0.5, per_token=0.1),   # meets both
            record("a:1", "a", first=9.0, per_token=0.1),   # misses TTFT
            record("b:0", "b", first=0.5, per_token=2.0),   # misses TBT
        ]
        per_tenant = aggregate_tenant_metrics(
            records, warmup=0.0, end_time=10.0,
            slo_targets={
                "a": (2.0, 0.25, 0.95),
                "b": (2.0, 0.25, 0.95),
                "ghost": (2.0, 0.25, 0.95),
            },
        )
        assert per_tenant["a"].ttft_attainment == pytest.approx(0.5)
        assert per_tenant["a"].tbt_attainment == pytest.approx(1.0)
        assert not per_tenant["a"].slo_met
        assert per_tenant["b"].tbt_attainment == pytest.approx(0.0)
        # Registered but silent tenants still get a (vacuous) row.
        assert per_tenant["ghost"].requests_submitted == 0
        assert per_tenant["ghost"].slo_met
        # Decode tokens exclude each request's first token (3 of 4, x2).
        assert per_tenant["a"].decode_tokens == 6


#: ``run_digest(...)[:16]`` of the tenant addresses that drew the smallest
#: admission caps before admission control was deleted, per ``(size, seed)``.
TENANT_CAP_DIGESTS = {
    ("smoke", 0): "3c7c6ebcded97a92",
    ("smoke", 23): "704998e878cd899e",
    ("full", 9): "6ebbe3e91ebb4e4c",
    ("full", 15): "4fb611a01b603a2d",
    ("full", 21): "64c6990995819017",
}


# ----------------------------------------------------------------------
# Scenario family acceptance
# ----------------------------------------------------------------------
class TestTenantScenarios:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tenant_family_passes_all_invariants(self, seed):
        report = verify_scenario("tenant", seed, "smoke")
        assert_scenario_ok(report)
        assert report.tenancy is not None
        assert report.tenancy["kv_samples"] > 0
        assert 0.0 < report.tenancy["fairness_index"] <= 1.0 + 1e-9
        per_tenant = report.tenancy["per_tenant"]
        assert len(per_tenant) >= 2
        for tm in per_tenant.values():
            assert math.isfinite(tm.goodput)

    @pytest.mark.parametrize("seed", [0, 23])
    def test_cap_draw_addresses_are_pinned(self, seed):
        """Smoke addresses that drew an admission cap keep their runs (the
        full-size ones are pinned with the headline)."""
        from repro.scenarios.generator import generate_scenario

        report = run_scenario(generate_scenario("tenant", seed, "smoke"))
        assert_scenario_ok(report)
        digest = run_digest(report.sim, report.metrics)[:16]
        assert digest == TENANT_CAP_DIGESTS["smoke", seed]


# ----------------------------------------------------------------------
# Tenant sweep headline (simulated time, so exact on every machine)
# ----------------------------------------------------------------------
def test_tenant_sweep_headline_is_pinned():
    """Seeds 0-24 of the tenant family at full size, aggregated.

    Fairness, SLO attainment and request accounting are simulated-time
    quantities: a change that moves any of them changes the model's
    behaviour and must say so by re-pinning here. The full-size
    :data:`TENANT_CAP_DIGESTS` runs are pinned whole.
    """
    reports = [verify_scenario("tenant", seed, "full") for seed in range(25)]
    for report in reports:
        assert_scenario_ok(report)
    tenancy = [report.tenancy for report in reports]
    fairness = [
        t["fairness_index"] for t in tenancy
        if math.isfinite(t["fairness_index"])
    ]
    per_tenant = [tm for t in tenancy for tm in t["per_tenant"].values()]
    metrics = [report.metrics for report in reports]

    assert round(sum(fairness) / len(fairness), 4) == 0.4587
    assert round(min(fairness), 4) == 0.25
    assert len(per_tenant) == 79
    assert sum(1 for tm in per_tenant if tm.slo_met) == 79
    assert sum(m.requests_submitted for m in metrics) == 2121
    assert sum(m.requests_finished for m in metrics) == 2121
    for (size, seed), digest in TENANT_CAP_DIGESTS.items():
        if size == "full":
            report = reports[seed]
            assert run_digest(report.sim, report.metrics)[:16] == digest, seed
