"""Cell functions: the picklable units of work a worker process executes.

Every cell kind is a module-top-level function ``fn(params: dict) -> dict``
registered in :data:`CELL_KINDS`, so :mod:`multiprocessing` can pickle the
call and the returned record is plain JSON for the run store. Cells catch
their own crashes (converting them to ``sweep_crash`` violations) — a bad
address must never take the worker pool down with it.

A process-local plan cache (:data:`_PLAN_CACHE`) memoizes the placement
search per ``(family, seed, size)`` address, so a policy-grid experiment
that evaluates the same scenario under several schedulers plans it once
per worker.
"""

from __future__ import annotations

import math
import time
import traceback

from repro.testkit.harness import (
    placement_intervals,
    plan_scenario,
    verify_scenario_record,
)

#: Per-process plan cache: address -> (planner method, intervals). Shared
#: by every policy cell a worker executes; deliberately never invalidated
#: (plans are pure functions of the address).
_PLAN_CACHE: dict[tuple[str, int, str], tuple[str, dict]] = {}


def _crash_record(params: dict) -> dict:
    return {
        **{k: params.get(k) for k in ("family", "seed", "size") if k in params},
        "ok": False,
        "violations": [{
            "invariant": "sweep_crash",
            "detail": f"unhandled exception:\n{traceback.format_exc()}",
        }],
    }


# ----------------------------------------------------------------------
# Scenario-verification cells
# ----------------------------------------------------------------------
def verify_cell(params: dict) -> dict:
    """Full verification of one scenario address (the sweep workhorse)."""
    return verify_scenario_record(
        params["family"], params["seed"], params.get("size", "full"),
        milp_oracles=params.get("milp_oracles", False),
        determinism=params.get("determinism", True),
        flow_differential=params.get("flow_differential", True),
    )


def policy_eval_cell(params: dict) -> dict:
    """One address evaluated under an overridden scheduling policy.

    The placement does not depend on the scheduler, so the plan is taken
    from the per-process cache — N policy cells over one address pay for
    one placement search, not N.
    """
    from repro.scenarios import generate_scenario

    family = params["family"]
    seed = params["seed"]
    size = params.get("size", "full")
    key = (family, seed, size)
    try:
        if key not in _PLAN_CACHE:
            method, result = plan_scenario(generate_scenario(*key))
            _PLAN_CACHE[key] = (method, placement_intervals(result))
    except Exception:  # noqa: BLE001 — planning crash = cell failure
        return _crash_record(params)
    method, intervals = _PLAN_CACHE[key]
    record = verify_scenario_record(
        family, seed, size,
        determinism=params.get("determinism", True),
        # The differential oracle is policy-independent; the plain verify
        # grid already covers it per address.
        flow_differential=params.get("flow_differential", False),
        scheduler=params["scheduler"],
        plan=(method, {k: tuple(v) for k, v in intervals.items()}),
    )
    return record


def fast_path_equivalence_cell(params: dict) -> dict:
    """Coalesced vs. per-hop observable equality on one address."""
    from repro.testkit import check_fast_paths

    family = params["family"]
    seed = params["seed"]
    size = params.get("size", "full")
    started = time.perf_counter()
    try:
        violations = check_fast_paths(family, seed, size)
    except Exception:  # noqa: BLE001
        record = _crash_record(params)
        record["seconds"] = round(time.perf_counter() - started, 3)
        return record
    record = {
        "family": family,
        "seed": seed,
        "size": size,
        "ok": not violations,
        "repro": (
            "PYTHONPATH=src python -c \"from repro.testkit import "
            "check_fast_paths; [print(v) for v in "
            f"check_fast_paths('{family}', {seed}, '{size}')]\""
        ),
        "seconds": round(time.perf_counter() - started, 3),
    }
    if violations:
        record["violations"] = [
            {"invariant": v.invariant, "detail": v.detail}
            for v in violations
        ]
    return record


# ----------------------------------------------------------------------
# Controlled contrast experiments (headline cells of the nightly sweeps)
# ----------------------------------------------------------------------
def spare_recovery_cell(params: dict) -> dict:
    """Warm-vs-cold spare recovery: kill the sole holder of layers [0, 6).

    One leg of the elastic sweep's headline experiment (``warm`` selects
    the leg). The two T4s hold 6 layers each of a model whose per-layer
    footprint a T4 cannot absorb more of, so the repaired placement *must*
    use the restored A100 spare — warm (layers pre-staged) or cold (pulled
    through the same 10 Gb/s links the inference traffic uses).
    """
    from repro.cluster import A100_40G, Cluster, T4
    from repro.core.placement_types import ModelPlacement
    from repro.core.units import GBIT
    from repro.flow.graph import FlowGraph
    from repro.models.specs import ModelSpec
    from repro.online import NodeFailure, NodeRecovery, OnlineController
    from repro.scheduling import HelixScheduler
    from repro.sim import Request, ResidencyConfig, Simulation

    warm = bool(params["warm"])
    started = time.perf_counter()
    try:
        model = ModelSpec(
            name="elastic-wide-12L",
            num_layers=12,
            hidden_size=6656,
            num_heads=52,
            num_kv_heads=52,
            intermediate_size=17920,
        )
        cluster = Cluster(name="bench-elastic-spare")
        cluster.add_node("t4-0", T4, region="region-0")
        cluster.add_node("t4-1", T4, region="region-0")
        cluster.add_node("spare-0", A100_40G, region="region-0")
        cluster.connect_full_mesh(
            ["t4-0", "t4-1", "spare-0"], 10 * GBIT, 0.001,
            include_coordinator=True,
        )
        cluster.set_node_available("spare-0", False)
        cluster.validate()
        placement = ModelPlacement.from_intervals(
            12, {"t4-0": (0, 6), "t4-1": (6, 12)}
        )
        requests = [
            Request(f"r{i}", 16, 4, arrival_time=i * 0.1) for i in range(300)
        ]
        controller = OnlineController(
            model,
            events=[NodeFailure(6.0, "t4-0"), NodeRecovery(7.0, "spare-0")],
            replan=True,
            replan_lns_rounds=0,
        )
        config = ResidencyConfig(
            warm={"spare-0": (0, 12)} if warm else {},
            layer_bytes=5e8,
            warm_bonus=1.0,
        )
        flow = FlowGraph(cluster, model, placement).solve()
        scheduler = HelixScheduler(cluster, model, placement, flow=flow)
        sim = Simulation(
            cluster, model, placement, scheduler, requests,
            max_time=60.0, seed=0, controller=controller, residency=config,
        )
        metrics = sim.run()
        report = controller.report(sim, window=0.5)

        # Goodput during the weight-transfer window, relative to pre-fault:
        # the dip inference traffic pays while layer pulls share its links.
        dip = None
        warmups = [
            r for r in sim.residency.warmup_log if r.node_id == "spare-0"
        ]
        if warmups and not math.isnan(report.pre_disruption_goodput):
            t0 = warmups[0].started
            t1 = t0 + warmups[0].duration
            window = [
                rate for start, rate in report.timeline
                if t0 <= start < t1
            ]
            if window and report.pre_disruption_goodput > 0:
                dip = round(
                    min(window) / report.pre_disruption_goodput, 4
                )
        return {
            "ok": True,
            "warm": warm,
            "mttr_s": (
                round(report.mttr, 4)
                if not math.isnan(report.mttr) else None
            ),
            "warmups": len(sim.residency.warmup_log),
            "warmup_seconds": round(
                sum(r.duration for r in sim.residency.warmup_log), 4
            ),
            "warmup_bytes": int(
                sum(r.bytes_pulled for r in sim.residency.warmup_log)
            ),
            "goodput_dip_ratio": dip,
            "requests_finished": metrics.requests_finished,
            "seconds": round(time.perf_counter() - started, 3),
        }
    except Exception:  # noqa: BLE001
        record = _crash_record(params)
        record["warm"] = warm
        record["seconds"] = round(time.perf_counter() - started, 3)
        return record


def selector_contrast_cell(params: dict) -> dict:
    """One leg of the tenant sweep's deficit-vs-priority contrast.

    200 high-priority arrivals at 50/s vs 8 low-priority stragglers on a
    KV-constrained cluster: the scheduler's expected-output KV charge is
    inflated so only a few requests fit concurrently and the selector
    alone decides whether the low tenant ever runs.
    """
    from repro.cluster import A100_40G, Cluster, L4, T4
    from repro.core.placement_types import ModelPlacement
    from repro.core.units import GBIT
    from repro.flow.graph import FlowGraph
    from repro.models.specs import ModelSpec
    from repro.scheduling import HelixScheduler
    from repro.sim import Request, Simulation
    from repro.tenancy import (
        FairnessConfig,
        TenancyConfig,
        TenantRegistry,
        TenantSpec,
    )

    selector = params["selector"]
    started = time.perf_counter()
    try:
        model = ModelSpec(
            name="tenant-tiny-8L",
            num_layers=8,
            hidden_size=1024,
            num_heads=8,
            num_kv_heads=8,
            intermediate_size=2816,
            nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816),
        )
        cluster = Cluster(name="bench-tenant-contended")
        cluster.add_node("a100-0", A100_40G, region="r0")
        cluster.add_node("l4-0", L4, region="r0")
        cluster.add_node("t4-0", T4, region="r0")
        cluster.add_node("t4-1", T4, region="r0")
        cluster.connect_full_mesh(
            ["a100-0", "l4-0", "t4-0", "t4-1"], 10 * GBIT, 0.001,
            include_coordinator=True,
        )
        cluster.validate()
        placement = ModelPlacement.from_intervals(
            8,
            {"a100-0": (0, 4), "t4-1": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8)},
        )
        requests = [
            Request(
                f"vip:{i:03d}", 64, 48,
                arrival_time=i * 0.02, tenant_id="vip",
            )
            for i in range(200)
        ] + [
            Request(
                f"lowly:{i}", 64, 48,
                arrival_time=i * 0.02, tenant_id="lowly",
            )
            for i in range(8)
        ]
        requests.sort(key=lambda r: (r.arrival_time, r.request_id))
        registry = TenantRegistry([
            TenantSpec("vip", priority=2, rate_share=1.0),
            TenantSpec("lowly", priority=0, rate_share=1.0),
        ])
        flow = FlowGraph(cluster, model, placement).solve()
        scheduler = HelixScheduler(
            cluster, model, placement, flow=flow,
            expected_output_len=400000.0,
        )
        sim = Simulation(
            cluster, model, placement, scheduler, requests,
            max_time=120.0, seed=0,
            tenancy=TenancyConfig(
                registry,
                fairness=FairnessConfig(
                    mode="W", window=1.0, backlog_windows=3, selector=selector
                ),
            ),
        )
        metrics = sim.run()
        manager = sim.tenancy
        return {
            "ok": True,
            "selector": selector,
            "starvation_events": len(manager.starvation_events),
            "starved_tenants": sorted(
                {e.tenant_id for e in manager.starvation_events}
            ),
            "fairness_index": round(manager.fairness_index(sim.now), 4),
            "tokens_by_tenant": dict(manager.tokens_by_tenant),
            "requests_finished": metrics.requests_finished,
            "seconds": round(time.perf_counter() - started, 3),
        }
    except Exception:  # noqa: BLE001
        record = _crash_record(params)
        record["selector"] = selector
        record["seconds"] = round(time.perf_counter() - started, 3)
        return record


#: The cell-function registry: manifest ``kind`` -> callable.
CELL_KINDS = {
    "verify": verify_cell,
    "policy_eval": policy_eval_cell,
    "fast_path_equivalence": fast_path_equivalence_cell,
    "spare_recovery": spare_recovery_cell,
    "selector_contrast": selector_contrast_cell,
}
