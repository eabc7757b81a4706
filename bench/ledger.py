"""Per-layer metrics of one traced run, named ``<module>.<metric>``.

Timings and call counts come from the tracer's spans (``*_s`` is the
outermost time spent inside the entry point, ``*_self_s`` the time not
covered by traced callees). Everything else is read after the run from
counters the simulations, controllers and planner results already keep.
A layer that a workload never enters reports 0.
"""

from __future__ import annotations

import math
import statistics

import numpy as np


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile ``q`` (0 for no samples)."""
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer, outcome: dict) -> dict[str, float]:
    """Every per-layer metric except ``bench.trace_overhead_frac``, which
    needs the untraced runs."""
    totals = tracer.totals()

    def calls(name: str) -> float:
        row = totals.get(name)
        return float(row.calls) if row else 0.0

    def seconds(name: str) -> float:
        row = totals.get(name)
        return row.seconds if row else 0.0

    def self_seconds(name: str) -> float:
        row = totals.get(name)
        return row.self_seconds if row else 0.0

    out: dict[str, float] = {}

    out["milp.compile_calls"] = calls("milp.compile")
    out["milp.compile_s"] = seconds("milp.compile")
    out["milp.highs_calls"] = calls("milp.highs")
    out["milp.highs_s"] = seconds("milp.highs")
    out["milp.highs_share_of_plan"] = _ratio(
        tracer.seconds_within("milp.highs", "placement.plan"),
        seconds("placement.plan"),
    )

    out["placement.plan_calls"] = calls("placement.plan")
    out["placement.plan_self_s"] = self_seconds("placement.plan")
    out["placement.prune_s"] = seconds("placement.prune")
    out["placement.build_formulation_s"] = seconds("placement.build_formulation")
    out["placement.hints_s"] = seconds("placement.hints")
    out["placement.replan_calls"] = calls("placement.replan")
    out["placement.replan_self_s"] = self_seconds("placement.replan")
    # Wasted work of the MILP: its incumbent against the plan returned.
    useful = []
    for _, result in tracer.returns.get("placement.plan", ()):
        if result.milp is not None and result.max_throughput > 0:
            incumbent = (
                result.milp.objective if result.milp.status.has_solution else 0.0
            )
            useful.append(incumbent / result.max_throughput)
    out["placement.milp_useful_ratio"] = (
        statistics.fmean(useful) if useful else 0.0
    )

    out["flow.solve_calls"] = calls("flow.solve")
    out["flow.solve_s"] = seconds("flow.solve")
    out["flow.reevaluate_calls"] = calls("flow.reevaluate")
    out["flow.reevaluate_s"] = seconds("flow.reevaluate")
    out["flow.maxflow_calls"] = calls("flow.maxflow")
    out["flow.maxflow_s"] = seconds("flow.maxflow")
    out["flow.refresh_links_calls"] = calls("flow.refresh_links")

    schedule = totals.get("scheduling.schedule")
    out["scheduling.schedule_calls"] = calls("scheduling.schedule")
    out["scheduling.schedule_s"] = seconds("scheduling.schedule")
    out["scheduling.schedule_none_ratio"] = (
        _ratio(schedule.none_returns, schedule.calls) if schedule else 0.0
    )

    out["sim.run_self_s"] = self_seconds("sim.run")
    out.update(_sim_counters(tracer.returns.get("sim.run", ())))

    out["testkit.check_planner_s"] = seconds("testkit.check_planner")
    out["testkit.check_simulation_s"] = seconds("testkit.check_simulation")
    out["testkit.family_checks_s"] = seconds("testkit.family_checks")
    out["testkit.flow_differential_s"] = seconds("testkit.flow_differential")
    out["testkit.run_scenario_calls"] = calls("testkit.run_scenario")
    out["testkit.violations"] = float(len(outcome["violations"]))

    out["scenarios.generate_calls"] = calls("scenarios.generate")
    out["scenarios.generate_s"] = seconds("scenarios.generate")
    out["trace.synthesize_s"] = seconds("trace.synthesize")
    out["trace.arrivals_s"] = seconds("trace.arrivals")
    out["cluster.validate_calls"] = calls("cluster.validate")
    out["cluster.validate_s"] = seconds("cluster.validate")

    out["bench.slo_rate_rps"] = outcome.get("slo_rate_rps", 0.0)
    out["bench.fail_frac"] = outcome["fail_frac"]
    out["bench.entry_points_missing"] = float(len(tracer.missing))
    return out


def _sim_counters(runs) -> dict[str, float]:
    """Event-loop, batching, queueing, link, KV and control-loop counters
    of every traced ``Simulation.run``."""
    tokens = events = grouped = fast_forwarded = 0
    batches = batch_tokens = 0.0
    busy_fracs: list[float] = []
    queue_waits: list[float] = []
    messages = 0
    queueing = queueing_max = 0.0
    depth_weighted = submitted = 0.0
    kv_peak = 0.0
    overflows = retried = tokens_lost = 0
    controllers = []
    for sim, metrics in runs:
        stats = sim.engine_stats
        tokens += sim.tokens_emitted
        events += stats["events_popped"]
        grouped += stats["grouped_hops"]
        fast_forwarded += (
            stats["fast_forwarded_tokens"] + stats["vec_fast_forwarded_tokens"]
        )
        for executor in sim.executors.values():
            batches += executor.stats.batches
            batch_tokens += executor.stats.tokens
            if sim.now > 0:
                busy_fracs.append(executor.stats.busy_time / sim.now)
        queue_waits += [
            record.schedule_time - record.arrival_time
            for record in sim.records
            if not math.isnan(record.schedule_time)
        ]
        for channel in sim.channels.values():
            messages += channel.messages_sent
            queueing += channel.total_queueing_delay
            queueing_max = max(queueing_max, channel.max_queueing_delay)
        depth_weighted += metrics.avg_pipeline_depth * metrics.requests_submitted
        submitted += metrics.requests_submitted
        for pool in sim.kv_pools.values():
            if pool.capacity_tokens > 0:
                kv_peak = max(kv_peak, pool.peak_tokens / pool.capacity_tokens)
        overflows += metrics.kv_overflow_events
        retried += metrics.requests_retried
        tokens_lost += metrics.tokens_lost
        if sim.controller is not None:
            controllers.append(sim.controller)

    applied = [r.wall_seconds for c in controllers for r in c.applied_replans]
    mttds = [
        row[3] for c in controllers for row in c.detections
        if not math.isnan(row[3])
    ]
    return {
        "sim.tokens": float(tokens),
        "sim.events_popped": float(events),
        "sim.events_per_token": _ratio(events, tokens),
        "sim.grouped_hops_per_event": _ratio(grouped, events),
        "sim.ff_token_share": _ratio(fast_forwarded, tokens),
        "sim.batches": batches,
        "sim.batch_tokens_mean": _ratio(batch_tokens, batches),
        "sim.node_busy_frac_mean": (
            statistics.fmean(busy_fracs) if busy_fracs else 0.0
        ),
        "sim.node_busy_frac_max": max(busy_fracs, default=0.0),
        "sim.queue_wait_p50_s": percentile(queue_waits, 50),
        "sim.queue_wait_p99_s": percentile(queue_waits, 99),
        "sim.link_messages": float(messages),
        "sim.link_queue_delay_mean_s": _ratio(queueing, messages),
        "sim.link_queue_delay_max_s": queueing_max,
        "sim.avg_pipeline_depth": _ratio(depth_weighted, submitted),
        "sim.kv_peak_frac_max": kv_peak,
        "sim.kv_overflow_events": float(overflows),
        "sim.requests_retried": float(retried),
        "sim.tokens_lost_frac": _ratio(tokens_lost, tokens),
        "online.events_applied": float(sum(len(c.event_log) for c in controllers)),
        "online.replans_applied": float(len(applied)),
        "online.replans_failed": float(sum(
            1 for c in controllers for r in c.replans if r.status == "failed"
        )),
        "online.replan_s": statistics.median(applied) if applied else 0.0,
        "online.replan_wall_sum_s": sum(applied),
        "online.replan_wall_max_s": max(applied, default=0.0),
        "online.detections": float(sum(len(c.detections) for c in controllers)),
        "online.mttd_mean_s": statistics.fmean(mttds) if mttds else 0.0,
    }


def top_layers(tracer, count: int = 3) -> list[dict]:
    """The layers with the most self time, as shares of the traced run."""
    self_times = tracer.layer_self_times()
    total = sum(self_times.values())
    ranked = sorted(self_times.items(), key=lambda item: -item[1])[:count]
    return [
        {"layer": layer, "self_s": seconds, "share": _ratio(seconds, total)}
        for layer, seconds in ranked
    ]
