"""Performance tracking for the flow kernel, MILP stack, and planner.

The repo's north star is running as fast as the hardware allows, so perf
needs a trajectory, not anecdotes. This module provides:

* :class:`PerfTracker` — a tiny timing harness that records named timings
  plus derived metrics (speedups) and serializes them to JSON;
* flow scenarios — the repeated placement-evaluation microbenchmark
  (incremental :meth:`~repro.flow.graph.FlowGraph.reevaluate` vs. a
  rebuild-per-candidate baseline), a raw kernel-reuse microbenchmark
  (:meth:`~repro.flow.maxflow.FlowNetwork.set_capacity` + re-solve vs.
  rebuilding the network), and an end-to-end Helix planner run with the
  incremental evaluator on and off;
* MILP scenarios — incremental formulation compile vs. full recompile
  across an LNS-like constraint churn stream, vectorized feasibility
  checking vs. the per-constraint loop, branch-and-bound with pseudocost
  branching/diving/propagation on vs. off (node, LP, and
  time-to-first-incumbent counts), and end-to-end Helix MILP planning in
  the pre-optimization configuration vs. the adaptive/incremental path on
  both solver backends;
* online scenarios — the scripted fig12-small churn scenario (kill the
  planned node carrying the most flow mid-run; measure the windowed
  goodput recovery ratio and the warm-started replanning latency) and a
  seeded random-churn soak;
* :func:`run_flow_bench` / :func:`run_milp_bench` / :func:`run_online_bench`
  — run everything and write ``BENCH_flow.json`` / ``BENCH_milp.json`` /
  ``BENCH_online.json`` at the repo root so future PRs can compare
  against a recorded baseline.

``benchmarks/bench_perf_flow.py``, ``benchmarks/bench_perf_milp.py``, and
``benchmarks/bench_online_churn.py`` drive the full-size configurations;
the tier-1 suite runs the same harnesses at smoke sizes (``smoke=True``)
on every test run so the JSON artifact generation never rots.
"""

from __future__ import annotations

import json
import math
import platform
import random
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.cluster import Cluster, Profiler, A100_40G, L4, T4
from repro.core.placement_types import ModelPlacement
from repro.core.units import GBIT
from repro.flow.graph import FlowGraph
from repro.flow.maxflow import FlowNetwork
from repro.models.specs import LLAMA_70B, ModelSpec

SCHEMA_VERSION = 1
REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_flow.json"
DEFAULT_MILP_OUTPUT = REPO_ROOT / "BENCH_milp.json"
DEFAULT_ONLINE_OUTPUT = REPO_ROOT / "BENCH_online.json"

#: A small model whose formulations our pure-Python branch-and-bound can
#: solve to proven optimality in benchmark time.
TINY_BENCH_MODEL = ModelSpec(
    name="tiny-8L",
    num_layers=8,
    hidden_size=1024,
    num_heads=8,
    num_kv_heads=8,
    intermediate_size=2816,
    nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816),
)


def _json_safe(value):
    """Replace non-finite floats with ``None`` recursively.

    Metrics may legitimately be NaN (e.g. ``time_to_recovery`` when goodput
    never re-reached the threshold); ``json.dumps`` would emit a bare
    ``NaN`` token, which strict RFC-8259 parsers (jq, most non-Python
    tooling) reject in the CI-uploaded ``BENCH_*.json`` artifacts.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


@dataclass
class Timing:
    """One timed workload: ``repeats`` measured laps of a callable."""

    name: str
    repeats: int
    total_s: float
    mean_s: float
    best_s: float
    meta: dict = field(default_factory=dict)


class PerfTracker:
    """Collects named timings and derived metrics, writes them as JSON."""

    def __init__(self, label: str = "flow-perf") -> None:
        self.label = label
        self.timings: list[Timing] = []
        self.derived: dict[str, float] = {}

    def time(self, name: str, fn, repeats: int = 3, **meta) -> Timing:
        """Time ``repeats`` calls of ``fn()`` and record the laps."""
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        laps = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            laps.append(time.perf_counter() - start)
        timing = Timing(
            name=name,
            repeats=repeats,
            total_s=sum(laps),
            mean_s=sum(laps) / len(laps),
            best_s=min(laps),
            meta=dict(meta),
        )
        self.timings.append(timing)
        return timing

    def record(self, name: str, value: float) -> None:
        """Record a derived scalar metric (a speedup, a count, ...)."""
        self.derived[name] = value

    def speedup(self, name: str, baseline: Timing, fast: Timing) -> float:
        """Record and return ``baseline / fast`` on best-lap times."""
        value = baseline.best_s / fast.best_s if fast.best_s > 0 else float("inf")
        self.derived[name] = value
        return value

    def to_dict(self) -> dict:
        from repro.core.machine import machine_stamp

        # Perf numbers are only comparable on the machine that produced
        # them; the stamp (CPU model, core count, worker count) makes
        # cross-run diffs honest.
        return _json_safe({
            "schema": SCHEMA_VERSION,
            "label": self.label,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": machine_stamp(),
            "timings": [asdict(t) for t in self.timings],
            "derived": dict(self.derived),
        })

    def write(self, path: Path | str | None = None) -> Path:
        """Serialize to ``path`` (default: ``BENCH_flow.json`` at repo root)."""
        target = Path(path) if path is not None else DEFAULT_OUTPUT
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target


# ----------------------------------------------------------------------
# Scenario construction
# ----------------------------------------------------------------------
def bench_cluster(num_nodes: int) -> Cluster:
    """A heterogeneous full-mesh cluster (A100/L4/T4 round-robin)."""
    cluster = Cluster(name=f"bench-{num_nodes}")
    gpus = (A100_40G, L4, T4)
    node_ids = []
    for i in range(num_nodes):
        node_id = f"n{i:03d}"
        cluster.add_node(node_id, gpus[i % len(gpus)], region="r0")
        node_ids.append(node_id)
    cluster.connect_full_mesh(node_ids, 10 * GBIT, 0.001, include_coordinator=True)
    cluster.validate()
    return cluster


def candidate_placements(
    cluster: Cluster,
    model: ModelSpec,
    num_candidates: int,
    num_stages: int = 8,
    moves_per_step: int = 3,
    seed: int = 0,
) -> list[ModelPlacement]:
    """An LNS-like stream of valid placements differing by a few nodes each.

    Starts from a round-robin assignment of nodes to ``num_stages`` equal
    layer chunks, then randomly re-stages ``moves_per_step`` nodes per
    candidate while never emptying a stage, so every candidate keeps full
    layer coverage — the same neighborhood structure the planner's LNS
    explores.
    """
    num_layers = model.num_layers
    # Every stage keeps >= 2 replicas so single-node moves stay legal.
    num_stages = max(2, min(num_stages, num_layers, len(cluster.node_ids) // 2))
    rng = random.Random(seed)
    bounds = [
        (k * num_layers // num_stages, (k + 1) * num_layers // num_stages)
        for k in range(num_stages)
    ]
    node_ids = cluster.node_ids
    assign = {nid: i % num_stages for i, nid in enumerate(node_ids)}
    counts = [0] * num_stages
    for stage in assign.values():
        counts[stage] += 1
    placements = []
    for _ in range(num_candidates):
        for _ in range(moves_per_step):
            nid = node_ids[rng.randrange(len(node_ids))]
            src = assign[nid]
            dst = rng.randrange(num_stages)
            if dst == src or counts[src] <= 1:
                continue
            counts[src] -= 1
            counts[dst] += 1
            assign[nid] = dst
        placements.append(
            ModelPlacement.from_intervals(
                num_layers, {nid: bounds[s] for nid, s in assign.items()}
            )
        )
    return placements


# ----------------------------------------------------------------------
# Benchmarks
# ----------------------------------------------------------------------
def bench_kernel_reuse(
    tracker: PerfTracker,
    num_edges: int = 2000,
    num_solves: int = 30,
    repeats: int = 3,
    seed: int = 1,
) -> float:
    """Raw kernel: ``set_capacity`` + re-solve vs. rebuild-per-solve.

    A layered random network is solved ``num_solves`` times with a handful
    of capacities retuned between solves — once rebuilding the network from
    its edge list every time, once reusing the same network. Returns the
    recorded speedup.
    """
    rng = random.Random(seed)
    num_nodes = max(8, num_edges // 8)
    edges = []
    for i in range(num_edges):
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        if u == v:
            continue
        edges.append((f"v{min(u, v)}", f"v{max(u, v)}", rng.uniform(1.0, 50.0)))
    edges.append(("s", "v0", 100.0))
    edges.append((f"v{num_nodes - 1}", "t", 100.0))
    retunes = [
        (rng.randrange(len(edges)), rng.uniform(1.0, 50.0))
        for _ in range(num_solves * 4)
    ]

    def rebuild_per_solve() -> None:
        caps = [cap for (_, _, cap) in edges]
        cursor = 0
        for _ in range(num_solves):
            for _ in range(4):
                idx, cap = retunes[cursor]
                cursor += 1
                caps[idx] = cap
            net = FlowNetwork()
            for (u, v, _), cap in zip(edges, caps):
                net.add_edge(u, v, cap)
            net.max_flow("s", "t")

    def reuse_network() -> None:
        net = FlowNetwork()
        ids = [net.add_edge(u, v, cap) for u, v, cap in edges]
        cursor = 0
        for _ in range(num_solves):
            for _ in range(4):
                idx, cap = retunes[cursor]
                cursor += 1
                net.set_capacity(ids[idx], cap)
            net.max_flow("s", "t")

    baseline = tracker.time(
        "kernel_rebuild_per_solve", rebuild_per_solve, repeats=repeats,
        num_edges=len(edges), num_solves=num_solves,
    )
    fast = tracker.time(
        "kernel_reuse", reuse_network, repeats=repeats,
        num_edges=len(edges), num_solves=num_solves,
    )
    return tracker.speedup("kernel_reuse_speedup", baseline, fast)


def bench_placement_evaluation(
    tracker: PerfTracker,
    num_nodes: int = 42,
    num_candidates: int = 60,
    repeats: int = 3,
    model: ModelSpec = LLAMA_70B,
) -> float:
    """The headline microbenchmark: repeated candidate-placement evaluation.

    Baseline reconstructs a :class:`FlowGraph` per candidate (what the
    planner did before the incremental path); the fast path re-targets one
    evaluator via :meth:`FlowGraph.reevaluate`. Max-flow values are
    cross-checked to agree. Returns the recorded speedup.
    """
    cluster = bench_cluster(num_nodes)
    profiler = Profiler()
    candidates = candidate_placements(cluster, model, num_candidates)

    def rebuild_per_candidate() -> list[float]:
        return [
            FlowGraph(cluster, model, p, profiler, True).solve().max_flow
            for p in candidates
        ]

    evaluator = FlowGraph(cluster, model, candidates[0], profiler, True)

    def incremental() -> list[float]:
        return [evaluator.reevaluate(p).max_flow for p in candidates]

    base_values = rebuild_per_candidate()  # warm profiler caches for both
    fast_values = incremental()
    scale = max(1.0, max(base_values))
    mismatches = [
        (a, b) for a, b in zip(base_values, fast_values)
        if abs(a - b) > 1e-6 * scale
    ]
    if mismatches:
        raise AssertionError(
            f"incremental evaluation diverged from rebuild: {mismatches[:3]}"
        )

    baseline = tracker.time(
        "eval_rebuild_per_candidate", rebuild_per_candidate, repeats=repeats,
        num_nodes=num_nodes, num_candidates=num_candidates, model=model.name,
    )
    fast = tracker.time(
        "eval_incremental", incremental, repeats=repeats,
        num_nodes=num_nodes, num_candidates=num_candidates, model=model.name,
    )
    return tracker.speedup("placement_eval_speedup", baseline, fast)


def bench_planner(
    tracker: PerfTracker,
    time_limit: float = 10.0,
    lns_rounds: int = 3,
) -> dict[str, float]:
    """End-to-end Helix planner run, incremental evaluator on vs. off.

    Uses the paper's Fig. 12 small cluster with LLaMA-30B (the same
    configuration the figure benchmarks plan on). MILP solving dominates
    the planner's wall clock, so the end-to-end delta is modest; the
    per-evaluation telemetry shows where the flow-side time went. Returns
    the recorded planner metrics.
    """
    from repro.cluster import small_cluster_fig12
    from repro.models.specs import LLAMA_30B
    from repro.placement.helix_milp import HelixMilpPlanner

    cluster = small_cluster_fig12()
    model = LLAMA_30B

    def plan(incremental: bool):
        planner = HelixMilpPlanner(
            cluster, model, Profiler(),
            time_limit=time_limit, lns_rounds=lns_rounds,
            lns_time_limit=max(1.0, time_limit / 2), mip_rel_gap=0.05,
        )
        planner.incremental_flow = incremental
        result = planner.plan()
        return planner, result

    start = time.perf_counter()
    baseline_planner, baseline_result = plan(incremental=False)
    baseline_s = time.perf_counter() - start
    start = time.perf_counter()
    fast_planner, fast_result = plan(incremental=True)
    fast_s = time.perf_counter() - start

    # Both runs are recorded rather than asserted equal: a timed-out MILP
    # may return different incumbents run-to-run independent of the flow
    # path (the eval-path equivalence is asserted in the microbenchmark).
    metrics = {
        "planner_rebuild_throughput": baseline_result.max_throughput,
        "planner_rebuild_s": baseline_s,
        "planner_incremental_s": fast_s,
        "planner_eval_rebuild_s": baseline_planner.flow_eval_seconds,
        "planner_eval_incremental_s": fast_planner.flow_eval_seconds,
        "planner_eval_count": float(fast_planner.flow_eval_count),
        "planner_max_throughput": fast_result.max_throughput,
    }
    for name, value in metrics.items():
        tracker.record(name, value)
    if fast_planner.flow_eval_seconds > 0:
        tracker.record(
            "planner_eval_speedup",
            baseline_planner.flow_eval_seconds / fast_planner.flow_eval_seconds,
        )
    return metrics


# ----------------------------------------------------------------------
# MILP benchmarks
# ----------------------------------------------------------------------
def helix_formulation(num_nodes: int, model: ModelSpec = TINY_BENCH_MODEL):
    """A Helix MILP formulation (and its planner) on a bench cluster."""
    from repro.placement.helix_milp import HelixMilpPlanner

    cluster = bench_cluster(num_nodes)
    planner = HelixMilpPlanner(cluster, model, Profiler())
    return planner, planner.build_formulation()


def bench_milp_compile(
    tracker: PerfTracker,
    num_nodes: int = 16,
    rounds: int = 20,
    repeats: int = 3,
    model: ModelSpec = TINY_BENCH_MODEL,
) -> float:
    """Formulation compile under LNS-like churn: incremental vs. full.

    Each round appends a handful of fixing constraints plus a cutoff (what
    every LNS round does), compiles, and truncates them again. The
    baseline invalidates the problem's compile cache each round — the
    historical compile-from-scratch cost; the fast path reuses the cached
    constraint rows and structure, so each round only compiles its delta.
    Returns the recorded speedup.
    """
    planner, formulation = helix_formulation(num_nodes, model)
    problem = formulation.problem
    node_ids = list(formulation.s_vars)

    def run_rounds(invalidate: bool) -> list:
        shapes = []
        for round_index in range(rounds):
            base_len = len(problem.constraints)
            for nid in node_ids[round_index % 3 :: 3]:
                problem.add_constraint(
                    formulation.s_vars[nid] == 0.0,
                    name=f"bench_fix[{nid}]",
                )
            problem.add_constraint(
                problem.objective >= float(round_index), name="bench_cutoff"
            )
            if invalidate:
                problem.invalidate()
            shapes.append(problem.compile().a_matrix.shape)
            del problem.constraints[base_len:]
        problem.compile()  # restore the truncated cached structure
        return shapes

    base_shapes = run_rounds(invalidate=True)
    fast_shapes = run_rounds(invalidate=False)
    if base_shapes != fast_shapes:
        raise AssertionError("incremental compile diverged from full recompile")

    baseline = tracker.time(
        "milp_compile_full", lambda: run_rounds(True), repeats=repeats,
        num_nodes=num_nodes, rounds=rounds,
        num_constraints=problem.num_constraints,
    )
    fast = tracker.time(
        "milp_compile_incremental", lambda: run_rounds(False), repeats=repeats,
        num_nodes=num_nodes, rounds=rounds,
        num_constraints=problem.num_constraints,
    )
    return tracker.speedup("milp_compile_speedup", baseline, fast)


def bench_milp_feascheck(
    tracker: PerfTracker,
    num_nodes: int = 16,
    checks: int = 40,
    repeats: int = 3,
    model: ModelSpec = TINY_BENCH_MODEL,
) -> float:
    """Feasibility checking: per-constraint loop vs. one sparse mat-vec."""
    planner, formulation = helix_formulation(num_nodes, model)
    problem = formulation.problem
    hints = planner.heuristic_hints(planner.cluster)
    if not hints:
        raise AssertionError("no heuristic hint available for the bench cluster")
    values = planner.assignment_from_placement(
        formulation, hints[0], planner.cluster
    )

    def loop_check() -> list[str]:
        violated = []
        for _ in range(checks):
            violated = [
                c.name or f"constraint[{i}]"
                for i, c in enumerate(problem.constraints)
                if c.violated_by(values, 1e-5)
            ]
        return violated

    def vector_check() -> list[str]:
        violated = []
        for _ in range(checks):
            violated = problem.check_feasible(values)
        return violated

    if loop_check() != vector_check():
        raise AssertionError("vectorized check_feasible diverged from the loop")

    baseline = tracker.time(
        "milp_feascheck_loop", loop_check, repeats=repeats,
        num_constraints=problem.num_constraints, checks=checks,
    )
    fast = tracker.time(
        "milp_feascheck_vectorized", vector_check, repeats=repeats,
        num_constraints=problem.num_constraints, checks=checks,
    )
    return tracker.speedup("milp_feascheck_speedup", baseline, fast)


def bench_milp_bnb(
    tracker: PerfTracker,
    num_nodes: int = 6,
    repeats: int = 2,
    model: ModelSpec = TINY_BENCH_MODEL,
) -> dict[str, float]:
    """Branch-and-bound ablation: pseudocost + diving + propagation on/off.

    Solves the same Helix formulation to proven optimality both ways and
    records nodes explored, LP solves, time-to-first-incumbent, and solve
    time. Objectives are cross-checked to agree. Returns the recorded
    metrics.
    """
    from repro.milp.branch_and_bound import BranchAndBoundSolver

    _, formulation = helix_formulation(num_nodes, model)
    problem = formulation.problem

    results: dict[str, dict[str, float]] = {}

    def solve(label: str, **options):
        solver = BranchAndBoundSolver(problem, time_limit=120, **options)
        solution = solver.solve()
        results[label] = {
            "objective": solution.objective,
            "nodes": float(solution.node_count),
            "lp_solves": float(solver.stats.lp_solves),
            "time_to_first_incumbent": solver.stats.time_to_first_incumbent,
        }
        return solution

    plain_options = dict(
        pseudocost=False, diving=False, propagation=False,
        reduced_cost_fixing=False,
    )
    baseline = tracker.time(
        "bnb_plain", lambda: solve("plain", **plain_options), repeats=repeats,
        num_nodes=num_nodes, model=model.name,
    )
    fast = tracker.time(
        "bnb_smart", lambda: solve("smart"), repeats=repeats,
        num_nodes=num_nodes, model=model.name,
    )
    plain, smart = results["plain"], results["smart"]
    scale = max(1.0, abs(plain["objective"]))
    if abs(plain["objective"] - smart["objective"]) > 1e-6 * scale:
        raise AssertionError(
            "bnb feature ablation changed the optimum: "
            f"{plain['objective']} vs {smart['objective']}"
        )
    metrics = {
        "bnb_plain_nodes": plain["nodes"],
        "bnb_smart_nodes": smart["nodes"],
        "bnb_plain_lp_solves": plain["lp_solves"],
        "bnb_smart_lp_solves": smart["lp_solves"],
        "bnb_plain_first_incumbent_s": plain["time_to_first_incumbent"],
        "bnb_smart_first_incumbent_s": smart["time_to_first_incumbent"],
        "bnb_node_factor": plain["nodes"] / max(1.0, smart["nodes"]),
    }
    for name, value in metrics.items():
        tracker.record(name, value)
    tracker.speedup("bnb_solve_speedup", baseline, fast)
    return metrics


def bench_milp_planner(
    tracker: PerfTracker,
    time_limit: float = 10.0,
    lns_rounds: int = 3,
    lns_time_limit: float = 5.0,
    mip_rel_gap: float = 0.05,
) -> dict[str, float]:
    """End-to-end Helix MILP planning: pre-optimization vs. current path.

    Uses the paper's Fig. 12 small cluster with LLaMA-30B (the ROADMAP's
    reference "MILP-bound" configuration). The legacy run reproduces the
    pre-PR-2 behaviour — one full-budget HiGHS solve plus
    rebuild-and-recompile LNS rounds at the historical window size; the
    fast runs use the root-node probe, adaptive budget slicing and
    incremental bounds-tightened LNS re-solves, once per backend. Final
    placement throughputs are cross-checked for parity. Returns the
    recorded metrics.
    """
    from repro.cluster import small_cluster_fig12
    from repro.models.specs import LLAMA_30B
    from repro.placement.helix_milp import HelixMilpPlanner

    cluster = small_cluster_fig12()
    model = LLAMA_30B

    def plan(**kwargs):
        planner = HelixMilpPlanner(
            cluster, model, Profiler(),
            time_limit=time_limit, lns_rounds=lns_rounds,
            lns_time_limit=lns_time_limit, mip_rel_gap=mip_rel_gap,
            **kwargs,
        )
        start = time.perf_counter()
        result = planner.plan()
        elapsed = time.perf_counter() - start
        return planner, result, elapsed

    _, legacy_result, legacy_s = plan(
        adaptive_budget=False, lns_mode="rebuild"
    )
    _, fast_result, fast_s = plan()
    _, bnb_result, bnb_s = plan(backend="bnb")

    metrics = {
        "milp_planner_legacy_s": legacy_s,
        "milp_planner_fast_s": fast_s,
        "milp_planner_bnb_s": bnb_s,
        "milp_planner_legacy_throughput": legacy_result.max_throughput,
        "milp_planner_fast_throughput": fast_result.max_throughput,
        "milp_planner_bnb_throughput": bnb_result.max_throughput,
        "milp_planner_speedup": legacy_s / fast_s,
        "milp_planner_bnb_speedup": legacy_s / bnb_s,
        "milp_planner_backend_parity": abs(
            fast_result.max_throughput - bnb_result.max_throughput
        ),
        "milp_planner_legacy_parity": abs(
            fast_result.max_throughput - legacy_result.max_throughput
        ),
    }
    for name, value in metrics.items():
        tracker.record(name, value)
    return metrics


# ----------------------------------------------------------------------
# Online-dynamics benchmarks
# ----------------------------------------------------------------------
def _fig12_online_scenario(
    num_requests: int,
    seed: int,
    trace_scale: float,
    plan_time_limit: float,
):
    """Shared setup of the online scenarios: plan LLaMA-30B on the Fig. 12
    cluster and build the flooded serving configuration.

    KV capacity scales with the trace so per-node concurrency matches the
    full-scale system; the scheduler's expected output length matches the
    scaled trace mean. Returns
    ``(cluster, model, profiler, plan_result, trace, scheduler)``.
    """
    from repro.cluster import small_cluster_fig12
    from repro.models.specs import LLAMA_30B
    from repro.placement.helix_milp import HelixMilpPlanner
    from repro.scheduling.helix import HelixScheduler
    from repro.trace import offline_arrivals
    from repro.trace.azure import (
        AZURE_MEAN_OUTPUT, AzureTraceConfig, synthesize_azure_trace,
    )

    cluster = small_cluster_fig12()
    model = LLAMA_30B
    profiler = Profiler(kv_capacity_scale=trace_scale)
    planner = HelixMilpPlanner(
        cluster, model, profiler,
        time_limit=plan_time_limit, mip_rel_gap=0.05,
    )
    result = planner.plan()
    trace = offline_arrivals(
        synthesize_azure_trace(
            AzureTraceConfig(
                num_requests=num_requests, seed=seed, scale=trace_scale
            )
        )
    )
    scheduler = HelixScheduler(
        cluster, model, result.placement, profiler, flow=result.flow,
        expected_output_len=AZURE_MEAN_OUTPUT * trace_scale,
    )
    return cluster, model, profiler, result, trace, scheduler


def bench_online_churn(
    tracker: PerfTracker,
    num_requests: int = 200,
    fail_at: float = 12.0,
    horizon: float = 36.0,
    window: float = 3.0,
    seed: int = 0,
    trace_scale: float = 0.25,
    plan_time_limit: float = 8.0,
    replan_lns_rounds: int = 2,
    replan_time_limit: float = 1.0,
) -> dict[str, float]:
    """The scripted fig12-small churn scenario: kill a planned node mid-run.

    Plans LLaMA-30B on the Fig. 12 cluster, floods it with a scaled Azure
    trace (offline setting, KV capacity scaled with the trace so per-node
    concurrency matches the full-scale system), then kills the node
    carrying the most max-flow at ``fail_at``. The online controller
    rewrites flows incrementally, runs the warm-started LNS replan, and
    hot-swaps the repaired placement; the recorded metrics are the
    windowed-goodput recovery ratio, the replanning wall-clock latency,
    and the disruption counters. Given ``seed``, the run is deterministic
    up to the replanner's solver time limits — which its LNS rounds finish
    well under on this instance — so the recorded ratio is stable.
    """
    from repro.online import NodeFailure, OnlineController
    from repro.sim.simulator import Simulation

    start = time.perf_counter()
    cluster, model, profiler, result, trace, scheduler = (
        _fig12_online_scenario(num_requests, seed, trace_scale, plan_time_limit)
    )
    plan_s = time.perf_counter() - start

    # Kill the planned node carrying the most flow — the worst single loss.
    node_flows = result.flow.node_flows
    victim = max(
        result.placement.used_nodes,
        key=lambda nid: node_flows.get(nid, 0.0),
    )

    controller = OnlineController(
        model,
        events=[NodeFailure(fail_at, victim)],
        profiler=profiler,
        replan_lns_rounds=replan_lns_rounds,
        replan_time_limit=replan_time_limit,
    )
    simulation = Simulation(
        cluster, model, result.placement, scheduler, trace,
        profiler=profiler, max_batch_tokens=2048, max_time=horizon,
        seed=seed, controller=controller,
    )
    start = time.perf_counter()
    serving = simulation.run()
    sim_s = time.perf_counter() - start

    applied = controller.applied_replans
    if not applied:
        raise AssertionError(
            f"churn scenario produced no applied replan: {controller.replans}"
        )
    report = controller.report(simulation, window=window)

    metrics = {
        "online_plan_s": plan_s,
        "online_sim_wall_s": sim_s,
        "online_pre_goodput": report.pre_disruption_goodput,
        "online_post_goodput": report.post_recovery_goodput,
        "online_recovery_ratio": report.recovery_ratio,
        "online_time_to_recovery_s": report.time_to_recovery,
        "online_replan_count": float(len(applied)),
        "online_replan_wall_s": max(r.wall_seconds for r in applied),
        "online_replanned_max_flow": applied[-1].throughput,
        "online_requests_retried": float(serving.requests_retried),
        "online_requests_migrated": float(serving.requests_migrated),
        "online_tokens_lost": float(serving.tokens_lost),
        "online_kv_overflows": float(serving.kv_overflow_events),
    }
    for name, value in metrics.items():
        tracker.record(name, value)
    return metrics


def bench_online_soak(
    tracker: PerfTracker,
    duration: float = 120.0,
    num_requests: int = 400,
    seed: int = 0,
    trace_scale: float = 0.25,
    mean_time_to_failure: float = 18.0,
    mean_time_to_recovery: float = 10.0,
) -> dict[str, float]:
    """Seeded random churn soak on the fig12 cluster.

    Nodes fail and recover stochastically for ``duration`` simulated
    seconds while the controller keeps replanning; records how much
    serving survived (goodput mean over the churn window vs. the pre-churn
    baseline) and the replanning latency distribution.
    """
    from repro.online import ChurnConfig, OnlineController, random_churn
    from repro.sim.metrics import goodput_timeline
    from repro.sim.simulator import Simulation

    cluster, model, profiler, result, trace, scheduler = (
        _fig12_online_scenario(num_requests, seed, trace_scale, 8.0)
    )

    churn_start = 12.0
    events = random_churn(
        cluster.node_ids,
        ChurnConfig(
            duration=duration - churn_start,
            mean_time_to_failure=mean_time_to_failure,
            mean_time_to_recovery=mean_time_to_recovery,
            start=churn_start,
        ),
        seed=seed,
    )
    controller = OnlineController(
        model, events=events, profiler=profiler,
        replan_lns_rounds=2, replan_time_limit=1.0,
    )
    simulation = Simulation(
        cluster, model, result.placement, scheduler, trace,
        profiler=profiler, max_batch_tokens=2048, max_time=duration,
        seed=seed, controller=controller,
    )
    start = time.perf_counter()
    serving = simulation.run()
    sim_s = time.perf_counter() - start

    end_time = min(simulation.now, duration)
    timeline = goodput_timeline(simulation.token_timeline, 3.0, end_time)
    baseline = [r for t, r in timeline[1:] if t + 3.0 <= churn_start]
    churn_window = [r for t, r in timeline if t >= churn_start]
    applied = controller.applied_replans
    metrics = {
        "soak_sim_wall_s": sim_s,
        "soak_events": float(len(events)),
        "soak_replans_applied": float(len(applied)),
        "soak_replan_wall_max_s": (
            max(r.wall_seconds for r in applied) if applied else 0.0
        ),
        "soak_baseline_goodput": (
            sum(baseline) / len(baseline) if baseline else 0.0
        ),
        "soak_churn_goodput": (
            sum(churn_window) / len(churn_window) if churn_window else 0.0
        ),
        "soak_requests_retried": float(serving.requests_retried),
        "soak_requests_migrated": float(serving.requests_migrated),
        "soak_tokens_lost": float(serving.tokens_lost),
    }
    for name, value in metrics.items():
        tracker.record(name, value)
    return metrics


def run_online_bench(
    smoke: bool = False, path: Path | str | None = None
) -> dict:
    """Run the online-dynamics benchmarks and write ``BENCH_online.json``.

    Both sizes run the *same* fig12-small kill-a-planned-node scenario
    (the subsystem's acceptance scenario); smoke shortens the trace and
    horizon and skips the random-churn soak.

    Args:
        smoke: Tier-1-sized run (seconds-scale total).
        path: Output path override; defaults to the repo root artifact.

    Returns:
        The serialized benchmark document (also written to disk).
    """
    tracker = PerfTracker(label="online-smoke" if smoke else "online-full")
    if smoke:
        bench_online_churn(
            tracker, num_requests=150, fail_at=12.0, horizon=30.0
        )
    else:
        bench_online_churn(tracker)
        bench_online_soak(tracker)
    tracker.write(path if path is not None else DEFAULT_ONLINE_OUTPUT)
    return tracker.to_dict()


def run_milp_bench(
    smoke: bool = False, path: Path | str | None = None
) -> dict:
    """Run all MILP benchmarks and write ``BENCH_milp.json``.

    Args:
        smoke: Use tiny sizes (seconds-scale total, exercised by tier-1
            tests) instead of the full configuration.
        path: Output path override; defaults to the repo root artifact.

    Returns:
        The serialized benchmark document (also written to disk).
    """
    tracker = PerfTracker(label="milp-smoke" if smoke else "milp-full")
    if smoke:
        bench_milp_compile(tracker, num_nodes=8, rounds=6, repeats=2)
        bench_milp_feascheck(tracker, num_nodes=8, checks=8, repeats=2)
        bench_milp_bnb(tracker, num_nodes=4, repeats=1)
    else:
        bench_milp_compile(tracker)
        bench_milp_feascheck(tracker)
        bench_milp_bnb(tracker)
        bench_milp_planner(tracker)
    tracker.write(path if path is not None else DEFAULT_MILP_OUTPUT)
    return tracker.to_dict()


def run_flow_bench(
    smoke: bool = False, path: Path | str | None = None
) -> dict:
    """Run all flow benchmarks and write ``BENCH_flow.json``.

    Args:
        smoke: Use tiny sizes (seconds-scale total, exercised by tier-1
            tests) instead of the full configuration.
        path: Output path override; defaults to the repo root artifact.

    Returns:
        The serialized benchmark document (also written to disk).
    """
    tracker = PerfTracker(label="flow-smoke" if smoke else "flow-full")
    if smoke:
        bench_kernel_reuse(tracker, num_edges=120, num_solves=4, repeats=2)
        bench_placement_evaluation(
            tracker, num_nodes=8, num_candidates=6, repeats=2
        )
    else:
        bench_kernel_reuse(tracker)
        bench_placement_evaluation(tracker)
        bench_planner(tracker)
    tracker.write(path)
    return tracker.to_dict()
