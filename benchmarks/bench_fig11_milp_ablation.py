"""Fig. 11: ablation of the two MILP optimizations (§4.5, §6.8).

(a) Cluster pruning: the placement found on the pruned cluster serves the
    full cluster essentially as well (paper: pruning even *helped* by 16%/2%
    because the smaller search space yields better incumbents in budget).
(b) Initial values: HiGHS, given the best heuristic placement as a MIP
    start, reaches a given solution quality faster than starting cold
    (paper: 43%/8% less wall-clock on the 24-/42-node clusters). The
    times come from HiGHS's improving-solution trajectory.

Both ablations run on the Fig. 12 cluster size (plus the geo cluster for
pruning) so the solver effects are measurable within CI-scale budgets.
"""

from repro.bench.tables import format_table
from repro.cluster import Profiler, geo_distributed_24, small_cluster_fig12
from repro.milp import solve_with_highs
from repro.models.specs import LLAMA_30B, LLAMA_70B
from repro.placement import HelixMilpPlanner


def pruning_ablation():
    """Throughput of placements found with vs without pruning (geo-24)."""
    results = {}
    for label, prune in (("with_pruning", 6), ("without_pruning", None)):
        planner = HelixMilpPlanner(
            geo_distributed_24(), LLAMA_70B, Profiler(),
            prune_degree=prune, time_limit=15.0, mip_rel_gap=0.05,
        )
        results[label] = planner.plan()
    return results


def initial_value_ablation():
    """Time for warm vs cold HiGHS solves to reach the same quality."""
    planner = HelixMilpPlanner(small_cluster_fig12(), LLAMA_30B, Profiler())
    formulation = planner.build_formulation()
    best_hint = max(
        planner.heuristic_hints(planner.cluster),
        key=planner.placement_throughput,
    )
    warm = planner.assignment_from_placement(
        formulation, best_hint, planner.cluster
    )
    runs = {}
    for label, start in (("warm_start", warm), ("cold_start", None)):
        solution = solve_with_highs(
            formulation.problem, time_limit=25.0, mip_rel_gap=0.05,
            start=start,
        )
        # A cold start may find no incumbent in budget (value NaN) — the
        # strongest possible version of the paper's Fig. 11b point.
        runs[label] = {
            "value": solution.objective,
            "trajectory": solution.trajectory,
            "total_s": solution.solve_time,
        }
    # Common quality target: 90% of the best incumbent either run found,
    # so the comparison is apples to apples.
    finite = [
        run["value"] for run in runs.values() if run["value"] == run["value"]
    ]
    target = 0.9 * max(finite)
    timings = {}
    for label, run in runs.items():
        reach = next(
            (p.elapsed for p in run["trajectory"] if p.incumbent >= target),
            float("inf"),
        )
        timings[label] = {
            "value": run["value"],
            "total_s": run["total_s"],
            "time_to_target_s": reach,
        }
    return timings


def test_fig11a_cluster_pruning(benchmark, report):
    results = benchmark.pedantic(pruning_ablation, rounds=1, iterations=1)
    rows = [
        [label, round(result.max_throughput, 1), result.num_variables,
         result.num_constraints]
        for label, result in results.items()
    ]
    text = format_table(["variant", "maxflow_tok_s", "vars", "cstr"], rows)
    with_p = results["with_pruning"].max_throughput
    without_p = results["without_pruning"].max_throughput
    # The robust half of the claim is the problem-size reduction; the
    # throughput comparison is reported but only sanity-banded, since a
    # solve that goes past its root probe is time-capped, so its incumbent
    # varies run to run (the paper saw pruning *help* by 16%/2%).
    assert with_p >= 0.5 * without_p
    assert results["with_pruning"].num_variables < results[
        "without_pruning"
    ].num_variables
    text += f"\npruned/unpruned throughput = {with_p / max(without_p, 1e-9):.2f}x (paper 1.16x / 1.02x)"
    report("fig11a_cluster_pruning", text)


def test_fig11b_initial_values(benchmark, report):
    timings = benchmark.pedantic(initial_value_ablation, rounds=1, iterations=1)
    rows = [
        [label, round(t["value"], 1), round(t["time_to_target_s"], 2),
         round(t["total_s"], 2)]
        for label, t in timings.items()
    ]
    text = format_table(
        ["variant", "maxflow_tok_s", "time_to_target_s", "total_s"], rows
    )
    warm = timings["warm_start"]["time_to_target_s"]
    cold = timings["cold_start"]["time_to_target_s"]
    # The warm start holds a target-quality incumbent essentially from the
    # first instant; the cold solver has to discover one (and may not,
    # within budget — time inf).
    assert warm < float("inf"), "warm start must have a quality incumbent"
    assert warm <= cold + 0.5
    text += (
        f"\nwarm reaches the common target at {warm:.2f}s vs cold at "
        f"{cold:.2f}s (paper: warm starts 43%/8% faster)"
    )
    report("fig11b_initial_values", text)
