"""Fig. 12: best incumbent and best bound vs MILP solving time (§6.9).

Paper setup: LLaMA-30B on 4 L4 + 6 T4. Gurobi finds the optimal placement
within minutes but needs over an hour to *prove* optimality; the incumbent
curve rises quickly and the upper-bound curve tightens slowly. We record
the same two curves from HiGHS's improving-solution callback, on the
solver the planner uses, started from the best heuristic placement as the
paper starts Gurobi. We assert the qualitative shape: early high-quality
incumbents, monotone incumbents, a bound that only tightens, and a final
incumbent within the solver's bound. The report says whether the final
bound is still the §4.5 compute-sum bound.
"""

import math

from repro.bench.tables import format_table
from repro.cluster import Profiler, small_cluster_fig12
from repro.milp import solve_with_highs
from repro.models.specs import LLAMA_30B
from repro.placement import HelixMilpPlanner


def solve_with_trajectory():
    planner = HelixMilpPlanner(small_cluster_fig12(), LLAMA_30B, Profiler())
    formulation = planner.build_formulation()
    best_hint = max(
        planner.heuristic_hints(planner.cluster),
        key=planner.placement_throughput,
    )
    start = planner.assignment_from_placement(
        formulation, best_hint, planner.cluster
    )
    solution = solve_with_highs(
        formulation.problem, time_limit=30.0, mip_rel_gap=0.01, start=start
    )
    return formulation, solution


def test_fig12_solution_quality(benchmark, report):
    formulation, solution = benchmark.pedantic(
        solve_with_trajectory, rounds=1, iterations=1
    )
    trajectory = solution.trajectory
    assert trajectory, "HiGHS must report a trajectory"

    incumbents = [(p.elapsed, p.incumbent) for p in trajectory]
    bounds = [(p.elapsed, p.bound) for p in trajectory if math.isfinite(p.bound)]
    # Incumbents never regress; bounds never loosen.
    values = [v for _, v in incumbents]
    assert values == sorted(values)
    bound_values = [b for _, b in bounds]
    assert all(a >= b - 1e-6 for a, b in zip(bound_values, bound_values[1:]))
    # The first incumbent (heuristic warm start) is already decent, and the
    # final incumbent is at least as good — the paper's "high-quality
    # solutions emerge early" observation.
    final_value = values[-1]
    assert values[0] >= 0.5 * final_value
    # Final incumbent within the solver's reported bound.
    assert final_value <= solution.bound + 1e-6

    rows = [
        [f"{elapsed:.2f}", f"{value:.1f}"] for elapsed, value in incumbents[:12]
    ]
    text = "incumbent trajectory (s, tokens/s):\n"
    text += format_table(["elapsed_s", "incumbent"], rows)
    text += f"\nfinal: incumbent {final_value:.1f}, bound {solution.bound:.1f}, "
    text += f"gap {solution.gap:.1%}, nodes {solution.node_count}"
    at_compute_sum = math.isclose(
        solution.bound, formulation.upper_bound, rel_tol=1e-6
    )
    text += (
        f"\nfinal bound {'equals' if at_compute_sum else 'is below'} the "
        f"compute-sum bound {formulation.upper_bound:.1f}"
    )
    report("fig12_solution_quality", text)
