"""Tests for the HiGHS solver surface the planner uses.

MIP starts and the improving-solution trajectory on small Helix
formulations, node-limited solves, the root probe, a differential against
``scipy.optimize.milp``, the compile cache, and the import footprint of
the bindings.
"""

import ast
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    Profiler,
    A100_40G,
    L4,
    T4,
    geo_distributed_24,
    small_cluster_fig12,
    toy_cluster_fig1,
    toy_cluster_fig2,
)
from repro.core.errors import SolverError
from repro.core.units import GBIT
from repro.milp import (
    MilpProblem,
    MilpSolution,
    SolveStatus,
    lin_sum,
    solve_with_highs,
)
from repro.milp import scipy_backend
from repro.models.specs import LLAMA_30B, ModelSpec
from repro.placement import helix_milp
from repro.placement.helix_milp import HelixMilpPlanner
from repro.placement.pruning import prune_cluster

#: A small model whose formulations HiGHS solves to proven optimality in
#: well under a second.
TINY_MODEL = ModelSpec(
    name="tiny-8L",
    num_layers=8,
    hidden_size=1024,
    num_heads=8,
    num_kv_heads=8,
    intermediate_size=2816,
    nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816),
)


def random_helix_cluster(seed: int) -> Cluster:
    """A small random heterogeneous cluster (3-5 nodes, random links)."""
    rng = random.Random(seed)
    num_nodes = rng.randint(3, 5)
    cluster = Cluster(name=f"rand-{seed}")
    gpus = (A100_40G, L4, T4)
    node_ids = []
    for i in range(num_nodes):
        node_id = f"n{i}"
        cluster.add_node(node_id, gpus[rng.randrange(3)], region="r0")
        node_ids.append(node_id)
    bandwidth = rng.uniform(1.0, 10.0) * GBIT
    cluster.connect_full_mesh(
        node_ids, bandwidth, 0.001, include_coordinator=True
    )
    cluster.validate()
    return cluster


def helix_problem(seed: int):
    cluster = random_helix_cluster(seed)
    planner = HelixMilpPlanner(cluster, TINY_MODEL, Profiler())
    return planner, planner.build_formulation()


def hint_start(seed: int):
    """A Helix formulation and the MIP start of its first heuristic hint."""
    planner, formulation = helix_problem(seed)
    hints = planner.heuristic_hints(planner.cluster)
    assert hints, "expected at least one heuristic hint"
    start = planner.assignment_from_placement(
        formulation, hints[0], planner.cluster
    )
    assert formulation.problem.check_feasible(start) == []
    return formulation, start


class TestMipStart:
    @pytest.mark.parametrize("seed", [0, 2])
    def test_warm_start_never_worse_than_cold(self, seed):
        formulation, start = hint_start(seed)
        cold = solve_with_highs(formulation.problem, time_limit=30)
        warm = solve_with_highs(formulation.problem, time_limit=30, start=start)
        assert warm.status.has_solution
        scale = max(1.0, abs(cold.objective))
        assert warm.objective >= cold.objective - 1e-6 * scale

    def test_feasible_start_survives_node_limit_zero(self):
        # Even when the tree is cut off before the root, the start must
        # come back as the incumbent.
        formulation, start = hint_start(1)
        value = formulation.problem.objective.evaluate(start)
        solution = solve_with_highs(
            formulation.problem, node_limit=0, presolve=False, start=start
        )
        assert solution.status is SolveStatus.FEASIBLE
        assert solution.objective >= value - 1e-9
        assert solution.trajectory[0].incumbent == pytest.approx(value)

    def test_infeasible_start_never_comes_back(self):
        formulation, start = hint_start(1)
        flow = next(iter(formulation.f_vars.values()))
        broken = dict(start)
        broken[flow.name] = flow.upper + 1.0  # above the link's capacity
        assert formulation.problem.check_feasible(broken) != []
        solution = solve_with_highs(
            formulation.problem, node_limit=0, presolve=False, start=broken
        )
        assert solution.status is SolveStatus.NO_SOLUTION
        assert solution.trajectory == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trajectory_is_monotone_and_ends_at_the_optimum(self, seed):
        _, formulation = helix_problem(seed)
        solution = solve_with_highs(formulation.problem)
        assert solution.status is SolveStatus.OPTIMAL
        incumbents = [point.incumbent for point in solution.trajectory]
        assert incumbents == sorted(incumbents)
        assert incumbents[-1] == solution.objective
        bounds = [
            point.bound for point in solution.trajectory
            if math.isfinite(point.bound)
        ]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))


class TestPlannerEdgeCases:
    def test_tiny_time_limit_returns_solution(self):
        # Regression: a sub-50ms budget must still produce one solve.
        cluster = random_helix_cluster(0)
        planner = HelixMilpPlanner(
            cluster, TINY_MODEL, Profiler(), time_limit=0.04
        )
        result = planner.plan()
        assert result.max_throughput > 0


class TestNodeLimitedSolve:
    def test_root_node_stop_is_feasible(self):
        # HiGHS reports a node-limit stop as scipy status 4 ("Solution
        # limit reached"); with an incumbent it is an early FEASIBLE stop.
        _, formulation = helix_problem(0)
        root = solve_with_highs(
            formulation.problem, node_limit=1, presolve=False
        )
        assert root.status is SolveStatus.FEASIBLE
        assert formulation.problem.check_feasible(root.values) == []
        optimum = solve_with_highs(formulation.problem)
        assert root.objective <= optimum.objective + 1e-6

    def test_node_limit_stop_without_incumbent_is_no_solution(self):
        _, formulation = helix_problem(0)
        solution = solve_with_highs(
            formulation.problem, node_limit=0, presolve=False
        )
        assert solution.status is SolveStatus.NO_SOLUTION

    @pytest.mark.parametrize("node_limit", [None, 0, 5])
    def test_solution_limit_raises_unless_node_limited(
        self, monkeypatch, node_limit
    ):
        # HiGHS reports reaching mip_max_nodes as kSolutionLimit. Stopping
        # at the first improving solution is also kSolutionLimit: the
        # mapping is keyed on node_limit having been set, so without it
        # such a stop is an error, and with it the result is FEASIBLE or
        # NO_SOLUTION by whether HiGHS holds an incumbent.
        _, formulation = helix_problem(0)
        core = scipy_backend._core
        make_options = core.HighsOptions

        def stop_at_first_solution():
            options = make_options()
            options.mip_max_improving_sols = 1
            return options

        monkeypatch.setattr(core, "HighsOptions", stop_at_first_solution)
        if node_limit is None:
            with pytest.raises(SolverError, match="kSolutionLimit"):
                solve_with_highs(formulation.problem)
            return
        solution = solve_with_highs(formulation.problem, node_limit=node_limit)
        if node_limit == 0:
            assert solution.status is SolveStatus.NO_SOLUTION
        else:
            assert solution.status is SolveStatus.FEASIBLE
            assert formulation.problem.check_feasible(solution.values) == []

    @pytest.mark.parametrize("maximize", [True, False], ids=["max", "min"])
    @pytest.mark.parametrize(
        "dual", [7.0, -math.inf, math.inf, math.nan],
        ids=["finite", "-inf", "+inf", "nan"],
    )
    def test_unknown_bound_is_the_trivial_bound_of_the_sense(
        self, maximize, dual
    ):
        # HiGHS minimizes, so a maximization's dual bound comes back
        # negated; without a finite one the bound is +inf when maximizing
        # and -inf when minimizing.
        bound = scipy_backend._extract_bound(
            dual, maximize, constant=1.0, objective=3.0, optimal=False
        )
        if math.isfinite(dual):
            assert bound == (-6.0 if maximize else 8.0)
        else:
            assert bound == (math.inf if maximize else -math.inf)
            optimal = scipy_backend._extract_bound(
                dual, maximize, constant=1.0, objective=3.0, optimal=True
            )
            assert optimal == 3.0


def _differential_cases():
    cases = [
        pytest.param(lambda s=seed: random_helix_cluster(s), id=f"rand-{seed}")
        for seed in range(12)
    ]
    cases.append(pytest.param(toy_cluster_fig1, id="toy-fig1"))
    cases.append(pytest.param(toy_cluster_fig2, id="toy-fig2"))
    return cases


class TestRootProbe:
    @pytest.mark.parametrize("make_cluster", _differential_cases())
    def test_default_matches_full_budget_reference(self, make_cluster):
        # The root probe may stop the planner early; it must never cost
        # more than the gap against one full-budget solve of the MILP.
        cluster = make_cluster()
        gap = 1e-4
        planner = HelixMilpPlanner(
            cluster, TINY_MODEL, Profiler(), time_limit=10, mip_rel_gap=gap
        )
        default = planner.plan()
        formulation = planner.build_formulation()
        solution = solve_with_highs(
            formulation.problem, time_limit=10, mip_rel_gap=gap
        )
        reference = planner.placement_throughput(
            planner.orchestrate(formulation, solution.values)
        )
        assert default.max_throughput >= reference * (1 - gap)

    def test_fig12_plan_is_deterministic_and_single_solve(self):
        # The benchmark's fig12 configuration: the probe cannot beat the
        # heuristic hint, so planning is one node-limited (hence
        # machine-speed independent) solve that returns the hint.
        def plan():
            planner = HelixMilpPlanner(
                small_cluster_fig12(), LLAMA_30B, Profiler(),
                time_limit=10, mip_rel_gap=0.05,
            )
            result = planner.plan()
            intervals = sorted(
                (nid, stage.start, stage.end)
                for nid, stage in result.placement.assignments.items()
            )
            return planner.milp_solve_count, result.max_throughput, intervals

        first, second = plan(), plan()
        assert first == second
        assert first[0] == 1
        assert first[1] == 1240.3123939656934

    def test_stall_test_scores_incumbents_on_the_full_cluster(
        self, monkeypatch
    ):
        # geo with prune_degree=6: the best heuristic placement scores
        # ~5099 on the full cluster but only ~2264 as the pruned MILP's
        # objective. Seeded with a weaker hint (~3935), a probe incumbent
        # equal to that best placement beats the hint, even though its
        # MILP objective is below the hint's value, so the planner spends
        # the rest of its budget on exactly one more solve.
        cluster = geo_distributed_24()
        planner = HelixMilpPlanner(
            cluster, LLAMA_30B, Profiler(), prune_degree=6,
            time_limit=20, mip_rel_gap=0.03,
        )
        work = prune_cluster(cluster, 6)
        formulation = planner.build_formulation(work)
        value = planner.placement_throughput
        hints = sorted(planner.heuristic_hints(work), key=value)
        weak, best = hints[0], hints[-1]
        values = planner.assignment_from_placement(formulation, best, work)
        objective = formulation.problem.objective.evaluate(values)
        assert objective < value(weak)
        assert value(weak) < value(best)

        calls = []
        probe_time = 0.25

        def fake_solve(problem, **kwargs):
            calls.append(kwargs)
            return MilpSolution(
                status=SolveStatus.FEASIBLE, objective=objective,
                values=dict(values), solve_time=probe_time,
            )

        monkeypatch.setattr(helix_milp, "solve_with_highs", fake_solve)
        planner.hints = [weak]
        result = planner.plan()
        assert planner.milp_solve_count == len(calls) == 2
        probe, solve = calls
        assert probe["node_limit"] == 1 and probe["presolve"] is False
        assert probe["time_limit"] == 20
        assert "node_limit" not in solve and "presolve" not in solve
        assert solve["time_limit"] == 20 - probe_time
        assert solve["mip_rel_gap"] == 0.03
        assert result.max_throughput == pytest.approx(value(best))


def _scipy_milp(problem, options):
    """The reference solve: ``scipy.optimize.milp`` on the compiled
    arrays."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    compiled = problem.compile()
    shape = (len(compiled.constraint_lower), len(compiled.c))
    matrix = csr_matrix(
        (compiled.data, compiled.indices, compiled.indptr), shape=shape
    )
    return milp(
        c=compiled.c,
        constraints=LinearConstraint(
            matrix, compiled.constraint_lower, compiled.constraint_upper
        ),
        integrality=compiled.integrality,
        bounds=Bounds(compiled.lower, compiled.upper),
        options=options,
    )


def _bench_probe_cases():
    """The root probes of the fig12 and geo-24 (prune 6) MILP workloads."""
    def fig12():
        planner = HelixMilpPlanner(
            small_cluster_fig12(), LLAMA_30B, Profiler(),
            time_limit=10, mip_rel_gap=0.05,
        )
        return planner.build_formulation()

    def geo():
        cluster = geo_distributed_24()
        planner = HelixMilpPlanner(
            cluster, LLAMA_30B, Profiler(), prune_degree=6,
            time_limit=20, mip_rel_gap=0.03,
        )
        return planner.build_formulation(prune_cluster(cluster, 6))

    return [
        pytest.param(fig12, 10.0, 0.05, id="fig12"),
        pytest.param(geo, 20.0, 0.03, id="geo24-prune6"),
    ]


class TestScipyMilpDifferential:
    """The direct HiGHS calls solve exactly what ``scipy.optimize.milp``
    solves, on the deterministic solves: node-limited root probes and
    solves run to optimality. Every direct solve registers the
    improving-solution callback, which must leave the solve unchanged."""

    @staticmethod
    def assert_identical(problem, solution, reference, status):
        sign = -1.0 if problem.maximize else 1.0
        constant = problem.objective.constant
        assert solution.status is status
        assert solution.objective == sign * reference.fun + constant
        assert solution.bound == sign * reference.mip_dual_bound + constant
        assert solution.node_count == reference.mip_node_count
        x = np.array([solution.values[v.name] for v in problem.variables])
        np.testing.assert_array_equal(x, reference.x)
        assert solution.trajectory[-1].incumbent == solution.objective

    def check_probe(self, problem, time_limit, gap):
        solution = solve_with_highs(
            problem, time_limit=time_limit, mip_rel_gap=gap,
            node_limit=1, presolve=False,
        )
        reference = _scipy_milp(problem, {
            "time_limit": time_limit, "mip_rel_gap": gap,
            "node_limit": 1, "presolve": False,
        })
        expected = (
            SolveStatus.OPTIMAL if reference.status == 0
            else SolveStatus.FEASIBLE
        )
        self.assert_identical(problem, solution, reference, expected)

    @pytest.mark.parametrize("make_cluster", _differential_cases())
    def test_probe_and_optimal_solves_match(self, make_cluster):
        planner = HelixMilpPlanner(make_cluster(), TINY_MODEL, Profiler())
        problem = planner.build_formulation().problem
        self.check_probe(problem, 10.0, 1e-4)
        solution = solve_with_highs(problem)
        reference = _scipy_milp(problem, None)
        assert reference.status == 0
        self.assert_identical(problem, solution, reference, SolveStatus.OPTIMAL)

    @pytest.mark.parametrize("build, time_limit, gap", _bench_probe_cases())
    def test_bench_root_probes_match(self, build, time_limit, gap):
        self.check_probe(build().problem, time_limit, gap)


def _python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` and the repository
    root importable; return its stdout."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestImportFootprint:
    def test_missing_bindings_name_the_path_and_scipy_version(
        self, monkeypatch, tmp_path
    ):
        import scipy

        monkeypatch.delitem(sys.modules, scipy_backend._CORE_NAME)
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        expected = str(tmp_path / "optimize" / "_highspy" / "_core")
        with pytest.raises(SolverError) as error:
            scipy_backend._load_highs_core()
        assert expected in str(error.value)
        assert scipy.__version__ in str(error.value)

    @pytest.mark.parametrize("method", ["setCallback", "startCallback", "setSolution"])
    def test_bindings_without_a_required_method_name_the_scipy_version(
        self, monkeypatch, method
    ):
        import scipy

        class Highs:
            pass

        for name in ("setCallback", "startCallback", "setSolution"):
            if name != method:
                setattr(Highs, name, None)
        core = type(sys)("fake_core")
        core._Highs = Highs
        monkeypatch.setitem(sys.modules, scipy_backend._CORE_NAME, core)
        with pytest.raises(SolverError) as error:
            scipy_backend._load_highs_core()
        assert method in str(error.value)
        assert scipy.__version__ in str(error.value)

    def test_no_source_module_imports_scipy_optimize_sparse_or_linprog(self):
        # The bindings are loaded from their file; nothing under src/ may
        # import the scipy.optimize or scipy.sparse packages, or linprog.
        src = Path(__file__).resolve().parents[1] / "src"
        banned = ("scipy.optimize", "scipy.sparse")
        offenders = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    names = [module] + [
                        f"{module}.{alias.name}" for alias in node.names
                    ]
                else:
                    continue
                for name in names:
                    if name.startswith(banned) or name.split(".")[-1] == "linprog":
                        offenders.append(f"{path.relative_to(src)}: {name}")
        assert offenders == []

    def test_repro_and_bench_do_not_load_scipy_optimize_or_sparse(self):
        out = _python(
            "import sys, repro, bench.workloads\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.sparse')"
            " if m in sys.modules))\n"
        )
        assert out.strip() == "[]"

    @pytest.mark.parametrize("scipy_first", [False, True])
    def test_bindings_are_shared_with_scipy_optimize(self, scipy_first):
        # However the two are ordered, there is one bindings module, and
        # scipy.optimize.milp works beside the planner.
        order = ("scipy.optimize", "repro") if scipy_first else (
            "repro", "scipy.optimize"
        )
        out = _python(
            "".join(f"import {name}\n" for name in order)
            + "import sys\n"
            "from repro.cluster import Profiler, toy_cluster_fig1\n"
            "from repro.milp import scipy_backend\n"
            "from repro.models.specs import ModelSpec\n"
            "from repro.placement.helix_milp import HelixMilpPlanner\n"
            "from scipy.optimize._highspy import _highs_wrapper\n"
            "core = sys.modules['scipy.optimize._highspy._core']\n"
            "assert scipy_backend._core is core is _highs_wrapper._h\n"
            "model = ModelSpec(name='tiny-8L', num_layers=8, hidden_size=1024,"
            " num_heads=8, num_kv_heads=8, intermediate_size=2816,"
            " nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816))\n"
            "result = HelixMilpPlanner(toy_cluster_fig1(), model, Profiler(),"
            " time_limit=10).plan()\n"
            "assert result.max_throughput > 0\n"
            "print(scipy.optimize.milp(c=[-1.0], bounds=(0, 2),"
            " integrality=[1]).x[0])\n"
        )
        assert out.strip() == "2.0"


class TestCompileCache:
    """``compile`` reads the problem as it is when it runs."""

    def build(self):
        p = MilpProblem()
        xs = [p.add_var(f"x{i}", 0, 5, integer=True) for i in range(4)]
        p.add_constraint(lin_sum(xs) <= 10, name="cap")
        p.add_constraint(xs[0] - xs[1] >= -2, name="skew")
        p.set_objective(lin_sum((i + 1) * x for i, x in enumerate(xs)))
        return p, xs

    @staticmethod
    def assert_same_arrays(a, b):
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.constraint_lower, b.constraint_lower)
        np.testing.assert_array_equal(a.constraint_upper, b.constraint_upper)
        np.testing.assert_array_equal(a.c, b.c)
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)

    def test_cached_compile_matches_fresh(self):
        p, xs = self.build()
        first = p.compile()
        self.assert_same_arrays(first, p.compile())

    def test_append_and_truncate_are_incremental_and_correct(self):
        p, xs = self.build()
        base = p.compile()
        n = len(p.constraints)
        p.add_constraint(xs[2] == 3, name="fix")
        appended = p.compile()
        assert len(appended.indptr) == n + 2
        assert appended.constraint_lower[-1] == appended.constraint_upper[-1] == 3
        del p.constraints[n:]
        truncated = p.compile()
        assert len(truncated.indptr) == n + 1
        self.assert_same_arrays(truncated, base)

    def test_truncate_then_append_compiles_the_new_row(self):
        # Each round replaces the last round's cutoff row; the compile must
        # read the new right-hand side.
        p, xs = self.build()
        n = len(p.constraints)
        for k in range(50):
            p.add_constraint(p.objective >= k, name="cutoff")
            assert p.compile().constraint_lower[-1] == k
            del p.constraints[n:]

    def test_bound_mutation_is_seen_without_recompile(self):
        p, xs = self.build()
        p.compile()
        xs[0].lower = xs[0].upper = 2.0
        arrays = p.compile()
        assert arrays.lower[0] == 2.0 and arrays.upper[0] == 2.0
        solution = solve_with_highs(p)
        assert solution.values["x0"] == pytest.approx(2.0)

    def test_objective_change_invalidates_cache(self):
        p, xs = self.build()
        first = p.compile()
        p.set_objective(xs[0], maximize=False)
        second = p.compile()
        assert second.c[0] == 1.0
        assert first.c[0] != second.c[0]

    def test_check_feasible_names_a_missing_variable(self):
        p, xs = self.build()
        p.add_var("unused", 0, 1)
        with pytest.raises(ValueError, match="'unused'"):
            p.check_feasible({f"x{i}": 0.0 for i in range(4)})

    def test_check_feasible_matches_loop_reference(self):
        p, xs = self.build()
        values = {f"x{i}": 4.0 for i in range(4)}
        reference = [
            c.name or f"constraint[{i}]"
            for i, c in enumerate(p.constraints)
            if c.violated_by(values, 1e-5)
        ]
        assert p.check_feasible(values) == reference
