"""White-box tests of the Helix MILP formulation (Tables 5-6)."""

import pytest

from repro.cluster import Cluster, L4, T4, Profiler
from repro.core.placement_types import ModelPlacement
from repro.core.units import GBIT
from repro.milp.scipy_backend import solve_with_highs
from repro.models.specs import ModelSpec
from repro.placement import HelixMilpPlanner, PetalsPlanner


@pytest.fixture()
def tiny2(tiny_model):
    """Two-node cluster small enough to reason about by hand."""
    cluster = Cluster(name="tiny2")
    cluster.add_node("l4", L4)
    cluster.add_node("t4", T4)
    cluster.connect("l4", "t4", 10 * GBIT, 0.001)
    cluster.connect("coordinator", "l4", 10 * GBIT, 0.001)
    cluster.connect("coordinator", "t4", 10 * GBIT, 0.001)
    cluster.validate()
    return cluster


class TestFormulationStructure:
    def test_variable_groups_present(self, tiny2, tiny_model):
        planner = HelixMilpPlanner(tiny2, tiny_model, hints=None)
        formulation = planner.build_formulation()
        names = {v.name for v in formulation.problem.variables}
        assert "s[l4]" in names and "s[t4]" in names
        assert any(n.startswith("b[l4][") for n in names)
        assert "f[coordinator->l4]" in names
        assert "d[l4->t4]" in names
        assert "cond1[l4->t4]" in names and "cond2[l4->t4]" in names

    def test_no_cond_vars_without_partial_inference(self, tiny2, tiny_model):
        planner = HelixMilpPlanner(
            tiny2, tiny_model, hints=None, partial_inference=False
        )
        formulation = planner.build_formulation()
        names = {v.name for v in formulation.problem.variables}
        assert not any(n.startswith("cond") for n in names)

    def test_b_variables_bounded_by_vram(self, tiny2, tiny_model):
        planner = HelixMilpPlanner(tiny2, tiny_model, hints=None)
        formulation = planner.build_formulation()
        profiler = Profiler()
        for nid in ("l4", "t4"):
            expected = min(
                profiler.max_layers(tiny2.node(nid), tiny_model),
                tiny_model.num_layers,
            )
            assert len(formulation.b_vars[nid]) == expected

    def test_throughput_table_matches_profiler(self, tiny2, tiny_model):
        planner = HelixMilpPlanner(tiny2, tiny_model, hints=None)
        formulation = planner.build_formulation()
        profiler = planner.profiler
        node = tiny2.node("t4")
        for j, t in enumerate(formulation.throughputs["t4"], start=1):
            assert t == pytest.approx(profiler.throughput(node, tiny_model, j))

    def test_upper_bound_constrains_objective(self, tiny2, tiny_model):
        planner = HelixMilpPlanner(tiny2, tiny_model, hints=None, time_limit=20)
        formulation = planner.build_formulation()
        solution = solve_with_highs(formulation.problem, time_limit=20)
        assert solution.objective <= formulation.upper_bound + 1e-6


class TestMilpOptimality:
    def test_solution_matches_flow_of_orchestrated_placement(
        self, tiny2, tiny_model
    ):
        """MILP objective == max-flow of the placement it orchestrates."""
        planner = HelixMilpPlanner(tiny2, tiny_model, hints=None, time_limit=30)
        result = planner.plan()
        assert result.milp.objective == pytest.approx(
            result.max_throughput, rel=1e-4
        )

    def test_beats_brute_force_equal(self, tiny2, tiny_model):
        """On 2 nodes, enumerate all placements and verify MILP optimality."""
        planner = HelixMilpPlanner(tiny2, tiny_model, hints=None, time_limit=30)
        result = planner.plan()
        profiler = planner.profiler
        L = tiny_model.num_layers
        best = 0.0
        k = {
            nid: min(profiler.max_layers(tiny2.node(nid), tiny_model), L)
            for nid in ("l4", "t4")
        }
        for s1 in range(L):
            for n1 in range(1, k["l4"] + 1):
                if s1 + n1 > L:
                    continue
                for s2 in range(L):
                    for n2 in range(1, k["t4"] + 1):
                        if s2 + n2 > L:
                            continue
                        placement = ModelPlacement.from_intervals(
                            L, {"l4": (s1, s1 + n1), "t4": (s2, s2 + n2)}
                        )
                        best = max(
                            best,
                            planner.placement_throughput(placement, tiny2),
                        )
        assert result.max_throughput == pytest.approx(best, rel=1e-3)


class TestCanonicalization:
    def test_sorts_within_identical_groups(self, small_cluster, tiny_model):
        planner = HelixMilpPlanner(small_cluster, tiny_model, hints=None)
        intervals = {"t4-0": (4, 8), "t4-1": (0, 4), "a100-0": (0, 8)}
        canonical = planner._canonicalize(intervals)
        # t4-0 (lexicographically first) takes the earlier interval.
        assert canonical["t4-0"] == (0, 4)
        assert canonical["t4-1"] == (4, 8)
        assert canonical["a100-0"] == (0, 8)

    def test_preserves_flow_value(self, small_cluster, tiny_model):
        planner = HelixMilpPlanner(small_cluster, tiny_model, hints=None)
        placement = PetalsPlanner(small_cluster, tiny_model).plan().placement
        intervals = {
            nid: (st.start, st.end) for nid, st in placement.assignments.items()
        }
        canonical = planner._canonicalize(intervals)
        original_value = planner.placement_throughput(placement, small_cluster)
        canonical_value = planner.placement_throughput(
            ModelPlacement.from_intervals(tiny_model.num_layers, canonical),
            small_cluster,
        )
        assert canonical_value == pytest.approx(original_value, rel=1e-6)

    def test_only_nodes_with_the_same_links_are_reordered(self, tiny_model):
        # Three T4s in one region, chained t4-0 <-> t4-2 <-> t4-1: the two
        # ends swap onto each other, the middle one swaps with neither, so
        # a pipeline through the middle keeps its value.
        cluster = Cluster(name="chain")
        for nid in ("t4-0", "t4-1", "t4-2"):
            cluster.add_node(nid, T4)
            cluster.connect("coordinator", nid, 10 * GBIT, 0.001)
            cluster.connect(nid, "coordinator", 10 * GBIT, 0.001)
        for end in ("t4-0", "t4-1"):
            cluster.connect(end, "t4-2", 10 * GBIT, 0.001)
            cluster.connect("t4-2", end, 10 * GBIT, 0.001)
        cluster.validate()
        planner = HelixMilpPlanner(cluster, tiny_model, hints=None)
        intervals = {"t4-0": (5, 8), "t4-1": (0, 2), "t4-2": (2, 5)}
        canonical = planner._canonicalize(intervals)
        assert canonical == {"t4-0": (0, 2), "t4-1": (5, 8), "t4-2": (2, 5)}
        value = planner.placement_throughput(
            ModelPlacement.from_intervals(tiny_model.num_layers, intervals)
        )
        assert value > 0
        assert planner.placement_throughput(
            ModelPlacement.from_intervals(tiny_model.num_layers, canonical)
        ) == pytest.approx(value, rel=1e-9)

