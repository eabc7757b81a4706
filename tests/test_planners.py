"""Tests for placement planners: baselines and the Helix MILP planner."""

import pytest

from repro.cluster import Cluster, L4, T4, single_cluster_24, small_cluster_fig12
from repro.core.errors import PlacementError
from repro.core.units import GBIT
from repro.models.specs import LLAMA_30B, LLAMA_70B
from repro.placement import (
    HelixMilpPlanner,
    PetalsPlanner,
    SeparatePipelinesPlanner,
    SwarmPlanner,
    prune_cluster,
)
from repro.placement.swarm import even_partition


class TestEvenPartition:
    def test_exact_split(self):
        assert even_partition(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_split_covers_everything(self):
        stages = even_partition(10, 3)
        assert stages[0][0] == 0 and stages[-1][1] == 10
        assert all(lo < hi for lo, hi in stages)
        assert all(stages[i][1] == stages[i + 1][0] for i in range(2))

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            even_partition(4, 5)
        with pytest.raises(ValueError):
            even_partition(4, 0)


class TestPruning:
    def test_degree_bound_enforced(self):
        cluster = single_cluster_24()
        pruned = prune_cluster(cluster, max_degree=6)
        for node_id in pruned.node_ids:
            inter_node = [
                l for l in pruned.links_from(node_id) if l.dst != "coordinator"
            ]
            assert len(inter_node) <= 6

    def test_coordinator_links_survive(self):
        cluster = single_cluster_24()
        pruned = prune_cluster(cluster, max_degree=2)
        assert len(pruned.links_from("coordinator")) == len(
            cluster.links_from("coordinator")
        )
        assert len(pruned.links_to("coordinator")) == len(
            cluster.links_to("coordinator")
        )

    def test_keeps_fastest_links(self):
        cluster = Cluster(name="mixed")
        cluster.add_node("a", T4)
        cluster.add_node("b", T4)
        cluster.add_node("c", T4)
        cluster.connect("a", "b", 1 * GBIT)
        cluster.connect("a", "c", 10 * GBIT)
        cluster.connect("b", "c", 10 * GBIT)
        cluster.connect("coordinator", "a", 10 * GBIT)
        cluster.connect("coordinator", "b", 10 * GBIT)
        pruned = prune_cluster(cluster, max_degree=1)
        assert pruned.has_link("a", "c")
        assert not pruned.has_link("a", "b")

    def test_original_not_modified(self):
        cluster = single_cluster_24()
        before = len(cluster.links)
        prune_cluster(cluster, max_degree=3)
        assert len(cluster.links) == before

    def test_invalid_degree(self):
        with pytest.raises(ValueError):
            prune_cluster(single_cluster_24(), max_degree=0)


class TestSwarmPlanner:
    def test_even_stages_on_70b(self):
        result = SwarmPlanner(single_cluster_24(), LLAMA_70B).plan()
        # Weakest GPU (T4) holds 4 layers -> 20 stages of 4 layers each,
        # matching the paper's Fig. 9b Swarm placement (all nodes hold 4).
        sizes = {s.num_layers for s in result.placement.assignments.values()}
        assert sizes == {4}
        result.placement.validate()
        assert result.max_throughput > 0

    def test_every_node_used(self):
        result = SwarmPlanner(single_cluster_24(), LLAMA_70B).plan()
        assert len(result.placement.used_nodes) == 24

    def test_capacity_balanced_assignment(self, small_cluster, tiny_model):
        result = SwarmPlanner(small_cluster, tiny_model).plan()
        result.placement.validate()
        # All 8 layers covered by 4 nodes.
        assert all(c >= 1 for c in result.placement.coverage())


class TestPetalsPlanner:
    def test_all_nodes_take_max_span(self):
        planner = PetalsPlanner(single_cluster_24(), LLAMA_70B)
        result = planner.plan()
        for node_id, stage in result.placement.assignments.items():
            assert stage.num_layers == planner.max_layers(node_id)

    def test_coverage_complete(self):
        result = PetalsPlanner(single_cluster_24(), LLAMA_70B).plan()
        assert min(result.placement.coverage()) >= 1

    def test_beats_swarm_on_single_cluster(self):
        # The paper's Fig. 9a ordering: Petals placement > Swarm placement.
        cluster = single_cluster_24()
        petals = PetalsPlanner(cluster, LLAMA_70B).plan()
        swarm = SwarmPlanner(cluster, LLAMA_70B).plan()
        assert petals.max_throughput > swarm.max_throughput


class TestSeparatePipelines:
    def test_llama30b_forms_three_pipeline_groups(self):
        result = SeparatePipelinesPlanner(single_cluster_24(), LLAMA_30B).plan()
        labels = set()
        for pipeline in result.pipelines:
            labels.add(pipeline[0].split("-")[0])
            # Pipelines are homogeneous for 30B.
            assert len({nid.split("-")[0] for nid in pipeline}) == 1
        assert labels == {"a100", "l4", "t4"}

    def test_llama70b_relaxes_weight_fraction(self):
        result = SeparatePipelinesPlanner(single_cluster_24(), LLAMA_70B).plan()
        # At half VRAM no type can serve 70B; SP packs more layers per node.
        result.placement.validate()
        assert result.pipelines  # still forms pipelines
        max_held = max(
            s.num_layers for s in result.placement.assignments.values()
        )
        assert max_held > 11  # beyond the half-VRAM A100 bound

    def test_sp_plus_uses_leftovers(self):
        cluster = single_cluster_24()
        sp = SeparatePipelinesPlanner(cluster, LLAMA_30B).plan()
        sp_plus = SeparatePipelinesPlanner(
            cluster, LLAMA_30B, include_mixed_pipeline=True
        ).plan()
        assert len(sp_plus.pipelines) >= len(sp.pipelines)
        assert sp_plus.max_throughput >= sp.max_throughput

    def test_pipelines_are_disjoint(self):
        result = SeparatePipelinesPlanner(single_cluster_24(), LLAMA_30B).plan()
        seen = set()
        for pipeline in result.pipelines:
            for node_id in pipeline:
                assert node_id not in seen
                seen.add(node_id)

    def test_raises_when_impossible(self, tiny_model):
        cluster = Cluster(name="single-t4")
        cluster.add_node("t4-0", T4)
        cluster.connect("coordinator", "t4-0", 10 * GBIT)
        # One T4 can hold the whole tiny model: should succeed, not raise.
        result = SeparatePipelinesPlanner(cluster, tiny_model).plan()
        assert result.pipelines == [["t4-0"]]


class TestHelixPlannerSmall:
    def test_formulation_size_is_linear(self, small_cluster, tiny_model):
        planner = HelixMilpPlanner(small_cluster, tiny_model, hints=None)
        formulation = planner.build_formulation()
        nodes = len(small_cluster)
        links = len(small_cluster.links)
        # Per Table 5: O(|C|) node vars + O(|E|) connection vars.
        assert formulation.problem.num_variables <= 2 * nodes + 4 * links + nodes * 8
        assert formulation.problem.num_constraints <= 3 * nodes + 4 * links + 2

    def test_plan_beats_or_matches_heuristics(self, small_cluster, tiny_model):
        helix = HelixMilpPlanner(
            small_cluster, tiny_model, time_limit=20, mip_rel_gap=0.02
        ).plan()
        swarm = SwarmPlanner(small_cluster, tiny_model).plan()
        petals = PetalsPlanner(small_cluster, tiny_model).plan()
        best_heuristic = max(swarm.max_throughput, petals.max_throughput)
        assert helix.max_throughput >= best_heuristic - 1e-6

    def test_respects_upper_bound(self, small_cluster, tiny_model):
        planner = HelixMilpPlanner(
            small_cluster, tiny_model, time_limit=20, mip_rel_gap=0.02
        )
        result = planner.plan()
        assert result.max_throughput <= planner.compute_upper_bound() + 1e-6

    def test_orchestrated_placement_valid(self, small_cluster, tiny_model):
        result = HelixMilpPlanner(
            small_cluster, tiny_model, time_limit=20, mip_rel_gap=0.02
        ).plan()
        bounds = {
            nid: HelixMilpPlanner(
                small_cluster, tiny_model
            ).max_layers(nid)
            for nid in small_cluster.node_ids
        }
        result.placement.validate(max_layers_per_node=bounds)

    def test_assignment_from_placement_is_feasible(self, small_cluster, tiny_model):
        planner = HelixMilpPlanner(small_cluster, tiny_model, hints=None)
        formulation = planner.build_formulation()
        hint = SwarmPlanner(small_cluster, tiny_model).plan().placement
        values = planner.assignment_from_placement(
            formulation, hint, small_cluster
        )
        violated = formulation.problem.check_feasible(values, tol=1e-4)
        assert violated == []

    def test_partial_inference_never_hurts(self, small_cluster, tiny_model):
        with_partial = HelixMilpPlanner(
            small_cluster, tiny_model, time_limit=15, mip_rel_gap=0.02,
            partial_inference=True,
        ).plan()
        without = HelixMilpPlanner(
            small_cluster, tiny_model, time_limit=15, mip_rel_gap=0.02,
            partial_inference=False,
        ).plan()
        assert with_partial.max_throughput >= without.max_throughput - 1e-6


class TestPlacementEvaluator:
    def test_explicit_cluster_is_not_silently_replaced(
        self, small_cluster, tiny_model
    ):
        # Cluster defines __len__, so an empty cluster is falsy; the
        # evaluator must still honor it instead of falling back to the
        # planner's full cluster and overvaluing the candidate.
        from repro.core.errors import ClusterError
        from repro.placement.petals import PetalsPlanner
        from repro.core.placement_types import ModelPlacement

        planner = PetalsPlanner(small_cluster, tiny_model)
        placement = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
        empty = Cluster(name="empty")
        with pytest.raises(ClusterError):
            planner.evaluate_placement(placement, empty)

    def test_placement_throughput_matches_fresh_flow_graph(
        self, small_cluster, tiny_model
    ):
        from repro.flow.graph import placement_max_flow
        from repro.core.placement_types import ModelPlacement
        from repro.placement.petals import PetalsPlanner

        planner = PetalsPlanner(small_cluster, tiny_model)
        candidates = [
            {"a100-0": (0, 8)},
            {"a100-0": (0, 4), "l4-0": (4, 8)},
            {"a100-0": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8), "t4-1": (0, 4)},
            {"a100-0": (0, 8)},
        ]
        for intervals in candidates:
            placement = ModelPlacement.from_intervals(8, intervals)
            assert planner.placement_throughput(placement) == pytest.approx(
                placement_max_flow(small_cluster, tiny_model, placement)
            )

    def test_evaluation_reads_the_cluster_as_it_is(self, small_cluster, tiny_model):
        # Each evaluation builds its own flow graph, so a link changed
        # between two evaluations of one placement shows in the second.
        from repro.core.placement_types import ModelPlacement
        from repro.flow.graph import FlowGraph
        from repro.placement.petals import PetalsPlanner

        planner = PetalsPlanner(small_cluster, tiny_model)
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "l4-0": (4, 8)}
        )
        before = planner.evaluate_placement(placement)
        small_cluster.set_link_bandwidth("a100-0", "l4-0", 1e3)
        after = planner.evaluate_placement(placement)
        assert after.max_flow < before.max_flow
        assert after == FlowGraph(small_cluster, tiny_model, placement).solve()

    def test_invalid_placement_scores_zero(self, small_cluster, tiny_model):
        from repro.core.placement_types import ModelPlacement
        from repro.placement.petals import PetalsPlanner

        planner = PetalsPlanner(small_cluster, tiny_model)
        no_first = ModelPlacement.from_intervals(8, {"a100-0": (1, 8)})
        assert planner.placement_throughput(no_first) == 0.0
