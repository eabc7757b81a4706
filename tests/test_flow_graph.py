"""Tests for the cluster graph abstraction (paper §4.3)."""

import random
from dataclasses import replace

import pytest

from repro.cluster import (
    COORDINATOR,
    Cluster,
    Profiler,
    geo_distributed_24,
    small_cluster_fig12,
    toy_cluster_fig2,
)
from repro.core.errors import ClusterError, PlacementError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph, connection_is_valid, placement_max_flow
from repro.models.specs import LLAMA_30B
from repro.scenarios.generator import generate_scenario
from repro.testkit.golden import MATRIX
from repro.testkit.harness import plan_scenario


@pytest.fixture()
def placement8():
    # n-chain placement over the tiny 8-layer model on the small cluster.
    return ModelPlacement.from_intervals(
        8, {"a100-0": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8), "t4-1": (0, 4)}
    )


class TestConnectionValidity:
    def test_coordinator_to_first_layer_holder(self, placement8):
        assert connection_is_valid(placement8, COORDINATOR, "a100-0")
        assert not connection_is_valid(placement8, COORDINATOR, "l4-0")

    def test_last_layer_holder_to_coordinator(self, placement8):
        assert connection_is_valid(placement8, "l4-0", COORDINATOR)
        assert not connection_is_valid(placement8, "a100-0", COORDINATOR)

    def test_exact_boundary_connection(self, placement8):
        assert connection_is_valid(placement8, "a100-0", "l4-0")
        assert not connection_is_valid(placement8, "l4-0", "a100-0")

    def test_partial_inference_overlap(self):
        placement = ModelPlacement.from_intervals(
            8, {"n0": (0, 5), "n1": (3, 8)}
        )
        # e_0 = 5 falls inside [3, 8): valid only with partial inference.
        assert connection_is_valid(placement, "n0", "n1", partial_inference=True)
        assert not connection_is_valid(placement, "n0", "n1", partial_inference=False)

    def test_no_backward_connections(self):
        placement = ModelPlacement.from_intervals(
            8, {"n0": (0, 5), "n1": (3, 8)}
        )
        assert not connection_is_valid(placement, "n1", "n0", partial_inference=True)

    def test_equal_intervals_invalid(self):
        placement = ModelPlacement.from_intervals(8, {"n0": (0, 8), "n1": (0, 8)})
        # e_0 = 8 is not < e_1 = 8: data-parallel replicas don't chain.
        assert not connection_is_valid(placement, "n0", "n1")

    def test_unplaced_node_invalid(self, placement8):
        assert not connection_is_valid(placement8, "ghost", "l4-0")
        assert not connection_is_valid(placement8, COORDINATOR, "ghost")


class TestFlowGraph:
    def test_solution_structure(self, small_cluster, tiny_model, placement8):
        graph = FlowGraph(small_cluster, tiny_model, placement8)
        solution = graph.solve()
        assert solution.max_flow > 0
        # Source flow equals sink flow equals max flow.
        out = sum(
            f for (u, _), f in solution.connection_flows.items()
            if u == COORDINATOR
        )
        into = sum(
            f for (_, v), f in solution.connection_flows.items()
            if v == COORDINATOR
        )
        assert out == pytest.approx(solution.max_flow)
        assert into == pytest.approx(solution.max_flow)

    def test_node_flow_within_capacity(self, small_cluster, tiny_model, placement8):
        solution = FlowGraph(small_cluster, tiny_model, placement8).solve()
        for node_id, flow in solution.node_flows.items():
            assert flow <= solution.node_capacities[node_id] + 1e-6
            assert 0.0 <= solution.node_utilization(node_id) <= 1.0 + 1e-9

    def test_outgoing_flows_filter(self, small_cluster, tiny_model, placement8):
        solution = FlowGraph(small_cluster, tiny_model, placement8).solve()
        for dst, flow in solution.outgoing_flows(COORDINATOR).items():
            assert flow > 0
            assert dst in ("a100-0", "t4-1")

    def test_missing_first_layer_raises(self, small_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(8, {"a100-0": (1, 8)})
        with pytest.raises(PlacementError, match="first layer"):
            FlowGraph(small_cluster, tiny_model, placement)

    def test_missing_last_layer_raises(self, small_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(8, {"a100-0": (0, 7)})
        with pytest.raises(PlacementError, match="last layer"):
            FlowGraph(small_cluster, tiny_model, placement)

    def test_single_node_placement(self, small_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
        solution = FlowGraph(small_cluster, tiny_model, placement).solve()
        assert solution.max_flow > 0
        assert set(solution.connection_flows) >= {
            (COORDINATOR, "a100-0"),
            ("a100-0", COORDINATOR),
        }

    def test_partial_inference_flag_changes_edges(self, small_cluster, tiny_model):
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 5), "l4-0": (3, 8)}
        )
        with_partial = FlowGraph(
            small_cluster, tiny_model, placement, partial_inference=True
        )
        assert ("a100-0", "l4-0") in with_partial.valid_connections()
        with pytest.raises(PlacementError):
            # Without partial inference there is no path source -> sink, but
            # graph construction itself succeeds; max flow is zero.
            without = FlowGraph(
                small_cluster, tiny_model, placement, partial_inference=False
            )
            assert ("a100-0", "l4-0") not in without.valid_connections()
            if without.solve().max_flow == 0:
                raise PlacementError("no path")

    def test_replication_increases_flow(self, small_cluster, tiny_model):
        solo = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "l4-0": (4, 8)}
        )
        replicated = ModelPlacement.from_intervals(
            8,
            {"a100-0": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8), "t4-1": (0, 4)},
        )
        assert placement_max_flow(
            small_cluster, tiny_model, replicated
        ) >= placement_max_flow(small_cluster, tiny_model, solo)

    def test_network_bound_placement(self, two_region_cluster, tiny_model):
        # The slow 100 Mb/s inter-region link bounds any A100 -> T4 handoff:
        # its activation capacity is tiny compared to node compute.
        placement = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 4), "t4-0": (4, 8), "t4-1": (4, 8)}
        )
        profiler = Profiler()
        graph = FlowGraph(two_region_cluster, tiny_model, placement, profiler)
        solution = graph.solve()
        link_capacity = sum(
            cap
            for (u, v), cap in solution.connection_capacities.items()
            if u == "a100-0" and v.startswith("t4")
        )
        assert solution.max_flow <= link_capacity + 1e-6

    def test_fig2_toy_cluster_flow(self, tiny_model):
        cluster = toy_cluster_fig2()
        placement = ModelPlacement.from_intervals(
            3 if tiny_model.num_layers < 3 else 8,
            {"a100": (0, 6), "t4-1": (0, 6), "t4-2": (6, 8)},
        )
        solution = FlowGraph(cluster, tiny_model, placement).solve()
        # Only a100 has a coordinator ingress in Fig. 2's directed topology.
        entries = [
            u for (u, v), f in solution.connection_flows.items()
            if u == COORDINATOR and f > 0
        ]
        assert entries == [COORDINATOR] * len(entries)
        assert solution.max_flow > 0


class TestReevaluate:
    """The incremental fast path must be indistinguishable from rebuilding."""

    CANDIDATES = [
        {"a100-0": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8), "t4-1": (0, 4)},
        {"a100-0": (0, 8), "l4-0": (4, 8), "t4-0": (4, 8), "t4-1": (0, 4)},
        {"a100-0": (0, 8)},
        {"a100-0": (0, 5), "l4-0": (3, 8), "t4-0": (4, 8), "t4-1": (0, 4)},
        {"a100-0": (0, 4), "l4-0": (4, 8), "t4-0": (4, 8), "t4-1": (0, 4)},
    ]

    def test_matches_fresh_build_over_a_candidate_stream(
        self, small_cluster, tiny_model
    ):
        placements = [
            ModelPlacement.from_intervals(8, intervals)
            for intervals in self.CANDIDATES
        ]
        profiler = Profiler()
        evaluator = FlowGraph(small_cluster, tiny_model, placements[0], profiler)
        for placement in placements:
            incremental = evaluator.reevaluate(placement)
            fresh = FlowGraph(small_cluster, tiny_model, placement, profiler).solve()
            assert incremental.max_flow == pytest.approx(fresh.max_flow)
            assert incremental.node_capacities == pytest.approx(fresh.node_capacities)
            assert incremental.connection_capacities == pytest.approx(
                fresh.connection_capacities
            )
            assert incremental.node_flows == pytest.approx(fresh.node_flows)
            assert set(incremental.connection_flows) == set(fresh.connection_flows)
            for key, flow in fresh.connection_flows.items():
                assert incremental.connection_flows[key] == pytest.approx(flow)

    def test_valid_connections_track_the_placement(self, small_cluster, tiny_model):
        chain = ModelPlacement.from_intervals(8, {"a100-0": (0, 4), "l4-0": (4, 8)})
        solo = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
        evaluator = FlowGraph(small_cluster, tiny_model, chain)
        assert ("a100-0", "l4-0") in evaluator.valid_connections()
        evaluator.reevaluate(solo)
        assert ("a100-0", "l4-0") not in evaluator.valid_connections()
        assert (COORDINATOR, "a100-0") in evaluator.valid_connections()

    def test_unchanged_placement_reuses_cached_solution(
        self, small_cluster, tiny_model
    ):
        placement = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
        identical = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
        evaluator = FlowGraph(small_cluster, tiny_model, placement)
        first = evaluator.solve()
        assert evaluator.reevaluate(identical) is first

    def test_invalid_placement_raises_and_evaluator_recovers(
        self, small_cluster, tiny_model
    ):
        good = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
        no_first = ModelPlacement.from_intervals(8, {"a100-0": (1, 8)})
        evaluator = FlowGraph(small_cluster, tiny_model, good)
        expected = evaluator.solve().max_flow
        with pytest.raises(PlacementError, match="first layer"):
            evaluator.reevaluate(no_first)
        assert evaluator.reevaluate(good).max_flow == pytest.approx(expected)

    def test_unknown_node_rejected(self, small_cluster, tiny_model):
        good = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
        ghost = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 8), "ghost": (0, 8)}
        )
        evaluator = FlowGraph(small_cluster, tiny_model, good)
        with pytest.raises(ClusterError, match="unknown node"):
            evaluator.reevaluate(ghost)

    def test_partial_inference_flag_respected_incrementally(
        self, small_cluster, tiny_model
    ):
        overlap = ModelPlacement.from_intervals(
            8, {"a100-0": (0, 5), "l4-0": (3, 8)}
        )
        strict = FlowGraph(
            small_cluster, tiny_model,
            ModelPlacement.from_intervals(8, {"a100-0": (0, 8)}),
            partial_inference=False,
        )
        strict.reevaluate(overlap)
        assert ("a100-0", "l4-0") not in strict.valid_connections()

    def test_num_layers_change_revalidates_all_links(self, small_cluster, tiny_model):
        # Sink-side validity depends on num_layers, so an unchanged interval
        # can still gain or lose its link to the coordinator.
        short = ModelPlacement.from_intervals(8, {"a100-0": (0, 8)})
        longer = ModelPlacement.from_intervals(
            16, {"a100-0": (0, 8), "l4-0": (8, 16)}
        )
        evaluator = FlowGraph(small_cluster, tiny_model, short)
        evaluator.solve()
        incremental = evaluator.reevaluate(longer)
        fresh = FlowGraph(small_cluster, tiny_model, longer).solve()
        assert incremental.max_flow == pytest.approx(fresh.max_flow)
        assert set(incremental.connection_flows) == set(fresh.connection_flows)
        # a100-0 no longer holds the last layer: no edge to the sink.
        assert ("a100-0", COORDINATOR) not in incremental.connection_flows
        # And back again.
        back = evaluator.reevaluate(short)
        assert ("a100-0", COORDINATOR) in back.connection_flows
        assert back.max_flow == pytest.approx(
            FlowGraph(small_cluster, tiny_model, short).solve().max_flow
        )


def _random_placement(rng, node_ids, num_layers):
    """A seeded placement with pinned first- and last-layer holders."""
    intervals = {}
    for nid in node_ids:
        if rng.random() < 0.3:
            continue
        start = rng.randrange(num_layers)
        intervals[nid] = (start, rng.randint(start + 1, num_layers))
    first, last = rng.sample(node_ids, 2)
    intervals[first] = (0, rng.randint(1, num_layers))
    intervals[last] = (rng.randrange(num_layers), num_layers)
    return ModelPlacement.from_intervals(num_layers, intervals)


@pytest.mark.parametrize(
    "preset", [small_cluster_fig12, geo_distributed_24], ids=lambda p: p.__name__
)
class TestFlatBuild:
    """The flat build agrees with the profiler and the validity rule."""

    def test_link_capacities_match_the_profiler(self, preset):
        cluster = preset()
        profiler = Profiler()
        placement = ModelPlacement.from_intervals(
            LLAMA_30B.num_layers, {cluster.node_ids[0]: (0, LLAMA_30B.num_layers)}
        )
        graph = FlowGraph(cluster, LLAMA_30B, placement, profiler)
        assert set(graph._link_caps) == set(cluster.links)
        for (src, dst), link in cluster.links.items():
            carries_activations = COORDINATOR not in (src, dst)
            assert graph._link_caps[(src, dst)] == profiler.link_token_capacity(
                link, LLAMA_30B, carries_activations
            )

    @pytest.mark.parametrize("partial", [True, False])
    def test_valid_connections_follow_the_rule(self, preset, partial, tiny_model):
        cluster = preset()
        rng = random.Random(f"flat-build:{preset.__name__}:{partial}")
        num_layers = tiny_model.num_layers
        evaluator = None
        for _ in range(25):
            placement = _random_placement(rng, cluster.node_ids, num_layers)
            expected = {
                key for key in cluster.links
                if connection_is_valid(placement, *key, partial)
            }
            fresh = FlowGraph(
                cluster, tiny_model, placement, partial_inference=partial
            )
            assert set(fresh.valid_connections()) == expected
            if evaluator is None:
                evaluator = fresh
            else:
                evaluator.reevaluate(placement)
                assert set(evaluator.valid_connections()) == expected


# ----------------------------------------------------------------------
# Metamorphic relation: the flow layer is linear in its capacities
# ----------------------------------------------------------------------
def _doubled(cluster):
    """``cluster`` with every GPU's FLOPs and memory bandwidth and every
    link's bandwidth doubled."""
    out = Cluster(name=cluster.name)
    for node in cluster.nodes.values():
        gpu = replace(
            node.gpu,
            fp16_flops=2 * node.gpu.fp16_flops,
            mem_bandwidth=2 * node.gpu.mem_bandwidth,
        )
        out.add_node(node.node_id, gpu, node.num_gpus, node.region)
    for (src, dst), link in cluster.links.items():
        out.connect(src, dst, 2 * link.bandwidth, link.latency,
                    bidirectional=False)
    return out


@pytest.mark.parametrize(
    "family,seed", MATRIX, ids=[f"{family}-{seed}" for family, seed in MATRIX]
)
def test_doubling_every_capacity_doubles_the_max_flow(family, seed):
    """Twice the FLOPs and memory bandwidth with half the batch overhead
    halve every batch time, so every ``T_j`` doubles, as does every link
    capacity at twice the bandwidth; the max flow of the placement the
    golden case serves must then double exactly."""
    scenario = generate_scenario(family, seed, "smoke")
    _, result = plan_scenario(scenario)
    cluster = scenario.cluster
    if cluster.down_node_ids:
        cluster = cluster.subcluster()
    profiler = Profiler()
    base = FlowGraph(cluster, scenario.model, result.placement, profiler)
    doubled = FlowGraph(
        _doubled(cluster), scenario.model, result.placement,
        replace(profiler, batch_overhead=profiler.batch_overhead / 2),
    )
    assert base.solve().max_flow == result.max_throughput
    assert doubled.solve().max_flow == 2 * result.max_throughput
