"""Scenario generator tests: determinism, family shape, seed plumbing."""

import random

import pytest

from repro.cluster.node import COORDINATOR
from repro.online.events import ChurnConfig, random_churn
from repro.scenarios import (
    ALL_FAMILIES,
    SCENARIO_FAMILIES,
    WORKLOAD_KINDS,
    generate_scenario,
    make_workload,
    scenario_matrix,
)
from repro.trace import (
    AzureTraceConfig,
    diurnal_arrivals,
    poisson_arrivals,
    synthesize_azure_trace,
)


def _scenario_digest(scenario):
    """Everything observable about a generated (unrun) scenario."""
    return (
        scenario.cluster.describe(),
        sorted(
            (src, dst, link.bandwidth, link.latency)
            for (src, dst), link in scenario.cluster.links.items()
        ),
        scenario.model,
        [
            (r.request_id, r.input_len, r.output_len, r.arrival_time)
            for r in scenario.requests
        ],
        scenario.workload,
        scenario.churn,
        scenario.planner_method,
        scenario.scheduler_method,
    )


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("family", SCENARIO_FAMILIES)
    def test_same_address_same_scenario(self, family):
        a = generate_scenario(family, seed=3)
        b = generate_scenario(family, seed=3)
        assert _scenario_digest(a) == _scenario_digest(b)

    def test_different_seeds_differ(self):
        a = generate_scenario("full_mesh", seed=0)
        b = generate_scenario("full_mesh", seed=1)
        assert _scenario_digest(a) != _scenario_digest(b)

    def test_generation_ignores_global_random_state(self):
        random.seed(111)
        a = generate_scenario("geo_regions", seed=5)
        random.seed(999)
        b = generate_scenario("geo_regions", seed=5)
        assert _scenario_digest(a) == _scenario_digest(b)

    def test_sizes_are_distinct_tiers(self):
        smoke = generate_scenario("full_mesh", seed=2, size="smoke")
        full = generate_scenario("full_mesh", seed=2, size="full")
        assert smoke.size == "smoke" and full.size == "full"
        assert _scenario_digest(smoke) != _scenario_digest(full)


class TestFamilies:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            generate_scenario("ring", seed=0)

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="unknown size"):
            generate_scenario("full_mesh", seed=0, size="huge")

    @pytest.mark.parametrize("seed", range(4))
    def test_full_mesh_is_complete(self, seed):
        scenario = generate_scenario("full_mesh", seed)
        ids = scenario.cluster.node_ids
        for a in ids:
            for b in ids:
                if a != b:
                    assert scenario.cluster.has_link(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_geo_regions_slow_cross_fast_local(self, seed):
        scenario = generate_scenario("geo_regions", seed)
        cluster = scenario.cluster
        assert len(cluster.regions()) >= 2
        slowest_intra = min(
            link.bandwidth
            for (src, dst), link in cluster.links.items()
            if COORDINATOR not in (src, dst)
            and cluster.node(src).region == cluster.node(dst).region
        )
        fastest_inter = max(
            link.bandwidth
            for (src, dst), link in cluster.links.items()
            if COORDINATOR not in (src, dst)
            and cluster.node(src).region != cluster.node(dst).region
        )
        assert fastest_inter < slowest_intra

    @pytest.mark.parametrize("seed", range(4))
    def test_star_has_no_leaf_to_leaf_links(self, seed):
        scenario = generate_scenario("star", seed)
        cluster = scenario.cluster
        degree = {
            nid: sum(
                1 for (src, dst) in cluster.links
                if src == nid and dst != COORDINATOR
            )
            for nid in cluster.node_ids
        }
        hub = max(degree, key=degree.get)
        for (src, dst) in cluster.links:
            if COORDINATOR in (src, dst):
                continue
            assert hub in (src, dst), f"leaf-leaf link {src}->{dst}"

    @pytest.mark.parametrize("seed", range(4))
    def test_sparse_partitioned_has_two_groups_and_bridges(self, seed):
        scenario = generate_scenario("sparse_partitioned", seed)
        cluster = scenario.cluster
        assert set(cluster.regions()) == {"region-0", "region-1"}
        bridges = [
            (src, dst)
            for (src, dst) in cluster.links
            if COORDINATOR not in (src, dst)
            and cluster.node(src).region != cluster.node(dst).region
        ]
        assert bridges, "partitions must be joined by at least one bridge"

    def test_every_generated_cluster_validates(self):
        for family, seed, size in scenario_matrix(seeds=range(3)):
            generate_scenario(family, seed, size).cluster.validate()

    def test_repro_command_carries_address(self):
        scenario = generate_scenario("star", seed=17)
        command = scenario.repro_command()
        assert "repro.testkit" in command
        assert "star 17" in command
        assert "--size smoke" in command

    def test_matrix_enumerates_family_cross_seeds(self):
        matrix = scenario_matrix(seeds=range(3))
        assert len(matrix) == 3 * len(SCENARIO_FAMILIES)
        assert len(set(matrix)) == len(matrix)


def test_generators_draw_every_exported_event_kind():
    """Every concrete event kind ``repro.online`` exports is built by some
    generated scenario; a kind no generator draws is not kept."""
    import repro.online as online
    from repro.online import ClusterEvent

    exported = {
        obj for obj in map(online.__dict__.get, online.__all__)
        if isinstance(obj, type) and issubclass(obj, ClusterEvent)
        and obj is not ClusterEvent
    }
    drawn = {
        type(event)
        for family in ALL_FAMILIES
        for size in ("smoke", "full")
        for seed in range(25)
        for event in generate_scenario(family, seed, size).churn
    }
    assert sorted(kind.__name__ for kind in exported - drawn) == []


class TestWorkloads:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            make_workload(random.Random(0), "bursty", 10, 10.0)

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_kinds_produce_stamped_traces(self, kind):
        requests = make_workload(random.Random(7), kind, 25, 20.0)
        assert len(requests) == 25
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)
        if kind == "offline":
            assert all(t == 0.0 for t in arrivals)
        else:
            assert arrivals[-1] > 0.0

    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_workloads_reproducible_per_rng_seed(self, kind):
        a = make_workload(random.Random(3), kind, 15, 12.0)
        b = make_workload(random.Random(3), kind, 15, 12.0)
        assert a == b


class TestSeedPlumbing:
    """Every stochastic entry point is an explicit function of its seed."""

    def _requests(self):
        return synthesize_azure_trace(AzureTraceConfig(num_requests=30, seed=0))

    def test_poisson_rng_equivalent_to_seed(self):
        requests = self._requests()
        by_seed = poisson_arrivals(requests, rate=2.0, seed=5)
        by_rng = poisson_arrivals(requests, rate=2.0, rng=random.Random(5))
        assert by_seed == by_rng

    def test_diurnal_rng_equivalent_to_seed(self):
        requests = self._requests()
        by_seed = diurnal_arrivals(requests, mean_rate=2.0, seed=5)
        by_rng = diurnal_arrivals(
            requests, mean_rate=2.0, rng=random.Random(5)
        )
        assert by_seed == by_rng

    def test_arrivals_ignore_global_random_state(self):
        requests = self._requests()
        random.seed(1)
        a = poisson_arrivals(requests, rate=3.0, seed=9)
        random.seed(2)
        b = poisson_arrivals(requests, rate=3.0, seed=9)
        assert a == b

    def test_azure_trace_ignores_global_random_state(self):
        random.seed(1)
        a = synthesize_azure_trace(AzureTraceConfig(num_requests=40, seed=8))
        random.seed(2)
        b = synthesize_azure_trace(AzureTraceConfig(num_requests=40, seed=8))
        assert a == b

    def test_azure_trace_accepts_explicit_rng(self):
        config = AzureTraceConfig(num_requests=40, seed=8)
        by_config = synthesize_azure_trace(config)
        by_rng = synthesize_azure_trace(config, rng=random.Random(8))
        assert by_config == by_rng

    def test_random_churn_rng_equivalent_to_seed(self):
        config = ChurnConfig(
            duration=60.0, mean_time_to_failure=10.0,
            mean_time_to_recovery=5.0,
        )
        nodes = ["n0", "n1", "n2"]
        by_seed = random_churn(nodes, config, seed=4)
        by_rng = random_churn(nodes, config, rng=random.Random(4))
        assert by_seed == by_rng

    def test_random_churn_ignores_global_random_state(self):
        config = ChurnConfig(
            duration=60.0, mean_time_to_failure=10.0,
            mean_time_to_recovery=5.0,
        )
        random.seed(1)
        a = random_churn(["n0", "n1"], config, seed=6)
        random.seed(2)
        b = random_churn(["n0", "n1"], config, seed=6)
        assert a == b
