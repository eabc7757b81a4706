"""Tests for cluster construction, presets, and the profiler."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import (
    A100_40G,
    COORDINATOR,
    Cluster,
    ComputeNode,
    GPU_CATALOG,
    L4,
    Link,
    Profiler,
    T4,
    V100,
    geo_distributed_24,
    get_gpu,
    high_heterogeneity_42,
    single_cluster_24,
    small_cluster_fig12,
    toy_cluster_fig1,
    toy_cluster_fig2,
)
from repro.core.errors import ClusterError
from repro.core.units import GBIT, MBIT
from repro.models.specs import LLAMA_30B, LLAMA_70B


class TestGPUCatalog:
    def test_table3_values(self):
        assert GPU_CATALOG["H100"].datasheet_fp16_tflops == 1979
        assert GPU_CATALOG["A100-40G"].vram_bytes == 40e9
        assert GPU_CATALOG["L4"].mem_bandwidth == 300e9
        assert GPU_CATALOG["T4"].power_watts == 70

    def test_lookup_error_lists_names(self):
        with pytest.raises(KeyError, match="known GPUs"):
            get_gpu("B200")

    def test_compute_ordering_matches_paper(self):
        # Paper Fig. 1: compute capacity order A100 > L4 > T4.
        assert A100_40G.fp16_flops > L4.fp16_flops > T4.fp16_flops


class TestComputeNode:
    def test_multi_gpu_aggregation(self):
        node = ComputeNode("n0", T4, num_gpus=4)
        assert node.fp16_flops == 4 * T4.fp16_flops
        assert node.vram_bytes == 4 * T4.vram_bytes
        assert node.gpu_label == "4xT4"

    def test_reserved_id_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            ComputeNode(COORDINATOR, T4)

    def test_positive_gpu_count(self):
        with pytest.raises(ValueError, match="num_gpus"):
            ComputeNode("n0", T4, num_gpus=0)


class TestLink:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Link("a", "a", 1e9)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="bandwidth"):
            Link("a", "b", 0.0)

    @pytest.mark.parametrize("bandwidth,latency", [
        (float("nan"), 0.0),
        (float("inf"), 0.0),
        (1e9, float("nan")),
        (1e9, float("inf")),
        (1e9, -1.0),
    ])
    def test_non_finite_or_negative_rejected(self, bandwidth, latency):
        with pytest.raises(ValueError, match="finite"):
            Link("a", "b", bandwidth, latency)
        cluster = Cluster()
        cluster.add_node("n0", T4)
        cluster.add_node("n1", T4)
        with pytest.raises(ValueError, match="finite"):
            cluster.connect("n0", "n1", bandwidth, latency)
        if latency == 0.0:
            # A bandwidth update keeps the link's latency: only a bad
            # bandwidth reaches it.
            cluster.connect("n0", "n1", 1e9, 0.001)
            with pytest.raises(ValueError, match="finite"):
                cluster.set_link_bandwidth("n0", "n1", bandwidth)
            assert cluster.link("n0", "n1").bandwidth == 1e9


class TestClusterBuilder:
    def test_duplicate_node_rejected(self):
        cluster = Cluster()
        cluster.add_node("n0", T4)
        with pytest.raises(ClusterError, match="duplicate"):
            cluster.add_node("n0", L4)

    def test_link_to_unknown_node_rejected(self):
        cluster = Cluster()
        cluster.add_node("n0", T4)
        with pytest.raises(ClusterError, match="not a known node"):
            cluster.connect("n0", "ghost", 1e9)

    def test_bidirectional_connect(self):
        cluster = Cluster()
        cluster.add_node("a", T4)
        cluster.add_node("b", T4)
        cluster.connect("a", "b", 1e9)
        assert cluster.has_link("a", "b") and cluster.has_link("b", "a")

    def test_unidirectional_connect(self):
        cluster = Cluster()
        cluster.add_node("a", T4)
        cluster.add_node("b", T4)
        cluster.connect("a", "b", 1e9, bidirectional=False)
        assert cluster.has_link("a", "b") and not cluster.has_link("b", "a")

    def test_node_availability_roundtrip(self, small_cluster):
        assert small_cluster.node_available("t4-0")
        small_cluster.set_node_available("t4-0", False)
        assert not small_cluster.node_available("t4-0")
        assert small_cluster.down_node_ids == ["t4-0"]
        assert "t4-0" not in small_cluster.available_node_ids
        small_cluster.validate()  # down nodes are still valid topology
        small_cluster.set_node_available("t4-0", True)
        assert small_cluster.available_node_ids == small_cluster.node_ids

    def test_availability_unknown_node_raises(self, small_cluster):
        with pytest.raises(ClusterError, match="unknown node"):
            small_cluster.set_node_available("ghost", False)
        with pytest.raises(ClusterError, match="unknown node"):
            small_cluster.node_available("ghost")

    def test_subcluster_defaults_to_available(self, small_cluster):
        small_cluster.set_node_available("a100-0", False)
        sub = small_cluster.subcluster()
        assert sorted(sub.node_ids) == ["l4-0", "t4-0", "t4-1"]
        assert sub.node_available("l4-0")
        # Links among kept nodes and their coordinator links survive.
        assert sub.has_link("l4-0", "t4-0")
        assert sub.has_link("coordinator", "t4-1")
        assert not any("a100-0" in key for key in sub.links)
        sub.validate()

    def test_subcluster_unknown_node_raises(self, small_cluster):
        with pytest.raises(ClusterError, match="unknown nodes"):
            small_cluster.subcluster(["ghost"])

    def test_set_link_bandwidth_swaps_link(self, small_cluster):
        original = small_cluster.link("a100-0", "l4-0")
        updated = small_cluster.set_link_bandwidth("a100-0", "l4-0", 1e6)
        assert updated.bandwidth == 1e6
        assert updated.latency == original.latency
        assert small_cluster.link("a100-0", "l4-0") is updated
        # The reverse direction is untouched.
        assert small_cluster.link("l4-0", "a100-0").bandwidth == original.bandwidth

    def test_validate_requires_coordinator_links(self):
        cluster = Cluster()
        cluster.add_node("a", T4)
        cluster.add_node("b", T4)
        cluster.connect("a", "b", 1e9)
        with pytest.raises(ClusterError, match="coordinator"):
            cluster.validate()

    def test_validate_empty_cluster(self):
        with pytest.raises(ClusterError, match="no compute nodes"):
            Cluster().validate()

    def test_region_helpers(self, small_cluster):
        assert small_cluster.regions() == ["r0"]
        assert sum(node.region == "r0" for node in small_cluster) == 4

    def test_container_protocol(self, small_cluster):
        assert len(small_cluster) == 4
        assert "a100-0" in small_cluster
        assert "ghost" not in small_cluster
        assert {n.node_id for n in small_cluster} == set(small_cluster.node_ids)


class TestPresets:
    def test_single_cluster_composition(self):
        cluster = single_cluster_24()
        counts = cluster.gpu_type_counts()
        assert counts == {"A100-40G": 4, "L4": 8, "T4": 12}
        # Full mesh among 24 nodes plus coordinator links, both directions.
        assert len(cluster.links) == 24 * 23 + 2 * 24

    def test_geo_distributed_slow_interregion_links(self):
        cluster = geo_distributed_24()
        fast = cluster.link("a100-0", "a100-1")
        slow = cluster.link("a100-0", "l4a-0")
        assert fast.bandwidth == 10 * GBIT
        assert slow.bandwidth == 100 * MBIT
        assert slow.latency == pytest.approx(0.050)

    def test_geo_distributed_regions(self):
        cluster = geo_distributed_24()
        assert len(cluster.regions()) == 3
        assert sum(node.region == "region-1" for node in cluster) == 10

    def test_high_heterogeneity_composition(self):
        cluster = high_heterogeneity_42()
        counts = cluster.gpu_type_counts()
        assert len(cluster) == 42
        assert counts["2xL4"] == 4 and counts["4xT4"] == 4 and counts["V100"] == 6

    def test_toy_clusters_validate(self):
        for factory in (toy_cluster_fig1, toy_cluster_fig2, small_cluster_fig12):
            cluster = factory()
            cluster.validate()

    def test_fig2_directed_topology(self):
        cluster = toy_cluster_fig2()
        assert cluster.has_link(COORDINATOR, "a100")
        assert not cluster.has_link("a100", COORDINATOR)
        assert cluster.link("t4-1", "t4-2").bandwidth == 60 * MBIT


class TestProfiler:
    def test_max_layers_match_paper_case_study(self, profiler):
        cluster = single_cluster_24()
        assert profiler.max_layers(cluster.node("t4-0"), LLAMA_70B) == 4
        assert profiler.max_layers(cluster.node("l4-0"), LLAMA_70B) == 7
        assert profiler.max_layers(cluster.node("a100-0"), LLAMA_70B) == 11

    def test_throughput_decreases_with_layers(self, profiler):
        node = single_cluster_24().node("a100-0")
        rates = [profiler.throughput(node, LLAMA_70B, j) for j in range(1, 12)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_per_layer_rate_ordering(self, profiler):
        cluster = single_cluster_24()
        a100 = profiler.throughput(cluster.node("a100-0"), LLAMA_70B, 1)
        l4 = profiler.throughput(cluster.node("l4-0"), LLAMA_70B, 1)
        t4 = profiler.throughput(cluster.node("t4-0"), LLAMA_70B, 1)
        assert a100 > l4 > t4

    def test_node_profile_table(self, profiler):
        # A node's profile is its throughput at every layer count it can
        # hold, each entry computed from the batch time at the reference
        # batch; fewer than one layer has no entry.
        node = single_cluster_24().node("t4-0")
        assert profiler.max_layers(node, LLAMA_70B) == 4
        batch = float(profiler.reference_batch)
        table = [profiler.throughput(node, LLAMA_70B, j) for j in range(1, 5)]
        assert table == [
            batch / profiler.batch_time(node, LLAMA_70B, batch * j, j)
            for j in range(1, 5)
        ]
        with pytest.raises(ValueError):
            profiler.throughput(node, LLAMA_70B, 0)

    def test_batch_time_components(self, profiler):
        node = single_cluster_24().node("t4-0")
        base = profiler.batch_time(node, LLAMA_70B, 0.0, 0)
        assert base == pytest.approx(profiler.batch_overhead)
        more = profiler.batch_time(node, LLAMA_70B, 1000.0, 4)
        assert more > base

    def test_batch_time_rejects_negative_work(self, profiler):
        node = single_cluster_24().node("t4-0")
        with pytest.raises(ValueError):
            profiler.batch_time(node, LLAMA_70B, -1.0, 4)

    def test_link_capacity_token_vs_activation(self, profiler):
        link = Link("a", "b", bandwidth=1e9)
        token_rate = profiler.link_token_capacity(link, LLAMA_70B, False)
        act_rate = profiler.link_token_capacity(link, LLAMA_70B, True)
        assert token_rate == pytest.approx(1e9 / 4)
        assert act_rate == pytest.approx(1e9 / 16384)

    def test_kv_capacity_positive_for_paper_layouts(self, profiler):
        cluster = single_cluster_24()
        assert profiler.kv_capacity(cluster.node("t4-0"), LLAMA_70B, 4) > 0
        assert profiler.kv_capacity(cluster.node("a100-0"), LLAMA_70B, 11) > 0

    @given(j=st.integers(min_value=1, max_value=11))
    def test_throughput_times_layers_bounded_by_compute(self, j):
        profiler = Profiler()
        node = ComputeNode("n", A100_40G)
        rate = profiler.throughput(node, LLAMA_70B, j)
        # j layers at `rate` tokens/s cannot exceed the pure compute rate.
        assert rate * j <= profiler.compute_rate(node, LLAMA_70B) + 1e-6

    def test_multi_gpu_node_outperforms_single(self, profiler):
        single = ComputeNode("s", T4)
        double = ComputeNode("d", T4, num_gpus=2)
        assert profiler.throughput(double, LLAMA_70B, 4) > profiler.throughput(
            single, LLAMA_70B, 4
        )
        assert profiler.max_layers(double, LLAMA_70B) > profiler.max_layers(
            single, LLAMA_70B
        )

    @pytest.mark.parametrize("knob,value", [
        ("mfu", 0.0),
        ("mfu", -0.4),
        ("mfu", float("nan")),
        ("mfu", 1.5),
        ("bandwidth_efficiency", 0.0),
        ("bandwidth_efficiency", float("inf")),
        ("weight_fraction", 2.0),
        ("weight_fraction", 0.0),
        ("batch_overhead", -0.001),
        ("batch_overhead", float("nan")),
        ("reference_batch", 0),
        ("kv_capacity_scale", 0.0),
        ("kv_capacity_scale", float("nan")),
        ("kv_capacity_scale", float("inf")),
    ])
    def test_nonsense_knobs_rejected(self, knob, value):
        # Zero rates used to raise ZeroDivisionError inside planning, a NaN
        # KV scale failed converting NaN to int, and the rest served.
        with pytest.raises(ValueError, match=knob):
            Profiler(**{knob: value})

    def test_boundary_knobs_accepted(self):
        profiler = Profiler(
            mfu=1.0, bandwidth_efficiency=1.0, weight_fraction=1.0,
            batch_overhead=0.0, reference_batch=1, kv_capacity_scale=4.0,
        )
        node = ComputeNode("n", T4)
        assert profiler.batch_time(node, LLAMA_70B, 0.0, 0) == 0.0
