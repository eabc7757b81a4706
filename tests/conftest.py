"""Shared fixtures: a tiny model and small clusters for fast tests."""

from __future__ import annotations

import pytest

from repro.bench.runner import RunSpec
from repro.cluster import Cluster, Profiler, A100_40G, L4, T4
from repro.core.units import GBIT, MBIT
from repro.models.specs import ModelSpec


@pytest.fixture(scope="session")
def tiny_model() -> ModelSpec:
    """An 8-layer toy Transformer that every test GPU can hold chunks of."""
    return ModelSpec(
        name="tiny-8L",
        num_layers=8,
        hidden_size=1024,
        num_heads=8,
        num_kv_heads=8,
        intermediate_size=2816,
        nominal_params=8 * (4 * 1024**2 + 3 * 1024 * 2816),
    )


@pytest.fixture()
def profiler() -> Profiler:
    return Profiler()


@pytest.fixture()
def small_spec(small_cluster, tiny_model):
    """Build a :class:`RunSpec` on ``small_cluster`` / ``tiny_model``.

    The default profiler and a 232-token reserve (the scheduler's own
    default) unless ``options`` override them.
    """
    def build(planner_result, scheduler_method, requests, **options):
        options.setdefault("profiler", Profiler())
        options.setdefault("expected_output_len", 232.0)
        return RunSpec(
            cluster=small_cluster, model=tiny_model,
            planner_result=planner_result, scheduler_method=scheduler_method,
            requests=requests, **options,
        )

    return build


@pytest.fixture()
def small_cluster() -> Cluster:
    """1 A100 + 1 L4 + 2 T4 in one region, full mesh at 10 Gb/s."""
    cluster = Cluster(name="test-small")
    cluster.add_node("a100-0", A100_40G, region="r0")
    cluster.add_node("l4-0", L4, region="r0")
    cluster.add_node("t4-0", T4, region="r0")
    cluster.add_node("t4-1", T4, region="r0")
    cluster.connect_full_mesh(
        ["a100-0", "l4-0", "t4-0", "t4-1"], 10 * GBIT, 0.001,
        include_coordinator=True,
    )
    cluster.validate()
    return cluster


@pytest.fixture()
def two_region_cluster() -> Cluster:
    """Two regions joined by a slow link, for congestion-sensitive tests."""
    cluster = Cluster(name="test-two-region")
    cluster.add_node("a100-0", A100_40G, region="r0")
    cluster.add_node("t4-0", T4, region="r1")
    cluster.add_node("t4-1", T4, region="r1")
    cluster.connect_full_mesh(
        ["t4-0", "t4-1"], 10 * GBIT, 0.001, include_coordinator=False
    )
    for nid in ("t4-0", "t4-1"):
        cluster.connect("a100-0", nid, 100 * MBIT, 0.05)
    cluster.connect("coordinator", "a100-0", 10 * GBIT, 0.001)
    for nid in ("t4-0", "t4-1"):
        cluster.connect("coordinator", nid, 100 * MBIT, 0.05)
    cluster.validate()
    return cluster
