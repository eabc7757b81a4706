"""Cluster modeling: GPUs, nodes, network links, and preset topologies.

This package is the substrate every other layer builds on. A
:class:`~repro.cluster.cluster.Cluster` is a coordinator plus a set of
heterogeneous compute nodes joined by directed network links; the
:mod:`~repro.cluster.profiler` converts datasheet numbers into the
token-throughput constants (``T_j``, link capacities) the paper obtains by
one-time profiling; and :mod:`~repro.cluster.presets` provides the exact
cluster configurations used in the paper's evaluation (single 24-node,
geo-distributed, high-heterogeneity 42-node, and the toy examples of
Figs. 1-2).
"""

from repro.cluster.gpus import (
    GPUSpec,
    GPU_CATALOG,
    H100,
    A100_40G,
    A100_80G,
    L4,
    T4,
    V100,
    get_gpu,
)
from repro.cluster.node import ComputeNode, COORDINATOR
from repro.cluster.network import Link
from repro.cluster.cluster import Cluster
from repro.cluster.profiler import Profiler
from repro.cluster.presets import (
    single_cluster_24,
    geo_distributed_24,
    high_heterogeneity_42,
    toy_cluster_fig1,
    toy_cluster_fig2,
    small_cluster_fig12,
)

__all__ = [
    "GPUSpec",
    "GPU_CATALOG",
    "H100",
    "A100_40G",
    "A100_80G",
    "L4",
    "T4",
    "V100",
    "get_gpu",
    "ComputeNode",
    "COORDINATOR",
    "Link",
    "Cluster",
    "Profiler",
    "single_cluster_24",
    "geo_distributed_24",
    "high_heterogeneity_42",
    "toy_cluster_fig1",
    "toy_cluster_fig2",
    "small_cluster_fig12",
]
