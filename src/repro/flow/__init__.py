"""Max-flow machinery: the cluster graph abstraction of paper §4.3.

:mod:`repro.flow.maxflow` is a self-contained flat-array Dinic's-algorithm
kernel (the paper uses preflow-push; the optimum is algorithm-independent
and Dinic terminates with a true flow, which the IWRR scheduler needs).
Arcs live in parallel arrays with an iterative blocking-flow search, and
the network supports ``set_capacity`` + repeated ``max_flow`` calls.
Results are cross-checked against networkx's preflow-push in the test
suite.

:mod:`repro.flow.graph` turns ``(cluster, model, placement)`` into the
directed graph of Fig. 2 — split node vertices whose internal edge carries
the profiled token throughput ``T_j``, and connection edges whose capacity is
bandwidth divided by per-token message size — and solves for the maximum
serving throughput. The online controller keeps one :class:`FlowGraph`
and points it at each degraded placement with ``reevaluate``, which
rewrites every edge capacity.
"""

from repro.flow.maxflow import FlowNetwork, MaxFlowResult
from repro.flow.graph import (
    FlowGraph,
    FlowSolution,
    SOURCE,
    SINK,
    connection_is_valid,
)

__all__ = [
    "FlowNetwork",
    "MaxFlowResult",
    "FlowGraph",
    "FlowSolution",
    "SOURCE",
    "SINK",
    "connection_is_valid",
]
