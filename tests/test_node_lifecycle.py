"""The node lifecycle: one state per node, one transition site.

Every node of a :class:`~repro.sim.Simulation` is ``serving``,
``draining``, ``zombie``, ``silent`` or ``down``. Each (state, event)
pair below is driven on a node with an attempt in flight through it, and
checked three ways: the node's state, the cluster's availability, and
whether the scheduler masks the node.
"""

from copy import deepcopy

import pytest

from repro.core.errors import SimulationError
from repro.core.placement_types import ModelPlacement
from repro.flow.graph import FlowGraph
from repro.scheduling import HelixScheduler
from repro.sim import Request, RequestPolicy, Simulation

NODE = "a100-0"  # the only holder of layers [0, 4)

#: How a node enters each state, from serving, with an attempt in flight.
ENTER = {
    "serving": lambda sim: None,
    "draining": lambda sim: sim.drain_node(NODE),
    "zombie": lambda sim: sim.make_zombie(NODE),
    "silent": lambda sim: sim.fail_node(NODE, announce=False),
    "down": lambda sim: sim.fail_node(NODE),
}

#: The lifecycle events.
EVENTS = {
    "fail": lambda sim: sim.fail_node(NODE),
    "silent": lambda sim: sim.fail_node(NODE, announce=False),
    "zombie": lambda sim: sim.make_zombie(NODE),
    "confirm": lambda sim: sim.confirm_node_failure(NODE),
    "restore": lambda sim: sim.restore_node(NODE),
    "drain": lambda sim: sim.drain_node(NODE),
}

#: The state each event leads to, per state (events in ``EVENTS`` order).
#: A gray node cannot drain and heals only through a confirmation; a
#: fault on a draining node supersedes the drain.
TABLE = {
    "serving": ("down", "silent", "zombie", "down", "serving", "draining"),
    "draining": ("down", "down", "down", "down", "draining", "draining"),
    "zombie": ("down", "silent", "zombie", "down", "serving", "down"),
    "silent": ("down", "silent", "silent", "down", "serving", "down"),
    "down": ("down", "down", "down", "down", "serving", "down"),
}

CASES = [(state, event) for state in TABLE for event in EVENTS]


def _simulation(small_cluster, tiny_model, cluster=None, **kwargs):
    """``a100-0`` [0, 4) -> ``l4-0`` [4, 8): one long request in flight."""
    placement = ModelPlacement.from_intervals(
        8, {NODE: (0, 4), "l4-0": (4, 8)}
    )
    flow = FlowGraph(small_cluster, tiny_model, placement).solve()
    scheduler = HelixScheduler(
        small_cluster, tiny_model, placement, flow=flow
    )
    return Simulation(
        cluster or small_cluster, tiny_model, placement, scheduler,
        [Request("r0", 16, 200, arrival_time=0.0)], max_time=60.0,
        **kwargs,
    )


def _observe(sim):
    """``(state, available, masked)`` of the node under test; the mask is
    read off a probe scheduling, which only the node can serve."""
    probe = sim.scheduler.schedule("probe", 1)
    if probe is not None:
        sim.scheduler.notify_finished("probe")
    return (
        sim.node_state(NODE), sim.cluster.node_available(NODE), probe is None
    )


@pytest.mark.parametrize(
    "state,event", CASES, ids=[f"{s}-{e}" for s, e in CASES]
)
def test_transition_table(small_cluster, tiny_model, state, event):
    sim = _simulation(small_cluster, tiny_model)
    seen = []

    def drive(sim):
        ENTER[state](sim)
        assert sim.node_state(NODE) == state
        EVENTS[event](sim)
        seen.append(_observe(sim))

    sim.schedule_event(0.05, drive)
    sim.run()
    expected = TABLE[state][list(EVENTS).index(event)]
    in_service = expected in ("serving", "zombie", "silent")
    assert seen == [(expected, in_service, not in_service)]


@pytest.mark.parametrize("released", [False, True], ids=["now", "released"])
@pytest.mark.parametrize("fault", ["zombie", "silent"])
def test_a_fault_on_a_draining_node_supersedes_the_drain(
    small_cluster, tiny_model, fault, released
):
    """A gray fault on a draining node is a confirmed failure at once.

    The node holds one state — down — rather than draining and gray at
    the same time, its in-flight attempt requeues, and the drain never
    completes: even once a deadline abandons the request, no
    :class:`~repro.sim.DrainRecord` is written and the waiter never runs.
    """
    policy = RequestPolicy(deadline=1.0) if released else None
    sim = _simulation(small_cluster, tiny_model, policy=policy)
    seen, waited = [], []

    def drive(sim):
        sim.drain_node(NODE, on_complete=waited.append)
        EVENTS[fault](sim)
        seen.append((sim.down_nodes, sim.draining_nodes, _observe(sim)))

    sim.schedule_event(0.05, drive)
    metrics = sim.run()
    assert seen == [({NODE}, set(), ("down", False, True))]
    assert sim.record_of("r0").retries == 1
    assert sim.drain_log == [] and waited == []
    assert metrics.requests_lost == (1 if released else 0)


def test_scheduler_on_another_cluster_is_rejected(small_cluster, tiny_model):
    """The scheduler masks what its own cluster reports unavailable, so
    it must share the simulation's cluster, not an equal copy."""
    copy = deepcopy(small_cluster)
    with pytest.raises(SimulationError, match="different Cluster"):
        _simulation(small_cluster, tiny_model, cluster=copy)
