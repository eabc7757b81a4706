"""Seeded scenario generation: randomized-but-reproducible test universes.

A *scenario* is everything one end-to-end serving experiment needs —
cluster, model, arrival-stamped workload, and (sometimes) a churn
schedule — generated as a pure function of ``(family, seed, size)``.
Families are topology archetypes:

* ``full_mesh`` — one region, every pair connected.
* ``geo_regions`` — 2-3 regions, fast intra-region meshes, slow
  all-pairs inter-region links (the paper's Fig. 7 shape, randomized).
* ``star`` — a hub node relays between leaves; no leaf-leaf links.
* ``sparse_partitioned`` — two sparsely-wired groups (ring backbone plus
  random chords) joined by a few slow bridge links.

Heuristic planners are topology-blind, so the star and sparse families
draw a model every node can hold alone (any placement then serves through
the coordinator links); the dense families may draw a VRAM-bound model
that forces genuine multi-stage pipelines. All randomness flows from one
:class:`random.Random` seeded with a stable string digest of the address,
never from global state: the same address always yields byte-identical
scenarios.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.cluster.cluster import Cluster
from repro.cluster.gpus import A100_40G, GPUSpec, L4, T4, V100
from repro.cluster.node import COORDINATOR
from repro.cluster.profiler import Profiler
from repro.core.units import GBIT, MBIT
from repro.models.specs import ModelSpec
from repro.online.autoscale import AutoscalerConfig
from repro.online.events import (
    ChurnConfig,
    ClusterEvent,
    NodeDrain,
    NodeFailure,
    NodeRecovery,
    random_churn,
)
from repro.online.faults import (
    FlakyLink,
    FlakyLinkEnd,
    StragglerEnd,
    StragglerStart,
    ZombieNode,
)
from repro.scenarios.workloads import WORKLOAD_KINDS, make_workload
from repro.sim.policy import RequestPolicy
from repro.sim.request import Request
from repro.sim.residency import ResidencyConfig
from repro.tenancy.fairness import FairnessConfig
from repro.tenancy.report import TenancyConfig
from repro.tenancy.registry import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    TenantRegistry,
    TenantSpec,
)

#: The topology archetypes the generator can draw.
SCENARIO_FAMILIES = ("full_mesh", "geo_regions", "star", "sparse_partitioned")

#: The chaos family: a topology drawn from :data:`SCENARIO_FAMILIES` plus
#: a seeded gray-fault schedule (silent crashes, stragglers, flaky links,
#: zombies), failure detection on, and a drawn request-lifecycle policy.
#: Kept out of ``SCENARIO_FAMILIES`` so the classic 4-family matrices (and
#: the engine-differential guarantees swept over them) are unchanged.
CHAOS_FAMILY = "chaos"

#: The elastic family: a drawn base topology plus 1-2 *spare* nodes that
#: start out of service, layer residency on (recovery pays real weight
#: transfers), a backlog-driven autoscaler, and an elasticity flavor —
#: flash crowd, regional outage + refill, or drain-and-rejoin under load.
#: Replanning never solves a MILP, so elastic fingerprints reproduce
#: bit-for-bit.
ELASTIC_FAMILY = "elastic"

#: The tenant family: a drawn base topology serving 2-4 tenants with
#: skewed demand mixes, SLO classes, and windowed fairness accounting.
#: No churn and no lifecycle policy, so per-tenant KV accounting is
#: exact. Kept out of ``SCENARIO_FAMILIES`` like chaos/elastic.
TENANT_FAMILY = "tenant"

#: Every generatable family — chaos, elastic, and tenant included.
ALL_FAMILIES = SCENARIO_FAMILIES + (CHAOS_FAMILY, ELASTIC_FAMILY, TENANT_FAMILY)

#: Families dense enough that topology-blind heuristic placements always
#: carry flow, and may therefore draw a VRAM-bound multi-stage model.
_DENSE_FAMILIES = ("full_mesh", "geo_regions")

#: GPU models a scenario may draw, with draw weights (T4-heavy, like the
#: paper's clusters).
_GPU_POOL: tuple[tuple[GPUSpec, int], ...] = (
    (A100_40G, 1),
    (V100, 1),
    (L4, 2),
    (T4, 3),
)

#: Planner / scheduler methods a scenario may suggest. ``sp``/``sp+`` are
#: excluded: on heterogeneous draws they legitimately fail to form
#: pipelines, which is their own satellite test's concern.
_PLANNER_METHODS = ("swarm", "petals")
_SCHEDULER_METHODS = ("helix", "swarm", "random", "shortest-queue")

#: Model every test GPU can hold alone (8-12 layers, ~26 MB/layer).
_SMALL_HIDDEN = 1024
#: VRAM-bound model shape (~1.07 GB/layer: a T4 holds 7, an A100 18).
_WIDE_HIDDEN = 6656


@dataclass(frozen=True)
class ScenarioLimits:
    """Size knobs of one sweep tier.

    Attributes:
        min_nodes / max_nodes: Cluster size range.
        min_requests / max_requests: Trace size range.
        max_time: Simulation horizon in seconds.
        churn_probability: Chance a scenario carries a churn schedule.
    """

    min_nodes: int
    max_nodes: int
    min_requests: int
    max_requests: int
    max_time: float
    churn_probability: float


#: Tier-1 smoke tier: small enough that a 20+-scenario sweep stays fast.
SMOKE = ScenarioLimits(
    min_nodes=4, max_nodes=7, min_requests=14, max_requests=30,
    max_time=40.0, churn_probability=0.4,
)
#: Extended tier for the scheduled CI sweep and local soaks.
FULL = ScenarioLimits(
    min_nodes=6, max_nodes=14, min_requests=40, max_requests=120,
    max_time=120.0, churn_probability=0.5,
)

_SIZES = {"smoke": SMOKE, "full": FULL}


@dataclass
class Scenario:
    """One generated end-to-end serving experiment.

    Attributes:
        family: Topology family (member of :data:`SCENARIO_FAMILIES`).
        seed: The scenario's seed; ``(family, seed, size)`` reproduces it.
        size: Sweep tier name (``"smoke"`` or ``"full"``).
        cluster: The generated (validated) cluster. Running a scenario
            mutates the cluster (churn, availability); regenerate rather
            than re-run one instance.
        model: The served model.
        requests: Arrival-stamped trace.
        workload: Arrival flavor (member of ``WORKLOAD_KINDS``).
        churn: Churn schedule (may be empty). Chaos scenarios carry gray
            faults here.
        planner_method: Suggested placement method (the harness falls back
            along ``_PLANNER_METHODS`` if it cannot serve).
        scheduler_method: Suggested scheduling policy.
        max_time: Simulation horizon in seconds.
        detection: Run with a failure detector instead of announced
            failures (chaos scenarios).
        policy: Request-lifecycle policy (``None`` = legacy semantics).
        residency: Layer-residency config (``None`` = residency off, the
            legacy engine — elastic scenarios turn it on).
        autoscaler: Backlog-driven autoscaler config (``None`` = none).
        spares: Node ids that start out of service as the autoscaler's
            spare pool.
        tenancy: Multi-tenant config (``None`` = single-tenant legacy
            engine — tenant scenarios carry a registry and fairness).
    """

    family: str
    seed: int
    size: str
    cluster: Cluster
    model: ModelSpec
    requests: list[Request]
    workload: str
    churn: list[ClusterEvent] = field(default_factory=list)
    planner_method: str = "swarm"
    scheduler_method: str = "helix"
    max_time: float = 40.0
    detection: bool = False
    policy: RequestPolicy | None = None
    residency: ResidencyConfig | None = None
    autoscaler: AutoscalerConfig | None = None
    spares: tuple[str, ...] = ()
    tenancy: TenancyConfig | None = None

    def repro_command(self) -> str:
        """The one-line command that replays this exact scenario."""
        return (
            "PYTHONPATH=src python -m repro.testkit "
            f"{self.family} {self.seed} --size {self.size}"
        )

    def describe(self) -> str:
        """One-line summary for reports and failure messages."""
        churn = f", {len(self.churn)} churn events" if self.churn else ""
        extras = ", detection on" if self.detection else ""
        if self.policy is not None:
            extras += ", lifecycle policy"
        if self.residency is not None:
            extras += ", residency on"
        if self.autoscaler is not None:
            extras += f", autoscaler ({len(self.spares)} spare(s))"
        if self.tenancy is not None:
            fairness = self.tenancy.fairness
            extras += (
                f", {len(self.tenancy.registry)} tenants "
                f"({fairness.mode}-fairness)"
            )
        return (
            f"scenario {self.family}/{self.seed} ({self.size}): "
            f"{self.cluster.describe()}, {self.model.name}, "
            f"{len(self.requests)} {self.workload} requests, "
            f"planner={self.planner_method}, "
            f"scheduler={self.scheduler_method}{churn}{extras}"
        )


# ----------------------------------------------------------------------
# Cluster synthesis
# ----------------------------------------------------------------------
def _draw_nodes(
    rng: random.Random, cluster: Cluster, count: int, regions: list[str]
) -> dict[str, list[str]]:
    """Add ``count`` nodes with a weighted GPU mix, spread over regions.

    Every region is guaranteed at least one node (regions beyond ``count``
    are dropped). Returns region -> node ids.
    """
    regions = regions[:count]
    pool = [gpu for gpu, weight in _GPU_POOL for _ in range(weight)]
    by_region: dict[str, list[str]] = {region: [] for region in regions}
    counters: dict[str, int] = {}
    for index in range(count):
        gpu = rng.choice(pool)
        # First len(regions) nodes seed one region each; the rest spread.
        region = regions[index] if index < len(regions) else rng.choice(regions)
        label = gpu.name.split("-")[0].lower()
        ordinal = counters.get(label, 0)
        counters[label] = ordinal + 1
        node_id = f"{label}-{ordinal}"
        cluster.add_node(node_id, gpu, region=region)
        by_region[region].append(node_id)
    return by_region


def _intra_bandwidth(rng: random.Random) -> tuple[float, float]:
    """Fast-link bandwidth/latency draw (datacenter-grade)."""
    return rng.uniform(2.0, 20.0) * GBIT, rng.uniform(0.0005, 0.002)


def _inter_bandwidth(rng: random.Random) -> tuple[float, float]:
    """Slow-link bandwidth/latency draw (cross-region-grade)."""
    return rng.uniform(50.0, 300.0) * MBIT, rng.uniform(0.02, 0.08)


def _build_full_mesh(rng: random.Random, count: int) -> Cluster:
    cluster = Cluster(name=f"scn-mesh-{count}")
    by_region = _draw_nodes(rng, cluster, count, ["region-0"])
    bandwidth, latency = _intra_bandwidth(rng)
    cluster.connect_full_mesh(
        by_region["region-0"], bandwidth, latency, include_coordinator=True
    )
    return cluster


def _build_geo_regions(rng: random.Random, count: int) -> Cluster:
    num_regions = rng.randint(2, 3)
    cluster = Cluster(name=f"scn-geo-{count}")
    regions = [f"region-{i}" for i in range(num_regions)]
    by_region = _draw_nodes(rng, cluster, count, regions)
    fast_bw, fast_lat = _intra_bandwidth(rng)
    slow_bw, slow_lat = _inter_bandwidth(rng)
    for ids in by_region.values():
        cluster.connect_full_mesh(
            ids, fast_bw, fast_lat, include_coordinator=False
        )
    region_list = list(by_region.values())
    for i, ids_a in enumerate(region_list):
        for ids_b in region_list[i + 1:]:
            for a in ids_a:
                for b in ids_b:
                    cluster.connect(a, b, slow_bw, slow_lat)
    # Coordinator lives in region 0: fast locally, slow elsewhere.
    for a in region_list[0]:
        cluster.connect(COORDINATOR, a, fast_bw, fast_lat)
    for ids in region_list[1:]:
        for a in ids:
            cluster.connect(COORDINATOR, a, slow_bw, slow_lat)
    return cluster


def _build_star(rng: random.Random, count: int) -> Cluster:
    cluster = Cluster(name=f"scn-star-{count}")
    by_region = _draw_nodes(rng, cluster, count, ["region-0"])
    ids = by_region["region-0"]
    # The hub is the beefiest draw — highest FLOPs, ties to lowest id —
    # mirroring a lab topology where the big box fans out to the rest.
    hub = max(ids, key=lambda nid: (cluster.node(nid).gpu.fp16_flops, nid))
    bandwidth, latency = _intra_bandwidth(rng)
    for leaf in ids:
        if leaf != hub:
            cluster.connect(hub, leaf, bandwidth, latency)
        cluster.connect(COORDINATOR, leaf, bandwidth, latency)
    return cluster


def _build_sparse_partitioned(rng: random.Random, count: int) -> Cluster:
    cluster = Cluster(name=f"scn-sparse-{count}")
    by_region = _draw_nodes(
        rng, cluster, count, ["region-0", "region-1"]
    )
    fast_bw, fast_lat = _intra_bandwidth(rng)
    slow_bw, slow_lat = _inter_bandwidth(rng)
    for ids in by_region.values():
        # Ring backbone keeps each group connected; random chords thicken.
        if len(ids) > 1:
            for a, b in zip(ids, ids[1:] + ids[:1]):
                if not cluster.has_link(a, b):
                    cluster.connect(a, b, fast_bw, fast_lat)
        extra = rng.randint(0, max(0, len(ids) - 2))
        for _ in range(extra):
            a, b = rng.sample(ids, 2)
            if not cluster.has_link(a, b):
                cluster.connect(a, b, fast_bw, fast_lat)
    group_a, group_b = by_region["region-0"], by_region["region-1"]
    for _ in range(rng.randint(1, 2)):
        cluster.connect(
            rng.choice(group_a), rng.choice(group_b), slow_bw, slow_lat
        )
    for nid in cluster.node_ids:
        cluster.connect(COORDINATOR, nid, fast_bw, fast_lat)
    return cluster


_BUILDERS = {
    "full_mesh": _build_full_mesh,
    "geo_regions": _build_geo_regions,
    "star": _build_star,
    "sparse_partitioned": _build_sparse_partitioned,
}


# ----------------------------------------------------------------------
# Model synthesis
# ----------------------------------------------------------------------
def _small_model(rng: random.Random) -> ModelSpec:
    """A model every pool GPU holds alone (placements always serve)."""
    num_layers = rng.choice((8, 10, 12))
    return ModelSpec(
        name=f"scn-small-{num_layers}L",
        num_layers=num_layers,
        hidden_size=_SMALL_HIDDEN,
        num_heads=8,
        num_kv_heads=8,
        intermediate_size=2816,
    )


def _wide_model(rng: random.Random) -> ModelSpec:
    """A 30B-class per-layer footprint that forces multi-stage pipelines."""
    num_layers = rng.randint(12, 18)
    return ModelSpec(
        name=f"scn-wide-{num_layers}L",
        num_layers=num_layers,
        hidden_size=_WIDE_HIDDEN,
        num_heads=52,
        num_kv_heads=52,
        intermediate_size=17920,
    )


def _pick_model(
    rng: random.Random, family: str, cluster: Cluster, profiler: Profiler
) -> ModelSpec:
    """Draw a model the cluster can definitely serve.

    Dense families may draw the VRAM-bound shape when aggregate capacity
    comfortably covers it (1.3x headroom so petals/swarm always close the
    layer cover); everything else gets the small shape.
    """
    if family in _DENSE_FAMILIES and rng.random() < 0.5:
        wide = _wide_model(rng)
        total = sum(
            min(profiler.max_layers(node, wide), wide.num_layers)
            for node in cluster
        )
        if total >= 1.3 * wide.num_layers:
            return wide
    return _small_model(rng)


# ----------------------------------------------------------------------
# Churn synthesis
# ----------------------------------------------------------------------
def _draw_churn(
    rng: random.Random, cluster: Cluster, limits: ScenarioLimits
) -> list[ClusterEvent]:
    """A seeded failure/recovery (and sometimes link) schedule."""
    horizon = limits.max_time
    config = ChurnConfig(
        duration=horizon * 0.55,
        mean_time_to_failure=rng.uniform(horizon * 0.15, horizon * 0.4),
        mean_time_to_recovery=rng.uniform(horizon * 0.05, horizon * 0.15),
        link_mean_time_to_degrade=(
            rng.uniform(horizon * 0.2, horizon * 0.5)
            if rng.random() < 0.5 else 0.0
        ),
        link_degradation_factor=rng.uniform(0.05, 0.3),
        link_mean_time_to_repair=horizon * 0.1,
        max_concurrent_failures=1,
        start=horizon * 0.2,
    )
    link_keys = [
        key for key in cluster.links
        if COORDINATOR not in key and key[0] < key[1]
    ]
    return random_churn(
        cluster.node_ids, config,
        link_keys=rng.sample(link_keys, min(4, len(link_keys))),
        rng=rng,
    )


def _draw_chaos_faults(
    rng: random.Random, cluster: Cluster, limits: ScenarioLimits
) -> list[ClusterEvent]:
    """A seeded gray-fault schedule: 1-3 faults over distinct victims.

    At most one fault takes a node fully out of service (silent crash or
    zombie) so a small cluster stays servable; stragglers and flaky links
    degrade without removing capacity. Onsets land in the middle of the
    run (after a clean baseline window, with room to recover before the
    horizon); some faults heal, some persist.
    """
    horizon = limits.max_time
    events: list[ClusterEvent] = []
    node_pool = list(cluster.node_ids)
    rng.shuffle(node_pool)
    link_pool = [
        key for key in cluster.links
        if COORDINATOR not in key and key[0] < key[1]
    ]
    rng.shuffle(link_pool)

    kinds = ["crash", "zombie", "straggler", "flaky"]
    count = rng.randint(1, 3)
    node_killed = False
    for _ in range(count):
        kind = rng.choice(kinds)
        onset = rng.uniform(horizon * 0.2, horizon * 0.6)
        if kind in ("crash", "zombie"):
            if node_killed or not node_pool:
                kind = "straggler"  # keep the cluster servable
            else:
                node_killed = True
        if kind == "crash":
            victim = node_pool.pop()
            events.append(NodeFailure(onset, victim))
            if rng.random() < 0.5:
                events.append(
                    NodeRecovery(
                        onset + rng.uniform(horizon * 0.15, horizon * 0.3),
                        victim,
                    )
                )
        elif kind == "zombie":
            victim = node_pool.pop()
            events.append(ZombieNode(onset, victim))
            if rng.random() < 0.5:
                events.append(
                    NodeRecovery(
                        onset + rng.uniform(horizon * 0.15, horizon * 0.3),
                        victim,
                    )
                )
        elif kind == "straggler":
            if not node_pool:
                continue
            victim = node_pool.pop()
            events.append(
                StragglerStart(onset, victim, slowdown=rng.uniform(2.0, 8.0))
            )
            if rng.random() < 0.6:
                events.append(
                    StragglerEnd(
                        onset + rng.uniform(horizon * 0.1, horizon * 0.25),
                        victim,
                    )
                )
        else:  # flaky link
            if not link_pool:
                continue
            src, dst = link_pool.pop()
            events.append(
                FlakyLink(
                    onset, src, dst,
                    drop_probability=rng.uniform(0.05, 0.35),
                    retransmit_delay=rng.uniform(0.02, 0.15),
                )
            )
            if rng.random() < 0.6:
                events.append(
                    FlakyLinkEnd(
                        onset + rng.uniform(horizon * 0.1, horizon * 0.25),
                        src, dst,
                    )
                )
    return sorted(events, key=lambda e: e.time)


def _add_spares(
    rng: random.Random, cluster: Cluster, count: int
) -> tuple[str, ...]:
    """Attach ``count`` spare nodes, fully linked but starting down.

    Spares live in region-0 near the coordinator on fresh fast links,
    so pulling weights from any resident peer is possible the moment the
    autoscaler (or a recovery event) brings one in.
    """
    pool = [gpu for gpu, weight in _GPU_POOL for _ in range(weight)]
    bandwidth, latency = _intra_bandwidth(rng)
    existing = list(cluster.node_ids)
    spares = []
    for index in range(count):
        gpu = rng.choice(pool)
        node_id = f"spare-{index}"
        cluster.add_node(node_id, gpu, region="region-0")
        for peer in existing:
            cluster.connect(node_id, peer, bandwidth, latency)
        cluster.connect(COORDINATOR, node_id, bandwidth, latency)
        spares.append(node_id)
    for node_id in spares:
        cluster.set_node_available(node_id, False)
    return tuple(spares)


#: Elasticity flavors the elastic family draws from.
_ELASTIC_FLAVORS = ("flash_crowd", "outage_refill", "scale_up")


def _flash_crowd_burst(
    rng: random.Random, limits: ScenarioLimits
) -> list[Request]:
    """A sustained arrival spike that drives the backlog over the
    scale-up bar long enough for the autoscaler's streak counter to act
    (several ticks, not one blip): a few seconds of dense long-decode
    arrivals."""
    burst_at = limits.max_time * rng.uniform(0.25, 0.4)
    count = rng.randint(limits.min_requests * 2, limits.min_requests * 4)
    spacing = rng.uniform(0.02, 0.05)
    return [
        Request(
            request_id=f"burst-{index}",
            input_len=rng.randint(16, 64),
            output_len=rng.randint(16, 48),
            arrival_time=burst_at + index * spacing,
        )
        for index in range(count)
    ]


def _draw_elastic_churn(
    rng: random.Random,
    cluster: Cluster,
    spares: tuple[str, ...],
    limits: ScenarioLimits,
    flavor: str,
) -> list[ClusterEvent]:
    """The scripted half of an elastic scenario's dynamics.

    ``flash_crowd`` is purely workload-driven (the autoscaler does the
    reacting); ``outage_refill`` kills a base node and brings it back
    cold; ``scale_up`` gracefully drains a base node and later rejoins
    it — with residency on the rejoin is warm only if its layers
    survived (drain retains VRAM, crash wipes it).
    """
    horizon = limits.max_time
    events: list[ClusterEvent] = []
    victims = sorted(nid for nid in cluster.node_ids if nid not in spares)
    if flavor == "outage_refill":
        victim = rng.choice(victims)
        onset = rng.uniform(horizon * 0.25, horizon * 0.45)
        events.append(NodeFailure(onset, victim))
        events.append(
            NodeRecovery(
                onset + rng.uniform(horizon * 0.15, horizon * 0.3), victim
            )
        )
    elif flavor == "scale_up":
        victim = rng.choice(victims)
        onset = rng.uniform(horizon * 0.25, horizon * 0.4)
        events.append(NodeDrain(onset, victim))
        events.append(
            NodeRecovery(
                onset + rng.uniform(horizon * 0.2, horizon * 0.35), victim
            )
        )
    return sorted(events, key=lambda e: e.time)


#: SLO classes a drawn tenant may carry.
_TENANT_SLO_POOL = (INTERACTIVE, STANDARD, BATCH)


def _draw_tenancy(rng: random.Random) -> TenancyConfig:
    """A seeded 2-4 tenant registry with skewed shares plus fairness knobs.

    Shares follow a geometric skew (each next tenant entitled to roughly
    half the previous one, jittered), so most draws have one dominant
    tenant and a tail — the regime where fairness accounting actually has
    work to do.
    """
    count = rng.randint(2, 4)
    tenants = []
    for index in range(count):
        slo = rng.choice(_TENANT_SLO_POOL)
        # The deleted priority's draw, so later draws do not shift.
        rng.randint(0, 2)
        tenants.append(
            TenantSpec(
                tenant_id=f"tenant-{index}",
                slo=slo,
                rate_share=rng.uniform(1.0, 2.0) * 0.5 ** index,
            )
        )
    fairness = FairnessConfig(
        mode=rng.choice(("W", "T")),
        window=rng.uniform(1.5, 3.0),
        backlog_windows=rng.randint(3, 5),
    )
    # The deleted SLO weight's draw, so later draws do not shift.
    rng.uniform(0.2, 0.8)
    # The deleted admission cap's draws, so later draws do not shift.
    if rng.random() < 0.5:
        rng.randint(15, 40)
    return TenancyConfig(registry=TenantRegistry(tenants), fairness=fairness)


def _tenant_requests(
    rng: random.Random,
    tenancy: TenancyConfig,
    limits: ScenarioLimits,
) -> tuple[list[Request], str]:
    """Per-tenant workload streams merged into one arrival-sorted trace.

    Request counts split proportionally to each tenant's rate share
    (minimum 3 so every tenant exists in the trace); each tenant draws
    its own workload flavor and its requests are retagged
    ``<tenant>:<id>`` for global uniqueness. Returns the merged trace
    plus a describing workload label (the dominant tenant's flavor).
    """
    total = rng.randint(limits.min_requests, limits.max_requests)
    shares = tenancy.registry.shares()
    merged: list[Request] = []
    dominant = ("", 0.0)
    for tenant_id in tenancy.registry.ids:
        count = max(3, round(total * shares[tenant_id]))
        kind = rng.choice(WORKLOAD_KINDS)
        if shares[tenant_id] > dominant[1]:
            dominant = (kind, shares[tenant_id])
        for request in make_workload(
            rng, kind, count, horizon=limits.max_time * 0.5
        ):
            merged.append(
                replace(
                    request,
                    request_id=f"{tenant_id}:{request.request_id}",
                    tenant_id=tenant_id,
                )
            )
    merged.sort(key=lambda r: (r.arrival_time, r.request_id))
    return merged, dominant[0]


def _draw_policy(rng: random.Random, limits: ScenarioLimits) -> RequestPolicy:
    """A request-lifecycle policy sized to the scenario horizon."""
    horizon = limits.max_time
    # The deleted deadline's draws, so later draws do not shift.
    if rng.random() < 0.3:
        rng.uniform(horizon * 0.3, horizon * 0.6)
    # The deleted TTFT timeout's draw, so later draws do not shift.
    rng.uniform(horizon * 0.05, horizon * 0.15)
    # The deleted retry budget's draw, so later draws do not shift.
    rng.randint(3, 6)
    retry_backoff = rng.uniform(0.1, 0.3)
    jitter = rng.uniform(0.0, 0.5)
    # The deleted hedge delay's draws, so later draws do not shift.
    if rng.random() < 0.3:
        rng.uniform(horizon * 0.04, horizon * 0.1)
    # The deleted queue cap's draws, so later draws do not shift.
    if rng.random() < 0.5:
        rng.randint(20, 60)
    return RequestPolicy(retry_backoff=retry_backoff, jitter=jitter)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def generate_scenario(
    family: str,
    seed: int,
    size: str = "smoke",
    profiler: Profiler | None = None,
) -> Scenario:
    """Generate the scenario at address ``(family, seed, size)``.

    Pure function of its address: the same arguments always produce an
    identical scenario (cluster topology, model, trace, churn schedule).

    Raises:
        ValueError: On an unknown family or size.
    """
    if family not in ALL_FAMILIES:
        raise ValueError(
            f"unknown scenario family {family!r}; "
            f"choose from {ALL_FAMILIES}"
        )
    try:
        limits = _SIZES[size]
    except KeyError:
        raise ValueError(
            f"unknown size {size!r}; choose from {tuple(_SIZES)}"
        ) from None
    profiler = profiler or Profiler()
    # String seeding hashes via SHA-512: stable across runs and platforms.
    rng = random.Random(f"repro-scenario:{family}:{seed}:{size}")

    if family == CHAOS_FAMILY:
        # Chaos rides a drawn base topology; the model is always the small
        # shape so losing one node never makes the placement unservable.
        base_family = rng.choice(SCENARIO_FAMILIES)
        count = rng.randint(limits.min_nodes, limits.max_nodes)
        cluster = _BUILDERS[base_family](rng, count)
        cluster.validate()
        model = _small_model(rng)
        workload = rng.choice(WORKLOAD_KINDS)
        num_requests = rng.randint(limits.min_requests, limits.max_requests)
        requests = make_workload(
            rng, workload, num_requests, horizon=limits.max_time * 0.5
        )
        return Scenario(
            family=family,
            seed=seed,
            size=size,
            cluster=cluster,
            model=model,
            requests=requests,
            workload=workload,
            churn=_draw_chaos_faults(rng, cluster, limits),
            planner_method=rng.choice(_PLANNER_METHODS),
            scheduler_method=rng.choice(_SCHEDULER_METHODS),
            max_time=limits.max_time,
            detection=True,
            policy=_draw_policy(rng, limits),
        )

    if family == ELASTIC_FAMILY:
        # Elastic rides a drawn base topology plus out-of-service spares;
        # the model is always the small shape (every node, spares
        # included, can hold any interval, so replans stay servable).
        base_family = rng.choice(SCENARIO_FAMILIES)
        count = rng.randint(limits.min_nodes, limits.max_nodes)
        cluster = _BUILDERS[base_family](rng, count)
        spares = _add_spares(rng, cluster, rng.randint(1, 2))
        cluster.validate()
        model = _small_model(rng)
        workload = rng.choice(WORKLOAD_KINDS)
        num_requests = rng.randint(limits.min_requests, limits.max_requests)
        requests = make_workload(
            rng, workload, num_requests, horizon=limits.max_time * 0.5
        )
        flavor = rng.choice(_ELASTIC_FLAVORS)
        if flavor == "flash_crowd":
            requests = sorted(
                requests + _flash_crowd_burst(rng, limits),
                key=lambda r: r.arrival_time,
            )
        warm: dict[str, tuple[int, int]] = {}
        if rng.random() < 0.5:
            # Half the draws pre-stage the first spare's weights: the
            # warm-vs-cold MTTR contrast the benchmarks measure.
            warm[spares[0]] = (0, model.num_layers)
        return Scenario(
            family=family,
            seed=seed,
            size=size,
            cluster=cluster,
            model=model,
            requests=requests,
            workload=workload,
            churn=_draw_elastic_churn(rng, cluster, spares, limits, flavor),
            planner_method=rng.choice(_PLANNER_METHODS),
            scheduler_method=rng.choice(_SCHEDULER_METHODS),
            max_time=limits.max_time,
            residency=ResidencyConfig(warm=warm),
            autoscaler=AutoscalerConfig(
                interval=rng.uniform(0.5, 1.0),
                backlog_high=rng.randint(6, 12),
                high_ticks=rng.randint(1, 2),
                idle_ticks=rng.randint(6, 10),
                cooldown=rng.uniform(3.0, 6.0),
                start_after=rng.uniform(1.0, 3.0),
            ),
            spares=spares,
        )

    if family == TENANT_FAMILY:
        # Tenant rides a drawn base topology with the small model and NO
        # churn or request policy: every request eventually finishes, so
        # per-tenant KV accounting can be checked exactly against pool
        # totals without churn-induced cancellation noise.
        base_family = rng.choice(SCENARIO_FAMILIES)
        count = rng.randint(limits.min_nodes, limits.max_nodes)
        cluster = _BUILDERS[base_family](rng, count)
        cluster.validate()
        model = _small_model(rng)
        tenancy = _draw_tenancy(rng)
        requests, workload = _tenant_requests(rng, tenancy, limits)
        return Scenario(
            family=family,
            seed=seed,
            size=size,
            cluster=cluster,
            model=model,
            requests=requests,
            workload=workload,
            planner_method=rng.choice(_PLANNER_METHODS),
            scheduler_method=rng.choice(_SCHEDULER_METHODS),
            max_time=limits.max_time,
            tenancy=tenancy,
        )

    count = rng.randint(limits.min_nodes, limits.max_nodes)
    cluster = _BUILDERS[family](rng, count)
    cluster.validate()
    model = _pick_model(rng, family, cluster, profiler)

    workload = rng.choice(WORKLOAD_KINDS)
    num_requests = rng.randint(limits.min_requests, limits.max_requests)
    requests = make_workload(
        rng, workload, num_requests, horizon=limits.max_time * 0.5
    )

    churn: list[ClusterEvent] = []
    if rng.random() < limits.churn_probability:
        churn = _draw_churn(rng, cluster, limits)

    return Scenario(
        family=family,
        seed=seed,
        size=size,
        cluster=cluster,
        model=model,
        requests=requests,
        workload=workload,
        churn=churn,
        planner_method=rng.choice(_PLANNER_METHODS),
        scheduler_method=rng.choice(_SCHEDULER_METHODS),
        max_time=limits.max_time,
    )


def scenario_matrix(
    families: tuple[str, ...] = SCENARIO_FAMILIES,
    seeds: range | list[int] = range(5),
    size: str = "smoke",
) -> list[tuple[str, int, str]]:
    """Enumerate sweep addresses: every family crossed with every seed."""
    return [
        (family, seed, size) for family in families for seed in seeds
    ]
