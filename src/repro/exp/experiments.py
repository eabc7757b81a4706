"""The named-experiment registry: every headline number has a name here.

``python -m repro.exp run <name>`` looks the name up in
:data:`EXPERIMENTS`; each entry is a factory taking keyword overrides
(``seeds=``, ``size=``, ...) so CI and developers run the same experiment
at different scales without editing code. The factories only *declare*
grids — expansion, hashing, execution, and aggregation live in
:mod:`repro.exp.spec` / :mod:`repro.exp.runner`.
"""

from __future__ import annotations

from repro.exp.spec import ExperimentSpec, RunCell
from repro.scenarios import (
    ALL_FAMILIES,
    CHAOS_FAMILY,
    ELASTIC_FAMILY,
    SCENARIO_FAMILIES,
    TENANT_FAMILY,
)

#: Scheduler methods the policy-comparison grid evaluates.
POLICY_METHODS = ("helix", "swarm", "random", "shortest-queue")


def scenario_sweep(
    seeds: int = 25,
    size: str = "full",
    milp_oracles: bool = False,
    families: tuple[str, ...] = SCENARIO_FAMILIES,
) -> ExperimentSpec:
    """The full verification matrix: every classic family x seed."""
    return ExperimentSpec.make(
        name="scenario-sweep",
        description=(
            "verification matrix: classic families x seeds, determinism "
            "+ flow differential (+ optional MILP oracles)"
        ),
        kind="verify",
        grid={"family": list(families), "seed": list(range(seeds))},
        base={"size": size, "milp_oracles": milp_oracles},
        aggregate="scenario_sweep",
    )


def chaos_sweep(seeds: int = 25, size: str = "full") -> ExperimentSpec:
    """Gray-failure soak: detection MTTD/MTTR headline across seeds."""
    return ExperimentSpec.make(
        name="chaos-sweep",
        description=(
            "chaos family soak: MTTD/MTTR, false positives, shed/lost "
            "rates (BENCH_chaos.json headline)"
        ),
        kind="verify",
        grid={"family": [CHAOS_FAMILY], "seed": list(range(seeds))},
        base={"size": size},
        aggregate="chaos_sweep",
    )


def elastic_sweep(seeds: int = 25, size: str = "full") -> ExperimentSpec:
    """Elasticity soak plus the warm-vs-cold spare recovery contrast."""
    return ExperimentSpec.make(
        name="elastic-sweep",
        description=(
            "elastic family soak + warm-vs-cold spare recovery MTTR "
            "(BENCH_elastic.json headline)"
        ),
        kind="verify",
        grid={"family": [ELASTIC_FAMILY], "seed": list(range(seeds))},
        base={"size": size},
        extra_cells=(
            RunCell.make("spare_recovery", {"warm": True}),
            RunCell.make("spare_recovery", {"warm": False}),
        ),
        aggregate="elastic_sweep",
    )


def tenant_sweep(seeds: int = 25, size: str = "full") -> ExperimentSpec:
    """Tenancy soak plus the deficit-vs-priority starvation contrast."""
    return ExperimentSpec.make(
        name="tenant-sweep",
        description=(
            "tenant family soak + deficit-vs-priority selector contrast "
            "(BENCH_tenant.json headline)"
        ),
        kind="verify",
        grid={"family": [TENANT_FAMILY], "seed": list(range(seeds))},
        base={"size": size},
        extra_cells=(
            RunCell.make("selector_contrast", {"selector": "deficit"}),
            RunCell.make("selector_contrast", {"selector": "priority"}),
        ),
        aggregate="tenant_sweep",
    )


def fast_path_sweep(seeds: int = 10, size: str = "full") -> ExperimentSpec:
    """Coalesced-vs-per-hop equivalence soak over every family."""
    return ExperimentSpec.make(
        name="fast-path-sweep",
        description="coalesced-vs-per-hop equivalence over all families",
        kind="fast_path_equivalence",
        grid={"family": list(ALL_FAMILIES), "seed": list(range(seeds))},
        base={"size": size},
        aggregate="fast_path_sweep",
    )


def policy_compare(
    seeds: int = 5,
    size: str = "full",
    families: tuple[str, ...] = SCENARIO_FAMILIES,
    policies: tuple[str, ...] = POLICY_METHODS,
) -> ExperimentSpec:
    """Same addresses under every scheduler: the policy-grid showcase.

    The grid repeats each (family, seed) cell once per policy; the plan
    cache in :mod:`repro.exp.cells` makes the repeats cheap (one
    placement search per address per worker).
    """
    return ExperimentSpec.make(
        name="policy-compare",
        description=(
            "every scheduling policy on the same scenario addresses; "
            "placement planned once per address"
        ),
        kind="policy_eval",
        grid={
            "family": list(families),
            "seed": list(range(seeds)),
            "scheduler": list(policies),
        },
        base={"size": size},
        aggregate="policy_compare",
    )


#: name -> factory(**overrides). ``python -m repro.exp list`` prints this.
EXPERIMENTS = {
    "scenario-sweep": scenario_sweep,
    "chaos-sweep": chaos_sweep,
    "elastic-sweep": elastic_sweep,
    "tenant-sweep": tenant_sweep,
    "fast-path-sweep": fast_path_sweep,
    "policy-compare": policy_compare,
}


def get_experiment(name: str, **overrides) -> ExperimentSpec:
    """Build a named experiment; a ``None`` override keeps the default.

    Raises:
        KeyError: ``name`` is not registered.
        TypeError: an override the experiment does not take was set. The
            message names it as its ``run`` flag, so a CLI flag can never
            be dropped silently.
    """
    try:
        factory = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {name!r}; known: {known}"
        ) from None
    import inspect

    kwargs = {
        key: value for key, value in overrides.items() if value is not None
    }
    accepted = set(inspect.signature(factory).parameters)
    rejected = sorted(set(kwargs) - accepted)
    if rejected:
        flags = ", ".join("--" + key.replace("_", "-") for key in rejected)
        raise TypeError(f"experiment {name!r} does not take {flags}")
    return factory(**kwargs)
