"""The long verification sweeps: every address is its own test.

Tier-1 runs a smoke matrix and pins the chaos / elastic / tenant
headlines; this module runs the wider grids nightly:

* the classic families x seeds 0-24 at full size, fully verified
  (invariants, flow differential, determinism) plus the MILP oracles;
* the classic families x seeds 0-4 under each scheduling policy, on the
  address's own plan (planned once per address, not once per policy).

Each failure names its address and the command that replays it. Run::

    PYTHONPATH=src python -m pytest benchmarks/bench_sweeps.py -q
"""

import functools

import pytest

from repro.scenarios import SCENARIO_FAMILIES, generate_scenario
from repro.testkit import (
    assert_scenario_ok,
    check_milp_oracles,
    placement_intervals,
    plan_scenario,
    verify_scenario,
)

SIZE = "full"
POLICIES = ("helix", "swarm", "random", "shortest-queue")


def _grid(families, seeds):
    return pytest.mark.parametrize(
        "family,seed",
        [(family, seed) for family in families for seed in seeds],
        ids=[f"{family}-{seed}" for family in families for seed in seeds],
    )


@_grid(SCENARIO_FAMILIES, range(25))
def test_scenario_sweep(family, seed):
    report = verify_scenario(family, seed, SIZE)
    report.violations.extend(check_milp_oracles(family, seed, SIZE))
    assert report.ok, report.failure_message() + " --milp-oracles"


@functools.cache
def _plan(family, seed):
    method, result = plan_scenario(generate_scenario(family, seed, SIZE))
    return method, placement_intervals(result)


@pytest.mark.parametrize("scheduler", POLICIES)
@_grid(SCENARIO_FAMILIES, range(5))
def test_policy_sweep(family, seed, scheduler):
    # The flow differential does not depend on the scheduler;
    # test_scenario_sweep already covers it per address.
    report = verify_scenario(
        family, seed, SIZE,
        flow_differential=False,
        scheduler=scheduler,
        plan=_plan(family, seed),
    )
    assert_scenario_ok(report)
