"""Committed golden digests of the simulator's observables.

The per-hop engine (``coalescing=False``) is the live reference for the
coalesced one, and these digests pin both to the values the frozen
pre-overhaul engine produced, so neither path can drift on its own. A
case's digests are one sha256 per observable group — exactly what
:func:`~repro.testkit.differential._compare_observables` compares:
per-request records, KV pools, executors, channels, token-timeline
buckets, the serving-metric fields, the final clock and tenancy.

The cases are the 24 smoke addresses of the engine matrix (named
``<family>-<seed>``) and five scripted fig12 scenarios. The digests live
in ``tests/golden/sim_observables.json``, whose header records the Python
and numpy versions they were recorded with. Only::

    PYTHONPATH=src python -m repro.testkit regen-golden

rewrites that file, from per-hop runs of every case.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path
from typing import Callable

import numpy as np

from repro.cluster import Profiler, small_cluster_fig12
from repro.models.specs import LLAMA_30B
from repro.scenarios.generator import SCENARIO_FAMILIES
from repro.sim.request import Request
from repro.sim.simulator import Simulation
from repro.testkit.differential import (
    _compare_observables,
    _engine_observables,
    _metric_values,
    _run_engine,
    canonical_json,
)
from repro.testkit.invariants import Violation

GOLDEN_PATH = (
    Path(__file__).resolve().parents[3]
    / "tests" / "golden" / "sim_observables.json"
)
REGEN_COMMAND = "PYTHONPATH=src python -m repro.testkit regen-golden"

#: The observable groups a case digests, in file order.
GROUPS = (
    "records", "pools", "executors", "channels", "buckets", "metrics",
    "now", "tenancy",
)

#: The engine matrix: every basic family at smoke size, seeds 0-5.
MATRIX = [(family, seed) for family in SCENARIO_FAMILIES for seed in range(6)]


# ----------------------------------------------------------------------
# Scripted cases: fig12 lone requests, churn, floods and horizons
# ----------------------------------------------------------------------
def _fig12_sim(requests: list[Request], coalescing: bool, **kwargs):
    from repro.placement.petals import PetalsPlanner
    from repro.scheduling import HelixScheduler

    cluster = small_cluster_fig12()
    profiler = Profiler()
    result = PetalsPlanner(cluster, LLAMA_30B, profiler).plan()
    scheduler = HelixScheduler(
        cluster, LLAMA_30B, result.placement, profiler, flow=result.flow,
        expected_output_len=float(requests[0].output_len),
    )
    return Simulation(
        cluster, LLAMA_30B, result.placement, scheduler, requests,
        profiler=profiler, coalescing=coalescing, **kwargs,
    )


def _sequential_stream(coalescing: bool):
    """Lone requests, one after another."""
    requests = [
        Request(f"r{i}", 16, 300, arrival_time=i * 500.0) for i in range(3)
    ]
    return _fig12_sim(requests, coalescing, max_time=1e9, seed=0)


def _mid_decode_failure(coalescing: bool):
    """A pipeline node fails mid-decode and is restored 5 s later: the
    attempt is disrupted and the retry finishes after recovery."""
    sim = _fig12_sim(
        [Request("victim", 16, 400)], coalescing, max_time=1e9, seed=0
    )

    def fail(s):
        node_id = s.placement.used_nodes[0]
        s.fail_node(node_id)
        s.schedule_event(s.now + 5.0, lambda s2: s2.restore_node(node_id))

    sim.schedule_event(8.0, fail)
    return sim


def _flooded_cohorts(coalescing: bool):
    """A saturated uniform flood: long same-channel decode cohorts."""
    requests = [Request(f"r{i:04d}", 16, 24) for i in range(120)]
    return _fig12_sim(
        requests, coalescing, max_time=1e9, seed=0, max_batch_tokens=2048
    )


#: The Poisson case's horizon, which cuts its trace mid-way.
POISSON_HORIZON = 40.0


def poisson_trace() -> list[Request]:
    """300 mixed-length requests arriving at 3 req/s."""
    from repro.trace.arrival import poisson_arrivals

    base = [Request(f"p{i:03d}", 32 + i % 7, 12 + i % 5) for i in range(300)]
    return poisson_arrivals(base, 3.0, seed=3)


def _poisson_horizon(coalescing: bool):
    return _fig12_sim(
        poisson_trace(), coalescing, max_time=POISSON_HORIZON, seed=0
    )


def _max_time_truncation(coalescing: bool):
    """Thirty long requests cut at a 6 s horizon."""
    requests = [Request(f"r{i}", 64, 500) for i in range(30)]
    return _fig12_sim(requests, coalescing, max_time=6.0, seed=0)


#: Scripted case name -> builder of an un-run simulation.
SCRIPTED_CASES: dict[str, Callable[[bool], Simulation]] = {
    "sequential_stream": _sequential_stream,
    "mid_decode_failure": _mid_decode_failure,
    "flooded_cohorts": _flooded_cohorts,
    "poisson_horizon": _poisson_horizon,
    "max_time_truncation": _max_time_truncation,
}


def golden_cases() -> list[str]:
    """Every case name the golden file must hold, in file order."""
    return [f"{f}-{s}" for f, s in MATRIX] + list(SCRIPTED_CASES)


def serve_case(
    case: str,
    coalescing: bool,
    prepare: Callable[[Simulation], None] | None = None,
):
    """Serve one golden case; returns ``(sim, metrics)``.

    ``prepare`` runs on a scripted case's simulation before it starts
    (e.g. to schedule sampling callbacks that must not perturb it).
    """
    if case in SCRIPTED_CASES:
        sim = SCRIPTED_CASES[case](coalescing)
        if prepare is not None:
            prepare(sim)
        return sim, sim.run()
    family, seed = case.rsplit("-", 1)
    return _run_engine(family, int(seed), "smoke", coalescing)


# ----------------------------------------------------------------------
# Digests and the golden file
# ----------------------------------------------------------------------
def observable_digests(observables: dict) -> dict[str, str]:
    """One sha256 hex digest per observable group."""
    groups = dict(observables, metrics=_metric_values(observables["metrics"]))
    return {
        name: hashlib.sha256(canonical_json(groups[name]).encode()).hexdigest()
        for name in GROUPS
    }


def versions() -> dict[str, str]:
    """The interpreter and numpy versions a digest is computed with."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def load_golden() -> dict:
    """The committed golden file: ``{"header": ..., "cases": ...}``."""
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def check_golden(case: str, observables: dict, tag: str) -> list[Violation]:
    """Compare one run's digests to the committed ones for ``case``."""
    golden = load_golden()
    recorded, running = golden["header"], versions()
    versions_note = (
        f"recorded with Python {recorded['python']} / numpy "
        f"{recorded['numpy']}, running Python {running['python']} / numpy "
        f"{running['numpy']}; if the change is intended, "
        f"run `{REGEN_COMMAND}`"
    )
    expected = golden["cases"].get(case)
    if expected is None:
        return [Violation(
            "golden_digest", f"[{tag}] case {case!r} has no golden entry "
            f"({versions_note})",
        )]
    actual = observable_digests(observables)
    return [
        Violation(
            "golden_digest",
            f"[{tag}] case {case!r}, group {name!r}: digest "
            f"{actual[name][:12]} != golden {expected[name][:12]} "
            f"({versions_note})",
        )
        for name in GROUPS
        if actual[name] != expected[name]
    ]


def check_case(
    case: str, prepare: Callable[[Simulation], None] | None = None
):
    """Serve ``case`` coalesced and per-hop; both must agree exactly with
    each other and with the golden digests.

    Returns ``(violations, runs)`` with ``runs`` mapping ``"coalesced"``
    and ``"perhop"`` to ``(sim, metrics)``.
    """
    runs = {
        label: serve_case(case, coalescing, prepare)
        for label, coalescing in (("coalesced", True), ("perhop", False))
    }
    observed = {label: _engine_observables(*run) for label, run in runs.items()}
    violations = _compare_observables(
        "coalesced-vs-perhop", observed["coalesced"], observed["perhop"]
    )
    for label, observables in observed.items():
        violations.extend(check_golden(case, observables, label))
    return violations, runs


def regen_golden() -> Path:
    """Rewrite the golden file from per-hop runs of every case."""
    cases = {
        case: observable_digests(
            _engine_observables(*serve_case(case, coalescing=False))
        )
        for case in golden_cases()
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(
            {"header": dict(versions(), command=REGEN_COMMAND),
             "cases": cases},
            handle, indent=1,
        )
        handle.write("\n")
    return GOLDEN_PATH
