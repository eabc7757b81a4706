"""Committed golden digests of the simulator's observables.

These digests pin the simulator to the values the frozen pre-overhaul
engine produced, so it cannot drift unnoticed. A case's digests are one
sha256 per observable group: per-request records, KV pools, executors,
channels, token-timeline buckets, the serving-metric fields, the final
clock and tenancy (the tokens of every tenant the records are tagged
with; ``None`` for an untagged run).

The cases are the 24 smoke addresses of the engine matrix (named
``<family>-<seed>``) and five scripted fig12 scenarios. A matrix case is
served by :func:`~repro.testkit.harness.run_scenario`, so its digests pin
the very run the smoke sweep, ``python -m repro.testkit`` and the
benchmark's scenario sweep make: a change anywhere on that path moves a
digest. A scripted case is a :class:`~repro.bench.runner.RunSpec` on the
fig12 cluster, wired by :func:`~repro.bench.runner.make_simulation` like
every figure script's run. The digests live in
``tests/golden/sim_observables.json``, whose header records the Python and
numpy versions they were recorded with. Only::

    PYTHONPATH=src python -m repro.testkit regen-golden

rewrites that file, from runs of every case.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path
from typing import Callable

import numpy as np

from repro.bench.runner import RunSpec, make_simulation
from repro.cluster import Profiler, small_cluster_fig12
from repro.core.errors import ReproError
from repro.models.specs import LLAMA_30B
from repro.placement.petals import PetalsPlanner
from repro.scenarios.generator import SCENARIO_FAMILIES, generate_scenario
from repro.sim.request import Request
from repro.sim.simulator import Simulation
from repro.tenancy.report import tenant_tokens
from repro.testkit.differential import canonical_json
from repro.testkit.harness import run_scenario
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
def _fig12_spec(requests: list[Request], **options) -> RunSpec:
    """A scripted case's run: the fig12 cluster's Petals plan under Helix's
    scheduler, reserving the first request's output length."""
    cluster = small_cluster_fig12()
    profiler = Profiler()
    return RunSpec(
        cluster=cluster,
        model=LLAMA_30B,
        planner_result=PetalsPlanner(cluster, LLAMA_30B, profiler).plan(),
        scheduler_method="helix",
        requests=requests,
        profiler=profiler,
        expected_output_len=float(requests[0].output_len),
        **options,
    )


def _sequential_stream():
    """Lone requests, one after another."""
    requests = [
        Request(f"r{i}", 16, 300, arrival_time=i * 500.0) for i in range(3)
    ]
    return make_simulation(_fig12_spec(requests, max_time=1e9))


def _mid_decode_failure():
    """A pipeline node fails mid-decode and is restored 5 s later: the
    attempt is disrupted and the retry finishes after recovery."""
    sim = make_simulation(
        _fig12_spec([Request("victim", 16, 400)], max_time=1e9)
    )

    def fail(s):
        node_id = s.placement.used_nodes[0]
        s.fail_node(node_id)
        s.schedule_event(s.now + 5.0, lambda s2: s2.restore_node(node_id))

    sim.schedule_event(8.0, fail)
    return sim


def _flooded_cohorts():
    """A saturated uniform flood: long same-channel decode cohorts."""
    requests = [Request(f"r{i:04d}", 16, 24) for i in range(120)]
    return make_simulation(
        _fig12_spec(requests, max_time=1e9, max_batch_tokens=2048)
    )


#: The Poisson case's horizon, which cuts its trace mid-way.
POISSON_HORIZON = 40.0


def poisson_trace() -> list[Request]:
    """300 mixed-length requests arriving at 3 req/s."""
    from repro.trace.arrival import poisson_arrivals

    base = [Request(f"p{i:03d}", 32 + i % 7, 12 + i % 5) for i in range(300)]
    return poisson_arrivals(base, 3.0, seed=3)


def _poisson_horizon():
    return make_simulation(
        _fig12_spec(poisson_trace(), max_time=POISSON_HORIZON)
    )


def _max_time_truncation():
    """Thirty long requests cut at a 6 s horizon."""
    requests = [Request(f"r{i}", 64, 500) for i in range(30)]
    return make_simulation(_fig12_spec(requests, max_time=6.0))


#: Scripted case name -> builder of an un-run simulation.
SCRIPTED_CASES: dict[str, Callable[[], Simulation]] = {
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
    case: str, prepare: Callable[[Simulation], None] | None = None
):
    """Serve one golden case; returns ``(sim, metrics)``.

    A matrix case is :func:`~repro.testkit.harness.run_scenario` of its
    freshly generated smoke scenario, the run every sweep makes.
    ``prepare`` runs on a scripted case's simulation before it starts
    (e.g. to schedule sampling callbacks that must not perturb it); a
    matrix case's simulation starts inside ``run_scenario``, so it takes
    none.
    """
    if case in SCRIPTED_CASES:
        sim = SCRIPTED_CASES[case]()
        if prepare is not None:
            prepare(sim)
        return sim, sim.run()
    if prepare is not None:
        raise ValueError(f"matrix case {case!r} takes no prepare callback")
    family, seed = case.rsplit("-", 1)
    report = run_scenario(generate_scenario(family, int(seed), "smoke"))
    if report.sim is None:
        raise ReproError(report.failure_message())
    return report.sim, report.metrics


# ----------------------------------------------------------------------
# Digests and the golden file
# ----------------------------------------------------------------------
def _engine_observables(sim, metrics) -> dict:
    """Every externally-visible quantity an engine run produces."""
    records = {}
    for record in sim.records:
        records[record.request_id] = (
            record.tokens_generated,
            tuple(record.token_times),
            record.arrival_time,
            record.schedule_time,
            record.first_token_time,
            record.finish_time,
            record.retries,
            record.migrations,
            record.tokens_lost,
        )
    pools = {
        node_id: (pool.used_tokens, pool.peak_tokens, pool.overflow_events)
        for node_id, pool in sim.kv_pools.items()
    }
    executors = {
        node_id: (
            executor.stats.batches,
            executor.stats.busy_time,
            executor.stats.token_layers,
            executor.stats.tokens,
        )
        for node_id, executor in sim.executors.items()
    }
    channels = {
        key: (
            channel.messages_sent,
            channel.bytes_sent,
            channel.next_free_time,
            channel.total_queueing_delay,
            channel.max_queueing_delay,
        )
        for key, channel in sim.channels.items()
    }
    buckets = sim.token_buckets
    while buckets and buckets[-1] == 0:
        buckets.pop()
    tenancy = None
    tokens = tenant_tokens(sim.records)
    if tokens:
        # ``starvation_events`` is the deleted starvation watchdog's count,
        # always 0; it stays so the pinned digests of tenancy runs hold.
        tenancy = {"tokens_by_tenant": tokens, "starvation_events": 0}
    return {
        "records": records,
        "pools": pools,
        "executors": executors,
        "channels": channels,
        "buckets": buckets,
        "metrics": metrics,
        "now": sim.now,
        "tenancy": tenancy,
    }


def _metric_values(metrics) -> dict[str, float]:
    """The serving-metric fields the golden digests read, as floats."""
    values = {
        name: float(getattr(metrics, name))
        for name in (
            "decode_throughput", "requests_finished", "requests_submitted",
            "duration", "decode_tokens", "kv_overflow_events",
            "avg_pipeline_depth", "requests_retried", "requests_migrated",
            "tokens_lost",
        )
    }
    for dist in ("prompt_latency", "decode_latency"):
        stats = getattr(metrics, dist)
        for q in ("count", "mean", "p5", "p25", "p50", "p75", "p95"):
            values[f"{dist}.{q}"] = float(getattr(stats, q))
    return values


def observable_digests(observables: dict) -> dict[str, str]:
    """One sha256 hex digest per observable group."""
    groups = dict(observables, metrics=_metric_values(observables["metrics"]))
    return {
        name: hashlib.sha256(canonical_json(groups[name]).encode()).hexdigest()
        for name in GROUPS
    }


def run_digest(sim, metrics) -> str:
    """One sha256 hex digest over every observable group of one run, for
    runs pinned in a test rather than in the golden file."""
    digests = observable_digests(_engine_observables(sim, metrics))
    joined = "".join(digests[name] for name in GROUPS)
    return hashlib.sha256(joined.encode()).hexdigest()


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
    """Serve ``case`` once; its observables must match the golden digests.

    Returns ``(violations, (sim, metrics))``.
    """
    run = serve_case(case, prepare)
    return check_golden(case, _engine_observables(*run), "sim"), run


def regen_golden() -> Path:
    """Rewrite the golden file from runs of every case."""
    cases = {
        case: observable_digests(_engine_observables(*serve_case(case)))
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
