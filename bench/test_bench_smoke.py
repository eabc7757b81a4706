"""Smoke test of the benchmark at seconds-scale sizes.

Collected by the repository's plain ``pytest`` run. It checks that every
workload runs untraced and traced with identical results, that every
metric ``BENCHMARK.json`` names is reported finite and with its unit, that
a missing entry point is reported rather than raised, and how the
command line behaves: the one-line result, ``compare``, and refusing to
run without the sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench import ROOT, load_spec, workloads
from bench.ledger import layer_metrics
from bench.run import WORKLOADS, compare, verdict
from bench.trace import ENTRY_POINTS, Tracer
from bench.workloads import SMOKE, run_workload

SPEC = load_spec()
E2E = {row["name"]: row for row in SPEC["end_to_end"]}
LAYERS = {row["name"]: row for row in SPEC["per_layer"]}


def _command(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_spec_declares_only_known_workloads():
    declared = [row["name"] for row in SPEC["workloads"]]
    assert set(declared) <= set(WORKLOADS)
    assert "setup_s" in E2E


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_untraced_and_traced(workload):
    plain = run_workload(workload, 0, SMOKE, time.monotonic())
    with Tracer() as tracer:
        traced = run_workload(workload, 0, SMOKE, time.monotonic(), tracer)
    assert plain["violations"] == []
    assert traced["violations"] == []
    # The tracer must not perturb results.
    assert plain["fingerprint"] == traced["fingerprint"]
    assert set(plain["e2e"]) == set(E2E)
    for name, value in plain["e2e"].items():
        assert math.isfinite(value) and value > 0, name
    layers = layer_metrics(tracer, traced)
    assert set(layers) == set(LAYERS) - {"bench.trace_overhead_frac"}
    assert all(math.isfinite(value) for value in layers.values())
    assert tracer.missing == []
    requests = plain["requests"]
    assert requests["submitted"] == (
        requests["finished"] + requests["shed"] + requests["lost"]
        + requests["unfinished"]
    )


def test_gate_fails_when_a_request_does_not_finish(monkeypatch):
    # A one-second horizon strands most of the offline requests.
    monkeypatch.setattr(workloads, "NO_HORIZON", 1.0)
    outcome = run_workload("fig12-offline", 0, SMOKE, time.monotonic())
    assert outcome["fail_frac"] > 0
    assert any(v.startswith("[all_finished]") for v in outcome["violations"])


def test_missing_entry_point_is_reported_not_raised():
    stubs = (
        ("flow.gone", "repro.flow.graph", "FlowGraph.no_such_method"),
        ("gone.module", "repro.no_such_module", "anything"),
    )
    with Tracer(ENTRY_POINTS + stubs) as tracer:
        outcome = run_workload("fig12-offline", 0, SMOKE, time.monotonic(), tracer)
    assert tracer.missing == [
        "repro.flow.graph:FlowGraph.no_such_method",
        "repro.no_such_module:anything",
    ]
    assert outcome["violations"] == []
    assert layer_metrics(tracer, outcome)["bench.entry_points_missing"] == 2


def test_tracer_restores_entry_points_and_measures_self_time(tmp_path):
    from repro.flow.graph import FlowGraph
    from repro.placement import helix_milp

    before = (FlowGraph.solve, helix_milp.solve_with_highs)
    with Tracer() as tracer:
        assert FlowGraph.solve is not before[0]
        assert helix_milp.solve_with_highs is not before[1]
        with tracer.span("a.outer"):
            time.sleep(0.01)
            with tracer.span("b.inner"):
                time.sleep(0.02)
    assert (FlowGraph.solve, helix_milp.solve_with_highs) == before

    totals = tracer.totals()
    outer, inner = totals["a.outer"], totals["b.inner"]
    assert outer.self_seconds == pytest.approx(outer.seconds - inner.seconds)
    assert inner.self_seconds == pytest.approx(inner.seconds)
    path = tmp_path / "t.trace.json"
    tracer.write_chrome(path, "test")
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in spans] == ["a.outer", "b.inner"]
    assert spans[1]["args"]["parent"] == spans[0]["args"]["id"]


@pytest.mark.parametrize("trace, expected", [("0", E2E), ("1", LAYERS)])
def test_command_prints_one_result_line(tmp_path, trace, expected):
    proc = _command(
        "--workload", "scenario-sweep", "--seed", "3", "--seconds", "0",
        "--trace", trace, "--smoke", "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(expected)
    for name, row in result["metrics"].items():
        assert row["unit"] == expected[name]["unit"]
        assert math.isfinite(row["value"]), name
    if trace == "1":
        trace_file = tmp_path / "scenario-sweep.trace.json"
        assert json.loads(trace_file.read_text())["traceEvents"]


def test_command_fails_without_sources(tmp_path):
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _command(
        "--workload", "fig12-offline", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_verdicts_follow_direction_and_bound():
    assert verdict(1.0, 1.2, "lower", 0.1) == "WORSE"
    assert verdict(1.0, 0.8, "lower", 0.1) == "better"
    assert verdict(1.0, 0.8, "higher", 0.1) == "WORSE"
    assert verdict(1.0, 1.05, "higher", 0.1) == "ok"


def test_compare_exits_nonzero_only_on_a_regression(tmp_path, capsys):
    def results(label, seed=0, correct=True, **scaled) -> Path:
        e2e = {name: {"median": scaled.get(name, 1.0)} for name in E2E}
        entry = {
            "correct": correct,
            "problems": [] if correct else ["[all_finished] 1 of 2"],
            "fingerprint": "f",
            "e2e": e2e,
            "layers": {"milp.highs_s": {"value": 1.0}},
        }
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({
            "seed": seed, "smoke": False,
            "workloads": {"fig12-offline": entry},
        }))
        return path

    base = results("base")
    # Within the wall-clock bound of e2e_s.
    assert compare(base, results("noisy", e2e_s=1.05)) == 0
    assert compare(base, results("slow", e2e_s=1.5)) == 1
    assert "WORSE" in capsys.readouterr().out
    # A seed-exact metric may not move at one seed.
    assert compare(base, results("ttft", ttft_p99_s=1.05)) == 1
    assert compare(base, results("other_seed", seed=1)) == 1
    assert compare(base, results("wrong", correct=False)) == 1
