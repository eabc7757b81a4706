"""Parent side: repeats in fresh child processes, medians, the
correctness gate, and the three outputs — the one-line result of a single
workload run, the full suite report, and ``compare``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.machine import machine_stamp

from bench import ROOT, SRC, load_spec
from bench.workloads import WORKLOADS

#: Untraced repeats per measurement, at least.
MIN_REPEATS = 3
#: End-to-end metrics that are exact functions of the seed: the planned
#: max flow and the simulated serving figures. Two runs on one seed agree
#: to the last digit, so between results of one seed only the code moves
#: them, and ``compare`` holds them to :data:`SAME_SEED_BOUND` instead of
#: the seed-to-seed bound in ``BENCHMARK.json``.
SEED_EXACT = frozenset({
    "plan_tok_s", "decode_tok_s",
    "ttft_p50_s", "ttft_p99_s", "tbt_p50_s", "tbt_p99_s",
})
SAME_SEED_BOUND = 0.01
#: One child may not run longer than this.
CHILD_TIMEOUT_S = 150.0
DEFAULT_OUT = ROOT / "bench" / "out"


class BenchError(RuntimeError):
    """A child process failed to produce a result."""


def spawn(
    workload: str, seed: int, smoke: bool, trace_path: Path | None = None
) -> dict:
    """Run one repeat in a fresh interpreter and return its outcome."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), str(ROOT), env.get("PYTHONPATH")) if part
    )
    t0 = time.monotonic()
    command = [
        sys.executable, "-m", "bench", "child", workload,
        "--seed", str(seed), "--t0", repr(t0),
    ]
    if smoke:
        command.append("--smoke")
    if trace_path is not None:
        command += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(
            f"{workload} seed {seed}: child exceeded {CHILD_TIMEOUT_S:.0f} s"
        ) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{workload} seed {seed}: child exited {proc.returncode}\n"
            f"{proc.stderr.strip()[-4000:]}"
        )
    return json.loads(lines[-1])


@dataclass
class Measurement:
    """The untraced repeats and the optional traced run of one workload."""

    runs: list[dict]
    traced: dict | None = None
    trace_path: Path | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def all_runs(self) -> list[dict]:
        return self.runs + ([self.traced] if self.traced else [])

    def median(self, metric: str) -> float:
        return statistics.median(run["e2e"][metric] for run in self.runs)

    def layers(self) -> dict[str, float]:
        """Per-layer metrics of the traced run, with the tracing overhead."""
        layers = dict(self.traced["layers"])
        layers["bench.trace_overhead_frac"] = (
            self.traced["e2e"]["e2e_s"] / self.median("e2e_s") - 1.0
        )
        return layers


def measure(
    workload: str,
    seed: int,
    *,
    seconds: float = 0.0,
    smoke: bool = False,
    trace_dir: Path | None = None,
) -> Measurement:
    """Untraced repeats, one at a time, until both :data:`MIN_REPEATS` ran
    and ``seconds`` passed; then one traced run when ``trace_dir`` is set.

    The correctness gate fills ``problems``: every violation any run
    reported, and any difference between the runs' token-timeline
    fingerprints (repeats and the traced run must agree exactly, which
    also shows the tracer does not perturb results).
    """
    runs: list[dict] = []
    start = time.monotonic()
    while len(runs) < MIN_REPEATS or time.monotonic() - start < seconds:
        runs.append(spawn(workload, seed, smoke))
        print(
            f"{workload} seed {seed}: repeat {len(runs)} "
            f"e2e {runs[-1]['e2e']['e2e_s']:.2f} s",
            file=sys.stderr,
        )
    measurement = Measurement(runs)
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        measurement.trace_path = trace_dir / f"{workload}.trace.json"
        measurement.traced = spawn(workload, seed, smoke, measurement.trace_path)
    for index, run in enumerate(measurement.all_runs):
        label = "traced" if run is measurement.traced else f"repeat {index + 1}"
        measurement.problems += [f"{label}: {v}" for v in run["violations"]]
    fingerprints = [run["fingerprint"][:16] for run in measurement.all_runs]
    if len(set(fingerprints)) > 1:
        measurement.problems.append(
            f"token-timeline fingerprints differ between runs: {fingerprints}"
        )
    return measurement


def _metric_values(names_units, values: dict[str, float]) -> dict:
    return {
        row["name"]: {"value": values[row["name"]], "unit": row["unit"]}
        for row in names_units
    }


def run_one(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    smoke: bool = False,
    out_dir: Path = DEFAULT_OUT,
) -> int:
    """One workload; the last stdout line is the result object.

    With ``trace`` the metrics are the per-layer ones from the traced run,
    otherwise the end-to-end medians of the untraced repeats.
    """
    spec = load_spec()
    measurement = measure(
        workload, seed, seconds=seconds, smoke=smoke,
        trace_dir=out_dir if trace else None,
    )
    if trace:
        metrics = _metric_values(spec["per_layer"], measurement.layers())
    else:
        medians = {
            row["name"]: measurement.median(row["name"])
            for row in spec["end_to_end"]
        }
        metrics = _metric_values(spec["end_to_end"], medians)
    for problem in measurement.problems:
        print(f"INCORRECT {problem}", file=sys.stderr)
    runs = measurement.all_runs
    print(json.dumps({
        "correct": not measurement.problems,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 1 if measurement.problems else 0


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def _summary(measurement: Measurement, spec: dict) -> dict:
    """The results-file entry of one workload."""
    first = measurement.runs[0]
    e2e = {}
    for row in spec["end_to_end"]:
        values = [run["e2e"][row["name"]] for run in measurement.runs]
        e2e[row["name"]] = {
            "median": statistics.median(values),
            "values": values,
            "unit": row["unit"],
        }
    units = {row["name"]: row["unit"] for row in spec["per_layer"]}
    entry = {
        "correct": not measurement.problems,
        "problems": measurement.problems,
        "repeats": len(measurement.runs),
        "fingerprint": first["fingerprint"],
        "requests": first["requests"],
        "latency_samples": first["latency_samples"],
        "e2e": e2e,
        "layers": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in measurement.layers().items()
        },
        "ledger": measurement.traced["ledger"],
        "missing_entry_points": measurement.traced["missing_entry_points"],
        "trace": str(measurement.trace_path),
    }
    if "ladder" in first:
        entry["ladder"] = first["ladder"]
        entry["slo_rate_rps"] = first["slo_rate_rps"]
    if "replan_walls_s" in first:
        walls = [w for run in measurement.runs for w in run["replan_walls_s"]]
        entry["replan_s"] = statistics.median(walls) if walls else 0.0
        entry["replan_samples"] = len(walls)
    return entry


def _print_summary(workload: str, entry: dict) -> None:
    print(
        f"\n== {workload} · {entry['repeats']} untraced repeats + 1 traced "
        f"· {'correct' if entry['correct'] else 'INCORRECT'} =="
    )
    print("requests per run: " + "  ".join(
        f"{key} {value}" for key, value in entry["requests"].items()
    ) + f"  (latency samples {entry['latency_samples']})")
    print(f"  {'end-to-end metric':<26}{'median':>14}  {'range':>7}  unit")
    for name, row in entry["e2e"].items():
        spread = (max(row["values"]) - min(row["values"])) / row["median"]
        print(
            f"  {name:<26}{row['median']:>14.6g}  {spread:>6.1%}  {row['unit']}"
        )
    if "ladder" in entry:
        rungs = " | ".join(
            f"{rung['rate']:.2f} {'ok' if rung['meets_slo'] else 'miss'} "
            f"(ttft p99 {rung['ttft_p99_s']:.2f} s, tbt p99 "
            f"{rung['tbt_p99_s']:.3f} s)"
            for rung in entry["ladder"]
        )
        print(f"  slo ladder: {rungs} -> slo_rate_rps {entry['slo_rate_rps']:.2f} req/s")
    if "replan_s" in entry:
        print(
            f"  replan_s {entry['replan_s']:.4f} s "
            f"(median of {entry['replan_samples']} applied replans)"
        )
    print(f"  {'per-layer metric (traced run)':<36}{'value':>14}  unit")
    for name, row in entry["layers"].items():
        print(f"  {name:<36}{row['value']:>14.6g}  {row['unit']}")
    print("  top self-time layers: " + " · ".join(
        f"{row['layer']} {row['share']:.1%}" for row in entry["ledger"]
    ))
    if entry["missing_entry_points"]:
        print(f"  missing entry points: {entry['missing_entry_points']}")
    for problem in entry["problems"]:
        print(f"  INCORRECT {problem}")
    print(f"  trace: {entry['trace']}")


def suite(
    seed: int = 0,
    smoke: bool = False,
    out_dir: Path = DEFAULT_OUT,
) -> int:
    """Every workload: :data:`MIN_REPEATS` untraced runs plus one traced run.

    Prints every metric with its unit and writes ``results.json`` and one
    Chrome trace per workload to ``out_dir``. ``BENCHMARK.json`` declares
    the workloads whose seed-to-seed spread fits its bounds (see README).
    """
    spec = load_spec()
    results = {
        "seed": seed,
        "smoke": smoke,
        "machine": machine_stamp(),
        "workloads": {},
    }
    for workload in WORKLOADS:
        measurement = measure(workload, seed, smoke=smoke, trace_dir=out_dir)
        entry = _summary(measurement, spec)
        _print_summary(workload, entry)
        results["workloads"][workload] = entry
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "results.json"
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1)
    print(f"\nresults: {path}")
    return 0 if all(e["correct"] for e in results["workloads"].values()) else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(before: float, after: float, better: str, bound: float) -> str:
    """``WORSE`` beyond the bound in the bad direction, ``better`` beyond
    it in the good one, else ``ok``."""
    change = (after - before) / before if before else math.inf
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "WORSE"
    if worse_by < -bound:
        return "better"
    return "ok"


def compare(path_a: Path, path_b: Path) -> int:
    """Compare two suite results of one seed and size.

    Non-zero when they are not comparable (another seed or size), when
    either result is incorrect, or when a metric got worse by more than
    its bound on any workload present in both. Wall-clock metrics keep
    their ``BENCHMARK.json`` bound; :data:`SEED_EXACT` metrics get
    :data:`SAME_SEED_BOUND`.
    """
    spec = load_spec()
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    for key in ("seed", "smoke"):
        if a[key] != b[key]:
            print(f"not comparable: {key} {a[key]!r} in A, {b[key]!r} in B")
            return 1
    failures = 0
    for workload in (w for w in a["workloads"] if w in b["workloads"]):
        entry_a, entry_b = a["workloads"][workload], b["workloads"][workload]
        same = entry_a["fingerprint"] == entry_b["fingerprint"]
        print(
            f"\n== {workload} · token timelines "
            f"{'identical' if same else 'differ'} =="
        )
        for label, entry in (("A", entry_a), ("B", entry_b)):
            if not entry["correct"]:
                failures += 1
                print(f"  {label} INCORRECT: {entry['problems']}")
        print(
            f"  {'metric':<24}{'A median':>14}{'B median':>14}{'B/A':>9}"
            f"{'bound':>8}  verdict"
        )
        for row in spec["end_to_end"]:
            name = row["name"]
            bound = SAME_SEED_BOUND if name in SEED_EXACT else row["bound"]
            before = entry_a["e2e"][name]["median"]
            after = entry_b["e2e"][name]["median"]
            result = verdict(before, after, row["better"], bound)
            failures += result == "WORSE"
            ratio = after / before if before else math.inf
            print(
                f"  {name:<24}{before:>14.6g}{after:>14.6g}{ratio:>9.4f}"
                f"{bound:>8.2%}  {result}"
            )
        print(f"  {'per-layer metric':<36}{'A':>14}{'B':>14}{'B-A':>14}")
        layers_b = entry_b["layers"]
        for name, row in entry_a["layers"].items():
            if name in layers_b:
                before, after = row["value"], layers_b[name]["value"]
                print(
                    f"  {name:<36}{before:>14.6g}{after:>14.6g}"
                    f"{after - before:>+14.6g}"
                )
    print(
        f"\n{failures} failure(s): incorrect results, or metrics worse "
        "than their bound"
    )
    return 1 if failures else 0
