"""Perf: the MILP layer — compile, branch-and-bound, and planner re-solves.

Like ``bench_perf_flow.py``, this module tracks *our own* performance. PR 1
made flow evaluation fast, leaving end-to-end Helix planning MILP-bound
(~22.7 s on the Fig. 12 small cluster); the scenarios here time the MILP
stack before/after its overhaul and write ``BENCH_milp.json`` at the repo
root:

* formulation compile under LNS-like constraint churn — incremental
  structure cache vs. full recompile per round;
* feasibility checking — one sparse mat-vec vs. the per-constraint loop;
* branch-and-bound ablation — pseudocost branching + diving + propagation
  on vs. off, counting nodes, LP solves, and time-to-first-incumbent on a
  formulation solved to proven optimality both ways;
* end-to-end Helix MILP planning (headline, target >= 3x) — the
  pre-optimization configuration (full-budget solve, rebuild-per-round
  LNS) vs. the root-node probe and adaptive budget slicing + incremental
  bounds-tightened LNS re-solves, on both the HiGHS and bnb backends, with
  final placement throughput cross-checked for parity.

Run directly (``python benchmarks/bench_perf_milp.py``) or through pytest
(``pytest benchmarks/bench_perf_milp.py``).
"""

import pytest

from repro.bench.perftrack import (
    DEFAULT_MILP_OUTPUT,
    PerfTracker,
    bench_milp_bnb,
    bench_milp_compile,
    bench_milp_feascheck,
    bench_milp_planner,
)

PLANNER_SPEEDUP_TARGET = 3.0
PARITY_TOL = 1e-6


def run_full(include_planner: bool = True) -> PerfTracker:
    """Run the full-size configuration and write ``BENCH_milp.json``."""
    tracker = PerfTracker(label="milp-full")
    bench_milp_compile(tracker)
    bench_milp_feascheck(tracker)
    bench_milp_bnb(tracker)
    if include_planner:
        bench_milp_planner(tracker)
    tracker.write(DEFAULT_MILP_OUTPUT)
    return tracker


def summarize(tracker: PerfTracker) -> str:
    lines = [
        f"{t.name}: best {t.best_s * 1e3:.1f} ms over {t.repeats} laps"
        for t in tracker.timings
    ]
    lines += [f"{name}: {value:.3f}" for name, value in tracker.derived.items()]
    return "\n".join(lines)


@pytest.mark.perf
def test_perf_milp(report):
    tracker = run_full()
    report("perf_milp", summarize(tracker))
    derived = tracker.derived
    speedup = derived["milp_planner_speedup"]
    assert speedup >= PLANNER_SPEEDUP_TARGET, (
        f"end-to-end Helix MILP planning only {speedup:.2f}x faster than the "
        f"pre-optimization baseline (target {PLANNER_SPEEDUP_TARGET}x)"
    )
    assert derived["milp_planner_backend_parity"] <= PARITY_TOL, (
        "highs and bnb backends disagree on placement throughput by "
        f"{derived['milp_planner_backend_parity']:.3e}"
    )
    assert derived["bnb_node_factor"] > 1.0, (
        "pseudocost branching + diving should explore fewer nodes, got "
        f"factor {derived['bnb_node_factor']:.2f}"
    )
    assert derived["milp_compile_speedup"] > 1.0
    assert derived["milp_feascheck_speedup"] > 1.0


if __name__ == "__main__":
    print(summarize(run_full()))
