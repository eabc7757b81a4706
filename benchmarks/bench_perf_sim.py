"""Serving-simulator throughput benchmark: the engine vs. its baseline.

Runs the flooded / Poisson-online / churn-soak scenarios at small, medium,
and large trace sizes through both the simulation engine and the frozen
pre-overhaul engine (``repro.sim._legacy_reference``), plus the diurnal
scenario through the engine alone, then writes
``BENCH_sim.json`` at the repo root. The headline number is the flooded
fig12-small ``sim_flooded_large_speedup`` — the tentpole >=10x
simulated-tokens-per-wall-second target.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_sim.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.bench.simbench import DEFAULT_SIM_OUTPUT, run_sim_bench  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small tiers only (seconds-scale, what tier-1 runs)",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"output path (default: {DEFAULT_SIM_OUTPUT})",
    )
    args = parser.parse_args()
    document = run_sim_bench(smoke=args.smoke, path=args.out)
    print(f"label: {document['label']}")
    for name, value in sorted(document["derived"].items()):
        print(f"  {name}: {value:.2f}")
    target = args.out if args.out is not None else DEFAULT_SIM_OUTPUT
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
