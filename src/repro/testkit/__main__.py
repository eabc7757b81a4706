"""Replay one scenario address with full verification.

This is the command every failing sweep test prints::

    PYTHONPATH=src python -m repro.testkit <family> <seed> [--size smoke]

Exit status 0 means every invariant and oracle held; 1 means violations
(printed, one per line); 2 means a bad address.

``python -m repro.testkit regen-golden`` instead rewrites the simulator's
golden digests (:mod:`repro.testkit.golden`) from runs of every case.
"""

from __future__ import annotations

import argparse
import sys

from repro.scenarios.generator import ALL_FAMILIES, generate_scenario
from repro.testkit.differential import check_milp_oracles
from repro.testkit.harness import verify_scenario


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["regen-golden"]:
        from repro.testkit.golden import golden_cases, regen_golden

        print(f"wrote {len(golden_cases())} cases to {regen_golden()}")
        return 0
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit",
        description="Replay and verify one generated scenario.",
    )
    parser.add_argument("family", choices=ALL_FAMILIES)
    parser.add_argument("seed", type=int)
    parser.add_argument(
        "--size", default="smoke", choices=("smoke", "full"),
        help="sweep tier the scenario was generated at",
    )
    parser.add_argument(
        "--skip-determinism", action="store_true",
        help="skip the double-run determinism check",
    )
    parser.add_argument(
        "--milp-oracles", action="store_true",
        help="also run the (slower) MILP formulation oracle",
    )
    args = parser.parse_args(argv)

    scenario = generate_scenario(args.family, args.seed, args.size)
    print(scenario.describe())

    report = verify_scenario(
        args.family, args.seed, args.size,
        determinism=not args.skip_determinism,
    )
    if args.milp_oracles:
        report.violations.extend(
            check_milp_oracles(args.family, args.seed, args.size)
        )

    print(
        f"planner={report.planner_used} "
        f"planned_throughput={report.planned_throughput:.2f} tok/s"
    )
    if report.metrics is not None:
        m = report.metrics
        print(
            f"finished {m.requests_finished}/{m.requests_submitted} requests, "
            f"decode throughput {m.decode_throughput:.2f} tok/s, "
            f"{m.requests_retried} retried, {m.requests_migrated} migrated"
        )
    if report.ok:
        print("OK: every invariant and oracle held")
        return 0
    print(report.failure_message(), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
