"""CLI: ``python -m repro.exp`` — one command for every named sweep.

Subcommands::

    run <name>   execute a named experiment (resumable, --workers N)
    list         print every registered experiment
    index        rebuild the plotting index over the results root

``run`` exits 1 when any cell fails, so CI jobs routed through it keep
their fail-and-upload-artifact behavior, and 2 when a flag the
experiment does not take was set.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.exp.experiments import EXPERIMENTS, get_experiment
from repro.exp.runner import run_experiment
from repro.exp.store import DEFAULT_ROOT, update_index, write_json

#: Experiments whose aggregate carries a headline block that legacy
#: ``BENCH_*.json`` consumers read (``--headline-out``).
_HEADLINE_BENCHES = {
    "chaos-sweep": "chaos_sweep",
    "elastic-sweep": "elastic_sweep",
    "tenant-sweep": "tenant_sweep",
    "policy-compare": "policy_compare",
}


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        spec = get_experiment(name)
        print(f"{name:<{width}}  {spec.description}")
    return 0


def _cmd_index(results_dir: str) -> int:
    path = update_index(Path(results_dir))
    print(f"index -> {path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = get_experiment(
            args.name,
            seeds=args.seeds,
            size=args.size,
            milp_oracles=args.milp_oracles or None,
            families=tuple(args.families) if args.families else None,
        )
    except TypeError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    report = run_experiment(
        spec,
        workers=args.workers,
        results_root=args.results_dir,
        force=args.force,
        quiet=args.quiet,
    )
    aggregate = report.aggregate

    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        # Legacy full-report path: the aggregate plus this invocation's
        # wall time (kept out of aggregate.json so resumes stay
        # byte-identical).
        write_json(out, {**aggregate, "wall_seconds": report.wall_seconds})
    if args.headline_out:
        bench = _HEADLINE_BENCHES.get(args.name)
        if bench is None or "headline" not in aggregate:
            print(
                f"--headline-out: experiment {args.name!r} has no "
                "headline block", file=sys.stderr,
            )
            return 2
        write_json(Path(args.headline_out), {
            "bench": bench,
            "size": aggregate.get("size"),
            "seeds": aggregate.get("seeds"),
            "derived": aggregate["headline"],
            "machine": report.machine,
        })

    print(
        f"\n{report.experiment}: {report.total_cells} cells "
        f"({report.executed} executed, {report.skipped} resumed), "
        f"{report.failures} failing, {report.wall_seconds}s "
        f"with {report.workers} worker(s)"
    )
    for cell in report.failing_cells:
        print(f"FAIL {cell['kind']} {json.dumps(cell['params'])}")
        if cell.get("repro"):
            print(f"  reproduce: {cell['repro']}")
    return 1 if report.failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a named experiment")
    run.add_argument("name", choices=sorted(EXPERIMENTS))
    run.add_argument("--workers", type=int, default=1,
                     help="worker processes (1 = inline, no pool)")
    run.add_argument("--seeds", type=int, default=None,
                     help="override the experiment's seed count")
    run.add_argument("--size", default=None, choices=("smoke", "full"))
    run.add_argument("--milp-oracles", action="store_true",
                     help="also run the MILP differential oracles")
    run.add_argument("--families", nargs="+", default=None,
                     help="restrict the family axis")
    run.add_argument("--results-dir", default=str(DEFAULT_ROOT),
                     help="run-store root (records, manifests, index)")
    run.add_argument("--force", action="store_true",
                     help="re-execute cells even if their records exist")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-cell progress lines")
    run.add_argument("--output", default=None,
                     help="also write the aggregate report to this path")
    run.add_argument("--headline-out", default=None,
                     help="also write the BENCH_*.json headline document")

    sub.add_parser("list", help="print every registered experiment")

    index = sub.add_parser("index", help="rebuild the plotting index")
    index.add_argument("--results-dir", default=str(DEFAULT_ROOT))

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "index":
        return _cmd_index(args.results_dir)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
