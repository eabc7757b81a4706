"""Command line of the benchmark.

    python -m bench                      # the suite: every workload, 3 untraced
                                         # repeats + 1 traced, report + traces
    python -m bench --workload W --seed N --seconds S --trace 0|1
                                         # one workload; last line is a JSON result
    python -m bench compare A.json B.json

Run from the repository root; ``src`` is put on the path when needed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench import SRC


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", help="run one workload (default: the suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep repeating untraced runs until this many seconds passed",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="with --workload: report the per-layer metrics of a traced run",
    )
    parser.add_argument("--smoke", action="store_true", help="seconds-scale sizes")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no sources to benchmark at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    from bench import run

    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: python -m bench compare A.json B.json", file=sys.stderr)
            return 2
        return run.compare(Path(argv[1]), Path(argv[2]))
    if argv[:1] == ["child"]:
        parser = argparse.ArgumentParser(prog="python -m bench child")
        parser.add_argument("workload", choices=run.WORKLOADS)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--t0", type=float, required=True)
        parser.add_argument("--smoke", action="store_true")
        parser.add_argument("--trace-out")
        args = parser.parse_args(argv[1:])
        from bench.workloads import child_main

        return child_main(
            args.workload, args.seed, args.smoke, args.t0, args.trace_out
        )

    args = _parse(argv)
    out_dir = args.out or run.DEFAULT_OUT
    try:
        if args.workload is None:
            return run.suite(args.seed, args.smoke, out_dir)
        if args.workload not in run.WORKLOADS:
            print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        return run.run_one(
            args.workload, args.seed, args.seconds, bool(args.trace),
            smoke=args.smoke, out_dir=out_dir,
        )
    except run.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
