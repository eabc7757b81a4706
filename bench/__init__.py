"""Layered end-to-end benchmark of the Helix reproduction.

``python -m bench`` runs plan -> simulate -> verify on four workloads, each
repeat in a fresh child process, and attributes the time layer by layer
from one traced run per workload. See ``bench/README.md``.
"""

import json
from pathlib import Path

#: The repository root (the benchmark lives in its ``bench/`` directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_spec() -> dict:
    """``BENCHMARK.json``: workloads, metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)
