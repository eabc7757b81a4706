"""Experiment harness: one call per paper table/figure cell.

:mod:`repro.bench.runner` glues planner -> scheduler -> simulator into the
paper's two serving settings (offline and online). :mod:`repro.bench.tables`
regenerates the static tables. ``benchmarks/`` (pytest-benchmark) calls
into this package, one module per table/figure.
"""

from repro.bench.runner import (
    ExperimentResult,
    make_planner,
    make_scheduler,
    run_serving,
    run_offline,
    run_online,
)
from repro.bench.tables import (
    table1_min_gpus,
    table3_gpu_catalog,
    format_table,
)
from repro.bench.casestudy import (
    NodeUtilization,
    CongestedLink,
    utilization_report,
    congestion_report,
    format_utilization,
)

__all__ = [
    "ExperimentResult",
    "make_planner",
    "make_scheduler",
    "run_serving",
    "run_offline",
    "run_online",
    "table1_min_gpus",
    "table3_gpu_catalog",
    "format_table",
    "NodeUtilization",
    "CongestedLink",
    "utilization_report",
    "congestion_report",
    "format_utilization",
]
