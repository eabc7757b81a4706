"""Experiment harness: one call per paper table/figure cell.

:mod:`repro.bench.runner` glues planner -> scheduler -> simulator: one
:class:`RunSpec` per serving run, wired by :func:`make_simulation`.
:mod:`repro.bench.tables` regenerates the static tables. ``benchmarks/``
(pytest-benchmark) calls into this package, one module per table/figure.
"""

from repro.bench.runner import (
    RunSpec,
    make_planner,
    make_scheduler,
    make_simulation,
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
    "RunSpec",
    "make_planner",
    "make_scheduler",
    "make_simulation",
    "table1_min_gpus",
    "table3_gpu_catalog",
    "format_table",
    "NodeUtilization",
    "CongestedLink",
    "utilization_report",
    "congestion_report",
    "format_utilization",
]
