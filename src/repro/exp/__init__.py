"""Process-parallel, resumable experiment orchestration.

One command for every sweep: an *experiment* is a named parameter grid
(families x seeds x policies) expanded into a deterministic manifest of
content-hashed cells, executed by a worker pool, with every completed
cell's record persisted immediately so a killed sweep resumes exactly
where it stopped (``python -m repro.exp run <name> --workers N``).
Aggregators rebuild the sweep reports and the chaos / elastic / tenant
headline documents from the records, and an index over all experiments
feeds plotting scripts.
"""

from repro.exp.aggregate import AGGREGATORS
from repro.exp.cells import CELL_KINDS
from repro.exp.experiments import EXPERIMENTS, get_experiment
from repro.exp.runner import RunReport, execute_cell, run_experiment
from repro.exp.spec import ExperimentSpec, RunCell
from repro.exp.store import DEFAULT_ROOT, RunStore, update_index

__all__ = [
    "AGGREGATORS",
    "CELL_KINDS",
    "DEFAULT_ROOT",
    "EXPERIMENTS",
    "ExperimentSpec",
    "RunCell",
    "RunReport",
    "RunStore",
    "execute_cell",
    "get_experiment",
    "run_experiment",
    "update_index",
]
