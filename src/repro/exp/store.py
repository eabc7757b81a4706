"""The resumable run store: content-hash-keyed records plus indexes.

Layout under the store root (default ``benchmarks/results/exp``)::

    <root>/index.json                      plotting index over experiments
    <root>/<experiment>/manifest.json      the expanded cell manifest
    <root>/<experiment>/runs/<hash>.json   one record per completed cell
    <root>/<experiment>/runs.csv           flat per-run table for plotting
    <root>/<experiment>/aggregate.json     the experiment's headline doc

Records land atomically (tmp file + ``os.replace``) the moment a cell
finishes, so a killed sweep leaves only whole records behind; the next
invocation reads ``runs/`` and executes only the missing hashes.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path

DEFAULT_ROOT = Path("benchmarks/results/exp")

#: Columns of runs.csv; every record key outside these goes into `extra`.
_CSV_COLUMNS = (
    "hash", "kind", "family", "seed", "size", "scheduler", "ok",
    "seconds", "fingerprint", "planner",
)


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_json(path: Path, document: dict) -> None:
    """Atomically write a JSON document with a stable layout."""
    _atomic_write_text(path, json.dumps(document, indent=2) + "\n")


class RunStore:
    """Filesystem store for one experiment's manifest, runs, and aggregate."""

    def __init__(self, root: Path | str, experiment: str):
        self.root = Path(root)
        self.experiment = experiment
        self.exp_dir = self.root / experiment
        self.runs_dir = self.exp_dir / "runs"

    # -- manifest ------------------------------------------------------
    def write_manifest(self, manifest: dict) -> Path:
        path = self.exp_dir / "manifest.json"
        write_json(path, manifest)
        return path

    def read_manifest(self) -> dict | None:
        path = self.exp_dir / "manifest.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # -- run records ---------------------------------------------------
    def run_path(self, cell_hash: str) -> Path:
        return self.runs_dir / f"{cell_hash}.json"

    def completed_hashes(self) -> set[str]:
        if not self.runs_dir.is_dir():
            return set()
        return {p.stem for p in self.runs_dir.glob("*.json")}

    def write_record(self, cell_hash: str, record: dict) -> Path:
        path = self.run_path(cell_hash)
        write_json(path, record)
        return path

    def read_record(self, cell_hash: str) -> dict | None:
        path = self.run_path(cell_hash)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def read_records(self, manifest: dict) -> list[dict]:
        """All completed records in manifest order (missing cells skipped).

        Manifest order — not directory order — so aggregates built from
        the records are byte-stable regardless of which worker finished
        which cell first.
        """
        records = []
        for entry in manifest["cells"]:
            record = self.read_record(entry["hash"])
            if record is not None:
                records.append({"hash": entry["hash"], **record})
        return records

    # -- derived artifacts ---------------------------------------------
    def write_csv(self, records: list[dict]) -> Path:
        """Flat per-run table (one row per record) for plotting scripts."""
        path = self.exp_dir / "runs.csv"
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with tmp.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for record in records:
                writer.writerow([
                    "" if record.get(col) is None else record.get(col)
                    for col in _CSV_COLUMNS
                ])
        os.replace(tmp, path)
        return path

    def write_aggregate(self, aggregate: dict) -> Path:
        path = self.exp_dir / "aggregate.json"
        write_json(path, aggregate)
        return path

    def read_aggregate(self) -> dict | None:
        path = self.exp_dir / "aggregate.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())


def update_index(root: Path | str) -> Path:
    """Rebuild ``<root>/index.json``: experiment -> runs -> aggregate.

    The plotting entry point: a figure script loads the index, follows an
    experiment's ``runs_csv`` / ``aggregate`` paths, and never needs to
    know how the grid was expanded.
    """
    root = Path(root)
    experiments = {}
    for manifest_path in sorted(root.glob("*/manifest.json")):
        exp_dir = manifest_path.parent
        manifest = json.loads(manifest_path.read_text())
        name = manifest["experiment"]
        store = RunStore(root, name)
        completed = store.completed_hashes()
        wanted = {entry["hash"] for entry in manifest["cells"]}
        experiments[name] = {
            "description": manifest.get("description", ""),
            "manifest": str(manifest_path.relative_to(root)),
            "total_cells": manifest["total_cells"],
            "completed_cells": len(wanted & completed),
            "runs_dir": str((exp_dir / "runs").relative_to(root)),
            "runs_csv": (
                str((exp_dir / "runs.csv").relative_to(root))
                if (exp_dir / "runs.csv").exists() else None
            ),
            "aggregate": (
                str((exp_dir / "aggregate.json").relative_to(root))
                if (exp_dir / "aggregate.json").exists() else None
            ),
        }
    path = root / "index.json"
    write_json(path, {"experiments": experiments})
    return path
