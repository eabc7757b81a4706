"""Experiment specifications: named grids expanded to content-hashed cells.

An *experiment* is a name plus a deterministic run manifest: the cartesian
product of a parameter grid (axes like family, seed, scheduling policy)
over a base configuration, optionally joined by hand-placed extra cells
(controlled contrast experiments that don't fit a grid). Every cell is
identified by a content hash of its ``(kind, params)`` — the hash is the
record's filename in the run store, the resume key after a kill, and the
dedup key when two experiments share a cell.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field


def _canonical(value):
    """Normalize params to a JSON-stable shape (tuples -> lists, etc.)."""
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value
    raise TypeError(
        f"cell params must be plain JSON data, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class RunCell:
    """One unit of work: a cell kind plus its JSON-plain parameters.

    Attributes:
        kind: Key into the cell-function registry
            (:data:`repro.exp.cells.CELL_KINDS`).
        params: Parameters passed to the cell function, as a sorted tuple
            of ``(key, json-string)`` pairs so the cell is hashable and
            order-independent.
    """

    kind: str
    params: tuple[tuple[str, str], ...]

    @classmethod
    def make(cls, kind: str, params: dict) -> "RunCell":
        return cls(
            kind=kind,
            params=tuple(sorted(
                (key, json.dumps(_canonical(value), sort_keys=True))
                for key, value in params.items()
            )),
        )

    @property
    def params_dict(self) -> dict:
        """The params as a plain dict (JSON round-tripped)."""
        return {key: json.loads(value) for key, value in self.params}

    @property
    def cell_hash(self) -> str:
        """Content hash of ``(kind, params)`` — the cell's stable identity.

        20 hex chars of SHA-256: filename-friendly and far beyond any
        realistic collision risk for manifest sizes in the thousands.
        """
        payload = json.dumps(
            {"kind": self.kind, "params": self.params_dict}, sort_keys=True
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:20]

    def label(self) -> str:
        """Short human-readable cell description for progress lines."""
        params = self.params_dict
        parts = [
            str(params[key])
            for key in ("family", "seed", "scheduler")
            if key in params
        ]
        return f"{self.kind}:{'/'.join(parts)}" if parts else self.kind


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment: grid x base params -> deterministic manifest.

    Attributes:
        name: The experiment's registry name (``python -m repro.exp run
            <name>``).
        description: One line for ``python -m repro.exp list``.
        kind: Cell kind every grid cell runs as.
        grid: Ordered axes; the manifest is their cartesian product in
            declaration order (axis values keep their given order), so
            the manifest is deterministic and diffable.
        base: Constant params merged into every grid cell.
        extra_cells: Hand-placed cells appended after the grid
            (controlled contrast experiments).
        aggregate: Key into the aggregator registry
            (:data:`repro.exp.aggregate.AGGREGATORS`).
    """

    name: str
    description: str
    kind: str
    grid: tuple[tuple[str, tuple], ...] = ()
    base: tuple[tuple[str, str], ...] = ()
    extra_cells: tuple[RunCell, ...] = ()
    aggregate: str = "generic"

    @classmethod
    def make(
        cls,
        name: str,
        description: str,
        kind: str,
        grid: dict | None = None,
        base: dict | None = None,
        extra_cells: tuple[RunCell, ...] = (),
        aggregate: str = "generic",
    ) -> "ExperimentSpec":
        return cls(
            name=name,
            description=description,
            kind=kind,
            grid=tuple(
                (axis, tuple(values)) for axis, values in (grid or {}).items()
            ),
            base=tuple(sorted(
                (key, json.dumps(_canonical(value), sort_keys=True))
                for key, value in (base or {}).items()
            )),
            extra_cells=tuple(extra_cells),
            aggregate=aggregate,
        )

    @property
    def base_dict(self) -> dict:
        return {key: json.loads(value) for key, value in self.base}

    def cells(self) -> list[RunCell]:
        """Expand the manifest: grid product (declaration order) + extras."""
        axes = [axis for axis, _ in self.grid]
        expanded: list[RunCell] = []
        if axes:
            value_lists = [values for _, values in self.grid]
            for combo in itertools.product(*value_lists):
                params = dict(self.base_dict)
                params.update(dict(zip(axes, combo)))
                expanded.append(RunCell.make(self.kind, params))
        expanded.extend(self.extra_cells)
        return expanded

    def manifest(self) -> dict:
        """The JSON manifest document: every cell with its content hash."""
        cells = self.cells()
        return {
            "experiment": self.name,
            "description": self.description,
            "aggregate": self.aggregate,
            "total_cells": len(cells),
            "cells": [
                {
                    "hash": cell.cell_hash,
                    "kind": cell.kind,
                    "params": cell.params_dict,
                }
                for cell in cells
            ],
        }
