"""Outside-in span tracer for the benchmark's traced run.

Nothing under ``src/`` knows about this module. :class:`Tracer` replaces
each public entry point in :data:`ENTRY_POINTS` with a thin wrapper for as
long as it is installed, and records one :class:`Span` per call: its name,
start, end, parent span, and the benchmark context (workload, rung or
cell) current at the call. A function imported by name is a separate
reference in every importing module, so module-level functions are
replaced in every loaded ``repro`` or ``bench`` module that holds them;
methods are replaced on their class.

An entry point that no longer exists where :data:`ENTRY_POINTS` lists it
is reported in :attr:`Tracer.missing` instead of raising, so the benchmark
keeps running after a refactor renames, moves or deletes one.

Self time is a span's duration minus the time its child spans cover.
:meth:`Tracer.write_chrome` exports the spans as Chrome trace-event JSON,
which opens in Perfetto (https://ui.perfetto.dev) and chrome://tracing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: ``(span name, module, attribute path)`` of every wrapped entry point.
#: Span names are ``<layer>.<operation>``, after the repository's modules.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("milp.compile", "repro.milp.model", "MilpProblem.compile"),
    ("milp.highs", "repro.milp.scipy_backend", "solve_with_highs"),
    ("placement.plan", "repro.placement.helix_milp", "HelixMilpPlanner.plan"),
    ("placement.plan", "repro.placement.swarm", "SwarmPlanner.plan"),
    ("placement.plan", "repro.placement.petals", "PetalsPlanner.plan"),
    ("placement.plan", "repro.placement.separate",
     "SeparatePipelinesPlanner.plan"),
    ("placement.replan", "repro.placement.helix_milp",
     "HelixMilpPlanner.replan"),
    ("placement.prune", "repro.placement.pruning", "prune_cluster"),
    ("placement.build_formulation", "repro.placement.helix_milp",
     "HelixMilpPlanner.build_formulation"),
    ("placement.hints", "repro.placement.helix_milp",
     "HelixMilpPlanner.heuristic_hints"),
    ("flow.solve", "repro.flow.graph", "FlowGraph.solve"),
    ("flow.reevaluate", "repro.flow.graph", "FlowGraph.reevaluate"),
    ("flow.refresh_links", "repro.flow.graph", "FlowGraph.refresh_links"),
    ("flow.maxflow", "repro.flow.maxflow", "FlowNetwork.max_flow"),
    ("scheduling.schedule", "repro.scheduling.base", "Scheduler.schedule"),
    ("sim.run", "repro.sim.simulator", "Simulation.run"),
    ("online.react", "repro.online.controller", "OnlineController.react"),
    ("testkit.check_planner", "repro.testkit.invariants",
     "check_planner_result"),
    ("testkit.check_simulation", "repro.testkit.invariants",
     "check_simulation"),
    ("testkit.family_checks", "repro.testkit.invariants", "check_chaos"),
    ("testkit.family_checks", "repro.testkit.invariants", "check_elastic"),
    ("testkit.family_checks", "repro.testkit.invariants", "check_tenancy"),
    ("testkit.flow_differential", "repro.testkit.differential",
     "check_reevaluate_vs_rebuild"),
    ("testkit.run_scenario", "repro.testkit.harness", "run_scenario"),
    ("testkit.verify_scenario", "repro.testkit.harness", "verify_scenario"),
    ("scenarios.generate", "repro.scenarios.generator", "generate_scenario"),
    ("trace.synthesize", "repro.trace.azure", "synthesize_azure_trace"),
    ("trace.arrivals", "repro.trace.arrival", "offline_arrivals"),
    ("trace.arrivals", "repro.trace.arrival", "poisson_arrivals"),
    ("trace.arrivals", "repro.trace.arrival", "diurnal_arrivals"),
    ("cluster.validate", "repro.cluster.cluster", "Cluster.validate"),
)

#: Span names whose ``(self argument, return value)`` pairs are kept for
#: the post-run counters (the simulation object, the planner result).
KEEP_RETURNS = frozenset({"sim.run", "placement.plan"})

#: Packages whose loaded modules are searched for by-name references of
#: wrapped functions.
_PATCHED_PACKAGES = ("repro", "bench")


@dataclass
class Span:
    """One traced call (times from :func:`time.perf_counter`)."""

    name: str
    start: float
    parent: int
    context: str
    #: Another span of the same name was open when this one started.
    nested: bool
    end: float = 0.0
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class NameTotals:
    """Aggregates of every span of one name."""

    calls: int = 0
    #: Summed durations of the spans not nested in a same-name span.
    seconds: float = 0.0
    self_seconds: float = 0.0
    #: Calls that returned ``None``.
    none_returns: int = 0


class Tracer:
    """Records spans around the entry points while installed.

    Use as a context manager; :meth:`install` and :meth:`uninstall` pair
    up otherwise. ``context`` is stamped on every span opened while it is
    set.
    """

    def __init__(self, entry_points=ENTRY_POINTS) -> None:
        self.entry_points = tuple(entry_points)
        self.spans: list[Span] = []
        #: ``module:attribute`` of every entry point that does not exist.
        self.missing: list[str] = []
        #: Span name -> ``(self argument, return value)`` per call, for
        #: the names in :data:`KEEP_RETURNS`.
        self.returns: dict[str, list[tuple[object, object]]] = {}
        self.context = ""
        self._none_returns: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for name, module_name, path in self.entry_points:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                # Defined right there, not inherited: restoring then puts
                # back exactly what was replaced.
                original = vars(owner)[attribute]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, wrapper)
                continue
            for module in list(sys.modules.values()):
                package = getattr(module, "__name__", "").split(".", 1)[0]
                if package not in _PATCHED_PACKAGES:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, attribute: str, wrapper) -> None:
        self._restore.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, function):
        keep = self.returns.setdefault(name, []) if name in KEEP_RETURNS else None

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if result is None:
                self._none_returns[name] = self._none_returns.get(name, 0) + 1
            if keep is not None:
                keep.append((args[0] if args else None, result))
            return result

        return traced

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self, name: str) -> int:
        spans = self.spans
        nested = any(spans[i].name == name for i in self._stack)
        parent = self._stack[-1] if self._stack else -1
        spans.append(Span(name, time.perf_counter(), parent, self.context, nested))
        index = len(spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def totals(self) -> dict[str, NameTotals]:
        """Per span name: calls, outermost seconds, self seconds."""
        out: dict[str, NameTotals] = {}
        for span in self.spans:
            row = out.setdefault(span.name, NameTotals())
            row.calls += 1
            row.self_seconds += span.self_time
            if not span.nested:
                row.seconds += span.duration
        for name, count in self._none_returns.items():
            out.setdefault(name, NameTotals()).none_returns = count
        return out

    def seconds_within(self, name: str, ancestor: str) -> float:
        """Outermost seconds of ``name`` spans opened inside an
        ``ancestor`` span."""
        spans = self.spans
        total = 0.0
        for span in spans:
            if span.name != name or span.nested:
                continue
            parent = span.parent
            while parent >= 0 and spans[parent].name != ancestor:
                parent = spans[parent].parent
            if parent >= 0:
                total += span.duration
        return total

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer (the span-name prefix before the dot)."""
        out: dict[str, float] = {}
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + span.self_time
        return out

    def write_chrome(self, path, process_name: str) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 1,
            "args": {"name": process_name},
        }]
        for index, span in enumerate(self.spans):
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {
                    "id": index,
                    "parent": span.parent,
                    "context": span.context,
                    "self_us": span.self_time * 1e6,
                },
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
