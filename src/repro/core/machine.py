"""Machine provenance stamping for benchmark artifacts.

Every benchmark number is only comparable to another run if both
record *where* they ran: the same sweep is 4x faster on an 8-core runner
than on a 1-core container without either result being wrong. The stamp
deliberately stays tiny — CPU model, logical core count, python version,
platform string, and (when a worker pool produced the numbers) the worker
count — so artifacts diff cleanly across machines.
"""

from __future__ import annotations

import os
import platform
import sys

_CPUINFO = "/proc/cpuinfo"


def cpu_model() -> str:
    """Best-effort CPU model string (``/proc/cpuinfo`` on Linux)."""
    try:
        with open(_CPUINFO, encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    # platform.processor() is empty on many Linuxes; fall back down the
    # chain so the stamp never ends up blank.
    return platform.processor() or platform.machine() or "unknown"


def cpu_count() -> int:
    """Logical CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def machine_stamp(workers: int | None = None) -> dict:
    """The provenance dict stamped into every benchmark artifact.

    Args:
        workers: Worker-pool size that produced the numbers; ``None`` for
            single-process benchmarks (recorded as 1 — the honest answer
            for comparing against a parallel run of the same sweep).
    """
    return {
        "cpu_model": cpu_model(),
        "cpu_count": cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "workers": 1 if workers is None else int(workers),
    }
