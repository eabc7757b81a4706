"""Machine provenance stamping for benchmark artifacts.

Every benchmark number is only comparable to another run if both
record *where* they ran: the same run is several times faster on a
fast many-core runner than on a small container without either result
being wrong. The stamp deliberately stays tiny — CPU model, logical core
count, python version and platform string — so artifacts diff cleanly
across machines.
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


def machine_stamp() -> dict:
    """The provenance dict stamped into every benchmark artifact."""
    return {
        "cpu_model": cpu_model(),
        "cpu_count": cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
