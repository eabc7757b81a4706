"""Windowed fairness accounting across tenants.

Service is accumulated into fixed-width time windows and fairness is
judged over a *backlog* of the last ``N`` windows (the current window
plus the ``N - 1`` before it). Two service currencies are supported:

* **W (amount-of-work)** — tokens served per window. A tenant's
  observed share is its fraction of all tokens generated inside the
  backlog horizon.
* **T (time-based)** — seconds of pipeline occupancy per window. Each
  in-flight request holds its pipeline from dispatch to release; the
  held span is spread across the windows it overlaps.

For each *active* tenant (one that consumed service inside the backlog
or is currently backlogged) the tracker computes

    deficit_t = entitled_t - observed_t / total_observed

where ``entitled_t`` is the tenant's normalized rate share
(renormalized over active tenants only, so an idle tenant neither earns
debt nor dilutes the entitlement of the busy ones). A positive deficit
means the tenant got less than its entitlement over the backlog and the
deficit-aware selector should prefer it.

The fairness *index* reported in metrics is Jain's index over the
ratio observed/entitled per active tenant:

    J(x) = (sum x_i)^2 / (n * sum x_i^2)

1.0 means perfectly proportional service; 1/n means one tenant got
everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class FairnessConfig:
    """Knobs for windowed fairness.

    Attributes:
        mode: Service currency — ``"W"`` (amount-of-work: tokens) or
            ``"T"`` (time-based: pipeline-hold seconds).
        window: Width of one accounting window, seconds.
        backlog_windows: Number of windows (including the current one)
            the deficit is computed over. ``window * backlog_windows``
            is the fairness horizon: the no-starvation invariant demands
            every backlogged tenant be served at least once per horizon.
        slo_weight: How strongly SLO pressure (distance between the
            target percentile and recent TTFT attainment) is added to
            the fairness deficit when scoring tenants.
        selector: ``"deficit"`` — the fair, deficit-aware selector — or
            ``"priority"`` — strict highest-priority-first, the
            deliberately unfair control used to prove the starvation
            invariant has teeth.
    """

    mode: str = "W"
    window: float = 2.0
    backlog_windows: int = 4
    slo_weight: float = 0.5
    selector: str = "deficit"

    def __post_init__(self) -> None:
        if self.mode not in ("W", "T"):
            raise ValueError(f"fairness mode must be 'W' or 'T', got {self.mode!r}")
        if not (math.isfinite(self.window) and self.window > 0):
            raise ValueError(
                f"window must be finite and positive, got {self.window}"
            )
        if self.backlog_windows < 1:
            raise ValueError(
                f"backlog_windows must be >= 1, got {self.backlog_windows}"
            )
        if not (math.isfinite(self.slo_weight) and self.slo_weight >= 0):
            raise ValueError(
                f"slo_weight must be finite and >= 0, got {self.slo_weight}"
            )
        if self.selector not in ("deficit", "priority"):
            raise ValueError(
                f"selector must be 'deficit' or 'priority', got {self.selector!r}"
            )

    @property
    def horizon(self) -> float:
        """The fairness horizon in seconds (window * backlog_windows)."""
        return self.window * self.backlog_windows


def jain_index(values: Iterable[float], any_demand: bool = False) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    Ranges from ``1/n`` (one value holds everything — zeros count
    toward ``n``, that is the whole point) to ``1.0`` (perfectly even).

    The all-zero case is ambiguous and ``any_demand`` disambiguates it:
    an *idle* system (nobody asked for service) is vacuously fair and
    scores 1.0, but a fully-*starved* system (tenants had queued demand
    and got nothing) is maximally unfair and scores ``1/n``. Callers
    that know about queued demand — the windowed tracker — thread it
    through; the default preserves the idle-is-fair reading. An empty
    list always returns 1.0.
    """
    xs = list(values)
    if not xs:
        return 1.0
    total = sum(xs)
    squares = sum(x * x for x in xs)
    if squares <= 0:
        return 1.0 / len(xs) if any_demand else 1.0
    return (total * total) / (len(xs) * squares)


def fairness_deficits(
    shares: Mapping[str, float],
    observed: Mapping[str, float],
    backlogged: Iterable[str] = (),
) -> dict[str, float]:
    """Fairness deficit per *active* tenant, given its observed service.

    A tenant is active if it consumed service (``observed > 0``) or is
    currently backlogged (has queued work). Entitled shares are
    renormalized over active tenants, so a zero-demand tenant
    contributes no fairness debt and takes no entitlement away from the
    tenants actually competing. Inactive tenants get deficit 0. Sums run
    in sorted tenant order, so the result does not depend on set
    iteration order (``PYTHONHASHSEED``).
    """
    active = sorted(
        {tid for tid, amount in observed.items() if amount > 0}
        | {tid for tid in backlogged if tid in shares}
    )
    out = {tid: 0.0 for tid in shares}
    entitled_total = sum(shares[tid] for tid in active)
    observed_total = sum(observed[tid] for tid in active)
    for tid in active:
        entitled = shares[tid] / entitled_total
        got = observed[tid] / observed_total if observed_total > 0 else 0.0
        out[tid] = entitled - got
    return out


class WindowedFairnessTracker:
    """Accumulates per-tenant service into fixed-width windows.

    Windows are indexed ``int(when // window)``; each tenant keeps an
    auto-extending list of per-window service amounts. Histories stay
    small (one float per window of simulated time), so the tracker keeps
    the full history rather than trimming — that also lets metrics
    rebuild the fairness-index timeline after the run.
    """

    def __init__(self, config: FairnessConfig, shares: Mapping[str, float]):
        self.config = config
        if not shares:
            raise ValueError("fairness tracker needs at least one tenant share")
        total = sum(shares.values())
        self._shares = {tid: share / total for tid, share in sorted(shares.items())}
        self._service: dict[str, list[float]] = {tid: [] for tid in self._shares}

    @property
    def tenant_ids(self) -> tuple[str, ...]:
        return tuple(self._shares)

    def _window_index(self, when: float) -> int:
        return max(0, int(when // self.config.window))

    def note(self, tenant_id: str, when: float, amount: float = 1.0) -> None:
        """Credit ``amount`` of service to ``tenant_id`` at time ``when``."""
        history = self._service[tenant_id]
        index = self._window_index(when)
        if index >= len(history):
            history.extend([0.0] * (index + 1 - len(history)))
        history[index] += amount

    def note_span(self, tenant_id: str, start: float, end: float) -> None:
        """Credit a held time span, split across the windows it overlaps."""
        if end <= start:
            return
        window = self.config.window
        index = self._window_index(start)
        cursor = start
        while cursor < end:
            boundary = (index + 1) * window
            self.note(tenant_id, cursor, min(end, boundary) - cursor)
            cursor = boundary
            index += 1

    def service_in_backlog(self, now: float) -> dict[str, float]:
        """Per-tenant service summed over the last ``backlog_windows``."""
        current = self._window_index(now)
        first = max(0, current - self.config.backlog_windows + 1)
        out: dict[str, float] = {}
        for tid, history in self._service.items():
            out[tid] = sum(history[first : current + 1])
        return out

    def deficits(
        self, now: float, backlogged: Iterable[str] = ()
    ) -> dict[str, float]:
        """Fairness deficit per tenant at time ``now``
        (:func:`fairness_deficits` over the backlog's service)."""
        return fairness_deficits(
            self._shares, self.service_in_backlog(now), backlogged
        )

    def fairness_index(
        self, now: float, backlogged: Iterable[str] = ()
    ) -> float:
        """Jain index over observed/entitled ratios in the current backlog.

        Covers every tenant that has *ever* received service (a
        participating tenant currently starved drags the index toward
        ``1/n``) plus every currently ``backlogged`` tenant — a tenant
        with queued demand that never got served participates with
        ratio 0 rather than being excluded. Tenants with neither
        history nor backlog stay excluded so a zero-demand registration
        cannot depress the index. When the participants are all-zero
        *and* demand is queued, the index is ``1/n`` (total starvation),
        not the vacuous 1.0 an idle system earns.
        """
        observed = self.service_in_backlog(now)
        demand = {tid for tid in backlogged if tid in self._shares}
        ratios = [
            observed[tid] / self._shares[tid]
            for tid, history in self._service.items()
            if any(history) or tid in demand
        ]
        return jain_index(ratios, any_demand=bool(demand))

    def fairness_timeline(self, end_time: float) -> list[tuple[float, float]]:
        """``(time, jain_index)`` samples over the run, one per window."""
        step = self.config.window
        out: list[tuple[float, float]] = []
        t = step
        while t <= end_time + 1e-9:
            out.append((t, self.fairness_index(t)))
            t += step
        return out
