"""Serving metrics: the quantities the paper's evaluation reports (§6.2).

* *decode throughput* — decode tokens generated per second inside the
  measurement window (after warmup);
* *prompt latency* — time from request arrival to its first output token;
* *decode latency* — average per-token generation interval of a request.

Latency distributions keep the percentiles the paper's box plots show
(5/25/50/75/95) plus the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class RequestRecord:
    """Lifecycle timestamps of one simulated request.

    Under online dynamics a request may be disrupted — its node failed or a
    replanning migrated it off a repartitioned node — and restart from the
    pending queue. ``retries``/``migrations`` count those restarts and
    ``tokens_lost`` the output tokens the failed attempts had already
    emitted; the latency/token fields always describe the final attempt.
    """

    request_id: str
    input_len: int
    output_len: int
    arrival_time: float
    schedule_time: float = math.nan
    first_token_time: float = math.nan
    finish_time: float = math.nan
    tokens_generated: int = 0
    token_times: list[float] = field(default_factory=list)
    retries: int = 0
    migrations: int = 0
    tokens_lost: int = 0
    #: Owning tenant ("" in the single-tenant legacy configuration).
    tenant_id: str = ""

    @property
    def finished(self) -> bool:
        return not math.isnan(self.finish_time)

    @property
    def prompt_latency(self) -> float:
        """Arrival to first token, in seconds."""
        return self.first_token_time - self.arrival_time

    @property
    def decode_latency(self) -> float:
        """Mean inter-token interval after the first token, in seconds."""
        if len(self.token_times) < 2:
            return math.nan
        intervals = [
            b - a for a, b in zip(self.token_times, self.token_times[1:])
        ]
        return sum(intervals) / len(intervals)


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample (the paper's box-plot quantities).

    ``count`` covers only the finite samples the percentiles are computed
    from; ``nan_count`` records how many samples were NaN (unfinished
    requests) — they are excluded from the distribution but
    *not* silently forgotten, so a consumer dividing by request counts can
    see the disagreement instead of inheriting it.
    """

    count: int
    mean: float
    p5: float
    p25: float
    p50: float
    p75: float
    p95: float
    nan_count: int = 0

    def __str__(self) -> str:
        dropped = f" ({self.nan_count} NaN)" if self.nan_count else ""
        if self.count == 0:
            return f"n=0{dropped}"
        return (
            f"n={self.count}{dropped} mean={self.mean:.4f}s "
            f"p5={self.p5:.4f} p25={self.p25:.4f} p50={self.p50:.4f} "
            f"p75={self.p75:.4f} p95={self.p95:.4f}"
        )

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencyStats":
        clean = sorted(s for s in samples if not math.isnan(s))
        nan_count = len(samples) - len(clean)
        if not clean:
            return cls(
                0, math.nan, math.nan, math.nan, math.nan, math.nan,
                math.nan, nan_count=nan_count,
            )

        def percentile(q: float) -> float:
            index = q * (len(clean) - 1)
            low = int(math.floor(index))
            high = int(math.ceil(index))
            if low == high:
                return clean[low]
            frac = index - low
            return clean[low] * (1 - frac) + clean[high] * frac

        return cls(
            count=len(clean),
            mean=sum(clean) / len(clean),
            p5=percentile(0.05),
            p25=percentile(0.25),
            p50=percentile(0.50),
            p75=percentile(0.75),
            p95=percentile(0.95),
            nan_count=nan_count,
        )


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate outcome of one serving experiment.

    Attributes:
        decode_throughput: Decode tokens/second inside the measurement
            window.
        prompt_latency: Distribution of per-request prompt latencies.
        decode_latency: Distribution of per-request mean decode intervals.
        requests_finished: Requests completing within the simulation.
        requests_submitted: Requests that arrived.
        duration: Measurement-window length in seconds.
        decode_tokens: Decode tokens counted in the window.
        kv_overflow_events: Total KV-pool overflows across nodes (should be
            zero when the scheduler's masking works).
        avg_pipeline_depth: Mean pipeline depth across finished requests.
        requests_retried: Requests restarted at least once after a node
            failure (online dynamics).
        requests_migrated: Requests restarted at least once because a
            replanning invalidated their pipeline.
        tokens_lost: Output tokens emitted by attempts that were later
            disrupted (wasted work).
        requests_shed: Always 0; ``bench/workloads.py`` reads it.
        requests_lost: Always 0; ``bench/workloads.py`` reads it.
    """

    decode_throughput: float
    prompt_latency: LatencyStats
    decode_latency: LatencyStats
    requests_finished: int
    requests_submitted: int
    duration: float
    decode_tokens: int
    kv_overflow_events: int
    avg_pipeline_depth: float
    requests_retried: int = 0
    requests_migrated: int = 0
    tokens_lost: int = 0
    requests_shed: int = 0
    requests_lost: int = 0

    def summary(self) -> str:
        """One-line report string."""
        return (
            f"decode {self.decode_throughput:.1f} tok/s | "
            f"prompt p50 {self.prompt_latency.p50:.2f}s | "
            f"decode p50 {self.decode_latency.p50 * 1000:.0f}ms | "
            f"{self.requests_finished}/{self.requests_submitted} finished"
        )


def aggregate_metrics(
    records: list[RequestRecord],
    warmup: float,
    end_time: float,
    kv_overflow_events: int,
    pipeline_depths: list[int],
) -> ServingMetrics:
    """Build :class:`ServingMetrics` from per-request records.

    Decode throughput counts tokens whose emission time falls inside
    ``[warmup, end_time]``. Latency distributions include only requests
    that finished after warmup (so cold-start artifacts are excluded).
    """
    if end_time <= warmup:
        raise ValueError(
            f"measurement window is empty: warmup={warmup}, end={end_time}"
        )
    decode_tokens = 0
    for record in records:
        # The first token ends the prompt phase; the rest are decode tokens.
        for token_time in record.token_times[1:]:
            if warmup <= token_time <= end_time:
                decode_tokens += 1
    finished = [r for r in records if r.finished and r.finish_time >= warmup]
    duration = end_time - warmup
    return ServingMetrics(
        decode_throughput=decode_tokens / duration,
        prompt_latency=LatencyStats.from_samples(
            [r.prompt_latency for r in finished]
        ),
        decode_latency=LatencyStats.from_samples(
            [r.decode_latency for r in finished]
        ),
        requests_finished=sum(1 for r in records if r.finished),
        requests_submitted=len(records),
        duration=duration,
        decode_tokens=decode_tokens,
        kv_overflow_events=kv_overflow_events,
        avg_pipeline_depth=(
            sum(pipeline_depths) / len(pipeline_depths) if pipeline_depths else 0.0
        ),
        requests_retried=sum(1 for r in records if r.retries > 0),
        requests_migrated=sum(1 for r in records if r.migrations > 0),
        tokens_lost=sum(r.tokens_lost for r in records),
    )


# ----------------------------------------------------------------------
# Per-tenant metrics (multi-tenant serving)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantMetrics:
    """One tenant's slice of a serving run.

    SLO attainment is the fraction of the tenant's submitted requests
    whose latency met the target: ``ttft_attainment`` against the time-to-first-token
    target (prompt latency), ``tbt_attainment`` against the
    time-between-tokens target (mean decode interval; a finished
    single-token request has no intervals and counts as attained).
    Requests that never finished inside the horizon count *against*
    attainment — an operator
    cannot claim an SLO was met for a request that never completed. The
    tenant's SLO is *met* when both attainments reach the class
    percentile.
    """

    tenant_id: str
    requests_submitted: int
    requests_finished: int
    decode_tokens: int
    goodput: float
    ttft_attainment: float
    tbt_attainment: float
    slo_percentile: float
    slo_met: bool

    def summary(self) -> str:
        """One-line report string."""
        return (
            f"[{self.tenant_id}] {self.goodput:.1f} tok/s | "
            f"ttft {self.ttft_attainment * 100:.0f}% / "
            f"tbt {self.tbt_attainment * 100:.0f}% "
            f"(target p{self.slo_percentile * 100:.0f}: "
            f"{'met' if self.slo_met else 'MISSED'}) | "
            f"{self.requests_finished}/{self.requests_submitted} finished"
        )


def aggregate_tenant_metrics(
    records: list[RequestRecord],
    warmup: float,
    end_time: float,
    slo_targets: dict[str, tuple[float, float, float]],
) -> dict[str, "TenantMetrics"]:
    """Per-tenant :class:`TenantMetrics` from request records.

    ``slo_targets`` maps tenant id to ``(ttft_target, tbt_target,
    percentile)`` — duck-typed so this module does not depend on
    :mod:`repro.tenancy`. Tenants with registered targets but no
    records still get a (vacuously attained) row.
    """
    duration = end_time - warmup
    if duration <= 0:
        raise ValueError(
            f"measurement window is empty: warmup={warmup}, end={end_time}"
        )
    by_tenant: dict[str, list[RequestRecord]] = {
        tid: [] for tid in slo_targets
    }
    for record in records:
        by_tenant.setdefault(record.tenant_id, []).append(record)

    out: dict[str, TenantMetrics] = {}
    for tenant_id in sorted(by_tenant):
        rows = by_tenant[tenant_id]
        ttft_target, tbt_target, percentile = slo_targets.get(
            tenant_id, (math.inf, math.inf, 0.95)
        )
        decode_tokens = 0
        for record in rows:
            for token_time in record.token_times[1:]:
                if warmup <= token_time <= end_time:
                    decode_tokens += 1
        finished = [r for r in rows if r.finished]
        # Attainment denominators cover every submitted request, so a
        # never-finished request counts as a miss instead of silently
        # dropping out of the SLO (the NaN latencies that
        # LatencyStats.from_samples excludes are exactly these rows).
        ttft_ok = sum(
            1 for r in finished if r.prompt_latency <= ttft_target
        )
        tbt_ok = sum(
            1
            for r in finished
            if math.isnan(r.decode_latency) or r.decode_latency <= tbt_target
        )
        ttft_attainment = ttft_ok / len(rows) if rows else 1.0
        tbt_attainment = tbt_ok / len(rows) if rows else 1.0
        out[tenant_id] = TenantMetrics(
            tenant_id=tenant_id,
            requests_submitted=len(rows),
            requests_finished=len(finished),
            decode_tokens=decode_tokens,
            goodput=decode_tokens / duration,
            ttft_attainment=ttft_attainment,
            tbt_attainment=tbt_attainment,
            slo_percentile=percentile,
            slo_met=(
                ttft_attainment >= percentile and tbt_attainment >= percentile
            ),
        )
    return out


# ----------------------------------------------------------------------
# Online token-timeline accumulation
# ----------------------------------------------------------------------
class TokenTimeline:
    """Fixed-width-bucket accumulator of token emission times.

    The simulator used to append one float per emitted token to a global
    timeline — O(tokens) memory that dominates long traces. This
    accumulator folds each token into a bucket counter online, so memory
    is bounded by ``horizon / resolution`` regardless of trace length,
    while :meth:`times` stays available as a derived view for existing
    consumers (each token is reported at its bucket's start time).

    ``resolution`` must be positive and should be a power of two (the
    default is 1/16 s): bucket boundaries are then exact binary floats,
    which makes :func:`goodput_timeline` over the derived view return
    bit-identical bucket counts to the exact timeline for any window that
    is a positive integer multiple of the resolution (all windows used by
    the repo's reports: 0.25, 1.0, 2.0, 3.0).
    """

    __slots__ = ("resolution", "_inv", "_counts", "count")

    def __init__(self, resolution: float = 0.0625) -> None:
        if not (resolution > 0.0) or not math.isfinite(resolution):
            raise ValueError(f"resolution must be positive, got {resolution}")
        self.resolution = resolution
        self._inv = 1.0 / resolution
        self._counts: list[int] = []
        self.count = 0

    def add(self, when: float) -> None:
        """Record one token emitted at time ``when`` (>= 0)."""
        index = int(when * self._inv)
        counts = self._counts
        if index >= len(counts):
            counts.extend([0] * (index + 1 - len(counts)))
        counts[index] += 1
        self.count += 1

    def bucket_counts(self) -> list[int]:
        """Token counts per bucket (bucket i covers ``[i*r, (i+1)*r)``)."""
        return list(self._counts)

    def times(self) -> list[float]:
        """Derived per-token view: each token at its bucket start time."""
        resolution = self.resolution
        out: list[float] = []
        for index, count in enumerate(self._counts):
            if count:
                out.extend([index * resolution] * count)
        return out


# ----------------------------------------------------------------------
# Disruption metrics (online dynamics)
# ----------------------------------------------------------------------
def check_window_multiple(window: float, resolution: float) -> None:
    """Raise ``ValueError`` unless ``window`` is a positive integer
    multiple of a bucketed timeline's ``resolution`` (the only windows
    whose goodput over the bucketed view equals the exact one)."""
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    multiple = window / resolution
    if multiple < 1 or multiple != int(multiple):
        raise ValueError(
            f"window {window} is not a positive integer multiple of the "
            f"timeline resolution {resolution}: bucketed token times "
            "would split across goodput windows and the derived curve "
            "would silently disagree with the exact one"
        )


def goodput_timeline(
    token_times: list[float],
    window: float,
    end_time: float,
    start: float = 0.0,
    resolution: float | None = None,
) -> list[tuple[float, float]]:
    """Windowed goodput: tokens/second per ``window``-second bucket.

    ``token_times`` are token emission times — normally the simulator's
    append-only :attr:`~repro.sim.simulator.Simulation.token_timeline`, so
    the curve shows the true served rate (the dip around a failure, the
    recovery after replanning). Returns ``(bucket_start, tokens_per_second)``
    rows covering ``[start, end_time)``; the trailing partial bucket is
    dropped so every row is normalized by the same window length. A token
    emitted exactly at the covered horizon end (``start + num_buckets *
    window``) lands in the final bucket instead of being dropped into a
    phantom bucket past the horizon.

    When ``token_times`` came from a bucketed :class:`TokenTimeline`, pass
    its ``resolution``: the derived view is only bit-identical to the
    exact timeline when ``window`` is a positive integer multiple of the
    resolution, and this function then *raises* ``ValueError`` on a
    non-multiple window instead of returning quietly-wrong buckets.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    if resolution is not None:
        check_window_multiple(window, resolution)
    num_buckets = int((end_time - start) / window)
    if num_buckets <= 0:
        return []
    horizon = start + num_buckets * window
    counts = [0] * num_buckets
    for t in token_times:
        if t < start:  # int() truncates toward zero: -0.5 would bucket to 0
            continue
        index = int((t - start) / window)
        if index < num_buckets:
            counts[index] += 1
        elif t == horizon:
            # Horizon-end boundary: the half-open final bucket adopts a
            # token emitted exactly at its closing edge.
            counts[num_buckets - 1] += 1
    return [
        (start + i * window, counts[i] / window) for i in range(num_buckets)
    ]


@dataclass(frozen=True)
class DisruptionReport:
    """How serving behaved across failures and replannings.

    Attributes:
        window: Bucket width of the goodput timeline, in seconds.
        timeline: ``(bucket_start, tokens/s)`` goodput rows.
        pre_disruption_goodput: Mean windowed goodput before the first
            disruption (ramp-up bucket excluded).
        post_recovery_goodput: Mean windowed goodput after the last
            recovery action settled.
        recovery_ratio: ``post / pre`` — the throughput-recovery ratio.
        time_to_recovery: Seconds from the first disruption until windowed
            goodput first regained ``recovery_threshold`` of its
            pre-disruption level (NaN if it never did).
        recovery_threshold: The fraction defining recovery.
        requests_retried: Requests restarted by node failures.
        requests_migrated: Requests restarted by replannings.
        tokens_lost: Output tokens wasted by disrupted attempts.
        replan_count: Replannings applied.
        replan_latency_mean: Mean replanning wall-clock latency in seconds
            (NaN when no replanning ran).
        replan_latency_max: Worst replanning latency (NaN when none ran).
        mttd_mean: Mean time-to-detection across confirmed real failures
            in detection mode, simulated seconds (NaN when none).
        mttd_max: Worst time-to-detection (NaN when none).
        mttr: End-to-end mean-time-to-repair: seconds from the first
            failure until goodput is back above the recovery threshold
            *after the control plane's last reaction* (detection or
            applied replan). Unlike :attr:`time_to_recovery` it cannot be
            satisfied by pre-reaction survival goodput, so by construction
            ``mttd_max <= mttr`` whenever both are finite (NaN if goodput
            never recovered).
        false_positives: Healthy nodes the detector wrongly confirmed dead.
    """

    window: float
    timeline: tuple[tuple[float, float], ...]
    pre_disruption_goodput: float
    post_recovery_goodput: float
    recovery_ratio: float
    time_to_recovery: float
    recovery_threshold: float
    requests_retried: int
    requests_migrated: int
    tokens_lost: int
    replan_count: int
    replan_latency_mean: float
    replan_latency_max: float
    mttd_mean: float = math.nan
    mttd_max: float = math.nan
    mttr: float = math.nan
    false_positives: int = 0

    def summary(self) -> str:
        """One-line report string."""
        return (
            f"goodput {self.pre_disruption_goodput:.0f} -> "
            f"{self.post_recovery_goodput:.0f} tok/s "
            f"(recovery {self.recovery_ratio * 100:.0f}%) | "
            f"{self.requests_retried} retried, "
            f"{self.requests_migrated} migrated, "
            f"{self.tokens_lost} tokens lost | "
            f"{self.replan_count} replan(s), "
            f"worst {self.replan_latency_max:.2f}s"
        )


def disruption_report(
    token_times: list[float],
    window: float,
    end_time: float,
    first_disruption: float,
    recovered_from: float,
    *,
    requests_retried: int = 0,
    requests_migrated: int = 0,
    tokens_lost: int = 0,
    replan_latencies: list[float] | None = None,
    recovery_threshold: float = 0.7,
    mttd_samples: list[float] | None = None,
    reaction_times: list[float] | None = None,
    false_positives: int = 0,
) -> DisruptionReport:
    """Assemble a :class:`DisruptionReport` from a run's raw timeline.

    Args:
        token_times: Useful-token emission times (simulator timeline).
        window: Goodput bucket width in seconds.
        end_time: End of the measurement horizon.
        first_disruption: Time of the first disruptive event.
        recovered_from: Time the last recovery action (replan/repair) took
            effect; the post window starts one ``window`` later.
        requests_retried / requests_migrated / tokens_lost: Counters from
            :class:`ServingMetrics`.
        replan_latencies: Wall-clock seconds of each replanning.
        recovery_threshold: Goodput fraction defining "recovered".
        mttd_samples: Per-failure detection latencies (detection mode).
        reaction_times: Absolute sim times of control-plane reactions
            (detector confirmations, applied replans); gates the MTTR
            search so goodput measured before the control plane reacted
            does not count as "repaired".
        false_positives: Healthy nodes wrongly confirmed dead.
    """
    timeline = goodput_timeline(token_times, window, end_time)

    # Pre window: full buckets strictly before the disruption, skipping the
    # first bucket (prompt-phase ramp-up would understate steady goodput).
    pre = [
        rate
        for start, rate in timeline[1:]
        if start + window <= first_disruption
    ]
    post = [
        rate
        for start, rate in timeline
        if start >= recovered_from + window
    ]
    pre_goodput = sum(pre) / len(pre) if pre else math.nan
    post_goodput = sum(post) / len(post) if post else math.nan
    ratio = (
        post_goodput / pre_goodput
        if pre_goodput and not math.isnan(pre_goodput)
        and not math.isnan(post_goodput)
        else math.nan
    )

    time_to_recovery = math.nan
    mttr = math.nan
    if pre_goodput and not math.isnan(pre_goodput):
        bar = recovery_threshold * pre_goodput
        for start, rate in timeline:
            if start >= first_disruption and rate >= bar:
                time_to_recovery = max(0.0, start - first_disruption)
                break
        # MTTR: the first recovered bucket that *ends* after the control
        # plane's last reaction. Measuring to the bucket end (not start)
        # makes the ordering MTTD <= MTTR structural: a failure confirmed
        # at time t can only be repaired in a bucket reaching past t.
        reactions = [t for t in (reaction_times or []) if not math.isnan(t)]
        gate = max([first_disruption, *reactions])
        for start, rate in timeline:
            if (
                start >= first_disruption
                and start + window > gate
                and rate >= bar
            ):
                mttr = start + window - first_disruption
                break

    latencies = list(replan_latencies or [])
    mttds = [m for m in (mttd_samples or []) if not math.isnan(m)]
    return DisruptionReport(
        window=window,
        timeline=tuple(timeline),
        pre_disruption_goodput=pre_goodput,
        post_recovery_goodput=post_goodput,
        recovery_ratio=ratio,
        time_to_recovery=time_to_recovery,
        recovery_threshold=recovery_threshold,
        requests_retried=requests_retried,
        requests_migrated=requests_migrated,
        tokens_lost=tokens_lost,
        replan_count=len(latencies),
        replan_latency_mean=(
            sum(latencies) / len(latencies) if latencies else math.nan
        ),
        replan_latency_max=max(latencies) if latencies else math.nan,
        mttd_mean=sum(mttds) / len(mttds) if mttds else math.nan,
        mttd_max=max(mttds) if mttds else math.nan,
        mttr=mttr,
        false_positives=false_positives,
    )
