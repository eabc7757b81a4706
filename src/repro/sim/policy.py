"""Per-request lifecycle policy: deadlines, timeouts, bounded retries.

The baseline simulator retries a disrupted request forever and never gives
up on a stalled one — fine when every failure is announced, fatal under
gray failures (a zombie node accepts a prompt and simply never answers).
:class:`RequestPolicy` bounds every request's lifecycle:

* **deadline** — a hard end-to-end budget from arrival; a request that
  neither finished nor died by then is abandoned (*lost*), its resources
  freed.
* **TTFT timeout** — a per-attempt bound on time-to-first-token; an
  attempt that produced nothing by then is presumed stuck (stalled on a
  silent-dead or zombie node) and re-dispatched.
* **bounded retries with backoff** — each re-dispatch waits
  ``retry_backoff * backoff_factor**(attempt-1)`` seconds plus a
  *deterministic* jitter (derived from a CRC of the request id and
  attempt number, never from global randomness, so seeded runs reproduce
  exactly); after ``max_retries`` re-dispatches the request is lost.

The default-constructed policy is the legacy semantics (no deadline, no
timeout, unbounded immediate retries), and it is
what a simulation built with ``policy=None`` runs under.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

#: Scale turning a 32-bit CRC into a [0, 1) fraction.
_CRC_SCALE = 1.0 / 2.0**32


@dataclass(frozen=True)
class RequestPolicy:
    """Lifecycle knobs of every request in one simulation.

    Attributes:
        deadline: End-to-end seconds from arrival before the request is
            abandoned (``None`` = no deadline).
        ttft_timeout: Seconds from an attempt's scheduling to its first
            token before the attempt is presumed stuck and re-dispatched
            (``None`` = wait forever).
        max_retries: Re-dispatches (failure retries + migrations) a
            request may consume before it is abandoned (``None`` =
            unbounded, the legacy semantics).
        retry_backoff: Base delay in seconds before a re-dispatch re-enters
            the pending queue (0 = immediate, the legacy semantics).
        backoff_factor: Exponential growth factor across consecutive
            re-dispatches of one request.
        jitter: Fraction of the computed backoff added as deterministic
            jitter (0 = none). The jitter fraction is
            ``crc32(request_id:attempt) / 2**32`` — stable across runs
            and platforms.
    """

    deadline: float | None = None
    ttft_timeout: float | None = None
    max_retries: int | None = None
    retry_backoff: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        # Written as ``not (lo < value < inf)`` so NaN fails every check.
        for name in ("deadline", "ttft_timeout"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be finite and positive, got {value}"
                )
        if self.max_retries is not None and self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0 <= self.retry_backoff < math.inf:
            raise ValueError(
                f"retry_backoff must be finite and >= 0, got {self.retry_backoff}"
            )
        if not 0 < self.backoff_factor < math.inf:
            raise ValueError(
                "backoff_factor must be finite and positive, "
                f"got {self.backoff_factor}"
            )
        if not 0 <= self.jitter < math.inf:
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter}")

    def retry_delay(self, request_id: str, attempt: int) -> float:
        """Deterministic backoff before re-dispatch number ``attempt``.

        ``attempt`` counts from 1 (the first re-dispatch). With a zero
        ``retry_backoff`` the delay is exactly 0 regardless of jitter, so
        the re-dispatch path is the legacy immediate one.
        """
        if self.retry_backoff <= 0:
            return 0.0
        base = self.retry_backoff * self.backoff_factor ** max(0, attempt - 1)
        if self.jitter <= 0:
            return base
        digest = zlib.crc32(f"{request_id}:{attempt}".encode())
        return base * (1.0 + self.jitter * digest * _CRC_SCALE)
