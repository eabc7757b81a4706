"""Per-request lifecycle policy: TTFT timeouts and retry backoff.

The baseline simulator retries a disrupted request at once and never gives
up on a stalled attempt — fine when every failure is announced, fatal
under gray failures (a zombie node accepts a prompt and simply never
answers). :class:`RequestPolicy` bounds every attempt and paces the
retries; a request is never abandoned, it always returns to the pending
queue:

* **TTFT timeout** — a per-attempt bound on time-to-first-token; an
  attempt that produced nothing by then is presumed stuck (stalled on a
  silent-dead or zombie node) and re-dispatched.
* **retry backoff** — each re-dispatch waits
  ``retry_backoff * BACKOFF_FACTOR**(attempt-1)`` seconds plus a
  *deterministic* jitter (derived from a CRC of the request id and
  attempt number, never from global randomness, so seeded runs reproduce
  exactly).

The default-constructed policy is the legacy semantics (no timeout,
immediate retries), and it is what a simulation built with
``policy=None`` runs under.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

#: Scale turning a 32-bit CRC into a [0, 1) fraction.
_CRC_SCALE = 1.0 / 2.0**32
#: Exponential growth of the backoff across consecutive re-dispatches of
#: one request.
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class RequestPolicy:
    """Lifecycle knobs of every request in one simulation.

    Attributes:
        ttft_timeout: Seconds from an attempt's scheduling to its first
            token before the attempt is presumed stuck and re-dispatched
            (``None`` = wait forever).
        retry_backoff: Base delay in seconds before a re-dispatch re-enters
            the pending queue (0 = immediate, the legacy semantics).
        jitter: Fraction of the computed backoff added as deterministic
            jitter (0 = none). The jitter fraction is
            ``crc32(request_id:attempt) / 2**32`` — stable across runs
            and platforms.
    """

    ttft_timeout: float | None = None
    retry_backoff: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        # Written as ``not (lo < value < inf)`` so NaN fails every check.
        timeout = self.ttft_timeout
        if timeout is not None and not 0 < timeout < math.inf:
            raise ValueError(
                f"ttft_timeout must be finite and positive, got {timeout}"
            )
        if not 0 <= self.retry_backoff < math.inf:
            raise ValueError(
                f"retry_backoff must be finite and >= 0, got {self.retry_backoff}"
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
        base = self.retry_backoff * BACKOFF_FACTOR ** max(0, attempt - 1)
        if self.jitter <= 0:
            return base
        digest = zlib.crc32(f"{request_id}:{attempt}".encode())
        return base * (1.0 + self.jitter * digest * _CRC_SCALE)
