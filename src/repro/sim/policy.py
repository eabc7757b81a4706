"""Per-request lifecycle policy: retry backoff.

A disrupted attempt (its node failed, was confirmed dead, or left the
placement) returns its request to the pending queue; a request is never
abandoned. :class:`RequestPolicy` paces those re-dispatches: each waits
``retry_backoff * BACKOFF_FACTOR**(attempt-1)`` seconds plus a
*deterministic* jitter (derived from a CRC of the request id and attempt
number, never from global randomness, so seeded runs reproduce exactly).

There is no per-attempt timeout: an attempt stalled on a silent-dead or
zombie node is recovered when the failure detector confirms the node.
The default-constructed policy retries at once, and it is what a
simulation built with ``policy=None`` runs under.
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
    """Retry pacing of every request in one simulation.

    Attributes:
        retry_backoff: Base delay in seconds before a re-dispatch re-enters
            the pending queue (0 = immediate, the legacy semantics).
        jitter: Fraction of the computed backoff added as deterministic
            jitter (0 = none). The jitter fraction is
            ``crc32(request_id:attempt) / 2**32`` — stable across runs
            and platforms.
    """

    retry_backoff: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        # Written as ``not (lo <= value < inf)`` so NaN fails every check.
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
