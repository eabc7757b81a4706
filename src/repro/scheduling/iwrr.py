"""Interleaved weighted round-robin selection (paper §5.1).

The paper binds an IWRR scheduler to each topology-graph vertex so that
requests follow the max-flow solution "without creating bursts". We use the
smooth weighted round-robin formulation (the one nginx popularized): each
selection adds every candidate's weight to its current credit, picks the
highest-credit candidate, and charges it the total weight. The resulting
sequence interleaves candidates proportionally to their weights — e.g.
weights (5, 1, 1) yield ``A A B A A C A`` rather than ``A A A A A B C`` —
which is exactly the interleaving property IWRR provides.

Weights may be floats (flows in tokens/second). Candidates may be masked
per call; a fully-masked selector returns ``None``.

``select`` runs once per pipeline stage of every scheduling attempt, which
makes it hot under flooded admission retries, so it is allocation-free: the
candidate order and the unmasked weight total are cached at construction
(invalidated by :meth:`update_weight`) and a masked call walks the cached
order testing membership instead of building per-call lists and sets. The
selection sequence is identical to the original formulation.
"""

from __future__ import annotations

from collections.abc import Container, Hashable, Iterable


class InterleavedWeightedRoundRobin:
    """Smooth weighted round-robin over a fixed candidate set.

    Args:
        weights: Mapping from candidate to positive weight. Candidates with
            non-positive weight are dropped at construction.
    """

    __slots__ = ("_weights", "_credit", "_order", "_total")

    def __init__(self, weights: dict[Hashable, float]) -> None:
        self._weights = {c: float(w) for c, w in weights.items() if w > 0.0}
        self._credit = {c: 0.0 for c in self._weights}
        self._refresh_cache()

    def _refresh_cache(self) -> None:
        """Rebuild the cached candidate order and total weight."""
        self._order = tuple(self._weights)
        total = 0.0
        for candidate in self._order:
            total += self._weights[candidate]
        self._total = total

    @property
    def candidates(self) -> list[Hashable]:
        """Live candidates (positive weight), in insertion order."""
        return list(self._order)

    @property
    def weights(self) -> dict[Hashable, float]:
        """Candidate weights."""
        return dict(self._weights)

    def __bool__(self) -> bool:
        return bool(self._weights)

    def select(self, allowed: Iterable[Hashable] | None = None) -> Hashable | None:
        """Pick the next candidate, optionally restricted to ``allowed``.

        Masked selections do not disturb the credit of masked candidates,
        so temporarily-unavailable candidates (e.g. KV-full nodes) resume
        their fair share once unmasked.

        Returns:
            The selected candidate, or ``None`` if no candidate is allowed.
        """
        weights = self._weights
        credit = self._credit
        best = None
        best_credit = -1.0
        first = True
        if allowed is None:
            for candidate in self._order:
                new_credit = credit[candidate] + weights[candidate]
                credit[candidate] = new_credit
                if first or new_credit > best_credit:
                    best_credit = new_credit
                    best = candidate
                    first = False
            if first:
                return None
            credit[best] -= self._total
            return best
        if not isinstance(allowed, Container) or isinstance(allowed, str):
            allowed = tuple(allowed)  # single-pass iterables need buffering
        total = 0.0
        for candidate in self._order:
            if candidate in allowed:
                weight = weights[candidate]
                total += weight
                new_credit = credit[candidate] + weight
                credit[candidate] = new_credit
                if first or new_credit > best_credit:
                    best_credit = new_credit
                    best = candidate
                    first = False
        if first:
            return None
        credit[best] -= total
        return best

    def update_weight(self, candidate: Hashable, weight: float) -> None:
        """Change (or add/remove) a candidate's weight at runtime."""
        if weight > 0.0:
            self._weights[candidate] = float(weight)
            self._credit.setdefault(candidate, 0.0)
        else:
            self._weights.pop(candidate, None)
            self._credit.pop(candidate, None)
        self._refresh_cache()
