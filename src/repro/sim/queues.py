"""Bounded completion-time queues: MSHRs, store buffer, flush queue,
and the memory controller's read and write queues.

Each structure tracks the completion times of in-flight asynchronous
operations.  The core prunes entries that completed before its clock,
counts a hazard event when an op finds the structure full, and stalls
until the earliest completion.  This is the mechanism behind the
Table VI structural-hazard reproduction: flushes and store misses park
long-latency completions here, and everything behind them backs up.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List


class BoundedQueue:
    """Completion-time slots with a fixed capacity.

    The completions are a min-heap: pruning pops only the entries that
    finished, and the earliest completion is the top.  A prune drops
    exactly the entries at or before ``now`` whatever came before it,
    so ``now`` may go backwards (the MC is queried at different cores'
    clocks).
    """

    def __init__(self, capacity: int, name: str) -> None:
        self.capacity = capacity
        self.name = name
        self._completions: List[float] = []

    def __len__(self) -> int:
        """Entries held since the last prune (does not prune)."""
        return len(self._completions)

    def prune(self, now: float) -> None:
        """Drop entries whose operation completed at or before ``now``."""
        completions = self._completions
        while completions and completions[0] <= now:
            heappop(completions)

    def full(self, now: float) -> bool:
        """True if no slot is free at ``now``."""
        self.prune(now)
        return len(self._completions) >= self.capacity

    def earliest_free(self, now: float) -> float:
        """Time at which a slot opens; ``now`` if one is already free."""
        self.prune(now)
        if len(self._completions) < self.capacity:
            return now
        return self._completions[0]

    def push(self, completion: float) -> None:
        """Occupy a slot until ``completion``."""
        heappush(self._completions, completion)

    def drain_time(self, now: float) -> float:
        """Completion time of the last in-flight entry (``now`` if empty)."""
        self.prune(now)
        if not self._completions:
            return now
        return max(self._completions)

    def occupancy(self, now: float) -> int:
        """In-flight entries at ``now``."""
        self.prune(now)
        return len(self._completions)

    def clear(self) -> None:
        """Drop all entries (crash/reset)."""
        self._completions.clear()
