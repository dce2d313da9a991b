"""FIFO memory quarantine for temporal-error detection.

Freed chunks stay non-addressable for a while before being recycled, so a
use-after-free lands on a "freed" shadow state instead of a reallocated
object (paper §2.2).  Like compiler-rt, the quarantine has a byte budget:
when it overflows, the oldest chunks are evicted and become reusable —
which is why quarantine bypassing is possible "with a small probability"
(paper §5.4).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List

from .allocator import Allocation

#: Called with each chunk leaving the quarantine, before any counter
#: moves (the sanitizer unpoisons it and returns it to the freelist).
EvictHook = Callable[[Allocation], None]


class Quarantine:
    """Bounded FIFO of freed allocations awaiting recycling.

    The eviction hook is an argument of :meth:`push` and :meth:`drain`,
    not state: the sanitizer passes its bound method per call, so the
    quarantine holds no reference back to its owner and a finished
    session is freed by reference counting, not by the cyclic collector.
    """

    def __init__(self, budget_bytes: int):
        if budget_bytes < 0:
            raise ValueError("quarantine budget must be non-negative")
        self.budget_bytes = budget_bytes
        self._queue: Deque[Allocation] = deque()
        self._held_bytes = 0
        self.total_quarantined = 0
        self.total_evicted = 0
        #: High-water mark of held bytes, sampled at each push before the
        #: budget trims the queue (the telemetry occupancy metric).
        self.peak_held_bytes = 0

    def _evict_oldest(self, on_evict: EvictHook) -> Allocation:
        """Evict the queue head, keeping the accounting exception-safe.

        The ``on_evict`` hook runs *before* any counter moves: if it
        raises, the chunk is restored to the queue head and the
        quarantine state is exactly what it was before the attempt.
        """
        oldest = self._queue.popleft()
        try:
            on_evict(oldest)
        except BaseException:
            self._queue.appendleft(oldest)
            raise
        self._held_bytes -= oldest.chunk_size
        self.total_evicted += 1
        return oldest

    def push(
        self, allocation: Allocation, on_evict: EvictHook
    ) -> List[Allocation]:
        """Quarantine a freed allocation; returns any evicted chunks.

        Eviction calls the ``on_evict`` hook (which unpoisons shadow and
        returns the chunk to the allocator freelist) before returning.
        A single chunk larger than the whole budget is deliberately
        self-evicting: it enters the queue and is immediately recycled,
        matching compiler-rt (an oversized chunk never lingers, so a
        dangling pointer to it may go undetected — §5.4's bypass odds).
        """
        self._queue.append(allocation)
        self._held_bytes += allocation.chunk_size
        if self._held_bytes > self.peak_held_bytes:
            self.peak_held_bytes = self._held_bytes
        self.total_quarantined += 1
        evicted: List[Allocation] = []
        while self._held_bytes > self.budget_bytes and self._queue:
            evicted.append(self._evict_oldest(on_evict))
        return evicted

    def drain(self, on_evict: EvictHook) -> List[Allocation]:
        """Evict everything (used at session teardown).

        Chunks are evicted head-first one at a time, so a raising
        ``on_evict`` hook leaves the un-evicted remainder still queued
        and every counter consistent with the queue contents.
        """
        evicted: List[Allocation] = []
        while self._queue:
            evicted.append(self._evict_oldest(on_evict))
        return evicted

    @property
    def held_bytes(self) -> int:
        return self._held_bytes

    def __len__(self) -> int:
        return len(self._queue)
