"""Regression: quarantine eviction must be exception-safe.

Found by the shadow invariant checker: a raising ``on_evict`` hook used
to leave ``held_bytes``/``total_evicted`` out of sync with the queue,
so every later accounting check misfired.  Eviction now runs the hook
*before* moving any counter and restores the chunk on failure.
"""

import pytest

from repro.memory import Quarantine


def make(allocator, size=32):
    allocation = allocator.malloc(size)
    allocator.free(allocation.base)
    return allocation


def consistent(quarantine):
    queued = list(quarantine._queue)
    assert quarantine.held_bytes == sum(a.chunk_size for a in queued)
    assert quarantine.total_quarantined == quarantine.total_evicted + len(queued)


class TestExceptionSafety:
    def test_push_eviction_hook_raises(self, allocator):
        first = make(allocator)
        quarantine = Quarantine(first.chunk_size)
        quarantine.push(first, self._boom)
        second = make(allocator)
        with pytest.raises(RuntimeError):
            quarantine.push(second, self._boom)
        # the failed eviction left the head in place and counters intact
        assert list(quarantine._queue) == [first, second]
        consistent(quarantine)

    def test_drain_hook_raises_midway(self, allocator):
        chunks = [make(allocator) for _ in range(4)]
        calls = []

        def flaky(allocation):
            calls.append(allocation)
            if len(calls) == 3:
                raise RuntimeError("recycler failed")

        quarantine = Quarantine(1 << 20)
        for chunk in chunks:
            quarantine.push(chunk, flaky)
        with pytest.raises(RuntimeError):
            quarantine.drain(flaky)
        # two were evicted, the failing third is back at the head
        assert list(quarantine._queue) == chunks[2:]
        assert quarantine.total_evicted == 2
        consistent(quarantine)
        # a retry with a healthy hook finishes the job
        assert quarantine.drain(lambda allocation: None) == chunks[2:]
        assert len(quarantine) == 0
        consistent(quarantine)

    @staticmethod
    def _boom(allocation):
        raise RuntimeError("recycler failed")


class TestOversizedChunk:
    def test_oversized_chunk_self_evicts(self, allocator):
        """A chunk larger than the whole budget passes through: it is
        quarantined and instantly recycled (compiler-rt behaviour,
        paper §5.4 bypass odds)."""
        evicted_log = []
        quarantine = Quarantine(64)
        big = make(allocator, size=4096)
        assert big.chunk_size > quarantine.budget_bytes
        assert quarantine.push(big, evicted_log.append) == [big]
        assert evicted_log == [big]
        assert len(quarantine) == 0
        assert quarantine.held_bytes == 0
        assert quarantine.total_quarantined == quarantine.total_evicted == 1
        consistent(quarantine)

    def test_oversized_chunk_evicts_predecessors_first(self, allocator):
        evicted_log = []
        small = make(allocator, size=16)
        quarantine = Quarantine(small.chunk_size)
        quarantine.push(small, evicted_log.append)
        big = make(allocator, size=4096)
        evicted = quarantine.push(big, evicted_log.append)
        # FIFO order: the small resident goes first, then the giant
        assert evicted == [small, big]
        assert len(quarantine) == 0
        consistent(quarantine)
