"""Tests for the FIFO quarantine."""

import pytest

from repro.memory import HeapAllocator, Quarantine


def make(allocator, size=32):
    allocation = allocator.malloc(size)
    allocator.free(allocation.base)
    return allocation


class TestQuarantine:
    def test_holds_until_budget(self, allocator):
        evicted_log = []
        quarantine = Quarantine(1 << 20)
        allocation = make(allocator)
        assert quarantine.push(allocation, evicted_log.append) == []
        assert len(quarantine) == 1
        assert quarantine.held_bytes == allocation.chunk_size
        assert not evicted_log

    def test_evicts_fifo_when_over_budget(self, allocator):
        evicted_log = []
        first = make(allocator)
        quarantine = Quarantine(first.chunk_size)
        quarantine.push(first, evicted_log.append)
        second = make(allocator)
        evicted = quarantine.push(second, evicted_log.append)
        assert evicted == [first]
        assert evicted_log == [first]
        assert len(quarantine) == 1

    def test_zero_budget_evicts_immediately(self, allocator):
        evicted_log = []
        quarantine = Quarantine(0)
        allocation = make(allocator)
        assert quarantine.push(allocation, evicted_log.append) == [allocation]
        assert len(quarantine) == 0

    def test_drain_evicts_all(self, allocator):
        evicted_log = []
        quarantine = Quarantine(1 << 20)
        allocations = [make(allocator) for _ in range(3)]
        for allocation in allocations:
            quarantine.push(allocation, evicted_log.append)
        assert quarantine.drain(evicted_log.append) == allocations
        assert quarantine.held_bytes == 0
        assert evicted_log == allocations

    def test_counters(self, allocator):
        quarantine = Quarantine(0)
        quarantine.push(make(allocator), lambda a: None)
        quarantine.push(make(allocator), lambda a: None)
        assert quarantine.total_quarantined == 2
        assert quarantine.total_evicted == 2

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Quarantine(-1)
