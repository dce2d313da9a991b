"""Tests for the simulated byte-accurate address space."""

import os
import random

import pytest

from repro.errors import AddressSpaceError
from repro.memory import AddressSpace, ArenaLayout


@pytest.fixture
def base(space):
    return space.layout.heap_base


class TestLoadStore:
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_roundtrip(self, space, base, width):
        value = (1 << (8 * width)) - 3
        space.store(base, width, value)
        assert space.load(base, width) == value & ((1 << (8 * width)) - 1)

    def test_little_endian(self, space, base):
        space.store(base, 4, 0x01020304)
        assert space.load(base, 1) == 0x04
        assert space.load(base + 3, 1) == 0x01

    def test_store_masks_value(self, space, base):
        space.store(base, 1, 0x1FF)
        assert space.load(base, 1) == 0xFF

    def test_unsupported_width(self, space, base):
        with pytest.raises(ValueError):
            space.load(base, 3)
        with pytest.raises(ValueError):
            space.store(base, 5, 0)

    def test_out_of_range_raises(self, space):
        with pytest.raises(AddressSpaceError):
            space.load(space.layout.total_size, 8)
        with pytest.raises(AddressSpaceError):
            space.load(-8, 8)

    def test_load_at_boundary(self, space):
        assert space.load(space.layout.total_size - 8, 8) == 0


class TestBulkOps:
    def test_fill_and_read(self, space, base):
        space.fill(base, 64, 0xAB)
        assert space.read_bytes(base, 64) == b"\xab" * 64

    def test_write_bytes(self, space, base):
        space.write_bytes(base, b"hello\x00")
        assert space.read_bytes(base, 6) == b"hello\x00"

    def test_copy_non_overlapping(self, space, base):
        space.write_bytes(base, b"abcdef")
        space.copy(base + 100, base, 6)
        assert space.read_bytes(base + 100, 6) == b"abcdef"

    def test_copy_overlapping_is_memmove(self, space, base):
        space.write_bytes(base, b"abcdef")
        space.copy(base + 2, base, 6)
        assert space.read_bytes(base + 2, 6) == b"abcdef"

    def test_fill_negative_size(self, space, base):
        with pytest.raises(ValueError):
            space.fill(base, -1, 0)

    def test_find_byte_present(self, space, base):
        space.write_bytes(base, b"abc\x00xyz")
        assert space.find_byte(base, 0, 16) == 3

    def test_find_byte_absent(self, space, base):
        space.fill(base, 16, 0x41)
        assert space.find_byte(base, 0, 16) == -1

    def test_snapshot(self, space, base):
        space.write_bytes(base, b"xy")
        assert space.snapshot([base, base + 1]) == b"xy"


class TestArenaQueries:
    def test_len_matches_layout(self):
        layout = ArenaLayout(heap_size=1 << 16, stack_size=1 << 14, globals_size=1 << 13)
        assert len(AddressSpace(layout)) == layout.total_size

    def test_arena_of_delegates(self, space):
        assert space.arena_of(space.layout.heap_base) == "heap"
        assert space.arena_of(0) == "null"


class TestLazilyZeroedMemory:
    """The backing store is a private anonymous map, zeroed by the
    kernel page by page on first touch."""

    def test_fresh_space_reads_zero_at_arena_ends(self):
        space = AddressSpace()
        layout = space.layout
        for start, end in (
            (0, layout.heap_base),
            (layout.heap_base, layout.heap_end),
            (layout.stack_base, layout.stack_end),
            (layout.globals_base, layout.globals_end),
        ):
            assert space.load(start, 8) == 0
            assert space.load(end - 8, 8) == 0
        assert space.read_bytes(len(space) - 4096, 4096) == bytes(4096)

    def test_fresh_space_reads_zero_at_random_addresses(self):
        space = AddressSpace()
        rng = random.Random(14)
        for _ in range(256):
            address = rng.randrange(len(space) - 8)
            assert space.load(address, rng.choice([1, 2, 4, 8])) == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_stores_invisible_to_parent(self):
        space = AddressSpace()
        base = space.layout.heap_base
        space.store(base, 8, 0x1122334455667788)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: overwrite, confirm locally, report
            try:
                space.store(base, 8, 0xDEADBEEF)
                space.fill(base + 4096, 4096, 0x5A)
                ok = (
                    space.load(base, 8) == 0xDEADBEEF
                    and space.load(base + 4096, 1) == 0x5A
                )
                os.write(write_fd, b"1" if ok else b"0")
            finally:
                os._exit(0)
        os.close(write_fd)
        try:
            assert os.read(read_fd, 1) == b"1"
        finally:
            os.close(read_fd)
            os.waitpid(pid, 0)
        assert space.load(base, 8) == 0x1122334455667788
        assert space.load(base + 4096, 1) == 0

    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    def test_codecs_roundtrip_at_space_end(self, width):
        space = AddressSpace()
        address = len(space) - width
        value = int.from_bytes(bytes(range(1, width + 1)), "little")
        space.store(address, width, value)
        assert space.load(address, width) == value
        assert space.read_bytes(address, width) == bytes(range(1, width + 1))

    def test_copy_and_find_byte_span_pages(self):
        space = AddressSpace()
        base = space.layout.heap_base + 4096 - 3
        space.write_bytes(base, b"abcdef\x00")
        space.copy(base + 8192, base, 7)
        assert space.read_bytes(base + 8192, 7) == b"abcdef\x00"
        assert space.find_byte(base + 8192, 0, 64) == 6
        assert space.find_byte(base, ord("z"), 4096) == -1
        space.copy(base, base, 0)
        space.copy(len(space), 0, 0)
