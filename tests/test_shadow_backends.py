"""Property tests for the shadow plane's bulk primitives.

The bytearray plane's whole-slice kernels — fill, find_not_full, the
region-scan oracle and GiantSan code construction — must agree with
plain per-byte / per-segment reference walks.  Hypothesis drives the
shadow states across the edge cases the kernels special-case: unaligned
region ends, k-partial segments, the degree-63 fold cap, and empty
regions.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.memory.fillcache import (
    FILL_CACHE_TOTAL_MAX,
    clear_fill_patterns,
    fill_cache_stats,
    fill_pattern,
)
from repro.shadow import ShadowMemory, asan_encoding, giantsan_encoding
from repro.shadow.folding import MAX_DEGREE, degree_for_remaining, run_lengths
from repro.shadow.oracle import (
    bulk_region_is_addressable,
    region_is_addressable,
    scan_region,
    scan_tables,
)

SIZE = 1 << 12  # shadow bytes
MEM = SIZE << 3  # simulated memory producing a SIZE-byte shadow plane

#: Settings for data()-driven tests that paint a whole shadow plane —
#: the base example is necessarily large.
_BULK_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[
        HealthCheck.large_base_example,
        HealthCheck.data_too_large,
    ],
)


# ----------------------------------------------------------------------
# primitives against per-byte references: fill / find_not_full
# ----------------------------------------------------------------------
def _plane():
    return ShadowMemory(MEM)


def _find_not_full_reference(shadow, index, count, full_flags):
    """Per-byte walk: offset of the first non-full code, or -1."""
    for offset in range(count):
        if full_flags[shadow.load(index + offset)]:
            return offset
    return -1


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=SIZE - 1),
    count=st.integers(min_value=0, max_value=512),
    code=st.integers(min_value=0, max_value=255),
)
def test_fill_matches_reference(index, count, code):
    count = min(count, SIZE - index)
    shadow = _plane()
    shadow.store(0, 0x11)
    shadow.store(SIZE - 1, 0x22)
    expected = bytearray(shadow.region(0, SIZE))
    for offset in range(count):
        expected[index + offset] = code
    shadow.fill(index, count, code)
    assert shadow.region(0, SIZE) == bytes(expected)


@_BULK_SETTINGS
@given(data=st.data())
def test_find_not_full_matches_reference(data):
    """Random shadow states, random windows, both encodings — the
    translate/find scan must report the per-byte reference position."""
    shadow = _plane()
    # paint random runs of codes drawn from both encodings' alphabets
    alphabet = [0, 1, 7, 8, 57, 63, 64, 65, 71, 0xF2, 0xFA, 0xFD]
    cursor = 0
    while cursor < SIZE:
        run = data.draw(st.integers(min_value=1, max_value=300))
        run = min(run, SIZE - cursor)
        code = data.draw(st.sampled_from(alphabet))
        shadow.fill(cursor, run, code)
        cursor += run
    index = data.draw(st.integers(min_value=0, max_value=SIZE - 1))
    count = data.draw(st.sampled_from([0, 1, 2, 47, 48, 49, 200, SIZE - index]))
    count = min(count, SIZE - index)
    for prefix_of in (
        asan_encoding.addressable_prefix,
        giantsan_encoding.addressable_prefix,
    ):
        _, full_flags = scan_tables(prefix_of)
        assert shadow.find_not_full(
            index, count, full_flags
        ) == _find_not_full_reference(shadow, index, count, full_flags)


def test_find_not_full_non_monotone_table():
    """A predicate whose full set is not a threshold (full = even codes)."""
    full_flags = bytes(0 if code % 2 == 0 else 1 for code in range(256))
    shadow = _plane()
    for i in range(SIZE):
        shadow.store(i, (i * 7) % 256)
    for index, count in [(0, SIZE), (3, 1000), (100, 53)]:
        assert shadow.find_not_full(
            index, count, full_flags
        ) == _find_not_full_reference(shadow, index, count, full_flags)


def test_find_not_full_all_full_returns_minus_one():
    shadow = _plane()
    shadow.fill(0, SIZE, 0)  # all GOOD under ASan
    _, full_flags = scan_tables(asan_encoding.addressable_prefix)
    assert shadow.find_not_full(0, SIZE, full_flags) == -1
    # all-poison: position 0
    shadow.fill(0, SIZE, 0xFA)
    assert shadow.find_not_full(0, SIZE, full_flags) == 0


# ----------------------------------------------------------------------
# region scans: oracle vs the per-segment reference walk
# ----------------------------------------------------------------------
def _random_state(data, shadow, alphabet):
    cursor = 0
    while cursor < SIZE:
        run = data.draw(st.integers(min_value=1, max_value=200))
        run = min(run, SIZE - cursor)
        code = data.draw(st.sampled_from(alphabet))
        shadow.fill(cursor, run, code)
        cursor += run


@_BULK_SETTINGS
@given(data=st.data())
def test_scan_region_matches_reference_walk_giantsan(data):
    """Byte-range scans (unaligned ends included) agree with the
    slow per-segment reference, GiantSan codes."""
    shadow = _plane()
    alphabet = [64, 63, 1, 65, 66, 71, 0xFB, 0xFD]  # folded/partial/poison
    _random_state(data, shadow, alphabet)
    start = data.draw(st.integers(min_value=0, max_value=SIZE * 8 - 1))
    length = data.draw(st.integers(min_value=0, max_value=600))
    end = min(start + length, SIZE * 8)
    prefix_of = giantsan_encoding.addressable_prefix
    expected = region_is_addressable(shadow, start, end, prefix_of)
    got = bulk_region_is_addressable(shadow, start, end, prefix_of)
    assert got == expected, (start, end)
    ok, fault, visited = scan_region(shadow, start, end, prefix_of)
    assert (ok, fault) == expected
    assert 0 <= visited <= ((end - 1) >> 3) - (start >> 3) + 1 or end <= start


@_BULK_SETTINGS
@given(data=st.data())
def test_scan_region_matches_reference_walk_asan(data):
    shadow = _plane()
    alphabet = [0, 1, 3, 7, 0xF2, 0xFA, 0xFD, 0xFE]
    _random_state(data, shadow, alphabet)
    start = data.draw(st.integers(min_value=0, max_value=SIZE * 8 - 1))
    length = data.draw(st.integers(min_value=0, max_value=600))
    end = min(start + length, SIZE * 8)
    prefix_of = asan_encoding.addressable_prefix
    expected = region_is_addressable(shadow, start, end, prefix_of)
    assert bulk_region_is_addressable(shadow, start, end, prefix_of) == expected


def test_scan_region_empty_region():
    shadow = _plane()
    shadow.fill(0, SIZE, 0xFA)
    ok, fault, visited = scan_region(
        shadow, 100, 100, asan_encoding.addressable_prefix
    )
    assert ok and fault is None and visited == 0


# ----------------------------------------------------------------------
# GiantSan code construction: run expansion vs the per-segment walk
# ----------------------------------------------------------------------
def _codes_reference(size: int) -> bytes:
    """Figure 5 segment by segment: each good segment's degree from the
    good segments remaining, then the partial tail."""
    good, tail = divmod(size, 8)
    codes = bytes(
        giantsan_encoding.encode_folded(degree_for_remaining(good - i))
        for i in range(good)
    )
    if tail:
        codes += bytes([giantsan_encoding.encode_partial(tail)])
    return codes


@pytest.mark.parametrize(
    "size",
    [
        0, 1, 7, 8, 9, 63, 64, 2040, 2047, 2048, 2049,  # around 256 segments
        4096, 10000, 65536 + 7,
    ],
)
def test_expand_codes_array_matches_reference(size):
    """The expanded code array (and the public, memoized entry point)
    equals the per-segment walk, small and large objects alike."""
    good, tail = divmod(size, 8)
    expected = _codes_reference(size)
    assert giantsan_encoding._expand_codes(run_lengths(good), tail) == expected
    assert giantsan_encoding.object_codes(size) == expected


def test_expand_codes_degree_cap():
    """A synthetic run at the degree-63 fold cap expands correctly."""
    runs = [(MAX_DEGREE, 5), (0, 1)]
    assert giantsan_encoding._expand_codes(runs, 3) == (
        bytes([64 - MAX_DEGREE]) * 5 + bytes([64]) + bytes([72 - 3])
    )


@settings(max_examples=40, deadline=None)
@given(size=st.integers(min_value=0, max_value=1 << 16))
def test_object_codes_property(size):
    assert giantsan_encoding.object_codes(size) == _codes_reference(size)


def test_view_is_zero_copy():
    shadow = _plane()
    view = shadow.view(0, 16)
    shadow.store(3, 0x55)
    assert view[3] == 0x55  # no snapshot was taken
    with pytest.raises(IndexError):
        shadow.view(SIZE - 4, 8)


# ----------------------------------------------------------------------
# fill-pattern cache bound (satellite: no longer grow-only)
# ----------------------------------------------------------------------
def test_fill_cache_respects_total_budget():
    clear_fill_patterns()
    try:
        # sweep every byte value at the per-value cap: unbounded, this
        # would pin 256 * 64 KiB = 16 MiB
        for code in range(256):
            pattern = fill_pattern(code, 60_000)
            assert len(pattern) == 60_000
            assert bytes(pattern[:2]) == bytes([code, code])
        occupancy = fill_cache_stats()
        assert occupancy["resident_bytes"] <= FILL_CACHE_TOTAL_MAX
        assert occupancy["patterns"] < 256
        # most-recently-used survives eviction and stays correct
        survivor = fill_pattern(255, 60_000)
        assert bytes(survivor[:3]) == b"\xff\xff\xff"
    finally:
        clear_fill_patterns()
    assert fill_cache_stats()["resident_bytes"] == 0


def test_fill_cache_lru_keeps_hot_entry():
    clear_fill_patterns()
    try:
        fill_pattern(1, 40_000)
        for code in range(2, 40):
            fill_pattern(code, 60_000)
            fill_pattern(1, 40_000)  # keep code 1 hot
        stats = fill_cache_stats()
        assert stats["resident_bytes"] <= FILL_CACHE_TOTAL_MAX
        # code 1 must still be resident: requesting it again must not
        # change occupancy (a miss would re-insert and evict)
        before = fill_cache_stats()["patterns"]
        fill_pattern(1, 40_000)
        assert fill_cache_stats()["patterns"] == before
    finally:
        clear_fill_patterns()


def test_fill_cache_small_fills_unbounded_path_unchanged():
    clear_fill_patterns()
    try:
        assert fill_pattern(7, 0) == b""
        assert bytes(fill_pattern(7, 5)) == b"\x07" * 5
        huge = fill_pattern(7, (1 << 16) + 1)  # above FILL_CACHE_MAX
        assert len(huge) == (1 << 16) + 1
        assert fill_cache_stats()["resident_bytes"] <= 1 << 16
    finally:
        clear_fill_patterns()
