"""Unit tests for the sparse memory store."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import MemoryError_
from repro.memory import Memory


def test_default_reads_zero():
    mem = Memory()
    assert mem.read_u8(0x1234) == 0
    assert mem.read_u32(0xDEAD_0000) == 0


def test_strict_mode_raises_on_untouched_page():
    mem = Memory(strict=True)
    with pytest.raises(MemoryError_):
        mem.read_u8(0x5000)
    mem.write_u8(0x5000, 1)
    assert mem.read_u8(0x5000) == 1


def test_u8_roundtrip_masks():
    mem = Memory()
    mem.write_u8(0x100, 0x1FF)
    assert mem.read_u8(0x100) == 0xFF


def test_u32_little_endian():
    mem = Memory()
    mem.write_u32(0x200, 0x11223344)
    assert mem.read_u8(0x200) == 0x44
    assert mem.read_u8(0x203) == 0x11
    assert mem.read_u16(0x200) == 0x3344


def test_u32_cross_page_boundary():
    mem = Memory()
    mem.write_u32(0xFFE, 0xAABBCCDD)
    assert mem.read_u32(0xFFE) == 0xAABBCCDD


def test_i32_sign_extension():
    mem = Memory()
    mem.write_i32(0x10, -5)
    assert mem.read_i32(0x10) == -5
    assert mem.read_u32(0x10) == 0xFFFF_FFFB


def test_u64_roundtrip():
    mem = Memory()
    mem.write_u64(0x40, 0x0102030405060708)
    assert mem.read_u64(0x40) == 0x0102030405060708


def test_cstring_roundtrip():
    mem = Memory()
    n = mem.write_cstring(0x300, "hello")
    assert n == 6
    assert mem.read_cstring(0x300) == b"hello"


def test_cstring_unterminated_raises():
    mem = Memory()
    for i in range(32):
        mem.write_u8(0x400 + i, ord("a"))
    with pytest.raises(MemoryError_):
        mem.read_cstring(0x400, limit=16)


def test_copy_overlapping_is_memmove():
    mem = Memory()
    mem.write_bytes(0x500, b"abcdef")
    mem.copy(0x502, 0x500, 4)
    assert mem.read_bytes(0x500, 6) == b"ababcd"


def test_fill():
    mem = Memory()
    mem.fill(0x600, 8, 0xAB)
    assert mem.read_bytes(0x600, 8) == b"\xab" * 8


def test_words_roundtrip():
    mem = Memory()
    mem.write_words(0x700, [1, 2, 3])
    assert mem.read_words(0x700, 3) == [1, 2, 3]


def test_address_wraps_at_32_bits():
    mem = Memory()
    mem.write_u8(0x1_0000_0010, 7)
    assert mem.read_u8(0x10) == 7


@given(st.integers(0, 0xFFFF_F000), st.integers(0, 0xFFFF_FFFF))
def test_u32_roundtrip_property(addr, value):
    mem = Memory()
    mem.write_u32(addr, value)
    assert mem.read_u32(addr) == value


@given(st.binary(min_size=0, max_size=64), st.integers(0, 0xFFFF_0000))
def test_bytes_roundtrip_property(data, addr):
    mem = Memory()
    mem.write_bytes(addr, data)
    assert mem.read_bytes(addr, len(data)) == data


# -- page-boundary fast paths ------------------------------------------------

def test_bulk_ops_straddle_page_boundary():
    mem = Memory()
    boundary = 0x3000 - 2  # last two bytes of one page + next page
    mem.write_u32(boundary, 0xA1B2C3D4)
    assert mem.read_u32(boundary) == 0xA1B2C3D4
    data = bytes(range(1, 201))
    mem.write_bytes(0x3F80, data)  # crosses 0x4000
    assert mem.read_bytes(0x3F80, len(data)) == data
    mem.fill(0x4FF0, 0x20, 0xEE)  # crosses 0x5000
    assert mem.read_bytes(0x4FF0, 0x20) == b"\xEE" * 0x20


def test_words_straddle_page_boundary():
    mem = Memory()
    words = [0x11111111, 0x22222222, 0x33333333, 0x44444444]
    mem.write_words(0x1FFC - 4, words)  # last words of the page + beyond
    assert mem.read_words(0x1FFC - 4, 4) == words


def test_cstring_across_page_boundary():
    mem = Memory()
    text = "x" * 100
    mem.write_cstring(0x1000 - 50, text)  # NUL lands on the second page
    assert mem.read_cstring(0x1000 - 50) == text.encode()


def test_cstring_stops_at_unmapped_page():
    mem = Memory()
    # 20 non-NUL bytes ending exactly at a page boundary; the next page
    # was never written, so it reads as zero fill -> terminator.
    mem.write_bytes(0x2000 - 20, b"y" * 20)
    assert mem.read_cstring(0x2000 - 20) == b"y" * 20


# -- read_cstring boundary semantics (pinned) --------------------------------

class TestCStringBoundarySemantics:
    """The docstring contract of Memory.read_cstring, case by case."""

    def test_unmapped_successor_page_nonstrict_returns_prefix(self):
        # The string fills the tail of a mapped page and runs into an
        # unmapped successor: non-strict memory zero-fills, so the first
        # unmapped byte terminates the string.
        mem = Memory()
        mem.write_bytes(0x5000 - 8, b"p" * 8)
        assert mem.read_cstring(0x5000 - 8) == b"p" * 8

    def test_unmapped_successor_page_strict_raises_at_boundary(self):
        mem = Memory(strict=True)
        mem.write_bytes(0x5000 - 8, b"p" * 8)
        with pytest.raises(MemoryError_) as info:
            mem.read_cstring(0x5000 - 8)
        # The fault identifies the first unmapped byte, not the start.
        assert info.value.address == 0x5000

    def test_nul_exactly_at_limit_minus_one_succeeds(self):
        mem = Memory()
        mem.write_bytes(0x6000, b"q" * 15 + b"\x00")
        assert mem.read_cstring(0x6000, limit=16) == b"q" * 15

    def test_nul_exactly_at_limit_raises(self):
        # The terminator sits at index ``limit`` — one byte outside the
        # scan window — so the string is unterminated within the limit.
        mem = Memory()
        mem.write_bytes(0x7000, b"q" * 16 + b"\x00")
        with pytest.raises(MemoryError_):
            mem.read_cstring(0x7000, limit=16)

    def test_unterminated_error_reports_start_address(self):
        mem = Memory()
        # Cross a page boundary before exhausting the limit, so a naive
        # implementation would report the advanced scan position.
        start = 0x8000 - 4
        mem.write_bytes(start, b"r" * 64)
        mem.write_bytes(0x8000, b"r" * 64)
        with pytest.raises(MemoryError_) as info:
            mem.read_cstring(start, limit=32)
        assert info.value.address == start

    def test_limit_spanning_pages_with_late_nul(self):
        # NUL on the second page, within the limit: the scan crosses the
        # boundary and returns the whole string.
        mem = Memory()
        start = 0x9000 - 10
        mem.write_bytes(start, b"s" * 10)
        mem.write_bytes(0x9000, b"s" * 5 + b"\x00")
        assert mem.read_cstring(start, limit=64) == b"s" * 15


# -- write watching ----------------------------------------------------------

def test_write_watcher_reports_page_and_range():
    mem = Memory()
    events = []
    mem.set_write_watcher(lambda page, lo, hi: events.append((page, lo, hi)))
    mem.watch_page(2)
    mem.write_u8(0x2010, 0xFF)          # watched
    mem.write_u32(0x5000, 1)            # not watched
    mem.write_bytes(0x2FF0, b"z" * 32)  # straddles watched page 2 + page 3
    assert (2, 0x10, 0x11) in events
    assert (2, 0xFF0, 0x1000) in events
    assert all(page == 2 for page, _, _ in events)


def test_unwatch_page_silences_watcher():
    mem = Memory()
    events = []
    mem.set_write_watcher(lambda page, lo, hi: events.append(page))
    mem.watch_page(1)
    mem.write_u8(0x1000, 1)
    mem.unwatch_page(1)
    mem.write_u8(0x1000, 2)
    assert events == [1]


# -- reset_for_job (a warm reset restoring a resident library) ---------------

@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.binary(min_size=1, max_size=9000), st.integers(0, 0xFFF),
       st.lists(st.tuples(st.integers(0, 8999),
                          st.binary(min_size=1, max_size=80)), max_size=6))
@example(b"\x00" * 8192, 0xFF0, [(0x0F, b"\x01"), (0x10, b"\x02")])
@example(b"\xaa" * 300, 0, [(5, b"\x00"), (200, b"\x00")])
def test_reset_for_job_writes_only_changed_spans(image, offset, scribbles):
    # The image's pages join an (empty) checkpoint the way a library's
    # do when it becomes resident.
    mem = Memory()
    base = 0x10000 + offset
    mem.write_bytes(base, image)
    pages = range(base >> 12, ((base + len(image) - 1) >> 12) + 1)
    mem.checkpoint(pages)
    mem.write_u32(0x4000_0000, 1)  # a page the job created
    for position, data in scribbles:
        position %= len(image)
        mem.write_bytes(base + position, data[:len(image) - position])
    live = mem.read_bytes(base, len(image))
    changed = {index for index in range(len(image))
               if live[index] != image[index]}
    events = []
    mem.set_write_watcher(lambda page, lo, hi: events.append((page, lo, hi)))
    for page in pages:
        mem.watch_page(page)

    mem.reset_for_job()

    assert mem.read_bytes(base, len(image)) == image
    assert mem.touched_pages() == len(pages)  # the job's page is gone
    notified = {(page << 12) + index - base
                for page, lo, hi in events for index in range(lo, hi)}
    assert changed <= notified
    if changed:
        # Trimmed to the changed bytes at both ends.
        assert min(notified) == min(changed)
        assert max(notified) == max(changed)
    else:
        assert events == []


# -- pages are never replaced; word views ----------------------------------

def test_a_page_is_never_replaced_until_reset_drops_it():
    """Every writer changes a page in place, so a held page or word view
    stays live; only reset_for_job drops a page (restoring a kept one in
    place)."""
    mem = Memory()
    mem.write_u8(0x2000, 1)                      # page 2, checkpointed
    mem.checkpoint()
    kept = mem.pages[2]
    view = mem.word_view(0x2100, 4)
    mem.write_u32(0x3010, 5)                     # page 3, a job's page
    job_page = mem.pages[3]
    writes = [
        lambda: mem.write_u8(0x2100, 0xAB),
        lambda: mem.write_u16(0x2FFF, 0xBEEF),  # straddles into page 3
        lambda: mem.write_u32(0x2104, 0x1122_3344),
        lambda: mem.write_u32x2(0x2108, 7, 9),
        lambda: mem.write_bytes(0x2FF0, b"\x01" * 40),
        lambda: mem.fill(0x2200, 0x100, 0x5A),
        lambda: mem.write_words(0x2300, [1, 2, 3]),
        lambda: mem.copy(0x2400, 0x2100, 16),
        lambda: mem.write_cstring(0x2500, "abc"),
        lambda: mem.reset_for_job(),             # restores page 2 in place
    ]
    for write in writes[:-1]:
        write()
        assert mem.pages[2] is kept and mem.pages[3] is job_page
    assert view.tolist() == mem.read_words(0x2100, 4)
    writes[-1]()
    assert mem.pages[2] is kept
    assert 3 not in mem.pages                    # the job's page is gone
    assert view.tolist() == [0, 0, 0, 0] == mem.read_words(0x2100, 4)


def test_word_view_reads_and_writes_guest_words():
    mem = Memory()
    mem.write_u32(0x1_0008, 0xCAFE_F00D)
    view = mem.word_view(0x1_0008, 2)
    assert view.tolist() == [0xCAFE_F00D, 0]
    view[1] = 0x8000_0001
    assert mem.read_u32(0x1_000C) == 0x8000_0001
    assert mem.read_bytes(0x1_000C, 4) == b"\x01\x00\x00\x80"
    with pytest.raises((ValueError, OverflowError)):
        view[0] = 1 << 32                        # a view stores 32 bits


def test_word_view_creates_its_page():
    mem = Memory(strict=True)
    view = mem.word_view(0x7000, 3)
    assert view.tolist() == [0, 0, 0]
    assert mem.read_u32(0x7008) == 0             # mapped now, no raise


def test_word_view_refuses_a_page_crossing_and_a_watched_page():
    mem = Memory()
    mem.word_view(0x1FF8, 2)                     # ends at the boundary
    with pytest.raises(MemoryError_, match="crosses a page"):
        mem.word_view(0x1FFC, 2)
    mem.set_write_watcher(lambda page, lo, hi: None)
    mem.watch_page(5)
    with pytest.raises(MemoryError_, match="watched page"):
        mem.word_view(0x5000, 1)


# -- word accessors against byte-wise access at the end of a page ------------

PAGE = 0x0004_1000
END_OFFSETS = range(0x1000 - 8, 0x1000)


def _edge_memory(strict, watched, next_mapped):
    """A page of distinct bytes, the next page mapped or not, and a log
    of the byte ranges the write watcher saw."""
    memory = Memory(strict=strict)
    memory.write_bytes(PAGE, bytes(i * 7 & 0xFF for i in range(0x1000)))
    if next_mapped:
        memory.write_bytes(PAGE + 0x1000, bytes(range(16)))
    seen = set()
    memory.set_write_watcher(lambda page, start, end: seen.update(
        (page << 12) + offset for offset in range(start, end)))
    if watched:
        memory.watch_page(PAGE >> 12)
        memory.watch_page((PAGE >> 12) + 1)
    return memory, seen


def _bytewise(memory, address, length):
    return [memory.read_u8(address + index) for index in range(length)]


def _outcome(function, *args):
    try:
        return function(*args)
    except MemoryError_:
        return MemoryError_


def _bytewise_words(memory, address, count):
    """``count`` little-endian words assembled from byte reads."""
    return [sum(memory.read_u8(address + 4 * word + index) << (8 * index)
                for index in range(4)) for word in range(count)]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("watched", [False, True])
@pytest.mark.parametrize("next_mapped", [False, True])
def test_word_reads_match_bytewise_reads_at_page_end(strict, watched,
                                                     next_mapped):
    memory, __ = _edge_memory(strict, watched, next_mapped)
    for address in (PAGE + offset for offset in END_OFFSETS):
        one = _outcome(_bytewise_words, memory, address, 1)
        assert _outcome(memory.read_u32, address) == \
            (one if one is MemoryError_ else one[0])
        assert _outcome(memory.read_words, address, 1) == one
        assert _outcome(memory.read_words, address, 2) == \
            _outcome(_bytewise_words, memory, address, 2)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("watched", [False, True])
@pytest.mark.parametrize("next_mapped", [False, True])
def test_word_writes_match_bytewise_reads_at_page_end(strict, watched,
                                                      next_mapped):
    first, second = 0x8877_6655, 0x4433_2211
    writes = (
        ("write_u32", lambda memory, address:
         memory.write_u32(address, first), [first], 4),
        ("write_u32x2", lambda memory, address:
         memory.write_u32x2(address, first, second), [first, second], 8),
        ("write_words", lambda memory, address:
         memory.write_words(address, [first, second]), [first, second], 8),
    )
    for name, write, values, length in writes:
        for address in (PAGE + offset for offset in END_OFFSETS):
            memory, seen = _edge_memory(strict, watched, next_mapped)
            write(memory, address)
            data = b"".join(value.to_bytes(4, "little") for value in values)
            assert bytes(_bytewise(memory, address, length)) == data, \
                (name, hex(address))
            # A watched page's watcher saw exactly the bytes written.
            assert seen == (set(range(address, address + length))
                            if watched else set()), (name, hex(address))
