"""Sparse byte-addressable memory with little-endian word accessors.

The store is page-based (4 KiB pages in a dict) so a 4 GiB address space
costs nothing until touched.  All multi-byte accessors are little-endian,
matching ARM's default data endianness on Android.

Accessors that stay within one page operate directly on the page's
``bytearray`` (``struct`` ``unpack_from``/``pack_into`` for words, slice
assignment for byte runs) instead of looping byte-at-a-time; only
accesses that straddle a page boundary fall back to the split path.
This is the data side of the translation-block engine's fast path:
LDM/STM, ``memcpy``-style bulk moves and C-string scans all collapse to
a handful of slice operations.

Code pages can be *watched* (:meth:`watch_page`): a write that touches a
watched page invokes the registered callback with the page index, which
is how the emulator invalidates translated code when a write — guest
self-modifying code, a library load or a warm reset's restore — lands
on it.

A page, once created, is the same ``bytearray`` until
:meth:`Memory.reset_for_job` drops it: no write replaces or resizes it.
So a reader may hold a page (:attr:`Memory.pages`) or a word view over
part of one (:meth:`Memory.word_view`) and index it directly, without a
call per word; a Dalvik frame keeps its slot view for its whole life.
"""

from __future__ import annotations

import struct
import sys
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.common.errors import MemoryError_

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDRESS_MASK = 0xFFFF_FFFF

_ZERO_PAGE = bytes(PAGE_SIZE)
# A word view indexes a page in host byte order; guest memory is
# little-endian.
if sys.byteorder != "little" or \
        memoryview(_ZERO_PAGE).cast("I").itemsize != 4:
    raise ImportError("word views need a little-endian host with 4-byte "
                      "unsigned ints")
# reset_for_job compares a changed page in chunks of this size.
_RESTORE_CHUNK = 64
# Little-endian words read and written in place on a page.
_unpack_u32 = struct.Struct("<I").unpack_from
_pack_u32 = struct.Struct("<I").pack_into
_pack_u32x2 = struct.Struct("<II").pack_into


class Memory:
    """A sparse 32-bit address space.

    By default reads of never-written bytes return zero (like zero-fill
    pages).  With ``strict=True``, reading an untouched page raises
    :class:`MemoryError_`, which catches wild pointers in tests.

    Pages are never replaced: a page is created once, on its first
    write, and only :meth:`reset_for_job` drops it, at a job boundary,
    when no Dalvik frame is live.  Every other write changes the page's
    bytes in place.  That is what keeps a held page or word view valid.
    """

    def __init__(self, strict: bool = False) -> None:
        self._pages: Dict[int, bytearray] = {}
        self.strict = strict
        # Write-watch surface for translated code (see module docstring).
        self._watched_pages: Set[int] = set()
        self._write_watcher: Optional[Callable[[int], None]] = None
        # Page index -> bytes that reset_for_job restores.
        self._checkpoint: Dict[int, bytes] = {}

    # -- warm workers: checkpoint and reset -----------------------------------

    def checkpoint(self, pages: Optional[Iterable[int]] = None) -> None:
        """Snapshot every page for :meth:`reset_for_job`, or add (or
        refresh) the snapshot of just the page indices in ``pages``."""
        if pages is None:
            self._checkpoint = {index: bytes(page)
                                for index, page in self._pages.items()}
            return
        for index in pages:
            page = self._pages.get(index)
            if page is not None:
                self._checkpoint[index] = bytes(page)

    def forget(self, pages: Iterable[int]) -> None:
        """Drop ``pages`` from the checkpoint: the next reset deletes
        them."""
        for index in pages:
            self._checkpoint.pop(index, None)

    def reset_for_job(self) -> None:
        """Drop pages created since the checkpoint and rewrite the spans
        of checkpointed pages that changed.

        A changed page is compared in 64-byte chunks; a run of differing
        chunks is trimmed to its first and last differing byte and
        written with :meth:`write_bytes`.  The write watcher sees the
        dropped pages and the changed bytes, as it would see
        self-modifying code — not the whole page, so a store into data
        sharing a page with decoded code leaves the code's translations
        alone.
        """
        checkpoint = self._checkpoint
        for index in [index for index in self._pages
                      if index not in checkpoint]:
            del self._pages[index]
            if index in self._watched_pages:
                self._notify_write(index, 0, PAGE_SIZE)
        for index, data in checkpoint.items():
            page = self._pages.get(index, _ZERO_PAGE)
            if page != data:
                base = index << PAGE_SHIFT
                for low, high in _differing_spans(page, data):
                    self.write_bytes(base + low, data[low:high])

    # -- page plumbing ----------------------------------------------------

    def touched_pages(self) -> int:
        """Number of pages ever written (used by memory-pressure tests)."""
        return len(self._pages)

    @property
    def pages(self) -> Dict[int, bytearray]:
        """The live page table, page index -> page: read it, never
        store into it (an inline reader's fast path; a write through a
        page would bypass the write watcher)."""
        return self._pages

    def word_view(self, address: int, count: int) -> memoryview:
        """A writable view of the ``count`` u32 words at ``address``:
        ``view[i]`` is the word at ``address + 4 * i``.

        The words must sit on one page, which is created if absent, and
        that page must not be watched: a store through the view does not
        reach the write watcher.  The view is valid until
        :meth:`reset_for_job` drops the page (see the class doc).
        """
        address &= ADDRESS_MASK
        offset = address & PAGE_MASK
        index = address >> PAGE_SHIFT
        if offset + 4 * count > PAGE_SIZE:
            raise MemoryError_(address, f"{count}-word view crosses a page")
        if index in self._watched_pages:
            raise MemoryError_(address, "word view over a watched page")
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        return memoryview(page)[offset:offset + 4 * count].cast("I")

    # -- code-page write watching -------------------------------------------

    def set_write_watcher(
            self,
            watcher: Optional[Callable[[int, int, int], None]]) -> None:
        """Install the single write-watch callback.

        The watcher receives ``(page_index, start_offset, end_offset)``
        for every write chunk landing on a watched page, so the consumer
        can ignore writes to data that merely shares a page with code
        (literal pools, ``.space`` buffers).
        """
        self._write_watcher = watcher
        if watcher is None:
            self._watched_pages.clear()

    def watch_page(self, index: int) -> None:
        self._watched_pages.add(index)

    def unwatch_page(self, index: int) -> None:
        self._watched_pages.discard(index)

    def _notify_write(self, index: int, start: int, end: int) -> None:
        if self._write_watcher is not None:
            self._write_watcher(index, start, end)

    # -- byte access ------------------------------------------------------

    def read_u8(self, address: int) -> int:
        address &= ADDRESS_MASK
        page = self._pages.get(address >> PAGE_SHIFT)
        if page is None:
            if self.strict:
                raise MemoryError_(address, "read of unmapped page")
            return 0
        return page[address & PAGE_MASK]

    def write_u8(self, address: int, value: int) -> None:
        address &= ADDRESS_MASK
        index = address >> PAGE_SHIFT
        page = self._pages.get(index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[index] = page
        offset = address & PAGE_MASK
        page[offset] = value & 0xFF
        if index in self._watched_pages:
            self._notify_write(index, offset, offset + 1)

    # -- halfword/word access (little-endian) ------------------------------

    def read_u16(self, address: int) -> int:
        address &= ADDRESS_MASK
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 2:
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                if self.strict:
                    raise MemoryError_(address, "read of unmapped page")
                return 0
            return page[offset] | (page[offset + 1] << 8)
        return self.read_u8(address) | (self.read_u8(address + 1) << 8)

    def write_u16(self, address: int, value: int) -> None:
        address &= ADDRESS_MASK
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 2:
            index = address >> PAGE_SHIFT
            page = self._pages.get(index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[index] = page
            page[offset] = value & 0xFF
            page[offset + 1] = (value >> 8) & 0xFF
            if index in self._watched_pages:
                self._notify_write(index, offset, offset + 2)
            return
        self.write_u8(address, value)
        self.write_u8(address + 1, value >> 8)

    def read_u32(self, address: int) -> int:
        address &= ADDRESS_MASK
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                if self.strict:
                    raise MemoryError_(address, "read of unmapped page")
                return 0
            return _unpack_u32(page, offset)[0]
        return self.read_u16(address) | (self.read_u16(address + 2) << 16)

    def write_u32(self, address: int, value: int) -> None:
        address &= ADDRESS_MASK
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            index = address >> PAGE_SHIFT
            page = self._pages.get(index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[index] = page
            _pack_u32(page, offset, value & 0xFFFF_FFFF)
            if index in self._watched_pages:
                self._notify_write(index, offset, offset + 4)
            return
        self.write_u16(address, value)
        self.write_u16(address + 2, value >> 16)

    def write_u32x2(self, address: int, first: int, second: int) -> None:
        """Write two adjacent u32 words in one page operation.

        This is the TaintDroid slot shape — a 4-byte value immediately
        followed by its 4-byte taint tag — so the Dalvik fast paths
        (frame writes, compiled superinstruction blocks) pay one page
        lookup per slot instead of two.
        """
        address &= ADDRESS_MASK
        offset = address & PAGE_MASK
        if offset <= PAGE_SIZE - 8:
            index = address >> PAGE_SHIFT
            page = self._pages.get(index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[index] = page
            _pack_u32x2(page, offset, first & 0xFFFF_FFFF,
                        second & 0xFFFF_FFFF)
            if index in self._watched_pages:
                self._notify_write(index, offset, offset + 8)
            return
        self.write_u32(address, first)
        self.write_u32(address + 4, second)

    def read_i32(self, address: int) -> int:
        value = self.read_u32(address)
        return value - 0x1_0000_0000 if value & 0x8000_0000 else value

    def write_i32(self, address: int, value: int) -> None:
        self.write_u32(address, value & 0xFFFF_FFFF)

    def read_u64(self, address: int) -> int:
        return self.read_u32(address) | (self.read_u32(address + 4) << 32)

    def write_u64(self, address: int, value: int) -> None:
        self.write_u32(address, value & 0xFFFF_FFFF)
        self.write_u32(address + 4, (value >> 32) & 0xFFFF_FFFF)

    # -- bulk access -------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> bytes:
        address &= ADDRESS_MASK
        if length <= 0:
            return b""
        chunks: List[bytes] = []
        remaining = length
        while remaining > 0:
            offset = address & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                if self.strict:
                    raise MemoryError_(address, "read of unmapped page")
                chunks.append(_ZERO_PAGE[:chunk])
            else:
                chunks.append(bytes(page[offset:offset + chunk]))
            address = (address + chunk) & ADDRESS_MASK
            remaining -= chunk
        return b"".join(chunks)

    def write_bytes(self, address: int, data: Iterable[int]) -> None:
        address &= ADDRESS_MASK
        blob = bytes(data)
        position = 0
        remaining = len(blob)
        while remaining > 0:
            offset = address & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            index = address >> PAGE_SHIFT
            page = self._pages.get(index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[index] = page
            page[offset:offset + chunk] = blob[position:position + chunk]
            if index in self._watched_pages:
                self._notify_write(index, offset, offset + chunk)
            address = (address + chunk) & ADDRESS_MASK
            position += chunk
            remaining -= chunk

    def read_cstring(self, address: int, limit: int = 1 << 16,
                     bounded: bool = False) -> bytes:
        """Read a NUL-terminated C string (without the terminator).

        Scans whole page slices with ``bytearray.index(0)`` rather than
        issuing one ``read_u8`` per byte — this path is hot in the libc
        string hooks (``strcpy``/``strlen``/format strings).

        Boundary semantics (pinned by ``tests/memory/test_memory.py``):

        * a string may span any number of page boundaries — the scan
          continues across mapped pages until it finds a NUL;
        * an **unmapped page** behaves exactly like every other read
          path: in default (non-strict) memory its bytes read as zero,
          so the first unmapped byte terminates the string and the bytes
          read so far are returned; in ``strict`` memory the scan raises
          :class:`MemoryError_` at the first unmapped address instead;
        * if no NUL occurs within ``limit`` bytes the scan raises
          :class:`MemoryError_` identifying the *start* of the string.
          A terminator exactly at index ``limit - 1`` still succeeds
          (returning ``limit - 1`` bytes); one at index ``limit`` is
          past the window and raises.  With ``bounded`` (what
          ``strncmp`` reads) such a string is instead its first ``limit``
          bytes, and the scan never looks past them.
        """
        start = address & ADDRESS_MASK
        address = start
        out = bytearray()
        remaining = limit
        while remaining > 0:
            offset = address & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                if self.strict:
                    raise MemoryError_(address, "read of unmapped page")
                return bytes(out)  # zero-fill page: immediate terminator
            try:
                nul = page.index(0, offset, offset + chunk)
            except ValueError:
                out += page[offset:offset + chunk]
                address = (address + chunk) & ADDRESS_MASK
                remaining -= chunk
                continue
            out += page[offset:nul]
            return bytes(out)
        if bounded:
            return bytes(out)
        raise MemoryError_(start, f"unterminated C string (>{limit} bytes)")

    def write_cstring(self, address: int, text: str) -> int:
        """Write ``text`` as UTF-8 plus a NUL terminator; return byte count."""
        data = text.encode("utf-8") + b"\x00"
        self.write_bytes(address, data)
        return len(data)

    def fill(self, address: int, length: int, value: int = 0) -> None:
        address &= ADDRESS_MASK
        remaining = length
        byte = value & 0xFF
        while remaining > 0:
            offset = address & PAGE_MASK
            chunk = min(remaining, PAGE_SIZE - offset)
            index = address >> PAGE_SHIFT
            page = self._pages.get(index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[index] = page
            page[offset:offset + chunk] = bytes([byte]) * chunk
            if index in self._watched_pages:
                self._notify_write(index, offset, offset + chunk)
            address = (address + chunk) & ADDRESS_MASK
            remaining -= chunk

    def copy(self, dest: int, src: int, length: int) -> None:
        """memmove semantics: correct even for overlapping ranges."""
        data = self.read_bytes(src, length)
        self.write_bytes(dest, data)

    # -- word lists (for LDM/STM and stack dumps) ---------------------------

    def read_words(self, address: int, count: int) -> List[int]:
        address &= ADDRESS_MASK
        offset = address & PAGE_MASK
        if count > 0 and offset <= PAGE_SIZE - 4 * count:
            page = self._pages.get(address >> PAGE_SHIFT)
            if page is None:
                if self.strict:
                    raise MemoryError_(address, "read of unmapped page")
                return [0] * count
            return list(struct.unpack_from(f"<{count}I", page, offset))
        return [self.read_u32(address + 4 * i) for i in range(count)]

    def write_words(self, address: int, words: Iterable[int]) -> None:
        values = list(words)
        address &= ADDRESS_MASK
        offset = address & PAGE_MASK
        if values and offset <= PAGE_SIZE - 4 * len(values):
            index = address >> PAGE_SHIFT
            page = self._pages.get(index)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._pages[index] = page
            struct.pack_into(f"<{len(values)}I", page, offset,
                             *[value & 0xFFFF_FFFF for value in values])
            if index in self._watched_pages:
                self._notify_write(index, offset, offset + 4 * len(values))
            return
        for i, word in enumerate(values):
            self.write_u32(address + 4 * i, word)

def _differing_spans(live, want) -> List[Tuple[int, int]]:
    """``[low, high)`` spans where two equal-length buffers differ.

    Runs of adjacent differing chunks merge into one span, trimmed
    byte-wise at both ends only.
    """
    spans: List[Tuple[int, int]] = []
    length = len(want)
    low = None
    for start in range(0, length, _RESTORE_CHUNK):
        end = min(start + _RESTORE_CHUNK, length)
        if live[start:end] != want[start:end]:
            if low is None:
                low = next(index for index in range(start, end)
                           if live[index] != want[index])
            last = start
        elif low is not None:
            spans.append((low, _last_difference(live, want, last)))
            low = None
    if low is not None:
        spans.append((low, _last_difference(live, want, last)))
    return spans


def _last_difference(live, want, start: int) -> int:
    """One past the last differing byte of the chunk at ``start``."""
    end = min(start + _RESTORE_CHUNK, len(want))
    return next(index for index in range(end - 1, start - 1, -1)
                if live[index] != want[index]) + 1
