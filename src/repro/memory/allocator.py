"""Heap allocators backing ``malloc``/``free`` in the modelled libc.

Two allocators are provided:

* :class:`BumpAllocator` — trivially fast, never reuses memory.  Used for
  code/data placement at load time.
* :class:`FreeListAllocator` — a first-fit free-list allocator with
  coalescing, used as the native heap so that ``malloc``/``free``/``realloc``
  behave realistically (reuse means stale taint must be cleared, which the
  taint engine tests exercise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import MemoryError_

_ALIGN = 8


def _align_up(value: int, alignment: int = _ALIGN) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


class BumpAllocator:
    """Monotonic allocator over ``[base, base + size)``."""

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.size = size
        # The next free address; moving it back frees everything past it.
        self.cursor = base

    def alloc(self, length: int, alignment: int = _ALIGN) -> int:
        address = _align_up(self.cursor, alignment)
        if address + length > self.base + self.size:
            raise MemoryError_(address, "bump allocator exhausted")
        self.cursor = address + length
        return address

    @property
    def used(self) -> int:
        return self.cursor - self.base


@dataclass
class _FreeBlock:
    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size


class FreeListAllocator:
    """First-fit free-list allocator with coalescing on free.

    Tracks live allocations so double frees and frees of wild pointers are
    detected — the same class of bug NDroid's memory hooks would observe in
    a real native library.
    """

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.size = size
        self._free: List[_FreeBlock] = [_FreeBlock(base, size)]
        self._live: Dict[int, int] = {}

    def alloc(self, length: int) -> int:
        length = _align_up(max(length, 1))
        for index, block in enumerate(self._free):
            if block.size >= length:
                address = block.start
                if block.size == length:
                    del self._free[index]
                else:
                    block.start += length
                    block.size -= length
                self._live[address] = length
                return address
        raise MemoryError_(self.base, f"native heap exhausted ({length} bytes)")

    def free(self, address: int) -> int:
        if address == 0:
            return 0  # free(NULL) is a no-op, as in C.
        length = self._live.pop(address, None)
        if length is None:
            raise MemoryError_(address, "free of unallocated pointer")
        self._insert_free(_FreeBlock(address, length))
        return length

    def size_of(self, address: int) -> Optional[int]:
        return self._live.get(address)

    def realloc(self, address: int, new_length: int) -> Tuple[int, int]:
        """Return (new_address, bytes_to_copy).  Caller moves the data."""
        if address == 0:
            return self.alloc(new_length), 0
        old_length = self._live.get(address)
        if old_length is None:
            raise MemoryError_(address, "realloc of unallocated pointer")
        new_address = self.alloc(new_length)
        self.free(address)
        return new_address, min(old_length, new_length)

    def _insert_free(self, block: _FreeBlock) -> None:
        self._free.append(block)
        self._free.sort(key=lambda b: b.start)
        merged: List[_FreeBlock] = []
        for candidate in self._free:
            if merged and merged[-1].end == candidate.start:
                merged[-1].size += candidate.size
            else:
                merged.append(candidate)
        self._free = merged

    @property
    def live_bytes(self) -> int:
        return sum(self._live.values())

    @property
    def live_allocations(self) -> int:
        return len(self._live)

    @property
    def free_bytes(self) -> int:
        return sum(block.size for block in self._free)
