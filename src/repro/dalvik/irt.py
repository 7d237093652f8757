"""The indirect reference table (IRT).

Since Android 4.0 native code receives *indirect references* instead of
direct object pointers; when the GC moves an object it "updates the
indirect reference table with the object's new location.  Consequently,
native codes will hold valid object pointers every time GC moves objects
around" (Section II.A).  NDroid must handle both irefs and direct pointers
(pre-ICS), so the table exposes a decode that accepts either.

Encoding (mirrors dalvik's ``IndirectRef``): the low 2 bits hold the kind
(1 = local, 2 = global), the remaining bits hold a serial|index cookie.
Encoded values land far from heap/code addresses so confusing an iref with
a pointer fails loudly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import JNIError

KIND_LOCAL = 1
KIND_GLOBAL = 2

_IREF_BASE = 0x5F80_0000
# iref layout: | base | serial (6 bits) | index (12 bits) | kind (2 bits) |
_SERIAL_SHIFT = 14
_INDEX_MASK = (1 << _SERIAL_SHIFT) - 1
_MAX_INDEX = (_INDEX_MASK >> 2)


class IndirectRefTable:
    """Local + global reference tables with GC move support."""

    def __init__(self) -> None:
        self.reset_for_job()

    def reset_for_job(self) -> None:
        """Empty both tables and restart the serial."""
        self._tables: Dict[int, List[Optional[int]]] = {
            KIND_LOCAL: [], KIND_GLOBAL: []}
        self._serial = 0

    # -- add/remove -----------------------------------------------------------

    def _encode(self, kind: int, index: int) -> int:
        if index > _MAX_INDEX:
            raise JNIError("indirect reference table overflow")
        self._serial = (self._serial + 1) & 0x3F
        return (_IREF_BASE + (self._serial << _SERIAL_SHIFT)
                + (index << 2)) | kind

    def add_local(self, object_address: int) -> int:
        return self._add(KIND_LOCAL, object_address)

    def add_global(self, object_address: int) -> int:
        return self._add(KIND_GLOBAL, object_address)

    def _add(self, kind: int, object_address: int) -> int:
        if object_address == 0:
            return 0  # NULL stays NULL through JNI
        table = self._tables[kind]
        for index, entry in enumerate(table):
            if entry is None:
                table[index] = object_address
                return self._encode(kind, index)
        table.append(object_address)
        return self._encode(kind, len(table) - 1)

    def remove(self, iref: int) -> None:
        kind, index = self._split(iref)
        table = self._tables[kind]
        if index >= len(table) or table[index] is None:
            raise JNIError(f"DeleteRef on dead iref 0x{iref:08x}")
        table[index] = None

    # -- decode -----------------------------------------------------------------

    @staticmethod
    def is_indirect(value: int) -> bool:
        return (value & 0x3) != 0 and (value & 0xFF00_0000) == \
            (_IREF_BASE & 0xFF00_0000)

    def _split(self, iref: int):
        kind = iref & 0x3
        if kind not in self._tables:
            raise JNIError(f"bad indirect reference kind in 0x{iref:08x}")
        index = ((iref - _IREF_BASE) & _INDEX_MASK) >> 2
        return kind, index

    def decode(self, iref: int) -> int:
        """dvmDecodeIndirectRef: iref (or direct pointer) -> address."""
        if iref == 0:
            return 0
        if not self.is_indirect(iref):
            return iref  # pre-ICS direct pointer passes through
        kind, index = self._split(iref)
        table = self._tables[kind]
        if index >= len(table) or table[index] is None:
            raise JNIError(f"stale indirect reference 0x{iref:08x}")
        return table[index]

    # -- GC integration ------------------------------------------------------------

    def on_object_moved(self, old_address: int, new_address: int) -> None:
        for table in self._tables.values():
            for index, entry in enumerate(table):
                if entry == old_address:
                    table[index] = new_address

    def roots(self) -> List[int]:
        """All referenced object addresses (GC roots)."""
        return [entry for table in self._tables.values()
                for entry in table if entry]

    def local_count(self) -> int:
        return sum(1 for entry in self._tables[KIND_LOCAL] if entry)

    def global_count(self) -> int:
        return sum(1 for entry in self._tables[KIND_GLOBAL] if entry)
