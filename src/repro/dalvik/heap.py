"""The DVM heap with a semispace (moving) garbage collector.

Objects live at real addresses in emulated memory: a word header plus, for
strings and arrays, their character/element data — so native code holding
a direct pointer can read actual bytes, and NDroid can "locate the newly
created object (i.e. StringObject or ArrayObject) before tainting it"
(Section V.B, Object Creation).

``collect`` copies live objects into the other semispace, exactly like
Android's moving collector: every direct pointer changes, the indirect
reference table is updated with new locations, and anything keyed by the
*old* direct pointer goes stale.  This is the behaviour that forces
NDroid's shadow memory for Java objects to be keyed by indirect reference
(Section V.B, JNI Exit) — and the test suite verifies a direct-pointer
scheme really does break.

Object memory layout::

    instance:  +0 class-id word                  (fields are JNI-mediated)
    string:    +0 class-id, +4 length, +8 UTF-8 bytes + NUL
    array:     +0 class-id, +4 length, +8 elements (4-byte words)
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import DalvikError
from repro.common.taint import TAINT_CLEAR, TaintLabel
from repro.memory.memory import Memory

HEAP_SPACE_A = 0x4100_0000
HEAP_SPACE_B = 0x4180_0000
HEAP_SPACE_SIZE = 0x0040_0000

_HEADER_SIZE = 8  # class-id word + length word (length 0 for instances)

STRING_CLASS = "Ljava/lang/String;"


class Slot:
    """One field or array element: value + taint + reference flag."""

    __slots__ = ("value", "taint", "is_ref")

    def __init__(self, value: int = 0, taint: TaintLabel = TAINT_CLEAR,
                 is_ref: bool = False) -> None:
        self.value = value
        self.taint = taint
        self.is_ref = is_ref

    def __repr__(self) -> str:
        kind = "ref" if self.is_ref else "int"
        return f"Slot({kind} 0x{self.value:x}, t=0x{self.taint:x})"


class ObjectRecord:
    """Runtime metadata for one heap object."""

    __slots__ = ("address", "class_name", "kind", "fields", "elements",
                 "element_is_ref", "text", "taint", "forwarded_to")

    def __init__(self, address: int, class_name: str, kind: str) -> None:
        self.address = address
        self.class_name = class_name
        self.kind = kind  # "instance" | "string" | "array"
        self.fields: Dict[str, Slot] = {}
        self.elements: List[Slot] = []
        self.element_is_ref = False
        self.text: str = ""
        # TaintDroid keeps ONE taint label per ArrayObject/StringObject
        # (Section II, Taint Storage); instances carry per-field taints.
        self.taint: TaintLabel = TAINT_CLEAR
        self.forwarded_to: Optional[int] = None

    @property
    def is_string(self) -> bool:
        return self.kind == "string"

    @property
    def is_array(self) -> bool:
        return self.kind == "array"

    def data_address(self) -> int:
        """Address of the string bytes / array elements in guest memory."""
        return self.address + _HEADER_SIZE

    def byte_size(self) -> int:
        if self.kind == "string":
            return _HEADER_SIZE + len(self.text.encode("utf-8")) + 1
        if self.kind == "array":
            return _HEADER_SIZE + 4 * len(self.elements)
        return _HEADER_SIZE

    def __repr__(self) -> str:
        return (f"<{self.kind} {self.class_name} @0x{self.address:08x} "
                f"t=0x{self.taint:x}>")


class DvmHeap:
    """Semispace heap: object table + guest-memory backing."""

    def __init__(self, memory: Memory) -> None:
        self.memory = memory
        self._spaces = (HEAP_SPACE_A, HEAP_SPACE_B)
        # Roots are provided by the VM at collection time.
        self._root_scanner: Optional[Callable[[], List[Slot]]] = None
        self._move_listeners: List[Callable[[int, int], None]] = []
        self._post_gc_hooks: List[Callable[[], None]] = []
        self.reset_for_job()

    def reset_for_job(self) -> None:
        """Forget every object: an empty heap in the first semispace."""
        self._active = 0
        self._bump = self._spaces[0]
        self._objects: Dict[int, ObjectRecord] = {}
        self._class_ids: Dict[str, int] = {}
        self.gc_count = 0

    # -- configuration ---------------------------------------------------------

    def set_root_scanner(self, scanner: Callable[[], List[Slot]]) -> None:
        """Install the VM's root enumerator (frames, statics, IRT)."""
        self._root_scanner = scanner

    def add_move_listener(self, listener: Callable[[int, int], None]) -> None:
        """Notify ``listener(old_address, new_address)`` for each move."""
        self._move_listeners.append(listener)

    def add_post_gc_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` after each collection (e.g. frame write-back)."""
        self._post_gc_hooks.append(hook)

    # -- allocation ----------------------------------------------------------------

    def _class_id(self, class_name: str) -> int:
        return self._class_ids.setdefault(class_name, len(self._class_ids) + 1)

    def _space_end(self) -> int:
        return self._spaces[self._active] + HEAP_SPACE_SIZE

    def _allocate_raw(self, size: int) -> int:
        aligned = (size + 7) & ~7
        if self._bump + aligned > self._space_end():
            self.collect()
            if self._bump + aligned > self._space_end():
                raise DalvikError("DVM heap exhausted")
        address = self._bump
        self._bump += aligned
        return address

    def _install(self, record: ObjectRecord) -> ObjectRecord:
        self._objects[record.address] = record
        self._write_header(record)
        return record

    def _write_header(self, record: ObjectRecord) -> None:
        self.memory.write_u32(record.address, self._class_id(record.class_name))
        length = (len(record.text) if record.is_string
                  else len(record.elements) if record.is_array else 0)
        self.memory.write_u32(record.address + 4, length)

    def alloc_object(self, class_name: str,
                     field_defs: Optional[Dict[str, "object"]] = None
                     ) -> ObjectRecord:
        """dvmAllocObject: a plain instance (Table III, MAF column)."""
        address = self._allocate_raw(_HEADER_SIZE)
        record = ObjectRecord(address, class_name, "instance")
        if field_defs:
            for name, definition in field_defs.items():
                record.fields[name] = Slot(
                    is_ref=getattr(definition, "is_reference", False))
        return self._install(record)

    def alloc_string(self, text: str,
                     taint: TaintLabel = TAINT_CLEAR) -> ObjectRecord:
        """dvmCreateStringFromUnicode/Cstr: a StringObject with real bytes."""
        data = text.encode("utf-8")
        address = self._allocate_raw(_HEADER_SIZE + len(data) + 1)
        record = ObjectRecord(address, STRING_CLASS, "string")
        record.text = text
        record.taint = taint
        self._install(record)
        self.memory.write_bytes(record.data_address(), data + b"\x00")
        return record

    def alloc_array(self, element_type: str, length: int) -> ObjectRecord:
        """dvmAllocArrayByClass / dvmAllocPrimitiveArray."""
        if length < 0:
            raise DalvikError("negative array size")
        address = self._allocate_raw(_HEADER_SIZE + 4 * length)
        record = ObjectRecord(address, f"[{element_type}", "array")
        record.elements = [Slot(is_ref=(element_type == "L"))
                           for __ in range(length)]
        record.element_is_ref = element_type == "L"
        self._install(record)
        # Element words start current (zero), so an APUT mirrors only
        # the word it stores.
        self.memory.fill(record.data_address(), 4 * length, 0)
        return record

    # -- lookup -----------------------------------------------------------------------

    def get(self, address: int) -> ObjectRecord:
        record = self._objects.get(address)
        if record is None:
            raise DalvikError(f"no object @ 0x{address:08x} (stale pointer?)")
        return record

    def maybe_get(self, address: int) -> Optional[ObjectRecord]:
        return self._objects.get(address)

    def contains(self, address: int) -> bool:
        return address in self._objects

    def sync_array_element(self, record: ObjectRecord, index: int) -> None:
        """Mirror one element's value into its guest memory word (an
        ``APUT``); the other elements' words are already current."""
        self.memory.write_u32(record.address + _HEADER_SIZE + 4 * index,
                              record.elements[index].value & 0xFFFF_FFFF)

    def sync_array_to_memory(self, record: ObjectRecord) -> None:
        """Mirror every element value into guest memory words (a JNI
        region set, a collection moving a reference array)."""
        elements = record.elements
        self.memory.write_bytes(record.data_address(), struct.pack(
            f"<{len(elements)}I",
            *[slot.value & 0xFFFF_FFFF for slot in elements]))

    @property
    def live_objects(self) -> int:
        return len(self._objects)

    # -- the moving collector ------------------------------------------------------------

    def collect(self) -> int:
        """Semispace copy; returns the number of live objects moved."""
        if self._root_scanner is None:
            raise DalvikError("GC requested but no root scanner installed")
        self.gc_count += 1
        target_space = self._spaces[1 - self._active]
        new_bump = target_space
        old_objects = self._objects
        new_objects: Dict[int, ObjectRecord] = {}
        moves: List[Tuple[int, int]] = []

        def forward(record: ObjectRecord) -> int:
            nonlocal new_bump
            if record.forwarded_to is not None:
                return record.forwarded_to
            size = (record.byte_size() + 7) & ~7
            new_address = new_bump
            new_bump += size
            old_address = record.address
            # Copy the raw bytes, then rebind the record.
            self.memory.copy(new_address, old_address, record.byte_size())
            record.forwarded_to = new_address
            record.address = new_address
            new_objects[new_address] = record
            moves.append((old_address, new_address))
            # Recurse into reference slots.
            for slot in record.fields.values():
                _forward_slot(slot)
            for slot in record.elements:
                _forward_slot(slot)
            if record.element_is_ref:
                self.sync_array_to_memory(record)
            return new_address

        def _forward_slot(slot: Slot) -> None:
            if slot.is_ref and slot.value:
                target = old_objects.get(slot.value) or \
                    new_objects.get(slot.value)
                if target is None:
                    raise DalvikError(
                        f"GC found dangling reference 0x{slot.value:08x}")
                slot.value = forward(target)

        for root in self._root_scanner():
            _forward_slot(root)

        # Unreached objects die; clear the old space so stale direct
        # pointers read zeros (catches use-after-move in tests).
        for record in old_objects.values():
            if record.forwarded_to is None:
                self.memory.fill(record.address,
                                 min(record.byte_size(), 64), 0)
        self._objects = new_objects
        for record in new_objects.values():
            record.forwarded_to = None
        self._active = 1 - self._active
        self._bump = new_bump
        for old_address, new_address in moves:
            for listener in self._move_listeners:
                listener(old_address, new_address)
        for hook in self._post_gc_hooks:
            hook()
        return len(moves)
