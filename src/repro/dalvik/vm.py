"""The Dalvik VM facade: class registry, dispatch, GC roots, exceptions.

This object plays the role of ``libdvm`` for the rest of the system.  The
JNI layer installs its call bridge here (``dvmCallJNIMethod``), the
framework registers intrinsics for Android API methods, and the analysis
engines reach the heap, stack and indirect reference table through it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import DalvikError
from repro.common.taint import TAINT_CLEAR, TaintLabel
from repro.dalvik.classes import ClassDef, Method
from repro.dalvik.heap import DvmHeap, ObjectRecord, Slot
from repro.dalvik.interpreter import Interpreter, PendingException
from repro.dalvik.irt import IndirectRefTable
from repro.dalvik.stack import DvmStack
from repro.memory.memory import Memory

# An intrinsic implements a framework method in Python:
# (vm, args) -> Slot or None (for void).
Intrinsic = Callable[["DalvikVM", List[Slot]], Optional[Slot]]
# The JNI call bridge: (vm, method, args) -> Slot.
CallBridge = Callable[["DalvikVM", Method, List[Slot]], Slot]


class DalvikVM:
    """One virtual machine instance (single interpreted thread)."""

    def __init__(self, memory: Memory) -> None:
        self.memory = memory
        self.heap = DvmHeap(memory)
        self.irt = IndirectRefTable()
        self.stack = DvmStack(memory)
        self.interpreter = Interpreter(self)
        self.classes: Dict[str, ClassDef] = {}
        self.intrinsics: Dict[str, Intrinsic] = {}
        self.call_bridge: Optional[CallBridge] = None
        # Provenance ledger (observability); None when not tracing.  The
        # interpreter hoists the lookup out of its dispatch loop and uses
        # ``ledger_epoch`` to notice attach/detach mid-run.
        self._ledger = None
        self.ledger_epoch = 0
        # Dalvik trace compiler (None = single-step oracle only);
        # installed by :meth:`enable_trace_compiler`.
        self.tbc = None

        self.heap.set_root_scanner(self._scan_roots)
        self.heap.add_move_listener(self.irt.on_object_moved)
        self.heap.add_post_gc_hook(self._write_back_frames)
        self.heap.add_post_gc_hook(self._rebuild_intern_table)
        self._init_job_state()

    # -- warm workers: checkpoint and reset ---------------------------------------

    def _init_job_state(self) -> None:
        self._interned: Dict[str, int] = {}
        # InterpSaveState: the last invoke's return value and taint
        # (TaintDroid copies the return taint here, Section II.B).
        self.interp_save_state = Slot()
        self.caught_exception: Optional[PendingException] = None
        self._root_frame_slots: List[Tuple[object, int, Slot]] = []

    def checkpoint(self) -> None:
        """Record the booted classes, their statics and native bindings."""
        self._checkpoint = dict(self.classes)
        for class_def in self.classes.values():
            class_def.checkpoint()

    def reset_for_job(self) -> None:
        """Back to the checkpointed classes, statics and bindings, with an
        empty heap, stack and reference table.  Compiled blocks stay."""
        self.classes.clear()
        self.classes.update(self._checkpoint)
        for class_def in self.classes.values():
            class_def.restore()
        self.heap.reset_for_job()
        self.stack.reset_for_job()
        self.irt.reset_for_job()
        self.interpreter.reset_for_job()
        if self.tbc is not None:
            self.tbc.reset_for_job()
        self._init_job_state()

    # -- observability ------------------------------------------------------------

    @property
    def ledger(self):
        return self._ledger

    @ledger.setter
    def ledger(self, value) -> None:
        self._ledger = value
        self.ledger_epoch += 1

    # -- trace compilation ---------------------------------------------------------

    def enable_trace_compiler(self) -> None:
        """Attach the Dalvik trace compiler (lazy per-region compilation)."""
        if self.tbc is None:
            from repro.dalvik.tbc import DalvikTraceCompiler
            self.tbc = DalvikTraceCompiler(self)

    # -- classes ------------------------------------------------------------------

    def register_class(self, class_def: ClassDef) -> ClassDef:
        live = self.classes.get(class_def.name)
        self.classes[class_def.name] = class_def
        if live is not None and live is not class_def \
                and self.tbc is not None:
            # Redefinition may replace Method objects mid-run; drop every
            # compiled block rather than tracking which methods changed.
            self.tbc.flush()
        return class_def

    def class_by_name(self, name: str) -> ClassDef:
        found = self.classes.get(name)
        if found is None:
            raise DalvikError(f"class not loaded: {name!r}")
        return found

    def register_intrinsic(self, symbol: str, function: Intrinsic) -> None:
        self.intrinsics[symbol] = function

    def resolve_method(self, symbol: str) -> Method:
        """Resolve ``Lcls;->name`` walking the superclass chain."""
        class_name, _, method_name = symbol.partition("->")
        if not method_name:
            raise DalvikError(f"bad method symbol {symbol!r}")
        current: Optional[str] = class_name
        while current is not None:
            class_def = self.classes.get(current)
            if class_def is None:
                break
            method = class_def.methods.get(method_name)
            if method is not None:
                return method
            current = class_def.superclass
        raise DalvikError(f"unresolved method {symbol!r}")

    # -- invocation ----------------------------------------------------------------

    def invoke_symbol(self, symbol: str, args: List[Slot],
                      virtual: bool = False) -> Slot:
        intrinsic = self.intrinsics.get(symbol)
        if intrinsic is not None:
            result = intrinsic(self, args)
            return result if result is not None else Slot()
        if virtual and args and args[0].is_ref and args[0].value:
            # Virtual dispatch on the receiver's runtime class.
            receiver = self.heap.get(args[0].value)
            method_name = symbol.partition("->")[2]
            runtime_symbol = f"{receiver.class_name}->{method_name}"
            try:
                method = self.resolve_method(runtime_symbol)
            except DalvikError:
                method = self.resolve_method(symbol)
        else:
            method = self.resolve_method(symbol)
        return self.invoke(method, args)

    def invoke(self, method: Method, args: List[Slot]) -> Slot:
        if method.is_native:
            if self.call_bridge is None:
                raise DalvikError(
                    f"native {method.full_name} but no JNI bridge installed")
            return self.call_bridge(self, method, args)
        return self.interpreter.execute(method, args)

    def call_main(self, symbol: str, args: Optional[List[Slot]] = None) -> Slot:
        """Convenience entry point used by scenario apps and tests."""
        return self.invoke_symbol(symbol, args or [])

    # -- objects and strings ------------------------------------------------------------

    def new_instance(self, class_name: str) -> ObjectRecord:
        class_def = self.classes.get(class_name)
        field_defs = class_def.instance_fields if class_def else None
        return self.heap.alloc_object(class_name, field_defs)

    def new_exception(self, class_name: str, detail: str) -> ObjectRecord:
        record = self.heap.alloc_object(class_name)
        message = self.heap.alloc_string(detail)
        record.fields["message"] = Slot(message.address, TAINT_CLEAR, True)
        return record

    def intern_string(self, text: str) -> int:
        address = self._interned.get(text)
        if address is not None and self.heap.contains(address):
            return address
        record = self.heap.alloc_string(text)
        self._interned[text] = record.address
        return record.address

    def string_value(self, record: ObjectRecord) -> str:
        if not record.is_string:
            raise DalvikError(f"not a string: {record!r}")
        return record.text

    def string_at(self, address: int) -> str:
        return self.string_value(self.heap.get(address))

    # -- statics -------------------------------------------------------------------------

    def _static_slot(self, symbol: str):
        class_name, _, field_name = symbol.partition("->")
        class_def = self.class_by_name(class_name)
        if field_name not in class_def.static_values:
            raise DalvikError(f"no static field {symbol!r}")
        return class_def, field_name

    def get_static(self, symbol: str) -> Tuple[int, TaintLabel]:
        class_def, field_name = self._static_slot(symbol)
        value, taint = class_def.static_values[field_name]
        return value, taint

    def set_static(self, symbol: str, value: int, taint: TaintLabel,
                   is_ref: bool = False) -> None:
        class_def, field_name = self._static_slot(symbol)
        class_def.static_values[field_name] = [value & 0xFFFF_FFFF, taint]
        class_def.static_ref_flags[field_name] = is_ref

    # -- GC plumbing -----------------------------------------------------------------------

    def gc(self) -> int:
        """Force a collection (tests use this to shake object addresses)."""
        return self.heap.collect()

    def _scan_roots(self) -> List[Slot]:
        roots: List[Slot] = []
        self._root_frame_slots = []
        # Interpreted frames.
        for frame in self.stack.frames:
            for register in range(frame.register_count):
                if frame.is_ref(register) and frame.get(register):
                    slot = Slot(frame.get(register), frame.get_taint(register),
                                True)
                    roots.append(slot)
                    self._root_frame_slots.append((frame, register, slot))
        # Static reference fields.
        for class_def in self.classes.values():
            for field_name, is_ref in class_def.static_ref_flags.items():
                values = class_def.static_values[field_name]
                if is_ref and values[0]:
                    slot = Slot(values[0], values[1], True)
                    roots.append(slot)
                    self._root_frame_slots.append((values, 0, slot))
        # Indirect references (local + global) held by native code.
        for address in self.irt.roots():
            slot = Slot(address, TAINT_CLEAR, True)
            roots.append(slot)
            # The IRT is updated via the move listener, not write-back.
        # The pending return value may hold a reference.
        if self.interp_save_state.is_ref and self.interp_save_state.value:
            roots.append(self.interp_save_state)
        return roots

    def _write_back_frames(self) -> None:
        for holder, index, slot in self._root_frame_slots:
            if isinstance(holder, list):
                holder[0] = slot.value
            else:
                holder.set(index, slot.value, slot.taint, is_ref=True)
        self._root_frame_slots = []

    def _rebuild_intern_table(self) -> None:
        self._interned = {
            record.text: record.address
            for record in self.heap._objects.values()
            if record.is_string and record.text in self._interned
        }

    # -- statistics --------------------------------------------------------------------------

    @property
    def dalvik_instructions(self) -> int:
        return self.interpreter.instructions_executed
