"""The DVM call stack in emulated memory, with TaintDroid's layout.

TaintDroid "modifies DVM's stack structure to increase stack size for
storing taint labels related to registers" (Section II.B, Fig. 1): each
register slot is followed by its taint tag, parameter taints for native
callees are stored interleaved in the caller's outs area, and a
``StackSaveArea`` above each frame records the caller's state.

The stack lives in guest memory so NDroid can do what the paper describes
literally: parse parameters *and their taints* from the frame pointer
passed to ``dvmCallJNIMethod``, and write taints into callee frame slots
("add taint to new method frame t[44bf8c14] = 0x1602", Fig. 9).

Frame layout (addresses grow downward like the real interpreted stack)::

    higher addresses
      [StackSaveArea: prev_fp, method_id, return taint slot]
      v0 value | v0 taint | v1 value | v1 taint | ...
    fp -> (address of v0 value slot)
    lower addresses

A frame's slot area never crosses a page: when it would, the frame is
pushed lower so its slots end at the page boundary below (the bytes
skipped stay unused until the frame pops).  So each frame can hold one
word view of its slots (:attr:`Frame.slots`), which the trace compiler's
closures index instead of calling into :class:`Memory` per slot.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import DalvikError
from repro.common.taint import TAINT_CLEAR, TaintLabel
from repro.dalvik.classes import Method
from repro.memory.memory import PAGE_MASK, PAGE_SIZE, Memory

DVM_STACK_BASE = 0x44C0_0000   # top of the interpreted stack
DVM_STACK_SIZE = 0x0004_0000

SAVE_AREA_SIZE = 12            # prev_fp | method_id | return-taint
SLOT_SIZE = 8                  # 4 bytes value + 4 bytes taint tag


class Frame:
    """A method frame fronting guest-memory slots.

    Values and taints are read/written through guest memory; reference
    flags (needed for exact GC) are kept alongside in Python, as the real
    VM derives them from verifier type maps.

    ``slots`` is a word view of the same guest bytes: ``slots[2 * r]`` is
    vN's value and ``slots[2 * r + 1]`` its taint tag.  Compiled blocks
    read and write through it; :meth:`get`/:meth:`set` go through
    :class:`Memory`, so the single-step interpreter stays an independent
    oracle.  A store through ``slots`` must be a 32-bit value, and one
    of a nonzero taint must set ``maybe_tainted`` itself.
    """

    def __init__(self, memory: Memory, fp: int, method: Method,
                 prev_fp: int, slots: memoryview) -> None:
        self.memory = memory
        self.fp = fp
        self.method = method
        self.prev_fp = prev_fp
        self.slots = slots
        self.register_count = method.registers_size
        self.ref_flags: List[bool] = [False] * self.register_count
        self.pc = 0
        # Sticky taint flag: becomes True the first time a nonzero taint
        # tag lands in any register slot and never resets for the frame's
        # lifetime.  The trace compiler dispatches on it to pick the clean
        # or tainted block variant (mirroring the TB engine's per-block
        # ``maybe_tainted`` discipline): False guarantees every taint word
        # in the frame is zero, so clean variants may skip taint reads and
        # writes entirely.
        self.maybe_tainted = False

    # -- slot addressing ---------------------------------------------------------

    def slot_address(self, register: int) -> int:
        """Guest address of vN's value word (taint tag is 4 bytes above)."""
        self._check(register)
        return self.fp + SLOT_SIZE * register

    def taint_address(self, register: int) -> int:
        return self.slot_address(register) + 4

    def _check(self, register: int) -> None:
        if not 0 <= register < self.register_count:
            raise DalvikError(
                f"register v{register} out of range in {self.method.full_name}")

    # -- typed access ---------------------------------------------------------------

    def get(self, register: int) -> int:
        return self.memory.read_u32(self.slot_address(register))

    def get_taint(self, register: int) -> TaintLabel:
        return self.memory.read_u32(self.taint_address(register))

    def is_ref(self, register: int) -> bool:
        self._check(register)
        return self.ref_flags[register]

    def set(self, register: int, value: int,
            taint: TaintLabel = TAINT_CLEAR, is_ref: bool = False) -> None:
        if taint:
            self.maybe_tainted = True
        self.memory.write_u32x2(self.slot_address(register), value, taint)
        self.ref_flags[register] = is_ref

    def set_taint(self, register: int, taint: TaintLabel) -> None:
        if taint:
            self.maybe_tainted = True
        self.memory.write_u32(self.taint_address(register), taint)

    def add_taint(self, register: int, taint: TaintLabel) -> None:
        self.set_taint(register, self.get_taint(register) | taint)

    # -- ins placement (Dalvik puts arguments in the highest registers) ------------

    def first_in_register(self) -> int:
        return self.register_count - self.method.ins_size

    def __repr__(self) -> str:
        return (f"<frame {self.method.full_name} fp=0x{self.fp:08x} "
                f"regs={self.register_count}>")


class DvmStack:
    """The interpreted stack: frame push/pop plus the outs-area protocol."""

    def __init__(self, memory: Memory, base: int = DVM_STACK_BASE,
                 size: int = DVM_STACK_SIZE) -> None:
        self.memory = memory
        self.base = base
        self.size = size
        self.frames: List[Frame] = []
        self.reset_for_job()

    def reset_for_job(self) -> None:
        """An empty stack: no frames, the pointer back at the base."""
        self.frames.clear()
        self._stack_pointer = self.base     # grows downward
        # The stack pointer before each live frame was pushed.
        self._tops: List[int] = []

    @property
    def depth(self) -> int:
        return len(self.frames)

    @property
    def current(self) -> Optional[Frame]:
        return self.frames[-1] if self.frames else None

    def push_frame(self, method: Method) -> Frame:
        """Allocate a frame: StackSaveArea then interleaved register slots,
        the slots on one page (see the module doc)."""
        slot_bytes = SLOT_SIZE * method.registers_size
        if slot_bytes > PAGE_SIZE:
            raise DalvikError(
                f"{method.full_name} has {method.registers_size} registers; "
                f"a frame holds at most {PAGE_SIZE // SLOT_SIZE}")
        fp = self._stack_pointer - SAVE_AREA_SIZE - slot_bytes
        last = fp + slot_bytes - 1
        if slot_bytes and (fp ^ last) & ~PAGE_MASK:
            fp = (last & ~PAGE_MASK) - slot_bytes
        if fp < self.base - self.size:
            raise DalvikError(
                f"StackOverflowError in {method.full_name} "
                f"(depth {len(self.frames)})")
        prev_fp = self.frames[-1].fp if self.frames else 0
        save_area = fp + slot_bytes
        self.memory.write_u32(save_area, prev_fp)
        self.memory.write_u32(save_area + 8, 0)  # return-taint slot
        # Zero the slots so stale values/taints never leak between calls.
        self.memory.fill(fp, slot_bytes, 0)
        frame = Frame(self.memory, fp, method, prev_fp,
                      self.memory.word_view(fp, 2 * method.registers_size))
        self.frames.append(frame)
        self._tops.append(self._stack_pointer)
        self._stack_pointer = fp
        return frame

    def pop_frame(self) -> Frame:
        if not self.frames:
            raise DalvikError("pop on empty DVM stack")
        frame = self.frames.pop()
        frame.slots.release()
        self._stack_pointer = self._tops.pop()
        return frame

    # -- the native-call outs protocol (paper Fig. 1, right side) ----------------

    def write_native_args(self, values: List[int], taints: List[TaintLabel],
                          return_taint: TaintLabel = TAINT_CLEAR) -> int:
        """Store native-call arguments + interleaved taints; return args ptr.

        "If the target is a native method, TaintDroid will store both the
        parameters' taint labels and the return value's taint label that is
        appended to the parameters."  The returned pointer is what
        ``dvmCallJNIMethod`` receives as its first argument.
        """
        count = len(values)
        args_ptr = self.native_args_pointer(count)
        for index, (value, taint) in enumerate(zip(values, taints)):
            self.memory.write_u32(args_ptr + SLOT_SIZE * index,
                                  value & 0xFFFF_FFFF)
            self.memory.write_u32(args_ptr + SLOT_SIZE * index + 4, taint)
        self.memory.write_u32(args_ptr + SLOT_SIZE * count, return_taint)
        return args_ptr

    def native_args_pointer(self, count: int) -> int:
        """Where :meth:`write_native_args` puts a ``count``-argument block."""
        return self._stack_pointer - (SLOT_SIZE * count + 4)

    @staticmethod
    def read_native_arg(memory: Memory, args_ptr: int, index: int):
        value = memory.read_u32(args_ptr + SLOT_SIZE * index)
        taint = memory.read_u32(args_ptr + SLOT_SIZE * index + 4)
        return value, taint

    @staticmethod
    def native_return_taint_address(args_ptr: int, count: int) -> int:
        return args_ptr + SLOT_SIZE * count
