"""The Dalvik interpreter with TaintDroid's per-instruction propagation.

"TaintDroid tracks the taints of primitive type variables and object
references according to the logic of each DVM instruction" (Section II.B).
Every handler below moves taint alongside data with the union rule, in
every configuration: vanilla runs this same propagation, its framework
sources just never return a taint.  This loop is the single-step oracle
the trace compiler (:mod:`repro.dalvik.tbc`) is checked against.

Exception flow: ``throw`` raises :class:`PendingException`, which unwinds
interpreted frames honouring each method's catch ranges — the carrier of
the paper's exception-based information flow (``ThrowNew``, Section V.B).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import DalvikError
from repro.common.taint import TAINT_CLEAR
from repro.dalvik.classes import Method
from repro.dalvik.heap import Slot
from repro.dalvik.instructions import (
    BINARY_OPS,
    COMPARE_OPS,
    COMPARE_Z_OPS,
    Ins,
    Op,
    REF_DEST_OPS,
)
from repro.dalvik.stack import Frame
from repro.observability.ledger import Loc


class PendingException(Exception):
    """An in-flight Java exception (object address + its reference taint)."""

    def __init__(self, exception_address: int, taint: int,
                 class_name: str) -> None:
        super().__init__(class_name)
        self.exception_address = exception_address
        self.taint = taint
        self.class_name = class_name


def _signed(value: int) -> int:
    value &= 0xFFFF_FFFF
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


class Interpreter:
    """Executes interpreted methods against the VM's stack and heap."""

    def __init__(self, vm) -> None:
        self.vm = vm
        # Optional per-instruction observer (the DroidScope comparator
        # uses this to model instruction-level DVM-state reconstruction).
        self.listener = None
        self.reset_for_job()

    def reset_for_job(self) -> None:
        self.instructions_executed = 0

    # -- entry point -----------------------------------------------------------

    def execute(self, method: Method, args: List[Slot]) -> Slot:
        """Run an interpreted method; returns the result slot."""
        if method.is_native:
            raise DalvikError(f"{method.full_name} is native")
        if len(args) != method.ins_size:
            raise DalvikError(
                f"{method.full_name} expects {method.ins_size} ins, "
                f"got {len(args)}")
        vm = self.vm
        frame = vm.stack.push_frame(method)
        first_in = frame.first_in_register()
        for offset, slot in enumerate(args):
            frame.set(first_in + offset, slot.value, slot.taint, slot.is_ref)
        try:
            return self._run(frame)
        finally:
            vm.stack.pop_frame()

    def execute_frame(self, frame: Frame) -> Slot:
        """Run an already-pushed frame (the ``dvmInterpret`` entry path).

        The JNI-exit machinery pushes the frame and copies arguments in
        *before* ``dvmInterpret`` runs, so instrumentation at the
        ``dvmInterpret`` boundary (NDroid's hook) can patch taints into the
        frame slots first.  The caller owns push/pop.
        """
        return self._run(frame)

    # -- main loop -----------------------------------------------------------------

    def _run(self, frame: Frame) -> Slot:
        vm = self.vm
        # Trace-compiled fast path: active when the VM carries a compiler
        # and no per-instruction listener needs to see every bytecode
        # (the DroidScope comparator forces the single-step oracle).
        tbc = vm.tbc
        if tbc is not None and self.listener is None:
            return self._run_compiled(frame, tbc)
        method = frame.method
        code = method.code
        # The provenance ledger is resolved once per frame run, not per
        # instruction; ``ledger_epoch`` bumps whenever observability
        # attaches/detaches one, so a cheap int compare re-validates it.
        ledger = vm._ledger
        epoch = vm.ledger_epoch
        while True:
            if frame.pc >= len(code):
                raise DalvikError(
                    f"fell off the end of {method.full_name}")
            ins = code[frame.pc]
            self.instructions_executed += 1
            if self.listener is not None:
                self.listener(frame, ins)
            if epoch != vm.ledger_epoch:
                ledger = vm._ledger
                epoch = vm.ledger_epoch
            try:
                result = self._dispatch(frame, ins, ledger)
            except PendingException as pending:
                handler = self._find_handler(method, frame.pc)
                if handler is None:
                    raise
                self.vm.caught_exception = pending
                frame.pc = handler
                continue
            if result is not None:
                return result

    def _run_compiled(self, frame: Frame, tbc) -> Slot:
        """The block-replay loop: lazily compile, then execute cached blocks.

        Mirrors ``_run``'s exception unwinding exactly; per-block
        instruction accounting happens inside ``DalvikBlock.execute``.
        """
        vm = self.vm
        method = frame.method
        blocks = tbc.blocks_for(method)
        while True:
            block = blocks.get(frame.pc)
            if block is None:
                block = tbc.compile(method, frame.pc)
            else:
                tbc.hits += 1
            try:
                result = block.execute(frame, self)
            except PendingException as pending:
                handler = self._find_handler(method, frame.pc)
                if handler is None:
                    raise
                vm.caught_exception = pending
                frame.pc = handler
                continue
            if result is not None:
                return result

    @staticmethod
    def _find_handler(method: Method, pc: int) -> Optional[int]:
        for start, end, handler in method.catch_ranges:
            if start <= pc < end:
                return handler
        return None

    # -- dispatch ----------------------------------------------------------------------

    def _dispatch(self, frame: Frame, ins: Ins,
                  ledger=None) -> Optional[Slot]:
        op = ins.op
        vm = self.vm

        if op == Op.NOP:
            frame.pc += 1
            return None

        # -- moves ----------------------------------------------------------
        if op in (Op.MOVE, Op.MOVE_OBJECT):
            taint = frame.get_taint(ins.b)
            if taint and ledger is not None:
                ledger.record(taint, "dalvik:move",
                              Loc.dvreg(frame.slot_address(ins.b)),
                              Loc.dvreg(frame.slot_address(ins.a)))
            frame.set(ins.a, frame.get(ins.b), taint,
                      is_ref=(op == Op.MOVE_OBJECT))
            frame.pc += 1
            return None
        if op in (Op.MOVE_RESULT, Op.MOVE_RESULT_OBJECT):
            result = vm.interp_save_state
            taint = result.taint
            if taint and ledger is not None:
                ledger.record(taint, "dalvik:move-result",
                              Loc.java(taint),
                              Loc.dvreg(frame.slot_address(ins.a)))
            frame.set(ins.a, result.value, taint,
                      is_ref=(op == Op.MOVE_RESULT_OBJECT))
            frame.pc += 1
            return None
        if op == Op.MOVE_EXCEPTION:
            pending = vm.caught_exception
            if pending is None:
                raise DalvikError("move-exception with no pending exception")
            frame.set(ins.a, pending.exception_address,
                      pending.taint, is_ref=True)
            vm.caught_exception = None
            frame.pc += 1
            return None

        # -- constants -------------------------------------------------------
        if op == Op.CONST:
            frame.set(ins.a, int(ins.literal) & 0xFFFF_FFFF, TAINT_CLEAR)
            frame.pc += 1
            return None
        if op == Op.CONST_STRING:
            address = vm.intern_string(str(ins.literal))
            frame.set(ins.a, address, TAINT_CLEAR, is_ref=True)
            frame.pc += 1
            return None

        # -- returns -----------------------------------------------------------
        if op == Op.RETURN_VOID:
            return Slot(0, TAINT_CLEAR, False)
        if op == Op.RETURN:
            taint = frame.get_taint(ins.a)
            return Slot(frame.get(ins.a), taint, False)
        if op == Op.RETURN_OBJECT:
            taint = frame.get_taint(ins.a)
            return Slot(frame.get(ins.a), taint, True)

        # -- arithmetic -----------------------------------------------------------
        if op in BINARY_OPS:
            a = _signed(frame.get(ins.b))
            b = _signed(frame.get(ins.c))
            try:
                value = BINARY_OPS[op](a, b)
            except ZeroDivisionError:
                self._throw_new(frame, "Ljava/lang/ArithmeticException;",
                                "divide by zero")
            taint = frame.get_taint(ins.b) | frame.get_taint(ins.c)
            frame.set(ins.a, value & 0xFFFF_FFFF, taint)
            frame.pc += 1
            return None
        if op == Op.ADD_INT_LIT:
            value = _signed(frame.get(ins.b)) + int(ins.literal)
            taint = frame.get_taint(ins.b)
            frame.set(ins.a, value & 0xFFFF_FFFF, taint)
            frame.pc += 1
            return None
        if op == Op.MUL_INT_LIT:
            value = _signed(frame.get(ins.b)) * int(ins.literal)
            taint = frame.get_taint(ins.b)
            frame.set(ins.a, value & 0xFFFF_FFFF, taint)
            frame.pc += 1
            return None
        if op == Op.NEG_INT:
            taint = frame.get_taint(ins.b)
            frame.set(ins.a, (-_signed(frame.get(ins.b))) & 0xFFFF_FFFF, taint)
            frame.pc += 1
            return None
        if op == Op.NOT_INT:
            taint = frame.get_taint(ins.b)
            frame.set(ins.a, (~frame.get(ins.b)) & 0xFFFF_FFFF, taint)
            frame.pc += 1
            return None

        # -- objects ------------------------------------------------------------------
        if op == Op.NEW_INSTANCE:
            record = vm.new_instance(ins.symbol)
            frame.set(ins.a, record.address, TAINT_CLEAR, is_ref=True)
            frame.pc += 1
            return None
        if op == Op.NEW_ARRAY:
            length = _signed(frame.get(ins.b))
            if length < 0:
                self._throw_new(frame,
                                "Ljava/lang/NegativeArraySizeException;",
                                str(length))
            record = vm.heap.alloc_array(ins.symbol or "I", length)
            frame.set(ins.a, record.address, TAINT_CLEAR, is_ref=True)
            frame.pc += 1
            return None
        if op == Op.ARRAY_LENGTH:
            record = self._array(frame, frame.get(ins.b), ins.b)
            taint = record.taint
            frame.set(ins.a, len(record.elements), taint)
            frame.pc += 1
            return None
        if op in (Op.AGET, Op.AGET_OBJECT):
            record = self._array(frame, frame.get(ins.b), ins.b)
            index = self._array_index(frame, frame.get(ins.c), record)
            slot = record.elements[index]
            taint = record.taint | frame.get_taint(ins.c)
            frame.set(ins.a, slot.value, taint,
                      is_ref=(op == Op.AGET_OBJECT))
            frame.pc += 1
            return None
        if op in (Op.APUT, Op.APUT_OBJECT):
            record = self._array(frame, frame.get(ins.b), ins.b)
            index = self._array_index(frame, frame.get(ins.c), record)
            is_ref = op == Op.APUT_OBJECT
            record.elements[index] = Slot(frame.get(ins.a), TAINT_CLEAR,
                                          is_ref)
            # TaintDroid: one label per array object, grown by union.
            record.taint |= frame.get_taint(ins.a) | frame.get_taint(ins.c)
            vm.heap.sync_array_element(record, index)
            frame.pc += 1
            return None
        if op in (Op.IGET, Op.IGET_OBJECT):
            slot = self._field(frame, frame.get(ins.b), ins.symbol)
            frame.set(ins.a, slot.value,
                      slot.taint,
                      is_ref=(op == Op.IGET_OBJECT))
            frame.pc += 1
            return None
        if op in (Op.IPUT, Op.IPUT_OBJECT):
            slot = self._field(frame, frame.get(ins.b), ins.symbol,
                               create=True)
            slot.value = frame.get(ins.a)
            slot.taint = frame.get_taint(ins.a)
            slot.is_ref = op == Op.IPUT_OBJECT
            frame.pc += 1
            return None
        if op in (Op.SGET, Op.SGET_OBJECT):
            value, taint = vm.get_static(ins.symbol)
            frame.set(ins.a, value, taint,
                      is_ref=(op == Op.SGET_OBJECT))
            frame.pc += 1
            return None
        if op in (Op.SPUT, Op.SPUT_OBJECT):
            vm.set_static(ins.symbol, frame.get(ins.a),
                          frame.get_taint(ins.a),
                          is_ref=(op == Op.SPUT_OBJECT))
            frame.pc += 1
            return None

        # -- invokes -------------------------------------------------------------------
        if op in (Op.INVOKE_VIRTUAL, Op.INVOKE_DIRECT, Op.INVOKE_STATIC):
            arg_slots = [
                Slot(frame.get(register),
                     frame.get_taint(register),
                     frame.is_ref(register))
                for register in ins.args
            ]
            if ledger is not None:
                for register, slot in zip(ins.args, arg_slots):
                    if slot.taint:
                        ledger.record(slot.taint, "dalvik:invoke",
                                      Loc.dvreg(frame.slot_address(register)),
                                      Loc.java(slot.taint),
                                      location=ins.symbol)
            result = vm.invoke_symbol(ins.symbol, arg_slots,
                                      virtual=(op == Op.INVOKE_VIRTUAL))
            vm.interp_save_state = result
            frame.pc += 1
            return None

        # -- control flow ----------------------------------------------------------------
        if op == Op.GOTO:
            frame.pc = ins.target_index
            return None
        if op in COMPARE_OPS:
            taken = COMPARE_OPS[op](_signed(frame.get(ins.a)),
                                    _signed(frame.get(ins.b)))
            frame.pc = ins.target_index if taken else frame.pc + 1
            return None
        if op in COMPARE_Z_OPS:
            taken = COMPARE_Z_OPS[op](_signed(frame.get(ins.a)))
            frame.pc = ins.target_index if taken else frame.pc + 1
            return None

        # -- exceptions ----------------------------------------------------------------------
        if op == Op.THROW:
            address = frame.get(ins.a)
            record = vm.heap.get(address)
            raise PendingException(
                address,
                frame.get_taint(ins.a),
                record.class_name)

        # -- string helpers ---------------------------------------------------------------------
        if op == Op.STRING_CONCAT:
            left = vm.heap.get(frame.get(ins.b))
            right = vm.heap.get(frame.get(ins.c))
            taint = (left.taint | right.taint | frame.get_taint(ins.b)
                     | frame.get_taint(ins.c))
            record = vm.heap.alloc_string(
                vm.string_value(left) + vm.string_value(right), taint)
            frame.set(ins.a, record.address, taint, is_ref=True)
            frame.pc += 1
            return None
        if op == Op.INT_TO_STRING:
            taint = frame.get_taint(ins.b)
            record = vm.heap.alloc_string(str(_signed(frame.get(ins.b))),
                                          taint)
            frame.set(ins.a, record.address, taint, is_ref=True)
            frame.pc += 1
            return None

        raise DalvikError(f"unimplemented opcode {op}")

    # -- helpers --------------------------------------------------------------------------
    #
    # They take a register's value word already read, so the trace
    # compiler's closures share them, reading through the slot view.

    def _array(self, frame: Frame, address: int, register: int):
        """The array ``address`` (vN's word, N = ``register``) names."""
        if address == 0:
            self._throw_new(frame, "Ljava/lang/NullPointerException;",
                            "null array")
        record = self.vm.heap.get(address)
        if not record.is_array:
            raise DalvikError(f"v{register} does not hold an array")
        return record

    def _array_index(self, frame: Frame, word: int, record) -> int:
        index = _signed(word)
        if not 0 <= index < len(record.elements):
            self._throw_new(frame,
                            "Ljava/lang/ArrayIndexOutOfBoundsException;",
                            str(index))
        return index

    def _field(self, frame: Frame, address: int, name: str,
               create: bool = False) -> Slot:
        if address == 0:
            self._throw_new(frame, "Ljava/lang/NullPointerException;",
                            f"null receiver for field {name}")
        record = self.vm.heap.get(address)
        slot = record.fields.get(name)
        if slot is None:
            if not create:
                raise DalvikError(
                    f"object {record.class_name} has no field {name!r}")
            slot = Slot()
            record.fields[name] = slot
        return slot

    def _throw_new(self, frame: Frame, class_name: str, detail: str):
        record = self.vm.new_exception(class_name, detail)
        raise PendingException(record.address, TAINT_CLEAR, class_name)
