"""Trace-compiled Dalvik superinstruction blocks.

The managed-side twin of the emulator's translation-block engine: the
first time execution reaches a method region, the straight-line bytecode
run starting there (up to the next branch, invoke, return or throw) is
compiled into a :class:`DalvikBlock` — a tuple of specialized Python
closures with every ``Ins`` field pre-resolved and every register's
slot word index baked in.  The closures read and write registers
through the frame's word view (``frame.slots``, see
:mod:`repro.dalvik.stack`): an index per slot, not a call into
:class:`~repro.memory.memory.Memory`.
Subsequent executions replay the closures instead of re-decoding the
instruction stream through ``Interpreter._dispatch``.

Each block carries two body variants, mirroring the clean/tainted TB
variants on the native side, picked by the frame's sticky
``maybe_tainted`` flag.  Every configuration runs the same two: vanilla
differs from TaintDroid only in that its framework sources return no
taint, so its frames stay on the clean variant.

``clean``
    The frame's ``maybe_tainted`` flag is False, which guarantees every
    register taint word is zero (the flag is maintained centrally by
    :class:`~repro.dalvik.stack.Frame`).
    Register-to-register ops skip taint work entirely.  Ops that can
    *introduce* taint from outside the frame (heap fields, statics,
    arrays, invoke results, caught exceptions) check the incoming tag;
    on the first nonzero tag they perform the full tainted semantics,
    set ``frame.maybe_tainted``, and raise :class:`_TaintEntered` so the
    block finishes in the tainted variant — the mid-trace variant
    switch.

``tainted``
    Full TaintDroid Table-V propagation, including provenance-ledger
    edges identical to the single-step interpreter's.

The single-step interpreter remains the differential oracle: any VM
without a compiler (``vm.tbc is None``) or with a per-instruction
listener attached (the DroidScope comparator) runs the original loop,
and ``tests/dalvik/test_tbc_differential.py`` asserts slot/taint/ledger
parity between the two engines.

Cache invalidation: blocks key on the :class:`Method` *object*, per
compiler (one per VM, so never shared across platforms).  They outlive
a warm worker's job: a worker that installs the same app image again
replays its blocks instead of recompiling them.  Only a true
redefinition -- another :class:`ClassDef` registered under a live class
name -- flushes every block via :meth:`DalvikTraceCompiler.flush`.  A
block lives no longer than its method: the compiler holds each method
weakly and drops its blocks when it dies, so a class built afresh for
one job leaves nothing behind once the job's reset lets it go (no
compiled closure refers to its method).  Code must not be mutated in
place after first execution; redefine the method instead.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

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
)
from repro.dalvik.interpreter import PendingException
from repro.observability.ledger import Loc

_M32 = 0xFFFF_FFFF
_SIGN = 0x8000_0000
_WRAP = 0x1_0000_0000

# Ops that terminate a straight-line trace.
_TERMINATOR_OPS = frozenset(
    {Op.RETURN_VOID, Op.RETURN, Op.RETURN_OBJECT, Op.GOTO, Op.THROW,
     Op.INVOKE_VIRTUAL, Op.INVOKE_DIRECT, Op.INVOKE_STATIC}
    | set(COMPARE_OPS) | set(COMPARE_Z_OPS))


class _TaintEntered(Exception):
    """Signal: a clean-variant op met its first nonzero taint tag.

    The raising op has already executed with full tainted semantics and
    set ``frame.maybe_tainted``; the block loop resumes at ``index + 1``
    in the tainted variant.
    """

    def __init__(self, index: int) -> None:
        self.index = index


class DalvikBlock:
    """One compiled straight-line run plus its terminator closures."""

    __slots__ = ("start", "count", "body_count", "clean", "tainted",
                 "term_clean", "term_tainted")

    def __init__(self, start: int, clean, tainted, term_clean,
                 term_tainted) -> None:
        self.start = start
        self.clean = clean
        self.tainted = tainted
        self.term_clean = term_clean
        self.term_tainted = term_tainted
        self.body_count = len(clean)
        self.count = self.body_count + 1   # + the terminator

    def execute(self, frame, interp) -> Optional[Slot]:
        """Run the block; returns the method result Slot or None.

        On a normal exit the terminator has set ``frame.pc`` (branches,
        invokes) or produced the return Slot.  ``instructions_executed``
        accounting matches the single-step loop exactly, including the
        partial count when an op raises a catchable exception.
        """
        if not frame.maybe_tainted:
            try:
                for op in self.clean:
                    op(frame)
            except _TaintEntered as entered:
                tbc = interp.vm.tbc
                if tbc is not None:
                    tbc.escalations += 1
                    tracer = tbc.span_tracer
                    if tracer is not None:
                        tracer.event("tbc_escalation", cat="engine",
                                     start=self.start, index=entered.index)
                tainted = self.tainted
                try:
                    for index in range(entered.index + 1, self.body_count):
                        tainted[index](frame)
                except PendingException:
                    interp.instructions_executed += \
                        frame.pc - self.start + 1
                    raise
                interp.instructions_executed += self.count
                return self.term_tainted(frame)
            except PendingException:
                interp.instructions_executed += frame.pc - self.start + 1
                raise
            interp.instructions_executed += self.count
            return self.term_clean(frame)
        try:
            for op in self.tainted:
                op(frame)
        except PendingException:
            interp.instructions_executed += frame.pc - self.start + 1
            raise
        interp.instructions_executed += self.count
        return self.term_tainted(frame)


class DalvikTraceCompiler:
    """Compiles and caches :class:`DalvikBlock` objects per method."""

    def __init__(self, vm) -> None:
        self.vm = vm
        # id(method) -> its block map, and a weak reference whose
        # callback drops the map when the method dies.
        self._method_blocks: Dict[int, Dict[int, DalvikBlock]] = {}
        self._method_refs: Dict[int, weakref.ref] = {}
        # Blocks held across every method, kept as blocks come and go.
        self.cached_blocks = 0
        # Optional span tracer; emits only on the compile (miss) path.
        self.span_tracer = None
        self._init_job_state()

    def _init_job_state(self) -> None:
        self.blocks_compiled = 0
        self.flushes = 0
        # Cache introspection counters (observability).  ``hits`` is
        # bumped by the interpreter's dispatch loop on a block-map hit;
        # the rest are owned here.  Plain int adds — no tracer gating.
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.escalations = 0

    def reset_for_job(self) -> None:
        """A warm worker's job boundary: zero the counters.  The blocks
        stay; those of methods the job alone held die with them."""
        self._init_job_state()

    # -- cache ------------------------------------------------------------

    def blocks_for(self, method: Method) -> Dict[int, DalvikBlock]:
        """The long-lived per-method block map (cleared by flush)."""
        blocks = self._method_blocks.get(id(method))
        if blocks is None:
            blocks = self._track(method)
        return blocks

    def _track(self, method: Method) -> Dict[int, DalvikBlock]:
        key = id(method)
        blocks: Dict[int, DalvikBlock] = {}
        self._method_blocks[key] = blocks
        # The callback runs as the method is freed, before its id can be
        # reissued to another object.
        self._method_refs[key] = weakref.ref(
            method, lambda __, key=key: self._forget(key))
        return blocks

    def _forget(self, key: int) -> None:
        del self._method_refs[key]
        self.cached_blocks -= len(self._method_blocks.pop(key))

    def flush(self) -> None:
        """Drop every compiled block (class/method redefinition).

        The per-method dicts are cleared in place, not replaced: the
        interpreter's hot loop holds a direct reference to the dict, so
        an in-place clear invalidates blocks even mid-run.
        """
        for blocks in list(self._method_blocks.values()):
            self.invalidations += len(blocks)
            blocks.clear()
        self.cached_blocks = 0
        self.flushes += 1

    # -- compilation ------------------------------------------------------

    def compile(self, method: Method, start: int) -> DalvikBlock:
        self.misses += 1
        tracer = self.span_tracer
        span_start = tracer.now() if tracer is not None else 0.0
        code = method.code
        if start >= len(code):
            raise DalvikError(f"fell off the end of {method.full_name}")
        clean: List[Callable] = []
        tainted: List[Callable] = []
        pc = start
        while pc < len(code):
            ins = code[pc]
            if ins.op in _TERMINATOR_OPS:
                term_clean, term_tainted = self._compile_terminator(
                    method, ins, pc)
                break
            c, t = self._compile_op(method, ins, pc, len(clean))
            clean.append(c)
            tainted.append(t)
            pc += 1
        else:
            term_clean = term_tainted = self._compile_fell_off(method)
        block = DalvikBlock(start, tuple(clean), tuple(tainted),
                            term_clean, term_tainted)
        blocks = self.blocks_for(method)
        if start not in blocks:
            self.cached_blocks += 1
        blocks[start] = block
        self.blocks_compiled += 1
        if tracer is not None:
            tracer.complete("tbc_compile", span_start, cat="engine",
                            method=method.full_name, start=start,
                            ops=block.count)
        return block

    # -- op compilation ---------------------------------------------------

    def _bad_register(self, method: Method, register: int):
        name = method.full_name   # a block must not keep its method alive

        def op(frame):
            raise DalvikError(f"register v{register} out of range in {name}")
        return op, op

    def _check_registers(self, method: Method, *registers: int
                         ) -> Optional[int]:
        for register in registers:
            if not 0 <= register < method.registers_size:
                return register
        return None

    def _compile_op(self, method: Method, ins: Ins, pc: int, index: int
                    ) -> Tuple[Callable, Callable]:
        """One body instruction -> (clean, tainted) closures."""
        vm = self.vm
        interp = vm.interpreter
        op = ins.op
        a, b, c = ins.a, ins.b, ins.c
        # Word indices into ``frame.slots``: vN's value, then its taint.
        ia, ib, ic = 2 * a, 2 * b, 2 * c
        ta, tb, tc = ia + 1, ib + 1, ic + 1
        # Byte offsets from fp, for the ledger's slot addresses.
        off_a, off_b = 8 * a, 8 * b

        if op is Op.NOP:
            def nop(frame):
                return None
            return nop, nop

        if op in (Op.MOVE, Op.MOVE_OBJECT):
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.MOVE_OBJECT

            def clean(frame):
                slots = frame.slots
                slots[ia] = slots[ib]
                frame.ref_flags[a] = is_ref

            def tainted(frame):
                slots = frame.slots
                taint = slots[tb]
                if taint:
                    ledger = vm.ledger
                    if ledger is not None:
                        fp = frame.fp
                        ledger.record(taint, "dalvik:move",
                                      Loc.dvreg(fp + off_b),
                                      Loc.dvreg(fp + off_a))
                slots[ia] = slots[ib]
                slots[ta] = taint
                frame.ref_flags[a] = is_ref
            return clean, tainted

        if op in (Op.MOVE_RESULT, Op.MOVE_RESULT_OBJECT):
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.MOVE_RESULT_OBJECT

            def clean(frame):
                result = vm.interp_save_state
                taint = result.taint
                if taint:
                    frame.maybe_tainted = True
                    ledger = vm.ledger
                    if ledger is not None:
                        ledger.record(taint, "dalvik:move-result",
                                      Loc.java(taint),
                                      Loc.dvreg(frame.fp + off_a))
                    slots = frame.slots
                    slots[ia] = result.value & _M32
                    slots[ta] = taint & _M32
                    frame.ref_flags[a] = is_ref
                    raise _TaintEntered(index)
                frame.slots[ia] = result.value & _M32
                frame.ref_flags[a] = is_ref

            def tainted(frame):
                result = vm.interp_save_state
                taint = result.taint
                if taint:
                    ledger = vm.ledger
                    if ledger is not None:
                        ledger.record(taint, "dalvik:move-result",
                                      Loc.java(taint),
                                      Loc.dvreg(frame.fp + off_a))
                slots = frame.slots
                slots[ia] = result.value & _M32
                slots[ta] = taint & _M32
                frame.ref_flags[a] = is_ref
            return clean, tainted

        if op is Op.MOVE_EXCEPTION:
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)

            def clean(frame):
                pending = vm.caught_exception
                if pending is None:
                    raise DalvikError(
                        "move-exception with no pending exception")
                taint = pending.taint
                slots = frame.slots
                slots[ia] = pending.exception_address & _M32
                frame.ref_flags[a] = True
                vm.caught_exception = None
                if taint:
                    frame.maybe_tainted = True
                    slots[ta] = taint & _M32
                    raise _TaintEntered(index)

            def tainted(frame):
                pending = vm.caught_exception
                if pending is None:
                    raise DalvikError(
                        "move-exception with no pending exception")
                slots = frame.slots
                slots[ia] = pending.exception_address & _M32
                slots[ta] = pending.taint & _M32
                frame.ref_flags[a] = True
                vm.caught_exception = None
            return clean, tainted

        if op is Op.CONST:
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            value = int(ins.literal) & _M32

            def clean(frame):
                frame.slots[ia] = value
                frame.ref_flags[a] = False

            def tainted(frame):
                slots = frame.slots
                slots[ia] = value
                slots[ta] = 0
                frame.ref_flags[a] = False
            return clean, tainted

        if op is Op.CONST_STRING:
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            text = str(ins.literal)

            def clean(frame):
                frame.slots[ia] = vm.intern_string(text) & _M32
                frame.ref_flags[a] = True

            def tainted(frame):
                slots = frame.slots
                slots[ia] = vm.intern_string(text) & _M32
                slots[ta] = 0
                frame.ref_flags[a] = True
            return clean, tainted

        if op in BINARY_OPS:
            bad = self._check_registers(method, a, b, c)
            if bad is not None:
                return self._bad_register(method, bad)
            fn = BINARY_OPS[op]
            if op in (Op.DIV_INT, Op.REM_INT):
                def clean(frame):
                    frame.pc = pc
                    slots = frame.slots
                    x = slots[ib]
                    y = slots[ic]
                    if x & _SIGN:
                        x -= _WRAP
                    if y & _SIGN:
                        y -= _WRAP
                    try:
                        value = fn(x, y)
                    except ZeroDivisionError:
                        interp._throw_new(
                            frame, "Ljava/lang/ArithmeticException;",
                            "divide by zero")
                    slots[ia] = value & _M32
                    frame.ref_flags[a] = False

                def tainted(frame):
                    frame.pc = pc
                    slots = frame.slots
                    x = slots[ib]
                    y = slots[ic]
                    if x & _SIGN:
                        x -= _WRAP
                    if y & _SIGN:
                        y -= _WRAP
                    try:
                        value = fn(x, y)
                    except ZeroDivisionError:
                        interp._throw_new(
                            frame, "Ljava/lang/ArithmeticException;",
                            "divide by zero")
                    taint = slots[tb] | slots[tc]
                    slots[ia] = value & _M32
                    slots[ta] = taint
                    frame.ref_flags[a] = False
                return clean, tainted

            def clean(frame):
                slots = frame.slots
                x = slots[ib]
                y = slots[ic]
                if x & _SIGN:
                    x -= _WRAP
                if y & _SIGN:
                    y -= _WRAP
                slots[ia] = fn(x, y) & _M32
                frame.ref_flags[a] = False

            def tainted(frame):
                slots = frame.slots
                x = slots[ib]
                y = slots[ic]
                if x & _SIGN:
                    x -= _WRAP
                if y & _SIGN:
                    y -= _WRAP
                taint = slots[tb] | slots[tc]
                slots[ia] = fn(x, y) & _M32
                slots[ta] = taint
                frame.ref_flags[a] = False
            return clean, tainted

        if op in (Op.ADD_INT_LIT, Op.MUL_INT_LIT):
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            literal = int(ins.literal)
            add = op is Op.ADD_INT_LIT

            def clean(frame):
                slots = frame.slots
                x = slots[ib]
                if x & _SIGN:
                    x -= _WRAP
                slots[ia] = ((x + literal) if add else (x * literal)) & _M32
                frame.ref_flags[a] = False

            def tainted(frame):
                slots = frame.slots
                x = slots[ib]
                if x & _SIGN:
                    x -= _WRAP
                taint = slots[tb]
                slots[ia] = ((x + literal) if add else (x * literal)) & _M32
                slots[ta] = taint
                frame.ref_flags[a] = False
            return clean, tainted

        if op in (Op.NEG_INT, Op.NOT_INT):
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            neg = op is Op.NEG_INT

            def clean(frame):
                slots = frame.slots
                x = slots[ib]
                if neg:
                    if x & _SIGN:
                        x -= _WRAP
                    value = (-x) & _M32
                else:
                    value = (~x) & _M32
                slots[ia] = value
                frame.ref_flags[a] = False

            def tainted(frame):
                slots = frame.slots
                x = slots[ib]
                if neg:
                    if x & _SIGN:
                        x -= _WRAP
                    value = (-x) & _M32
                else:
                    value = (~x) & _M32
                taint = slots[tb]
                slots[ia] = value
                slots[ta] = taint
                frame.ref_flags[a] = False
            return clean, tainted

        if op is Op.NEW_INSTANCE:
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            symbol = ins.symbol

            def clean(frame):
                frame.slots[ia] = vm.new_instance(symbol).address & _M32
                frame.ref_flags[a] = True

            def tainted(frame):
                address = vm.new_instance(symbol).address & _M32
                slots = frame.slots
                slots[ia] = address
                slots[ta] = 0
                frame.ref_flags[a] = True
            return clean, tainted

        if op is Op.NEW_ARRAY:
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            element_type = ins.symbol or "I"

            def clean(frame):
                frame.pc = pc
                slots = frame.slots
                length = slots[ib]
                if length & _SIGN:
                    interp._throw_new(
                        frame, "Ljava/lang/NegativeArraySizeException;",
                        str(length - _WRAP))
                record = vm.heap.alloc_array(element_type, length)
                slots[ia] = record.address & _M32
                frame.ref_flags[a] = True

            def tainted(frame):
                frame.pc = pc
                slots = frame.slots
                length = slots[ib]
                if length & _SIGN:
                    interp._throw_new(
                        frame, "Ljava/lang/NegativeArraySizeException;",
                        str(length - _WRAP))
                record = vm.heap.alloc_array(element_type, length)
                slots[ia] = record.address & _M32
                slots[ta] = 0
                frame.ref_flags[a] = True
            return clean, tainted

        if op is Op.ARRAY_LENGTH:
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)

            def clean(frame):
                frame.pc = pc
                slots = frame.slots
                record = interp._array(frame, slots[ib], b)
                slots[ia] = len(record.elements) & _M32
                frame.ref_flags[a] = False
                taint = record.taint
                if taint:
                    frame.maybe_tainted = True
                    slots[ta] = taint & _M32
                    raise _TaintEntered(index)

            def tainted(frame):
                frame.pc = pc
                slots = frame.slots
                record = interp._array(frame, slots[ib], b)
                slots[ia] = len(record.elements) & _M32
                slots[ta] = record.taint & _M32
                frame.ref_flags[a] = False
            return clean, tainted

        if op in (Op.AGET, Op.AGET_OBJECT):
            bad = self._check_registers(method, a, b, c)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.AGET_OBJECT

            def clean(frame):
                frame.pc = pc
                slots = frame.slots
                record = interp._array(frame, slots[ib], b)
                idx = interp._array_index(frame, slots[ic], record)
                slots[ia] = record.elements[idx].value & _M32
                frame.ref_flags[a] = is_ref
                taint = record.taint   # reg c's taint is zero when clean
                if taint:
                    frame.maybe_tainted = True
                    slots[ta] = taint & _M32
                    raise _TaintEntered(index)

            def tainted(frame):
                frame.pc = pc
                slots = frame.slots
                record = interp._array(frame, slots[ib], b)
                idx = interp._array_index(frame, slots[ic], record)
                taint = (record.taint | slots[tc]) & _M32
                slots[ia] = record.elements[idx].value & _M32
                slots[ta] = taint
                frame.ref_flags[a] = is_ref
            return clean, tainted

        if op in (Op.APUT, Op.APUT_OBJECT):
            bad = self._check_registers(method, a, b, c)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.APUT_OBJECT
            mirror = vm.heap.sync_array_element

            def clean(frame):
                frame.pc = pc
                slots = frame.slots
                record = interp._array(frame, slots[ib], b)
                idx = interp._array_index(frame, slots[ic], record)
                record.elements[idx] = Slot(slots[ia], TAINT_CLEAR, is_ref)
                mirror(record, idx)

            def tainted(frame):
                frame.pc = pc
                slots = frame.slots
                record = interp._array(frame, slots[ib], b)
                idx = interp._array_index(frame, slots[ic], record)
                record.elements[idx] = Slot(slots[ia], TAINT_CLEAR, is_ref)
                # TaintDroid: one label per array object, grown by union.
                record.taint |= slots[ta] | slots[tc]
                mirror(record, idx)
            return clean, tainted

        if op in (Op.IGET, Op.IGET_OBJECT):
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.IGET_OBJECT
            symbol = ins.symbol

            def clean(frame):
                frame.pc = pc
                slots = frame.slots
                slot = interp._field(frame, slots[ib], symbol)
                slots[ia] = slot.value & _M32
                frame.ref_flags[a] = is_ref
                taint = slot.taint
                if taint:
                    frame.maybe_tainted = True
                    slots[ta] = taint & _M32
                    raise _TaintEntered(index)

            def tainted(frame):
                frame.pc = pc
                slots = frame.slots
                slot = interp._field(frame, slots[ib], symbol)
                slots[ia] = slot.value & _M32
                slots[ta] = slot.taint & _M32
                frame.ref_flags[a] = is_ref
            return clean, tainted

        if op in (Op.IPUT, Op.IPUT_OBJECT):
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.IPUT_OBJECT
            symbol = ins.symbol

            def clean(frame):
                frame.pc = pc
                slots = frame.slots
                slot = interp._field(frame, slots[ib], symbol,
                                     create=True)
                slot.value = slots[ia]
                slot.taint = TAINT_CLEAR
                slot.is_ref = is_ref

            def tainted(frame):
                frame.pc = pc
                slots = frame.slots
                slot = interp._field(frame, slots[ib], symbol,
                                     create=True)
                slot.value = slots[ia]
                slot.taint = slots[ta]
                slot.is_ref = is_ref
            return clean, tainted

        if op in (Op.SGET, Op.SGET_OBJECT):
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.SGET_OBJECT
            symbol = ins.symbol

            def clean(frame):
                value, taint = vm.get_static(symbol)
                slots = frame.slots
                slots[ia] = value & _M32
                frame.ref_flags[a] = is_ref
                if taint:
                    frame.maybe_tainted = True
                    slots[ta] = taint & _M32
                    raise _TaintEntered(index)

            def tainted(frame):
                value, taint = vm.get_static(symbol)
                slots = frame.slots
                slots[ia] = value & _M32
                slots[ta] = taint & _M32
                frame.ref_flags[a] = is_ref
            return clean, tainted

        if op in (Op.SPUT, Op.SPUT_OBJECT):
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.SPUT_OBJECT
            symbol = ins.symbol

            def clean(frame):
                vm.set_static(symbol, frame.slots[ia], TAINT_CLEAR,
                              is_ref=is_ref)

            def tainted(frame):
                slots = frame.slots
                vm.set_static(symbol, slots[ia], slots[ta], is_ref=is_ref)
            return clean, tainted

        if op is Op.STRING_CONCAT:
            bad = self._check_registers(method, a, b, c)
            if bad is not None:
                return self._bad_register(method, bad)

            def clean(frame):
                slots = frame.slots
                left = vm.heap.get(slots[ib])
                right = vm.heap.get(slots[ic])
                taint = left.taint | right.taint   # reg taints are zero
                record = vm.heap.alloc_string(
                    vm.string_value(left) + vm.string_value(right), taint)
                slots[ia] = record.address & _M32
                frame.ref_flags[a] = True
                if taint:
                    frame.maybe_tainted = True
                    slots[ta] = taint & _M32
                    raise _TaintEntered(index)

            def tainted(frame):
                slots = frame.slots
                left = vm.heap.get(slots[ib])
                right = vm.heap.get(slots[ic])
                taint = left.taint | right.taint | slots[tb] | slots[tc]
                record = vm.heap.alloc_string(
                    vm.string_value(left) + vm.string_value(right), taint)
                slots[ia] = record.address & _M32
                slots[ta] = taint & _M32
                frame.ref_flags[a] = True
            return clean, tainted

        if op is Op.INT_TO_STRING:
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)

            def clean(frame):
                slots = frame.slots
                x = slots[ib]
                if x & _SIGN:
                    x -= _WRAP
                record = vm.heap.alloc_string(str(x), TAINT_CLEAR)
                slots[ia] = record.address & _M32
                frame.ref_flags[a] = True

            def tainted(frame):
                slots = frame.slots
                x = slots[ib]
                if x & _SIGN:
                    x -= _WRAP
                taint = slots[tb]
                record = vm.heap.alloc_string(str(x), taint)
                slots[ia] = record.address & _M32
                slots[ta] = taint
                frame.ref_flags[a] = True
            return clean, tainted

        def unimplemented(frame):
            raise DalvikError(f"unimplemented opcode {op}")
        return unimplemented, unimplemented

    # -- terminator compilation -------------------------------------------

    def _compile_terminator(self, method: Method, ins: Ins, pc: int
                            ) -> Tuple[Callable, Callable]:
        vm = self.vm
        op = ins.op
        a, b = ins.a, ins.b
        ia, ib = 2 * a, 2 * b
        ta = ia + 1

        if op is Op.GOTO:
            target = ins.target_index

            def term(frame):
                frame.pc = target
            return term, term

        if op in COMPARE_OPS:
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_terminator(method, bad)
            cmp = COMPARE_OPS[op]
            target = ins.target_index
            fall = pc + 1

            def term(frame):
                slots = frame.slots
                x = slots[ia]
                y = slots[ib]
                if x & _SIGN:
                    x -= _WRAP
                if y & _SIGN:
                    y -= _WRAP
                frame.pc = target if cmp(x, y) else fall
            return term, term

        if op in COMPARE_Z_OPS:
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_terminator(method, bad)
            cmp = COMPARE_Z_OPS[op]
            target = ins.target_index
            fall = pc + 1

            def term(frame):
                x = frame.slots[ia]
                if x & _SIGN:
                    x -= _WRAP
                frame.pc = target if cmp(x) else fall
            return term, term

        if op is Op.RETURN_VOID:
            def term(frame):
                return Slot(0, TAINT_CLEAR, False)
            return term, term

        if op in (Op.RETURN, Op.RETURN_OBJECT):
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_terminator(method, bad)
            is_ref = op is Op.RETURN_OBJECT

            def term_clean(frame):
                return Slot(frame.slots[ia], TAINT_CLEAR, is_ref)

            def term_tainted(frame):
                slots = frame.slots
                return Slot(slots[ia], slots[ta], is_ref)
            return term_clean, term_tainted

        if op is Op.THROW:
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_terminator(method, bad)

            def term_clean(frame):
                frame.pc = pc
                address = frame.slots[ia]
                record = vm.heap.get(address)
                raise PendingException(address, TAINT_CLEAR,
                                       record.class_name)

            def term_tainted(frame):
                frame.pc = pc
                slots = frame.slots
                address = slots[ia]
                record = vm.heap.get(address)
                raise PendingException(address, slots[ta],
                                       record.class_name)
            return term_clean, term_tainted

        # Invokes: the trace ends, the callee runs, MOVE_RESULT (if any)
        # leads the successor block.
        bad = self._check_registers(method, *ins.args)
        if bad is not None:
            return self._bad_terminator(method, bad)
        registers = tuple(ins.args)
        # (register, value word index) per argument.
        words = tuple((r, 2 * r) for r in registers)
        symbol = ins.symbol
        virtual = op is Op.INVOKE_VIRTUAL
        invoke = vm.invoke_symbol
        next_pc = pc + 1

        def term_clean(frame):
            frame.pc = pc
            slots = frame.slots
            flags = frame.ref_flags
            arg_slots = [Slot(slots[i], TAINT_CLEAR, flags[r])
                         for r, i in words]
            vm.interp_save_state = invoke(symbol, arg_slots,
                                          virtual=virtual)
            frame.pc = next_pc

        def term_tainted(frame):
            frame.pc = pc
            slots = frame.slots
            flags = frame.ref_flags
            arg_slots = [Slot(slots[i], slots[i + 1], flags[r])
                         for r, i in words]
            ledger = vm.ledger
            if ledger is not None:
                fp = frame.fp
                for r, slot in zip(registers, arg_slots):
                    if slot.taint:
                        ledger.record(slot.taint, "dalvik:invoke",
                                      Loc.dvreg(fp + 8 * r),
                                      Loc.java(slot.taint), location=symbol)
            vm.interp_save_state = invoke(symbol, arg_slots,
                                          virtual=virtual)
            frame.pc = next_pc
        return term_clean, term_tainted

    def _bad_terminator(self, method: Method, register: int
                        ) -> Tuple[Callable, Callable]:
        return self._bad_register(method, register)

    def _compile_fell_off(self, method: Method) -> Callable:
        name = method.full_name

        def term(frame):
            raise DalvikError(f"fell off the end of {name}")
        return term
