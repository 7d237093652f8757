"""Trace-compiled Dalvik superinstruction blocks.

The managed-side twin of the emulator's translation-block engine: the
first time execution reaches a method region, the straight-line bytecode
run starting there (up to the next branch, invoke, return or throw) is
compiled into a :class:`DalvikBlock` — a tuple of specialized Python
closures with every ``Ins`` field pre-resolved, every slot offset baked
relative to the frame pointer, and the guest-memory accessors pre-bound.
Subsequent executions replay the closures instead of re-decoding the
instruction stream through ``Interpreter._dispatch``.

Each block carries three variants, mirroring PR 5's clean/tainted TB
variants on the native side:

``untracked``
    ``vm.taint_tracking`` is off.  Taint tags are still *written* as
    clear wherever the single-step interpreter would write them (frames
    can inherit tainted argument slots even with tracking off), but no
    taint is ever read or propagated.

``clean``
    Tracking is on but the frame's sticky ``maybe_tainted`` flag is
    False, which guarantees every register taint word is zero (the flag
    is maintained centrally by :class:`~repro.dalvik.stack.Frame`).
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

Cache invalidation: blocks key on the :class:`Method` *object*, so
re-registering a class (the only redefinition path the VM exposes)
flushes the compiler via :meth:`DalvikTraceCompiler.flush`.  Code must
not be mutated in place after first execution; redefine the method
instead.
"""

from __future__ import annotations

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

    __slots__ = ("start", "count", "body_count", "untracked", "clean",
                 "tainted", "term_clean", "term_tainted")

    def __init__(self, start: int, untracked, clean, tainted,
                 term_clean, term_tainted) -> None:
        self.start = start
        self.untracked = untracked
        self.clean = clean
        self.tainted = tainted
        self.term_clean = term_clean
        self.term_tainted = term_tainted
        self.body_count = len(clean)
        self.count = self.body_count + 1   # + the terminator

    def execute(self, frame, interp, tracking: bool) -> Optional[Slot]:
        """Run the block; returns the method result Slot or None.

        On a normal exit the terminator has set ``frame.pc`` (branches,
        invokes) or produced the return Slot.  ``instructions_executed``
        accounting matches the single-step loop exactly, including the
        partial count when an op raises a catchable exception.
        """
        if not tracking:
            ops = self.untracked
            term = self.term_clean
        elif frame.maybe_tainted:
            ops = self.tainted
            term = self.term_tainted
        else:
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
            for op in ops:
                op(frame)
        except PendingException:
            interp.instructions_executed += frame.pc - self.start + 1
            raise
        interp.instructions_executed += self.count
        return term(frame)


class DalvikTraceCompiler:
    """Compiles and caches :class:`DalvikBlock` objects per method."""

    def __init__(self, vm) -> None:
        self.vm = vm
        self._method_blocks: Dict[Method, Dict[int, DalvikBlock]] = {}
        self.blocks_compiled = 0
        self.flushes = 0
        # Cache introspection counters (observability).  ``hits`` is
        # bumped by the interpreter's dispatch loop on a block-map hit;
        # the rest are owned here.  Plain int adds — no tracer gating.
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.escalations = 0
        # Optional span tracer; emits only on the compile (miss) path.
        self.span_tracer = None

    # -- cache ------------------------------------------------------------

    def blocks_for(self, method: Method) -> Dict[int, DalvikBlock]:
        """The long-lived per-method block map (cleared by flush)."""
        blocks = self._method_blocks.get(method)
        if blocks is None:
            blocks = {}
            self._method_blocks[method] = blocks
        return blocks

    def reset_counters(self) -> None:
        """Zero the per-job counters (warm-worker job boundary)."""
        self.blocks_compiled = 0
        self.flushes = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.escalations = 0

    def flush(self) -> None:
        """Drop every compiled block (class/method redefinition).

        The per-method dicts are cleared in place, not replaced: the
        interpreter's hot loop holds a direct reference to the dict, so
        an in-place clear invalidates blocks even mid-run.
        """
        for blocks in self._method_blocks.values():
            self.invalidations += len(blocks)
            blocks.clear()
        self.flushes += 1

    def invalidate_method(self, method: Method) -> None:
        blocks = self._method_blocks.get(method)
        if blocks is not None:
            self.invalidations += len(blocks)
            blocks.clear()

    @property
    def cached_blocks(self) -> int:
        return sum(len(blocks) for blocks in self._method_blocks.values())

    # -- compilation ------------------------------------------------------

    def compile(self, method: Method, start: int) -> DalvikBlock:
        self.misses += 1
        tracer = self.span_tracer
        span_start = tracer.now() if tracer is not None else 0.0
        code = method.code
        if start >= len(code):
            raise DalvikError(f"fell off the end of {method.full_name}")
        untracked: List[Callable] = []
        clean: List[Callable] = []
        tainted: List[Callable] = []
        pc = start
        while pc < len(code):
            ins = code[pc]
            if ins.op in _TERMINATOR_OPS:
                term_clean, term_tainted = self._compile_terminator(
                    method, ins, pc)
                break
            u, c, t = self._compile_op(method, ins, pc, len(clean))
            untracked.append(u)
            clean.append(c)
            tainted.append(t)
            pc += 1
        else:
            term_clean = term_tainted = self._compile_fell_off(method)
        block = DalvikBlock(start, tuple(untracked), tuple(clean),
                            tuple(tainted), term_clean, term_tainted)
        self.blocks_for(method)[start] = block
        self.blocks_compiled += 1
        if tracer is not None:
            tracer.complete("tbc_compile", span_start, cat="engine",
                            method=method.full_name, start=start,
                            ops=block.count)
        return block

    # -- op compilation ---------------------------------------------------

    def _bad_register(self, method: Method, register: int):
        def op(frame):
            raise DalvikError(
                f"register v{register} out of range in {method.full_name}")
        return op, op, op

    def _check_registers(self, method: Method, *registers: int
                         ) -> Optional[int]:
        for register in registers:
            if not 0 <= register < method.registers_size:
                return register
        return None

    def _compile_op(self, method: Method, ins: Ins, pc: int, index: int
                    ) -> Tuple[Callable, Callable, Callable]:
        """One body instruction -> (untracked, clean, tainted) closures."""
        vm = self.vm
        interp = vm.interpreter
        memory = vm.memory
        rd = memory.read_u32
        wr = memory.write_u32
        wr2 = memory.write_u32x2
        op = ins.op
        a, b, c = ins.a, ins.b, ins.c
        off_a, off_b, off_c = 8 * a, 8 * b, 8 * c
        toff_a, toff_b, toff_c = off_a + 4, off_b + 4, off_c + 4

        if op is Op.NOP:
            def nop(frame):
                return None
            return nop, nop, nop

        if op in (Op.MOVE, Op.MOVE_OBJECT):
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.MOVE_OBJECT

            def untracked(frame):
                fp = frame.fp
                wr2(fp + off_a, rd(fp + off_b), 0)
                frame.ref_flags[a] = is_ref

            def clean(frame):
                fp = frame.fp
                wr(fp + off_a, rd(fp + off_b))
                frame.ref_flags[a] = is_ref

            def tainted(frame):
                fp = frame.fp
                taint = rd(fp + toff_b)
                if taint:
                    ledger = vm.ledger
                    if ledger is not None:
                        ledger.record(taint, "dalvik:move",
                                      Loc.dvreg(fp + off_b),
                                      Loc.dvreg(fp + off_a))
                wr2(fp + off_a, rd(fp + off_b), taint)
                frame.ref_flags[a] = is_ref
            return untracked, clean, tainted

        if op in (Op.MOVE_RESULT, Op.MOVE_RESULT_OBJECT):
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.MOVE_RESULT_OBJECT

            def untracked(frame):
                wr2(frame.fp + off_a, vm.interp_save_state.value & _M32, 0)
                frame.ref_flags[a] = is_ref

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
                    wr2(frame.fp + off_a, result.value & _M32, taint)
                    frame.ref_flags[a] = is_ref
                    raise _TaintEntered(index)
                wr(frame.fp + off_a, result.value & _M32)
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
                wr2(frame.fp + off_a, result.value & _M32, taint)
                frame.ref_flags[a] = is_ref
            return untracked, clean, tainted

        if op is Op.MOVE_EXCEPTION:
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)

            def untracked(frame):
                pending = vm.caught_exception
                if pending is None:
                    raise DalvikError(
                        "move-exception with no pending exception")
                wr2(frame.fp + off_a, pending.exception_address & _M32, 0)
                frame.ref_flags[a] = True
                vm.caught_exception = None

            def clean(frame):
                pending = vm.caught_exception
                if pending is None:
                    raise DalvikError(
                        "move-exception with no pending exception")
                taint = pending.taint
                if taint:
                    frame.maybe_tainted = True
                    wr2(frame.fp + off_a,
                        pending.exception_address & _M32, taint)
                    frame.ref_flags[a] = True
                    vm.caught_exception = None
                    raise _TaintEntered(index)
                wr(frame.fp + off_a, pending.exception_address & _M32)
                frame.ref_flags[a] = True
                vm.caught_exception = None

            def tainted(frame):
                pending = vm.caught_exception
                if pending is None:
                    raise DalvikError(
                        "move-exception with no pending exception")
                wr2(frame.fp + off_a, pending.exception_address & _M32,
                    pending.taint)
                frame.ref_flags[a] = True
                vm.caught_exception = None
            return untracked, clean, tainted

        if op is Op.CONST:
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            value = int(ins.literal) & _M32

            def untracked(frame):
                wr2(frame.fp + off_a, value, 0)
                frame.ref_flags[a] = False

            def clean(frame):
                wr(frame.fp + off_a, value)
                frame.ref_flags[a] = False
            return untracked, clean, untracked

        if op is Op.CONST_STRING:
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            text = str(ins.literal)

            def untracked(frame):
                wr2(frame.fp + off_a, vm.intern_string(text) & _M32, 0)
                frame.ref_flags[a] = True

            def clean(frame):
                wr(frame.fp + off_a, vm.intern_string(text) & _M32)
                frame.ref_flags[a] = True
            return untracked, clean, untracked

        if op in BINARY_OPS:
            bad = self._check_registers(method, a, b, c)
            if bad is not None:
                return self._bad_register(method, bad)
            fn = BINARY_OPS[op]
            if op in (Op.DIV_INT, Op.REM_INT):
                def untracked(frame):
                    frame.pc = pc
                    fp = frame.fp
                    x = rd(fp + off_b)
                    y = rd(fp + off_c)
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
                    wr2(fp + off_a, value & _M32, 0)
                    frame.ref_flags[a] = False

                def clean(frame):
                    frame.pc = pc
                    fp = frame.fp
                    x = rd(fp + off_b)
                    y = rd(fp + off_c)
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
                    wr(fp + off_a, value & _M32)
                    frame.ref_flags[a] = False

                def tainted(frame):
                    frame.pc = pc
                    fp = frame.fp
                    x = rd(fp + off_b)
                    y = rd(fp + off_c)
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
                    wr2(fp + off_a, value & _M32,
                        rd(fp + toff_b) | rd(fp + toff_c))
                    frame.ref_flags[a] = False
                return untracked, clean, tainted

            def untracked(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                y = rd(fp + off_c)
                if x & _SIGN:
                    x -= _WRAP
                if y & _SIGN:
                    y -= _WRAP
                wr2(fp + off_a, fn(x, y) & _M32, 0)
                frame.ref_flags[a] = False

            def clean(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                y = rd(fp + off_c)
                if x & _SIGN:
                    x -= _WRAP
                if y & _SIGN:
                    y -= _WRAP
                wr(fp + off_a, fn(x, y) & _M32)
                frame.ref_flags[a] = False

            def tainted(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                y = rd(fp + off_c)
                if x & _SIGN:
                    x -= _WRAP
                if y & _SIGN:
                    y -= _WRAP
                wr2(fp + off_a, fn(x, y) & _M32,
                    rd(fp + toff_b) | rd(fp + toff_c))
                frame.ref_flags[a] = False
            return untracked, clean, tainted

        if op in (Op.ADD_INT_LIT, Op.MUL_INT_LIT):
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            literal = int(ins.literal)
            add = op is Op.ADD_INT_LIT

            def untracked(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                if x & _SIGN:
                    x -= _WRAP
                wr2(fp + off_a,
                    ((x + literal) if add else (x * literal)) & _M32, 0)
                frame.ref_flags[a] = False

            def clean(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                if x & _SIGN:
                    x -= _WRAP
                wr(fp + off_a,
                   ((x + literal) if add else (x * literal)) & _M32)
                frame.ref_flags[a] = False

            def tainted(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                if x & _SIGN:
                    x -= _WRAP
                wr2(fp + off_a,
                    ((x + literal) if add else (x * literal)) & _M32,
                    rd(fp + toff_b))
                frame.ref_flags[a] = False
            return untracked, clean, tainted

        if op in (Op.NEG_INT, Op.NOT_INT):
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            neg = op is Op.NEG_INT

            def untracked(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                if neg:
                    if x & _SIGN:
                        x -= _WRAP
                    value = (-x) & _M32
                else:
                    value = (~x) & _M32
                wr2(fp + off_a, value, 0)
                frame.ref_flags[a] = False

            def clean(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                if neg:
                    if x & _SIGN:
                        x -= _WRAP
                    value = (-x) & _M32
                else:
                    value = (~x) & _M32
                wr(fp + off_a, value)
                frame.ref_flags[a] = False

            def tainted(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                if neg:
                    if x & _SIGN:
                        x -= _WRAP
                    value = (-x) & _M32
                else:
                    value = (~x) & _M32
                wr2(fp + off_a, value, rd(fp + toff_b))
                frame.ref_flags[a] = False
            return untracked, clean, tainted

        if op is Op.NEW_INSTANCE:
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            symbol = ins.symbol

            def untracked(frame):
                record = vm.new_instance(symbol)
                wr2(frame.fp + off_a, record.address & _M32, 0)
                frame.ref_flags[a] = True

            def clean(frame):
                record = vm.new_instance(symbol)
                wr(frame.fp + off_a, record.address & _M32)
                frame.ref_flags[a] = True
            return untracked, clean, untracked

        if op is Op.NEW_ARRAY:
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            element_type = ins.symbol or "I"

            def untracked(frame):
                frame.pc = pc
                fp = frame.fp
                length = rd(fp + off_b)
                if length & _SIGN:
                    interp._throw_new(
                        frame, "Ljava/lang/NegativeArraySizeException;",
                        str(length - _WRAP))
                record = vm.heap.alloc_array(element_type, length)
                wr2(fp + off_a, record.address & _M32, 0)
                frame.ref_flags[a] = True

            def clean(frame):
                frame.pc = pc
                fp = frame.fp
                length = rd(fp + off_b)
                if length & _SIGN:
                    interp._throw_new(
                        frame, "Ljava/lang/NegativeArraySizeException;",
                        str(length - _WRAP))
                record = vm.heap.alloc_array(element_type, length)
                wr(fp + off_a, record.address & _M32)
                frame.ref_flags[a] = True
            return untracked, clean, untracked

        if op is Op.ARRAY_LENGTH:
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)

            def untracked(frame):
                frame.pc = pc
                record = interp._array(frame, b)
                wr2(frame.fp + off_a, len(record.elements) & _M32, 0)
                frame.ref_flags[a] = False

            def clean(frame):
                frame.pc = pc
                record = interp._array(frame, b)
                taint = record.taint
                if taint:
                    frame.maybe_tainted = True
                    wr2(frame.fp + off_a, len(record.elements) & _M32,
                        taint)
                    frame.ref_flags[a] = False
                    raise _TaintEntered(index)
                wr(frame.fp + off_a, len(record.elements) & _M32)
                frame.ref_flags[a] = False

            def tainted(frame):
                frame.pc = pc
                record = interp._array(frame, b)
                wr2(frame.fp + off_a, len(record.elements) & _M32,
                    record.taint)
                frame.ref_flags[a] = False
            return untracked, clean, tainted

        if op in (Op.AGET, Op.AGET_OBJECT):
            bad = self._check_registers(method, a, b, c)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.AGET_OBJECT

            def untracked(frame):
                frame.pc = pc
                record = interp._array(frame, b)
                idx = interp._array_index(frame, c, record)
                wr2(frame.fp + off_a, record.elements[idx].value & _M32, 0)
                frame.ref_flags[a] = is_ref

            def clean(frame):
                frame.pc = pc
                record = interp._array(frame, b)
                idx = interp._array_index(frame, c, record)
                value = record.elements[idx].value & _M32
                taint = record.taint   # reg c's taint is zero when clean
                if taint:
                    frame.maybe_tainted = True
                    wr2(frame.fp + off_a, value, taint)
                    frame.ref_flags[a] = is_ref
                    raise _TaintEntered(index)
                wr(frame.fp + off_a, value)
                frame.ref_flags[a] = is_ref

            def tainted(frame):
                frame.pc = pc
                fp = frame.fp
                record = interp._array(frame, b)
                idx = interp._array_index(frame, c, record)
                wr2(fp + off_a, record.elements[idx].value & _M32,
                    record.taint | rd(fp + toff_c))
                frame.ref_flags[a] = is_ref
            return untracked, clean, tainted

        if op in (Op.APUT, Op.APUT_OBJECT):
            bad = self._check_registers(method, a, b, c)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.APUT_OBJECT

            def untracked(frame):
                frame.pc = pc
                record = interp._array(frame, b)
                idx = interp._array_index(frame, c, record)
                record.elements[idx] = Slot(rd(frame.fp + off_a),
                                            TAINT_CLEAR, is_ref)
                vm.heap.sync_array_to_memory(record)

            def tainted(frame):
                frame.pc = pc
                fp = frame.fp
                record = interp._array(frame, b)
                idx = interp._array_index(frame, c, record)
                record.elements[idx] = Slot(rd(fp + off_a), TAINT_CLEAR,
                                            is_ref)
                # TaintDroid: one label per array object, grown by union.
                record.taint |= rd(fp + toff_a) | rd(fp + toff_c)
                vm.heap.sync_array_to_memory(record)
            return untracked, untracked, tainted

        if op in (Op.IGET, Op.IGET_OBJECT):
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.IGET_OBJECT
            symbol = ins.symbol

            def untracked(frame):
                frame.pc = pc
                slot = interp._field(frame, b, symbol)
                wr2(frame.fp + off_a, slot.value & _M32, 0)
                frame.ref_flags[a] = is_ref

            def clean(frame):
                frame.pc = pc
                slot = interp._field(frame, b, symbol)
                taint = slot.taint
                if taint:
                    frame.maybe_tainted = True
                    wr2(frame.fp + off_a, slot.value & _M32, taint)
                    frame.ref_flags[a] = is_ref
                    raise _TaintEntered(index)
                wr(frame.fp + off_a, slot.value & _M32)
                frame.ref_flags[a] = is_ref

            def tainted(frame):
                frame.pc = pc
                slot = interp._field(frame, b, symbol)
                wr2(frame.fp + off_a, slot.value & _M32, slot.taint)
                frame.ref_flags[a] = is_ref
            return untracked, clean, tainted

        if op in (Op.IPUT, Op.IPUT_OBJECT):
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.IPUT_OBJECT
            symbol = ins.symbol

            def untracked(frame):
                frame.pc = pc
                slot = interp._field(frame, b, symbol, create=True)
                slot.value = rd(frame.fp + off_a)
                slot.taint = TAINT_CLEAR
                slot.is_ref = is_ref

            def tainted(frame):
                frame.pc = pc
                fp = frame.fp
                slot = interp._field(frame, b, symbol, create=True)
                slot.value = rd(fp + off_a)
                slot.taint = rd(fp + toff_a)
                slot.is_ref = is_ref
            return untracked, untracked, tainted

        if op in (Op.SGET, Op.SGET_OBJECT):
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.SGET_OBJECT
            symbol = ins.symbol

            def untracked(frame):
                value, _taint = vm.get_static(symbol)
                wr2(frame.fp + off_a, value & _M32, 0)
                frame.ref_flags[a] = is_ref

            def clean(frame):
                value, taint = vm.get_static(symbol)
                if taint:
                    frame.maybe_tainted = True
                    wr2(frame.fp + off_a, value & _M32, taint)
                    frame.ref_flags[a] = is_ref
                    raise _TaintEntered(index)
                wr(frame.fp + off_a, value & _M32)
                frame.ref_flags[a] = is_ref

            def tainted(frame):
                value, taint = vm.get_static(symbol)
                wr2(frame.fp + off_a, value & _M32, taint)
                frame.ref_flags[a] = is_ref
            return untracked, clean, tainted

        if op in (Op.SPUT, Op.SPUT_OBJECT):
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_register(method, bad)
            is_ref = op is Op.SPUT_OBJECT
            symbol = ins.symbol

            def untracked(frame):
                vm.set_static(symbol, rd(frame.fp + off_a), TAINT_CLEAR,
                              is_ref=is_ref)

            def tainted(frame):
                fp = frame.fp
                vm.set_static(symbol, rd(fp + off_a), rd(fp + toff_a),
                              is_ref=is_ref)
            return untracked, untracked, tainted

        if op is Op.STRING_CONCAT:
            bad = self._check_registers(method, a, b, c)
            if bad is not None:
                return self._bad_register(method, bad)

            def untracked(frame):
                fp = frame.fp
                left = vm.heap.get(rd(fp + off_b))
                right = vm.heap.get(rd(fp + off_c))
                record = vm.heap.alloc_string(
                    vm.string_value(left) + vm.string_value(right),
                    TAINT_CLEAR)
                wr2(fp + off_a, record.address & _M32, 0)
                frame.ref_flags[a] = True

            def clean(frame):
                fp = frame.fp
                left = vm.heap.get(rd(fp + off_b))
                right = vm.heap.get(rd(fp + off_c))
                taint = left.taint | right.taint   # reg taints are zero
                record = vm.heap.alloc_string(
                    vm.string_value(left) + vm.string_value(right), taint)
                if taint:
                    frame.maybe_tainted = True
                    wr2(fp + off_a, record.address & _M32, taint)
                    frame.ref_flags[a] = True
                    raise _TaintEntered(index)
                wr(fp + off_a, record.address & _M32)
                frame.ref_flags[a] = True

            def tainted(frame):
                fp = frame.fp
                left = vm.heap.get(rd(fp + off_b))
                right = vm.heap.get(rd(fp + off_c))
                taint = (left.taint | right.taint | rd(fp + toff_b)
                         | rd(fp + toff_c))
                record = vm.heap.alloc_string(
                    vm.string_value(left) + vm.string_value(right), taint)
                wr2(fp + off_a, record.address & _M32, taint)
                frame.ref_flags[a] = True
            return untracked, clean, tainted

        if op is Op.INT_TO_STRING:
            bad = self._check_registers(method, a, b)
            if bad is not None:
                return self._bad_register(method, bad)

            def untracked(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                if x & _SIGN:
                    x -= _WRAP
                record = vm.heap.alloc_string(str(x), TAINT_CLEAR)
                wr2(fp + off_a, record.address & _M32, 0)
                frame.ref_flags[a] = True

            def clean(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                if x & _SIGN:
                    x -= _WRAP
                record = vm.heap.alloc_string(str(x), TAINT_CLEAR)
                wr(fp + off_a, record.address & _M32)
                frame.ref_flags[a] = True

            def tainted(frame):
                fp = frame.fp
                x = rd(fp + off_b)
                if x & _SIGN:
                    x -= _WRAP
                taint = rd(fp + toff_b)
                record = vm.heap.alloc_string(str(x), taint)
                wr2(fp + off_a, record.address & _M32, taint)
                frame.ref_flags[a] = True
            return untracked, clean, tainted

        def unimplemented(frame):
            raise DalvikError(f"unimplemented opcode {op}")
        return unimplemented, unimplemented, unimplemented

    # -- terminator compilation -------------------------------------------

    def _compile_terminator(self, method: Method, ins: Ins, pc: int
                            ) -> Tuple[Callable, Callable]:
        vm = self.vm
        memory = vm.memory
        rd = memory.read_u32
        op = ins.op
        a, b = ins.a, ins.b
        off_a, off_b = 8 * a, 8 * b
        toff_a = off_a + 4

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
                fp = frame.fp
                x = rd(fp + off_a)
                y = rd(fp + off_b)
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
                x = rd(frame.fp + off_a)
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
                return Slot(rd(frame.fp + off_a), TAINT_CLEAR, is_ref)

            def term_tainted(frame):
                fp = frame.fp
                return Slot(rd(fp + off_a), rd(fp + toff_a), is_ref)
            return term_clean, term_tainted

        if op is Op.THROW:
            bad = self._check_registers(method, a)
            if bad is not None:
                return self._bad_terminator(method, bad)

            def term_clean(frame):
                frame.pc = pc
                address = rd(frame.fp + off_a)
                record = vm.heap.get(address)
                raise PendingException(address, TAINT_CLEAR,
                                       record.class_name)

            def term_tainted(frame):
                frame.pc = pc
                fp = frame.fp
                address = rd(fp + off_a)
                record = vm.heap.get(address)
                raise PendingException(address, rd(fp + toff_a),
                                       record.class_name)
            return term_clean, term_tainted

        # Invokes: the trace ends, the callee runs, MOVE_RESULT (if any)
        # leads the successor block.
        bad = self._check_registers(method, *ins.args)
        if bad is not None:
            return self._bad_terminator(method, bad)
        registers = tuple(ins.args)
        symbol = ins.symbol
        virtual = op is Op.INVOKE_VIRTUAL
        invoke = vm.invoke_symbol
        next_pc = pc + 1

        def term_clean(frame):
            frame.pc = pc
            fp = frame.fp
            flags = frame.ref_flags
            arg_slots = [Slot(rd(fp + 8 * r), TAINT_CLEAR, flags[r])
                         for r in registers]
            vm.interp_save_state = invoke(symbol, arg_slots,
                                          virtual=virtual)
            frame.pc = next_pc

        def term_tainted(frame):
            frame.pc = pc
            fp = frame.fp
            flags = frame.ref_flags
            arg_slots = [Slot(rd(fp + 8 * r), rd(fp + 8 * r + 4), flags[r])
                         for r in registers]
            vm.interp_save_state = invoke(symbol, arg_slots,
                                          virtual=virtual)
            frame.pc = next_pc
        return term_clean, term_tainted

    def _bad_terminator(self, method: Method, register: int
                        ) -> Tuple[Callable, Callable]:
        def term(frame):
            raise DalvikError(
                f"register v{register} out of range in {method.full_name}")
        return term, term

    def _compile_fell_off(self, method: Method) -> Callable:
        def term(frame):
            raise DalvikError(f"fell off the end of {method.full_name}")
        return term
