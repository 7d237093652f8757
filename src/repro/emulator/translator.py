"""Translation-time specialisation of decoded instructions.

This is the reproduction's analogue of QEMU's TCG front end: at block
*translation* time each decoded IR node is partially evaluated against
its constants (register indices, immediates, shift amounts, and — because
the block's PC is known — every PC-relative address) into a flat Python
closure.  Executing the block then costs one closure call per
instruction, with no decode, no dispatch, no per-instruction
instrumentation checks, and no condition re-tests for the AL case.

The block's terminator is translated the same way into a closure that
returns whether it wrote the PC: B/BL/B<cond> with a constant target and
link value, Thumb BLX-immediate with its switch to ARM, BX/BLX register
with interworking, and POP/LDM loading the PC.  The dispatch loop runs
it in the block epilogue, so an ordinary block exit never reaches the
interpretive executor.

Anything not covered by a specialised builder falls back to a closure
around :meth:`Executor.execute`, which keeps semantics identical to the
single-step engine at the single-step engine's speed.  The specialised
builders must match the executor's semantics *exactly* (including its
shifter-carry conventions and interworking quirks) — the differential
tests in ``tests/emulator/test_translation_blocks.py`` and
``tests/emulator/test_block_exit_differential.py`` enforce this.

A word ``LDR`` (immediate, literal-pool or register offset) reads its
page inline with one ``struct`` unpack, holding the memory's live page
table (pages are never replaced, see :mod:`repro.memory.memory`); a word
that straddles a page or lies on an unmapped page goes through
:meth:`Memory.read_u32`, which also raises in strict memory.  Stores
stay on :class:`Memory` so the write watcher sees every one.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional, Tuple

from repro.common.errors import MemoryError_
from repro.cpu import isa
from repro.cpu.executor import CONDITION_TABLE, Executor
from repro.cpu.isa import Cond, Op, ShiftType
from repro.cpu.state import LR, PC, CpuState
from repro.memory.memory import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, Memory

M32 = 0xFFFF_FFFF
SIGN = 0x8000_0000
# The last page offset at which a word does not straddle the page.
LAST_WORD = PAGE_SIZE - 4
_unpack_u32 = struct.Struct("<I").unpack_from

# A translated micro-op: no arguments, no return value, never writes PC.
MicroOp = Callable[[], None]
# A translated terminator: no arguments, returns whether it wrote the PC.
Terminator = Callable[[], bool]


def ends_block(ir: isa.Instruction) -> bool:
    """True when ``ir`` may transfer control (so it must end its block)."""
    if isinstance(ir, (isa.Branch, isa.BranchExchange,
                       isa.SoftwareInterrupt, isa.Breakpoint)):
        return True
    if isinstance(ir, isa.DataProcessing):
        return ir.rd == PC and ir.op not in isa.COMPARE_OPS
    if isinstance(ir, isa.LoadStore):
        return (ir.load and ir.rd == PC) or (ir.writeback and ir.rn == PC)
    if isinstance(ir, isa.LoadStoreMultiple):
        return (ir.load and PC in ir.reglist) or ir.rn == PC
    if isinstance(ir, isa.Multiply):
        return ir.rd == PC
    if isinstance(ir, isa.MultiplyLong):
        return PC in (ir.rd_lo, ir.rd_hi)
    if isinstance(ir, isa.MoveWide):
        return ir.rd == PC
    if isinstance(ir, isa.CountLeadingZeros):
        return ir.rd == PC
    return False


def static_branch_target(ir: isa.Instruction, pc: int,
                         thumb: bool) -> Optional[int]:
    """The taken-target of a PC-relative branch, or None if dynamic."""
    if isinstance(ir, isa.Branch):
        pipeline = 4 if thumb else 8
        target = (pc + pipeline + ir.offset) & M32
        if ir.mnemonic == "blx" and thumb:
            target &= ~3
        return target
    return None


def interleave_taint_ops(ops: Tuple[MicroOp, ...],
                         taint_slots) -> Tuple[MicroOp, ...]:
    """Build a block's *tainted* variant: each instruction's pre-bound
    taint micro-op (slot may be None for Table V no-ops) runs immediately
    before its execution micro-op — the same tracer-before-execute order
    as the single-step engine.  Taint ops run unconditionally even when
    the execution op's condition fails, again matching single-step (the
    tracer fires before the condition is evaluated)."""
    out = []
    for op, taint_op in zip(ops, taint_slots):
        if taint_op is not None:
            out.append(taint_op)
        out.append(op)
    return tuple(out)


def build_micro_op(ir: isa.Instruction, pc: int, thumb: bool,
                   cpu: CpuState, memory: Memory,
                   executor: Executor) -> Tuple[MicroOp, bool]:
    """Translate one body instruction into ``(micro-op, specialised)``.

    ``ir`` must not be a block terminator (``ends_block(ir)`` is False),
    so the returned closure never writes the PC.  The flag reports
    whether the closure is a flat specialisation (vs. executor fallback).
    """
    op = _specialise(ir, pc, thumb, cpu, memory)
    if op is None:
        return _fallback(ir, pc, cpu, executor), False
    if ir.cond != Cond.AL:
        op = _conditional(op, ir.cond, cpu)
    return op, True


def build_terminator(ir: isa.Instruction, pc: int, thumb: bool,
                     cpu: CpuState, memory: Memory,
                     executor: Executor) -> Tuple[Terminator, bool]:
    """Translate a block terminator (``ends_block(ir)``) into
    ``(closure, specialised)``; the closure returns whether it wrote the
    PC, exactly as :meth:`Executor.execute` would."""
    op = _specialise_terminator(ir, pc, thumb, cpu, memory, executor)
    if op is None:
        return _fallback(ir, pc, cpu, executor), False
    if ir.cond != Cond.AL:
        op = _conditional(op, ir.cond, cpu)
    return op, True


def _fallback(ir: isa.Instruction, pc: int, cpu: CpuState,
              executor: Executor) -> Terminator:
    regs = cpu.regs
    execute = executor.execute

    def op() -> bool:
        regs[PC] = pc
        return execute(ir)
    return op


def _conditional(inner, cond: Cond, cpu: CpuState):
    """Guard ``inner`` by ``cond``; a failed condition returns False (no
    PC write), so this wraps body micro-ops and terminators alike."""
    passes = CONDITION_TABLE[cond]

    def op():
        if passes[cpu.flag_n << 3 | cpu.flag_z << 2 |
                  cpu.flag_c << 1 | cpu.flag_v]:
            return inner()
        return False
    return op


def _specialise(ir: isa.Instruction, pc: int, thumb: bool,
                cpu: CpuState, memory: Memory) -> Optional[MicroOp]:
    if isinstance(ir, isa.DataProcessing):
        return _specialise_data_processing(ir, pc, thumb, cpu)
    if isinstance(ir, isa.LoadStore):
        return _specialise_load_store(ir, pc, thumb, cpu, memory)
    if isinstance(ir, isa.LoadStoreMultiple):
        return _specialise_load_store_multiple(ir, cpu, memory)
    if isinstance(ir, isa.MoveWide):
        return _specialise_move_wide(ir, cpu)
    if isinstance(ir, isa.Multiply):
        return _specialise_multiply(ir, cpu)
    if isinstance(ir, isa.CountLeadingZeros):
        return _specialise_clz(ir, cpu)
    if isinstance(ir, isa.Nop):
        return _nop
    return None


def _nop() -> None:
    return None


# -- operand2 ---------------------------------------------------------------

def _pipelined_pc(pc: int, thumb: bool) -> int:
    return (pc + (4 if thumb else 8)) & M32


def _operand2_getter(o2: isa.Operand2, pc: int, thumb: bool,
                     cpu: CpuState):
    """Returns (const_value, getter): exactly one is non-None.

    Only forms whose value is independent of the flags are specialised
    (RRX and register-specified shifts fall back), so getters stay pure
    reads of the register file.
    """
    regs = cpu.regs
    if o2.is_immediate:
        return o2.imm & M32, None
    if o2.shift_reg is not None:
        return None, None  # register-specified shift: dynamic amount
    rm = o2.rm
    if rm == PC:
        base_const = _pipelined_pc(pc, thumb)
        if o2.shift_type == ShiftType.LSL and o2.shift_imm == 0:
            return base_const, None
        return None, None  # shifted-PC operand: rare, fall back
    st, n = o2.shift_type, o2.shift_imm
    if st == ShiftType.LSL:
        if n == 0:
            return None, lambda: regs[rm]
        return None, lambda: (regs[rm] << n) & M32
    if st == ShiftType.LSR:
        if n == 0:  # encodes LSR #32
            return 0, None
        return None, lambda: regs[rm] >> n
    if st == ShiftType.ASR:
        if n == 0:  # encodes ASR #32
            return None, lambda: M32 if regs[rm] & SIGN else 0
        return None, lambda: (((regs[rm] ^ SIGN) - SIGN) >> n) & M32
    # ROR #n; amount 0 encodes RRX which needs the carry flag.
    if n == 0:
        return None, None
    return None, lambda: ((regs[rm] >> n) | (regs[rm] << (32 - n))) & M32


# -- data processing ---------------------------------------------------------

def _specialise_data_processing(ir: isa.DataProcessing, pc: int,
                                thumb: bool,
                                cpu: CpuState) -> Optional[MicroOp]:
    const2, get2 = _operand2_getter(ir.operand2, pc, thumb, cpu)
    if const2 is None and get2 is None:
        return None
    regs = cpu.regs
    rd, rn = ir.rd, ir.rn
    op = ir.op

    if ir.set_flags:
        return _specialise_flag_setting(ir, pc, thumb, cpu, const2, get2)

    if op == Op.MOV:
        if const2 is not None:
            def mov_imm() -> None:
                regs[rd] = const2
            return mov_imm

        def mov_reg() -> None:
            regs[rd] = get2()
        return mov_reg
    if op == Op.MVN:
        if const2 is not None:
            inverted = ~const2 & M32

            def mvn_imm() -> None:
                regs[rd] = inverted
            return mvn_imm

        def mvn_reg() -> None:
            regs[rd] = ~get2() & M32
        return mvn_reg
    if op in (Op.ADC, Op.SBC, Op.RSC):
        return None  # carry-dependent: fall back
    if rn == PC:
        rn_const = _pipelined_pc(pc, thumb)
        if op == Op.ADD and const2 is not None:  # ADR
            total = (rn_const + const2) & M32

            def adr() -> None:
                regs[rd] = total
            return adr
        get_n = lambda: rn_const  # noqa: E731 - tiny constant getter
    else:
        get_n = None  # marker: read regs[rn] inline

    # Flat fast paths for the common (reg op imm) / (reg op reg) shapes.
    if get_n is None:
        if const2 is not None:
            imm = const2
            if op == Op.ADD:
                def add_ri() -> None:
                    regs[rd] = (regs[rn] + imm) & M32
                return add_ri
            if op == Op.SUB:
                def sub_ri() -> None:
                    regs[rd] = (regs[rn] - imm) & M32
                return sub_ri
            if op == Op.AND:
                def and_ri() -> None:
                    regs[rd] = regs[rn] & imm
                return and_ri
            if op == Op.ORR:
                def orr_ri() -> None:
                    regs[rd] = regs[rn] | imm
                return orr_ri
            if op == Op.EOR:
                def eor_ri() -> None:
                    regs[rd] = regs[rn] ^ imm
                return eor_ri
            if op == Op.BIC:
                mask = ~imm & M32

                def bic_ri() -> None:
                    regs[rd] = regs[rn] & mask
                return bic_ri
            if op == Op.RSB:
                def rsb_ri() -> None:
                    regs[rd] = (imm - regs[rn]) & M32
                return rsb_ri
            return None
        if op == Op.ADD:
            def add_rr() -> None:
                regs[rd] = (regs[rn] + get2()) & M32
            return add_rr
        if op == Op.SUB:
            def sub_rr() -> None:
                regs[rd] = (regs[rn] - get2()) & M32
            return sub_rr
        if op == Op.AND:
            def and_rr() -> None:
                regs[rd] = regs[rn] & get2()
            return and_rr
        if op == Op.ORR:
            def orr_rr() -> None:
                regs[rd] = regs[rn] | get2()
            return orr_rr
        if op == Op.EOR:
            def eor_rr() -> None:
                regs[rd] = regs[rn] ^ get2()
            return eor_rr
        if op == Op.BIC:
            def bic_rr() -> None:
                regs[rd] = regs[rn] & ~get2() & M32
            return bic_rr
        if op == Op.RSB:
            def rsb_rr() -> None:
                regs[rd] = (get2() - regs[rn]) & M32
            return rsb_rr
        return None

    # rn is the PC constant with a non-immediate operand2 (rare).
    value2 = (lambda: const2) if const2 is not None else get2
    if op == Op.ADD:
        def add_pc() -> None:
            regs[rd] = (get_n() + value2()) & M32
        return add_pc
    if op == Op.SUB:
        def sub_pc() -> None:
            regs[rd] = (get_n() - value2()) & M32
        return sub_pc
    return None


def _specialise_flag_setting(ir: isa.DataProcessing, pc: int, thumb: bool,
                             cpu: CpuState, const2,
                             get2) -> Optional[MicroOp]:
    """CMP/CMN/TST and SUBS/ADDS/MOVS — the flag writers loops live on.

    Matches the executor's conventions: logical S-ops leave C untouched
    when the shifter produced no carry (immediates and LSL #0), so only
    those shifter forms are specialised here.
    """
    regs = cpu.regs
    rd, rn, op = ir.rd, ir.rn, ir.op
    if rn == PC or rd == PC:
        return None

    plain_shifter = ir.operand2.is_immediate or (
        ir.operand2.rm is not None
        and ir.operand2.shift_reg is None
        and ir.operand2.shift_type == ShiftType.LSL
        and ir.operand2.shift_imm == 0)

    if op in (Op.CMP, Op.SUB, Op.ADD, Op.CMN):
        subtract = op in (Op.CMP, Op.SUB)
        writes = op in (Op.SUB, Op.ADD)
        if const2 is not None:
            imm = const2

            def arith_imm() -> None:
                a = regs[rn]
                total = a - imm if subtract else a + imm
                result = total & M32
                cpu.flag_n = bool(result & SIGN)
                cpu.flag_z = result == 0
                if subtract:
                    cpu.flag_c = total >= 0
                    cpu.flag_v = bool((a ^ imm) & (a ^ result) & SIGN)
                else:
                    cpu.flag_c = total > M32
                    cpu.flag_v = bool((a ^ result) & (imm ^ result) & SIGN)
                if writes:
                    regs[rd] = result
            return arith_imm

        def arith_reg() -> None:
            a = regs[rn]
            b = get2()
            total = a - b if subtract else a + b
            result = total & M32
            cpu.flag_n = bool(result & SIGN)
            cpu.flag_z = result == 0
            if subtract:
                cpu.flag_c = total >= 0
                cpu.flag_v = bool((a ^ b) & (a ^ result) & SIGN)
            else:
                cpu.flag_c = total > M32
                cpu.flag_v = bool((a ^ result) & (b ^ result) & SIGN)
            if writes:
                regs[rd] = result
        return arith_reg

    if op in (Op.TST, Op.TEQ, Op.MOV) and plain_shifter:
        # Shifter carry is "unchanged" for these forms: N/Z only.
        if op == Op.MOV:
            if const2 is not None:
                imm = const2
                neg = bool(imm & SIGN)
                zero = imm == 0

                def movs_imm() -> None:
                    regs[rd] = imm
                    cpu.flag_n = neg
                    cpu.flag_z = zero
                return movs_imm

            def movs_reg() -> None:
                value = get2()
                regs[rd] = value
                cpu.flag_n = bool(value & SIGN)
                cpu.flag_z = value == 0
            return movs_reg
        exclusive = op == Op.TEQ
        if const2 is not None:
            imm = const2

            def test_imm() -> None:
                result = (regs[rn] ^ imm) if exclusive else (regs[rn] & imm)
                cpu.flag_n = bool(result & SIGN)
                cpu.flag_z = result == 0
            return test_imm

        def test_reg() -> None:
            result = (regs[rn] ^ get2()) if exclusive else (regs[rn] & get2())
            cpu.flag_n = bool(result & SIGN)
            cpu.flag_z = result == 0
        return test_reg
    return None


# -- loads and stores --------------------------------------------------------

def _address_mode(ir: isa.LoadStore, pc: int, thumb: bool):
    """A pre-indexed load or store's address, decoded once:
    ``(literal, rm, shift, sign, displacement)``.  A literal-pool access
    has the translation-time constant ``literal`` (the word-aligned
    pipelined PC plus offset); a register offset reads
    ``regs[rn] + sign * ((regs[rm] << shift) & M32)``; an immediate one
    ``regs[rn] + displacement``.  None for a mode that falls back."""
    rn = ir.rn
    if ir.offset_rm is not None:
        rm = ir.offset_rm
        if rm == PC or rn == PC or ir.shift_type != ShiftType.LSL:
            return None
        return None, rm, ir.shift_imm, 1 if ir.add else -1, 0
    displacement = ir.offset_imm or 0
    if not ir.add:
        displacement = -displacement
    if rn == PC:
        literal = ((_pipelined_pc(pc, thumb) & ~3) + displacement) & M32
        return literal, None, 0, 1, 0
    return None, None, 0, 1, displacement


def _specialise_load_store(ir: isa.LoadStore, pc: int, thumb: bool,
                           cpu: CpuState,
                           memory: Memory) -> Optional[MicroOp]:
    if ir.writeback or not ir.pre_indexed:
        return None  # writeback/post-index: fall back
    regs = cpu.regs
    rd, rn = ir.rd, ir.rn
    if not ir.load and rd == PC:
        return None  # STR pc needs the pipelined value: fall back
    mode = _address_mode(ir, pc, thumb)
    if mode is None:
        return None
    if ir.load and ir.size == 4:
        return _specialise_ldr(rd, rn, mode, regs, memory)
    literal, rm, shift, sign, displacement = mode

    if literal is not None:
        def get_address() -> int:
            return literal
    elif rm is not None:
        def get_address() -> int:
            return (regs[rn] + sign * ((regs[rm] << shift) & M32)) & M32
    else:
        def get_address() -> int:
            return (regs[rn] + displacement) & M32

    if ir.load:
        if ir.size == 2:
            read_u16 = memory.read_u16
            if ir.signed:
                def ldrsh() -> None:
                    value = read_u16(get_address())
                    regs[rd] = value | 0xFFFF_0000 if value & 0x8000 \
                        else value
                return ldrsh

            def ldrh() -> None:
                regs[rd] = read_u16(get_address())
            return ldrh
        read_u8 = memory.read_u8
        if ir.signed:
            def ldrsb() -> None:
                value = read_u8(get_address())
                regs[rd] = value | 0xFFFF_FF00 if value & 0x80 else value
            return ldrsb

        def ldrb() -> None:
            regs[rd] = read_u8(get_address())
        return ldrb

    if ir.size == 4:
        write_u32 = memory.write_u32

        def strw() -> None:
            write_u32(get_address(), regs[rd])
        return strw
    if ir.size == 2:
        write_u16 = memory.write_u16

        def strh() -> None:
            write_u16(get_address(), regs[rd])
        return strh
    write_u8 = memory.write_u8

    def strb() -> None:
        write_u8(get_address(), regs[rd])
    return strb


def _specialise_ldr(rd: int, rn: int, mode, regs,
                    memory: Memory) -> Optional[MicroOp]:
    """A word load over the decoded address ``mode``
    (:func:`_address_mode`), its page read inline (see the module doc).
    The address arithmetic is written out in each closure rather than
    called, since the call would cost as much as the page read."""
    literal, rm, shift, sign, displacement = mode
    pages = memory.pages
    read_u32 = memory.read_u32

    if literal is not None:
        index, offset = literal >> PAGE_SHIFT, literal & PAGE_MASK
        if offset > LAST_WORD:
            return None  # a literal straddling a page: fall back

        def ldr_literal() -> None:
            page = pages.get(index)
            regs[rd] = read_u32(literal) if page is None \
                else _unpack_u32(page, offset)[0]
        return ldr_literal

    if rm is not None:
        def ldr_reg() -> None:
            address = (regs[rn] + sign * ((regs[rm] << shift) & M32)) & M32
            offset = address & PAGE_MASK
            if offset <= LAST_WORD:
                page = pages.get(address >> PAGE_SHIFT)
                if page is not None:
                    regs[rd] = _unpack_u32(page, offset)[0]
                    return
            regs[rd] = read_u32(address)
        return ldr_reg

    def ldr_imm() -> None:
        address = (regs[rn] + displacement) & M32
        offset = address & PAGE_MASK
        if offset <= LAST_WORD:
            page = pages.get(address >> PAGE_SHIFT)
            if page is not None:
                regs[rd] = _unpack_u32(page, offset)[0]
                return
        regs[rd] = read_u32(address)
    return ldr_imm


def _multiple_deltas(ir: isa.LoadStoreMultiple) -> Tuple[int, int]:
    """An LDM/STM's offsets from its base register: to the lowest word
    it transfers, and to the base it writes back."""
    count = len(ir.reglist)
    if ir.increment:
        return (4 if ir.before else 0), 4 * count
    return (-4 * count if ir.before else -4 * count + 4), -4 * count


def _specialise_load_store_multiple(ir: isa.LoadStoreMultiple,
                                    cpu: CpuState,
                                    memory: Memory) -> Optional[MicroOp]:
    """PUSH/POP and plain LDM/STM with writeback off the stack pointer."""
    regs = cpu.regs
    rn = ir.rn
    reglist = ir.reglist
    count = len(reglist)
    if rn == PC or PC in reglist or count == 0:
        return None
    read_words = memory.read_words
    write_words = memory.write_words
    start_delta, end_delta = _multiple_deltas(ir)

    if ir.load:
        load_in_list = rn in reglist
        writeback = ir.writeback and not load_in_list
        read_u32 = memory.read_u32

        def load_until_fault(address: int) -> None:
            # A fault part-way through the list: like the executor, load
            # word by word, so the registers before the faulting word keep
            # their loaded values, and let the fault propagate.
            for index, register in enumerate(reglist):
                regs[register] = read_u32((address + 4 * index) & M32)

        def ldm() -> None:
            address = (regs[rn] + start_delta) & M32
            try:
                values = read_words(address, count)
            except MemoryError_:
                load_until_fault(address)
                raise
            for register, value in zip(reglist, values):
                regs[register] = value
            if writeback:
                regs[rn] = (regs[rn] + end_delta) & M32

        if ir.writeback and load_in_list:
            # Loaded value wins over writeback (executor semantics).
            def ldm_overlap() -> None:
                address = (regs[rn] + start_delta) & M32
                try:
                    values = read_words(address, count)
                except MemoryError_:
                    load_until_fault(address)
                    raise
                for register, value in zip(reglist, values):
                    regs[register] = value
            return ldm_overlap
        return ldm

    writeback = ir.writeback

    def stm() -> None:
        base = regs[rn]
        address = (base + start_delta) & M32
        write_words(address, [regs[register] for register in reglist])
        if writeback:
            regs[rn] = (base + end_delta) & M32
    return stm


# -- the rest ----------------------------------------------------------------

def _specialise_move_wide(ir: isa.MoveWide,
                          cpu: CpuState) -> Optional[MicroOp]:
    regs = cpu.regs
    rd = ir.rd
    if ir.top:
        high = (ir.imm16 << 16) & M32

        def movt() -> None:
            regs[rd] = (regs[rd] & 0xFFFF) | high
        return movt
    imm = ir.imm16

    def movw() -> None:
        regs[rd] = imm
    return movw


def _specialise_multiply(ir: isa.Multiply,
                         cpu: CpuState) -> Optional[MicroOp]:
    if ir.set_flags:
        return None
    regs = cpu.regs
    rd, rm, rs, rn = ir.rd, ir.rm, ir.rs, ir.rn
    if PC in (rm, rs) or (ir.accumulate and rn == PC):
        return None
    if ir.accumulate:
        def mla() -> None:
            regs[rd] = (regs[rm] * regs[rs] + regs[rn]) & M32
        return mla

    def mul() -> None:
        regs[rd] = (regs[rm] * regs[rs]) & M32
    return mul


def _specialise_clz(ir: isa.CountLeadingZeros,
                    cpu: CpuState) -> Optional[MicroOp]:
    regs = cpu.regs
    rd, rm = ir.rd, ir.rm
    if rm == PC:
        return None

    def clz() -> None:
        value = regs[rm]
        regs[rd] = 32 if value == 0 else 32 - value.bit_length()
    return clz


# -- block terminators --------------------------------------------------------

def _specialise_terminator(ir: isa.Instruction, pc: int, thumb: bool,
                           cpu: CpuState, memory: Memory,
                           executor: Executor) -> Optional[Terminator]:
    if isinstance(ir, isa.Branch):
        return _specialise_branch(ir, pc, thumb, cpu)
    if isinstance(ir, isa.BranchExchange):
        return _specialise_branch_exchange(ir, pc, thumb, cpu)
    if isinstance(ir, isa.LoadStoreMultiple):
        return _specialise_pop(ir, pc, cpu, memory, executor)
    return None  # PC-writing ALU ops, ldr pc, SVC, BKPT


def _return_address(ir: isa.Instruction, pc: int, thumb: bool) -> int:
    """The link value a BL/BLX leaves in LR: the next instruction, with
    the Thumb bit set when the caller runs Thumb code."""
    return ((pc + ir.width) & M32) | (1 if thumb else 0)


def _specialise_branch(ir: isa.Branch, pc: int, thumb: bool,
                       cpu: CpuState) -> Optional[Terminator]:
    regs = cpu.regs
    target = static_branch_target(ir, pc, thumb)
    if ir.mnemonic == "blx" and thumb:
        if not ir.link:
            return None  # no decoder produces an unlinked BLX
        link_value = _return_address(ir, pc, thumb)

        def blx_imm() -> bool:
            # Thumb BLX immediate: switch to ARM at the word-aligned target.
            regs[LR] = link_value
            cpu.thumb = False
            regs[PC] = target
            return True
        return blx_imm
    if ir.link:
        link_value = _return_address(ir, pc, thumb)

        def bl() -> bool:
            regs[LR] = link_value
            regs[PC] = target
            return True
        return bl

    def b() -> bool:
        regs[PC] = target
        return True
    return b


def _specialise_branch_exchange(ir: isa.BranchExchange, pc: int,
                                thumb: bool,
                                cpu: CpuState) -> Optional[Terminator]:
    if ir.rm == PC:
        return None  # bx pc reads the pipelined PC: fall back
    regs = cpu.regs
    rm = ir.rm
    if ir.link:
        link_value = _return_address(ir, pc, thumb)

        def blx_reg() -> bool:
            target = regs[rm]  # read before LR is written (blx lr)
            regs[LR] = link_value
            cpu.thumb = bool(target & 1)
            regs[PC] = target & 0xFFFF_FFFE
            return True
        return blx_reg

    def bx() -> bool:
        target = regs[rm]
        cpu.thumb = bool(target & 1)
        regs[PC] = target & 0xFFFF_FFFE
        return True
    return bx


def _specialise_pop(ir: isa.LoadStoreMultiple, pc: int, cpu: CpuState,
                    memory: Memory,
                    executor: Executor) -> Optional[Terminator]:
    """POP/LDM with the PC in the list (a function return).

    The loaded PC interworks only towards Thumb, as the executor's
    ``_branch_to`` does: an even value keeps the current mode.  A fault
    re-runs the instruction through the executor, so the registers it
    loaded before the faulting word are left exactly as single-step
    leaves them.
    """
    reglist = ir.reglist
    rn = ir.rn
    if not ir.load or PC not in reglist or rn == PC:
        return None
    regs = cpu.regs
    count = len(reglist)
    read_words = memory.read_words
    fallback = _fallback(ir, pc, cpu, executor)
    start_delta, end_delta = _multiple_deltas(ir)
    writeback = ir.writeback and rn not in reglist

    def pop() -> bool:
        base = regs[rn]
        try:
            values = read_words((base + start_delta) & M32, count)
        except MemoryError_:
            return fallback()
        for register, value in zip(reglist, values):
            regs[register] = value
        target = regs[PC]
        if target & 1:
            cpu.thumb = True
            regs[PC] = target & 0xFFFF_FFFE
        if writeback:
            regs[rn] = (base + end_delta) & M32
        return True
    return pop
