"""Executor for the shared ARM/Thumb instruction IR.

One executor instance drives one CPU against one memory.  ``execute``
performs a single decoded instruction and reports whether it wrote the PC
(so the fetch loop knows not to advance sequentially).

The address-computation helpers (:func:`operand2_value`,
:func:`transfer_address`, :func:`multiple_addresses`) are module-level and
side-effect-free so NDroid's instruction tracer can reuse them to compute
the very same addresses *before* the instruction executes — mirroring the
paper, where the taint handler runs "before the instruction is executed"
(Section V.G).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.common.errors import EmulationError
from repro.cpu import isa
from repro.cpu.bits import asr32, lsl32, lsr32, ror32, s32, u32
from repro.cpu.isa import Cond, Op, ShiftType
from repro.cpu.state import LR, PC, SP, CpuState
from repro.memory.memory import Memory

SvcHandler = Callable[[int, CpuState, Memory], None]


# The ARM condition tests over the N, Z, C and V flags.
_CONDITIONS = {
    Cond.EQ: lambda n, z, c, v: z,
    Cond.NE: lambda n, z, c, v: not z,
    Cond.CS: lambda n, z, c, v: c,
    Cond.CC: lambda n, z, c, v: not c,
    Cond.MI: lambda n, z, c, v: n,
    Cond.PL: lambda n, z, c, v: not n,
    Cond.VS: lambda n, z, c, v: v,
    Cond.VC: lambda n, z, c, v: not v,
    Cond.HI: lambda n, z, c, v: c and not z,
    Cond.LS: lambda n, z, c, v: (not c) or z,
    Cond.GE: lambda n, z, c, v: n == v,
    Cond.LT: lambda n, z, c, v: n != v,
    Cond.GT: lambda n, z, c, v: (not z) and n == v,
    Cond.LE: lambda n, z, c, v: z or n != v,
    Cond.AL: lambda n, z, c, v: True,
}

# CONDITION_TABLE[cond][nzcv], N in bit 3 and V in bit 0: one tuple index
# replaces a comparison chain on every block terminator and conditional
# micro-op.
CONDITION_TABLE: Tuple[Tuple[bool, ...], ...] = tuple(
    tuple(_CONDITIONS[cond](*(bool(nzcv & bit) for bit in (8, 4, 2, 1)))
          for nzcv in range(16))
    for cond in Cond)
_AL = Cond.AL


def condition_passed(cpu: CpuState, cond: Cond) -> bool:
    """Evaluate an ARM condition code against the current NZCV flags."""
    if cond is _AL:
        return True
    return CONDITION_TABLE[cond][cpu.flag_n << 3 | cpu.flag_z << 2 |
                                 cpu.flag_c << 1 | cpu.flag_v]


def _apply_shift(value: int, shift_type: ShiftType, amount: int,
                 carry_in: bool, register_shift: bool) -> Tuple[int, int]:
    """Apply the barrel shifter; returns (result, carry_out or -1)."""
    if shift_type == ShiftType.LSL:
        return lsl32(value, amount)
    if shift_type == ShiftType.LSR:
        if not register_shift and amount == 0:
            amount = 32  # LSR #0 encodes LSR #32
        return lsr32(value, amount)
    if shift_type == ShiftType.ASR:
        if not register_shift and amount == 0:
            amount = 32
        return asr32(value, amount)
    # ROR (and RRX when the immediate amount is 0).
    if not register_shift and amount == 0:
        result = u32((value >> 1) | ((1 if carry_in else 0) << 31))
        return result, value & 1
    amount_mod = amount % 32
    if amount == 0:
        return u32(value), -1
    if amount_mod == 0:
        return u32(value), (value >> 31) & 1
    return ror32(value, amount_mod), (value >> (amount_mod - 1)) & 1


def operand2_value(cpu: CpuState, operand2: isa.Operand2) -> Tuple[int, int]:
    """Evaluate a flexible operand; returns (value, shifter_carry or -1)."""
    if operand2.is_immediate:
        return u32(operand2.imm), -1
    value = cpu.read_reg(operand2.rm)
    if operand2.shift_reg is not None:
        amount = cpu.read_reg(operand2.shift_reg) & 0xFF
        return _apply_shift(value, operand2.shift_type, amount,
                            cpu.flag_c, register_shift=True)
    return _apply_shift(value, operand2.shift_type, operand2.shift_imm,
                        cpu.flag_c, register_shift=False)


def transfer_address(cpu: CpuState, ir: isa.LoadStore) -> Tuple[int, int]:
    """Compute (access_address, updated_base) for a single load/store."""
    base = cpu.read_reg(ir.rn)
    if ir.rn == PC:
        base &= ~3  # PC-relative accesses use the word-aligned PC
    if ir.offset_rm is not None:
        offset, _ = _apply_shift(cpu.read_reg(ir.offset_rm), ir.shift_type,
                                 ir.shift_imm, cpu.flag_c,
                                 register_shift=False)
    else:
        offset = ir.offset_imm or 0
    target = u32(base + offset) if ir.add else u32(base - offset)
    if ir.pre_indexed:
        return target, target
    return base, target


def multiple_addresses(cpu: CpuState, ir: isa.LoadStoreMultiple) -> List[int]:
    """The ascending list of word addresses an LDM/STM will touch."""
    count = len(ir.reglist)
    base = cpu.read_reg(ir.rn)
    if ir.increment:
        start = base + 4 if ir.before else base
    else:
        start = base - 4 * count if ir.before else base - 4 * count + 4
    return [u32(start + 4 * i) for i in range(count)]


class Executor:
    """Executes decoded instructions against a CPU state and memory."""

    def __init__(self, cpu: CpuState, memory: Memory,
                 svc_handler: Optional[SvcHandler] = None) -> None:
        self.cpu = cpu
        self.memory = memory
        self.svc_handler = svc_handler

    # -- public entry point --------------------------------------------------

    def execute(self, ir: isa.Instruction) -> bool:
        """Execute ``ir``; return True when the instruction wrote the PC."""
        if not condition_passed(self.cpu, ir.cond):
            return False
        if isinstance(ir, isa.DataProcessing):
            return self._exec_data_processing(ir)
        if isinstance(ir, isa.Multiply):
            return self._exec_multiply(ir)
        if isinstance(ir, isa.MultiplyLong):
            return self._exec_multiply_long(ir)
        if isinstance(ir, isa.MoveWide):
            return self._exec_move_wide(ir)
        if isinstance(ir, isa.CountLeadingZeros):
            return self._exec_clz(ir)
        if isinstance(ir, isa.LoadStore):
            return self._exec_load_store(ir)
        if isinstance(ir, isa.LoadStoreMultiple):
            return self._exec_load_store_multiple(ir)
        if isinstance(ir, isa.Branch):
            return self._exec_branch(ir)
        if isinstance(ir, isa.BranchExchange):
            return self._exec_branch_exchange(ir)
        if isinstance(ir, isa.SoftwareInterrupt):
            if self.svc_handler is None:
                raise EmulationError(f"SVC #{ir.imm} with no handler installed")
            self.svc_handler(ir.imm, self.cpu, self.memory)
            return False
        if isinstance(ir, isa.Breakpoint):
            raise EmulationError(f"BKPT #{ir.imm} @ 0x{self.cpu.pc:08x}")
        if isinstance(ir, isa.Nop):
            return False
        raise EmulationError(f"unknown IR node {type(ir).__name__}")

    # -- helpers ---------------------------------------------------------------

    def _write_result(self, rd: int, value: int) -> bool:
        """Write an ALU/load result; writing PC is a branch."""
        if rd == PC:
            self._branch_to(value)
            return True
        self.cpu.write_reg(rd, value)
        return False

    def _branch_to(self, target: int, may_interwork: bool = True) -> None:
        if may_interwork and target & 1:
            self.cpu.thumb = True
            target &= ~1
        self.cpu.pc = target

    # -- data processing --------------------------------------------------------

    def _exec_data_processing(self, ir: isa.DataProcessing) -> bool:
        cpu = self.cpu
        operand2, shifter_carry = operand2_value(cpu, ir.operand2)
        rn_value = cpu.read_reg(ir.rn) if ir.op not in isa.UNARY_OPS else 0
        carry_in = 1 if cpu.flag_c else 0

        logical = ir.op in (Op.AND, Op.EOR, Op.TST, Op.TEQ, Op.ORR, Op.MOV,
                            Op.BIC, Op.MVN)
        overflow: Optional[bool] = None
        carry_out: Optional[int] = None

        if ir.op in (Op.AND, Op.TST):
            result = rn_value & operand2
        elif ir.op in (Op.EOR, Op.TEQ):
            result = rn_value ^ operand2
        elif ir.op == Op.ORR:
            result = rn_value | operand2
        elif ir.op == Op.BIC:
            result = rn_value & ~operand2
        elif ir.op == Op.MOV:
            result = operand2
        elif ir.op == Op.MVN:
            result = ~operand2
        elif ir.op in (Op.SUB, Op.CMP):
            result, carry_out, overflow = _sub_with_flags(rn_value, operand2, 1)
        elif ir.op == Op.RSB:
            result, carry_out, overflow = _sub_with_flags(operand2, rn_value, 1)
        elif ir.op in (Op.ADD, Op.CMN):
            result, carry_out, overflow = _add_with_flags(rn_value, operand2, 0)
        elif ir.op == Op.ADC:
            result, carry_out, overflow = _add_with_flags(rn_value, operand2,
                                                          carry_in)
        elif ir.op == Op.SBC:
            result, carry_out, overflow = _sub_with_flags(rn_value, operand2,
                                                          carry_in)
        elif ir.op == Op.RSC:
            result, carry_out, overflow = _sub_with_flags(operand2, rn_value,
                                                          carry_in)
        else:  # pragma: no cover - all 16 opcodes handled above
            raise EmulationError(f"unhandled opcode {ir.op}")

        result = u32(result)
        if ir.set_flags:
            self.cpu.set_nz(result)
            if logical:
                if shifter_carry >= 0:
                    self.cpu.flag_c = bool(shifter_carry)
            else:
                self.cpu.flag_c = bool(carry_out)
                self.cpu.flag_v = bool(overflow)

        if ir.op in isa.COMPARE_OPS:
            return False
        return self._write_result(ir.rd, result)

    def _exec_multiply(self, ir: isa.Multiply) -> bool:
        result = self.cpu.read_reg(ir.rm) * self.cpu.read_reg(ir.rs)
        if ir.accumulate:
            result += self.cpu.read_reg(ir.rn)
        result = u32(result)
        if ir.set_flags:
            self.cpu.set_nz(result)
        return self._write_result(ir.rd, result)

    def _exec_multiply_long(self, ir: isa.MultiplyLong) -> bool:
        if ir.signed:
            product = s32(self.cpu.read_reg(ir.rm)) * s32(self.cpu.read_reg(ir.rs))
        else:
            product = self.cpu.read_reg(ir.rm) * self.cpu.read_reg(ir.rs)
        if ir.accumulate:
            product += (self.cpu.read_reg(ir.rd_hi) << 32) | \
                self.cpu.read_reg(ir.rd_lo)
        product &= 0xFFFF_FFFF_FFFF_FFFF
        self.cpu.write_reg(ir.rd_lo, product & 0xFFFF_FFFF)
        self.cpu.write_reg(ir.rd_hi, product >> 32)
        if ir.set_flags:
            self.cpu.flag_n = bool(product & (1 << 63))
            self.cpu.flag_z = product == 0
        return False

    def _exec_move_wide(self, ir: isa.MoveWide) -> bool:
        if ir.top:
            value = (self.cpu.read_reg(ir.rd) & 0xFFFF) | (ir.imm16 << 16)
        else:
            value = ir.imm16
        return self._write_result(ir.rd, value)

    def _exec_clz(self, ir: isa.CountLeadingZeros) -> bool:
        value = self.cpu.read_reg(ir.rm)
        count = 32 if value == 0 else 32 - value.bit_length()
        return self._write_result(ir.rd, count)

    # -- memory transfers ----------------------------------------------------------

    def _exec_load_store(self, ir: isa.LoadStore) -> bool:
        address, updated_base = transfer_address(self.cpu, ir)
        pc_written = False
        if ir.load:
            if ir.size == 4:
                value = self.memory.read_u32(address)
            elif ir.size == 2:
                value = self.memory.read_u16(address)
                if ir.signed and value & 0x8000:
                    value |= 0xFFFF_0000
            else:
                value = self.memory.read_u8(address)
                if ir.signed and value & 0x80:
                    value |= 0xFFFF_FF00
            pc_written = self._write_result(ir.rd, value)
        else:
            value = self.cpu.read_reg(ir.rd)
            if ir.size == 4:
                self.memory.write_u32(address, value)
            elif ir.size == 2:
                self.memory.write_u16(address, value)
            else:
                self.memory.write_u8(address, value)
        if ir.writeback and not (ir.load and ir.rd == ir.rn):
            self.cpu.write_reg(ir.rn, updated_base)
        return pc_written

    def _exec_load_store_multiple(self, ir: isa.LoadStoreMultiple) -> bool:
        addresses = multiple_addresses(self.cpu, ir)
        count = len(ir.reglist)
        pc_written = False
        if ir.load:
            for register, address in zip(ir.reglist, addresses):
                value = self.memory.read_u32(address)
                if register == PC:
                    self._branch_to(value)
                    pc_written = True
                else:
                    self.cpu.write_reg(register, value)
        else:
            for register, address in zip(ir.reglist, addresses):
                self.memory.write_u32(address, self.cpu.read_reg(register))
        if ir.writeback and not (ir.load and ir.rn in ir.reglist):
            base = self.cpu.read_reg(ir.rn)
            delta = 4 * count if ir.increment else -4 * count
            self.cpu.write_reg(ir.rn, u32(base + delta))
        return pc_written

    # -- control flow -------------------------------------------------------------

    def _exec_branch(self, ir: isa.Branch) -> bool:
        pipeline = 4 if self.cpu.thumb else 8
        target = u32(self.cpu.pc + pipeline + ir.offset)
        if ir.link:
            return_address = u32(self.cpu.pc + ir.width)
            if self.cpu.thumb:
                return_address |= 1
            self.cpu.lr = return_address
        if ir.mnemonic == "blx" and self.cpu.thumb:
            # Thumb BLX immediate switches to ARM; target is word-aligned.
            self.cpu.thumb = False
            target &= ~3
        self.cpu.pc = target
        return True

    def _exec_branch_exchange(self, ir: isa.BranchExchange) -> bool:
        target = self.cpu.read_reg(ir.rm)
        if ir.link:
            return_address = u32(self.cpu.pc + ir.width)
            if self.cpu.thumb:
                return_address |= 1
            self.cpu.lr = return_address
        self.cpu.thumb = bool(target & 1)
        self.cpu.pc = target & ~1
        return True


def _add_with_flags(a: int, b: int, carry: int) -> Tuple[int, int, bool]:
    a, b = u32(a), u32(b)
    total = a + b + carry
    result = u32(total)
    carry_out = 1 if total > 0xFFFF_FFFF else 0
    overflow = ((a ^ result) & (b ^ result) & 0x8000_0000) != 0
    return result, carry_out, overflow


def _sub_with_flags(a: int, b: int, carry: int) -> Tuple[int, int, bool]:
    """a - b - (1 - carry); ARM's C flag is NOT-borrow."""
    a, b = u32(a), u32(b)
    total = a - b - (1 - carry)
    result = u32(total)
    carry_out = 1 if total >= 0 else 0
    overflow = ((a ^ b) & (a ^ result) & 0x8000_0000) != 0
    return result, carry_out, overflow
