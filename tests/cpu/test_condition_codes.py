"""Exhaustive ARM condition-code tests.

The truth table below is the ARM Architecture Reference Manual's
condition table (A8.3) written out by hand for every NZCV combination,
so :func:`condition_passed` is checked against a reference it did not
compute.  One conditional ALU op per condition is then run through both
engines that consume the table: the single-step :meth:`Executor.execute`
and the translator's conditional micro-op.
"""

import pytest

from repro.cpu.arm_decoder import decode_arm
from repro.cpu.executor import Executor, condition_passed
from repro.cpu.isa import Cond
from repro.cpu.state import CpuState
from repro.emulator.translator import build_micro_op
from repro.memory import Memory

# Columns are the NZCV nibble 0000 .. 1111 (N is the high bit), grouped
# by N and Z; 1 means the condition passes.
TRUTH_TABLE = {
    #      NZ=00 NZ=01 NZ=10 NZ=11   (CV = 00 01 10 11 in each group)
    "EQ": "0000 1111 0000 1111",  # Z set
    "NE": "1111 0000 1111 0000",  # Z clear
    "CS": "0011 0011 0011 0011",  # C set
    "CC": "1100 1100 1100 1100",  # C clear
    "MI": "0000 0000 1111 1111",  # N set
    "PL": "1111 1111 0000 0000",  # N clear
    "VS": "0101 0101 0101 0101",  # V set
    "VC": "1010 1010 1010 1010",  # V clear
    "HI": "0011 0000 0011 0000",  # C set and Z clear
    "LS": "1100 1111 1100 1111",  # C clear or Z set
    "GE": "1010 1010 0101 0101",  # N == V
    "LT": "0101 0101 1010 1010",  # N != V
    "GT": "1010 0000 0101 0000",  # Z clear and N == V
    "LE": "0101 1111 1010 1111",  # Z set or N != V
    "AL": "1111 1111 1111 1111",  # always
}

CASES = [(name, nzcv, bits == "1")
         for name, row in TRUTH_TABLE.items()
         for nzcv, bits in enumerate(row.replace(" ", ""))]


def cpu_with_flags(nzcv: int) -> CpuState:
    cpu = CpuState()
    cpu.flag_n = bool(nzcv & 8)
    cpu.flag_z = bool(nzcv & 4)
    cpu.flag_c = bool(nzcv & 2)
    cpu.flag_v = bool(nzcv & 1)
    return cpu


def add_r0_imm1(cond: Cond):
    """``add<cond> r0, r0, #1`` (data-processing immediate, no S bit)."""
    return decode_arm((int(cond) << 28) | 0x0280_0001)


def test_table_covers_every_condition():
    assert set(TRUTH_TABLE) == {cond.name for cond in Cond}
    assert len(CASES) == 15 * 16


@pytest.mark.parametrize("name,nzcv,expected", CASES)
def test_condition_passed_matches_arm_arm(name, nzcv, expected):
    assert condition_passed(cpu_with_flags(nzcv), Cond[name]) is expected


@pytest.mark.parametrize("name", list(TRUTH_TABLE))
def test_conditional_alu_op_single_step_and_translated(name):
    ir = add_r0_imm1(Cond[name])
    assert ir.cond == Cond[name]
    for nzcv, bits in enumerate(TRUTH_TABLE[name].replace(" ", "")):
        expected = 42 if bits == "1" else 41
        memory = Memory()

        cpu = cpu_with_flags(nzcv)
        cpu.regs[0] = 41
        assert Executor(cpu, memory).execute(ir) is False
        assert cpu.regs[0] == expected, (name, nzcv, "single-step")

        cpu = cpu_with_flags(nzcv)
        cpu.regs[0] = 41
        op, specialised = build_micro_op(ir, 0x1000, False, cpu, memory,
                                         Executor(cpu, memory))
        assert specialised
        op()
        assert cpu.regs[0] == expected, (name, nzcv, "translated")
        # Flags are read, never written, by a condition check.
        assert cpu_with_flags(nzcv).cpsr() == cpu.cpsr()
