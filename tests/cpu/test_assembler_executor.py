"""End-to-end CPU tests: assemble ARM programs, run them, check results.

These exercise the assembler, decoder and executor together, which is how
the scenario apps use them.
"""

import pytest

from repro.common.errors import AssemblerError
from repro.cpu.assembler import assemble
from repro.emulator import EXIT_ADDRESS, Emulator

CODE_BASE = 0x0001_0000
STACK_TOP = 0x0800_0000


def run_asm(source, args=(), memory_setup=None):
    emu = Emulator()
    program = assemble(source, base=CODE_BASE)
    emu.load(CODE_BASE, program.code)
    emu.cpu.sp = STACK_TOP
    if memory_setup:
        memory_setup(emu.memory)
    result = emu.call(program.entry("main"), args=args)
    return result, emu


class TestDataProcessing:
    def test_mov_immediate(self):
        result, _ = run_asm("main: mov r0, #42\n bx lr")
        assert result == 42

    def test_add_registers(self):
        result, _ = run_asm("main: add r0, r0, r1\n bx lr", args=(3, 4))
        assert result == 7

    def test_add_two_operand_form(self):
        result, _ = run_asm("main: add r0, r1\n bx lr", args=(10, 5))
        assert result == 15

    def test_sub_and_rsb(self):
        result, _ = run_asm("main: sub r0, r0, r1\n bx lr", args=(10, 3))
        assert result == 7
        result, _ = run_asm("main: rsb r0, r0, r1\n bx lr", args=(3, 10))
        assert result == 7

    def test_logical_ops(self):
        result, _ = run_asm("main: and r0, r0, r1\n bx lr", args=(0xFC, 0x3F))
        assert result == 0x3C
        result, _ = run_asm("main: orr r0, r0, r1\n bx lr", args=(0xF0, 0x0F))
        assert result == 0xFF
        result, _ = run_asm("main: eor r0, r0, r1\n bx lr", args=(0xFF, 0x0F))
        assert result == 0xF0
        result, _ = run_asm("main: bic r0, r0, r1\n bx lr", args=(0xFF, 0x0F))
        assert result == 0xF0

    def test_mvn(self):
        result, _ = run_asm("main: mvn r0, #0\n bx lr")
        assert result == 0xFFFF_FFFF

    def test_shifted_operand(self):
        result, _ = run_asm("main: add r0, r1, r2, lsl #2\n bx lr",
                            args=(0, 100, 5))
        assert result == 120

    def test_register_shift(self):
        result, _ = run_asm("main: mov r0, r1, lsl r2\n bx lr",
                            args=(0, 1, 8))
        assert result == 256

    def test_lsr_alias(self):
        result, _ = run_asm("main: lsr r0, r0, #4\n bx lr", args=(0x100,))
        assert result == 0x10

    def test_asr_preserves_sign(self):
        result, _ = run_asm("main: asr r0, r0, #4\n bx lr",
                            args=(0x8000_0000,))
        assert result == 0xF800_0000

    def test_mov_wide_immediate_expansion(self):
        # 0x104 is not a modified immediate; assembler must still handle
        # common cases via complement flipping or reject with a clear error.
        result, _ = run_asm("main: mvn r0, #0xFF\n bx lr")
        assert result == 0xFFFF_FF00

    def test_movw_movt(self):
        result, _ = run_asm(
            "main:\n movw r0, #0x5678\n movt r0, #0x1234\n bx lr")
        assert result == 0x12345678

    def test_unencodable_immediate_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("main: orr r0, r0, #0x12345678\n bx lr")


class TestFlagsAndConditions:
    def test_subs_sets_zero_flag(self):
        source = """
        main:
            subs r0, r0, r1
            moveq r0, #99
            bx lr
        """
        result, _ = run_asm(source, args=(5, 5))
        assert result == 99

    def test_cmp_and_blt(self):
        source = """
        main:
            cmp r0, r1
            blt less
            mov r0, #0
            bx lr
        less:
            mov r0, #1
            bx lr
        """
        result, _ = run_asm(source, args=(3, 10))
        assert result == 1
        result, _ = run_asm(source, args=(10, 3))
        assert result == 0

    def test_unsigned_conditions(self):
        source = """
        main:
            cmp r0, r1
            movhi r0, #1
            movls r0, #0
            bx lr
        """
        result, _ = run_asm(source, args=(0xFFFF_FFFF, 1))
        assert result == 1
        result, _ = run_asm(source, args=(1, 0xFFFF_FFFF))
        assert result == 0

    def test_bls_is_a_conditional_branch_not_a_call(self):
        """``bls`` is B with LS, not BL with an S suffix."""
        from repro.cpu.isa import Cond
        program = assemble("main: bls main", base=CODE_BASE)
        word = int.from_bytes(program.code[:4], "little")
        assert word >> 28 == Cond.LS
        assert (word >> 24) & 0xF == 0b1010  # B, link bit clear
        source = """
        main:
            cmp r0, r1
            bls lower_or_same
            mov r0, #1
            bx lr
        lower_or_same:
            mov r0, #2
            bx lr
        """
        assert run_asm(source, args=(1, 1))[0] == 2
        assert run_asm(source, args=(1, 0xFFFF_FFFF))[0] == 2
        assert run_asm(source, args=(0xFFFF_FFFF, 1))[0] == 1

    def test_branch_mnemonics_keep_their_conditions(self):
        # (condition, link bit)
        cases = {"blt": (0xB, 0), "bleq": (0x0, 1), "bhi": (0x8, 0),
                 "blls": (0x9, 1), "bl": (0xE, 1), "b": (0xE, 0)}
        for mnemonic, expected in cases.items():
            program = assemble(f"main: {mnemonic} main", base=CODE_BASE)
            word = int.from_bytes(program.code[:4], "little")
            assert (word >> 28, (word >> 24) & 1) == expected, mnemonic

    def test_adds_carry_then_adc(self):
        source = """
        main:
            adds r0, r0, r1   ; produces carry
            mov r0, #0
            adc r0, r0, #0    ; r0 = carry
            bx lr
        """
        result, _ = run_asm(source, args=(0xFFFF_FFFF, 1))
        assert result == 1

    def test_overflow_flag(self):
        source = """
        main:
            adds r2, r0, r1
            movvs r0, #1
            movvc r0, #0
            bx lr
        """
        result, _ = run_asm(source, args=(0x7FFF_FFFF, 1))
        assert result == 1
        result, _ = run_asm(source, args=(1, 1))
        assert result == 0


class TestMultiply:
    def test_mul(self):
        result, _ = run_asm("main: mul r0, r0, r1\n bx lr", args=(6, 7))
        assert result == 42

    def test_mla(self):
        result, _ = run_asm("main: mla r0, r1, r2, r3\n bx lr",
                            args=(0, 6, 7, 100))
        assert result == 142

    def test_umull(self):
        source = """
        main:
            umull r2, r3, r0, r1
            mov r0, r3
            bx lr
        """
        result, _ = run_asm(source, args=(0xFFFF_FFFF, 2))
        assert result == 1  # high word of 0x1_FFFF_FFFE

    def test_smull_negative(self):
        source = """
        main:
            smull r2, r3, r0, r1
            mov r0, r3
            bx lr
        """
        result, _ = run_asm(source, args=(0xFFFF_FFFF, 5))  # -1 * 5
        assert result == 0xFFFF_FFFF

    def test_clz(self):
        result, _ = run_asm("main: clz r0, r0\n bx lr", args=(0x0001_0000,))
        assert result == 15
        result, _ = run_asm("main: clz r0, r0\n bx lr", args=(0,))
        assert result == 32


class TestLoadStore:
    def test_word_roundtrip(self):
        source = """
        main:
            str r1, [r0]
            ldr r0, [r0]
            bx lr
        """
        result, _ = run_asm(source, args=(0x2000, 0xCAFEBABE))
        assert result == 0xCAFEBABE

    def test_byte_and_halfword(self):
        source = """
        main:
            strb r1, [r0]
            strh r2, [r0, #2]
            ldrb r3, [r0]
            ldrh r0, [r0, #2]
            add r0, r0, r3
            bx lr
        """
        result, _ = run_asm(source, args=(0x2000, 0x1FF, 0x1234))
        assert result == 0x1234 + 0xFF

    def test_signed_loads(self):
        def setup(memory):
            memory.write_u8(0x2000, 0x80)
            memory.write_u16(0x2002, 0x8000)

        source = """
        main:
            ldrsb r1, [r0]
            ldrsh r2, [r0, #2]
            add r0, r1, r2
            bx lr
        """
        result, _ = run_asm(source, args=(0x2000,), memory_setup=setup)
        assert result == (0xFFFF_FF80 + 0xFFFF_8000) & 0xFFFF_FFFF

    def test_preindex_writeback(self):
        source = """
        main:
            str r1, [r0, #4]!
            mov r0, r0
            bx lr
        """
        _, emu = run_asm(source, args=(0x2000, 7))
        assert emu.memory.read_u32(0x2004) == 7

    def test_postindex(self):
        source = """
        main:
            ldr r2, [r0], #4
            ldr r3, [r0]
            add r0, r2, r3
            bx lr
        """

        def setup(memory):
            memory.write_u32(0x2000, 10)
            memory.write_u32(0x2004, 20)

        result, _ = run_asm(source, args=(0x2000,), memory_setup=setup)
        assert result == 30

    def test_register_offset_scaled(self):
        def setup(memory):
            memory.write_u32(0x2008, 0x77)

        source = """
        main:
            ldr r0, [r0, r1, lsl #2]
            bx lr
        """
        result, _ = run_asm(source, args=(0x2000, 2), memory_setup=setup)
        assert result == 0x77

    def test_negative_offset(self):
        def setup(memory):
            memory.write_u32(0x1FFC, 0x55)

        result, _ = run_asm("main: ldr r0, [r0, #-4]\n bx lr",
                            args=(0x2000,), memory_setup=setup)
        assert result == 0x55

    def test_ldr_literal_pool(self):
        source = """
        main:
            ldr r0, =0xDEADBEEF
            bx lr
        """
        result, _ = run_asm(source)
        assert result == 0xDEADBEEF

    def test_ldr_label_address(self):
        source = """
        main:
            ldr r0, =message
            ldrb r0, [r0]
            bx lr
        message:
            .asciz "X"
        """
        result, _ = run_asm(source)
        assert result == ord("X")


class TestStackAndCalls:
    def test_push_pop(self):
        source = """
        main:
            push {r4, lr}
            mov r4, #11
            mov r0, r4
            pop {r4, pc}
        """
        result, _ = run_asm(source)
        assert result == 11

    def test_nested_call_with_bl(self):
        source = """
        main:
            push {lr}
            mov r0, #5
            bl double
            bl double
            pop {pc}
        double:
            add r0, r0, r0
            bx lr
        """
        result, _ = run_asm(source)
        assert result == 20

    def test_ldm_stm(self):
        source = """
        main:
            mov r1, #1
            mov r2, #2
            mov r3, #3
            stmia r0!, {r1, r2, r3}
            sub r0, r0, #12
            ldmia r0, {r4, r5, r6}
            add r0, r4, r5
            add r0, r0, r6
            bx lr
        """
        result, _ = run_asm(source, args=(0x3000,))
        assert result == 6

    def test_stmdb_ldmia_pair(self):
        source = """
        main:
            mov r1, #41
            stmdb sp!, {r1}
            ldmia sp!, {r0}
            bx lr
        """
        result, _ = run_asm(source)
        assert result == 41

    def test_loop_sums_array(self):
        source = """
        main:                   ; r0 = array, r1 = count
            mov r2, #0
        loop:
            cmp r1, #0
            beq done
            ldr r3, [r0], #4
            add r2, r2, r3
            sub r1, r1, #1
            b loop
        done:
            mov r0, r2
            bx lr
        """

        def setup(memory):
            memory.write_words(0x4000, [1, 2, 3, 4, 5])

        result, _ = run_asm(source, args=(0x4000, 5), memory_setup=setup)
        assert result == 15

    def test_stack_argument_passing(self):
        # Five arguments: the fifth arrives on the stack.
        source = """
        main:
            ldr r2, [sp]
            add r0, r0, r2
            bx lr
        """
        result, _ = run_asm(source, args=(1, 2, 3, 4, 50))
        assert result == 51


class TestDirectives:
    def test_word_and_byte_data(self):
        source = """
        main:
            ldr r0, =data
            ldr r1, [r0]
            ldrb r2, [r0, #4]
            add r0, r1, r2
            bx lr
        data:
            .word 0x100
            .byte 0x20
        """
        result, _ = run_asm(source)
        assert result == 0x120

    def test_align(self):
        program = assemble("""
        .byte 1
        .align 2
        aligned:
        .word 2
        """, base=0x100)
        assert program.symbols["aligned"] % 4 == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a:\n mov r0, #0\na:\n bx lr")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("main: frobnicate r0")

    def test_space_directive(self):
        program = assemble("buf: .space 16\nend_label: .word 0", base=0)
        assert program.symbols["end_label"] == 16
