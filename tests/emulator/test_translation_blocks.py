"""Translation-block engine: boundary semantics, invalidation, parity.

These tests pin the behaviours the TB engine must share with the
single-step interpreter: block endings (conditional branches, BX
interworking), host dispatch at block boundaries, ``stop()`` between
blocks, page-granular invalidation for self-modifying code, and full
differential equivalence between the two engines.
"""

import pytest

from repro.common.errors import DecodeError, EmulationError, MemoryError_
from repro.cpu.assembler import assemble
from repro.emulator import Emulator
from repro.memory.memory import Memory

CODE_BASE = 0x4000_0000


def make_emu(source: str, use_tb: bool = True, base: int = CODE_BASE,
             externs=None, strict: bool = False):
    emu = Emulator(memory=Memory(strict=strict), use_tb=use_tb)
    program = assemble(source, base=base, externs=externs or {})
    emu.load(base, program.code)
    emu.cpu.sp = 0x0800_0000
    return emu, program


# ---------------------------------------------------------------------------
# block formation and reuse

SUM_LOOP = """
main:
    mov r0, #0
    mov r1, #0
loop:
    cmp r1, #10
    bge done
    add r0, r0, r1
    add r1, r1, #1
    b loop
done:
    bx lr
"""


def test_blocks_translated_once_and_reused():
    emu, program = make_emu(SUM_LOOP)
    assert emu.call(program.entry("main")) == 45
    stats = emu.translation_stats()
    assert stats["blocks"] >= 2
    assert stats["invalidations"] == 0
    translations_after_first = stats["translations"]
    # A second call dispatches entirely from the cache.
    assert emu.call(program.entry("main")) == 45
    assert emu.translation_stats()["translations"] == translations_after_first


def test_conditional_branch_exercises_both_edges():
    # The loop takes the backward branch 10 times and falls through once,
    # so both the taken and fall-through successors of the cmp/bge block
    # are dispatched (and chained).
    for use_tb in (True, False):
        emu, program = make_emu(SUM_LOOP, use_tb=use_tb)
        assert emu.call(program.entry("main")) == 45
    # Chained successors exist on at least one block after the run.
    emu, program = make_emu(SUM_LOOP)
    emu.call(program.entry("main"))
    blocks = list(emu._tb_cache._blocks.values())
    assert any(tb.succ_taken is not None or tb.succ_fall is not None
               for tb in blocks)


def test_instruction_count_matches_single_step():
    emu_tb, program = make_emu(SUM_LOOP, use_tb=True)
    emu_ss, _ = make_emu(SUM_LOOP, use_tb=False)
    emu_tb.call(program.entry("main"))
    emu_ss.call(program.entry("main"))
    assert emu_tb.instruction_count == emu_ss.instruction_count


# ---------------------------------------------------------------------------
# Thumb/ARM interworking

INTERWORK = """
main:
    push {lr}
    ldr r1, =thumb_fn
    orr r1, r1, #1       ; interworking address: bit 0 selects Thumb
    mov r0, #5
    blx r1
    pop {pc}

.thumb
thumb_fn:
    add r0, r0, #7
    bx lr
"""


@pytest.mark.parametrize("use_tb", [True, False])
def test_bx_interworking_thumb_and_back(use_tb):
    emu, program = make_emu(INTERWORK, use_tb=use_tb)
    # The literal pool carries the thumb bit, so blx switches modes.
    assert emu.call(program.entry("main")) == 12
    assert not emu.cpu.thumb  # returned to ARM


def test_thumb_and_arm_blocks_keyed_separately():
    emu, program = make_emu(INTERWORK)
    emu.call(program.entry("main"))
    keys = set(emu._tb_cache._blocks)
    assert any(thumb for _, thumb in keys)
    assert any(not thumb for _, thumb in keys)


# ---------------------------------------------------------------------------
# host addresses

def test_host_function_called_from_translated_code():
    source = """
    main:
        push {lr}
        mov r0, #3
        bl helper
        add r0, r0, #1
        pop {pc}
    """
    emu = Emulator()
    helper_addr = CODE_BASE + 0x1_0000
    emu.register_host_function(helper_addr, "helper",
                               lambda ctx: ctx.arg(0) * 10)
    program = assemble(source, base=CODE_BASE,
                       externs={"helper": helper_addr})
    emu.load(CODE_BASE, program.code)
    emu.cpu.sp = 0x0800_0000
    assert emu.call(program.entry("main")) == 31
    assert emu.host_call_count == 1


def test_straight_line_flow_into_host_address_cuts_block():
    # Code laid out immediately before a host address: translation must
    # stop at the host boundary and dispatch it, not decode through it.
    source = """
    main:
        mov r0, #2
        add r0, r0, #3
    """
    emu = Emulator()
    program = assemble(source, base=CODE_BASE)
    host_addr = CODE_BASE + len(program.code)
    calls = []

    def host(ctx):
        calls.append(ctx.arg(0))
        ctx.emu.cpu.pc = ctx.emu.cpu.lr & ~1  # return manually
        return ctx.arg(0)

    emu.register_host_function(host_addr, "tail", host)
    emu.load(CODE_BASE, program.code)
    emu.cpu.sp = 0x0800_0000
    emu.call(program.entry("main"))
    assert calls == [5]


def test_late_host_registration_invalidates_translated_page():
    source = """
    main:
        mov r0, #1
        b second
    second:
        add r0, r0, #1
        bx lr
    """
    emu, program = make_emu(source)
    assert emu.call(program.entry("main")) == 2
    # Now claim `second`'s address as a host function: previously
    # translated blocks (and the chain into them) must not be reused.
    second = program.entry("second")
    emu.register_host_function(second, "second", lambda ctx: 99)
    assert emu.call(program.entry("main")) == 99


# ---------------------------------------------------------------------------
# stop() and mode switches between blocks

def test_stop_from_hook_interrupts_between_blocks():
    source = """
    main:
        mov r0, #0
    loop:
        add r0, r0, #1
        bl tick
        b loop
    tick:
        bx lr
    """
    emu, program = make_emu(source)
    seen = []

    def on_tick(e):
        seen.append(e.cpu.regs[0])
        if len(seen) >= 5:
            e.stop()

    emu.add_entry_hook(program.entry("tick"), on_tick)
    emu.call(program.entry("main"))
    assert seen == [1, 2, 3, 4, 5]


def test_tracer_attached_mid_run_switches_to_slow_path():
    source = """
    main:
        push {lr}
        mov r0, #0
    loop:
        add r0, r0, #1
        bl tick
        cmp r0, #20
        blt loop
        pop {pc}
    tick:
        bx lr
    """
    emu, program = make_emu(source)
    traced = []

    def tracer(ir, e):
        traced.append(ir.mnemonic)

    def attach_once(e):
        if not traced:
            e.add_tracer(tracer)

    emu.add_entry_hook(program.entry("tick"), attach_once)
    emu.call(program.entry("main"))
    # Once the hook attached the tracer, every later instruction went
    # through the per-instruction path.
    assert len(traced) > 50


def test_runaway_loop_still_raises_budget_error():
    emu, program = make_emu("main:\n    b main\n")
    with pytest.raises(EmulationError):
        emu.call(program.entry("main"), max_steps=1000)


# ---------------------------------------------------------------------------
# self-modifying code / invalidation

PATCHABLE = """
main:
    mov r0, #1
    bx lr
"""


@pytest.mark.parametrize("use_tb", [True, False])
def test_self_modifying_write_retranslates(use_tb):
    emu, program = make_emu(PATCHABLE, use_tb=use_tb)
    main = program.entry("main")
    assert emu.call(main) == 1
    # Overwrite `mov r0, #1` with `mov r0, #42` through emulated memory
    # (the same write path guest stores use).
    patch = int.from_bytes(assemble("mov r0, #42", base=0).code[:4],
                           "little")
    emu.memory.write_u32(main & ~1, patch)
    assert emu.call(main) == 42


@pytest.mark.parametrize("use_tb", [True, False])
def test_guest_store_into_code_retranslates(use_tb):
    # The guest itself patches `victim` then re-executes it.
    source = """
    main:
        push {lr}
        bl victim
        mov r4, r0
        ldr r1, =0xE3A0002A      ; mov r0, #42
        ldr r2, =victim
        str r1, [r2]
        bl victim
        add r0, r0, r4
        pop {pc}
    victim:
        mov r0, #1
        bx lr
    """
    emu, program = make_emu(source, use_tb=use_tb)
    assert emu.call(program.entry("main")) == 43


def test_data_write_sharing_code_page_does_not_invalidate():
    source = """
    main:
        mov r0, #0
        mov r1, #0
        ldr r4, =buffer
    loop:
        cmp r1, #50
        bge done
        str r1, [r4]
        ldr r2, [r4]
        add r0, r0, r2
        add r1, r1, #1
        b loop
    done:
        bx lr
    buffer:
        .space 16
    """
    emu, program = make_emu(source)
    assert emu.call(program.entry("main")) == 1225
    assert emu.translation_stats()["invalidations"] == 0


def test_load_over_code_retranslates_only_its_page():
    emu, program = make_emu(PATCHABLE)
    main = program.entry("main")
    other = CODE_BASE + 0x1000
    emu.load(other, assemble("f:\n    mov r0, #3\n    bx lr\n",
                             base=other).code)
    assert emu.call(main) == 1
    assert emu.call(other) == 3
    assert emu.translation_stats()["blocks"] == 2
    emu.load(CODE_BASE, assemble("main:\n    mov r0, #7\n    bx lr\n",
                                 base=CODE_BASE).code)
    # Only the overwritten page's block died.
    assert emu.translation_stats()["blocks"] == 1
    assert emu.translation_stats()["invalidations"] == 1
    assert emu.call(main) == 7
    assert emu.call(other) == 3


# ---------------------------------------------------------------------------
# differential equivalence

MIXED = """
main:
    push {r4, r5, r6, lr}
    mov r0, #0
    mov r1, #0
    ldr r4, =data
loop:
    cmp r1, #37
    bge done
    add r0, r0, r1
    eor r0, r0, r1, lsl #2
    and r2, r1, #7
    str r0, [r4, r2, lsl #2]
    ldr r3, [r4, r2, lsl #2]
    orr r0, r0, r3, lsr #1
    subs r5, r1, #18
    rsblt r5, r5, #0
    add r0, r0, r5
    mul r6, r1, r1
    add r0, r0, r6, asr #3
    add r1, r1, #1
    b loop
done:
    ldr r1, =thumb_leaf
    orr r1, r1, #1
    blx r1
    pop {r4, r5, r6, pc}

.thumb
thumb_leaf:
    add r0, #9
    bx lr

.arm
data:
    .space 64
"""


def test_engines_bitwise_agree_on_mixed_program():
    results = {}
    for use_tb in (True, False):
        emu, program = make_emu(MIXED, use_tb=use_tb)
        value = emu.call(program.entry("main"))
        results[use_tb] = (
            value,
            emu.instruction_count,
            list(emu.cpu.regs[:15]),
            emu.cpu.flag_n, emu.cpu.flag_z, emu.cpu.flag_c, emu.cpu.flag_v,
            emu.memory.read_bytes(program.entry("data") & ~1, 64),
        )
    assert results[True] == results[False]


# ---------------------------------------------------------------------------
# faults inside a block: raised where, and with the state, single-step has

def _fault_state(source, use_tb, error_type, strict=False):
    emu, program = make_emu(source, use_tb=use_tb, strict=strict)
    with pytest.raises(error_type) as caught:
        emu.call(program.entry("main"))
    return (str(caught.value), emu.instruction_count, emu.cpu.pc,
            list(emu.cpu.regs[:4]))


@pytest.mark.parametrize("use_tb", [True, False])
def test_undecodable_word_past_block_start_raises_on_arrival(use_tb):
    # Translation decodes ahead; the bad word must end the block instead
    # of failing it before the two moves ran.
    source = """
    main:
        mov r0, #1
        mov r1, #2
        .word 0xf7f0f0f0
    """
    message, count, pc, regs = _fault_state(source, use_tb, DecodeError)
    assert (count, pc, regs[:2]) == (2, CODE_BASE + 8, [1, 2])
    assert (message, count, pc, regs) == \
        _fault_state(source, False, DecodeError)


@pytest.mark.parametrize("use_tb", [True, False])
def test_mid_block_memory_fault_stops_on_the_faulting_instruction(use_tb):
    source = """
    main:
        mov r2, #0x30000000   ; never written: unmapped in strict memory
        mov r1, #2
        ldr r3, [r2]
        mov r0, #9
        bx lr
    """
    message, count, pc, regs = _fault_state(source, use_tb, MemoryError_,
                                            strict=True)
    assert (count, pc) == (2, CODE_BASE + 8)
    assert regs[0] == 0
    assert (message, count, pc, regs) == \
        _fault_state(source, False, MemoryError_, strict=True)


# ---------------------------------------------------------------------------
# word loads read their page inline; the edges go through Memory

WORD_LOADS = """
main:
    ldr r4, =0x20000FFC      ; the last word of a page
    ldr r5, =0x11223344
    str r5, [r4]
    ldr r5, =0x55667788
    str r5, [r4, #4]         ; the first word of the next page
    mov r6, #1
    ldr r0, [r4]             ; immediate offset
    ldr r1, [r4, #2]         ; straddles the two pages
    ldr r2, [r4, r6, lsl #2] ; register offset, onto the next page
    ldr r3, [r4, -r6, lsl #2]
    ldr r5, [r4, #-8]        ; mapped, never written
    ldr r7, =0x30000000
    ldr r7, [r7]             ; unmapped
    bx lr
"""


def test_word_loads_read_pages_inline_and_fall_back_at_the_edges():
    results = {}
    for use_tb in (True, False):
        emu, program = make_emu(WORD_LOADS, use_tb=use_tb)
        read_u32 = emu.memory.read_u32
        fallbacks = []

        def counted(address):
            if address >> 12 != CODE_BASE >> 12:     # not a fetch
                fallbacks.append(address)
            return read_u32(address)

        emu.memory.read_u32 = counted
        emu.call(program.entry("main"))
        results[use_tb] = (list(emu.cpu.regs[:8]), emu.instruction_count)
        if use_tb:
            # Only the straddling and the unmapped word call Memory.
            assert fallbacks == [0x2000_0FFE, 0x3000_0000]
    assert results[True] == results[False]
    assert results[True][0][:4] == [0x1122_3344, 0x7788_1122, 0x5566_7788,
                                    0]
    assert results[True][0][5] == results[True][0][7] == 0


@pytest.mark.parametrize("use_tb", [True, False])
@pytest.mark.parametrize("load", ["ldr r3, [r2, r1, lsl #2]",
                                  "ldr r3, [r2, #4]"])
def test_strict_unmapped_word_load_faults_like_single_step(use_tb, load):
    source = f"""
    main:
        mov r2, #0x30000000   ; never written: unmapped in strict memory
        mov r1, #2
        {load}
        mov r0, #9
        bx lr
    """
    message, count, pc, regs = _fault_state(source, use_tb, MemoryError_,
                                            strict=True)
    assert (count, pc, regs[0]) == (2, CODE_BASE + 8, 0)
    assert (message, count, pc, regs) == \
        _fault_state(source, False, MemoryError_, strict=True)
