"""Differential test: translated block exits vs the single-step engine.

The translation-block engine runs each block's terminator as a
translated closure in the block epilogue, dispatches calls into host
functions from there, and chains a host call's return to the calling
block's fall-through successor.  The single-step engine, which decodes
and executes one instruction at a time, is the oracle.  Hypothesis
generates ARM programs whose blocks end in every terminator form:

* B, BL and B<cond> (ARM and Thumb), conditional BL;
* Thumb BL and Thumb BLX-immediate into ARM code, the BLX sitting at
  either halfword of a word so its target alignment matters;
* BX/BLX register with interworking in both directions, returns
  through a Thumb LR;
* POP/LDM loading the PC, in ARM and Thumb;
* the executor-backed forms: ``mov pc, lr``, ``ldr pc``, SVC, a
  trailing BKPT and the Thumb-to-ARM ``bx pc`` veneer;
* calls into host functions that carry entry and exit hooks: returning
  to the caller's fall-through, to another address behind a
  conditional ``bx`` (so the fall-through block is chained too), into
  Thumb code at an ARM block's fall-through, to the fall-through in
  ARM or Thumb mode by turns, and through nested emulation.

Each program runs under a compiled ``InstructionTracer`` with random
register and memory taint seeds, a recording branch listener and a
crash ring, and with or without a supervisor instruction limit that
cuts the run part-way.  Compared: the outcome, registers, flags, the
Thumb bit, guest memory, shadow registers, the taint map,
``instruction_count``, ``host_call_count``, traced instructions, the
listener's ``(from, to)`` list, the hook and syscall order, and the
crash ring's rows.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.common.taint import TAINT_CONTACTS, TAINT_IMEI, TAINT_SMS
from repro.core.instruction_tracer import (InstructionRingBuffer,
                                           InstructionTracer)
from repro.core.taint_engine import TaintEngine
from repro.cpu import isa
from repro.cpu.assembler import assemble
from repro.cpu.executor import Executor
from repro.cpu.isa import Cond
from repro.cpu.state import CpuState
from repro.emulator import Emulator
from repro.emulator.emulator import MAX_BLOCK_OPS
from repro.emulator.translator import build_terminator
from repro.memory.memory import Memory

CODE_BASE = 0x4000_0000
CODE_SIZE = 0x4000
STACK_TOP = 0x0800_0000
HOST_BASE = 0x7000_0000
HOSTS = ("mix", "source", "nested")
LABELS = (TAINT_IMEI, TAINT_SMS, TAINT_CONTACTS)
BKPT = "0xE1200070"
# A word that is ``bx pc`` in Thumb (on to ARM at the next word) and
# ``andeq r4, r0, r8, ror r7`` in ARM: code either mode may return to.
EITHER_MODE = "0x00004778"
M32 = 0xFFFF_FFFF

WORK = st.integers(0, 7)
CONDS = st.sampled_from(["eq", "ne", "cs", "cc", "mi", "pl", "hi", "ls",
                         "ge", "lt", "gt", "le", "vs", "vc"])
MAYBE_COND = st.one_of(st.just(""), CONDS)


def host_address(name):
    return HOST_BASE + 16 * HOSTS.index(name)


# -- instruction generators ---------------------------------------------------

@st.composite
def arm_line(draw):
    """One ARM body instruction over r0-r7; memory through r9 only."""
    d, n, m, s = (draw(WORK) for __ in range(4))
    cond = draw(MAYBE_COND)
    flag = draw(st.sampled_from(["", "s"]))
    kind = draw(st.sampled_from(
        ["imm", "imm", "shift", "mov", "compare", "mul", "long", "load",
         "store", "multiple", "clz", "svc"]))
    if kind == "imm":
        op = draw(st.sampled_from(["add", "sub", "eor", "orr", "and",
                                   "bic", "rsb", "adc", "sbc"]))
        return f"{op}{cond}{flag} r{d}, r{n}, #{draw(st.integers(0, 255))}"
    if kind == "shift":
        op = draw(st.sampled_from(["add", "sub", "eor", "orr"]))
        shift = draw(st.sampled_from(["lsl", "lsr", "asr", "ror"]))
        return (f"{op}{cond}{flag} r{d}, r{n}, r{m}, {shift} "
                f"#{draw(st.integers(1, 31))}")
    if kind == "mov":
        return draw(st.sampled_from([
            f"mov{cond}{flag} r{d}, #{draw(st.integers(0, 255))}",
            f"mvn{cond} r{d}, r{m}", f"mov{cond} r{d}, r{m}, ror #7"]))
    if kind == "compare":
        op = draw(st.sampled_from(["cmp", "cmn", "tst", "teq"]))
        if draw(st.booleans()):
            return f"{op} r{n}, #{draw(st.integers(0, 255))}"
        return f"{op} r{n}, r{m}"
    if kind == "mul":
        return draw(st.sampled_from([f"mul r{d}, r{m}, r{s}",
                                     f"mla r{d}, r{m}, r{s}, r{n}"]))
    if kind == "long":
        high = (d + 1 + draw(st.integers(0, 6))) % 8
        op = draw(st.sampled_from(["umull", "smull", "umlal"]))
        return f"{op} r{d}, r{high}, r{m}, r{s}"
    offset = 4 * draw(st.integers(0, 15))
    if kind == "load":
        op = draw(st.sampled_from(["ldr", "ldrb"]))
        return f"{op}{cond} r{d}, [r9, #{offset}]"
    if kind == "store":
        op = draw(st.sampled_from(["str", "strb"]))
        return f"{op}{cond} r{d}, [r9, #{offset}]"
    if kind == "multiple":
        low, high = sorted(draw(st.sets(WORK, min_size=2, max_size=2)))
        op = draw(st.sampled_from(["ldmia", "stmia"]))
        return f"{op} r9, {{r{low}, r{high}}}"
    if kind == "clz":
        return f"clz r{d}, r{m}"
    return f"svc #{draw(st.integers(1, 9))}"


@st.composite
def thumb_line(draw):
    """One Thumb body instruction over r0-r7."""
    d, n, m = (draw(WORK) for __ in range(3))
    kind = draw(st.sampled_from(["imm8", "imm3", "reg3", "alu", "shift",
                                 "compare", "svc"]))
    if kind == "imm8":
        op = draw(st.sampled_from(["mov", "add", "sub"]))
        return f"{op} r{d}, #{draw(st.integers(0, 255))}"
    if kind == "imm3":
        op = draw(st.sampled_from(["add", "sub"]))
        return f"{op} r{d}, r{n}, #{draw(st.integers(0, 7))}"
    if kind == "reg3":
        return f"{draw(st.sampled_from(['add', 'sub']))} r{d}, r{n}, r{m}"
    if kind == "alu":
        op = draw(st.sampled_from(["and", "eor", "orr", "bic", "mvn", "adc",
                                   "sbc", "neg", "mul", "tst"]))
        return f"{op} r{d}, r{m}"
    if kind == "shift":
        op = draw(st.sampled_from(["lsl", "lsr", "asr"]))
        return f"{op} r{d}, r{m}, #{draw(st.integers(1, 31))}"
    if kind == "compare":
        return f"cmp r{n}, #{draw(st.integers(0, 255))}"
    return f"svc #{draw(st.integers(1, 9))}"


def arm_body(max_size=4):
    return st.lists(arm_line(), max_size=max_size)


def thumb_body(max_size=4):
    return st.lists(thumb_line(), max_size=max_size)


@st.composite
def thumb_call(draw):
    """What a Thumb subroutine calls: nothing, a Thumb leaf through BL, an
    ARM leaf through BLX-immediate, or a host function through BLX."""
    kind = draw(st.sampled_from(["none", "bl", "blx_imm", "host"]))
    if kind == "bl":
        return ("bl", draw(thumb_body()), draw(st.sampled_from(["pop",
                                                               "bx"])))
    if kind == "blx_imm":
        return ("blx_imm", draw(arm_body()), draw(st.integers(0, 1)))
    if kind == "host":
        return ("host", draw(st.sampled_from(HOSTS)))
    return ("none",)


@st.composite
def segment(draw):
    """One stretch of the main loop, ending in one block-exit form."""
    kind = draw(st.sampled_from(
        ["b", "bcond", "bl", "thumb", "host", "host_tail", "host_thumb",
         "host_either"]))
    body = draw(arm_body())
    if kind == "b":
        return ("b", body, draw(arm_line()))
    if kind == "bcond":
        return ("bcond", body, f"cmp r{draw(WORK)}, #{draw(st.integers(0, 9))}",
                draw(CONDS), draw(arm_body(2)))
    if kind == "bl":
        return ("bl", body, draw(MAYBE_COND), draw(arm_body()),
                draw(st.sampled_from(["bx", "pop", "ldm", "mov", "ldr"])),
                draw(st.booleans()))
    if kind == "thumb":
        return ("thumb", body, draw(thumb_body()), draw(thumb_call()),
                draw(st.one_of(st.none(), st.tuples(WORK, st.integers(0, 9),
                                                    CONDS))))
    if kind == "host":
        return ("host", body, draw(st.sampled_from(HOSTS)),
                draw(MAYBE_COND))
    if kind == "host_tail":
        return ("host_tail", body, draw(st.sampled_from(HOSTS)),
                f"tst r{draw(WORK)}, #{draw(st.sampled_from([1, 2, 4]))}",
                draw(CONDS), draw(arm_body(2)))
    if kind == "host_either":
        return ("host_either", body, draw(st.sampled_from(HOSTS)),
                f"tst r{draw(st.sampled_from([0, 8]))}, #1")
    return ("host_thumb", body, draw(st.sampled_from(HOSTS)),
            draw(thumb_body()))


@st.composite
def programs(draw):
    return {
        "segments": draw(st.lists(segment(), min_size=2, max_size=7)),
        "iterations": draw(st.integers(3, 12)),
        "args": draw(st.tuples(*[st.integers(0, M32)] * 4)),
        "register_taints": draw(st.lists(st.tuples(WORK,
                                                   st.sampled_from(LABELS)),
                                         max_size=3)),
        "memory_taints": draw(st.lists(st.tuples(st.integers(0, 15),
                                                 st.sampled_from(LABELS)),
                                       max_size=3)),
        "cut": draw(st.one_of(st.none(), st.floats(0.05, 0.95))),
        "bkpt": draw(st.sampled_from([False, False, False, True])),
    }


# -- rendering ------------------------------------------------------------------

def render(program, blx_words=None):
    """Assembly text for ``program``; ``blx_words`` maps each Thumb
    BLX-immediate site to its two encoded halfwords (a placeholder
    before the first assembly pass has laid out the labels)."""
    main = ["main:", "    push {r4-r11, lr}", "    ldr r9, =data",
            f"    mov r8, #{program['iterations']}", "outer:"]
    subs = []

    def lines(body):
        return [f"    {line}" for line in body]

    for i, seg in enumerate(program["segments"]):
        kind, body = seg[0], seg[1]
        main += lines(body)
        if kind == "b":
            main += [f"    b s{i}_next", f"    {seg[2]}", f"s{i}_next:"]
        elif kind == "bcond":
            __, __, compare, cond, fall = seg
            main += [f"    {compare}", f"    b{cond} s{i}_next", *lines(fall),
                     f"s{i}_next:"]
        elif kind == "bl":
            __, __, cond, sub_body, ret, __ = seg
            main += [f"    bl{cond} s{i}_sub"]
            enter, leave = {
                "bx": ([], ["bx lr"]),
                "pop": (["push {r4, lr}"], ["pop {r4, pc}"]),
                "ldm": (["push {r4, lr}"], ["ldmia sp!, {r4, pc}"]),
                "mov": ([], ["mov pc, lr"]),
                "ldr": (["str lr, [sp, #-4]!"], ["ldr pc, [sp], #4"]),
            }[ret]
            subs += [f"s{i}_sub:", *lines(enter + sub_body + leave)]
        elif kind == "thumb":
            __, __, tbody, call, skip = seg
            main += [f"    ldr ip, =s{i}_t+1", "    blx ip"]
            sub = [".thumb", f"s{i}_t:", "    push {r4, lr}", *lines(tbody)]
            if skip is not None:
                register, value, cond = skip
                sub += [f"    cmp r{register}, #{value}",
                        f"    b{cond} s{i}_skip", "    add r0, r0, #1",
                        f"s{i}_skip:"]
            if call[0] == "bl":
                __, leaf_body, leaf_ret = call
                sub += [f"    bl s{i}_tl"]
                leaf = ["    push {lr}", *lines(leaf_body), "    pop {pc}"] \
                    if leaf_ret == "pop" else [*lines(leaf_body), "    bx lr"]
            elif call[0] == "blx_imm":
                __, leaf_body, pad = call
                words = (blx_words or {}).get(i, (0xF000, 0xE800))
                sub += ["    nop"] * pad + [
                    f"s{i}_blx:", f"    .half {words[0]}, {words[1]}"]
            elif call[0] == "host":
                sub += [f"    ldr r3, ={host_address(call[1])}",
                        "    blx r3"]
            # Back to the ARM caller: LR has bit 0 clear.
            sub += ["    pop {r4}", "    pop {r3}", "    bx r3", "    .pool"]
            if call[0] == "bl":
                sub += [f"s{i}_tl:", *leaf]
            sub.append(".arm")
            if call[0] == "blx_imm":
                sub += [f"s{i}_al:", *lines(leaf_body), "    bx lr"]
            subs += sub
        elif kind == "host":
            __, __, host, cond = seg
            main += [f"    ldr ip, ={host_address(host)}", f"    blx{cond} ip"]
        elif kind == "host_tail":
            __, __, host, test, cond, fall = seg
            main += [f"    ldr lr, =s{i}_next",
                     f"    ldr ip, ={host_address(host)}", f"    {test}",
                     f"    bx{cond} ip", *lines(fall), f"s{i}_next:"]
        elif kind == "host_either":  # fall_pc, in the mode the test picks
            __, __, host, test = seg
            main += [f"    ldr lr, =s{i}_r", f"    {test}",
                     "    orrne lr, lr, #1",
                     f"    ldr ip, ={host_address(host)}", "    bx ip",
                     f"s{i}_r:", f"    .word {EITHER_MODE}"]
        else:  # host_thumb: the host returns into Thumb code at fall_pc
            __, __, host, tbody = seg
            main += [f"    ldr lr, =s{i}_r+1",
                     f"    ldr ip, ={host_address(host)}", "    bx ip",
                     ".thumb", f"s{i}_r:", *lines(tbody)]
            if len(tbody) % 2:
                main.append("    nop")  # `bx pc` must sit on a word
            main += ["    bx pc", "    nop", ".arm"]
    main += ["    subs r8, r8, #1", "    bne outer"]
    if program["bkpt"]:
        main.append(f"    .word {BKPT}")
    main += ["    pop {r4-r11, pc}", "    .pool"]
    tail = ["leaf:", "    add r0, r0, #7", "    bx lr",
            ".align 4", "data:", "    .space 64"]
    return "\n".join(main + subs + tail)


def thumb_blx(site, target):
    """The two halfwords of a Thumb BLX-immediate at ``site`` to the ARM
    address ``target``; the offset is from the word-aligned PC."""
    offset = target - ((site + 4) & ~3)
    return (0xF000 | ((offset >> 12) & 0x7FF),
            0xE800 | ((offset >> 1) & 0x7FF))


def assemble_program(program):
    layout = assemble(render(program), base=CODE_BASE)
    words = {i: thumb_blx(layout.address_of(f"s{i}_blx"),
                          layout.address_of(f"s{i}_al"))
             for i, seg in enumerate(program["segments"])
             if seg[0] == "thumb" and seg[3][0] == "blx_imm"}
    return assemble(render(program, words), base=CODE_BASE)


# -- running ------------------------------------------------------------------------

def run(program, code, use_tb, limit=None):
    emu = Emulator(use_tb=use_tb)
    emu.load(CODE_BASE, code.code)
    emu.memory_map.map(CODE_BASE, CODE_SIZE, "libgen.so", third_party=True)
    emu.cpu.sp = STACK_TOP
    engine = TaintEngine()
    tracer = InstructionTracer(engine, emu.memory_map.is_third_party)
    emu.add_tracer(tracer)
    for register, label in program["register_taints"]:
        engine.set_register(register, label)
    for word, label in program["memory_taints"]:
        engine.set_memory(code.address_of("data") + 4 * word, 4, label)

    log = []
    branches = []
    emu.add_branch_listener(lambda i_from, i_to, emu: branches.append(
        (i_from, i_to)))

    def syscall(number, emu):
        log.append(("svc", number, emu.cpu.regs[0]))
        emu.cpu.regs[0] = (emu.cpu.regs[0] + number) & M32
    emu.syscall_handler = syscall

    def mix(ctx):
        return ctx.arg(0) * 3 + ctx.arg(1)

    def source(ctx):
        engine.set_register(0, TAINT_SMS)
        return ctx.arg(0) ^ 0x5A

    def nested(ctx):
        return emu.call(code.entry("leaf"), args=(ctx.arg(0),)) + 1

    for name, function in zip(HOSTS, (mix, source, nested)):
        address = host_address(name)
        emu.register_host_function(address, name, function)
        hook(emu, address, name, log)
    for i, seg in enumerate(program["segments"]):
        if seg[0] == "bl" and seg[5]:
            hook(emu, code.address_of(f"s{i}_sub"), f"s{i}_sub", log)

    ring = InstructionRingBuffer()
    emu.set_supervision(limit, ring)
    try:
        outcome = ("ok", emu.call(code.entry("main"),
                                  args=program["args"]))
    except ReproError as error:
        outcome = (type(error).__name__, str(error))
    cpu = emu.cpu
    return {
        "outcome": outcome,
        "registers": list(cpu.regs),
        "flags": (cpu.flag_n, cpu.flag_z, cpu.flag_c, cpu.flag_v),
        "thumb": cpu.thumb,
        "memory": {index: bytes(page)
                   for index, page in emu.memory._pages.items()},
        "shadow": list(engine.shadow_registers),
        "taint": engine.memory_snapshot(),
        "instructions": emu.instruction_count,
        "host_calls": emu.host_call_count,
        "traced": tracer.traced_instructions,
        "branches": branches,
        "log": log,
        "ring": ring.snapshot(),
    }, emu


def hook(emu, address, name, log):
    emu.add_entry_hook(address, lambda emu: log.append(
        ("entry", name, emu.cpu.regs[0])))
    emu.add_exit_hook(address, lambda emu: log.append(
        ("exit", name, emu.cpu.regs[0])))


def check(program):
    code = assemble_program(program)
    full, __ = run(program, code, use_tb=False)
    limit = None
    if program["cut"] is not None:
        limit = max(1, int(full["instructions"] * program["cut"]))
    oracle, __ = run(program, code, use_tb=False, limit=limit)
    translated, emu = run(program, code, use_tb=True, limit=limit)
    assert translated == oracle
    if limit is None or limit > 2 * MAX_BLOCK_OPS:
        # The block engine really ran, also under the limit.
        assert emu.translation_stats()["translations"] > 0
    return oracle


def seg_host(host="mix", cond=""):
    return ("host", [], host, cond)


BASE = {"iterations": 3, "args": (5, 9, 0, 0), "register_taints": [],
        "memory_taints": [], "cut": None, "bkpt": False}
# Every terminator form once, looping three times.
EVERY_FORM = dict(BASE, segments=[
    ("b", ["add r0, r0, #1", "svc #3"], "mov r0, #0"),
    ("bcond", ["eor r1, r1, r0"], "cmp r0, #6", "lt", ["add r2, r2, #3"]),
    ("bl", ["mov r3, r0"], "", ["add r0, r0, r3"], "pop", True),
    ("bl", [], "ne", ["sub r1, r1, #1"], "ldm", False),
    ("bl", [], "", ["orr r2, r2, #8"], "mov", False),
    ("bl", [], "", ["eor r3, r3, r1"], "ldr", True),
    ("thumb", [], ["add r0, r0, #2"], ("bl", ["add r1, r1, #1"], "pop"),
     (0, 4, "gt")),
    ("thumb", [], ["mov r2, #3"], ("blx_imm", ["add r2, r2, r2"], 1), None),
    ("thumb", [], [], ("blx_imm", ["add r3, r3, #5"], 0), None),
    ("thumb", [], ["lsl r4, r0, #2"], ("bl", ["eor r5, r4"], "bx"), None),
    seg_host("mix"), seg_host("source", "cs"),
    ("host_tail", ["add r6, r6, #1"], "nested", "tst r6, #1", "ne",
     ["add r7, r7, #1"]),
    ("host_thumb", [], "mix", ["add r0, r0, #1"]),
    ("host_either", [], "mix", "tst r8, #1"),
])


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(programs())
@example(EVERY_FORM)
@example(dict(EVERY_FORM, register_taints=[(0, TAINT_IMEI)],
              memory_taints=[(2, TAINT_CONTACTS)], bkpt=True))
@example(dict(EVERY_FORM, cut=0.5))
@example(dict(EVERY_FORM, cut=0.8, iterations=4))
@example(dict(BASE, iterations=4, segments=[  # alternating host return
    ("host_tail", [], "mix", "tst r8, #1", "eq", ["add r7, r7, #1"])]))
@example(dict(BASE, iterations=4, segments=[  # the return mode alternates
    ("host_either", [], "mix", "tst r8, #1")]))
@example(dict(BASE, segments=[  # Thumb host call, chained in Thumb mode
    ("thumb", [], ["add r0, r0, #1"], ("host", "nested"), None)]))
def test_block_exits_match_single_step(program):
    check(program)


def test_every_form_exercises_hosts_and_interworking():
    """The fixed program reaches what the generator is meant to reach."""
    observed = check(EVERY_FORM)
    assert observed["outcome"][0] == "ok"
    entries = {name for kind, name, __ in observed["log"] if kind == "entry"}
    assert {"mix", "nested", "s2_sub", "s5_sub"} <= entries
    # The host returns into Thumb code and each Thumb BLX lands on ARM.
    code = assemble_program(EVERY_FORM)
    targets = {to for __, to in observed["branches"]}
    assert {code.address_of("s13_r"), code.address_of("s7_al"),
            code.address_of("s8_al")} <= targets


def test_host_return_chains_only_on_fall_through():
    """A host call returning to the block's fall-through chains there; a
    return elsewhere re-resolves and leaves the fall-through unlinked."""
    program = dict(BASE, segments=[
        seg_host("mix"),
        ("host_tail", [], "mix", "tst r0, #0", "", ["add r7, r7, #1"])])
    code = assemble_program(program)
    __, emu = run(program, code, use_tb=True)
    exits = {tb.term_ir.mnemonic: tb
             for tb in emu._tb_cache._blocks.values()
             if isinstance(tb.term_ir, isa.BranchExchange)}
    assert exits["blx"].succ_fall is not None
    assert exits["blx"].succ_fall.pc == exits["blx"].fall_pc
    assert exits["bx"].succ_fall is None


# -- the terminator builders ----------------------------------------------------

SPECIALISED = [
    ("b", isa.Branch(mnemonic="b", offset=16), False),
    ("bl", isa.Branch(mnemonic="bl", link=True, offset=-8), False),
    ("bne", isa.Branch(cond=Cond.NE, mnemonic="b", offset=4), True),
    ("thumb bl", isa.Branch(width=4, mnemonic="bl", link=True,
                            offset=64), True),
    ("thumb blx", isa.Branch(width=4, mnemonic="blx", link=True,
                             offset=62), True),
    ("bx", isa.BranchExchange(mnemonic="bx", rm=3), False),
    ("blx", isa.BranchExchange(mnemonic="blx", rm=14, link=True), True),
    ("pop", isa.LoadStoreMultiple(mnemonic="pop", rn=13,
                                  reglist=(4, 15)), False),
]
FALLBACK = [
    ("mov pc", isa.DataProcessing(mnemonic="mov", op=isa.Op.MOV, rd=15,
                                  operand2=isa.Operand2(rm=14))),
    ("ldr pc", isa.LoadStore(mnemonic="ldr", rd=15, rn=13)),
    ("svc", isa.SoftwareInterrupt(mnemonic="svc", imm=1)),
    ("bx pc", isa.BranchExchange(mnemonic="bx", rm=15)),
]


def machine(thumb, pc):
    cpu, memory = CpuState(), Memory()
    cpu.thumb = thumb
    cpu.regs[:] = [0x100 * i + 1 for i in range(15)] + [pc]
    cpu.regs[13] = 0x2000
    cpu.flag_z = True
    memory.write_words(0x2000, [0x4000_0101, 0x4000_0200])
    return cpu, memory


@pytest.mark.parametrize("name, ir, thumb", SPECIALISED,
                         ids=[name for name, *__ in SPECIALISED])
def test_terminator_forms_are_specialised(name, ir, thumb):
    """Each form gets a flat closure that matches the executor."""
    pc = 0x1002 if thumb else 0x1000
    cpu, memory = machine(thumb, pc)
    op, specialised = build_terminator(ir, pc, thumb, cpu, memory,
                                       Executor(cpu, memory))
    assert specialised
    oracle, oracle_memory = machine(thumb, pc)
    expected = Executor(oracle, oracle_memory).execute(ir)
    assert op() == expected
    assert (cpu.regs, cpu.thumb) == (oracle.regs, oracle.thumb)


@pytest.mark.parametrize("name, ir", FALLBACK,
                         ids=[name for name, __ in FALLBACK])
def test_other_terminators_run_through_the_executor(name, ir):
    cpu, memory = machine(False, 0x1000)
    __, specialised = build_terminator(ir, 0x1000, False, cpu, memory,
                                       Executor(cpu, memory))
    assert not specialised
