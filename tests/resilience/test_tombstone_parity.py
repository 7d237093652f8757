"""Generated differential test: supervised tombstones on both engines.

The supervisor's watchdog and crash ring run inside the emulator, so a
supervised run stays on translation blocks.  The single-step engine
(``use_tb=False``) is the oracle: for generated ARM and Thumb loops —
bodies longer than ``MAX_BLOCK_OPS``, conditional exits, random
instruction budgets, an undecodable word, an unmapped load or an LDM
straddling a mapped and an unmapped page at a random offset, with and
without a taint-compiling tracer — both engines must
end in the same outcome with the same error, ``AnalysisTimeout`` pc,
instruction count, registers, taint shadow and ring contents.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.common.taint import TAINT_IMEI
from repro.core.instruction_tracer import InstructionTracer
from repro.core.taint_engine import TaintEngine
from repro.cpu.assembler import assemble
from repro.emulator import Emulator
from repro.emulator.emulator import MAX_BLOCK_OPS
from repro.memory.memory import Memory
from repro.resilience import Supervisor

CODE_BASE = 0x6000_0000
STACK_TOP = 0x0800_0000
UNMAPPED = 0x4000_0000   # strict memory: never written, so loads fault
# The last word of a page the straddling LDM writes first; the next page
# is never written, so the LDM's second word faults.
STRADDLE = 0x5000_0FFC

# Loop-body statements; r0-r5 are scratch, r6 holds an unmapped address,
# r7 counts iterations.  Each entry maps (a, b, imm) to source.
ARM_OPS = {
    "add": lambda a, b, imm: f"add r{a}, r{b}, #{imm}",
    "sub": lambda a, b, imm: f"sub r{a}, r{a}, #{imm}",
    "eor": lambda a, b, imm: f"eor r{a}, r{a}, r{b}",
    "mov": lambda a, b, imm: f"mov r{a}, #{imm}",
    "addne": lambda a, b, imm: f"addne r{a}, r{a}, #{imm}",
    "moveq": lambda a, b, imm: f"moveq r{a}, r{b}",
    "exit": lambda a, b, imm: f"cmp r{a}, #{imm}\n    beq out",
}
THUMB_OPS = {
    "add": lambda a, b, imm: f"add r{a}, #{imm}",
    "sub": lambda a, b, imm: f"sub r{a}, #{imm}",
    "eor": lambda a, b, imm: f"eor r{a}, r{b}",
    "orr": lambda a, b, imm: f"orr r{a}, r{b}",
    "mov": lambda a, b, imm: f"mov r{a}, #{imm}",
    "exit": lambda a, b, imm: f"cmp r{a}, #{imm}\n    beq out",
}
FAULTS = {
    "none": lambda thumb: None,
    "load": lambda thumb: "ldr r3, [r6]",
    "straddle": lambda thumb: "\n    ".join([
        f"ldr r4, ={STRADDLE:#x}", "str r7, [r4]",
        "ldmia r4!, {r1, r2}" if thumb else "ldmia r4, {r1, r2}"]),
    "undecodable": lambda thumb: (".hword 0xde00" if thumb
                                  else ".word 0xf7f0f0f0"),
}


def _program(thumb, body, iterations, fault, fault_at):
    lines = [f"    {line}" for line in body]
    statement = FAULTS[fault](thumb)
    if statement is not None:
        lines.insert(min(fault_at, len(lines)), f"    {statement}")
    return "\n".join([
        ".thumb" if thumb else ".arm",
        "main:",
        f"    mov r7, #{iterations}",
        f"    ldr r6, ={UNMAPPED:#x}",
        "loop:",
        *lines,
        "    sub r7, #1" if thumb else "    subs r7, r7, #1",
        "    bne loop",
        "out:",
        "    bx lr",
    ])


class FaultyTracer(InstructionTracer):
    """Taint propagation that fails at one pc, on both engines: in the
    single-step callback and in the compiled taint micro-op."""

    def __init__(self, engine, is_third_party, fault_pc):
        super().__init__(engine, is_third_party)
        self.fault_pc = fault_pc

    def __call__(self, ir, emu):
        if emu.cpu.pc == self.fault_pc:
            raise ReproError("taint handler fault")
        super().__call__(ir, emu)

    def compile_taint_op(self, ir, pc, emu):
        op = super().compile_taint_op(ir, pc, emu)
        if pc != self.fault_pc or op is None:
            return op

        def failing():
            raise ReproError("taint handler fault")
        return failing


def _supervised(source, use_tb, budget, tainted, fault_pc=None):
    contexts = []

    def analysis(ctx):
        contexts.append(ctx)
        emu = Emulator(memory=Memory(strict=True), use_tb=use_tb)
        program = assemble(source, base=CODE_BASE)
        emu.load(CODE_BASE, program.code)
        emu.memory_map.map(CODE_BASE, 0x1000, "libgen.so",
                           third_party=True)
        emu.cpu.sp = STACK_TOP
        engine = TaintEngine()
        emu.add_tracer(FaultyTracer(engine, emu.memory_map.is_third_party,
                                    fault_pc))
        if tainted:
            engine.set_register(1, TAINT_IMEI)
        ctx.attach(SimpleNamespace(emu=emu, kernel=SimpleNamespace(),
                                   engine=engine))
        return emu.call(program.entry("main"))

    result = Supervisor(budget=budget, sleep=lambda delay: None).run(
        "generated", analysis)
    platform = contexts[-1].platform
    emu = platform.emu
    report = result.crash_report
    return {
        "status": result.status,
        "value": result.value,
        "error": result.error,
        "instruction_count": emu.instruction_count,
        "registers": list(emu.cpu.regs),
        "thumb": emu.cpu.thumb,
        "shadow": list(platform.engine.shadow_registers),
        "report": report.to_dict() if report is not None else None,
    }


@st.composite
def cases(draw):
    thumb = draw(st.booleans())
    table = THUMB_OPS if thumb else ARM_OPS
    raw = draw(st.lists(
        st.tuples(st.sampled_from(sorted(table)), st.integers(0, 5),
                  st.integers(0, 5), st.integers(0, 255)),
        min_size=1, max_size=MAX_BLOCK_OPS + 30))
    body = [table[name](a, b, imm) for name, a, b, imm in raw]
    iterations = draw(st.integers(1, 40))
    fault = draw(st.sampled_from(list(FAULTS)))
    fault_at = draw(st.integers(0, len(body)))
    budget = draw(st.integers(1, 4000))
    tainted = draw(st.booleans())
    return thumb, body, iterations, fault, fault_at, budget, tainted


def check(thumb, body, iterations, fault, fault_at, budget, tainted):
    source = _program(thumb, body, iterations, fault, fault_at)
    compiled = _supervised(source, True, budget, tainted)
    oracle = _supervised(source, False, budget, tainted)
    assert compiled == oracle, source


LONG_ARM = [f"add r{i % 6}, r{(i + 1) % 6}, #{i}"
            for i in range(MAX_BLOCK_OPS + 6)]
LONG_THUMB = [f"add r{i % 6}, #{i}" for i in range(MAX_BLOCK_OPS + 6)]


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(cases())
# The watchdog lands inside a body longer than one block.
@example((False, LONG_ARM, 30, "none", 0, 500, True))
@example((True, LONG_THUMB, 30, "none", 0, 777, False))
# Faults past the first block boundary, tainted and clean.
@example((False, LONG_ARM, 3, "load", MAX_BLOCK_OPS + 2, 100_000, True))
@example((False, LONG_ARM, 3, "undecodable", 40, 100_000, False))
@example((False, LONG_ARM, 3, "straddle", MAX_BLOCK_OPS + 2, 100_000, True))
@example((True, LONG_THUMB, 3, "straddle", 5, 100_000, False))
@example((True, LONG_THUMB, 3, "undecodable", MAX_BLOCK_OPS + 3, 100_000,
          True))
# A conditional exit taken on the first pass.
@example((False, ["mov r0, #9", "cmp r0, #9\n    beq out", "mov r1, #1"],
          5, "none", 0, 100_000, False))
def test_supervised_tombstones_match_single_step(case):
    check(*case)


def test_taint_op_fault_leaves_its_instruction_out_of_the_ring():
    """A propagation fault precedes execution: the faulting instruction
    is neither counted nor recorded, on either engine."""
    source = _program(False, LONG_ARM, 3, "none", 0)
    for index in (0, 1, 40, MAX_BLOCK_OPS - 1, MAX_BLOCK_OPS + 3):
        fault_pc = CODE_BASE + 8 + 4 * index   # past mov r7 / ldr r6
        compiled = _supervised(source, True, 100_000, True, fault_pc)
        assert compiled["status"] == "crashed"
        rows = compiled["report"]["last_instructions"]
        assert rows[-1]["pc"] == fault_pc - 4
        assert compiled["registers"][15] == fault_pc
        assert compiled == _supervised(source, False, 100_000, True,
                                       fault_pc), index
    # A terminator's own taint op (BL clears LR's taint).
    call = "main:\n mov r5, lr\n add r1, r1, #1\n bl leaf\n bx r5\n" \
           "leaf:\n bx lr\n"
    fault_pc = CODE_BASE + 8
    compiled = _supervised(call, True, 100_000, True, fault_pc)
    assert compiled["instruction_count"] == 2
    assert compiled == _supervised(call, False, 100_000, True, fault_pc)


def test_budget_timeout_is_exact_and_in_the_ring():
    """A runaway loop under blocks stops at the budget's instruction."""
    source = _program(False, LONG_ARM, 40, "none", 0)
    outcome = _supervised(source, True, 1000, False)
    assert outcome["status"] == "timeout"
    assert outcome["instruction_count"] == 1000
    rows = outcome["report"]["last_instructions"]
    assert len(rows) == 32
    assert rows[-1]["index"] == 1000
    assert rows[-1]["pc"] == outcome["registers"][15]
    assert [row["index"] for row in rows] == list(range(969, 1001))


NESTED = "\n".join([
    "main:",
    "    mov r4, #0",
    "outer:",
    "    bl helper",
    *[f"    add r{1 + i % 3}, r4, #{i}" for i in range(40)],
    "    b outer",
    "inner:",
    "    mov r0, #9",
    "spin:",
    "    subs r0, r0, #1",
    "    bne spin",
    "    bx lr",
])


def _nested(use_tb, budget):
    """A runaway loop whose host function runs guest code itself."""
    helper = CODE_BASE + 0x1_0000

    def analysis(ctx):
        emu = Emulator(use_tb=use_tb)
        program = assemble(NESTED, base=CODE_BASE,
                           externs={"helper": helper})
        emu.register_host_function(
            helper, "helper",
            lambda host: host.emu.call(program.entry("inner")))
        emu.load(CODE_BASE, program.code)
        emu.cpu.sp = STACK_TOP
        ctx.attach(SimpleNamespace(emu=emu, kernel=SimpleNamespace()))
        return emu.call(program.entry("main"))

    result = Supervisor(budget=budget, sleep=lambda delay: None).run(
        "nested", analysis)
    return result.status, result.crash_report.to_dict()


def test_watchdog_exact_across_nested_host_emulation():
    """Instructions run by a host function's nested emulation count
    toward the budget the enclosing block loop was sized with."""
    for budget in range(700, 760, 3):
        compiled = _nested(True, budget)
        assert compiled[0] == "timeout"
        assert compiled[1]["instruction_count"] == budget
        assert compiled == _nested(False, budget), budget
