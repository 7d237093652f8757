"""Table V — ARM/Thumb taint-propagation throughput.

Benchmarks the instruction tracer over a representative third-party loop
(data processing, loads/stores, load/store-multiple) on both engines.  The
TB engine is where "NDroid caches hot instructions and the corresponding
handlers": each block selects its handlers once, at translation time.  The
single-step engine re-selects the handler for every traced instruction.
"""

import pytest

from repro.core.instruction_tracer import InstructionTracer
from repro.core.taint_engine import TaintEngine
from repro.cpu.assembler import assemble
from repro.emulator import Emulator

CODE_BASE = 0x6000_0000

LOOP = """
main:
    push {r4, r5, lr}
    mov r0, #0
    mov r1, #0
    ldr r4, =buffer
loop:
    cmp r1, #400
    bge done
    add r0, r0, r1
    eor r0, r0, r1, lsl #2
    and r2, r1, #15
    str r0, [r4, r2, lsl #2]
    ldr r3, [r4, r2, lsl #2]
    add r0, r0, r3
    add r1, r1, #1
    b loop
done:
    pop {r4, r5, pc}
buffer:
    .space 64
"""


def build(use_tb):
    emu = Emulator(use_tb=use_tb)
    program = assemble(LOOP, base=CODE_BASE)
    emu.load(CODE_BASE, program.code)
    emu.memory_map.map(CODE_BASE, 0x1000, "libapp.so", third_party=True)
    emu.cpu.sp = 0x0800_0000
    engine = TaintEngine()
    tracer = InstructionTracer(engine,
                               is_third_party=emu.memory_map.is_third_party)
    emu.add_tracer(tracer)
    return emu, program, tracer


@pytest.mark.parametrize("use_tb", [True, False],
                         ids=["translated", "single-step"])
def test_benchmark_tracer(benchmark, count_calls, use_tb):
    emu, program, tracer = build(use_tb)
    translated = count_calls(tracer, "compile_taint_op")
    stepped = count_calls(tracer, "_select_handler")
    entry = program.entry("main")

    def run():
        emu.call(entry)

    benchmark.pedantic(run, rounds=5, iterations=1)
    traced = tracer.traced_instructions
    assert traced > 0
    if use_tb:
        # Over 90% of traced instructions ran on a handler their block
        # selected earlier.
        assert not stepped
        assert traced - len(translated) > traced * 0.9
    else:
        assert not translated
        assert len(stepped) == traced


def test_benchmark_untraced_baseline(benchmark):
    emu = Emulator()
    program = assemble(LOOP, base=CODE_BASE)
    emu.load(CODE_BASE, program.code)
    emu.cpu.sp = 0x0800_0000
    entry = program.entry("main")

    def run():
        emu.call(entry)

    benchmark.pedantic(run, rounds=5, iterations=1)
