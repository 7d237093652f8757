"""Differential test: page-granular invalidation vs empty caches.

A page's decoded instructions, translated blocks and the tracer's
third-party decision die by two paths only: a write over its decoded
bytes (the memory write watcher) and a map or unmap of a region
covering it (the memory map listener).  Hypothesis drives a bare
``Emulator`` with an ``InstructionTracer`` scoped by
``memory_map.is_third_party`` through 4-12 steps over two 1-3 page
slots, each of which starts with code loaded:

* map or unmap a slot with a random ``third_party`` flag — mapping a
  mapped slot re-maps the same range, possibly with the flag flipped;
* ``emu.load`` fresh code over a slot (its second half may sit on a
  later page of the slot);
* a store into the slot's decoded code, or into the data after it;
* a memory taint seed on that data;
* ``emu.call`` of the slot's code.

The oracle runs the same steps with the decode, block and region caches
emptied before every call.  Compared, on both the translation-block and
the single-step engine: each call's r0, traced and executed instruction
counts, and at the end the registers, guest memory, shadow registers,
taint map, ``traced_instructions`` and ``instruction_count``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.taint import TAINT_CONTACTS, TAINT_IMEI, TAINT_SMS
from repro.core.instruction_tracer import InstructionTracer
from repro.core.taint_engine import TaintEngine
from repro.cpu.assembler import assemble
from repro.emulator import Emulator

SLOT_BASE = 0x6000_0000
SLOT_STRIDE = 0x4000  # room for 3 pages and a gap
SLOTS = 2
STACK_TOP = 0x0800_0000
LABELS = (TAINT_IMEI, TAINT_SMS, TAINT_CONTACTS)


def slot_base(slot):
    return SLOT_BASE + slot * SLOT_STRIDE


def slot_code(slot, k, far):
    """Load two data words, combine them with ``k`` on page ``far`` of
    the slot, store the sum after them; the data follows the code."""
    padding = f"    .space {0x1000 * far}\n" if far else ""
    return assemble(f"""
f:
    ldr r1, =data
    ldr r2, [r1]
    ldr r3, [r1, #4]
    b far
    .pool
{padding}far:
    add r0, r2, #{k}
    add r0, r0, r3
    str r0, [r1, #8]
    bx lr
data:
    .word 3
    .word 5
    .word 0
""", base=slot_base(slot))


# Replacement words for the two patchable instructions.
PATCHES = {
    "far": lambda value: assemble(f"add r0, r2, #{value}", base=0).code,
    "f+8": lambda value: assemble(f"mov r3, #{value}", base=0).code,
}


class Rig:
    def __init__(self, use_tb, oracle):
        self.emu = Emulator(use_tb=use_tb)
        self.engine = TaintEngine()
        self.tracer = InstructionTracer(self.engine,
                                        self.emu.memory_map.is_third_party)
        self.emu.add_tracer(self.tracer)
        self.oracle = oracle
        self.mapped = {}
        self.programs = {}
        self.calls = []
        for slot in range(SLOTS):
            self.step(("load", slot, 0, 0))

    def empty_caches(self):
        emu = self.emu
        for page in list(emu._tb_cache.pages() | emu._decode_pages.keys()):
            emu.invalidate_page(page)
        self.tracer._region_cache.clear()

    def step(self, step):
        kind, slot = step[0], step[1]
        emu, program = self.emu, self.programs.get(slot)
        if kind == "map":
            __, __, pages, third_party = step
            if slot in self.mapped:
                emu.memory_map.unmap(slot_base(slot))
            emu.memory_map.map(slot_base(slot), pages << 12, f"lib{slot}.so",
                               third_party=third_party)
            self.mapped[slot] = third_party
        elif kind == "unmap":
            if self.mapped.pop(slot, None) is not None:
                emu.memory_map.unmap(slot_base(slot))
        elif kind == "load":
            __, __, k, far = step
            self.programs[slot] = program = slot_code(slot, k, far)
            emu.load(slot_base(slot), program.code)
        elif kind == "code":
            __, __, site, value = step
            address = program.symbols["far"] if site == "far" \
                else program.symbols["f"] + 8
            emu.memory.write_bytes(address, PATCHES[site](value))
        elif kind == "data":
            __, __, word, value = step
            emu.memory.write_u32(program.symbols["data"] + 4 * word, value)
        elif kind == "seed":
            __, __, word, label = step
            self.engine.set_memory(program.symbols["data"] + 4 * word, 4,
                                   label)
        elif kind == "call":
            if self.oracle:
                self.empty_caches()
            emu.cpu.sp = STACK_TOP
            result = emu.call(program.symbols["f"])
            self.calls.append((result, self.tracer.traced_instructions,
                               emu.instruction_count))

    def state(self):
        cpu, engine = self.emu.cpu, self.engine
        return {
            "calls": self.calls,
            "regs": list(cpu.regs),
            "flags": (cpu.flag_n, cpu.flag_z, cpu.flag_c, cpu.flag_v,
                      cpu.thumb),
            "memory": {index: bytes(page)
                       for index, page in self.emu.memory._pages.items()},
            "shadow": list(engine.shadow_registers),
            "taint": engine.memory_snapshot(),
            "traced": self.tracer.traced_instructions,
            "instructions": self.emu.instruction_count,
        }


slots = st.integers(0, SLOTS - 1)
CALL = st.tuples(st.just("call"), slots)
STEP = st.one_of(
    CALL,  # a third of the steps: a change shows only in a later call
    st.tuples(st.just("map"), slots, st.integers(1, 3), st.booleans()),
    st.tuples(st.just("unmap"), slots),
    st.tuples(st.just("load"), slots, st.integers(0, 255),
              st.integers(0, 2)),
    st.tuples(st.just("code"), slots, st.sampled_from(sorted(PATCHES)),
              st.integers(0, 255)),
    st.tuples(st.just("data"), slots, st.integers(0, 2),
              st.integers(0, 0xFFFF_FFFF)),
    st.tuples(st.just("seed"), slots, st.integers(0, 1),
              st.sampled_from(LABELS)),
    CALL, CALL,
)

# Traced, then the same range re-mapped as system code: the compiled
# taint ops and the tracer's decision for the page must both die.
FLIPPED = [("load", 0, 1, 0), ("map", 0, 1, True), ("seed", 0, 0, TAINT_IMEI),
           ("call", 0), ("map", 0, 1, False), ("data", 0, 2, 0),
           ("call", 0)]


@pytest.mark.parametrize("use_tb", [True, False], ids=["tb", "single-step"])
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(steps=st.lists(STEP, min_size=4, max_size=12))
@example(steps=FLIPPED)
@example(steps=[  # untraced first, then mapped third-party over 3 pages
    ("load", 1, 7, 2), ("seed", 1, 1, TAINT_SMS), ("call", 1),
    ("map", 1, 3, True), ("call", 1), ("unmap", 1), ("call", 1)])
@example(steps=[  # a store over decoded code, a store into data after it
    ("map", 0, 2, True), ("load", 0, 9, 1), ("call", 0),
    ("code", 0, "far", 200), ("data", 0, 0, 77), ("call", 0),
    ("code", 0, "f+8", 4), ("seed", 0, 0, TAINT_CONTACTS), ("call", 0)])
@example(steps=[  # fresh code loaded over translated code
    ("map", 0, 2, True), ("load", 0, 1, 1), ("call", 0),
    ("load", 0, 2, 0), ("call", 0), ("load", 0, 3, 1), ("call", 0)])
def test_page_invalidation_matches_empty_caches(use_tb, steps):
    subject, oracle = Rig(use_tb, oracle=False), Rig(use_tb, oracle=True)
    for step in steps:
        subject.step(step)
        oracle.step(step)
    assert subject.state() == oracle.state()
