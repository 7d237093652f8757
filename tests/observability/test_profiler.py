"""The exact profile: instructions retired per guest function.

The profile's counts must add up to the instructions retired while it
is attached, on the translated-block engine and on the single-step
engine, and attaching it must change neither what runs nor which
engine runs it.
"""

import pytest

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.bench.harness import engine_footing, make_platform
from repro.common.errors import MemoryError_
from repro.cpu.assembler import assemble
from repro.emulator.emulator import Emulator
from repro.memory.memory import Memory
from repro.observability.profiler import SymbolResolver, folded_lines

LOOP = """
main:
    mov r0, #0
    mov r1, #200
loop:
    add r0, r0, #1
    subs r1, r1, #1
    bne loop
    bx lr
"""

BASE = 0x6000_0000

# `repro run examples/ephone --trace`'s profile.folded: the one native
# method ePhone runs, and every host model it calls (credited none).
EPHONE_FOLDED = [
    "libasip.so;Java_com_vnet_asip_general_general_callregister 45",
    "libc.so;malloc 0",
    "libc.so;memcpy 0",
    "libc.so;sendto 0",
    "libc.so;socket 0",
    "libc.so;sprintf 0",
    "libc.so;strlen 0",
    "libdvm.so;GetStringUTFChars 0",
]


def _run_loop(profile=None, use_tb=True) -> Emulator:
    emu = Emulator(use_tb=use_tb)
    program = assemble(LOOP, base=BASE)
    emu.load(BASE, program.code)
    emu.memory_map.map(BASE, 0x1000, "libloop.so")
    emu.cpu.sp = 0x0800_0000
    if profile is not None:
        emu.profile = profile
    emu.call(program.entry("main"))
    return emu


def _profile_total(snapshot):
    return sum(value for key, value in snapshot.items()
               if key.startswith("profile."))


def test_profile_lands_in_the_loop():
    profile = {}
    emu = _run_loop(profile)
    assert emu.instruction_count > 500
    resolver = SymbolResolver()
    resolver.add_symbol(BASE, "libloop.so", "main")
    resolver.add_module(BASE, BASE + 0x1000, "libloop.so")
    assert resolver.fold(profile) == {
        "libloop.so;main": emu.instruction_count}


@pytest.mark.parametrize("use_tb", [True, False])
def test_loop_profile_sums_to_instructions_retired(use_tb):
    profile = {}
    emu = _run_loop(profile, use_tb=use_tb)
    assert sum(profile.values()) == emu.instruction_count
    assert (emu.translation_stats()["blocks"] > 0) == use_tb


@pytest.mark.parametrize("use_tb", [True, False])
def test_block_aborted_by_a_fault_credits_only_what_retired(use_tb):
    source = """
    main:
        mov r2, #0x30000000   ; never written: unmapped in strict memory
        mov r1, #2
        ldr r3, [r2]
        mov r0, #9
        bx lr
    """
    emu = Emulator(memory=Memory(strict=True), use_tb=use_tb)
    program = assemble(source, base=BASE)
    emu.load(BASE, program.code)
    emu.cpu.sp = 0x0800_0000
    emu.profile = profile = {}
    with pytest.raises(MemoryError_):
        emu.call(program.entry("main"))
    assert emu.instruction_count == 2
    assert sum(profile.values()) == 2


def test_profiler_attach_does_not_change_execution():
    plain = _run_loop(None)
    profiled = _run_loop({})
    assert plain.instruction_count == profiled.instruction_count
    assert plain.cpu.regs[0] == profiled.cpu.regs[0]
    # Attaching the profile must not force the single-step engine.
    assert profiled.runs_blocks
    assert profiled.translation_stats() == plain.translation_stats()


@pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
def test_traced_scenario_profile_sums_to_instructions(name):
    platform = make_platform("ndroid", trace=True)
    run_scenario(ALL_SCENARIOS[name](), platform)
    snapshot = platform.observability.snapshot()
    assert snapshot["emulator.instructions"] > 0
    assert _profile_total(snapshot) == snapshot["emulator.instructions"]


@pytest.mark.parametrize("config", ["ndroid", "droidscope"])
def test_single_step_scenario_profile_sums_to_instructions(config):
    # use_tb=False pins NDroid to the single-step engine; DroidScope-sim's
    # per-instruction tracer keeps it there anyway.
    platform = make_platform(config, use_tb=False, trace=True)
    run_scenario(ALL_SCENARIOS["case2"](), platform)
    assert not platform.emu.runs_blocks
    snapshot = platform.observability.snapshot()
    assert snapshot["emulator.instructions"] > 0
    assert _profile_total(snapshot) == snapshot["emulator.instructions"]


def test_attaching_the_profile_changes_neither_results_nor_engine():
    def run(profiled: bool):
        platform = make_platform("ndroid")
        if profiled:
            platform.emu.profile = {}
        run_scenario(ALL_SCENARIOS["qqphonebook"](), platform)
        leaks = [(r.sink, r.taint, r.destination, r.payload)
                 for r in platform.leaks.records]
        return (platform.observability.snapshot(), leaks,
                engine_footing(platform))

    plain, profiled = run(False), run(True)
    assert profiled == plain


def test_ephone_profile_is_golden():
    platform = make_platform("ndroid", trace=True)
    run_scenario(ALL_SCENARIOS["ephone"](), platform)
    assert folded_lines(platform.observability.snapshot()) == EPHONE_FOLDED


def test_resolver_falls_back_to_module_then_unknown():
    resolver = SymbolResolver()
    resolver.add_module(0x1000, 0x2000, "libx.so")
    # Module-relative: the frame does not depend on the load base.
    assert resolver.resolve(0x1800) == "libx.so;+0x800"
    assert resolver.resolve(0x9000) == "unknown;0x00009000"
    resolver.add_symbol(0x1001, "libx.so", "f")  # thumb bit masked
    assert resolver.resolve(0x1800) == "libx.so;f"


def test_write_folded():
    snapshot = {"emulator.instructions": 7, "profile.libx.so;f": 5,
                "profile.libc.so;strlen": 0, "profile.libx.so;+0x10": 2}
    assert folded_lines(snapshot) == ["libx.so;f 5", "libx.so;+0x10 2",
                                      "libc.so;strlen 0"]
