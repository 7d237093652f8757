"""Differential tests: taint-compiled translation blocks vs single-step.

The single-step engine is the oracle: for every scenario and market app
and for the clean→tainted variant-switch edge cases, running under
taint-compiled translation blocks must produce *identical* propagation
counts, shadow state, taint-map contents, ledger edge sequences, leak
reports and NDroid's counters (statistics, hook invocations, the DVM
and system-library hook counts).
"""

import pytest

from repro.bench.harness import make_platform
from repro.common.taint import TAINT_CLEAR, TAINT_IMEI, TAINT_SMS
from repro.core.instruction_tracer import InstructionTracer
from repro.core.multilevel import MultilevelHookManager
from repro.core.taint_engine import TaintEngine
from repro.cpu.assembler import assemble
from repro.emulator import Emulator
from repro.emulator.emulator import BranchWatch
from tests.core.ndroid_counters import TARGETS, counters, run_target

CODE_BASE = 0x6000_0000
LATE_BASE = 0x6100_0000
STACK_TOP = 0x0800_0000


def _run_app_state(target, use_tb):
    """Full observable end state of one scenario or market-app run."""
    platform = run_target(target, use_tb=use_tb)
    engine = platform.ndroid.taint_engine
    state = counters(platform)
    # Single-step crosses JNI through the guest bridge protocol (blocks
    # run NDroid's host-side crossing plan): its call into and return
    # from dvmCallJNIMethod are two more branch events per crossing.
    state["statistics"]["multilevel_checks"] -= \
        2 * platform.jni.crossings_slow
    state.update(shadow=list(engine.shadow_registers),
                 memory=engine.memory_snapshot())
    return state


@pytest.mark.parametrize(
    "target", [target for target in TARGETS if not target.startswith(
        "cfbench")], ids=lambda target: target.split(":", 1)[1])
def test_scenario_differential(target):
    single_step = _run_app_state(target, use_tb=False)
    compiled = _run_app_state(target, use_tb=True)
    assert compiled == single_step


class _Rig:
    """One tracer-attached emulator around a third-party snippet."""

    def __init__(self, source, use_tb, base=CODE_BASE):
        self.emu = Emulator(use_tb=use_tb)
        self.program = assemble("main:\n" + source + "\n bx lr", base=base)
        self.emu.load(base, self.program.code)
        self.emu.memory_map.map(base, 0x1000, "libapp.so",
                                third_party=True)
        self.emu.cpu.sp = STACK_TOP
        self.engine = TaintEngine()
        self.tracer = InstructionTracer(self.engine,
                                        self.emu.memory_map.is_third_party)
        self.emu.add_tracer(self.tracer)

    def call(self):
        self.emu.cpu.sp = STACK_TOP
        self.emu.call(self.program.entry("main"))

    def state(self):
        return {
            "propagation_count": self.engine.propagation_count,
            "traced": self.tracer.traced_instructions,
            "shadow": list(self.engine.shadow_registers),
            "memory": self.engine.memory_snapshot(),
        }


PROPAGATING = """
    mov r2, r1
    add r3, r2, r1
    str r3, [sp, #-4]!
    ldr r4, [sp], #4
    eor r5, r4, r2
"""


def _differential(source, drive):
    """Run ``drive(rig)`` under both engines; end states must agree."""
    states = []
    for use_tb in (False, True):
        rig = _Rig(source, use_tb)
        drive(rig)
        states.append(rig.state())
    assert states[0] == states[1]
    return states[0]


class TestVariantSwitch:
    def test_clean_then_tainted_reuses_the_same_block(self):
        # First run is clean (taint ops elided); seeding taint afterwards
        # must switch the cached block to its tainted variant with no
        # retranslation — both variants come from one translation pass.
        rig = _Rig(PROPAGATING, use_tb=True)
        rig.call()
        assert rig.engine.propagation_count == 0
        assert rig.tracer.traced_instructions > 0
        translations = rig.emu.translation_stats()["translations"]
        rig.engine.set_register(1, TAINT_IMEI)
        rig.call()
        assert rig.emu.translation_stats()["translations"] == translations
        assert rig.engine.get_register(5) == TAINT_IMEI

    def test_clean_then_tainted_matches_single_step(self):
        def drive(rig):
            rig.call()
            rig.engine.set_register(1, TAINT_IMEI)
            rig.call()
        end = _differential(PROPAGATING, drive)
        assert end["shadow"][5] == TAINT_IMEI
        assert end["propagation_count"] > 0

    def test_mid_block_first_taint_transition(self):
        # The first taint arrives from a host function spliced into the
        # middle of a straight-line run: the instructions before the call
        # execute clean, the ones after must propagate — under both
        # engines identically.
        source = """
    push {lr}
    mov r2, r1
    bl host_source
    mov r3, r1
    add r4, r3, r2
    pop {pc}
        """
        states = []
        for use_tb in (False, True):
            emu = Emulator(use_tb=use_tb)
            engine = TaintEngine()

            def host_source(ctx):
                engine.set_register(1, TAINT_SMS)
            emu.register_host_function(LATE_BASE, "host_source",
                                       host_source)
            program = assemble("main:\n" + source + "\n bx lr",
                               base=CODE_BASE,
                               externs={"host_source": LATE_BASE})
            emu.load(CODE_BASE, program.code)
            emu.memory_map.map(CODE_BASE, 0x1000, "libapp.so",
                               third_party=True)
            emu.cpu.sp = STACK_TOP
            tracer = InstructionTracer(engine,
                                       emu.memory_map.is_third_party)
            emu.add_tracer(tracer)
            emu.call(program.entry("main"))
            states.append({
                "propagation_count": engine.propagation_count,
                "traced": tracer.traced_instructions,
                "shadow": list(engine.shadow_registers),
            })
        assert states[0] == states[1]
        # r2 was copied before the source fired (clean); r3/r4 after.
        assert states[0]["shadow"][2] == TAINT_CLEAR
        assert states[0]["shadow"][3] == TAINT_SMS
        assert states[0]["shadow"][4] == TAINT_SMS

    def test_condition_failed_instruction_still_propagates(self):
        # The single-step tracer fires before the condition is evaluated,
        # so a failed conditional still moves taint (over-approximation);
        # the compiled taint op must be just as unconditional.
        source = """
    mov r0, #1
    cmp r0, #1
    movne r0, r1
    mov r6, r0
        """

        def drive(rig):
            rig.engine.set_register(1, TAINT_IMEI)
            rig.call()
        end = _differential(source, drive)
        assert end["shadow"][0] == TAINT_IMEI  # despite movne not executing


class TestRegionChange:
    def test_library_loaded_after_tracing_starts_is_traced(self):
        # Regression: the tracer's page-granular region cache (and any
        # translated blocks baking in its decisions) must be invalidated
        # when a new library is mapped into a previously-looked-up range.
        snippet = assemble("f:\n mov r2, r1\n bx lr", base=LATE_BASE)
        for use_tb in (False, True):
            rig = _Rig("mov r2, r1", use_tb)
            rig.emu.load(LATE_BASE, snippet.code)
            rig.engine.set_register(1, TAINT_IMEI)
            # Not mapped yet: out of scope, nothing traced or propagated.
            rig.emu.call(snippet.entry("f"))
            assert rig.tracer.traced_instructions == 0
            assert rig.engine.get_register(2) == TAINT_CLEAR
            # The library "loads" (maps) into the already-cached range.
            rig.emu.memory_map.map(LATE_BASE, 0x1000, "liblate.so",
                                   third_party=True)
            rig.emu.call(snippet.entry("f"))
            assert rig.tracer.traced_instructions > 0, \
                f"use_tb={use_tb}: stale region decision survived a map"
            assert rig.engine.get_register(2) == TAINT_IMEI

    def test_unmap_also_invalidates(self):
        for use_tb in (False, True):
            rig = _Rig("mov r2, r1", use_tb)
            rig.engine.set_register(1, TAINT_IMEI)
            rig.call()
            traced = rig.tracer.traced_instructions
            assert traced > 0
            rig.emu.memory_map.unmap(CODE_BASE)
            rig.engine.set_register(2, TAINT_CLEAR)
            rig.call()
            assert rig.tracer.traced_instructions == traced, \
                f"use_tb={use_tb}: unmapped region still traced"
            assert rig.engine.get_register(2) == TAINT_CLEAR


class TestLedgerParity:
    def test_native_edge_sequences_match_including_multiply_long(self):
        # umlal exercises the accumulate case whose ledger record now
        # includes the rd_lo/rd_hi accumulator sources.
        source = """
    mov r2, #3
    mov r3, #4
    umlal r4, r5, r2, r3
    add r6, r4, r5
        """
        from repro.observability.ledger import ProvenanceLedger

        def edges(use_tb):
            rig = _Rig(source, use_tb)
            ledger = ProvenanceLedger()
            rig.tracer.ledger = ledger
            rig.engine.set_register(4, TAINT_SMS)   # tainted accumulator
            rig.engine.set_register(5, TAINT_IMEI)
            rig.call()
            return [edge.to_dict() for edge in ledger]

        step_edges = edges(False)
        tb_edges = edges(True)
        assert step_edges == tb_edges
        umlal = [e for e in step_edges if e["mechanism"] == "native:umlal"]
        # Two destinations (rd_lo, rd_hi), each recording both
        # accumulator-half sources: the r4 and r5 hops must be present.
        sources = {(e["src"]["base"], e["dst"]["base"]) for e in umlal}
        assert (4, 4) in sources and (5, 4) in sources
        assert (4, 5) in sources and (5, 5) in sources


STRING = 0x0005_0000


class TestModelledCallVariants:
    """A Table VI exit model runs its clean variant only if the entry
    captured clean arguments and no label is live at the exit."""

    def _platform(self, use_tb, name, between):
        """An NDroid platform with ``between(platform)`` run after the
        argument capture on ``name``'s entry, before its body."""
        platform = make_platform("ndroid", use_tb=use_tb, trace=True)
        platform.memory.write_cstring(STRING, "secret")
        platform.emu.add_entry_hook(platform.libc.address_of(name),
                                    lambda emu: between(platform))
        return platform

    def _state(self, platform):
        state = counters(platform)
        state["shadow"] = list(platform.ndroid.taint_engine.shadow_registers)
        return state

    def test_clean_entry_tainted_exit_runs_the_full_model(self):
        def taint_the_string(platform):
            platform.ndroid.taint_engine.set_memory(STRING, 7, TAINT_SMS)

        states = []
        for use_tb in (False, True):
            platform = self._platform(use_tb, "strlen", taint_the_string)
            assert not platform.ndroid.taint_engine.maybe_tainted
            assert platform.emu.call(platform.libc.address_of("strlen"),
                                     args=(STRING,)) == 6
            assert platform.ndroid.taint_engine.get_register(0) == \
                TAINT_SMS
            states.append(self._state(platform))
        assert states[0] == states[1]

    def test_tainted_entry_rearmed_exit_runs_the_full_model(self):
        def clear_and_rearm(platform):
            engine = platform.ndroid.taint_engine
            engine.clear_all_registers()
            assert engine.rearm_fast_path()

        states = []
        for use_tb in (False, True):
            platform = self._platform(use_tb, "strchr", clear_and_rearm)
            engine = platform.ndroid.taint_engine
            engine.set_register(0, TAINT_IMEI)
            platform.emu.call(platform.libc.address_of("strchr"),
                              args=(STRING, ord("c")))
            # The pointer taint captured at entry reaches the result,
            # though the engine was clean again at the exit.
            assert engine.get_register(0) == TAINT_IMEI
            states.append(self._state(platform))
        assert states[0] == states[1]


LOOP = """
    mov r0, #0
loop:
    add r0, r0, #1
    cmp r0, #3
    blt loop
    mov r1, r0
    b done
done:
"""


class TestLateBranchListener:
    """A listener added after its blocks were translated still sees
    their branches: an open one all of them, a watching one those that
    touch its addresses, with the rest counted into its watch."""

    def _run(self, use_tb):
        rig = _Rig(LOOP, use_tb)
        rig.call()                      # translate (and run) every block
        done = rig.program.entry("done")
        seen_all, seen_watched = [], []
        watching = lambda i_from, i_to, emu: seen_watched.append(
            (i_from, i_to))
        watching.branch_watch = BranchWatch()
        watching.branch_watch.addresses.add(done)
        rig.emu.add_branch_listener(watching)
        rig.emu.add_branch_listener(
            lambda i_from, i_to, emu: seen_all.append((i_from, i_to)))
        rig.call()
        return seen_all, seen_watched, watching.branch_watch.unseen, done

    def test_late_listeners_see_their_branches(self):
        seen_all, seen_watched, unseen, done = self._run(use_tb=True)
        assert (seen_all, seen_watched, unseen, done) == \
            self._run(use_tb=False)
        # The call into main, two loop back-edges, the branch to done
        # and the return from it (``done`` is the final ``bx lr``).
        assert len(seen_all) == 5
        assert seen_watched == [(i_from, i_to) for i_from, i_to in seen_all
                                if done in (i_from & ~1, i_to & ~1)]
        assert len(seen_watched) == 2
        assert unseen == len(seen_all) - len(seen_watched)


HOST = 0x4000_0000
CALLS_HOST = """
    push {lr}
    mov r0, #0
spin:
    add r0, r0, #1
    cmp r0, #3
    blt spin
    ldr r2, =0x40000000
    blx r2
    pop {pc}
"""


class TestSparedBranchCounts:
    """The branch events a watching listener is spared are counted as
    they happen: code running mid-run (a host function) reads an exact
    ``checks``, and a listener added mid-run counts only what follows."""

    def _run(self, use_tb):
        rig = _Rig(CALLS_HOST, use_tb)
        manager = MultilevelHookManager({"elsewhere": 0x7000_0000},
                                        lambda address: False)
        manager.add_chain(["elsewhere"])
        seen = []
        late = BranchWatch()
        readings = []

        def host(ctx):
            readings.append((manager.checks, len(seen)))
            late_listener = lambda i_from, i_to, emu: None
            late_listener.branch_watch = late
            ctx.emu.add_branch_listener(late_listener)
            return 0

        rig.emu.register_host_function(HOST, "host", host)
        rig.emu.add_branch_listener(manager)
        rig.emu.add_branch_listener(
            lambda i_from, i_to, emu: seen.append((i_from, i_to)))
        rig.call()
        return readings, len(seen), manager.checks, late.unseen

    def test_checks_are_exact_inside_a_host_function(self):
        readings, seen, checks, late = self._run(use_tb=True)
        assert (readings, seen, checks, late) == self._run(use_tb=False)
        # The call into main, two back-edges and the call into the host
        # function, all spared; then the host's return and main's.
        assert readings == [(4, 4)]
        assert checks == seen == 6
        assert late == 2
