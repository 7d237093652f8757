"""Per-method JNI trampolines: host-side parity and cache invalidation.

``dvmCallJNIMethod``'s argument marshalling is compiled once per
:class:`Method` into a ``_Trampoline``.  When nothing hooks the bridge
(TB engine on, no fault injector) the crossing runs host-side; these
tests pin down that, seen from Java, it is indistinguishable from the
guest protocol — reached with a no-op foreign hook on the bridge — down
to the provenance edges the crossing's Java caller records, and that the
cache is invalidated when bindings change.  NDroid's plan and the
platforms' generated crossings have their own differential test
(``test_crossing_plan_differential.py``).
"""

import pytest

from repro.common.taint import TAINT_CLEAR, TAINT_IMEI, TAINT_SMS
from repro.cpu.assembler import assemble
from repro.dalvik import ClassDef, DalvikVM, MethodBuilder
from repro.dalvik.heap import Slot
from repro.emulator import Emulator, HostContext
from repro.jni import JniLayer
from repro.kernel import Kernel
from repro.libc import CLibrary
from repro.observability import ProvenanceLedger

NATIVE_BASE = 0x6000_0000
STACK_TOP = 0x0800_0000


class Platform:
    def __init__(self):
        self.emu = Emulator()
        self.kernel = Kernel(self.emu.memory)
        self.kernel.spawn_process("com.example.app")
        self.emu.syscall_handler = self.kernel.handle_svc
        self.libc = CLibrary(self.emu, self.kernel)
        self.vm = DalvikVM(self.emu.memory)
        self.vm.ledger = ProvenanceLedger()
        self.jni = JniLayer(self.emu, self.vm)
        self.emu.cpu.sp = STACK_TOP

    def load_native(self, source, name="libtest.so"):
        program = assemble(source, base=NATIVE_BASE, externs=self.libc.symbols)
        self.emu.load(NATIVE_BASE, program.code)
        self.emu.memory_map.map(NATIVE_BASE, max(len(program.code), 0x1000),
                                name, third_party=True)
        return program

    def add_native_method(self, cls, name, shorty, program, symbol):
        method = cls.add_method(
            MethodBuilder(cls.name, name, shorty, static=True,
                          native=True).build())
        method.native_address = program.entry(symbol)
        return method


@pytest.fixture
def platform():
    p = Platform()
    cls = ClassDef("LTest;")
    p.vm.register_class(cls)
    program = p.load_native("""
    add_args:           ; r0=env, r1=jclass, r2=x, r3=y
        add r0, r2, r3
        bx lr
    const_seven:
        mov r0, #7
        bx lr
    """)
    p.method = p.add_native_method(cls, "addArgs", "III", program,
                                   "add_args")
    # callAdd(x, y) returns addArgs(x, y): a Java caller, so the ledger
    # records the crossing's arguments and its result's taint.
    caller = MethodBuilder("LTest;", "callAdd", "III", static=True,
                           registers=3)
    caller.invoke_static("LTest;->addArgs", 1, 2)
    caller.move_result(0)
    caller.ret(0)
    cls.add_method(caller.build())
    p.cls = cls
    p.program = program
    return p


def force_guest_protocol(platform, hits=None):
    """A foreign no-op hook on the bridge: every crossing after this takes
    the guest ``dvmCallJNIMethod`` protocol (the oracle)."""
    platform.emu.add_entry_hook(
        platform.jni.symbols["dvmCallJNIMethod"],
        lambda emu: hits.append(1) if hits is not None else None)


def cross(platform, args):
    """One crossing's Java-visible result, instruction count and the
    ledger edges its Java caller recorded."""
    vm, emu, ledger = platform.vm, platform.emu, platform.vm.ledger
    before, recorded = emu.instruction_count, len(ledger)
    result = vm.call_main("LTest;->callAdd", list(args))
    edges = [(edge.mechanism, edge.src.describe(), edge.dst.describe(),
              edge.tag) for edge in list(ledger)[recorded:]]
    return (result.value, result.taint, result.is_ref,
            emu.instruction_count - before, edges)


class TestFastSlowParity:
    def test_results_and_taints_agree(self, platform):
        """Same value, taint, instruction stream and ledger edges on the
        host-side path and the guest protocol."""
        jni = platform.jni
        cases = [
            [Slot(3), Slot(4)],
            [Slot(3, TAINT_IMEI), Slot(4)],
            [Slot(3, TAINT_IMEI), Slot(4, TAINT_SMS)],
        ]
        fast = [cross(platform, args) for args in cases]
        assert (jni.crossings_fast, jni.crossings_slow) == (3, 0)
        force_guest_protocol(platform)
        slow = [cross(platform, args) for args in cases]
        assert (jni.crossings_fast, jni.crossings_slow) == (3, 3)
        assert slow == fast
        assert slow[0][:2] == (7, TAINT_CLEAR)
        assert slow[1][1] == TAINT_IMEI
        assert slow[2][1] == TAINT_IMEI | TAINT_SMS
        assert slow[0][4] == []
        assert [(mechanism, tag) for mechanism, __, __, tag in slow[2][4]] \
            == [("dalvik:invoke", TAINT_IMEI), ("dalvik:invoke", TAINT_SMS),
                ("dalvik:move-result", TAINT_IMEI | TAINT_SMS)]

    def test_hooks_force_slow_path(self, platform):
        """A foreign hook on the bridge routes through dvmCallJNIMethod
        in the guest."""
        vm, jni = platform.vm, platform.jni
        bridge_hits = []
        force_guest_protocol(platform, bridge_hits)
        result = vm.call_main("LTest;->addArgs", [Slot(20), Slot(22)])
        assert result.value == 42
        assert bridge_hits == [1], "hooked run must take the guest bridge"
        assert (jni.crossings_fast, jni.crossings_slow) == (0, 1)

    def test_fast_path_skips_guest_bridge(self, platform):
        """Without a hook on the bridge the guest bridge never runs."""
        vm, jni = platform.vm, platform.jni
        result = vm.call_main("LTest;->addArgs", [Slot(20), Slot(22)])
        assert result.value == 42
        assert (jni.crossings_fast, jni.crossings_slow) == (1, 0)
        # The call plan is cached and keyed by the method.
        assert platform.method in jni._trampolines


class TestInvalidation:
    def _register_natives(self, platform, method_name, symbol):
        """Drive the real _env_RegisterNatives handler via guest memory."""
        jni, emu = platform.jni, platform.emu
        scratch = jni.chars_heap.alloc(64)
        name_ptr = scratch + 16
        emu.memory.write_cstring(name_ptr, method_name)
        emu.memory.write_words(scratch, [
            name_ptr, 0, platform.program.entry(symbol)])
        emu.cpu.regs[0] = jni.env_pointer()
        emu.cpu.regs[1] = jni.class_handle(platform.cls.name)
        emu.cpu.regs[2] = scratch
        emu.cpu.regs[3] = 1
        status = jni._env_RegisterNatives(HostContext(emu))
        jni.chars_heap.free(scratch)
        return status

    def test_register_natives_pops_cached_trampoline(self, platform):
        vm, jni = platform.vm, platform.jni
        assert vm.call_main("LTest;->addArgs",
                            [Slot(2), Slot(3)]).value == 5
        assert platform.method in jni._trampolines
        status = self._register_natives(platform, "addArgs", "const_seven")
        assert status == 0
        assert platform.method not in jni._trampolines
        assert vm.call_main("LTest;->addArgs",
                            [Slot(2), Slot(3)]).value == 7

    def test_stale_trampoline_still_follows_rebinding(self, platform):
        """Belt and braces: the closure re-reads native_address anyway."""
        vm = platform.vm
        assert vm.call_main("LTest;->addArgs",
                            [Slot(2), Slot(3)]).value == 5
        platform.method.native_address = platform.program.entry(
            "const_seven")
        assert vm.call_main("LTest;->addArgs",
                            [Slot(2), Slot(3)]).value == 7
