"""Differential tests: the host-side JNI crossing vs the guest protocol.

With nothing but a detector's crossing plan (or nothing at all) on the
bridge, ``JniLayer._call_bridge`` crosses host-side: it runs the
native call directly — under NDroid wrapped in the ``dvmCallJNIMethod``
entry and exit hooks' two halves (the plan) — instead of writing the
outs block and calling the bridge in the guest.  The oracle is the
byte-faithful guest protocol, reached here the way any other observer
reaches it: a no-op hook on the bridge.  Hypothesis drives both with
the same crossings, under NDroid and under the vanilla and TaintDroid
platforms, which install no plan:

* shorties of arity 0-8 over ``I``/``L`` (stack arguments from the fifth
  JNI argument on), static and instance methods, random taints;
* native bodies that sum a chosen subset of the arguments, or return a
  chosen object argument (so the return carries an iref taint);
* adversarial cases: ``RegisterNatives`` rebinding the method after the
  trampoline compiled, a body that ``ThrowNew``s, and (NDroid) a
  quarantined or faulting ``dvmCallJNIMethod.entry``.

Compared after every run: each crossing's return ``Slot`` (or pending
exception), the taint map, the iref shadow, shadow registers, the
conservative label, ledger edges, ``tainted_deliveries``, the hook
engine's stats, ``hook_invocations``, quarantined hooks, NDroid's
statistics (the NDroid-only items are absent on the other platforms),
the JNI chars heap, r0, r4-r12 and sp, instruction
counts and guest memory.

Excluded, because only the protocol produces them:

* the dead outs block below the DVM stack pointer, and the thread's
  ``pResult`` word, which the host-side crossing never writes;
* ``core.multilevel_checks``: the protocol's bridge call and return are
  two more branch events;
* the path counters (``crossings_fast``/``crossings_slow``, the
  emulator's host-call count);
* lr, pc and the dead native stack below sp: the native method runs one
  call level shallower on the host-side path, so it sees a different
  return sentinel;
* r1-r3 past the method's JNI arguments, which still hold the
  protocol's ``dvmCallJNIMethod`` arguments.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.apps.market import MARKET_APPS
from repro.bench.harness import make_platform
from repro.common.errors import ReproError
from repro.common.taint import (TAINT_CLEAR, TAINT_CONTACTS, TAINT_IMEI,
                                TAINT_SMS)
from repro.dalvik import ClassDef, MethodBuilder
from repro.dalvik.heap import Slot
from repro.dalvik.interpreter import PendingException
from repro.dalvik.stack import DVM_STACK_BASE, DVM_STACK_SIZE
from repro.framework import Apk
from repro.framework.android import NATIVE_STACK_SIZE, NATIVE_STACK_TOP
from repro.framework.monkey import MonkeyRunner
from repro.jni import jni_offset
from repro.jni.layer import THREAD_RETVAL_ADDRESS

CLASS = "Lcom/plan/Cross;"
EXCEPTION = "Ljava/lang/RuntimeException;"
LIBRARY = "libplan.so"
BOUND = "Java_com_plan_Cross_m"
REBOUND = "rebound"
LABELS = (TAINT_CLEAR, TAINT_IMEI, TAINT_SMS, TAINT_CONTACTS,
          TAINT_IMEI | TAINT_SMS)


def jni_positions(static, params):
    """JNI argument index of each Java argument: [env, this|jclass, ...]."""
    receiver = [] if static else [1]
    return receiver + [2 + index for index in range(len(params))]


def load(position, register, frame):
    """Instructions putting JNI argument ``position`` into ``register``."""
    if position < 4:
        return [f"    mov {register}, r{position}"]
    return [f"    ldr {register}, [sp, #{frame + 4 * (position - 4)}]"]


def native_body(symbol, body, throw):
    """A native method: sum arguments (``("sum", positions)``) or return
    one object argument (``("ref", position)``), optionally ThrowNew-ing."""
    frame = 12  # push {r4, r5, lr}
    lines = [f"{symbol}:", "    push {r4, r5, lr}", "    mov r4, r0",
             "    mov r5, #0"]
    kind, chosen = body
    if kind == "sum":
        for position in chosen:
            lines += load(position, "r0", frame)
            lines.append("    add r5, r5, r0")
    else:
        lines += load(chosen, "r5", frame)
    if throw:
        lines += [
            "    ldr ip, [r4]",
            f"    ldr ip, [ip, #{jni_offset('FindClass')}]",
            "    mov r0, r4",
            "    ldr r1, =exception_name",
            "    blx ip",
            "    mov r1, r0",
            "    ldr ip, [r4]",
            f"    ldr ip, [ip, #{jni_offset('ThrowNew')}]",
            "    mov r0, r4",
            "    ldr r2, =message",
            "    blx ip",
        ]
    lines += ["    mov r0, r5", "    pop {r4, r5, pc}"]
    return "\n".join(lines)


def build_apk(case):
    static, params, ret = case["static"], case["params"], case["ret"]
    shorty = ret + "".join(params)
    cls = ClassDef(CLASS)
    cls.add_method(MethodBuilder(CLASS, "m", shorty, static=static,
                                 native=True).build())
    source = "\n".join([
        native_body(BOUND, case["body"], case["throw"]),
        native_body(REBOUND, case["rebody"], False),
        "exception_name:", '    .asciz "java/lang/RuntimeException"',
        "message:", '    .asciz "plan"',
    ])
    return Apk(package="com.plan", classes=[cls, ClassDef(EXCEPTION)],
               native_libraries={LIBRARY: source})


def rebind(platform, program):
    """RegisterNatives(env, jclass, {"m", "", rebound}, 1), from the guest."""
    jni, emu = platform.jni, platform.emu
    block = platform.libc.heap.alloc(32)
    emu.memory.write_cstring(block + 16, "m")
    emu.memory.write_words(block, [block + 16, 0, program.entry(REBOUND)])
    status = emu.call(jni.symbols["RegisterNatives"],
                      args=(jni.env_pointer(), jni.class_handle(CLASS),
                            block, 1))
    assert status == 0


def run_case(case, oracle, config="ndroid"):
    platform = make_platform(config, trace=True)
    emu, vm, jni = platform.emu, platform.vm, platform.jni
    if oracle:
        emu.add_entry_hook(jni.symbols["dvmCallJNIMethod"],
                           lambda emu: None)
    apk = build_apk(case)
    platform.install(apk)
    program = platform.load_library(LIBRARY)
    method = vm.resolve_method(f"{CLASS}->m")
    if case["entry"] == "quarantined":
        platform.ndroid.quarantined_hooks.add("dvmCallJNIMethod.entry")
    elif case["entry"] == "faulting":
        dvm = platform.ndroid.dvm_hooks
        put = dvm.source_policies.put
        calls = []

        def faulting_put(policy):
            calls.append(policy)
            if len(calls) == 1:
                raise ReproError("injected SourcePolicy fault")
            put(policy)

        dvm.source_policies.put = faulting_put

    outcomes = []
    for index, call in enumerate(case["calls"]):
        if index and case["rebind_after"] == index - 1:
            rebind(platform, program)
        args = []
        if not case["static"]:
            receiver = vm.new_instance(CLASS)
            args.append(Slot(receiver.address, call[0], True))
        for char, value, taint in zip(case["params"], call[1:],
                                      call[1 + len(case["params"]):]):
            if char == "L":
                text = vm.heap.alloc_string(f"s{value}")
                args.append(Slot(text.address, taint, True))
            else:
                args.append(Slot(value, taint))
        try:
            result = vm.invoke(method, args)
            outcomes.append(("ok", result.value, result.taint,
                             result.is_ref))
        except PendingException as pending:
            outcomes.append(("throw", pending.class_name, pending.taint))
    calls = len(case["calls"])
    if oracle:
        assert (jni.crossings_fast, jni.crossings_slow) == (0, calls)
    else:
        assert (jni.crossings_fast, jni.crossings_slow) == (calls, 0)
    return observe(platform, outcomes)


def masked_memory(platform):
    """Guest memory with the protocol-only regions (module doc) zeroed."""
    dead = [(DVM_STACK_BASE - DVM_STACK_SIZE,
             platform.vm.stack._stack_pointer),
            (THREAD_RETVAL_ADDRESS, THREAD_RETVAL_ADDRESS + 8),
            (NATIVE_STACK_TOP - NATIVE_STACK_SIZE, platform.emu.cpu.sp)]
    pages = {}
    for index, page in platform.memory._pages.items():
        data = bytearray(page)
        base = index << 12
        for low, high in dead:
            low, high = max(low, base), min(high, base + len(data))
            if low < high:
                data[low - base:high - base] = bytes(high - low)
        if any(data):
            pages[index] = bytes(data)
    return pages


def observe(platform, outcomes):
    heap = platform.jni.chars_heap
    observed = {
        "outcomes": outcomes,
        "ledger": [(edge.tag, edge.mechanism, edge.src.describe(),
                    edge.dst.describe(), edge.location)
                   for edge in platform.observability.ledger],
        "chars_heap": ([(block.start, block.size) for block in heap._free],
                       dict(heap._live)),
        "registers": [platform.emu.cpu.regs[0],
                      *platform.emu.cpu.regs[4:13], platform.emu.cpu.sp],
        "instructions": platform.emu.instruction_count,
        "memory": masked_memory(platform),
    }
    ndroid = platform.ndroid
    if ndroid is None:
        return observed
    engine = ndroid.taint_engine
    dvm = ndroid.dvm_hooks
    statistics = ndroid.statistics()
    del statistics["multilevel_checks"]
    observed.update({
        "memory_taints": engine.memory_snapshot(),
        "iref_taints": dict(engine._iref_taints),
        "shadow_registers": list(engine.shadow_registers),
        "conservative_label": engine.conservative_label,
        "tainted_deliveries": list(dvm.tainted_deliveries),
        "dvm_stats": dict(dvm.stats),
        "hook_invocations": dict(ndroid.hook_invocations),
        "quarantined_hooks": sorted(ndroid.quarantined_hooks),
        "statistics": statistics,
    })
    return observed


@st.composite
def cases(draw, entries=("hooked", "quarantined", "faulting")):
    static = draw(st.booleans())
    params = draw(st.lists(st.sampled_from("IL"), max_size=8))
    positions = jni_positions(static, params)
    refs = [position for position, char in
            zip(positions, ("" if static else "L") + "".join(params))
            if char == "L"]
    ret = draw(st.sampled_from("IL")) if refs else "I"

    def body():
        if ret == "L":
            return ("ref", draw(st.sampled_from(refs)))
        return ("sum", draw(st.lists(st.sampled_from(positions),
                                     unique=True) if positions
                            else st.just([])))

    calls = draw(st.lists(
        st.tuples(st.sampled_from(LABELS),
                  *[st.integers(0, 1000)] * len(params),
                  *[st.sampled_from(LABELS)] * len(params)),
        min_size=1, max_size=3))
    return {
        "static": static, "params": params, "ret": ret,
        "body": body(), "rebody": body(),
        "throw": draw(st.booleans()),
        "calls": calls,
        "rebind_after": draw(st.sampled_from(
            [None] + list(range(len(calls) - 1)))),
        "entry": draw(st.sampled_from(entries)),
    }


def call(receiver_taint, values, taints):
    return (receiver_taint, *values, *taints)


# Eight parameters: five of them on the stack, tainted ones among them.
EIGHT = {
    "static": True, "params": list("IILIIIIL"), "ret": "I",
    "body": ("sum", [2, 5, 6, 8]), "rebody": ("sum", [9]), "throw": False,
    "calls": [call(0, range(8), [0, TAINT_IMEI, 0, 0, TAINT_SMS, 0,
                                 TAINT_CONTACTS, 0])],
    "rebind_after": None, "entry": "hooked",
}


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(cases())
@example(EIGHT)
@example({  # an object return from the stack carries its iref taint
    "static": False, "params": list("IIIL"), "ret": "L",
    "body": ("ref", 5), "rebody": ("ref", 1), "throw": False,
    "calls": [call(TAINT_SMS, [1, 2, 3, 4], [0, 0, 0, TAINT_IMEI]),
              call(0, [5, 6, 7, 8], [TAINT_CONTACTS, 0, 0, 0])],
    "rebind_after": 0, "entry": "hooked",
})
@example({  # RegisterNatives rebinds after the plan compiled
    "static": True, "params": list("II"), "ret": "I",
    "body": ("sum", [2]), "rebody": ("sum", [3]), "throw": False,
    "calls": [call(0, [1, 2], [TAINT_IMEI, TAINT_SMS])] * 3,
    "rebind_after": 0, "entry": "hooked",
})
@example({  # a tainted crossing that ThrowNews
    "static": False, "params": list("L"), "ret": "L",
    "body": ("ref", 2), "rebody": ("ref", 1), "throw": True,
    "calls": [call(TAINT_IMEI, [3], [TAINT_SMS])] * 2,
    "rebind_after": None, "entry": "hooked",
})
@example(dict(EIGHT, entry="quarantined"))
@example(dict(EIGHT, entry="faulting",
              calls=EIGHT["calls"] * 2))
def test_plan_matches_guest_protocol(case):
    assert run_case(case, oracle=False) == run_case(case, oracle=True)


# The platforms that install no crossing plan: their host-side crossing
# is the bridge's body alone.
@pytest.mark.parametrize("config", ["vanilla", "taintdroid"])
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(case=cases(entries=("hooked",)))
@example(case=EIGHT)
@example(case={  # an object return, rebound after the first crossing
    "static": False, "params": list("IIIL"), "ret": "L",
    "body": ("ref", 5), "rebody": ("ref", 1), "throw": False,
    "calls": [call(TAINT_SMS, [1, 2, 3, 4], [0, 0, 0, TAINT_IMEI]),
              call(0, [5, 6, 7, 8], [TAINT_CONTACTS, 0, 0, 0])],
    "rebind_after": 0, "entry": "hooked",
})
@example(case={  # a tainted crossing that ThrowNews
    "static": False, "params": list("L"), "ret": "L",
    "body": ("ref", 2), "rebody": ("ref", 1), "throw": True,
    "calls": [call(TAINT_IMEI, [3], [TAINT_SMS])] * 2,
    "rebind_after": None, "entry": "hooked",
})
def test_host_side_matches_guest_protocol_without_plan(config, case):
    host = run_case(case, oracle=False, config=config)
    assert host == run_case(case, oracle=True, config=config)
    # The host-side crossing (one per call, as run_case asserts) returns
    # TaintDroid's policy label: the union of the parameters' taints.
    arity = len(case["params"])
    for outcome, taints in zip(host["outcomes"], case["calls"]):
        if outcome[0] == "ok":
            label = TAINT_CLEAR if case["static"] else taints[0]
            for taint in taints[1 + arity:]:
                label |= taint
            assert outcome[2] == label


def test_plan_is_ndroids_default_path():
    """NDroid alone crosses host-side; a foreign hook gets the protocol."""
    case = dict(EIGHT)
    plan = run_case(case, oracle=False)
    # Parameters 0, 3, 4 and 6; the last three arrive on the stack.
    # The label is the precise native-side one, not TaintDroid's union
    # of all parameters: the body never reads IMEI-tainted parameter 1.
    assert plan["outcomes"] == [("ok", 0 + 3 + 4 + 6,
                                 TAINT_SMS | TAINT_CONTACTS, False)]
    # The SourcePolicy seeded each tainted parameter's register or stack
    # word at the native method's entry.
    seeded = [(tag, dst.partition(":")[0])
              for tag, mechanism, __, dst, __ in plan["ledger"]
              if mechanism == "jni:dvmCallJNIMethod"]
    assert seeded == [(TAINT_IMEI, "reg"), (TAINT_SMS, "mem"),
                      (TAINT_CONTACTS, "mem")]


@pytest.mark.parametrize("entry", ["quarantined", "faulting"])
def test_degraded_entry_still_conservative(entry):
    """A quarantined entry half over-taints on the plan path too."""
    observed = run_case(dict(EIGHT, entry=entry), oracle=False)
    assert observed["quarantined_hooks"] == ["dvmCallJNIMethod.entry"]
    assert observed["hook_invocations"]["dvmCallJNIMethod.entry"] == 1
    assert observed["hook_invocations"]["dvmCallJNIMethod.exit"] == 1
    if entry == "faulting":
        # The fallback's labels: the plan's first four arguments.
        assert observed["conservative_label"] == TAINT_IMEI


def analyze_app(kind, target, seed, oracle, config="ndroid"):
    """Ledger edges, leak rows and deliveries of one app."""
    platform = make_platform(config, trace=True)
    if oracle:
        platform.emu.add_entry_hook(
            platform.jni.symbols["dvmCallJNIMethod"], lambda emu: None)
    if kind == "scenario":
        run_scenario(ALL_SCENARIOS[target](), platform)
    else:
        apk = MARKET_APPS[target]()
        platform.install(apk)
        MonkeyRunner(platform, seed=seed).run(apk)
    jni = platform.jni
    crossings = jni.crossings_slow if oracle else jni.crossings_fast
    assert crossings == jni.crossings_fast + jni.crossings_slow
    return {
        "ledger": [(edge.tag, edge.mechanism, edge.src.describe(),
                    edge.dst.describe(), edge.location)
                   for edge in platform.observability.ledger],
        "leaks": [(record.detector, record.sink, record.taint,
                   record.destination, record.payload.hex(),
                   record.context) for record in platform.leaks.records],
        "tainted_deliveries": list(
            platform.ndroid.dvm_hooks.tainted_deliveries)
        if platform.ndroid else None,
        "crossings": crossings,
    }


@pytest.mark.parametrize("kind,target,seed", [
    *[("scenario", name, 0) for name in ALL_SCENARIOS],
    *[("market", package, seed) for package in MARKET_APPS
      for seed in (0, 1)],
])
def test_apps_match_guest_protocol(kind, target, seed):
    """The 11 scenarios and the market apps: same edges and leak rows."""
    assert analyze_app(kind, target, seed, oracle=False) == \
        analyze_app(kind, target, seed, oracle=True)


@pytest.mark.parametrize("config", ["vanilla", "taintdroid"])
@pytest.mark.parametrize("kind,target", [
    *[("scenario", name) for name in ALL_SCENARIOS],
    *[("market", package) for package in MARKET_APPS],
])
def test_apps_match_guest_protocol_without_plan(config, kind, target):
    """The same apps with no plan installed: the same leak rows and the
    same ledger edges."""
    assert analyze_app(kind, target, 0, oracle=False, config=config) == \
        analyze_app(kind, target, 0, oracle=True, config=config)
