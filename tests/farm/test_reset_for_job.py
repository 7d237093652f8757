"""A reset warm platform is a cold boot, whatever ran on it before.

``AndroidPlatform.reset_for_job()`` is a list of calls: each state owner
(emulator, memory, Dalvik VM, JNI layer, libc, kernel, NDroid,
DroidScope-sim) resets what it owns.  These tests pin the contract from
the outside:

* a stale NDroid ``SourcePolicy`` never outlives its job: the
  ``seed``/``direct`` pair below reports a leak on a warm platform only
  if the previous job's policy for ``seed`` (and the entry hook that
  applies it) survived the reset;
* per-job counters restart at every job: the same scenario three times
  on one warm platform gives the same metrics snapshot each time, equal
  to a cold run's except for the named cache counters;
* a generated test: after random sequences of jobs (the scenarios, the
  market apps, the stale pair, a job cut off mid-crossing), a reset
  gives back the booted guest memory, and a probe job observes exactly
  what it observes on a cold boot: leak rows, bytes sent, work counters,
  provenance ledger edges, open descriptors and metrics, cache counters
  excepted;
* a job cut off mid-crossing leaves no call state behind.
"""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.apps.market import MARKET_APPS
from repro.bench.harness import make_platform
from repro.common.errors import AnalysisTimeout
from repro.dalvik import ClassDef, MethodBuilder
from repro.framework import Apk
from repro.framework.android import APP_LIBRARY_STRIDE
from repro.framework.monkey import MonkeyRunner
from repro.kernel.process import (KERNEL_DATA_BASE, KERNEL_DATA_SIZE,
                                  TASK_LIST_HEAD)

CLASS = "Lcom/stale/Pair;"
DESTINATION = "stale.example.com:80"
# seed(String) stores its r2 (the string's iref) and sends those four
# bytes; direct() calls seed natively with a constant in r2.  Both jobs
# install the same library source, so a warm platform keeps it resident
# at the same base: seed's address is the same in both jobs.
LIBRARY_SOURCE = """
Java_com_stale_Pair_seed:        ; (env, jclass, jstring) -> void
    push {r4, lr}
    ldr r4, =buffer
    str r2, [r4]
    mov r0, #2
    mov r1, #1
    ldr ip, =socket
    blx ip
    mov r4, r0
    ldr r1, =destination
    ldr ip, =connect
    blx ip
    mov r0, r4
    ldr r1, =buffer
    mov r2, #4
    mov r3, #0
    ldr ip, =send
    blx ip
    pop {r4, pc}

Java_com_stale_Pair_direct:      ; (env, jclass) -> void
    push {r4, lr}
    mov r2, #7
    bl Java_com_stale_Pair_seed
    pop {r4, pc}

destination:
    .asciz "stale.example.com:80"
.align 2
buffer:
    .space 8
"""


def stale_pair_apk(entry):
    """The pair's app whose ``main`` calls ``seed(getDeviceId())`` or
    ``direct()``."""
    cls = ClassDef(CLASS)
    cls.add_method(MethodBuilder(CLASS, "seed", "VL", static=True,
                                 native=True).build())
    cls.add_method(MethodBuilder(CLASS, "direct", "V", static=True,
                                 native=True).build())
    main = MethodBuilder(CLASS, "main", "V", static=True, registers=3)
    main.const_string(0, "libstale.so")
    main.invoke_static("Ljava/lang/System;->loadLibrary", 0)
    if entry == "seed":
        main.invoke_static(
            "Landroid/telephony/TelephonyManager;->getDeviceId")
        main.move_result_object(1)
        main.invoke_static(f"{CLASS}->seed", 1)
    else:
        main.invoke_static(f"{CLASS}->direct")
    main.ret_void()
    cls.add_method(main.build())
    return Apk(package=f"com.stale.{entry}", classes=[cls],
               native_libraries={"libstale.so": LIBRARY_SOURCE})


def leak_rows(platform):
    return [(r.detector, r.sink, r.taint, r.destination, r.payload.hex())
            for r in platform.leaks.records]


# -- jobs ---------------------------------------------------------------------

def run_job(platform, job):
    """Run one job; a ``("cut", target)`` job is stopped by the watchdog
    20 instructions into native code, in the middle of a JNI crossing."""
    kind, target = job
    if kind == "scenario":
        run_scenario(ALL_SCENARIOS[target](), platform)
    elif kind == "market":
        apk = MARKET_APPS[target]()
        platform.install(apk)
        MonkeyRunner(platform, seed=0).run(apk)
    elif kind == "stale":
        apk = stale_pair_apk(target)
        platform.install(apk)
        platform.run_app(apk)
    else:
        platform.emu.set_supervision(20)
        with pytest.raises(AnalysisTimeout):
            run_scenario(ALL_SCENARIOS[target](), platform)


# Named cache counters: warm caches change how much translation, decoding
# and re-introspection a job needs, never what it computes.
CACHE_PREFIXES = ("emulator.tb.", "dalvik.tbc.", "jni.trampoline.")
CACHE_KEYS = ("emulator.decodes", "core.view_reconstructions")


def engine_metrics(platform):
    return {key: value
            for key, value in platform.observability.snapshot().items()
            if not key.startswith(CACHE_PREFIXES) and key not in CACHE_KEYS}


def relocator(platform):
    """Address -> ``library+offset`` for the libraries the job loaded.

    A warm platform never reissues a library base, so the probe's
    libraries may sit higher than on a cold boot; addresses inside them
    compare relative to their base.
    """
    bases = [(program.base, name)
             for name, program in platform._loaded_libraries.items()]

    def relocate(value):
        if isinstance(value, bool):
            return value
        if isinstance(value, int):
            for base, name in bases:
                if base <= value < base + APP_LIBRARY_STRIDE:
                    return f"{name}+0x{value - base:x}"
            return value
        if isinstance(value, str):
            return re.sub(r"0x[0-9a-f]{8}",
                          lambda match: str(relocate(int(match[0], 16))),
                          value)
        if isinstance(value, (list, tuple)):
            return [relocate(item) for item in value]
        if isinstance(value, dict):
            return {key: relocate(item) for key, item in value.items()}
        return value
    return relocate


def observe(platform):
    """What a (traced) job leaves behind."""
    relocate = relocator(platform)
    observed = {
        "leaks": leak_rows(platform),
        "sent": [(sent.destination, sent.payload.hex())
                 for sent in platform.kernel.network.transmissions],
        "counters": platform.work_counters(),
        "edges": [relocate(edge.to_dict())
                  for edge in platform.observability.ledger],
        "descriptors": [(fd, descriptor.kind, descriptor.path)
                        for fd, descriptor in
                        sorted(platform.kernel.current.fds.items())],
        "metrics": engine_metrics(platform),
    }
    droidscope = platform.droidscope
    if droidscope is not None:
        observed["droidscope"] = dict(
            droidscope.statistics(),
            taint_propagations=droidscope.taint_engine.propagation_count)
    return observed


def guest_memory(platform):
    """Guest pages but the resident libraries' and the kernel's task list
    region: a library a job loaded stays mapped, and its VMA with it."""
    skip = set(range(TASK_LIST_HEAD >> 12,
                     (KERNEL_DATA_BASE + KERNEL_DATA_SIZE) >> 12))
    for __, base, __ in platform._resident_libraries.values():
        skip.update(range(base >> 12, (base + APP_LIBRARY_STRIDE) >> 12))
    return {index: bytes(page)
            for index, page in platform.memory._pages.items()
            if index not in skip}


def cold_observation(config, probe):
    platform = make_platform(config, trace=True)
    run_job(platform, probe)
    return observe(platform)


# -- the stale SourcePolicy -------------------------------------------------------

class TestStaleSourcePolicy:
    def test_cold_direct_call_does_not_leak(self):
        platform = make_platform("ndroid")
        run_job(platform, ("stale", "direct"))
        assert leak_rows(platform) == []

    def test_seed_job_leaks_its_iref(self):
        platform = make_platform("ndroid")
        run_job(platform, ("stale", "seed"))
        assert [row[:4] for row in leak_rows(platform)] == \
            [("ndroid", "send", 1024, DESTINATION)]

    def test_warm_direct_after_seed_matches_cold(self):
        platform = make_platform("ndroid", trace=True)
        platform.prepare_template()
        platform.reset_for_job()
        run_job(platform, ("stale", "seed"))
        platform.reset_for_job()
        run_job(platform, ("stale", "direct"))
        # The previous job's policy for seed() would taint direct()'s
        # constant r2 as the IMEI: ('ndroid', 'send', 1024,
        # 'stale.example.com:80', '07000000').
        assert leak_rows(platform) == []
        assert observe(platform) == cold_observation(
            "ndroid", ("stale", "direct"))


# -- per-job counters --------------------------------------------------------------

@pytest.mark.parametrize("config,target", [("ndroid", "case2"),
                                           ("droidscope", "ephone")])
def test_repeated_warm_job_gives_cold_metrics(config, target):
    """Three runs of one scenario on one warm platform: the same metrics
    snapshot each time, a cold run's but for the cache counters."""
    job = ("scenario", target)
    platform = make_platform(config, trace=True)
    platform.prepare_template()
    runs = []
    for __ in range(3):
        platform.reset_for_job()
        run_job(platform, job)
        runs.append(observe(platform))
    assert runs == [cold_observation(config, job)] * 3


# -- generated job sequences ----------------------------------------------------------

APP_JOBS = ([("scenario", name) for name in sorted(ALL_SCENARIOS)]
            + [("market", package) for package in sorted(MARKET_APPS)]
            + [("stale", "seed"), ("stale", "direct")])
JOBS = APP_JOBS + [("cut", "case2")]
COLD = {}


def cold(config, probe):
    if (config, probe) not in COLD:
        COLD[config, probe] = cold_observation(config, probe)
    return COLD[config, probe]


@pytest.mark.parametrize("config", ["ndroid", "droidscope", "taintdroid",
                                    "vanilla"])
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(history=st.lists(st.sampled_from(JOBS), min_size=1, max_size=4),
       probe=st.sampled_from(APP_JOBS))
@example(history=[("stale", "seed")], probe=("stale", "direct"))
@example(history=[("cut", "case2")], probe=("scenario", "case2"))
@example(history=[("scenario", "case1_prime")] * 3,
         probe=("scenario", "case1_prime"))
def test_reset_after_any_jobs_is_a_cold_boot(config, history, probe):
    platform = make_platform(config, trace=True)
    platform.prepare_template()
    booted = guest_memory(platform)
    for job in history:
        platform.reset_for_job()
        run_job(platform, job)
    platform.reset_for_job()
    assert guest_memory(platform) == booted
    run_job(platform, probe)
    assert observe(platform) == cold(config, probe)


def test_cut_job_leaves_no_crossing_behind():
    """A job the watchdog stops inside a JNI crossing leaves no call
    state to the next: no open crossing, frame or pending exit hook."""
    platform = make_platform("ndroid")
    platform.prepare_template()
    platform.reset_for_job()
    run_job(platform, ("cut", "case2"))
    assert platform.ndroid.dvm_hooks._jni_entry_stack
    platform.reset_for_job()
    assert platform.ndroid.dvm_hooks._jni_entry_stack == []
    assert platform.jni.native_call_args is None
    assert platform.vm.stack.frames == []
    assert platform.emu._pending_exits == []
