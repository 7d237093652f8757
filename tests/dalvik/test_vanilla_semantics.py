"""Vanilla is TaintDroid with its sources off.

The vanilla configuration runs the same Dalvik engine as TaintDroid; it
differs only in that no framework source returns a taint.  Two checks
pin that down:

* the *invariant* that makes one engine safe for both: under vanilla no
  taint ever reaches a frame slot, a heap object, a static or the
  return register, across all 11 parity scenarios and every CF-Bench
  kernel, and no compiled block escalates to its tainted variant;
* *same code on clean data*: a warmed pass of the 13 CF-Bench kernels
  makes exactly the same function calls under vanilla as under
  TaintDroid (counted with :func:`sys.setprofile`, so no timer is
  involved).

The same count pins the slot views: on that pass, under vanilla,
TaintDroid and NDroid, no compiled Dalvik block calls a
:class:`~repro.memory.memory.Memory` word accessor.  And it pins
NDroid's clean data path: no branch reaches the multilevel manager and
no hook builds a taint list.
"""

import gc
import os
import sys
from collections import Counter

import pytest

from repro.apps import ALL_SCENARIOS
from repro.apps.base import run_scenario
from repro.bench.cfbench import CFBench
from repro.bench.emulator_bench import (
    MEMORY_WORD_ACCESSORS, PARITY_SCENARIOS)
from repro.bench.harness import make_platform

from tests.dalvik.test_tbc_differential import watch_popped_frames

CFBENCH_ITERATIONS = 50


def _assert_no_taint(vm, popped):
    assert popped, "no interpreted frame ran"
    for name, maybe_tainted, slots in popped:
        assert not maybe_tainted, name
        assert not any(taint for _value, taint, _ref in slots), name
    for address, record in vm.heap._objects.items():
        assert record.taint == 0, (address, record.class_name)
        for field, slot in record.fields.items():
            assert slot.taint == 0, (address, field)
        for index, slot in enumerate(record.elements):
            assert slot.taint == 0, (address, index)
    for class_name, class_def in vm.classes.items():
        for field, (_value, taint) in class_def.static_values.items():
            assert taint == 0, (class_name, field)
    assert vm.interp_save_state.taint == 0
    assert vm.tbc.escalations == 0


@pytest.mark.parametrize("name", PARITY_SCENARIOS)
def test_vanilla_scenario_holds_no_taint(name):
    platform = make_platform("vanilla")
    popped = watch_popped_frames(platform.vm)
    run_scenario(ALL_SCENARIOS[name](), platform)
    _assert_no_taint(platform.vm, popped)


def test_vanilla_cfbench_holds_no_taint():
    platform = make_platform("vanilla")
    bench = CFBench(platform)
    popped = watch_popped_frames(platform.vm)
    bench.run_all(iterations=CFBENCH_ITERATIONS)
    _assert_no_taint(platform.vm, popped)


def _cfbench_call_profile(config, word_callers=None, by_file=False):
    """Calls made by one warmed pass of every CF-Bench kernel, counted
    per Python function (code name, or with ``by_file`` its file's name
    and code name, ``"multilevel.py:on_branch"``) and per builtin
    (qualname).  The collector is off while counting so no finalizer
    runs in the pass.  With ``word_callers``, each call of a ``Memory``
    word accessor is also counted there, keyed by its caller's file and
    function."""
    bench = CFBench(make_platform(config))
    bench.run_all(iterations=CFBENCH_ITERATIONS)
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            counts[f"{os.path.basename(code.co_filename)}:{code.co_name}"
                   if by_file else code.co_name] += 1
            if word_callers is not None and \
                    code.co_name in MEMORY_WORD_ACCESSORS and \
                    code.co_filename.endswith("memory.py"):
                caller = frame.f_back.f_code
                word_callers[caller.co_filename, caller.co_name] += 1
        elif event == "c_call":
            counts[getattr(arg, "__qualname__", repr(arg))] += 1

    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        bench.run_all(iterations=CFBENCH_ITERATIONS)
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return counts


def test_vanilla_and_taintdroid_make_the_same_calls_on_clean_data():
    vanilla = _cfbench_call_profile("vanilla")
    taintdroid = _cfbench_call_profile("taintdroid")
    assert sum(vanilla.values()) > 0
    # On a mismatch, name the functions whose counts differ.
    assert {key: (vanilla[key], taintdroid[key])
            for key in vanilla.keys() | taintdroid.keys()
            if vanilla[key] != taintdroid[key]} == {}


@pytest.mark.parametrize("config", ["vanilla", "taintdroid", "ndroid"])
def test_compiled_blocks_read_slots_without_memory_calls(config):
    """Compiled blocks index their frame's slot view: a warmed CF-Bench
    pass makes no ``Memory`` word call from ``dalvik/tbc.py``.  The other
    callers (ARM stores, array mirrors, frame pushes, libc) remain."""
    callers = Counter()
    counts = _cfbench_call_profile(config, callers)
    assert counts["execute"] > 0            # compiled blocks ran
    from_blocks = {key: count for key, count in callers.items()
                   if key[0].endswith(os.path.join("dalvik", "tbc.py"))}
    assert from_blocks == {}
    assert 0 < sum(callers.values()) < 1000


def test_ndroid_does_no_taint_work_at_hooks_on_clean_data():
    """The branches CF-Bench takes touch no multilevel chain, so the
    manager is never called; the Table VI hooks still run (and count),
    but argument capture stores the shared all-clear tuple instead of
    building one from the shadow registers."""
    counts = _cfbench_call_profile("ndroid", by_file=True)
    assert counts["multilevel.py:on_branch"] == 0
    assert counts["ndroid.py:guarded"] > 0
    assert counts["syslib_hooks.py:_capture_args"] > 0
    assert counts["syslib_hooks.py:<genexpr>"] == 0
