"""Span tracing for the benchmark's traced run, installed from outside ``src/``.

The program has no span hooks at the layer boundaries the benchmark
needs, so :func:`instrument` wraps the public entry points of each layer
in place (class attributes and module functions) before any platform is
built.  Every wrapper records one span: name, start, end, parent span
and the id of the op it belongs to.  Spans stay in memory (capped) and
:meth:`SpanRecorder.write` writes them out when the run ends.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Because every span nests inside the op that opened
it, the self times of all layers plus ``unattributed`` (op wall time not
covered by any top-level span) add up to the op's wall time exactly.

Callables the program registers with the emulator (NDroid's hooks and
branch listener, the supervisor's watchdog tracer, libc/libm and JNI
host functions) are wrapped at registration time and attributed to the
layer of the module that defines them.  Tracer *objects* are not
replaced: the emulator compiles a tracer's taint propagation into its
translation blocks only when it sees the tracer object itself, so those
are timed by wrapping the class's ``__call__``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
import types
from typing import Dict, List, Optional

LAYERS = ("framework", "kernel", "dalvik", "jni", "emulator", "core",
          "libc", "resilience", "farm", "corpus")

# (module, attribute path, span name).  The span name's first component
# is the layer the span's self time is charged to.
ENTRY_POINTS = (
    ("repro.bench.harness", "make_platform", "framework.make_platform"),
    ("repro.framework.android", "AndroidPlatform.__init__",
     "framework.boot"),
    ("repro.framework.android", "AndroidPlatform.prepare_template",
     "framework.prepare_template"),
    ("repro.framework.android", "AndroidPlatform.reset_for_job",
     "framework.reset_for_job"),
    ("repro.framework.android", "AndroidPlatform.install",
     "framework.install"),
    ("repro.framework.android", "AndroidPlatform.run_app",
     "framework.run_app"),
    ("repro.framework.android", "AndroidPlatform.load_library",
     "framework.load_library"),
    ("repro.framework.monkey", "MonkeyRunner.run", "framework.monkey"),
    ("repro.kernel.kernel", "Kernel.sync_tasks_to_guest",
     "kernel.sync_tasks"),
    ("repro.kernel.kernel", "Kernel.handle_svc", "kernel.syscall"),
    ("repro.dalvik.vm", "DalvikVM.invoke_symbol", "dalvik.invoke_symbol"),
    ("repro.dalvik.vm", "DalvikVM.invoke", "dalvik.invoke"),
    # The VM's call_bridge attribute is bound to this method when the
    # JNI layer is built, so the class attribute is the bridge entry.
    ("repro.jni.layer", "JniLayer._call_bridge", "jni.bridge"),
    ("repro.emulator.emulator", "Emulator.call", "jni.native_call"),
    ("repro.emulator.emulator", "Emulator.run", "emulator.run"),
    ("repro.core.ndroid", "NDroid.attach", "core.attach"),
    ("repro.core.ndroid", "NDroid.refresh_view", "core.refresh_view"),
    ("repro.core.instruction_tracer", "InstructionTracer.__call__",
     "core.tracer"),
    ("repro.core.instruction_tracer", "InstructionTracer.compile_taint_op",
     "core.compile_taint_op"),
    ("repro.core.instruction_tracer", "InstructionRingBuffer.__call__",
     "resilience.ring_buffer"),
    ("repro.farm.worker", "execute_job", "resilience.execute_job"),
    ("repro.resilience.supervisor", "Supervisor.run", "resilience.supervise"),
    ("repro.resilience.supervisor", "RunContext.attach",
     "resilience.attach"),
    # Template boot (make_platform + prepare_template) for warm workers.
    ("repro.farm.worker", "warm_boot_templates", "framework.template_boot"),
    ("repro.farm.scheduler", "StreamFarm.run", "farm.stream"),
    ("repro.farm.journal", "RunJournal.record", "farm.journal_record"),
    ("repro.farm.merge", "MergeFold.add", "farm.merge"),
    ("repro.farm.merge", "MergeFold.finish", "farm.merge"),
)

# Module prefix of a callable registered with the emulator -> its layer.
CALLBACK_LAYERS = {
    "repro.core": "core",
    "repro.resilience": "resilience",
    "repro.libc": "libc",
    "repro.jni": "jni",
}

# Spans whose self time is NDroid's hook cost (core.hook_self_ms).
HOOK_SPANS = ("core.hook", "core.branch_listener", "core.tracer")


class SpanRecorder:
    """Stack-based span recorder with per-name and per-layer totals.

    Only spans opened while ``active`` is true are recorded.  Spans
    closed during an op (``phase == "op"``) feed the op totals; spans
    closed during set-up feed ``setup_by_name`` instead.
    """

    def __init__(self, max_spans: int = 20_000) -> None:
        self.active = False
        self.phase = "setup"
        self.op_id = "setup"
        self.max_spans = max_spans
        self.spans: List[tuple] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._stack: List[list] = []
        self.by_name: Dict[str, List[int]] = {}
        self.setup_by_name: Dict[str, List[int]] = {}
        self.layer_self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.top_level_ns = 0
        self.ops = 0
        self.op_wall_ns = 0

    # -- ops -------------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.phase = "op"
        self.op_id = op_id
        self.active = True

    def end_op(self, wall_ns: int) -> None:
        """Close the op; ``wall_ns`` is its latency as the client timed it."""
        self.op_wall_ns += wall_ns
        self.ops += 1
        self.active = False

    def begin_setup(self) -> None:
        self.phase = "setup"
        self.op_id = "setup"
        self.active = True

    def stop(self) -> None:
        self.active = False

    # -- spans -----------------------------------------------------------------

    def open(self, name: str, layer: str) -> list:
        frame = [name, layer, next(self._ids), time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        name, layer, span_id, start, child_ns = frame
        duration = end - start
        if stack:
            parent = stack[-1]
            parent[4] += duration
            parent_id = parent[2]
        else:
            parent_id = 0
        if self.phase == "op":
            totals = self.by_name
            self.layer_self_ns[layer] = \
                self.layer_self_ns.get(layer, 0) + duration - child_ns
            if parent_id == 0:
                self.top_level_ns += duration
        else:
            totals = self.setup_by_name
        entry = totals.get(name)
        if entry is None:
            totals[name] = [1, duration, duration - child_ns]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_ns
        if len(self.spans) < self.max_spans:
            self.spans.append((self.op_id, span_id, parent_id, name,
                               start, end))
        else:
            self.dropped += 1

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for op_id, span_id, parent_id, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"op": op_id, "id": span_id, "parent": parent_id,
                     "name": name, "start_ns": start, "end_ns": end},
                    separators=(",", ":")) + "\n")
            if self.dropped:
                handle.write(json.dumps({"dropped": self.dropped}) + "\n")

    # -- derived figures ------------------------------------------------------------

    def inclusive_ns(self, name: str) -> int:
        entry = self.by_name.get(name)
        return entry[1] if entry else 0

    def self_ns(self, name: str) -> int:
        entry = self.by_name.get(name)
        return entry[2] if entry else 0

    def mean_call_ns(self, name: str, include_setup: bool = False) -> float:
        """Mean inclusive duration of one call, over op spans; set-up
        spans count only when ``include_setup`` and no op made the call."""
        entry = self.by_name.get(name)
        if entry is None and include_setup:
            entry = self.setup_by_name.get(name)
        if not entry:
            return 0.0
        return entry[1] / entry[0]


def _wrap(recorder: SpanRecorder, name: str, layer: str, function):
    open_span, close_span = recorder.open, recorder.close

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not recorder.active:
            return function(*args, **kwargs)
        frame = open_span(name, layer)
        try:
            return function(*args, **kwargs)
        finally:
            close_span(frame)

    return traced


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


def _replace(owner, attr: str, make):
    """Replace ``owner.attr`` by ``make(function)``, keeping its kind."""
    raw = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _callback_layer(callback) -> Optional[str]:
    module = getattr(callback, "__module__", None) or \
        type(callback).__module__
    for prefix, layer in CALLBACK_LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def instrument(recorder: SpanRecorder) -> None:
    """Install the span wrappers.  Call before any platform is built."""
    for module_name, path, name in ENTRY_POINTS:
        owner, attr = _resolve(module_name, path)
        layer = name.split(".", 1)[0]
        _replace(owner, attr,
                 lambda function, name=name, layer=layer:
                 _wrap(recorder, name, layer, function))

    # The worker looks its per-kind analysis up in this table, so the
    # table entries are the analysis entry points inside execute_job.
    from repro.farm import worker
    for kind, analysis in list(worker._ANALYSES.items()):
        layer = "corpus" if kind == "corpus" else "framework"
        worker._ANALYSES[kind] = _wrap(recorder, f"{layer}.analyze", layer,
                                       analysis)

    from repro.kernel.kernel import Kernel
    for attr in sorted(vars(Kernel)):
        if attr.startswith("sys_"):
            _replace(Kernel, attr, lambda function:
                     _wrap(recorder, "kernel.sys", "kernel", function))


    _instrument_registrations(recorder)


def _instrument_registrations(recorder: SpanRecorder) -> None:
    """Wrap callables as the program registers them with the emulator."""
    from repro.emulator.emulator import Emulator

    def wrap_callback(callback, suffix: str):
        layer = _callback_layer(callback)
        if layer is None:
            return callback
        return _wrap(recorder, f"{layer}.{suffix}", layer, callback)

    def hook_registrar(function, suffix: str):
        @functools.wraps(function)
        def register(self, address, hook):
            return function(self, address, wrap_callback(hook, suffix))
        return register

    def listener_registrar(function, suffix: str, functions_only: bool):
        @functools.wraps(function)
        def register(self, callback):
            # Tracer objects stay themselves (see the module docstring);
            # their classes' __call__ is wrapped instead.
            if functions_only and not isinstance(
                    callback, (types.FunctionType, types.MethodType)):
                return function(self, callback)
            return function(self, wrap_callback(callback, suffix))
        return register

    def host_registrar(function):
        @functools.wraps(function)
        def register(self, address, name, host_function):
            return function(self, address, name,
                            wrap_callback(host_function, "host"))
        return register

    _replace(Emulator, "add_entry_hook",
             lambda f: hook_registrar(f, "hook"))
    _replace(Emulator, "add_exit_hook",
             lambda f: hook_registrar(f, "hook"))
    _replace(Emulator, "add_branch_listener",
             lambda f: listener_registrar(f, "branch_listener", False))
    _replace(Emulator, "add_tracer",
             lambda f: listener_registrar(f, "tracer_fn", True))
    _replace(Emulator, "register_host_function", host_registrar)
