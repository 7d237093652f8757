"""The assembled device: :class:`AndroidPlatform`.

One platform = one emulated phone: CPU/emulator, kernel, libc/libm, the
Dalvik VM, the JNI layer, framework APIs, a device profile, and the leak
registry.  Analysis systems (TaintDroid, NDroid, the DroidScope
comparator) attach to a platform after construction.

Typical use::

    platform = AndroidPlatform()
    TaintDroid.attach(platform)           # baseline
    NDroid.attach(platform)               # the paper's system
    platform.install(apk)
    platform.run_app(apk)
    print(platform.leaks.summary())
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.common.errors import DalvikError
from repro.common.events import EventLog
from repro.cpu.assembler import Program, assemble
from repro.dalvik.heap import Slot
from repro.dalvik.vm import DalvikVM
from repro.emulator.emulator import Emulator
from repro.framework.apk import Apk
from repro.framework.api import FrameworkApi
from repro.framework.device import DeviceProfile
from repro.framework.leaks import LeakRegistry
from repro.jni.layer import JNI_CHARS_BASE, JNI_CHARS_SIZE, JniLayer
from repro.kernel.filesystem import RegularFile
from repro.kernel.kernel import Kernel
from repro.kernel.process import TASK_LIST_HEAD
from repro.libc.libc import CLibrary, LIBC_HEAP_BASE, LIBC_HEAP_SIZE
from repro.libc.libm import MathLibrary
from repro.memory.allocator import FreeListAllocator
from repro.memory.memory import Memory
from repro.observability import Observability

NATIVE_STACK_TOP = 0x0800_0000
NATIVE_STACK_SIZE = 0x0010_0000
APP_LIBRARY_BASE = 0x6000_0000
APP_LIBRARY_STRIDE = 0x0010_0000


class AndroidPlatform:
    """A complete simulated Android device."""

    def __init__(self, device: Optional[DeviceProfile] = None,
                 use_tb: bool = True, observe: bool = True) -> None:
        self.event_log = EventLog()
        self.memory = Memory()
        self.emu = Emulator(memory=self.memory, event_log=self.event_log,
                            use_tb=use_tb)
        self.kernel = Kernel(self.memory, event_log=self.event_log)
        self.kernel.spawn_process("system_server")
        self.app_process = self.kernel.spawn_process("app_process")
        self.kernel.set_current(self.app_process)
        # The app process shares the emulator's memory map so both the
        # loader and the kernel's task structs describe the same mappings.
        self.app_process.memory_map = self.emu.memory_map
        self.emu.syscall_handler = self.kernel.handle_svc

        self.libc = CLibrary(self.emu, self.kernel)
        self.libm = MathLibrary(self.emu)
        self.vm = DalvikVM(self.memory, event_log=self.event_log)
        if use_tb:
            # The managed side follows the native TB engine's switch: the
            # same flag selects trace-compiled Dalvik blocks, keeping the
            # use_tb=False platform a byte-identical single-step oracle.
            self.vm.enable_trace_compiler()
        self.jni = JniLayer(self.emu, self.vm)
        self.device = device if device is not None else DeviceProfile.default()
        self.leaks = LeakRegistry()

        # Analysis systems attach here.
        self.taintdroid = None
        self.ndroid = None
        self.droidscope = None

        self.api = FrameworkApi(self)
        self.api.register_all()
        self.libc.dlopen_handler = self._dlopen
        self.libc.dlsym_handler = self._dlsym

        self.emu.cpu.sp = NATIVE_STACK_TOP
        self.emu.memory_map.map(NATIVE_STACK_TOP - NATIVE_STACK_SIZE,
                                NATIVE_STACK_SIZE, "[stack]", perms="rw-")
        from repro.dalvik.stack import DVM_STACK_BASE, DVM_STACK_SIZE
        self.emu.memory_map.map(DVM_STACK_BASE - DVM_STACK_SIZE,
                                DVM_STACK_SIZE, "[dalvik stack]", perms="rw-")
        self.kernel.sync_tasks_to_guest()

        # Observability facade (metrics sources are pull-only; the
        # ledger/profiler stay off until enable_tracing()).
        self.observability = Observability() if observe else None
        if self.observability is not None:
            self.observability.wire(self)

        self._installed: Dict[str, Apk] = {}
        self._loaded_libraries: Dict[str, Program] = {}
        self._library_handles: List[str] = []
        self._next_library_base = APP_LIBRARY_BASE
        # The VM starts with taint slots maintained but no policy consumer;
        # the vanilla configuration disables the bookkeeping entirely.
        self.vm.taint_tracking = False

        # Warm-worker machinery: libraries kept mapped + translated across
        # jobs, and the boot-state snapshot reset_for_job() restores
        # (captured by prepare_template()).
        self._resident_libraries: Dict[str, Tuple[Program, int, str]] = {}
        self._template: Optional[Dict] = None

    # -- app management -------------------------------------------------------------

    def install(self, apk: Apk) -> None:
        """Register the app's classes (its dex) with the VM."""
        if apk.package in self._installed:
            raise DalvikError(f"{apk.package} already installed")
        for class_def in apk.classes:
            self.vm.register_class(class_def)
        self._installed[apk.package] = apk
        self.event_log.emit("framework", "install", apk.package,
                            package=apk.package,
                            libraries=sorted(apk.native_libraries))

    def run_app(self, apk: Apk, args: Optional[List[Slot]] = None) -> Slot:
        """Invoke the app's ``main``; libraries load via System.loadLibrary."""
        return self.vm.call_main(apk.main_symbol(), args or [])

    # -- native library loading --------------------------------------------------------

    def load_library(self, name: str) -> Program:
        """System.loadLibrary: assemble, map (third-party) and bind.

        In a warm worker a library loaded by a previous job stays
        *resident*: mapped, decoded, translated.  When the same name
        resolves to the same source, the load skips assembly, mapping and
        cache invalidation entirely and only re-binds methods and replays
        the observable events.  A different source evicts the stale
        resident first, dropping its translations, and the replacement
        maps at a fresh base (bases are never reissued), so two apps'
        code can never alias at the same pc.
        """
        if name in self._loaded_libraries:
            return self._loaded_libraries[name]
        source = None
        for apk in self._installed.values():
            if name in apk.native_libraries:
                source = apk.native_libraries[name]
                break
        if source is None:
            raise DalvikError(f"UnsatisfiedLinkError: no library {name!r}")
        resident = self._resident_libraries.get(name)
        if resident is not None:
            program, base, resident_source = resident
            if resident_source == source:
                return self._finish_load(name, program, base)
            self._evict_resident(name)
        base = self._next_library_base
        self._next_library_base += APP_LIBRARY_STRIDE
        externs = dict(self.libc.symbols)
        externs.update(self.libm.symbols)
        program = assemble(source, base=base, externs=externs)
        self.emu.load(base, program.code)
        size = max((len(program.code) + 0xFFF) & ~0xFFF, 0x1000)
        self.emu.memory_map.map(base, size, name, perms="r-x",
                                third_party=True)
        self.kernel.sync_tasks_to_guest()
        self._resident_libraries[name] = (program, base, source)
        return self._finish_load(name, program, base)

    def _finish_load(self, name: str, program: Program, base: int) -> Program:
        """The source-independent tail of a load: bind, announce, OnLoad."""
        self._loaded_libraries[name] = program
        self._library_handles.append(name)
        self._bind_native_methods(program)
        self.event_log.emit("framework", "loadLibrary",
                            f"{name} @0x{base:08x}", name=name, base=base,
                            size=len(program.code))
        # Run JNI_OnLoad if the library exports one (libraries that bind
        # their methods via RegisterNatives do it here).  The first
        # argument is the env pointer; the real ABI passes JavaVM*, whose
        # only use in practice is GetEnv — this shortcut preserves the
        # observable behaviour.
        if "JNI_OnLoad" in program.symbols:
            self.emu.call(program.entry("JNI_OnLoad"),
                          args=(self.jni.env_pointer(), 0))
            self.event_log.emit("framework", "JNI_OnLoad", name, name=name)
        return program

    def _evict_resident(self, name: str) -> None:
        """Unmap a resident library whose source no longer matches."""
        program, base, _ = self._resident_libraries.pop(name)
        size = max((len(program.code) + 0xFFF) & ~0xFFF, 0x1000)
        for page in range(base >> 12, ((base + size - 1) >> 12) + 1):
            self.emu.invalidate_page(page)
        self.emu.memory_map.unmap(base)
        self.kernel.sync_tasks_to_guest()

    def _resident_pages(self) -> set:
        pages = set()
        for program, base, _ in self._resident_libraries.values():
            size = max((len(program.code) + 0xFFF) & ~0xFFF, 0x1000)
            pages.update(range(base >> 12, ((base + size - 1) >> 12) + 1))
        return pages

    def _bind_native_methods(self, program: Program) -> None:
        """Bind ``Java_pkg_Class_method`` symbols to native methods."""
        for class_def in self.vm.classes.values():
            for method in class_def.methods.values():
                if method.is_native and method.native_address == 0:
                    symbol = method.jni_symbol()
                    if symbol in program.symbols:
                        method.native_address = program.entry(symbol)

    def _dlopen(self, path: str) -> int:
        name = path.rsplit("/", 1)[-1]
        try:
            self.load_library(name)
        except DalvikError:
            return 0
        try:
            return self._library_handles.index(name) + 1
        except ValueError:
            return 0

    def _dlsym(self, handle: int, symbol: str) -> int:
        index = handle - 1
        if not 0 <= index < len(self._library_handles):
            return 0
        program = self._loaded_libraries[self._library_handles[index]]
        if symbol not in program.symbols:
            return 0
        return program.entry(symbol)

    # -- warm workers: template/reset contract -----------------------------------------

    def prepare_template(self) -> None:
        """Snapshot the booted state ``reset_for_job()`` restores.

        Call once, after boot and detector attachment but before the
        first job touches the platform.  The snapshot is pure Python
        data (page bytes, class tables, fd tables, allocator cursors) —
        cheap to hold, and inherited copy-on-write across ``fork``.
        """
        memory = self.memory
        vm = self.vm
        kernel = self.kernel
        # Serialise the task list once more so the snapshot pages hold
        # exactly the current process table; reset_for_job() restores
        # those bytes with the boot pages while the table is unchanged.
        tasks_base = kernel._kernel_allocator._next
        kernel.sync_tasks_to_guest()
        self._template = {
            "pages": {index: bytes(page)
                      for index, page in memory._pages.items()},
            "tracers": list(self.emu._tracers),
            "branch_listeners": list(self.emu._branch_listeners),
            "classes": dict(vm.classes),
            "methods": frozenset(
                method for class_def in vm.classes.values()
                for method in class_def.methods.values()),
            "statics": {
                name: ({field: list(value)
                        for field, value in class_def.static_values.items()},
                       dict(class_def.static_ref_flags))
                for name, class_def in vm.classes.items()},
            "dvm_sp": vm.stack._stack_pointer,
            "jni_tables": (len(self.jni._methods), len(self.jni._classes),
                           len(self.jni._fields)),
            "files": {path: (bytes(file.data), list(file.taints))
                      for path, file in kernel.filesystem._files.items()},
            "directories": set(kernel.filesystem._directories),
            "responses": {host: list(queue) for host, queue
                          in kernel.network._responses.items()},
            "processes": {
                pid: {"name": process.name,
                      "fds": {fd: dataclasses.replace(descriptor)
                              for fd, descriptor in process.fds.items()},
                      "next_fd": process._next_fd}
                for pid, process in kernel.processes.items()},
            "current_pid": kernel.current.pid,
            "next_pid": kernel._next_pid,
            # The task list serialises from tasks_base; "task_list" is
            # what the snapshot pages hold (_restore_task_list).
            "tasks_base": tasks_base,
            "task_list": (kernel.task_signature(),
                          kernel._kernel_allocator._next, self._os_view()),
            "events_enabled": self.event_log.enabled,
        }

    def _os_view(self):
        """NDroid's freshly reconstructed OS view (None without NDroid)."""
        if self.ndroid is None:
            return None
        reconstructor = self.ndroid.view_reconstructor
        reconstructor.invalidate()
        return reconstructor.reconstruct()

    def _restore_task_list(self) -> None:
        """Bring the guest task list and NDroid's view back in line with
        the restored process table, re-serialising only on a change.

        While the table's signature (processes and memory maps) equals
        the one the template pages hold, the boot-page rewrite already
        put the right bytes back: only the allocator cursor and the saved
        view are restored.  A change (a library that stayed resident, a
        different process table) re-serialises from the template's base
        and refreshes the template's copy of the task-list pages, so the
        next unchanged reset skips again.
        """
        template = self._template
        kernel = self.kernel
        allocator = kernel._kernel_allocator
        signature = kernel.task_signature()
        saved_signature, cursor, view = template["task_list"]
        if signature != saved_signature:
            allocator._next = template["tasks_base"]
            kernel.sync_tasks_to_guest()
            cursor = allocator._next
            pages = self.memory._pages
            for index in range(TASK_LIST_HEAD >> 12,
                               ((cursor - 1) >> 12) + 1):
                if index in pages:
                    template["pages"][index] = bytes(pages[index])
            view = self._os_view()
            template["task_list"] = (signature, cursor, view)
        allocator._next = cursor
        if self.ndroid is not None:
            self.ndroid.view_reconstructor._cached = view

    def reset_for_job(self) -> None:
        """Return a used (possibly forked) platform to its booted state.

        Everything a job can dirty is restored from the template; the
        things worth keeping warm — the decode/TB caches, Dalvik blocks'
        region scopes, resident library mappings, the tracers' region
        and handler caches — survive.  Engines are mutated in place,
        never replaced: observability sources and hook closures hold
        their identities.
        """
        if self._template is None:
            raise DalvikError("prepare_template() was never called")
        template = self._template
        emu = self.emu
        vm = self.vm
        kernel = self.kernel

        # 1. Shed per-job instrumentation (supervision, tracers,
        # injectors).  Supervision is not a tracer, so shedding it keeps
        # the translation cache.
        emu.set_supervision(None)
        for tracer in list(emu._tracers):
            if tracer not in template["tracers"]:
                emu.remove_tracer(tracer)
        emu.fault_injector = None
        kernel.syscall_fault_hook = None
        emu._branch_listeners[:] = list(template["branch_listeners"])

        # 2. Memory: drop pages the job created (resident library code
        # excepted), rewrite boot pages the job changed.  Writing through
        # write_bytes lets the write-watch invalidate stale translations
        # exactly as self-modifying code would.  A resident library gets
        # back only the spans the job changed: a store into its data area
        # must not look like a rewrite of its decoded code.
        boot_pages = template["pages"]
        resident_pages = self._resident_pages()
        for index in list(memory_pages := self.memory._pages):
            if index not in boot_pages and index not in resident_pages:
                emu.invalidate_page(index)
                memory_pages.pop(index, None)
        for index, data in boot_pages.items():
            live = memory_pages.get(index)
            if live is None or bytes(live) != data:
                self.memory.write_bytes(index << 12, data)
        for program, base, _ in self._resident_libraries.values():
            self.memory.restore_bytes(base, program.code)

        # 3. Dalvik VM.
        vm.classes.clear()
        vm.classes.update(template["classes"])
        for name, (values, flags) in template["statics"].items():
            class_def = vm.classes.get(name)
            if class_def is None:
                continue
            class_def.static_values.clear()
            class_def.static_values.update(
                {field: list(value) for field, value in values.items()})
            class_def.static_ref_flags.clear()
            class_def.static_ref_flags.update(flags)
        vm._interned.clear()
        vm.interp_save_state = Slot()
        vm.caught_exception = None
        vm.interpreter.instructions_executed = 0
        vm._root_frame_slots = []
        heap = vm.heap
        heap._objects.clear()
        heap._class_ids.clear()
        heap._active = 0
        heap._bump = heap._spaces[0]
        heap.gc_count = 0
        vm.stack.frames.clear()
        vm.stack._stack_pointer = template["dvm_sp"]
        for table in vm.irt._tables.values():
            table.clear()
        vm.irt._serial = 0
        if vm.tbc is not None:
            vm.tbc.flush(keep=template["methods"])
            vm.tbc.reset_counters()

        # 4. Emulator: counters and control state.  The decode cache and
        # translation blocks are exactly what stays warm.
        emu.instruction_count = 0
        emu.host_call_count = 0
        emu.decode_count = 0
        emu.translate_seconds = 0.0
        emu._pending_exits.clear()
        emu._call_depth = 0
        emu._stop_requested = False
        emu._tb_cache.reset_counters()
        cpu = emu.cpu
        cpu.regs[:] = [0] * len(cpu.regs)
        cpu.flag_n = cpu.flag_z = cpu.flag_c = cpu.flag_v = False
        cpu.thumb = False
        cpu.sp = NATIVE_STACK_TOP

        # 5. JNI layer: per-job tables and pending state; trampolines are
        # keyed by Method objects that die with the job's classes.
        jni = self.jni
        jni._trampolines.clear()
        jni.pending_exception = None
        jni.pending_interpret = None
        jni.current_native_call = None
        jni.trampoline_hits = 0
        jni.trampoline_misses = 0
        jni.trampoline_invalidations = 0
        jni.crossings_fast = 0
        jni.crossings_slow = 0
        jni.chars_heap = FreeListAllocator(JNI_CHARS_BASE, JNI_CHARS_SIZE)
        methods_len, classes_len, fields_len = template["jni_tables"]
        del jni._methods[methods_len:]
        del jni._classes[classes_len:]
        del jni._fields[fields_len:]

        # 6. libc: fresh native heap, no open FILE objects.
        self.libc.heap = FreeListAllocator(LIBC_HEAP_BASE, LIBC_HEAP_SIZE)
        self.libc._file_objects.clear()

        # 7. Kernel: filesystem, network, process table, counters.
        filesystem = kernel.filesystem
        filesystem._files = {
            path: RegularFile(data=bytearray(data), taints=list(taints))
            for path, (data, taints) in template["files"].items()}
        filesystem._directories = set(template["directories"])
        network = kernel.network
        network._sockets.clear()
        network.transmissions.clear()
        network._responses = {host: list(queue) for host, queue
                              in template["responses"].items()}
        for pid in [pid for pid in kernel.processes
                    if pid not in template["processes"]]:
            del kernel.processes[pid]
        for pid, saved in template["processes"].items():
            process = kernel.processes.get(pid)
            if process is None:
                continue
            process.fds = {}
            for fd, descriptor in saved["fds"].items():
                restored = dataclasses.replace(descriptor)
                if restored.path is not None:
                    restored.file = filesystem._files.get(restored.path)
                process.fds[fd] = restored
            process._next_fd = saved["next_fd"]
        kernel._next_pid = template["next_pid"]
        kernel.set_current(kernel.processes[template["current_pid"]])
        kernel.syscall_count = 0
        kernel.syscalls_by_name.clear()
        self._restore_task_list()

        # 8. Platform-level job state.
        self.event_log.clear()
        self.event_log.enabled = template["events_enabled"]
        self.leaks.clear()
        self._installed.clear()
        self._loaded_libraries.clear()
        self._library_handles.clear()
        # _next_library_base stays monotonic: resident bases must never
        # be reissued to a different library.

        # 9. Re-register the write-watch and syscall callbacks on *this*
        # process's objects — a forked child must invalidate its own
        # caches on self-modifying code, never the template's.
        self.memory.set_write_watcher(emu._on_code_page_write)
        emu.syscall_handler = kernel.handle_svc

        # 10. Attached detectors.
        ndroid = self.ndroid
        if ndroid is not None:
            ndroid.taint_engine.reset()
            ndroid.taint_engine.rearm_fast_path()
            ndroid.degraded_events = 0
            ndroid.quarantined_hooks.clear()
            ndroid.hook_invocations.clear()
            tracer = ndroid.instruction_tracer
            tracer.traced_instructions = 0
            ndroid.multilevel.reset()
            ndroid.view_reconstructor.reconstructions = 0
            ndroid.syslib_hooks.modelled_calls = 0
            ndroid.syslib_hooks.sink_checks = 0
            ndroid.dvm_hooks.tainted_deliveries.clear()
        droidscope = self.droidscope
        if droidscope is not None:
            droidscope.taint_engine.reset()
            droidscope.taint_engine.rearm_fast_path()
            droidscope.tracer.traced_instructions = 0
            droidscope.dalvik_reconstructions = 0
            droidscope.library_walk_bytes = 0
            droidscope.context_lookups = 0

    # -- measurement helpers -----------------------------------------------------------

    def work_counters(self) -> Dict[str, int]:
        return {
            "native_instructions": self.emu.instruction_count,
            "dalvik_instructions": self.vm.dalvik_instructions,
            "host_calls": self.emu.host_call_count,
            "syscalls": self.kernel.syscall_count,
            "gc_count": self.vm.heap.gc_count,
        }
