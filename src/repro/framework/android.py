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

from typing import Dict, List, Optional, Tuple

from repro.common.errors import DalvikError
from repro.cpu.assembler import Program, assemble
from repro.dalvik.heap import Slot
from repro.dalvik.vm import DalvikVM
from repro.emulator.emulator import Emulator
from repro.framework.apk import Apk
from repro.framework.api import FrameworkApi
from repro.framework.device import DeviceProfile
from repro.framework.leaks import LeakRegistry
from repro.jni.layer import JniLayer
from repro.kernel.kernel import Kernel
from repro.libc.libc import CLibrary
from repro.libc.libm import MathLibrary
from repro.memory.memory import Memory
from repro.observability import Observability

NATIVE_STACK_TOP = 0x0800_0000
NATIVE_STACK_SIZE = 0x0010_0000
APP_LIBRARY_BASE = 0x6000_0000
APP_LIBRARY_STRIDE = 0x0010_0000


def _library_pages(program: Program, base: int) -> range:
    """The pages a library mapped at ``base`` (page-aligned) spans: its
    code rounded up to whole pages, at least one."""
    last = base + max(len(program.code), 1) - 1
    return range(base >> 12, (last >> 12) + 1)


class AndroidPlatform:
    """A complete simulated Android device."""

    def __init__(self, device: Optional[DeviceProfile] = None,
                 use_tb: bool = True, observe: bool = True) -> None:
        self.memory = Memory()
        self.emu = Emulator(memory=self.memory, use_tb=use_tb)
        self.kernel = Kernel(self.memory)
        self.kernel.spawn_process("system_server")
        self.app_process = self.kernel.spawn_process("app_process")
        self.kernel.set_current(self.app_process)
        # The app process shares the emulator's memory map so both the
        # loader and the kernel's task structs describe the same mappings.
        self.app_process.memory_map = self.emu.memory_map
        self.emu.syscall_handler = self.kernel.handle_svc

        self.libc = CLibrary(self.emu, self.kernel)
        self.libm = MathLibrary(self.emu)
        self.vm = DalvikVM(self.memory)
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
        # ledger/profile stay off until enable_tracing()).
        self.observability = Observability() if observe else None
        if self.observability is not None:
            self.observability.wire(self)

        self._installed: Dict[str, Apk] = {}
        self._loaded_libraries: Dict[str, Program] = {}
        self._library_handles: List[str] = []
        self._next_library_base = APP_LIBRARY_BASE

        # Warm-worker machinery: libraries kept mapped + translated across
        # jobs, and whether prepare_template() has run.
        self._resident_libraries: Dict[str, Tuple[Program, int, str]] = {}
        self._template_prepared = False
        # Jobs this platform was reset for (a forked child counts on
        # from its template's count).
        self.resets = 0

    # -- app management -------------------------------------------------------------

    def install(self, apk: Apk) -> None:
        """Register the app's classes (its dex) with the VM.

        An app installed before (a warm worker's image) comes back as it
        was built: its statics and native bindings are restored, whatever
        its last job wrote to them.
        """
        if apk.package in self._installed:
            raise DalvikError(f"{apk.package} already installed")
        for class_def in apk.classes:
            class_def.restore()
            self.vm.register_class(class_def)
        self._installed[apk.package] = apk

    def run_app(self, apk: Apk, args: Optional[List[Slot]] = None) -> Slot:
        """Invoke the app's ``main``; libraries load via System.loadLibrary."""
        return self.vm.call_main(apk.main_symbol(), args or [])

    # -- native library loading --------------------------------------------------------

    def load_library(self, name: str) -> Program:
        """System.loadLibrary: assemble, map (third-party) and bind.

        In a warm worker a library loaded by a previous job stays
        *resident*: mapped, decoded, translated, its pristine image in
        memory's checkpoint.  When the same name resolves to the same
        source, the load skips assembly and mapping entirely and only
        re-binds methods and re-runs ``JNI_OnLoad``.  A different
        source evicts the stale resident first, and the replacement maps
        at a fresh base (bases are never reissued), so two apps' code can
        never alias at the same pc.  The task list is synced right after
        each map change, before any guest instruction runs, so NDroid's
        view sees the new region.
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
            program, __, resident_source = resident
            if resident_source == source:
                return self._finish_load(name, program)
            self._evict_resident(name)
        base = self._next_library_base
        self._next_library_base += APP_LIBRARY_STRIDE
        externs = dict(self.libc.symbols)
        externs.update(self.libm.symbols)
        program = assemble(source, base=base, externs=externs)
        pages = _library_pages(program, base)
        self.emu.load(base, program.code)
        self.memory.checkpoint(pages)
        self.emu.memory_map.map(base, len(pages) << 12, name, perms="r-x",
                                third_party=True)
        self.kernel.sync_tasks_to_guest()
        self._resident_libraries[name] = (program, base, source)
        return self._finish_load(name, program)

    def _finish_load(self, name: str, program: Program) -> Program:
        """The source-independent tail of a load: bind, then OnLoad."""
        self._loaded_libraries[name] = program
        self._library_handles.append(name)
        self._bind_native_methods(program)
        # Run JNI_OnLoad if the library exports one (libraries that bind
        # their methods via RegisterNatives do it here).  The first
        # argument is the env pointer; the real ABI passes JavaVM*, whose
        # only use in practice is GetEnv — this shortcut preserves the
        # observable behaviour.
        if "JNI_OnLoad" in program.symbols:
            self.emu.call(program.entry("JNI_OnLoad"),
                          args=(self.jni.env_pointer(), 0))
        return program

    def _evict_resident(self, name: str) -> None:
        """Unmap a resident library whose source no longer matches (which
        drops its translations); the next reset deletes its pages."""
        program, base, _ = self._resident_libraries.pop(name)
        self.memory.forget(_library_pages(program, base))
        self.emu.memory_map.unmap(base)
        self.kernel.sync_tasks_to_guest()

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
        """Checkpoint the booted state ``reset_for_job()`` restores.

        Call once, after boot and detector attachment, before the first
        job.  Each state owner keeps its own checkpoint: pure Python
        data, inherited copy-on-write across ``fork``.
        """
        # The kernel serialises the task list once more first, so the
        # memory checkpoint holds exactly the current process table.
        self.kernel.checkpoint()
        self.memory.checkpoint()
        self.emu.checkpoint()
        self.vm.checkpoint()
        self.jni.checkpoint()
        if self.ndroid is not None:
            self.ndroid.checkpoint()
        self._template_prepared = True

    def reset_for_job(self) -> None:
        """Return a used (possibly forked) platform to its booted state.

        Each owner resets its own job state, in place: memory first (the
        kernel's task list bytes and resident library images too), the
        kernel after it, detectors and the provenance ledger last.  The
        decode, translation-block and Dalvik-block caches, resident
        libraries and the tracers' region caches stay warm.
        """
        if not self._template_prepared:
            raise DalvikError("prepare_template() was never called")
        self.resets += 1
        self.memory.reset_for_job()
        self.emu.reset_for_job()
        self.vm.reset_for_job()
        self.jni.reset_for_job()
        self.libc.reset_for_job()
        self.kernel.reset_for_job()
        # Re-registered on *this* process's objects: a forked child must
        # trap into its own kernel, never the template's.
        self.emu.syscall_handler = self.kernel.handle_svc
        for detector in (self.ndroid, self.droidscope):
            if detector is not None:
                detector.reset_for_job()

        if self.observability is not None:
            self.observability.reset_for_job()
        self.leaks.clear()
        self._installed.clear()
        self._loaded_libraries.clear()
        self._library_handles.clear()
        # _next_library_base stays monotonic: resident bases must never
        # be reissued to a different library.

    # -- measurement helpers -----------------------------------------------------------

    def work_counters(self) -> Dict[str, int]:
        return {
            "native_instructions": self.emu.instruction_count,
            "dalvik_instructions": self.vm.dalvik_instructions,
            "host_calls": self.emu.host_call_count,
            "syscalls": self.kernel.syscall_count,
            "gc_count": self.vm.heap.gc_count,
        }
