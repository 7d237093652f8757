"""NDroid's system-library hook engine (Section V.D, Tables VI & VII).

"Since the system standard functions will be frequently called by native
libraries, instrumenting every instruction in these standard functions
will take a long time and incur heavy overhead.  Instead, we model the
taint propagation operations for popular functions."

Each Table VI function gets a *trust-call handler* that moves taint in the
taint map exactly as the function moves data (the paper's Listing 3 shows
the ``memcpy`` model).  Table VII's starred calls — ``fwrite``, ``write``,
``fputc``, ``fputs``, ``send``, ``sendto`` (and ``fprintf``/``vfprintf``,
which the case-2 PoC treats as a sink) — additionally get *sink handlers*:
"if the data carrying taint reaches calls with *, NDroid regards it as a
possible information leak."

The models a native kernel calls in a loop (``malloc``/``calloc``,
``free``, the libm functions, the ``fwrite`` sink) also have a *clean*
variant, taken while the taint engine's sticky ``maybe_tainted`` flag
says no label is live anywhere (the same flag that picks a translated
block's clean variant).  Such a model could only write clear labels, so
it just advances the counters the full model would: ``modelled_calls``
and the engine's ``propagation_count`` by the count in
:data:`CLEAN_PROPAGATIONS`, or the sink's ``sink_checks``.  Argument
capture stores the shared all-clear taint tuple, and an exit model whose
engine turned tainted since its entry runs in full.  The clean sink
reports nothing but keeps the guest read that can fault.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.taint import TAINT_CLEAR, TaintLabel
from repro.core.taint_engine import TaintEngine
from repro.framework.leaks import LeakRecord
from repro.libc.libc import parse_c_integer
from repro.libc.stdio_format import FormatError, format_with_taints
from repro.observability.ledger import Loc

# Table VII's starred sinks (plus fprintf, the Fig. 8 sink).
SINK_FUNCTIONS = ("write", "send", "sendto", "fwrite", "fputs", "fputc",
                  "fprintf", "vfprintf")

# What argument capture stores for r0-r3 while no taint is live.
CLEAR_TAINTS = (TAINT_CLEAR,) * 4

# The models with a clean variant, each with the count of labels its full
# model writes (``propagation_count``); every libm function writes r0-r1.
CLEAN_PROPAGATIONS = {"free": 0, "malloc": 0, "calloc": 0, "libm": 2}

# The syscall each modelled sink bottoms out in — the provenance ledger
# labels sink edges ``syscall:<name>`` so a reconstructed path always
# names the kernel exit point, stdio or not.
SINK_SYSCALLS = {"write": "write", "send": "send", "sendto": "sendto",
                 "fwrite": "write", "fputs": "write", "fputc": "write",
                 "fprintf": "write", "vfprintf": "write"}


def _whole_string(memory, args) -> Tuple[int]:
    """``strlen`` reads its string and the terminator."""
    return (len(memory.read_cstring(args[0])) + 1,)


def _compared(fold: bool) -> Callable:
    """``strcmp``/``strcasecmp`` read each string up to and including
    the first byte that differs (after ASCII case folding, with
    ``fold``) or their shared terminator."""
    def read(memory, args) -> Tuple[int, int]:
        first = memory.read_cstring(args[0]) + b"\0"
        second = memory.read_cstring(args[1]) + b"\0"
        if fold:
            first, second = first.lower(), second.lower()
        decided = next((index for index, (a, b) in
                        enumerate(zip(first, second)) if a != b),
                       len(first) - 1)
        return decided + 1, decided + 1
    return read


def _bounded_compared(memory, args) -> Tuple[int, int]:
    """``strncmp``/``strncasecmp`` read each string with its terminator,
    at most ``n`` bytes."""
    bound = args[2]
    return tuple(min(len(memory.read_cstring(pointer, bound, bounded=True))
                     + 1, bound) for pointer in args[:2])


def _parsed(base_arg: Optional[int]) -> Callable:
    """``atoi``/``atol``/``strtoul`` read what the libc model's parse
    reads of their string."""
    def read(memory, args) -> Tuple[int]:
        base = 10 if base_arg is None else args[base_arg]
        return (parse_c_integer(memory.read_cstring(args[0]), base)[1],)
    return read


class SysLibHookEngine:
    """Trust-call taint models + sink checks over the modelled libc/libm."""

    def __init__(self, platform, taint_engine: TaintEngine,
                 guard: Optional[Callable] = None) -> None:
        self.platform = platform
        self.emu = platform.emu
        self.libc = platform.libc
        self.libm = platform.libm
        self.kernel = platform.kernel
        self.taint = taint_engine
        # Graceful-degradation wrapper (NDroid.guard_hook); identity when
        # the engine is used standalone in tests.
        self._guard = guard if guard is not None else \
            (lambda name, hook, fallback=None: hook)
        # Provenance ledger (observability); None when not tracing.
        self.ledger = None
        self.reset_for_job()

    def reset_for_job(self) -> None:
        self.modelled_calls = 0
        self.sink_checks = 0
        self._pending_exits: List[tuple] = []

    def _trace_copy(self, name: str, dest: int, src: int,
                    length: int) -> None:
        """One libc-transfer edge, recorded only for tainted source bytes."""
        if self.ledger is None or length <= 0:
            return
        label = self.taint.get_memory(src, length)
        if label:
            self.ledger.record(label, f"libc:{name}", Loc.mem(src, length),
                               Loc.mem(dest, length))

    # -- wiring ----------------------------------------------------------------

    def install(self) -> None:
        entry_models: Dict[str, Callable] = {
            "memcpy": self._model_memcpy,
            "memmove": self._model_memcpy,
            "memset": self._model_memset,
            "strcpy": self._model_strcpy,
            "strncpy": self._model_strncpy,
            "strcat": self._model_strcat,
            "free": self._model_free,
        }
        exit_models: Dict[str, Callable] = {
            "strlen": self._exit_content_to_r0(_whole_string),
            "strcmp": self._exit_content_to_r0(_compared(fold=False)),
            "strncmp": self._exit_content_to_r0(_bounded_compared),
            "strcasecmp": self._exit_content_to_r0(_compared(fold=True)),
            "strncasecmp": self._exit_content_to_r0(_bounded_compared),
            "memcmp": self._exit_buffers_to_r0,
            "atoi": self._exit_content_to_r0(_parsed(base_arg=None)),
            "atol": self._exit_content_to_r0(_parsed(base_arg=None)),
            "strtoul": self._exit_content_to_r0(_parsed(base_arg=2)),
            "strchr": self._exit_pointer_derivation,
            "strrchr": self._exit_pointer_derivation,
            "strstr": self._exit_pointer_derivation,
            "memchr": self._exit_pointer_derivation,
            "strdup": self._exit_strdup,
            "malloc": self._exit_fresh_allocation,
            "calloc": self._exit_fresh_allocation,
        }
        for name, handler in entry_models.items():
            self._hook_entry(name, self._clean_variant(name, handler))
        for name, handler in exit_models.items():
            self._hook_entry(name, self._capture_args)
            self._hook_exit(name, self._clean_variant(name, handler,
                                                      captured=True))
        self._hook_entry("realloc", self._capture_realloc)
        self._hook_exit("realloc", self._exit_realloc)

        # libm: results derive from the float/double argument registers.
        exit_libm = self._clean_variant("libm", self._exit_libm,
                                        captured=True)
        for name in self.platform.libm.symbols:
            self.emu.add_entry_hook(
                self.platform.libm.symbols[name],
                self._guard(f"libm.{name}.entry", self._capture_args))
            self.emu.add_exit_hook(
                self.platform.libm.symbols[name],
                self._guard(f"libm.{name}.exit", exit_libm))

        # Sinks.  Each sink hook carries a conservative fallback: if the
        # precise check ever faults and is quarantined, every later call
        # still reports with the engine-wide live label, so degradation
        # over-reports rather than missing a leak.
        self._hook_entry("write", self._sink_buffer("write", fd_arg=0,
                                                    buf_arg=1, len_arg=2),
                         fallback=self._sink_fallback("write"))
        self._hook_entry("send", self._sink_buffer("send", fd_arg=0,
                                                   buf_arg=1, len_arg=2),
                         fallback=self._sink_fallback("send"))
        self._hook_entry("sendto", self._sink_buffer("sendto", fd_arg=0,
                                                     buf_arg=1, len_arg=2),
                         fallback=self._sink_fallback("sendto"))
        self._hook_entry("fwrite", self._sink_fwrite,
                         fallback=self._sink_fallback("fwrite"))
        self._hook_entry("fputs", self._sink_fputs,
                         fallback=self._sink_fallback("fputs"))
        self._hook_entry("fputc", self._sink_fputc,
                         fallback=self._sink_fallback("fputc"))
        self._hook_entry("fprintf", self._sink_fprintf,
                         fallback=self._sink_fallback("fprintf"))
        self._hook_entry("vfprintf", self._sink_vfprintf,
                         fallback=self._sink_fallback("vfprintf"))

    def _hook_entry(self, name: str, handler: Callable,
                    fallback: Optional[Callable] = None) -> None:
        self.emu.add_entry_hook(
            self.libc.symbols[name],
            self._guard(f"libc.{name}.entry", handler, fallback))

    def _hook_exit(self, name: str, handler: Callable) -> None:
        self.emu.add_exit_hook(
            self.libc.symbols[name],
            self._guard(f"libc.{name}.exit", handler))

    def _clean_variant(self, name: str, model: Callable,
                       captured: bool = False) -> Callable:
        """``model`` behind its clean variant, if it has one (see the
        module doc).  A ``captured`` (exit) model takes it only if its
        entry captured clean arguments too."""
        propagations = CLEAN_PROPAGATIONS.get(name)
        if propagations is None:
            return model
        taint = self.taint

        def handler(emu) -> None:
            if taint.maybe_tainted:
                model(emu)
                return
            if captured:
                pending = self._pending_exits
                if not pending or pending[-1][1] is not CLEAR_TAINTS:
                    model(emu)
                    return
                pending.pop()
            self.modelled_calls += 1
            taint.propagation_count += propagations
        return handler

    # -- argument capture for exit-time models --------------------------------------

    def _capture_args(self, emu) -> None:
        """Entry half of an exit-time model: r0-r3 and their taints."""
        taint = self.taint
        taints = tuple(taint.get_register(index) for index in range(4)) \
            if taint.maybe_tainted else CLEAR_TAINTS
        self._pending_exits.append((emu.cpu.regs[:4], taints))

    def _pop_pending(self) -> Optional[tuple]:
        """The matching entry's ``(args, taints)``, or None."""
        if not self._pending_exits:
            return None
        return self._pending_exits.pop()

    # -- Table VI trust-call models ---------------------------------------------------

    def _model_memcpy(self, emu) -> None:
        """The paper's Listing 3: per-byte copy of the source's taints."""
        dest, src, length = emu.cpu.regs[0], emu.cpu.regs[1], emu.cpu.regs[2]
        self.modelled_calls += 1
        self._trace_copy("memcpy", dest, src, length)
        self.taint.copy_memory(dest, src, length)

    def _model_memset(self, emu) -> None:
        dest, value_taint = emu.cpu.regs[0], self.taint.get_register(1)
        length = emu.cpu.regs[2]
        self.modelled_calls += 1
        self.taint.set_memory(dest, length, value_taint)

    def _model_strcpy(self, emu) -> None:
        dest, src = emu.cpu.regs[0], emu.cpu.regs[1]
        length = len(emu.memory.read_cstring(src)) + 1
        self.modelled_calls += 1
        self._trace_copy("strcpy", dest, src, length)
        self.taint.copy_memory(dest, src, length)

    def _model_strncpy(self, emu) -> None:
        dest, src, limit = emu.cpu.regs[0], emu.cpu.regs[1], emu.cpu.regs[2]
        length = min(len(emu.memory.read_cstring(
            src, limit, bounded=True)) + 1, limit)
        self.modelled_calls += 1
        self._trace_copy("strncpy", dest, src, length)
        self.taint.copy_memory(dest, src, length)
        if length < limit:
            self.taint.clear_memory(dest + length, limit - length)

    def _model_strcat(self, emu) -> None:
        dest, src = emu.cpu.regs[0], emu.cpu.regs[1]
        dest_length = len(emu.memory.read_cstring(dest))
        src_length = len(emu.memory.read_cstring(src)) + 1
        self.modelled_calls += 1
        self._trace_copy("strcat", dest + dest_length, src, src_length)
        self.taint.copy_memory(dest + dest_length, src, src_length)

    def _model_free(self, emu) -> None:
        pointer = emu.cpu.regs[0]
        size = self.libc.heap.size_of(pointer)
        self.modelled_calls += 1
        if size:
            self.taint.clear_memory(pointer, size)

    def _capture_realloc(self, emu) -> None:
        pointer, new_size = emu.cpu.regs[0], emu.cpu.regs[1]
        old_size = self.libc.heap.size_of(pointer) or 0
        self._pending_exits.append((
            self.taint.memory_bytes(pointer, min(old_size, new_size)),
            pointer, old_size))

    def _exit_realloc(self, emu) -> None:
        if not self._pending_exits:
            return
        old_taints, old_pointer, old_size = self._pending_exits.pop()
        self.modelled_calls += 1
        new_pointer = emu.cpu.regs[0]
        if old_size:
            self.taint.clear_memory(old_pointer, old_size)
        if new_pointer:
            self.taint.set_memory_bytes(new_pointer, old_taints)

    def _exit_content_to_r0(self, read: Callable):
        """Result derives from the bytes the function reads of its
        leading C-string arguments: ``read(memory, args)`` gives how
        many bytes of each, in argument order."""
        def handler(emu) -> None:
            pending = self._pop_pending()
            if pending is None:
                return
            self.modelled_calls += 1
            args, taints = pending
            label = TAINT_CLEAR
            for index, length in enumerate(read(emu.memory, args)):
                label |= self.taint.get_memory(args[index], length)
                label |= taints[index]
            self.taint.set_register(0, label)
        return handler

    def _exit_buffers_to_r0(self, emu) -> None:
        """``memcmp``: the result derives from exactly ``n`` bytes of
        each buffer."""
        pending = self._pop_pending()
        if pending is None:
            return
        self.modelled_calls += 1
        (first, second, length, __), taints = pending
        self.taint.set_register(
            0, self.taint.get_memory(first, length) |
            self.taint.get_memory(second, length) | taints[0] | taints[1])

    def _exit_pointer_derivation(self, emu) -> None:
        """strchr-style results: a pointer derived from the first arg."""
        pending = self._pop_pending()
        if pending is None:
            return
        self.modelled_calls += 1
        self.taint.set_register(0, pending[1][0])

    def _exit_strdup(self, emu) -> None:
        pending = self._pop_pending()
        if pending is None:
            return
        self.modelled_calls += 1
        args, taints = pending
        source = args[0]
        new_pointer = emu.cpu.regs[0]
        length = len(emu.memory.read_cstring(source)) + 1
        self._trace_copy("strdup", new_pointer, source, length)
        self.taint.copy_memory(new_pointer, source, length)
        self.taint.set_register(0, taints[0])

    def _exit_fresh_allocation(self, emu) -> None:
        pending = self._pop_pending()
        if pending is None:
            return
        self.modelled_calls += 1
        pointer = emu.cpu.regs[0]
        size = self.libc.heap.size_of(pointer)
        if pointer and size:
            self.taint.clear_memory(pointer, size)
        self.taint.clear_register(0)

    def _exit_libm(self, emu) -> None:
        pending = self._pop_pending()
        if pending is None:
            return
        self.modelled_calls += 1
        label = TAINT_CLEAR
        for taint in pending[1]:
            label |= taint
        self.taint.set_register(0, label)
        self.taint.set_register(1, label)

    # -- Table VII sink handlers ------------------------------------------------------

    def _destination_of_fd(self, fd: int) -> str:
        process = self.kernel.current
        descriptor = process.fds.get(fd) if process else None
        if descriptor is None:
            return f"fd:{fd}"
        if descriptor.kind == "socket":
            socket = descriptor.socket
            return (socket.connected_to or socket.bound_to or f"socket:{fd}")
        return descriptor.path or f"fd:{fd}"

    def _report(self, sink: str, label: TaintLabel, destination: str,
                payload: bytes,
                src_locs: Optional[List[Loc]] = None) -> None:
        self.sink_checks += 1
        if label == TAINT_CLEAR:
            return
        self.platform.leaks.report(LeakRecord(
            detector="ndroid", sink=sink, taint=label,
            destination=destination, payload=payload, context="native"))
        syscall = SINK_SYSCALLS.get(sink, sink)
        # A bare syscall sink's edge is the kernel's, recorded over the
        # bytes the device accepted; only the stdio sinks add their own,
        # one per tainted source the call drew from.
        if self.ledger is not None and syscall != sink:
            for src in (src_locs or [Loc.java(label)]):
                tag = label
                if src.kind == "mem":
                    # The precise label actually on those bytes, so the
                    # edge chains back through the native segment.
                    tag = self.taint.get_memory(src.base, src.length) \
                        or label
                self.ledger.record(tag, f"sink:{sink}", src,
                                   Loc.sink(destination),
                                   location=f"syscall:{syscall}")

    def _sink_fallback(self, sink: str):
        """Conservative sink stand-in used once the precise hook is
        quarantined: report the engine-wide live label (over-taint) so a
        degraded run can only over-report leaks, never miss one."""
        def fallback(emu) -> TaintLabel:
            self._report(sink, self.taint.live_label(), "(quarantined)", b"")
            return TAINT_CLEAR
        return fallback

    def _sink_buffer(self, sink: str, fd_arg: int, buf_arg: int,
                     len_arg: int):
        def handler(emu) -> None:
            fd = emu.cpu.regs[fd_arg]
            buffer = emu.cpu.regs[buf_arg]
            length = emu.cpu.regs[len_arg]
            label = self.taint.get_memory(buffer, length)
            destination = self._destination_of_fd(fd)
            if sink == "sendto":
                dest_ptr = emu.memory.read_u32(emu.cpu.sp)
                if dest_ptr:
                    destination = emu.memory.read_cstring(dest_ptr).decode(
                        "utf-8", errors="replace")
            self._report(sink, label, destination,
                         emu.memory.read_bytes(buffer, min(length, 256)),
                         src_locs=[Loc.mem(buffer, length)])
        return handler

    def _sink_fwrite(self, emu) -> None:
        regs = emu.cpu.regs
        buffer = regs[0]
        length = regs[1] * regs[2]
        payload = emu.memory.read_bytes(buffer, min(length, 256))
        if not self.taint.maybe_tainted:
            self.sink_checks += 1
            return
        fd = self._file_fd(regs[3])
        self._report("fwrite", self.taint.get_memory(buffer, length),
                     self._destination_of_fd(fd), payload,
                     src_locs=[Loc.mem(buffer, length)])

    def _sink_fputs(self, emu) -> None:
        buffer = emu.cpu.regs[0]
        data = emu.memory.read_cstring(buffer)
        fd = self._file_fd(emu.cpu.regs[1])
        label = self.taint.get_memory(buffer, len(data))
        self._report("fputs", label, self._destination_of_fd(fd), data,
                     src_locs=[Loc.mem(buffer, max(len(data), 1))])

    def _sink_fputc(self, emu) -> None:
        label = self.taint.get_register(0)
        fd = self._file_fd(emu.cpu.regs[1])
        self._report("fputc", label, self._destination_of_fd(fd),
                     bytes([emu.cpu.regs[0] & 0xFF]),
                     src_locs=[Loc.reg(0)])

    def _file_fd(self, file_pointer: int) -> int:
        return self.libc._file_objects.get(file_pointer, -1)

    def _sink_fprintf(self, emu) -> None:
        """Format the arguments exactly as the callee will, for taints."""
        fd = self._file_fd(emu.cpu.regs[0])
        fmt_ptr = emu.cpu.regs[1]
        payload, label, sources = self._format_taint(emu, fmt_ptr, fixed=2)
        self._report("fprintf", label, self._destination_of_fd(fd), payload,
                     src_locs=sources or None)

    def _sink_vfprintf(self, emu) -> None:
        fd = self._file_fd(emu.cpu.regs[0])
        fmt_ptr, va_list = emu.cpu.regs[1], emu.cpu.regs[2]
        memory = emu.memory
        string_taints, sources = self._capture_string_sources()
        try:
            data, taints = format_with_taints(
                memory, memory.read_cstring(fmt_ptr),
                read_vararg=lambda i: memory.read_u32(va_list + 4 * i),
                vararg_taint=lambda i: self.taint.get_memory(va_list + 4 * i,
                                                             4),
                string_taints=string_taints)
        except FormatError:
            return
        label = TAINT_CLEAR
        for taint in taints:
            label |= taint
        self._report("vfprintf", label, self._destination_of_fd(fd), data,
                     src_locs=sources or None)

    def _capture_string_sources(self):
        """Wrap the %s taint callback to note each tainted source range,
        so format-sink edges chain to the buffers the string came from."""
        sources: List[Loc] = []
        base = self.taint.memory_bytes

        def string_taints(address: int, length: int):
            taints = base(address, length)
            if any(taints):
                sources.append(Loc.mem(address, max(length, 1)))
            return taints

        return string_taints, sources

    def _format_taint(self, emu, fmt_ptr: int, fixed: int):
        memory = emu.memory
        sp = emu.cpu.sp

        def read_vararg(index: int) -> int:
            arg_index = fixed + index
            if arg_index < 4:
                return emu.cpu.regs[arg_index]
            return memory.read_u32(sp + 4 * (arg_index - 4))

        def vararg_taint(index: int) -> TaintLabel:
            arg_index = fixed + index
            if arg_index < 4:
                return self.taint.get_register(arg_index)
            return self.taint.get_memory(sp + 4 * (arg_index - 4), 4)

        string_taints, sources = self._capture_string_sources()
        try:
            data, taints = format_with_taints(
                memory, memory.read_cstring(fmt_ptr),
                read_vararg=read_vararg, vararg_taint=vararg_taint,
                string_taints=string_taints)
        except FormatError:
            return b"", TAINT_CLEAR, []
        label = TAINT_CLEAR
        for taint in taints:
            label |= taint
        return data, label, sources
