"""Core execution engine: translation blocks with instrumentation gating.

Mirroring NDroid's QEMU substrate, the emulator executes *translation
blocks* — straight-line runs decoded once, cached by ``(pc, thumb)`` and
chained to their static successors — rather than fetch/decode/execute per
instruction.  Instrumentation is decided at translation boundaries: while
no per-instruction instrumentation is attached (no tracers, no fault
injector), blocks run through a tight micro-op loop with **zero**
per-instruction checks.  The block exit is compiled too: the terminator
is a translated closure, and a call from it into a host function (the
libc/libm models, NDroid's helpers) runs from the block epilogue, its
return chained to the block's fall-through successor.

Taint analysis is *compiled into* the blocks rather than demoting them
(NDroid inserts its analysis at translation time inside QEMU's TCG
loop): a tracer declaring ``compiles_to_tb`` stays on the block engine —
at translation time the emulator asks it once per page whether the block
is in a third-party region and, when it is, requests a pre-bound Table V
taint micro-op per instruction.  Each such block carries two executable
variants sharing one translation pass: *clean* (taint ops elided) runs
while the taint engine's sticky ``maybe_tainted`` flag is off, *tainted*
(taint ops interleaved before their execution ops) once it flips — the
flag is re-read at every block dispatch, so the transition needs no
retranslation.  Anything else — plain tracers, several taint engines at
once, a fault injector — reverts execution to the single-step
interpreter whose semantics the blocks replicate (that path also serves
as the differential oracle for the compiled one).

Supervision (the resilience subsystem's watchdog and crash ring) is not
a tracer either, so supervised runs stay on blocks too.  The instruction
budget is a block-boundary limit: blocks run only while more than a
block's worth of instructions remains under it, and the last stretch
single-steps, so the watchdog
fires at exactly the instruction and pc it would on the single-step
engine.  The crash ring records one entry per dispatched block; a fault
inside a block rewinds the instruction count, pc and ring to the
faulting instruction, exactly where single-step leaves them.

Invalidation is page-granular and shared between the decode cache and
the block cache.  A page's decoded instructions and blocks die by one
of two paths: a write over its decoded bytes (observed through the
memory write-watch — self-modifying code, a library load, a warm
reset's restore), or a map/unmap of a region covering it (observed
through the memory map; the tracers' cached third-party decisions for
the region's pages die with them).  A host-function registration drops
its page too.  Dropping a page severs chain links, so its code is
re-translated at the next block boundary.  Only a change of the
compiling tracer empties the whole block cache.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.common.errors import (
    AnalysisTimeout,
    DecodeError,
    EmulationError,
    MemoryError_,
)
from repro.cpu.arm_decoder import decode_arm
from repro.cpu.executor import Executor
from repro.cpu.isa import Instruction
from repro.cpu.state import LR, PC, SP, CpuState
from repro.cpu.thumb_decoder import decode_thumb
from repro.emulator.tb import TranslationBlock, TranslationCache
from repro.emulator.translator import (
    build_micro_op,
    build_terminator,
    ends_block,
    interleave_taint_ops,
    static_branch_target,
)
from repro.memory.memory import Memory
from repro.memory.regions import MemoryMap, Region

# Returning to this address stops the run loop; the call bridge sets LR to
# it before jumping into a native method (QEMU's equivalent is returning to
# the JNI trampoline).
EXIT_ADDRESS = 0xFFFF_0000

# Translation stops after this many body micro-ops even without a branch
# (bounds translation latency and keeps invalidation granular).
MAX_BLOCK_OPS = 64

BranchListener = Callable[[int, int, "Emulator"], None]
Tracer = Callable[[Instruction, "Emulator"], None]
Hook = Callable[["Emulator"], None]
SyscallHandler = Callable[[int, "Emulator"], None]
# A fault injector observes named fault points ("step", "decode", "host",
# "hook") and may raise to simulate a failure there.  The resilience
# subsystem's FaultPlan implements this surface; installing one switches
# execution to the per-instruction engine so every fault point fires.
FaultInjector = Callable[..., None]


class HostContext:
    """Argument accessor handed to host functions (AAPCS view).

    The first four arguments live in R0-R3; the rest are on the stack.
    ``set_result`` sets R0 (and R1 for 64-bit results).  It holds no
    per-call state, so each emulator hands every call the same one.
    """

    def __init__(self, emu: "Emulator") -> None:
        self.emu = emu
        self.cpu = emu.cpu
        self.memory = emu.memory

    def arg(self, index: int) -> int:
        if index < 4:
            return self.cpu.regs[index]
        return self.memory.read_u32(self.cpu.sp + 4 * (index - 4))

    def set_result(self, value: int, high: Optional[int] = None) -> None:
        self.cpu.write_reg(0, value)
        if high is not None:
            self.cpu.write_reg(1, high)

    def cstring_arg(self, index: int) -> str:
        return self.memory.read_cstring(self.arg(index)).decode(
            "utf-8", errors="replace")


# A host function receives a HostContext; returning an int sets R0.
HostFunction = Callable[[HostContext], Optional[int]]


class _RegisteredHost:
    """A host function and the hooks on its address, bound once: the
    tuples are rebuilt whenever a hook on the address is added or
    removed, so a call reads them without a lookup."""

    __slots__ = ("name", "function", "entry_hooks", "exit_hooks")

    def __init__(self, name: str, function: HostFunction) -> None:
        self.name = name
        self.function = function
        self.entry_hooks: Tuple[Hook, ...] = ()
        self.exit_hooks: Tuple[Hook, ...] = ()


class BranchWatch:
    """The addresses a branch listener acts on (Thumb bit clear), and the
    branch events it was spared.

    A listener carrying one as its ``branch_watch`` attribute (a wrapper
    made with ``functools.wraps`` keeps it) is called only for a branch
    that leaves or enters one of ``addresses``; the emulator adds every
    other branch event to ``unseen``, so the listener can still count
    all of them.  The addresses are read when the listener is added.
    """

    __slots__ = ("addresses", "unseen")

    def __init__(self) -> None:
        self.addresses: Set[int] = set()
        self.unseen = 0


class Emulator:
    """An emulated ARM machine with analysis instrumentation.

    ``use_tb=False`` forces the pre-translation single-step engine (used
    by the benchmark harness to measure the translation engine's gain).
    """

    def __init__(self, memory: Optional[Memory] = None,
                 use_tb: bool = True) -> None:
        self.memory = memory if memory is not None else Memory()
        self.cpu = CpuState()
        self.memory_map = MemoryMap()
        self.executor = Executor(self.cpu, self.memory,
                                 svc_handler=self._handle_svc)
        self.use_tb = use_tb

        self._decode_cache: Dict[Tuple[int, bool], Instruction] = {}
        # Page-granular reverse index over the decode cache, shared with
        # the translation-block cache's invalidation path.
        self._decode_pages: Dict[int, Set[Tuple[int, bool]]] = {}
        # Per-page [lo, hi) span of addresses actually decoded as code.
        # Writes to a watched page outside this span (literal pools, data
        # buffers sharing a code page) don't invalidate anything.
        self._code_extents: Dict[int, List[int]] = {}
        self._tb_cache = TranslationCache()
        self.memory.set_write_watcher(self._on_code_page_write)

        self._host_functions: Dict[int, _RegisteredHost] = {}
        self._host_context = HostContext(self)
        self._entry_hooks: Dict[int, List[Hook]] = {}
        self._exit_hooks: Dict[int, List[Hook]] = {}
        # Every branch listener in registration order; those without a
        # BranchWatch see every branch (``_open_listeners``), the rest
        # only branches touching ``_watched``, the union of their
        # watches' addresses.  All three are updated in place, so a run
        # loop holding them sees a listener added mid-run.
        self._branch_listeners: List[BranchListener] = []
        self._open_listeners: List[BranchListener] = []
        self._branch_watches: List[BranchWatch] = []
        self._watched: Set[int] = set()
        self._tracers: List[Tracer] = []
        self.syscall_handler: Optional[SyscallHandler] = None
        # Pluggable fault injection (resilience/faults.py); stays None in
        # production runs.  Installing one forces per-instruction mode.
        self._fault_injector: Optional[FaultInjector] = None
        # The injector's ``on_hook(name, instruction_count)`` fault point,
        # or None: what an analysis hook guard reads once per hook.
        self.hook_fault_point: Optional[Callable[[str, int], None]] = None
        # The exact profile (observability): ``pc -> instructions
        # retired`` while tracing is on, else None.  Unlike tracers it
        # does NOT force the single-step engine: blocks credit it whole.
        self._profile: Optional[Dict[int, int]] = None
        # Supervision (set_supervision): the watchdog's absolute
        # instruction limit and the crash ring.  Neither is a tracer.
        self._instruction_limit: Optional[int] = None
        self._crash_ring = None
        # Called with each dispatched block while a profile or a crash
        # ring is attached; the dispatch loop's one per-block check.
        self._block_monitor: Optional[Callable[[TranslationBlock], None]] \
            = None
        # Optional span tracer (observability/spans.py).  Emits only at
        # translation time — a cache-miss path — never per block run, so
        # execution order and instruction counts are identical either way.
        self.span_tracer = None
        # True while any per-instruction instrumentation is attached.
        self._per_step_instrumentation = False
        # The single attached tracer whose taint propagation is compiled
        # into translation blocks (None when no tracer, a non-compiling
        # tracer, several tracers, or a fault injector is attached).
        self._taint_compiler = None
        # Compiled blocks bake in per-page third-party decisions; a
        # region-table change must drop the caches of its pages.
        self.memory_map.subscribe(self._on_region_change)
        self._init_job_state()

    # -- warm workers: checkpoint and reset -----------------------------------

    def _init_job_state(self) -> None:
        self.instruction_count = 0
        self.host_call_count = 0
        self.decode_count = 0
        # Wall-clock seconds spent inside _translate (warm-vs-cold bench).
        self.translate_seconds = 0.0
        self._pending_exits: List[Tuple[int, int, Hook]] = []
        self._stop_requested = False
        # Nested call() invocations each get their own return sentinel so
        # an inner function's return never triggers an outer caller's
        # pending exit hooks (both would otherwise target EXIT_ADDRESS).
        self._call_depth = 0

    def checkpoint(self) -> None:
        """Record the booted CPU state, tracers and branch listeners."""
        cpu = CpuState()
        cpu.load(self.cpu)
        self._checkpoint = (cpu, list(self._tracers),
                            list(self._branch_listeners))

    def reset_for_job(self) -> None:
        """Shed the job's instrumentation (supervision, fault injector,
        tracers and listeners added since the checkpoint), zero counters
        and CPU; caches stay warm.  The write watcher is registered
        again, so a forked child invalidates its own caches."""
        cpu, tracers, branch_listeners = self._checkpoint
        self.set_supervision(None)
        for tracer in [t for t in self._tracers if t not in tracers]:
            self.remove_tracer(tracer)
        self.fault_injector = None
        if self._branch_listeners != branch_listeners:
            self._branch_listeners[:] = branch_listeners
            self._refresh_branch_watch()
        self.memory.set_write_watcher(self._on_code_page_write)
        self._tb_cache.reset_counters()
        self.cpu.load(cpu)
        self._init_job_state()

    # -- code/data loading ----------------------------------------------------

    def load(self, address: int, data: bytes) -> None:
        """Write code (or data) into guest memory; the write watcher
        drops whatever was decoded from the bytes it overwrites."""
        self.memory.write_bytes(address, data)

    def invalidate_page(self, page: int) -> None:
        """Drop a page's decoded instructions and translated blocks."""
        keys = self._decode_pages.pop(page, None)
        if keys:
            for key in keys:
                self._decode_cache.pop(key, None)
        self._code_extents.pop(page, None)
        self._tb_cache.invalidate_page(page)
        self.memory.unwatch_page(page)

    def _on_code_page_write(self, page: int, start: int, end: int) -> None:
        extent = self._code_extents.get(page)
        if extent is None:
            return
        # Only writes overlapping bytes that were actually decoded as
        # code invalidate; data sharing the page (literal pools, .space
        # buffers) is written freely.
        base = page << 12
        if base + start < extent[1] and base + end > extent[0]:
            self.invalidate_page(page)

    # -- instrumentation bookkeeping ------------------------------------------

    def hooked_only_by(self, address: int, *hooks: Hook) -> bool:
        """True when ``hooks`` — an (entry, exit) pair, or none — are all
        that could observe a call of the host function at ``address``.

        The TB engine must be on, with no fault injector and no per-step
        engine, and the address's hooks must be exactly ``hooks``.  A
        caller that holds those hooks' semantics host-side (the JNI
        layer's crossing plan) may then run them itself instead of
        calling into the guest.
        """
        expected = [[hook] for hook in hooks] if hooks else [[], []]
        return (self.runs_blocks and self._fault_injector is None
                and [self._entry_hooks.get(address, []),
                     self._exit_hooks.get(address, [])] == expected)

    @property
    def runs_blocks(self) -> bool:
        """True while :meth:`run` executes translated blocks: the TB
        engine is on and no per-instruction instrumentation demotes it."""
        return self.use_tb and not self._per_step_instrumentation

    def _refresh_instrumentation(self) -> None:
        compilers = [tracer for tracer in self._tracers
                     if getattr(tracer, "compiles_to_tb", False)]
        # Exactly one compiling tracer and no fault injector: its taint
        # propagation rides inside the translation blocks.  Everything
        # else needs the per-instruction engine (the fault injector must
        # see every fault point; a second engine would break the
        # per-block maybe_tainted variant choice).
        if self._fault_injector is None and self._tracers and \
                len(compilers) == len(self._tracers) == 1:
            new_compiler = compilers[0]
            self._per_step_instrumentation = False
        else:
            new_compiler = None
            self._per_step_instrumentation = bool(self._tracers) or \
                self._fault_injector is not None
        if new_compiler is not self._taint_compiler:
            # Existing blocks lack (or embed) the old instrumentation: the
            # one change that drops every block (decodes stay).
            self._taint_compiler = new_compiler
            for page in self._tb_cache.pages():
                if page not in self._decode_pages:
                    self.memory.unwatch_page(page)
            self._tb_cache.flush()

    def _on_region_change(self, region: Region) -> None:
        """``region`` was mapped or unmapped: the third-party decisions
        cached for its pages, in tracers and in compiled blocks, may be
        stale.  Walks the pages holding cached code, not the region's."""
        pages = region.pages
        for page in [page for page in self._tb_cache.pages() |
                     self._decode_pages.keys() if page in pages]:
            self.invalidate_page(page)
        for tracer in self._tracers:
            invalidate = getattr(tracer, "invalidate_region_cache", None)
            if invalidate is not None:
                invalidate(region)

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector: Optional[FaultInjector]) -> None:
        self._fault_injector = injector
        self.hook_fault_point = getattr(injector, "on_hook", None)
        self._refresh_instrumentation()

    @property
    def profile(self) -> Optional[Dict[int, int]]:
        return self._profile

    @profile.setter
    def profile(self, profile: Optional[Dict[int, int]]) -> None:
        # Deliberately no _refresh_instrumentation(): the profile is
        # credited per block and must not demote the TB fast path.
        self._profile = profile
        self._refresh_block_monitor()

    def set_supervision(self, limit: Optional[int], ring=None) -> None:
        """Arm (or, with ``None``s, disarm) the supervisor's watchdog and
        crash ring.

        The instruction at which ``instruction_count`` reaches ``limit``
        raises :class:`AnalysisTimeout` instead of executing, after it
        was recorded in ``ring`` (an ``InstructionRingBuffer``).  Neither
        demotes translated blocks, so the translation cache survives
        arming and disarming.
        """
        self._instruction_limit = limit
        self._crash_ring = ring
        self._refresh_block_monitor()

    def _refresh_block_monitor(self) -> None:
        """One branch-free monitor per combination of profile and ring:
        the crash ring's is the one every supervised job runs."""
        profile, ring = self._profile, self._crash_ring
        entries = ring.entries if ring is not None else None
        emu = self

        def credit(tb: TranslationBlock) -> None:
            pc = tb.pc
            profile[pc] = profile.get(pc, 0) + tb.length

        def record(tb: TranslationBlock) -> None:
            entries.append((tb.pc, tb.thumb, tb.irs, emu.instruction_count))

        def credit_and_record(tb: TranslationBlock) -> None:
            pc = tb.pc
            profile[pc] = profile.get(pc, 0) + tb.length
            entries.append((pc, tb.thumb, tb.irs, emu.instruction_count))

        if profile is None:
            self._block_monitor = None if ring is None else record
        else:
            self._block_monitor = credit if ring is None \
                else credit_and_record

    # -- host functions -------------------------------------------------------

    def register_host_function(self, address: int, name: str,
                               function: HostFunction) -> int:
        """Install a Python-implemented function at an emulated address."""
        if address in self._host_functions:
            raise EmulationError(
                f"host function already registered @ 0x{address:08x}")
        self._host_functions[address] = _RegisteredHost(name, function)
        self._bind_host_hooks(address)
        # Blocks translated before this registration assumed the address
        # held (or preceded) translatable code.
        self.invalidate_page((address & ~1) >> 12)
        return address

    def is_host_address(self, address: int) -> bool:
        return (address & ~1) in self._host_functions

    def call_host(self, address: int) -> None:
        """Invoke a host function as if emulated code branched to it.

        Used by host functions that internally call other hooked functions
        (e.g. ``CallVoidMethodA`` → ``dvmCallMethodA`` → ``dvmInterpret``),
        so the branch-event chain the multilevel hooks watch is preserved,
        and entry/exit hooks fire exactly as for an emulated call.
        """
        caller_pc = self.cpu.pc
        self._notify_branch(caller_pc, address)
        exit_hooks = self._dispatch_host(address, caller_pc + 4)
        self._notify_branch(address, caller_pc + 4)
        if self._pending_exits:
            self._fire_exit_hooks(caller_pc + 4)
        for hook in exit_hooks:
            hook(self)

    # -- hooks -----------------------------------------------------------------

    # Hooks fire on branch targets at block boundaries; no translated
    # block embeds them, so adding one keeps the caches (a native
    # method's SourcePolicy hook, installed on its first crossing, must
    # not drop its library's warm blocks).  A guest function's hooks are
    # looked up when the branch is taken and its exit hooks wait for the
    # return site; a host function's are bound to its registration, and
    # its exit hooks fire when its body returns.

    def add_entry_hook(self, address: int, hook: Hook) -> Hook:
        """Fire ``hook`` on entry to ``address``; returns the registered
        hook (the identity :meth:`hooked_only_by` compares)."""
        self._entry_hooks.setdefault(address & ~1, []).append(hook)
        self._bind_host_hooks(address & ~1)
        return hook

    def add_exit_hook(self, address: int, hook: Hook) -> Hook:
        """Fire ``hook`` on return from ``address``; returns it too."""
        self._exit_hooks.setdefault(address & ~1, []).append(hook)
        self._bind_host_hooks(address & ~1)
        return hook

    def remove_entry_hook(self, address: int, hook: Hook) -> None:
        """Undo :meth:`add_entry_hook` (translations stay valid)."""
        hooks = self._entry_hooks[address & ~1]
        hooks.remove(hook)
        if not hooks:
            del self._entry_hooks[address & ~1]
        self._bind_host_hooks(address & ~1)

    def _bind_host_hooks(self, address: int) -> None:
        registered = self._host_functions.get(address)
        if registered is not None:
            registered.entry_hooks = tuple(self._entry_hooks.get(
                address & ~1, ()))
            registered.exit_hooks = tuple(self._exit_hooks.get(
                address & ~1, ()))

    def add_branch_listener(self, listener: BranchListener) -> None:
        """Call ``listener(i_from, i_to, emu)`` on every taken branch, or,
        when it carries a :class:`BranchWatch`, on every branch touching
        the watch's addresses (see there)."""
        self._branch_listeners.append(listener)
        self._refresh_branch_watch()

    def _refresh_branch_watch(self) -> None:
        """Re-split the listeners and, if the watched addresses changed,
        re-decide every cached block's ``watch`` flag."""
        watches = [getattr(listener, "branch_watch", None)
                   for listener in self._branch_listeners]
        self._open_listeners[:] = [
            listener for listener, watch in
            zip(self._branch_listeners, watches) if watch is None]
        self._branch_watches[:] = [watch for watch in watches
                                   if watch is not None]
        watched = set()
        for watch in self._branch_watches:
            watched |= watch.addresses
        if watched != self._watched:
            self._watched.clear()
            self._watched.update(watched)
            for tb in self._tb_cache.blocks():
                tb.watch = self._watch_flag(tb)

    def _watch_flag(self, tb: TranslationBlock) -> Optional[bool]:
        """Whether ``tb``'s taken branch touches a watched address: True
        or False when its source or static target decides it, None when
        its dynamic target must be tested at the branch."""
        watched = self._watched
        if tb.term_op is None:
            return False
        if (tb.term_pc & ~1) in watched:
            return True
        if tb.taken_pc is None:
            return None
        return (tb.taken_pc & ~1) in watched

    def add_tracer(self, tracer: Tracer) -> None:
        self._tracers.append(tracer)
        self._refresh_instrumentation()

    def remove_tracer(self, tracer: Tracer) -> None:
        self._tracers.remove(tracer)
        self._refresh_instrumentation()

    def _notify_branch(self, i_from: int, i_to: int) -> None:
        if not self._branch_listeners:
            return
        watched = self._watched
        if (i_to & ~1) in watched or (i_from & ~1) in watched:
            for listener in self._branch_listeners:
                listener(i_from, i_to, self)
            return
        for watch in self._branch_watches:
            watch.unseen += 1
        for listener in self._open_listeners:
            listener(i_from, i_to, self)

    def _fire_entry_hooks(self, address: int) -> None:
        """A guest function was entered: fire its entry hooks and queue
        its exit hooks for its return site (LR) and stack level."""
        hooks = self._entry_hooks.get(address & ~1)
        if hooks:
            for hook in hooks:
                hook(self)
        exit_hooks = self._exit_hooks.get(address & ~1)
        if exit_hooks:
            return_address = self.cpu.lr & ~1
            for hook in exit_hooks:
                self._pending_exits.append((return_address, self.cpu.sp, hook))

    def _fire_exit_hooks(self, address: int) -> None:
        if not self._pending_exits:
            return
        address &= ~1
        # Fire every pending exit whose recorded return site we just reached
        # with the stack back at (or above) the call-time level.
        remaining: List[Tuple[int, int, Hook]] = []
        for return_address, sp_at_entry, hook in self._pending_exits:
            if return_address == address and self.cpu.sp >= sp_at_entry:
                hook(self)
            else:
                remaining.append((return_address, sp_at_entry, hook))
        self._pending_exits = remaining

    # -- syscalls ---------------------------------------------------------------

    def _handle_svc(self, imm: int, cpu: CpuState, memory: Memory) -> None:
        if self.syscall_handler is None:
            raise EmulationError(f"SVC #{imm} but no syscall handler installed")
        self.syscall_handler(imm, self)

    # -- fault points -------------------------------------------------------------

    def fire_fault_point(self, point: str, **context: Any) -> None:
        """Give the installed fault injector a chance to fail ``point``.

        The named points sit at the emulator's existing raise sites: a
        fault plan raising here is indistinguishable from the organic
        failure (undecodable word, wild pointer, broken hook).
        """
        if self._fault_injector is not None:
            self._fault_injector(point, self, **context)

    # -- decode -----------------------------------------------------------------

    def _decode(self, address: int, thumb: bool) -> Instruction:
        key = (address, thumb)
        cached = self._decode_cache.get(key)
        if cached is not None:
            return cached
        self.decode_count += 1
        self.fire_fault_point("decode", address=address, thumb=thumb)
        try:
            if thumb:
                halfword = self.memory.read_u16(address)
                next_halfword = self.memory.read_u16(address + 2)
                ir = decode_thumb(halfword, next_halfword)
            else:
                ir = decode_arm(self.memory.read_u32(address))
        except DecodeError as error:
            if error.pc is None:
                error.pc = address
            raise
        self._decode_cache[key] = ir
        # Track (and watch) the pages this decode read, so a write to
        # them invalidates the cached instruction.
        end = address + ir.width
        for page in range(address >> 12, (end - 1 >> 12) + 1):
            self._decode_pages.setdefault(page, set()).add(key)
            extent = self._code_extents.get(page)
            if extent is None:
                self._code_extents[page] = [address, end]
            else:
                if address < extent[0]:
                    extent[0] = address
                if end > extent[1]:
                    extent[1] = end
            self.memory.watch_page(page)
        return ir

    # -- single-step engine (instrumented mode) ----------------------------------

    def step(self) -> None:
        """Execute a single instruction (or host function) at PC."""
        pc = self.cpu.pc
        self.fire_fault_point("step", pc=pc,
                              instruction_count=self.instruction_count)
        if self.is_host_address(pc):
            self._run_host(pc)
            return
        ir = self._decode(pc, self.cpu.thumb)
        for tracer in self._tracers:
            tracer(ir, self)
        if self._crash_ring is not None:
            self._crash_ring(ir, self)
        limit = self._instruction_limit
        if limit is not None and self.instruction_count >= limit:
            raise AnalysisTimeout(limit, pc)
        wrote_pc = self.executor.execute(ir)
        self.instruction_count += 1
        profile = self._profile
        if profile is not None:
            profile[pc] = profile.get(pc, 0) + 1
        if wrote_pc:
            target = self.cpu.pc
            self._notify_branch(pc, target)
            self._fire_exit_hooks(target)
            if not self.is_host_address(target):
                # Host dispatch fires entry hooks itself on the next step.
                self._fire_entry_hooks(target)
        else:
            self.cpu.pc = pc + ir.width

    # -- translation ----------------------------------------------------------------

    def _translate(self, pc: int, thumb: bool) -> TranslationBlock:
        """Decode a straight-line run starting at ``pc`` into a block.

        With a taint-compiling tracer attached, the third-party region
        lookup is hoisted here — once per page the block covers, instead
        of once per executed instruction — and each in-scope instruction
        gets a pre-bound taint micro-op for the block's tainted variant.

        Decoding runs ahead of execution, so a word past the block's first
        instruction that fails to fetch or decode ends the block before
        it: the error is raised when control reaches that word, with the
        preceding instructions executed, exactly as single-step raises it.
        """
        tracer = self.span_tracer
        span_start = tracer.now() if tracer is not None else 0.0
        translate_start = time.perf_counter()
        ops = []
        irs: List[Instruction] = []
        specialised = 0
        term_op = None
        term_ir: Optional[Instruction] = None
        term_pc = pc
        current = pc
        hosts = self._host_functions
        compiler = self._taint_compiler
        taint_slots: List = []
        traced = 0
        term_taint_op = None
        scope_page = -1
        in_scope = False
        while True:
            if current in hosts or (current | 1) in hosts:
                break  # host boundary: fall through into host dispatch
            if irs:
                try:
                    ir = self._decode(current, thumb)
                except (DecodeError, MemoryError_):
                    break  # raised again when control gets here
            else:
                ir = self._decode(current, thumb)
            irs.append(ir)
            if compiler is not None:
                page = current >> 12
                if page != scope_page:
                    scope_page = page
                    in_scope = compiler.in_scope(current)
            if ends_block(ir):
                term_ir = ir
                term_pc = current
                term_op, is_specialised = build_terminator(
                    ir, current, thumb, self.cpu, self.memory, self.executor)
                specialised += is_specialised
                if compiler is not None and in_scope:
                    term_taint_op = compiler.compile_taint_op(
                        ir, current, self)
                    traced += 1
                current += ir.width
                break
            op, is_specialised = build_micro_op(
                ir, current, thumb, self.cpu, self.memory, self.executor)
            ops.append(op)
            if compiler is not None and in_scope:
                taint_slots.append(compiler.compile_taint_op(
                    ir, current, self))
                traced += 1
            else:
                taint_slots.append(None)
            if is_specialised:
                specialised += 1
            current += ir.width
            if len(ops) >= MAX_BLOCK_OPS:
                break
        fall_pc = current & 0xFFFF_FFFF
        taken_pc = (static_branch_target(term_ir, term_pc, thumb)
                    if term_ir is not None else None)
        pages = tuple(range(pc >> 12, ((current + 3) >> 12) + 1))
        body_ops = tuple(ops)
        taint_ops = (interleave_taint_ops(body_ops, taint_slots)
                     if traced else None)
        tb = TranslationBlock(
            pc=pc, thumb=thumb, ops=body_ops, term_op=term_op,
            term_ir=term_ir,
            term_pc=term_pc, fall_pc=fall_pc, taken_pc=taken_pc,
            length=len(ops) + (1 if term_ir is not None else 0),
            pages=pages, specialised=specialised, irs=tuple(irs),
            taint_ops=taint_ops, term_taint_op=term_taint_op, traced=traced)
        tb.watch = self._watch_flag(tb)
        self._tb_cache.put(tb)
        for page in pages:
            self.memory.watch_page(page)
        self.translate_seconds += time.perf_counter() - translate_start
        if tracer is not None:
            tracer.complete("tb_translate", span_start, cat="engine",
                            pc=pc, ops=tb.length, traced=traced)
        return tb

    def translation_stats(self) -> Dict[str, int]:
        return {
            "blocks": len(self._tb_cache),
            "translations": self._tb_cache.translations,
            "invalidations": self._tb_cache.invalidations,
        }

    # -- block dispatch (uninstrumented fast path) ---------------------------------

    def _run_translated(self, stop_at: int, budget: int) -> int:
        """Run translated blocks until a boundary condition; returns steps.

        Exits when ``stop_at`` is reached, ``stop()`` was requested,
        per-instruction instrumentation appeared (a hook attached a
        tracer), or the step budget is exhausted (the caller re-checks
        and raises).  The inner loop performs no per-instruction checks:
        boundary work (branch listeners, entry/exit hooks, host
        dispatch, stop/budget checks) happens between blocks only.
        A guest fault inside a block is unwound by :meth:`_abort_block`
        on the (zero-cost until taken) exception path.

        The block epilogue runs the translated terminator.  When it
        branches to a host function, the epilogue dispatches the call
        itself (behind the same checks the loop head makes before any
        dispatch), and a return to the block's ``fall_pc`` in the
        block's mode chains through ``succ_fall`` instead of
        re-resolving through the cache.
        """
        cpu = self.cpu
        regs = cpu.regs
        cache = self._tb_cache
        hosts = self._host_functions
        listeners = self._branch_listeners
        open_listeners = self._open_listeners
        watched = self._watched
        watches = self._branch_watches
        entry_hooks = self._entry_hooks
        exit_hooks = self._exit_hooks
        # Hoisted like the other per-block state: one `is not None` check
        # per block, shared by the profile and the crash ring.
        monitor = self._block_monitor
        limit = self._instruction_limit
        compiler = self._taint_compiler
        # The sticky flag is re-read at every block dispatch: taint only
        # enters through hooks, host functions and syscalls, all of which
        # fire at block boundaries, so choosing the variant per block is
        # exactly as precise as the single-step engine's per-instruction
        # check.
        engine = compiler.taint if compiler is not None else None
        executed = 0
        tb: Optional[TranslationBlock] = None
        # Pending chain link: (predecessor, True for taken-edge).
        link: Optional[Tuple[TranslationBlock, bool]] = None
        while executed < budget:
            pc = regs[PC]
            if pc == stop_at or self._stop_requested or \
                    self._per_step_instrumentation or \
                    self._taint_compiler is not compiler:
                break  # (a hook may re-wire instrumentation mid-run)
            if tb is None or not tb.valid:
                if (pc & ~1) in hosts:
                    self._run_host(pc)
                    executed += 1
                    tb = None
                    link = None
                    if limit is not None:
                        # Nested emulation inside the host function
                        # counted toward the watchdog: re-fit the budget.
                        budget = min(budget, executed + limit -
                                     self.instruction_count - MAX_BLOCK_OPS)
                    continue
                tb = cache.get((pc, cpu.thumb))
                if tb is None:
                    tb = self._translate(pc, cpu.thumb)
                if link is not None:
                    predecessor, taken_edge = link
                    if predecessor.valid:
                        if taken_edge:
                            predecessor.succ_taken = tb
                        else:
                            predecessor.succ_fall = tb
                    link = None

            if monitor is not None:
                monitor(tb)

            # ---- the tight loop: zero per-instruction checks ----
            # Variant choice: tainted (taint ops interleaved) once any
            # label is live, clean (plain body) otherwise.
            tainted = engine is not None and engine.maybe_tainted
            try:
                for op in (tb.taint_ops if tainted else tb.ops):
                    op()
            except Exception:
                self._abort_block(tb, *self._fault_position(
                    tb, tb.taint_ops if tainted else tb.ops, op))
                raise
            if compiler is not None and tb.traced:
                compiler.traced_instructions += tb.traced

            executed += tb.length
            term_op = tb.term_op
            if term_op is None:
                # Block was cut short (length cap / host code ahead).
                wrote_pc = False
            else:
                if tainted and tb.term_taint_op is not None:
                    regs[PC] = tb.term_pc
                    try:
                        tb.term_taint_op()
                    except Exception:
                        self._abort_block(tb, len(tb.ops), False)
                        raise
                try:
                    wrote_pc = term_op()
                except Exception:
                    self._abort_block(tb, len(tb.ops), True)
                    raise
            self.instruction_count += tb.length
            if not wrote_pc:
                regs[PC] = tb.fall_pc
                successor = tb.succ_fall
                if successor is None:
                    link = (tb, False)
                tb = successor
                continue

            target = regs[PC]
            # Block-boundary instrumentation (cheap presence checks; the
            # paper's per-crossing hooks live here, not per instruction).
            if listeners:
                watch = tb.watch
                if watch is None:
                    watch = (target & ~1) in watched
                if watch:
                    term_pc = tb.term_pc
                    for listener in listeners:
                        listener(term_pc, target, self)
                else:
                    for spared in watches:
                        spared.unseen += 1
                    if open_listeners:
                        for listener in open_listeners:
                            listener(tb.term_pc, target, self)
            if self._pending_exits:
                self._fire_exit_hooks(target)
            address = target & ~1
            if address in hosts:
                # A call into a host function (a libc/libm model): run it
                # here unless the loop head would stop first.
                if executed >= budget or target == stop_at or \
                        self._stop_requested or \
                        self._per_step_instrumentation or \
                        self._taint_compiler is not compiler:
                    tb = None
                    continue
                self._run_host(target)
                executed += 1
                if limit is not None:
                    budget = min(budget, executed + limit -
                                 self.instruction_count - MAX_BLOCK_OPS)
                if regs[PC] == tb.fall_pc and cpu.thumb == tb.thumb:
                    successor = tb.succ_fall
                    if successor is None:
                        link = (tb, False)
                    tb = successor
                else:
                    tb = None
                continue
            if address in entry_hooks or address in exit_hooks:
                self._fire_entry_hooks(target)
            if target == tb.taken_pc:
                successor = tb.succ_taken
                if successor is None:
                    link = (tb, True)
                tb = successor
            else:
                tb = None  # dynamic target (BX, LDR pc, ...): re-resolve
        return executed

    def _run_host(self, pc: int) -> None:
        """A host call reached by either engine: its profile entry (a
        host model retires no guest instruction, so it is credited
        none), then the call and its simulated return: the return
        branch, the guest functions' exits waiting at the return site,
        and the host function's own exit hooks."""
        profile = self._profile
        address = pc & ~1
        if profile is not None and address not in profile:
            profile[address] = 0
        cpu = self.cpu
        regs = cpu.regs
        return_address = regs[LR]
        exit_hooks = self._dispatch_host(address, return_address)
        cpu.thumb = bool(return_address & 1)
        target = return_address & 0xFFFF_FFFE
        regs[PC] = target
        if self._branch_listeners:
            self._notify_branch(address, target)
        if self._pending_exits:
            self._fire_exit_hooks(target)
        for hook in exit_hooks:
            hook(self)

    @staticmethod
    def _fault_position(tb: TranslationBlock, body: Tuple,
                        faulting: Callable[[], None]) -> Tuple[int, bool]:
        """Locate the micro-op ``faulting`` of ``body`` (either variant of
        ``tb``): the index of its instruction, and whether it was that
        instruction's execution op (True) or its taint op (False).

        Identity is checked in order because body ops need not be unique
        objects (every NOP shares one closure); the first match is the
        faulting one, since a shared op is stateless and cannot raise
        where an earlier copy did not.
        """
        ops = tb.ops
        index = 0
        for candidate in body:
            execution = index < len(ops) and candidate is ops[index]
            if candidate is faulting:
                return index, execution
            index += execution
        raise AssertionError("faulting micro-op is not in its block")

    def _abort_block(self, tb: TranslationBlock, index: int,
                     recorded: bool) -> None:
        """Leave the machine where the single-step engine leaves it when
        instruction ``index`` of ``tb`` faults: the instructions before it
        counted, the pc on it, and the crash ring ending with it when it
        got as far as being traced (``recorded``: its execution faulted,
        not its taint propagation)."""
        self.instruction_count += index
        if self._profile is not None:
            # The block monitor credited the whole block on dispatch.
            self._profile[tb.pc] -= tb.length - index
        pc = tb.pc
        for ir in tb.irs[:index]:
            pc += ir.width
        self.cpu.regs[PC] = pc & 0xFFFF_FFFF
        if self._crash_ring is not None:
            self._crash_ring.truncate_last(index + recorded)

    # -- run loop ---------------------------------------------------------------------

    def run(self, max_steps: int = 5_000_000,
            stop_at: int = EXIT_ADDRESS) -> int:
        """Run until control returns to ``stop_at``.

        Returns the number of steps executed.  Raises on runaway loops so
        a broken scenario fails fast instead of hanging the test suite
        (translated blocks execute whole, so up to one block length may
        run beyond ``max_steps`` before the overrun is detected).

        The supervisor's instruction limit is exact, not overrun: blocks
        (at most ``MAX_BLOCK_OPS`` instructions each) run only while more
        than ``MAX_BLOCK_OPS`` instructions remain under it, and the rest
        single-steps.
        """
        self._stop_requested = False
        steps = 0
        cpu = self.cpu
        while cpu.regs[PC] != stop_at:
            if self._stop_requested:
                break
            if steps >= max_steps:
                raise EmulationError(f"exceeded {max_steps} steps",
                                     pc=cpu.pc,
                                     mode="thumb" if cpu.thumb else "arm")
            if self.use_tb and not self._per_step_instrumentation:
                budget = max_steps - steps
                limit = self._instruction_limit
                if limit is not None:
                    budget = min(budget, limit - self.instruction_count -
                                 MAX_BLOCK_OPS)
                if budget > 0:
                    steps += self._run_translated(stop_at, budget)
                    continue
            self.step()
            steps += 1
        return steps

    def stop(self) -> None:
        self._stop_requested = True

    # -- host dispatch -----------------------------------------------------------------

    def _dispatch_host(self, address: int,
                       return_address: int) -> Tuple[Hook, ...]:
        """Run the host function at ``address`` behind its entry hooks;
        returns its exit hooks, for the caller to fire once it has
        returned to ``return_address``.  The caller captures that before
        the call: the host body may run nested emulation (e.g. the JNI
        bridge calling into native code), which clobbers LR exactly as a
        real call would."""
        registered = self._host_functions.get(address)
        if registered is None:
            raise EmulationError(f"no host function @ 0x{address:08x}",
                                 pc=address)
        self.host_call_count += 1
        if self._fault_injector is not None:
            self._fault_injector("host", self, address=address,
                                 name=registered.name)
        for hook in registered.entry_hooks:
            hook(self)
        exit_hooks = registered.exit_hooks
        result = registered.function(self._host_context)
        if result is not None:
            self.cpu.regs[0] = result & 0xFFFF_FFFF
        return exit_hooks

    def call(self, address: int, args: Tuple[int, ...] = (),
             max_steps: int = 5_000_000) -> int:
        """Call an emulated (or host) function with AAPCS arguments.

        Extra arguments beyond four are pushed on the stack.  Returns R0.
        Calls nest (host functions invoke native code and vice versa);
        each nesting level returns to its own sentinel address.
        """
        stack_args = list(args[4:])
        for index, value in enumerate(args[:4]):
            self.cpu.write_reg(index, value & 0xFFFF_FFFF)
        saved_sp = self.cpu.sp
        if stack_args:
            self.cpu.sp = self.cpu.sp - 4 * len(stack_args)
            self.memory.write_words(self.cpu.sp,
                                    [value & 0xFFFF_FFFF for value in stack_args])
        sentinel = EXIT_ADDRESS + 16 * self._call_depth
        self._call_depth += 1
        try:
            self.cpu.lr = sentinel
            self.cpu.thumb = bool(address & 1)
            self.cpu.pc = address & ~1
            self._notify_branch(sentinel, self.cpu.pc)
            if not self.is_host_address(self.cpu.pc):
                # Host dispatch fires entry hooks itself inside step().
                self._fire_entry_hooks(self.cpu.pc)
            self.run(max_steps=max_steps, stop_at=sentinel)
        finally:
            self._call_depth -= 1
        self.cpu.sp = saved_sp
        return self.cpu.regs[0]
